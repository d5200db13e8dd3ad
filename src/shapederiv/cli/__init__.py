"""Command-line entry point: config-driven pipelines with written reports.

    shapederiv <command> --config <path> [--output <dir>] [--verbose]

Commands: qp-demo, stokes-solve, shape-derivative, fd-verify, corollary3,
convergence.  Every run writes summary.txt (human) and report.kv
(machine, 17-digit floats, fixed order) plus command-specific CSV tables;
the resolved config is embedded in report.kv for provenance.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

import numpy as np

from .. import core_minimax as cm
from ..errors import ConfigError, ShapeDerivError
from ..shape_derivative import corollary3_check, fd_verify, stokes_shape_derivative, assemble_perturbation
from ..slopes import FdTable, fd_table
from ..stokes_fem import assemble, convergence_study, energy, inf_sup_constant, solve_stokes
from ..fields import trig_manufactured
from .config import COMMANDS, RunConfig, parse_config
from .report import ReportWriter, fmt6, fmt17, vec17

__all__ = ["main", "console_main", "run"]


def _bundled_qp_path():
    return resources.files("shapederiv").joinpath("data", "qp6.txt")


def _qp_demo(cfg: RunConfig, rep: ReportWriter) -> None:
    qp_path = cfg.value("qp", "path")
    try:
        if qp_path:
            qp, direction = cm.load_qp(qp_path)
        else:
            with resources.as_file(_bundled_qp_path()) as path:
                qp, direction = cm.load_qp(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"qp file: {exc}") from None
    max_iter = cfg.value("tolerances", "max_iter")
    sp = cm.solve_saddle_point(qp, max_iter=max_iter)
    obj = cm.objective_value(qp, sp.u)
    lag = cm.lagrangian_value(qp, sp.u, sp.lam)
    rep.add_kv("result.n", qp.n)
    rep.add_kv("result.m", qp.m)
    rep.add_kv("result.cone", qp.cone.value)
    rep.add_kv("result.u", vec17(sp.u))
    rep.add_kv("result.lambda", vec17(sp.lam))
    rep.add_kv("result.objective", obj)
    rep.add_kv("result.lagrangian", lag)
    rep.add_kv("result.kkt_residual", sp.kkt_residual)
    rep.add_kv("result.active_set_steps", sp.iterations)
    rep.add_kv("result.lbb_constant", cm.check_lbb(qp))
    rep.add_summary(f"cone QP: n={qp.n}, m={qp.m}, cone={qp.cone.value}")
    rep.add_summary(
        f"objective {fmt6(obj)}, Lagrangian {fmt6(lag)}, KKT residual {fmt6(sp.kkt_residual)}, "
        f"{sp.iterations} active-set steps"
    )
    if direction is None:
        rep.add_summary("no perturbation direction in the instance file")
        return
    l1 = cm.shape_derivative(qp, direction, sp)
    rep.add_kv("result.L1", l1)
    rep.add_summary(f"L1 = {fmt6(l1)}")
    table = fd_table(lambda s: cm.optimal_value(qp, direction, s, max_iter), l1, obj, cfg.value("run", "s_list"))
    _emit_fd_table(rep, table, l1)


def _stokes_solve(cfg: RunConfig, rep: ReportWriter) -> None:
    mesh = cfg.build_mesh()
    system = assemble(mesh, cfg.build_force(), cfg.build_traction())
    traction = cfg.value("traction", "name")
    if traction != "none" and (system.g is None or not system.g.any()):
        # e.g. constant-left, which acts only left of x = 1/2, on a mesh whose
        # Neumann edges all lie to the right
        raise ConfigError(
            f"traction '{traction}' applies no load on this mesh: it is zero on every Neumann edge"
        )
    solution = solve_stokes(
        system,
        pin_pressure=not len(system.space.neumann_edges),
        residual_tol=cfg.value("tolerances", "residual_tol"),
    )
    space = system.space
    e = energy(system, solution)
    u_full = space.expand_velocity(solution.u)
    rep.add_kv("result.num_velocity_dofs", space.num_velocity)
    rep.add_kv("result.num_pressure_dofs", space.num_pressure)
    rep.add_kv("result.u_max", float(np.abs(u_full).max()))
    rep.add_kv("result.lambda_min", float(solution.lam.min()))
    rep.add_kv("result.lambda_max", float(solution.lam.max()))
    rep.add_kv("result.energy", e)
    rep.add_kv("result.residual_momentum", solution.residual_momentum)
    rep.add_kv("result.residual_divergence", solution.residual_divergence)
    rep.add_kv("result.solver_iterations", solution.iterations)
    if len(space.neumann_edges):
        rep.add_kv("result.inf_sup", inf_sup_constant(system))
    vel = u_full.reshape(-1, 2)
    rep.add_table(
        "velocity.csv",
        "node,x,y,ux,uy",
        [
            f"{k},{fmt17(x)},{fmt17(y)},{fmt17(vx)},{fmt17(vy)}"
            for k, ((x, y), (vx, vy)) in enumerate(zip(space.node_coords, vel))
        ],
    )
    rep.add_table(
        "pressure.csv",
        "vertex,x,y,lambda",
        [
            f"{k},{fmt17(x)},{fmt17(y)},{fmt17(p)}"
            for k, ((x, y), p) in enumerate(zip(mesh.vertices, solution.lam))
        ],
    )
    rep.add_summary(
        f"solved: {space.num_velocity} velocity dofs, {space.num_pressure} pressure dofs"
    )
    rep.add_summary(f"u_max {fmt6(np.abs(u_full).max())}, energy {fmt6(e)}")
    rep.add_summary(
        f"residuals: momentum {fmt6(solution.residual_momentum)}, "
        f"divergence {fmt6(solution.residual_divergence)}, "
        f"{solution.iterations} Schur-complement CG iterations"
    )


def _derivative_common(cfg: RunConfig, rep: ReportWriter, with_fd: bool) -> None:
    mesh = cfg.build_mesh()
    force = cfg.build_force()
    field = cfg.build_velocity()
    if with_fd:
        report = fd_verify(mesh, force, field, cfg.value("run", "s_list"), steps=cfg.value("run", "steps"))
    else:
        system = assemble(mesh, force)
        solution = solve_stokes(system, pin_pressure=not len(system.space.neumann_edges))
        f1 = assemble_perturbation(system.space, field, force)
        report = stokes_shape_derivative(system, solution, f1, field)
    _emit_derivative(report, rep)


def _emit_derivative(report, rep: ReportWriter) -> None:
    rep.add_kv("result.L1", report.L1)
    rep.add_kv("result.E1", report.E1)
    rep.add_kv("result.dual_term", report.dual_term)
    rep.add_kv("result.energy", report.energy)
    rep.add_summary(f"L1 = {fmt6(report.L1)} (energy part {fmt6(report.E1)}, dual part {fmt6(report.dual_term)})")
    if report.fd is not None:
        _emit_fd_table(rep, report.fd, report.L1)


def _emit_fd_table(rep: ReportWriter, table: FdTable, l1: float) -> None:
    rows = [f"{fmt17(e.s)},{fmt17(e.fd)},{fmt17(l1)},{fmt17(e.abs_err)}" for e in table.entries]
    rep.add_table("fd_table.csv", "s,fd,L1,abs_err", rows)
    if table.exact:
        rep.add_kv("result.slope", "exact")
        rep.add_summary("slope line: exact (all errors 0)")
        return
    rep.add_kv("result.slope", "" if table.slope is None else fmt17(table.slope))
    rep.add_kv("result.one_sided_slope", "" if table.one_sided_slope is None else fmt17(table.one_sided_slope))
    if table.slope is not None:
        rep.add_summary(f"central-difference slope {fmt6(table.slope)}")
    if table.one_sided_slope is not None:
        rep.add_summary(f"one-sided slope {fmt6(table.one_sided_slope)}")


def _corollary3(cfg: RunConfig, rep: ReportWriter) -> None:
    mesh = cfg.build_mesh()
    report = corollary3_check(
        mesh, cfg.build_force(), cfg.value("run", "omega"), cfg.value("run", "s_list"), steps=cfg.value("run", "steps")
    )
    _emit_derivative(report, rep)


def _convergence(cfg: RunConfig, rep: ReportWriter) -> None:
    rows = convergence_study(trig_manufactured(), cfg.value("run", "n_list"))
    csv_rows = []
    for row in rows:
        order = "" if row.order is None else fmt17(row.order)
        csv_rows.append(f"{row.n},{fmt17(row.h)},{fmt17(row.h1_error)},{order}")
        rep.add_kv(f"result.h1_error.n{row.n}", row.h1_error)
        if row.order is not None:
            rep.add_kv(f"result.order.n{row.n}", row.order)
    rep.add_table("convergence.csv", "n,h,h1_error,order", csv_rows)
    rep.add_summary("manufactured-solution convergence (H1 velocity error):")
    for row in rows:
        order = "-" if row.order is None else fmt6(row.order)
        rep.add_summary(f"  n={row.n:<3d} error {fmt6(row.h1_error)}  order {order}")


_PIPELINES = {
    "qp-demo": _qp_demo,
    "stokes-solve": _stokes_solve,
    "shape-derivative": lambda cfg, rep: _derivative_common(cfg, rep, with_fd=False),
    "fd-verify": lambda cfg, rep: _derivative_common(cfg, rep, with_fd=True),
    "corollary3": _corollary3,
    "convergence": _convergence,
}


def run(cfg: RunConfig, output_dir: str, verbose: bool = False) -> list[str]:
    """Execute a validated configuration; returns the written file paths."""
    rep = ReportWriter(output_dir)
    for key, value in cfg.resolved_items():
        rep.add_kv(key, value)
    rep.add_summary(f"shapederiv {cfg.command}")
    rep.add_summary()
    _PIPELINES[cfg.command](cfg, rep)
    written = rep.write()
    if verbose:
        for line in rep.summary:
            print(line)
        for path in written:
            print(f"wrote {path}")
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shapederiv",
        description="Shape derivatives of constrained quadratic minimization problems.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the run configuration file")
    parser.add_argument("--output", default="out", help="directory for report files (default: out)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.command)
        run(cfg, args.output, verbose=args.verbose)
    except ConfigError as exc:
        print(f"error: ConfigError: {exc}", file=sys.stderr)
        return 2
    except ShapeDerivError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    raise SystemExit(main())
