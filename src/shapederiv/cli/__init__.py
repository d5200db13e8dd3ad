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
from ..errors import ConfigError, MaxIterations, RankDeficientB, ShapeDerivError
from ..flow import RotationField
from ..shape_derivative import fd_verify, mesh_shape_derivative
from ..slopes import FdTable, fd_table
from ..stokes_fem import assemble, convergence_study, energy, inf_sup_constant, solve_stokes
from ..fields import trig_manufactured
from .config import COMMANDS, RunConfig, parse_config
from .report import ReportWriter, fmt6, fmt17, rows17, vec17

__all__ = ["main", "console_main", "run"]


def _qp_demo(cfg: RunConfig, rep: ReportWriter) -> None:
    try:  # without a qp.path, the bundled instance
        with resources.as_file(resources.files("shapederiv") / "data" / "qp6.txt") as bundled:
            qp, direction = cm.load_qp(cfg.value("qp", "path") or bundled)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"qp file: {exc}") from None
    if direction is None:  # no re-solves
        cfg.skip("run", "s_list", "the qp file has no perturbation block")
    max_iter = cfg.value("tolerances", "max_iter")
    start = cm.crash_start(qp)  # None for the equality cone
    try:
        sp = cm.solve_saddle_point(qp, max_iter=max_iter, start=start)
    except (MaxIterations, RankDeficientB):
        if start is None:
            raise
        # The crash set can be dependent to roundoff where the cold path's
        # sets are not, or cost more than max_iter steps where the cold path
        # is short; then the base solve is the cold one, as it always was.
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
    # The re-solves start from the base working set (None for the equality cone).
    table = fd_table(
        lambda s: cm.optimal_value(qp, direction, s, max_iter, start=sp.active_set), l1, obj, cfg.value("run", "s_list")
    )
    _emit_fd_table(rep, table, l1)


def _stokes_solve(cfg: RunConfig, rep: ReportWriter) -> None:
    mesh = cfg.build_mesh()
    system = assemble(mesh, cfg.build("force"), cfg.build("traction"))
    traction = cfg.value("traction", "name")
    if traction != "none" and (system.g is None or not system.g.any()):
        # e.g. constant-left, which acts only left of x = 1/2, on a mesh whose
        # Neumann edges all lie to the right
        raise ConfigError(
            f"traction '{traction}' applies no load on this mesh: it is zero on every Neumann edge"
        )
    solution = solve_stokes(system, residual_tol=cfg.value("tolerances", "residual_tol"))
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
    rep.add_kv("result.inf_sup", inf_sup_constant(system))
    rep.add_table("velocity.csv", "node,x,y,ux,uy", rows17(np.hstack([space.node_coords, u_full.reshape(-1, 2)])))
    rep.add_table("pressure.csv", "vertex,x,y,lambda", rows17(np.column_stack([mesh.vertices, solution.lam])))
    rep.add_summary(
        f"solved: {space.num_velocity} velocity dofs, {space.num_pressure} pressure dofs"
    )
    rep.add_summary(f"u_max {fmt6(np.abs(u_full).max())}, energy {fmt6(e)}")
    rep.add_summary(
        f"residuals: momentum {fmt6(solution.residual_momentum)}, "
        f"divergence {fmt6(solution.residual_divergence)}, "
        f"{solution.iterations} Schur-complement CG iterations"
    )


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
    "shape-derivative": lambda cfg, rep: _emit_derivative(
        mesh_shape_derivative(cfg.build_mesh(), cfg.build("force"), cfg.build_velocity()), rep
    ),
    "fd-verify": lambda cfg, rep: _emit_derivative(
        fd_verify(cfg.build_mesh(), cfg.build("force"), cfg.build_velocity(), cfg.value("run", "s_list"),
                  steps=cfg.value("run", "steps")), rep
    ),
    # Corollary 3: fd-verify with a rotation of a clamped domain.
    "corollary3": lambda cfg, rep: _emit_derivative(
        fd_verify(cfg.build_mesh(), cfg.build("force"), RotationField(cfg.value("run", "omega")),
                  cfg.value("run", "s_list"), steps=cfg.value("run", "steps")), rep
    ),
    "convergence": _convergence,
}


def run(cfg: RunConfig, output_dir: str, verbose: bool = False) -> list[str]:
    """Execute a validated configuration; returns the written file paths."""
    rep = ReportWriter(output_dir)
    rep.add_summary(f"shapederiv {cfg.command}")
    rep.add_summary()
    _PIPELINES[cfg.command](cfg, rep)
    rep.kv[:0] = cfg.resolved_items()  # after the run, which may skip a key
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
