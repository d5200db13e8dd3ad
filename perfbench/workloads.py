"""The four benchmark workloads.

Each workload generates its inputs from a seed (``setup``) and then runs
units of work (``unit``) through the package's public entry points: the
CLI's ``main`` in-process, or the library functions.  A unit is one op,
except in ``gradient-sweep`` where it is one sweep of K+1 ops sharing one
solve.  A unit of several ops calls ``split()`` between its ops, so that
the runner can take a host-speed probe sample there.  Every op carries a
correctness check; an op that raises or fails its check is reported as
failed, never skipped.

Traced package callables are looked up at call time (``sd.assemble``,
``cli.main``), never bound by name at import, so that the span wrappers
the tracer installs are seen.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import ClassVar

import numpy as np

import shapederiv as sd
from shapederiv import cli
from shapederiv.cli.report import read_kv as _read_kv


@dataclass
class Op:
    latency_s: float
    ok: bool
    problem: str = ""


@dataclass
class Inputs:
    workdir: str
    files: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)


def _no_split() -> None:
    pass


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def _cli_op(command: str, cfg: str, out: str, check) -> Op:
    """One in-process CLI run; ``check(out)`` returns a problem or ''."""
    start = perf_counter()
    try:
        code = cli.main([command, "--config", cfg, "--output", out])
    except Exception as exc:  # any escape is a failed op, reported below
        return Op(perf_counter() - start, False, f"{type(exc).__name__}: {exc}")
    latency = perf_counter() - start
    if code != 0:
        return Op(latency, False, f"exit code {code}")
    problem = check(out)
    return Op(latency, not problem, problem)


def _mesh_counts(mesh) -> dict:
    space = sd.FunctionSpace(mesh)
    return {
        "vertices": mesh.num_vertices,
        "triangles": mesh.num_triangles,
        "velocity_dofs": space.num_velocity,
        "pressure_dofs": space.num_pressure,
    }


@dataclass
class FdSquare:
    """``shapederiv fd-verify`` on the unit square with an affine Lambda.

    Affine only: straight-edged elements follow an affine flow exactly, so
    the central-difference error keeps its s^2 slope.  A nonlinear or
    windowed Lambda makes the slope plateau and hides the signal.  n=32
    rather than 48: an op of about 3 s instead of 9 s gives a run enough
    ops, and probe samples close enough together, to be steady.
    """

    name: ClassVar[str] = "fd-square"
    s_list: ClassVar[tuple[float, ...]] = (1e-2, 3e-3, 1e-3)
    # Span calls per op: 1 + 2*len(s_list) solves, 2*len(s_list) transports.
    expected_calls: ClassVar[dict] = {
        "stokes_fem.solve": (7, 7),
        "mesh.transport": (6, 6),
        "shape_derivative.perturbation": (1, 1),
        "shape_derivative.fd_verify": (1, 1),
    }
    n: int = 32

    def setup(self, seed: int, workdir: str) -> Inputs:
        rng = np.random.default_rng([seed, 1])
        m = np.array([0.3, 0.1, -0.2, 0.15]) + rng.uniform(-0.02, 0.02, 4)
        b = np.array([0.05, -0.04]) + rng.uniform(-0.01, 0.01, 2)
        cfg = _write(
            os.path.join(workdir, "fd-square.cfg"),
            f"[run]\ns_list = {' '.join(f'{s:g}' for s in self.s_list)}\n\n"
            f"[mesh]\nkind = unit_square\nn = {self.n}\nneumann_sides = right\n\n"
            "[force]\nname = trig\n\n"
            f"[velocity]\nkind = affine\nmatrix = {' '.join(f'{v:.17g}' for v in m)}\n"
            f"b = {' '.join(f'{v:.17g}' for v in b)}\n",
        )
        return Inputs(workdir, [cfg])

    def unit(self, inputs: Inputs, index: int, split=_no_split) -> list[Op]:
        return [_cli_op("fd-verify", inputs.files[0], os.path.join(inputs.workdir, "out"), _check_slope_2)]

    def describe(self) -> dict:
        counts = _mesh_counts(sd.unit_square_mesh(self.n, {"right"}))
        return {"mesh": f"unit_square n={self.n} neumann=right", **counts,
                "unknowns_per_solve": counts["velocity_dofs"] + counts["pressure_dofs"],
                "solves_per_op": 1 + 2 * len(self.s_list)}


def _check_slope_2(out: str) -> str:
    kv = _read_kv(os.path.join(out, "report.kv"))
    try:
        slope = float(kv.get("result.slope", ""))
    except ValueError:
        return f"result.slope is {kv.get('result.slope')!r}"
    return "" if abs(slope - 2.0) <= 0.1 else f"central-difference slope {slope}, expected 2 +- 0.1"


@dataclass
class CliSolve:
    """``shapederiv stokes-solve`` with a Neumann side: the only caller of
    ``inf_sup_constant``, and the full CSV/kv report.  n=24 rather than 32:
    an op of under 1 s instead of 3 s gives a run enough ops, and probe
    samples close enough together, to be steady."""

    name: ClassVar[str] = "cli-solve"
    expected_calls: ClassVar[dict] = {"stokes_fem.inf_sup": (1, 1), "stokes_fem.solve": (1, 1)}
    n: int = 24

    def setup(self, seed: int, workdir: str) -> Inputs:
        rng = np.random.default_rng([seed, 2])
        scale = rng.uniform(0.5, 1.5)
        cfg = _write(
            os.path.join(workdir, "cli-solve.cfg"),
            f"[mesh]\nkind = unit_square\nn = {self.n}\nneumann_sides = right\n\n"
            f"[force]\nname = trig\nscale = {scale:.17g}\n",
        )
        return Inputs(workdir, [cfg])

    def unit(self, inputs: Inputs, index: int, split=_no_split) -> list[Op]:
        return [_cli_op("stokes-solve", inputs.files[0], os.path.join(inputs.workdir, "out"), _check_solved)]

    def describe(self) -> dict:
        counts = _mesh_counts(sd.unit_square_mesh(self.n, {"right"}))
        return {"mesh": f"unit_square n={self.n} neumann=right", **counts,
                "unknowns_per_solve": counts["velocity_dofs"] + counts["pressure_dofs"]}


def _check_solved(out: str) -> str:
    kv = _read_kv(os.path.join(out, "report.kv"))
    for key in ("result.residual_momentum", "result.residual_divergence"):
        if not math.isfinite(float(kv[key])):
            return f"{key} = {kv[key]}"
    inf_sup = float(kv.get("result.inf_sup", "nan"))
    return "" if math.isfinite(inf_sup) and inf_sup > 0.0 else f"result.inf_sup = {inf_sup}"


@dataclass
class QpActiveSet:
    """``shapederiv qp-demo`` on seeded inequality-cone instances.

    Each instance is built around a known solution with strict
    complementarity (multipliers and slacks bounded away from zero), which
    makes the optimal value smooth in s, so its central differences must
    converge to L1 at slope 2.  Instance costs differ by the length of the
    active-set path, so each op takes the next of several instances, which
    keeps the mix, and the median op, close from one seed to the next.
    With 70 of 80 constraints active the path mostly adds constraints; at
    40 active it also drops many, and instance costs spread twice as wide.
    """

    name: ClassVar[str] = "qp-active-set"
    s_list: ClassVar[tuple[float, ...]] = (1e-2, 3e-3, 1e-3)
    expected_calls: ClassVar[dict] = {"core_minimax.solve": (3, None), "core_minimax.load": (1, 1)}
    n: int = 120
    m: int = 80
    active: int = 70
    instances: int = 8

    def setup(self, seed: int, workdir: str) -> Inputs:
        files = []
        for k in range(self.instances):
            qp, direction = self._instance(np.random.default_rng([seed, 3, k]))
            path = os.path.join(workdir, f"qp{k}.txt")
            sd.save_qp(path, qp, direction)
            files.append(_write(
                os.path.join(workdir, f"qp{k}.cfg"),
                f"[run]\ns_list = {' '.join(f'{s:g}' for s in self.s_list)}\n\n[qp]\npath = {path}\n",
            ))
        return Inputs(workdir, files)

    def _instance(self, rng):
        n, m, k = self.n, self.m, self.active
        q = rng.standard_normal((n, n)) / np.sqrt(n)
        a = q @ q.T + np.eye(n)
        b = rng.standard_normal((m, n))
        act = np.sort(rng.choice(m, k, replace=False))
        z = rng.standard_normal(n)
        b_act = b[act]
        u = z - b_act.T @ np.linalg.solve(b_act @ b_act.T, b_act @ z)  # B_act u = 0
        rest = np.setdiff1d(np.arange(m), act)
        slack = rng.uniform(0.5, 1.5, rest.size) * np.linalg.norm(u)
        b[rest] += np.outer((slack - b[rest] @ u) / (u @ u), u)  # B_rest u = slack > 0
        f = a @ u - b_act.T @ rng.uniform(0.5, 1.5, k)  # multipliers in [0.5, 1.5]
        a1 = rng.standard_normal((n, n)) / np.sqrt(n)
        qp = sd.ConeQP(A=a, B=b, f=f, cone=sd.ConeKind.INEQUALITY)
        direction = sd.PerturbationDirection(
            A1=0.5 * (a1 + a1.T), B1=0.1 * rng.standard_normal((m, n)), f1=rng.standard_normal(n)
        )
        return qp, direction

    def unit(self, inputs: Inputs, index: int, split=_no_split) -> list[Op]:
        cfg = inputs.files[index % len(inputs.files)]
        return [_cli_op("qp-demo", cfg, os.path.join(inputs.workdir, "out"), _check_qp)]

    def describe(self) -> dict:
        return {"qp_n": self.n, "qp_m": self.m, "qp_active": self.active,
                "instances": self.instances, "unknowns_per_kkt": f"{self.n}..{self.n + self.m}"}


def _check_qp(out: str) -> str:
    kv = _read_kv(os.path.join(out, "report.kv"))
    res = float(kv["result.kkt_residual"])
    if not res <= 1e-8:
        return f"result.kkt_residual = {res}"
    l1 = float(kv["result.L1"])
    with open(os.path.join(out, "fd_table.csv"), encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    err = float(rows[-1]["abs_err"])
    if not err <= 1e-4 * (1.0 + abs(l1)):
        return f"|fd - L1| = {err} at s = {rows[-1]['s']} for L1 = {l1}"
    return _check_slope_2(out)


@dataclass
class GradientSweep:
    """One solve on the disk, then K seeded quadratic directions, each through
    ``assemble_perturbation`` + ``stokes_shape_derivative``.

    An extra direction with the summed coefficients sum_k c_k Lambda_k
    checks the sweep: L1 is linear in Lambda, so its L1 must equal
    sum_k c_k L1_k to roundoff.  A failed check fails every op of the sweep.
    """

    name: ClassVar[str] = "gradient-sweep"
    linearity_rtol: ClassVar[float] = 1e-12
    rings: int = 24
    directions: int = 24

    @property
    def ops_per_unit(self) -> int:
        return self.directions + 1

    @property
    def expected_calls(self) -> dict:
        k = self.ops_per_unit
        return {"stokes_fem.solve": (1, 1), "shape_derivative.perturbation": (k, k),
                "shape_derivative.derivative": (k, k)}

    def setup(self, seed: int, workdir: str) -> Inputs:
        rng = np.random.default_rng([seed, 4])
        coeffs = rng.standard_normal((self.directions, 2, 6)) * 0.1
        weights = rng.standard_normal(self.directions)
        combined = np.einsum("k,kij->ij", weights, coeffs)
        fields = [sd.QuadraticField(coeffs=tuple(map(tuple, c))) for c in (*coeffs, combined)]
        return Inputs(workdir, data={
            "mesh": sd.disk_mesh(self.rings),
            "force": sd.TrigForce(c=rng.uniform(0.5, 1.5)),
            "fields": fields,
            "weights": weights,
        })

    def unit(self, inputs: Inputs, index: int, split=_no_split) -> list[Op]:
        d = inputs.data
        try:
            system = sd.assemble(d["mesh"], d["force"])
            solution = sd.solve_stokes(system, pin_pressure=True)
        except Exception as exc:  # the sweep's ops cannot run: all fail
            return [Op(0.0, False, f"{type(exc).__name__}: {exc}")] * self.ops_per_unit
        ops, l1 = [], []
        for k, fld in enumerate(d["fields"]):
            if k:
                split()
            start = perf_counter()
            try:
                forms = sd.assemble_perturbation(system.space, fld, d["force"])
                report = sd.stokes_shape_derivative(system, solution, forms, fld)
            except Exception as exc:
                ops.append(Op(perf_counter() - start, False, f"{type(exc).__name__}: {exc}"))
                l1.append(math.nan)
                continue
            ops.append(Op(perf_counter() - start, math.isfinite(report.L1)))
            l1.append(report.L1)
        terms = d["weights"] * np.array(l1[:-1])
        gap = abs(l1[-1] - terms.sum())
        if not gap <= self.linearity_rtol * np.abs(terms).sum():
            problem = f"L1 not linear in Lambda: |L1(sum) - sum c_k L1_k| = {gap:.3e}"
            return [Op(op.latency_s, False, problem) for op in ops]
        return ops

    def describe(self) -> dict:
        counts = _mesh_counts(sd.disk_mesh(self.rings))
        return {"mesh": f"disk rings={self.rings} dirichlet", **counts,
                "unknowns_per_solve": counts["velocity_dofs"] + counts["pressure_dofs"] - 1,
                "directions_per_sweep": self.directions + 1}


WORKLOADS = {w.name: w for w in (FdSquare(), GradientSweep(), CliSolve(), QpActiveSet())}
