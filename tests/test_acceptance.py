"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np
import pytest

import shapederiv as sd
from shapederiv.core_minimax import ConeKind, ConeQP, PerturbationDirection
from shapederiv.fields import ConstantForce, LeftEdgeTraction, RotationalForce, TrigForce, trig_manufactured
from shapederiv.slopes import loglog_slope

from flow_oracle import expansion_check, negated
from kkt_oracle import enumerate_solve


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _random_instance(rng, cone):
    n = int(rng.integers(3, 11))
    m = int(rng.integers(1, min(n, 4) + 1))
    q = rng.standard_normal((n, n))
    a = q @ q.T / n + 0.8 * np.eye(n)
    b = rng.standard_normal((m, n))
    while np.linalg.svd(b, compute_uv=False)[-1] < 0.3:
        b = rng.standard_normal((m, n))
    qp = ConeQP(A=a, B=b, f=rng.standard_normal(n), cone=cone)
    a1 = rng.standard_normal((n, n)) * 0.5
    direction = PerturbationDirection(
        A1=(a1 + a1.T) / 2, B1=rng.standard_normal((m, n)) * 0.5, f1=rng.standard_normal(n)
    )
    return qp, direction


def test_criterion_1_abstract_derivative_consistency():
    """>= 20 random instances, both cones: slope >= 1.8 and tight agreement."""
    rng = np.random.default_rng(2024)
    s_values = [1e-2, 3e-3, 1e-3]
    checked = 0
    per_kind = {ConeKind.EQUALITY: 0, ConeKind.INEQUALITY: 0}
    attempts = 0
    while checked < 20 and attempts < 400:
        attempts += 1
        cone = ConeKind.EQUALITY if attempts % 2 == 0 else ConeKind.INEQUALITY
        qp, direction = _random_instance(rng, cone)
        try:
            sp = sd.solve_saddle_point(qp)
            if cone is ConeKind.INEQUALITY:
                stable = all(
                    sd.solve_saddle_point(sd.perturbed_qp(qp, direction, sgn * s)).active_set
                    == sp.active_set
                    for s in s_values + [1e-4]
                    for sgn in (+1.0, -1.0)
                )
                if not stable:
                    continue
            l1 = sd.shape_derivative(qp, direction, sp)
            errs = [abs(sd.fd_derivative(qp, direction, s) - l1) for s in s_values]
            if min(errs) < 1e-11 * (1.0 + abs(l1)):
                continue  # derivative is flat along this direction; uninformative
        except (sd.NotPositiveDefinite, sd.RankDeficientB):
            continue
        assert loglog_slope(s_values, errs) >= 1.8
        assert abs(sd.fd_derivative(qp, direction, 1e-4) - l1) <= 1e-6 * (1.0 + abs(l1))
        checked += 1
        per_kind[cone] += 1
    ok = checked >= 20 and min(per_kind.values()) >= 5
    _report(1, f"cone-QP derivative matches central differences ({checked} instances)", ok)


def test_criterion_2_saddle_point_correctness():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(15):
        cone = ConeKind.INEQUALITY if rng.random() < 0.5 else ConeKind.EQUALITY
        qp, _ = _random_instance(rng, cone)
        sp = sd.solve_saddle_point(qp)
        scale = 1.0 + np.linalg.norm(qp.f) * np.linalg.norm(sp.u)
        ok &= abs(sp.lam @ (qp.B @ sp.u)) <= 1e-10 * scale
        e = sd.objective_value(qp, sp.u)
        l = sd.lagrangian_value(qp, sp.u, sp.lam)
        ok &= abs(e - l) <= 1e-12 * (1.0 + abs(e))

    # Exhaustive working-set enumeration for m <= 3 (tests/kkt_oracle.py).
    for _ in range(15):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 8))
        q = rng.standard_normal((n, n))
        b = rng.standard_normal((m, n))
        while np.linalg.svd(b, compute_uv=False)[-1] < 0.3:
            b = rng.standard_normal((m, n))
        qp = ConeQP(A=q @ q.T / n + 0.8 * np.eye(n), B=b, f=rng.standard_normal(n))
        sp = sd.solve_saddle_point(qp)
        u_ref, lam_ref = enumerate_solve(qp)
        ok &= np.abs(sp.u - u_ref).max() <= 1e-10
        ok &= np.abs(sp.lam - lam_ref).max() <= 1e-10
    _report(2, "complementarity, optimal-value identity, enumeration agreement", ok)


def test_criterion_3_exactly_representable_flows():
    ok = True
    for n in (2, 4, 8):
        mesh = sd.unit_square_mesh(n, {"right"})
        system = sd.assemble(mesh, ConstantForce(value=(1.0, 0.0)))
        sol = sd.solve_stokes(system)
        u_full = system.space.expand_velocity(sol.u)
        ok &= np.abs(u_full).max() <= 1e-9
        ok &= np.abs(sol.lam - (mesh.vertices[:, 0] - 1.0)).max() <= 1e-9
    for n in (2, 4, 8):
        mesh = sd.unit_square_mesh(n, {"left", "right"})
        system = sd.assemble(mesh, ConstantForce(value=(0.0, 0.0)), LeftEdgeTraction())
        sol = sd.solve_stokes(system)
        space = system.space
        u_full = space.expand_velocity(sol.u)
        u_exact = np.zeros_like(u_full)
        u_exact[0::2] = space.node_coords[:, 1] * (1.0 - space.node_coords[:, 1])
        ok &= np.abs(u_full - u_exact).max() <= 1e-8
        ok &= np.abs(sol.lam - 2.0 * (1.0 - mesh.vertices[:, 0])).max() <= 1e-8
    _report(3, "pressure-gradient and channel-flow solutions exact on n in {2,4,8}", ok)


def test_criterion_4_discretization_order():
    rows = sd.convergence_study(trig_manufactured(), [4, 8, 16])
    ok = all(row.order >= 1.8 for row in rows[1:])
    orders = ", ".join(f"{row.order:.2f}" for row in rows[1:])
    _report(4, f"H1 velocity orders [{orders}] >= 1.8", ok)


def test_criterion_5_stokes_derivative_vs_central_differences():
    mesh = sd.unit_square_mesh(16, {"right"})
    field = sd.AffineField(M=((0.3, 0.1), (-0.2, 0.15)), b=(0.05, -0.04))
    report = sd.fd_verify(mesh, TrigForce(), field, [1e-2, 3e-3, 1e-3])
    rel = report.fd.entries[-1].abs_err / abs(report.L1)
    ok = report.fd.slope >= 1.8 and rel <= 1e-3
    _report(5, f"mixed-boundary energy derivative: slope {report.fd.slope:.3f}, rel err {rel:.2e}", ok)


def test_criterion_6_rotation_of_clamped_disk():
    disk = sd.disk_mesh(4)
    report = sd.fd_verify(disk, TrigForce(), sd.RotationField(1.0), [1e-2, 3e-3, 1e-3])
    ok = (not report.fd.exact) and report.fd.slope >= 1.8
    equivariant = sd.fd_verify(disk, RotationalForce(c=1.0), sd.RotationField(1.0), [1e-2, 1e-3])
    scale = 1.0 + abs(equivariant.energy)
    ok &= abs(equivariant.L1) <= 1e-8 * scale
    ok &= all(abs(e.fd) <= 1e-8 * scale for e in equivariant.fd.entries)
    _report(6, f"clamped-disk rotation: slope {report.fd.slope:.3f}, symmetric case |L1| ~ 0", ok)


def test_criterion_7_flow_expansion_and_composition():
    affine = sd.AffineField(M=((0.3, 0.1), (-0.2, 0.15)), b=(0.05, -0.04))
    quadratic = sd.QuadraticField(
        coeffs=((0.1, 0.2, -0.3, 0.05, 0.1, -0.2), (0.0, -0.1, 0.2, 0.1, -0.05, 0.0))
    )
    ok = True
    for field in (affine, quadratic):
        rep = expansion_check(field, np.array([0.3, 0.7]), [1e-1, 1e-2, 1e-3])
        ok &= rep.slope_r1 >= 1.9 and rep.slope_r2 >= 1.9
        for s in (0.2, -0.2, 0.05):
            forward = sd.integrate_flow(field, np.array([0.4, 0.6]), s, steps=64)
            back = sd.integrate_flow(negated(field), forward.point, s, steps=64)
            ok &= float(np.linalg.norm(back.point - np.array([0.4, 0.6]))) <= 1e-8
    _report(7, "flow expansion residual slopes >= 1.9 and composition to 1e-8", ok)


def test_criterion_8_inf_sup_floor():
    values = []
    for n in (4, 8, 16):
        mesh = sd.unit_square_mesh(n, {"right"})
        system = sd.assemble(mesh, ConstantForce())
        values.append(sd.inf_sup_constant(system))
    ok = all(v > 0.0 for v in values)
    ok &= values[1] >= 0.8 * values[0] and values[2] >= 0.8 * values[1]
    shown = ", ".join(f"{v:.4f}" for v in values)
    _report(8, f"inf-sup constants [{shown}] positive, degrading <= 20%", ok)
