"""First-order energy sensitivity vs central differences on moved meshes."""

import importlib
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapederiv as sd
from shapederiv import cli, slopes, stokes_fem
from shapederiv.cli.report import read_kv
from shapederiv.fields import ConstantForce, ForceField, RotationalForce, TrigForce
from shapederiv.flow import CutoffWindow
from shapederiv.mesh import transport_mesh
from shapederiv.shape_derivative import (
    assemble_perturbation,
    fd_verify,
    stokes_shape_derivative,
)

import complex_step_oracle
from kernel_oracle import pressure_integral_weights
from perturbation_oracle import (
    P1Interpolant,
    assemble_perturbation_matrices,
    transport_pairing_matrix,
)

AFFINE = sd.AffineField(M=((0.3, 0.1), (-0.2, 0.15)), b=(0.05, -0.04))


def solved_square(n=4, force=None):
    mesh = sd.unit_square_mesh(n, {"right"})
    system = sd.assemble(mesh, force or TrigForce())
    return mesh, system, sd.solve_stokes(system)


# --- perturbation forms -------------------------------------------------------


def test_zero_field_gives_zero_forms():
    _, system, _ = solved_square()
    forms = assemble_perturbation_matrices(system.space, sd.ZeroField(), TrigForce())
    assert abs(forms.A1).max() == 0.0
    assert abs(forms.B1).max() == 0.0
    assert np.abs(forms.f1).max() == 0.0


def test_constant_field_constant_force_zero_forms():
    _, system, _ = solved_square(force=ConstantForce(value=(0.7, -0.3)))
    forms = assemble_perturbation_matrices(system.space, sd.ConstantField(b=(1.0, 2.0)), ConstantForce(value=(0.7, -0.3)))
    assert abs(forms.A1).max() == 0.0
    assert abs(forms.B1).max() == 0.0
    assert np.abs(forms.f1).max() == 0.0


def test_identity_field_algebraic_reduction():
    # Lambda(x) = x in 2-d: the stiffness kernel cancels and the pairing
    # kernel collapses onto the divergence, so A1 = 0 and B1 = B.
    _, system, _ = solved_square()
    identity = sd.AffineField(M=((1.0, 0.0), (0.0, 1.0)))
    forms = assemble_perturbation_matrices(system.space, identity, TrigForce())
    assert abs(forms.A1).max() == 0.0
    assert abs(forms.B1 - system.B).max() <= 1e-14


def test_a1_symmetry():
    _, system, _ = solved_square(n=6)
    forms = assemble_perturbation_matrices(system.space, AFFINE, TrigForce())
    assert abs(forms.A1 - forms.A1.T).max() <= 1e-14 * abs(forms.A1).max()


# --- the derivative -----------------------------------------------------------


def test_decomposition_identity():
    _, system, sol = solved_square(n=6)
    forms = assemble_perturbation(system.space, AFFINE, TrigForce())
    report = stokes_shape_derivative(system, sol, forms, AFFINE)
    assert report.L1 == report.E1 + report.dual_term


def test_dual_term_two_quadrature_paths_agree():
    _, system, sol = solved_square(n=6)
    forms = assemble_perturbation_matrices(system.space, AFFINE, TrigForce())
    report = stokes_shape_derivative(system, sol, assemble_perturbation(system.space, AFFINE, TrigForce()), AFFINE)
    pairing = transport_pairing_matrix(system.space, AFFINE)
    via_matrix = float(sol.lam @ (pairing @ sol.u))
    assert abs(report.dual_term - via_matrix) <= 1e-10
    # B1 = (div Lambda)(div u) part minus the transport part; with the
    # divergence residual at 1e-9 the remainder is the full multiplier term.
    via_b1 = -float(sol.lam @ (forms.B1 @ sol.u))
    scale = np.linalg.norm(sol.lam) * (1.0 + np.abs(AFFINE.matrix()).max())
    assert abs(report.dual_term - via_b1) <= 1e-8 * max(scale, 1.0)


def test_linearity_in_the_velocity_field():
    _, system, sol = solved_square(n=6)
    force = TrigForce()
    fa = sd.AffineField(M=((0.2, 0.0), (0.1, -0.1)))
    fb = sd.QuadraticField(coeffs=((0.0, 0.1, 0.0, 0.05, 0.0, -0.02), (0.1, 0.0, -0.1, 0.0, 0.03, 0.0)))
    ra = stokes_shape_derivative(system, sol, assemble_perturbation(system.space, fa, force), fa)
    rb = stokes_shape_derivative(system, sol, assemble_perturbation(system.space, fb, force), fb)
    # fb's coefficients plus fa's, whose matrix M gives the linear ones
    both = sd.QuadraticField(
        coeffs=((0.0, 0.1 + 0.2, 0.0, 0.05, 0.0, -0.02), (0.1, 0.0 + 0.1, -0.1 - 0.1, 0.0, 0.03, 0.0))
    )
    rs = stokes_shape_derivative(system, sol, assemble_perturbation(system.space, both, force), both)
    assert abs(rs.L1 - ra.L1 - rb.L1) <= 1e-10 * (1.0 + abs(rs.L1))


def test_translation_invariance_constant_force():
    # Constant velocity + constant force: every kernel vanishes.
    _, system, sol = solved_square(force=ConstantForce(value=(1.0, 0.0)))
    field = sd.ConstantField(b=(0.6, -0.2))
    forms = assemble_perturbation(system.space, field, ConstantForce(value=(1.0, 0.0)))
    report = stokes_shape_derivative(system, sol, forms, field)
    scale = 1.0 + abs(report.energy)
    assert abs(report.L1) <= 1e-10 * scale


def test_rejects_unsolved_solution():
    _, system, sol = solved_square()
    forms = assemble_perturbation(system.space, AFFINE, TrigForce())
    u_nan = sol.u.copy()
    u_nan[0] = np.nan  # a NaN residual fails the check instead of passing it
    for u in (sol.u + 1.0, u_nan):
        fake = sd.StokesSolution(u=u, lam=sol.lam, residual_momentum=0.0, residual_divergence=0.0)
        with pytest.raises(sd.UnsolvedSolution):
            stokes_shape_derivative(system, fake, forms, AFFINE)



def test_rejects_mismatched_solution_or_load():
    _, system, sol = solved_square(n=4)
    _, other_system, other = solved_square(n=3)
    f1 = assemble_perturbation(system.space, AFFINE, TrigForce())
    with pytest.raises(sd.DimensionMismatch, match="velocity"):
        stokes_shape_derivative(system, other, f1, AFFINE)
    wrong_lam = sd.StokesSolution(u=sol.u, lam=sol.lam[:-1], residual_momentum=0.0, residual_divergence=0.0)
    with pytest.raises(sd.DimensionMismatch, match="pressure"):
        stokes_shape_derivative(system, wrong_lam, f1, AFFINE)
    other_f1 = assemble_perturbation(other_system.space, AFFINE, TrigForce())
    with pytest.raises(sd.DimensionMismatch, match="vertex motion"):
        stokes_shape_derivative(system, sol, other_f1, AFFINE)
    with pytest.raises(ValueError, match="another velocity field"):
        stokes_shape_derivative(system, sol, f1, sd.RotationField(1.0))


class _NanAtOneVertex:
    def evaluate(self, points):
        values = np.zeros(np.shape(points))
        values[..., 3, 1] = np.nan
        return values


def test_rejects_a_motion_that_is_not_finite():
    _, system, _ = solved_square()
    with pytest.raises(sd.DimensionMismatch, match="not finite"):
        assemble_perturbation(system.space, _NanAtOneVertex(), TrigForce())


# --- one solved state, many directions -----------------------------------------
# The residual check, the energy and the shape gradient are memoized per
# (system, solution); the gradient is for the system's own force.

SWEEP_FIELDS = [
    AFFINE,
    sd.RotationField(0.7),
    sd.QuadraticField(coeffs=((0.0, 0.1, -0.05, 0.08, 0.02, -0.04), (0.05, -0.02, 0.1, 0.01, -0.06, 0.03))),
]


def _sweep(system, solution, force, fields):
    return [stokes_shape_derivative(system, solution, assemble_perturbation(system.space, f, force), f) for f in fields]


def test_state_memo_rechecks_another_solution_on_the_same_system():
    _, system, sol = solved_square()
    f1 = assemble_perturbation(system.space, AFFINE, TrigForce())
    stokes_shape_derivative(system, sol, f1, AFFINE)
    fake = sd.StokesSolution(u=sol.u + 1.0, lam=sol.lam, residual_momentum=0.0, residual_divergence=0.0)
    with pytest.raises(sd.UnsolvedSolution):
        stokes_shape_derivative(system, fake, f1, AFFINE)
    stokes_shape_derivative(system, sol, f1, AFFINE)  # the true solution passes again


@pytest.mark.parametrize("c", [1.0, 1e-12, 1e160])
def test_zero_state_does_not_solve_a_loaded_system(c):
    # The acceptance scale |L||u| + |B||lam| + |f + g| has no floor, so a
    # small load does not make every small defect acceptable, and it is
    # computed without overflow, so a large load does not make every defect
    # acceptable.
    system = sd.assemble(sd.unit_square_mesh(3, {"right"}), TrigForce(c=c))
    zero = sd.StokesSolution(u=np.zeros(system.space.num_velocity), lam=np.zeros(system.B.shape[0]),
                             residual_momentum=0.0, residual_divergence=0.0)
    with pytest.raises(sd.UnsolvedSolution):
        stokes_shape_derivative(system, zero, assemble_perturbation(system.space, AFFINE, system.force), AFFINE)


def test_a_wrong_state_is_refused_at_the_top_of_the_double_range():
    # At c = 1e308 the scale |L||u| + |B||lam| + |f + g| passes the largest
    # double; taken unscaled it read inf and accepted any finite defect.
    system = sd.assemble(sd.unit_square_mesh(4, {"right"}), TrigForce(c=1e308))
    sol = sd.solve_stokes(system)
    wrong = replace(sol, u=1.001 * sol.u)
    with pytest.raises(sd.UnsolvedSolution):
        stokes_shape_derivative(system, wrong, assemble_perturbation(system.space, AFFINE, system.force), AFFINE)


def test_state_memo_rechecks_a_solution_changed_in_place():
    _, system, sol = solved_square()
    f1 = assemble_perturbation(system.space, AFFINE, TrigForce())
    stokes_shape_derivative(system, sol, f1, AFFINE)
    u0 = sol.u[0]
    sol.u[0] += 1.0
    with pytest.raises(sd.UnsolvedSolution):
        stokes_shape_derivative(system, sol, f1, AFFINE)
    sol.u[0] = u0
    stokes_shape_derivative(system, sol, f1, AFFINE)
    sol.lam[0] = np.nan  # a NaN never matches the memo's copy
    with pytest.raises(sd.UnsolvedSolution):
        stokes_shape_derivative(system, sol, f1, AFFINE)


class _CountingForce(ForceField):
    def __init__(self, inner):
        self.inner, self.calls = inner, {"evaluate": 0, "gradient": 0}

    def evaluate(self, points):
        self.calls["evaluate"] += 1
        return self.inner.evaluate(points)

    def gradient(self, points):
        self.calls["gradient"] += 1
        return self.inner.gradient(points)


def test_shape_gradient_follows_the_system_force():
    # Each system's force gives the oracle's L1 with its own f1; the
    # perturbation may carry a fresh force equal to the system's.
    for make in (TrigForce, lambda: TrigForce(c=1.3), lambda: ConstantForce(value=(0.7, -0.3))):
        _, system, sol = solved_square(force=make())
        space, force = system.space, make()
        report = stokes_shape_derivative(system, sol, assemble_perturbation(space, AFFINE, force), AFFINE)
        oracle = assemble_perturbation_matrices(space, AFFINE, force)
        l1 = float(0.5 * sol.u @ (oracle.A1 @ sol.u) - oracle.f1 @ sol.u - sol.lam @ (oracle.B1 @ sol.u))
        assert abs(report.L1 - l1) <= 1e-13 * (1.0 + abs(l1))


def test_rejects_a_perturbation_with_another_force():
    # Unchecked, TrigForce(c=2) against the system's TrigForce() gave
    # L1 = -1.058e-3 here with no error, against -4.045e-4.
    _, system, sol = solved_square(n=8)
    for force in (TrigForce(c=2.0), ConstantForce(value=(0.7, -0.3)), _CountingForce(TrigForce())):
        with pytest.raises(ValueError, match="another body force"):
            stokes_shape_derivative(system, sol, assemble_perturbation(system.space, AFFINE, force), AFFINE)
    own, fresh = (
        stokes_shape_derivative(system, sol, assemble_perturbation(system.space, AFFINE, force), AFFINE)
        for force in (system.force, TrigForce())
    )
    assert own == fresh
    assert own.L1 == pytest.approx(-4.045e-4, rel=1e-3)


def test_a_sweep_evaluates_the_force_and_checks_the_state_once(monkeypatch):
    module = importlib.import_module("shapederiv.shape_derivative")
    checks = []
    residuals = module._residuals

    def counted(*args):
        checks.append(1)
        return residuals(*args)

    monkeypatch.setattr(module, "_residuals", counted)
    _, system, sol = solved_square(force=_CountingForce(TrigForce()))
    force = system.force
    force.calls.update(evaluate=0, gradient=0)  # the assembly's evaluation
    reports = _sweep(system, sol, force, SWEEP_FIELDS)
    assert force.calls == {"evaluate": 1, "gradient": 1}
    assert len(checks) == 1
    # the memos change no digit: a fresh system and force per direction
    for field, report in zip(SWEEP_FIELDS, reports):
        _, fresh_system, fresh_sol = solved_square()
        assert report == _sweep(fresh_system, fresh_sol, TrigForce(), [field])[0]


def test_concurrent_sweeps_of_one_state_match_a_sequential_sweep():
    # Four threads (more than the suite's two CPUs) and a short switch
    # interval, all starting on an empty memo: a torn or lost memo entry
    # would move some report.
    fields, workers = SWEEP_FIELDS * 4, 4
    _, system, sol = solved_square(n=6)
    sequential = _sweep(system, sol, TrigForce(), fields)
    _, system, sol = solved_square(n=6)
    force, barrier = TrigForce(), threading.Barrier(workers)

    def sweep(k):
        barrier.wait(timeout=60)
        return _sweep(system, sol, force, fields[k:] + fields[:k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(sweep, k) for k in range(workers)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, reports in enumerate(results):
        assert reports == sequential[k:] + sequential[:k]


def solved_pinned_disk(rings=4):
    mesh = sd.disk_mesh(rings)
    system = sd.assemble(mesh, TrigForce())
    return mesh, system, sd.solve_stokes(system, pin_pressure=True)


ORACLE_FIELDS = {
    "affine": AFFINE,
    "quadratic": sd.QuadraticField(
        coeffs=((0.0, 0.1, -0.05, 0.08, 0.02, -0.04), (0.05, -0.02, 0.1, 0.01, -0.06, 0.03))
    ),
    "rotation": sd.RotationField(0.7),
    "windowed": sd.AffineField(
        M=((0.2, 0.1), (0.0, -0.1)), b=(0.3, 0.1), window=CutoffWindow(lo=(-0.6, -0.5), hi=(0.7, 0.6))
    ),
    "zero": sd.ZeroField(),
}


@pytest.mark.parametrize("field_name", sorted(ORACLE_FIELDS))
@pytest.mark.parametrize("solved", [lambda: solved_square(n=6), solved_pinned_disk], ids=["square", "disk"])
def test_quadrature_matches_assembled_oracle(solved, field_name):
    _, system, sol = solved()
    field = ORACLE_FIELDS[field_name]
    force = TrigForce()
    # the mesh moves by the interpolant of the field
    oracle = assemble_perturbation_matrices(system.space, P1Interpolant(system.space, field), force)
    report = stokes_shape_derivative(system, sol, assemble_perturbation(system.space, field, force), field)
    e1 = float(0.5 * sol.u @ (oracle.A1 @ sol.u) - oracle.f1 @ sol.u)
    assert abs(report.E1 - e1) <= 1e-13 * (1.0 + abs(e1))
    dual = -float(sol.lam @ (oracle.B1 @ sol.u))
    assert abs(report.dual_term - dual) <= 1e-13 * (1.0 + abs(dual))


COMPLEX_STEP_FIELDS = ("affine", "quadratic", "rotation", "windowed")


@pytest.mark.parametrize("field_name", COMPLEX_STEP_FIELDS)
@pytest.mark.parametrize(
    "solved", [lambda: solved_square(n=16), lambda: solved_pinned_disk(rings=8)], ids=["square", "disk"]
)
def test_complex_step_oracle_matches_the_shape_gradient(solved, field_name):
    # The complex step differentiates the assembled arrays along the vertex
    # motion with no hand-derived kernel.  Roundoff is relative to the sum
    # of the absolute terms: 40 to 3 000 times |L1| here, and 5e4 to 1e6
    # times for the disk's rotation and windowed L1, near-cancellations.
    _, system, sol = solved()
    field, force = ORACLE_FIELDS[field_name], TrigForce()
    report = stokes_shape_derivative(system, sol, assemble_perturbation(system.space, field, force), field)
    l1, scale = complex_step_oracle.shape_derivative(system.space, field, force, sol.u, sol.lam)
    assert abs(report.L1 - l1) <= 1e-15 * scale


# --- the continuum limit --------------------------------------------------------
# Every check above compares L1 with the derivative of the discrete energy.  A
# field supported strictly inside the domain moves no boundary, so the
# continuous derivative along it is exactly 0 (Delfour & Zolesio, "Shapes and
# Geometries", 2nd ed., SIAM 2011, ch. 9); the force is a spatial field the
# mesh does not carry, so its discrete L1 is pure discretization error.
#
# Observation, not a gate: the same affine field without the window (it moves
# the boundary) gives L1 = -4.0451e-4 ... -4.0446e-4 for n = 8 ... 128, with
# successive differences 1.8e-8, 2.1e-8, 9.6e-9, 2.3e-9, not yet asymptotic:
# the velocity is singular where a Dirichlet side meets the Neumann side.


def test_interior_field_derivative_vanishes_at_the_p2_energy_rate():
    # Measured: interior L1 4.75e-9, 3.41e-10, 2.20e-11 (rates 3.80, 3.95;
    # h^4, the P2 energy's h^{2k}), and 5.4e-8 of the boundary L1 at n=64.
    window = CutoffWindow((0.2, 0.2), (0.8, 0.8))
    interior = replace(AFFINE, window=window)
    ns = np.array([16, 32, 64])
    l1 = [sd.mesh_shape_derivative(sd.unit_square_mesh(n, {"right"}), TrigForce(), interior).L1 for n in ns]
    rate = -np.polyfit(np.log(ns), np.log(np.abs(l1)), 1)[0]
    assert rate >= 3.5
    boundary = sd.mesh_shape_derivative(sd.unit_square_mesh(64, {"right"}), TrigForce(), AFFINE).L1
    assert abs(l1[-1]) <= 1e-7 * abs(boundary)
    # The clamped disk, where the pressure has zero integral and L1 is read
    # off the Lagrangian.  Measured: 1.0e-6, 1.1e-8, 8.2e-11 (rates 6.5,
    # 7.1); at 32 rings E1 and the dual term are each about 3.8e-8 and cancel.
    rotation = sd.RotationField(1.0, window=CutoffWindow((-0.5, -0.5), (0.5, 0.5)))
    rings = np.array([8, 16, 32])
    l1 = [sd.mesh_shape_derivative(sd.disk_mesh(n), TrigForce(), rotation).L1 for n in rings]
    assert -np.polyfit(np.log(rings), np.log(np.abs(l1)), 1)[0] >= 3.5


# --- central-difference verification ------------------------------------------


def test_fd_zero_field_exact():
    mesh = sd.unit_square_mesh(4, {"right"})
    report = fd_verify(mesh, TrigForce(), sd.ZeroField(), [1e-2, 1e-3])
    assert report.fd.exact
    assert all(e.fd == 0.0 and e.abs_err == 0.0 for e in report.fd.entries)
    assert report.L1 == 0.0


def test_fd_pressure_gradient_with_cutoff_is_machine_zero(monkeypatch):
    # f = grad(x1 - 1) and the velocity frozen near the free edge: the
    # solution stays identically zero on every transported domain.  With a
    # zero Lagrangian no relative energy rule can stop a re-solve; the
    # residual rule stops it at roundoff, still on the base factor.
    mesh = sd.unit_square_mesh(8, {"right"})
    window = CutoffWindow(lo=(0.05, -1.0), hi=(0.8, 2.0))
    field = sd.AffineField(M=((0.2, 0.1), (0.0, -0.1)), b=(0.3, 0.1), window=window)
    module = importlib.import_module("shapederiv.shape_derivative")
    solve, steps = module.solve_stokes, []

    def counted(*args, **kwargs):
        solution = solve(*args, **kwargs)
        steps.append(solution.iterations)
        return solution

    monkeypatch.setattr(module, "solve_stokes", counted)
    factors = _count_factors(monkeypatch, sd.assemble(mesh, ConstantForce(value=(1.0, 0.0))).L.shape[0])
    report = fd_verify(mesh, ConstantForce(value=(1.0, 0.0)), field, [1e-2, 1e-3])
    assert report.fd.exact
    assert abs(report.L1) <= 1e-13
    assert len(factors) == 1 and len(steps) == 5 and max(steps) <= 70


def test_fd_affine_slope_and_h_consistency():
    s_values = [1e-2, 3e-3, 1e-3]
    l1 = {}
    for n in (8, 16):
        mesh = sd.unit_square_mesh(n, {"right"})
        report = fd_verify(mesh, TrigForce(), AFFINE, s_values)
        l1[n] = report.L1
        assert report.fd.slope >= 1.8
        assert report.fd.one_sided_slope >= 0.9
    assert abs(l1[8] - l1[16]) <= 0.05 * abs(l1[16])


@pytest.mark.parametrize(
    "n, s_list", [(16, [1e-2, 1e-3, 1e-4]), (8, [2e-1, 1e-1, 5e-2])], ids=["n16", "n8"]
)
def test_fd_quadratic_field_slope_2(n, s_list):
    # L1 is the derivative of the discrete energy under the vertex motion,
    # so a non-affine field converges at second order, from large steps
    # down to small ones.
    mesh = sd.unit_square_mesh(n, {"right"})
    report = fd_verify(mesh, TrigForce(), ORACLE_FIELDS["quadratic"], s_list)
    assert abs(report.fd.slope - 2.0) <= 0.1


def test_fd_releases_the_base_system_before_the_re_solves(monkeypatch):
    # Each re-solve holds one factored system, so the base one must be
    # gone before the first of them starts.
    module = importlib.import_module("shapederiv.shape_derivative")  # the package's name is the QP function
    base, alive = [], []
    solve = module.solve_stokes

    def watched(system, **kwargs):
        if base:
            alive.append(base[0]() is not None)
        else:
            base.append(weakref.ref(system))
        return solve(system, **kwargs)

    monkeypatch.setattr(module, "solve_stokes", watched)
    fd_verify(sd.unit_square_mesh(4, {"right"}), TrigForce(), AFFINE, [1e-2, 1e-3])
    assert alive == [False] * 4


def test_fd_builds_one_topology_for_its_solves(monkeypatch):
    # The transported meshes keep the base mesh's connectivity and tags, so
    # the seven assemblies share the one topology built for the base mesh.
    built, spaces = [], []

    class Counted(stokes_fem._Topology):
        def __init__(self, mesh):
            built.append(mesh)
            super().__init__(mesh)

    init = stokes_fem.FunctionSpace.__init__

    def counted_init(self, mesh):
        spaces.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(stokes_fem, "_Topology", Counted)
    monkeypatch.setattr(stokes_fem.FunctionSpace, "__init__", counted_init)
    mesh = sd.unit_square_mesh(8, {"right"})
    report = fd_verify(mesh, TrigForce(), AFFINE, [1e-2, 3e-3, 1e-3])
    assert len(spaces) == 7 and len({id(m) for m in spaces}) == 7
    assert built == [mesh]
    assert abs(report.fd.slope - 2.0) <= 0.1


FD_STEPS = (1e-2, -1e-2, 3e-3, -3e-3, 1e-3, -1e-3)


def _base_factor(mesh, force=None):
    system = sd.assemble(mesh, force or TrigForce())
    return sd.solve_stokes(system), system._schur().factor


@pytest.mark.parametrize(
    "mesh, field",
    [
        (sd.unit_square_mesh(16, {"right"}), AFFINE),
        (sd.unit_square_mesh(32, {"right"}), AFFINE),
        (sd.disk_mesh(24), sd.RotationField(1.0)),
        (sd.disk_mesh(24), AFFINE),
    ],
    ids=["square16", "square32", "disk24-rotation", "disk24-affine"],
)
def test_base_factor_re_solve_energies_match_the_residual_rule(mesh, field):
    # A re-solve on the base velocity factor corrects the transported state
    # in sweeps; its Lagrangian is the dual value, whose error is quadratic
    # in lambda's, and matches a cold solve's.
    base, factor = _base_factor(mesh)
    start = base.lam.tobytes()
    for s in FD_STEPS:
        system = sd.assemble(transport_mesh(mesh, field, s, steps=64), TrigForce())
        cold = sd.solve_stokes(system)
        swept = sd.solve_stokes(system, start=base.lam, factor=factor)
        e_cold = sd.energy(system, cold)
        assert abs(sd.energy(system, swept) - e_cold) <= 1e-13 * abs(e_cold)
        if mesh.num_vertices == 33 * 33:
            assert swept.iterations <= 30 < cold.iterations == 36
    assert base.lam.tobytes() == start  # the re-solves of fd_verify share it across threads


def _count_factors(monkeypatch, rows):
    """The list that grows by one on every LU of a matrix with ``rows`` rows."""
    counted, splu = [], stokes_fem.spla.splu
    monkeypatch.setattr(stokes_fem.spla, "splu", lambda a, **kw: (a.shape[0] == rows and counted.append(a)) or splu(a, **kw))
    return counted


def test_fd_verify_factors_the_velocity_stiffness_once(monkeypatch):
    # The re-solves borrow the base LU of L; no solve factors the pressure
    # mass matrix, whose Chebyshev polynomial preconditions the Schur CG.
    mesh = sd.unit_square_mesh(8, {"right"})
    counted = _count_factors(monkeypatch, sd.assemble(mesh, TrigForce()).L.shape[0])
    masses = _count_factors(monkeypatch, mesh.num_vertices)
    report = fd_verify(mesh, TrigForce(), AFFINE, [1e-2, 3e-3, 1e-3])
    assert len(counted) == 1
    assert len(masses) == 0
    assert abs(report.fd.slope - 2.0) <= 0.1


@pytest.mark.parametrize("mesh", [sd.unit_square_mesh(8, {"right"}), sd.disk_mesh(4)], ids=["square8", "disk4"])
def test_a_cold_solve_factors_only_the_velocity_stiffness(monkeypatch, mesh):
    system = sd.assemble(mesh, TrigForce())
    counted = _count_factors(monkeypatch, system.L.shape[0])
    masses = _count_factors(monkeypatch, mesh.num_vertices)
    sd.solve_stokes(system)
    assert (len(counted), len(masses)) == (1, 0)


def test_a_stokes_solve_run_factors_the_stiffness_and_the_mass_once(monkeypatch, tmp_path):
    # The inf-sup loop, which the run alone calls, factors M for its exact
    # M^-1 and borrows the solve's LU of L.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[mesh]\nkind = unit_square\nn = 6\nneumann_sides = right\n\n[force]\nname = trig\n")
    mesh = sd.unit_square_mesh(6, {"right"})
    counted = _count_factors(monkeypatch, sd.assemble(mesh, TrigForce()).L.shape[0])
    masses = _count_factors(monkeypatch, mesh.num_vertices)
    assert cli.main(["stokes-solve", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
    assert (len(counted), len(masses)) == (1, 1)
    assert float(read_kv(tmp_path / "out" / "report.kv")["result.inf_sup"]) > 0.0


def test_start_pressure_interpolates_the_chain():
    # The start through the base pressure at 0 and at most three earlier
    # steps is exact for a vector-valued quadratic in s; a chain's first
    # step starts from the base pressure itself.
    start = importlib.import_module("shapederiv.shape_derivative")._start_pressure
    c0, c1, c2 = np.array([1.0, -2.0, 0.5]), np.array([3.0, 0.25, -1.0]), np.array([-40.0, 7.0, 12.0])

    def path(s):
        return c0 + s * c1 + s * s * c2

    assert start(1e-2, c0, {}) is c0
    for earlier in ([1e-2, 3e-3], [1e-2, 3e-3, 1e-3], [-1e-2, -3e-3, -1e-3, -3e-4]):
        solved = {t: path(t) for t in earlier}
        for s in (earlier[-1] / 3.0, 0.5 * earlier[0], 2.0 * earlier[0]):
            # roundoff through weights of up to about 1e2 when extrapolating
            assert np.abs(start(s, c0, solved) - path(s)).max() <= 1e-12
    # Of four earlier steps only the three nearest to s enter.
    solved = {t: path(t) for t in (-3e-4, -1e-3, -3e-3)} | {-1e-2: np.full(3, np.nan)}
    assert np.abs(start(-1e-4, c0, solved) - path(-1e-4)).max() <= 1e-12
    line = start(5e-3, c0, {1e-2: path(1e-2)})
    assert np.allclose(line, c0 + 0.5 * (path(1e-2) - c0), rtol=0.0, atol=1e-15)


def test_an_interpolated_start_saves_cg_steps():
    # The third step of a chain, started from the quadratic through the
    # base and the chain's two solved pressures, needs fewer Schur-CG steps
    # than from the base pressure (8 against 24 at n=32).
    start = importlib.import_module("shapederiv.shape_derivative")._start_pressure
    mesh = sd.unit_square_mesh(16, {"right"})
    base, factor = _base_factor(mesh)
    solved = {}
    for s in (1e-2, 3e-3):
        system = sd.assemble(transport_mesh(mesh, AFFINE, s, steps=64), TrigForce())
        solved[s] = sd.solve_stokes(system, start=start(s, base.lam, solved), factor=factor).lam
    system = sd.assemble(transport_mesh(mesh, AFFINE, 1e-3, steps=64), TrigForce())
    chained = sd.solve_stokes(system, start=start(1e-3, base.lam, solved), factor=factor)
    from_base = sd.solve_stokes(system, start=base.lam, factor=factor)
    e_cold = sd.energy(system, sd.solve_stokes(system))
    assert abs(sd.energy(system, chained) - e_cold) <= 1e-13 * abs(e_cold)
    assert chained.iterations < from_base.iterations


@pytest.mark.parametrize(
    "mesh, force, field",
    [
        (sd.unit_square_mesh(8, {"right"}), TrigForce(), AFFINE),
        (sd.disk_mesh(6), TrigForce(), sd.RotationField(1.0)),
    ],
    ids=["square8-affine", "disk6-rotation"],
)
def test_fd_verify_does_not_depend_on_the_cpu_count(monkeypatch, mesh, force, field):
    # Each chain reads only its own earlier pressures, so one thread or two
    # give the same starts and the same report, bit for bit.
    reports = []
    for cpus in (1, 2, 1, 2):
        monkeypatch.setattr(slopes.os, "cpu_count", lambda: cpus)
        reports.append(repr(fd_verify(mesh, force, field, [1e-2, 3e-3, 1e-3])))
    assert len(set(reports)) == 1


GRADIENT_FORCE = ConstantForce(value=(1.0, 0.0))  # a zero state: its re-solves end on the residual floor
WINDOWED_AFFINE = sd.AffineField(
    M=((0.2, 0.1), (0.0, -0.1)), b=(0.3, 0.1), window=CutoffWindow(lo=(0.05, -1.0), hi=(0.8, 2.0))
)


@pytest.mark.parametrize(
    "force, field, floor", [(TrigForce(), AFFINE, 0), (GRADIENT_FORCE, WINDOWED_AFFINE, 1)], ids=["energy", "floor"]
)
def test_a_re_solve_makes_one_velocity_solve_per_sweep(monkeypatch, force, field, floor):
    # Two velocity solves start a re-solve (u and the floor's A~^-1 f), each
    # sweep solves for A~^-1 r_u and each CG step inside its Schur product;
    # the CG sums A~^-1 B'dlam from those, so no sweep solves again.  A loop
    # that the residual floor ends takes one more A~^-1 r_u.
    mesh = sd.unit_square_mesh(8, {"right"})
    base, factor = _base_factor(mesh, force)
    counts = {"solves": 0, "sweeps": 0}
    solve_velocity, cg = stokes_fem._SchurComplement.solve_velocity, stokes_fem._SchurComplement.cg

    def counted_solve(self, rhs):
        counts["solves"] += 1
        return solve_velocity(self, rhs)

    def counted_cg(self, *args, **kwargs):
        counts["sweeps"] += 1
        return cg(self, *args, **kwargs)

    monkeypatch.setattr(stokes_fem._SchurComplement, "solve_velocity", counted_solve)
    monkeypatch.setattr(stokes_fem._SchurComplement, "cg", counted_cg)
    for s in FD_STEPS:
        system = sd.assemble(transport_mesh(mesh, field, s, steps=64), force)
        counts.update(solves=0, sweeps=0)
        swept = sd.solve_stokes(system, start=base.lam, factor=factor)
        assert counts["sweeps"] >= 1
        assert counts["solves"] == swept.iterations + counts["sweeps"] + 2 + floor


def _no_factor(*args, **kwargs):
    raise AssertionError("factored a matrix")


def test_a_factor_of_another_topology_is_refused(monkeypatch):
    # The check comes first: no factor is made and none is applied.
    mesh = sd.unit_square_mesh(8, {"right"})
    _, (topology, *_) = _base_factor(mesh)
    monkeypatch.setattr(stokes_fem.spla, "splu", _no_factor)
    for other in (sd.unit_square_mesh(8, {"right"}), sd.unit_square_mesh(6, {"right"}), sd.disk_mesh(4)):
        with pytest.raises(sd.DimensionMismatch, match="another mesh topology"):
            sd.solve_stokes(sd.assemble(other, TrigForce()), factor=(topology, None))
    moved = sd.assemble(transport_mesh(mesh, AFFINE, 1e-2), TrigForce())
    with pytest.raises(AttributeError, match="solve"):
        # The same topology passes the check and factors nothing: the
        # first solve applies the borrowed (here missing) velocity factor.
        sd.solve_stokes(moved, factor=(topology, None))


def _assert_the_cold_solve(swept, cold):
    # A fallback returns the cold solve bit for bit, with the abandoned
    # sweeps' steps added to the cold CG's.
    assert swept.u.tobytes() == cold.u.tobytes() and swept.lam.tobytes() == cold.lam.tobytes()
    assert swept.iterations > cold.iterations


def test_a_far_moved_re_solve_falls_back_to_its_own_factor(monkeypatch):
    # Stretched to twice its width, the square's stiffness is far from the
    # base one: the sweeps stop contracting, and the re-solve is the cold
    # solve, which factors its own.  Its steps count the abandoned sweeps',
    # so a cap between the cold solve's steps and the total refuses it.
    mesh = sd.unit_square_mesh(16, {"right"})
    base, factor = _base_factor(mesh)
    stretch = sd.AffineField(M=((1.0, 0.0), (0.0, 0.0)))
    for s, factored in ((1e-2, 0), (1.0, 1)):
        system = sd.assemble(transport_mesh(mesh, stretch, s, steps=64), TrigForce())
        with monkeypatch.context() as patched:
            counted = _count_factors(patched, system.L.shape[0])
            swept = sd.solve_stokes(system, start=base.lam, factor=factor)
        assert len(counted) == factored
        cold = sd.solve_stokes(system)
        e_cold = sd.energy(system, cold)
        assert abs(sd.energy(system, swept) - e_cold) <= 1e-13 * abs(e_cold)
    _assert_the_cold_solve(swept, cold)  # the stretch at s = 1.0
    for cap in (cold.iterations, swept.iterations - 1):
        monkeypatch.setattr(stokes_fem, "_CG_MAX_ITER", cap)
        with pytest.raises(sd.SingularSystem, match="did not converge"):
            sd.solve_stokes(system, start=base.lam, factor=factor)
    monkeypatch.setattr(stokes_fem, "_CG_MAX_ITER", swept.iterations)
    _assert_the_cold_solve(sd.solve_stokes(system, start=base.lam, factor=factor), cold)


def test_a_far_squeezed_disk_re_solve_is_the_cold_solve():
    # A windowed quadratic field squeezes the disk far from its base shape:
    # the base factor's sweeps grow their estimate 5.4 -> 1.5e4.  Sweeps that
    # went on from that state on the system's own factor would stop short of
    # the energy bound (5e-13 and 4e-12 of |E|, |Bu| 2.5e-8 and 6e-8).
    force = TrigForce(c=11.031785755728757)
    field = sd.QuadraticField(
        coeffs=(
            (0.530978464137583, -0.9406462301179488, 0.10147292615995918,
             0.09888211741225916, -0.2618883339623515, 0.2826011544040232),
            (0.9172297760798085, 0.7622342804274611, 0.8681130630703953,
             -0.20741300939203816, 0.248861700870318, -0.10761329760679596),
        ),
        window=CutoffWindow(lo=(-0.3, -0.3), hi=(0.6, 0.6)),
    )
    mesh = sd.disk_mesh(5)
    base, factor = _base_factor(mesh, force)
    system = sd.assemble(transport_mesh(mesh, field, -0.23637026849744397), force)
    cold = sd.solve_stokes(system)
    for start in (base.lam, None):
        _assert_the_cold_solve(sd.solve_stokes(system, start=start, factor=factor), cold)


def test_a_capped_base_factor_re_solve_is_refused(monkeypatch):
    mesh = sd.unit_square_mesh(16, {"right"})
    base, factor = _base_factor(mesh)
    system = sd.assemble(transport_mesh(mesh, AFFINE, 1e-2, steps=64), TrigForce())
    needed = sd.solve_stokes(system, start=base.lam, factor=factor).iterations
    for cap in (0, needed // 2, needed - 1):
        monkeypatch.setattr(stokes_fem, "_CG_MAX_ITER", cap)
        with pytest.raises(sd.SingularSystem, match="did not converge"):
            sd.solve_stokes(system, start=base.lam, factor=factor)
    monkeypatch.setattr(stokes_fem, "_CG_MAX_ITER", needed)
    assert sd.solve_stokes(system, start=base.lam, factor=factor).iterations == needed


_UNIT = st.floats(-1.0, 1.0)
_COEFFS = st.tuples(*[st.tuples(*[_UNIT] * 6)] * 2)
_MESHES = st.one_of(
    st.builds(
        sd.unit_square_mesh,
        st.integers(2, 9),
        st.sets(st.sampled_from(["left", "right", "bottom", "top"]), max_size=3),
    ),
    st.builds(sd.disk_mesh, st.integers(2, 8)),
)
_FORCES = st.one_of(
    st.builds(TrigForce, st.floats(-8.0, 8.0).map(lambda k: 10.0**k)),
    st.builds(ConstantForce, st.tuples(_UNIT, _UNIT)),  # a gradient force: a zero state
    st.builds(RotationalForce, _UNIT),
    st.builds(sd.QuadraticField, coeffs=_COEFFS),
)
_FIELDS = st.one_of(
    st.builds(sd.AffineField, M=st.tuples(*[st.tuples(_UNIT, _UNIT)] * 2), b=st.tuples(_UNIT, _UNIT)),
    st.builds(sd.QuadraticField, coeffs=_COEFFS),
    st.builds(
        lambda coeffs, lo, width: sd.QuadraticField(coeffs=coeffs, window=CutoffWindow(lo, tuple(np.add(lo, width)))),
        _COEFFS,
        st.tuples(*[st.floats(-0.5, 0.5)] * 2),
        st.tuples(*[st.floats(0.2, 1.2)] * 2),
    ),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mesh=_MESHES, force=_FORCES, field=_FIELDS, log_s=st.floats(-4.0, -0.3), sign=st.sampled_from([1.0, -1.0]))
def test_every_re_solve_meets_the_energy_bound_of_a_cold_solve(mesh, force, field, log_s, sign):
    # Whether the sweeps on the base factor converge or fall back to the
    # cold solve, from the base pressure or from zero, the energy is within
    # 20e-15 of the scale max(|E|, 1/2 f'A^-1 f) from a cold solve's (the
    # scale stays meaningful where a gradient force makes E zero), and the
    # steps, fallbacks' included, stay within the cap.  1 500 draws of these
    # strategies read at most 7.5e-15 of the scale.
    base, factor = _base_factor(mesh, force)
    try:
        moved = transport_mesh(mesh, field, sign * 10.0**log_s)
    except (sd.InvertedElement, sd.NonPositiveJacobian):
        return
    system = sd.assemble(moved, force)
    cold = sd.solve_stokes(system)
    e_cold = sd.energy(system, cold)
    scale = max(abs(e_cold), 0.5 * system.rhs @ system._schur().solve_velocity(system.rhs))
    for start in (base.lam, None):
        swept = sd.solve_stokes(system, start=start, factor=factor)
        assert abs(sd.energy(system, swept) - e_cold) <= 20e-15 * scale
        assert swept.iterations <= stokes_fem._CG_MAX_ITER


_LOAD_EXPONENTS = (-1000, -575, 0, 900)


@pytest.mark.parametrize(
    "k, cold",
    [pytest.param(k, False, id=str(k)) for k in _LOAD_EXPONENTS]
    + [pytest.param(k, True, id=f"cold:{k}") for k in _LOAD_EXPONENTS],
)
def test_a_zero_start_re_solve_scales_with_the_load(k, cold):
    # solve_stokes runs the cold solve or the sweeps on the load divided by
    # 2^e, e the binary exponent of the largest entry of the load and the
    # start.  A zero start must not pin e at 0: a tiny load's energy estimate
    # would underflow and end the sweeps early.  Scaled by 2^k, the load
    # gives the state times 2^k, bit for bit, on either path.
    mesh = sd.disk_mesh(3)
    _, factor = _base_factor(mesh)
    factor = None if cold else factor
    moved = transport_mesh(mesh, AFFINE, 1e-2)
    unit = sd.solve_stokes(sd.assemble(moved, TrigForce()), factor=factor)
    scaled = sd.solve_stokes(sd.assemble(moved, TrigForce(c=2.0**k)), factor=factor)
    assert np.array_equal(scaled.u, np.ldexp(unit.u, k)) and np.array_equal(scaled.lam, np.ldexp(unit.lam, k))
    assert scaled.iterations == unit.iterations


def test_a_start_of_another_size_or_not_finite_is_refused():
    _, system, sol = solved_square()
    factor = system._schur().factor
    for start in (sol.lam[:-1], np.append(sol.lam, 0.0), sol.lam[:, None]):
        with pytest.raises(sd.DimensionMismatch, match="start pressure"):
            sd.solve_stokes(system, start=start, factor=factor)
    for bad in (np.nan, np.inf):
        with pytest.raises(sd.SingularSystem, match="start pressure .*not finite"):
            sd.solve_stokes(system, start=np.where(np.arange(sol.lam.size) == 3, bad, sol.lam), factor=factor)
    # Only the sweeps on a borrowed factor read a start.
    with pytest.raises(ValueError, match="borrowed factor"):
        sd.solve_stokes(system, start=sol.lam)


@pytest.mark.parametrize("name", ["rotation", "quadratic"])
def test_clamped_re_solves_keep_zero_integral_pressures(monkeypatch, name):
    # The base pressure has zero integral on the base disk, and still has on
    # a rotated or affinely moved one, but not on a disk whose areas a
    # quadratic field changes unevenly: the start is moved to zero integral
    # on the re-solve's own mesh, within the bound of a cold solve.
    module = importlib.import_module("shapederiv.shape_derivative")
    solve, re_solves = module.solve_stokes, []

    def watched(system, **kwargs):
        solution = solve(system, **kwargs)
        if kwargs.get("start") is not None:
            re_solves.append((system, solution))
        return solution

    monkeypatch.setattr(module, "solve_stokes", watched)
    report = fd_verify(sd.disk_mesh(8), TrigForce(), ORACLE_FIELDS[name], [1e-2, 3e-3, 1e-3])
    assert len(re_solves) == 6
    assert report.fd.slope >= 1.8
    for system, solution in re_solves:
        weights = pressure_integral_weights(system.space)
        assert abs(weights @ solution.lam) <= 2.0 * np.finfo(float).eps * (abs(weights) @ abs(solution.lam))


def test_fd_rejects_nonpositive_steps():
    mesh = sd.unit_square_mesh(2, {"right"})
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fd_verify(mesh, TrigForce(), AFFINE, [1e-2, bad])


# --- rotation of a fully clamped domain ----------------------------------------


def test_rotation_equivariant_forcing_all_zero():
    disk = sd.disk_mesh(3)
    report = fd_verify(disk, RotationalForce(c=1.0), sd.RotationField(1.0), [1e-2, 3e-3, 1e-3])
    scale = 1.0 + abs(report.energy)
    assert abs(report.L1) <= 1e-8 * scale
    assert all(abs(e.fd) <= 1e-8 * scale for e in report.fd.entries)
    assert report.fd.exact


def test_rotation_gradient_forcing_identically_zero():
    # Constant f is the gradient of a linear potential: the velocity vanishes
    # on every rotated copy, so both sides of the comparison are zero.
    disk = sd.disk_mesh(3)
    report = fd_verify(disk, ConstantForce(value=(1.0, 0.0)), sd.RotationField(1.0), [1e-2, 1e-3])
    assert report.fd.exact
    assert abs(report.L1) <= 1e-12


def test_rotation_trig_forcing_slope():
    disk = sd.disk_mesh(4)
    report = fd_verify(disk, TrigForce(), sd.RotationField(1.0), [1e-2, 3e-3, 1e-3])
    assert not report.fd.exact
    assert report.fd.slope >= 1.8


def test_rotation_zero_omega_all_zero():
    disk = sd.disk_mesh(2)
    report = fd_verify(disk, TrigForce(), sd.RotationField(0.0), [1e-2, 1e-3])
    assert report.fd.exact
    assert report.L1 == 0.0
