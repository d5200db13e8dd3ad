"""First-order energy sensitivity vs central differences on moved meshes."""

import numpy as np
import pytest

import shapederiv as sd
from shapederiv.fields import ConstantForce, RotationalForce, TrigForce
from shapederiv.flow import CutoffWindow
from shapederiv.shape_derivative import (
    assemble_perturbation,
    fd_verify,
    stokes_shape_derivative,
)

from perturbation_oracle import (
    assemble_perturbation_matrices,
    dual_term_quadrature,
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
    report = stokes_shape_derivative(system, sol, forms.f1, AFFINE)
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
    with pytest.raises(sd.DimensionMismatch, match="f1"):
        stokes_shape_derivative(system, sol, other_f1, AFFINE)


def solved_pinned_disk():
    mesh = sd.disk_mesh(4)
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
    f1 = assemble_perturbation(system.space, field, force)
    oracle = assemble_perturbation_matrices(system.space, field, force)
    np.testing.assert_array_equal(f1, oracle.f1)
    report = stokes_shape_derivative(system, sol, f1, field)
    assert report.dual_term == dual_term_quadrature(system.space, field, sol.u, sol.lam)
    e1 = float(0.5 * sol.u @ (oracle.A1 @ sol.u) - oracle.f1 @ sol.u)
    assert abs(report.E1 - e1) <= 1e-13 * (1.0 + abs(e1))


# --- central-difference verification ------------------------------------------


def test_fd_zero_field_exact():
    mesh = sd.unit_square_mesh(4, {"right"})
    report = fd_verify(mesh, TrigForce(), sd.ZeroField(), [1e-2, 1e-3])
    assert report.fd.exact
    assert all(e.fd == 0.0 and e.abs_err == 0.0 for e in report.fd.entries)
    assert report.L1 == 0.0


def test_fd_pressure_gradient_with_cutoff_is_machine_zero():
    # f = grad(x1 - 1) and the velocity frozen near the free edge: the
    # solution stays identically zero on every transported domain.
    mesh = sd.unit_square_mesh(8, {"right"})
    window = CutoffWindow(lo=(0.05, -1.0), hi=(0.8, 2.0))
    field = sd.AffineField(M=((0.2, 0.1), (0.0, -0.1)), b=(0.3, 0.1), window=window)
    report = fd_verify(mesh, ConstantForce(value=(1.0, 0.0)), field, [1e-2, 1e-3])
    assert report.fd.exact
    assert abs(report.L1) <= 1e-13


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


def test_fd_quadratic_field_relaxed_slope():
    # The discrete mesh motion interpolates the velocity, so the quotient
    # saturates near 1e-8; larger steps keep the decay visible.
    field = sd.QuadraticField(
        coeffs=((0.0, 0.1, -0.05, 0.08, 0.02, -0.04), (0.05, -0.02, 0.1, 0.01, -0.06, 0.03))
    )
    mesh = sd.unit_square_mesh(8, {"right"})
    report = fd_verify(mesh, TrigForce(), field, [2e-1, 1e-1, 5e-2])
    assert report.fd.slope >= 1.5


def test_fd_rejects_nonpositive_steps():
    mesh = sd.unit_square_mesh(2, {"right"})
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fd_verify(mesh, TrigForce(), AFFINE, [1e-2, bad])


# --- rotation of a fully clamped domain ----------------------------------------


def test_rotation_equivariant_forcing_all_zero():
    disk = sd.disk_mesh(3)
    report = sd.corollary3_check(disk, RotationalForce(c=1.0), 1.0, [1e-2, 3e-3, 1e-3])
    scale = 1.0 + abs(report.energy)
    assert abs(report.L1) <= 1e-8 * scale
    assert all(abs(e.fd) <= 1e-8 * scale for e in report.fd.entries)
    assert report.fd.exact


def test_rotation_gradient_forcing_identically_zero():
    # Constant f is the gradient of a linear potential: the velocity vanishes
    # on every rotated copy, so both sides of the comparison are zero.
    disk = sd.disk_mesh(3)
    report = sd.corollary3_check(disk, ConstantForce(value=(1.0, 0.0)), 1.0, [1e-2, 1e-3])
    assert report.fd.exact
    assert abs(report.L1) <= 1e-12


def test_rotation_trig_forcing_slope():
    disk = sd.disk_mesh(4)
    report = sd.corollary3_check(disk, TrigForce(), 1.0, [1e-2, 3e-3, 1e-3])
    assert not report.fd.exact
    assert report.fd.slope >= 1.8


def test_rotation_zero_omega_all_zero():
    disk = sd.disk_mesh(2)
    report = sd.corollary3_check(disk, TrigForce(), 0.0, [1e-2, 1e-3])
    assert report.fd.exact
    assert report.L1 == 0.0


def test_rotation_requires_pure_dirichlet():
    mesh = sd.unit_square_mesh(2, {"right"})
    with pytest.raises(ValueError):
        sd.corollary3_check(mesh, TrigForce(), 1.0, [1e-2])
