"""Cone-QP solver, Lagrangian values and derivative consistency."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapederiv as sd
from shapederiv.core_minimax import ConeKind, ConeQP, PerturbationDirection
from shapederiv.slopes import loglog_slope

from kkt_oracle import active_set_reference, bordered_solve, enumerate_solve


def random_spd(rng, n):
    q = rng.standard_normal((n, n))
    return q @ q.T / n + 0.8 * np.eye(n)


def random_instance(rng, n, m, cone):
    b = rng.standard_normal((m, n))
    while np.linalg.svd(b, compute_uv=False)[-1] < 0.3:
        b = rng.standard_normal((m, n))
    return ConeQP(A=random_spd(rng, n), B=b, f=rng.standard_normal(n), cone=cone)


def random_direction(rng, n, m):
    a1 = rng.standard_normal((n, n)) * 0.5
    return PerturbationDirection(
        A1=(a1 + a1.T) / 2,
        B1=rng.standard_normal((m, n)) * 0.5,
        f1=rng.standard_normal(n),
    )


# --- solve_saddle_point -----------------------------------------------------


def test_equality_identity_instance():
    # Bu = 0 with B = I forces u = 0, and then lam = -f.
    qp = ConeQP(A=np.eye(2), B=np.eye(2), f=np.array([1.0, 2.0]), cone=ConeKind.EQUALITY)
    sp = sd.solve_saddle_point(qp)
    np.testing.assert_allclose(sp.u, [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(sp.lam, [-1.0, -2.0], atol=1e-14)
    assert sp.active_set is None


def test_inequality_active_at_boundary():
    # Unconstrained minimizer -1 is infeasible; KKT sits on the boundary.
    qp = ConeQP(A=np.array([[1.0]]), B=np.array([[1.0]]), f=np.array([-1.0]))
    sp = sd.solve_saddle_point(qp)
    np.testing.assert_allclose(sp.u, [0.0], atol=1e-14)
    np.testing.assert_allclose(sp.lam, [1.0], atol=1e-14)
    assert sp.active_set == {0}


def test_inequality_interior_minimizer():
    qp = ConeQP(A=np.array([[1.0]]), B=np.array([[1.0]]), f=np.array([2.0]))
    sp = sd.solve_saddle_point(qp)
    np.testing.assert_allclose(sp.u, [2.0], atol=1e-14)
    np.testing.assert_allclose(sp.lam, [0.0], atol=1e-14)
    assert sp.active_set == frozenset()


def test_solver_kkt_residuals_scale():
    rng = np.random.default_rng(11)
    for cone in (ConeKind.EQUALITY, ConeKind.INEQUALITY):
        for _ in range(10):
            qp = random_instance(rng, 7, 3, cone)
            sp = sd.solve_saddle_point(qp)
            assert sp.kkt_residual <= 1e-10 * (1.0 + np.linalg.norm(qp.f))


def test_brute_force_enumeration_agreement():
    """Oracle: try every working set, keep the KKT-feasible candidate."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 7))
        qp = random_instance(rng, n, m, ConeKind.INEQUALITY)
        sp = sd.solve_saddle_point(qp)
        u_ref, lam_ref = enumerate_solve(qp)
        np.testing.assert_allclose(sp.u, u_ref, atol=1e-10)
        np.testing.assert_allclose(sp.lam, lam_ref, atol=1e-10)


def test_max_iterations_guard():
    rng = np.random.default_rng(3)
    qp = random_instance(rng, 6, 3, ConeKind.INEQUALITY)
    with pytest.raises(sd.MaxIterations):
        sd.solve_saddle_point(qp, max_iter=1)


def _strictly_complementary_instance(rng, n, m, active):
    """Inequality QP around a known solution: `active` rows of B with
    multipliers in [0.5, 1.5], the others with slack in [0.5, 1.5]|u|."""
    q = rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal((m, n))
    act = np.sort(rng.choice(m, active, replace=False))
    z = rng.standard_normal(n)
    u = z - b[act].T @ np.linalg.solve(b[act] @ b[act].T, b[act] @ z)
    rest = np.setdiff1d(np.arange(m), act)
    slack = rng.uniform(0.5, 1.5, rest.size) * np.linalg.norm(u)
    b[rest] += np.outer((slack - b[rest] @ u) / (u @ u), u)
    a = q @ q.T + np.eye(n)
    f = a @ u - b[act].T @ rng.uniform(0.5, 1.5, active)
    a1 = rng.standard_normal((n, n)) / np.sqrt(n)
    direction = PerturbationDirection(
        A1=0.5 * (a1 + a1.T), B1=0.1 * rng.standard_normal((m, n)), f1=rng.standard_normal(n)
    )
    return ConeQP(A=a, B=b, f=f), direction, frozenset(act.tolist())


def test_benchmark_scale_matches_bordered_oracle():
    rng = np.random.default_rng(31)
    qp, direction, act = _strictly_complementary_instance(rng, 120, 80, 70)
    for s in (0.0, 1e-2, -1e-2, 1e-3, -1e-3):
        qp_s = sd.perturbed_qp(qp, direction, s)
        sp = sd.solve_saddle_point(qp_s)
        u_ref, lam_ref, act_ref, steps = active_set_reference(qp_s)
        assert sp.active_set == act_ref
        assert sp.iterations == steps
        if s == 0.0:
            assert sp.active_set == act
        assert np.abs(sp.u - u_ref).max() <= 1e-10 * (1.0 + np.linalg.norm(u_ref))
        assert np.abs(sp.lam - lam_ref).max() <= 1e-10 * (1.0 + np.linalg.norm(lam_ref))
        assert sp.kkt_residual <= 1e-10 * (1.0 + np.linalg.norm(qp_s.f))


def test_drop_breaks_multiplier_ties_by_lowest_index():
    # Constraints 1, 0, 2 enter in that order; then constraints 0 and 1 tie
    # at multiplier -0.5 and constraint 0 must leave.  Dropping 1 instead
    # takes 9 steps to reach the same solution.
    qp = ConeQP(
        A=np.eye(3),
        B=np.array([[-2.0, -2.0, -1.0], [0.0, 2.0, 0.0], [-2.0, 2.0, 1.0]]),
        f=np.array([2.0, -3.0, -2.0]),
    )
    sp = sd.solve_saddle_point(qp)
    assert active_set_reference(qp, ties="lowest")[3] == 6
    assert active_set_reference(qp, ties="highest")[3] == 9
    assert sp.iterations == 6
    u_ref, lam_ref = enumerate_solve(qp)
    np.testing.assert_allclose(sp.u, u_ref, atol=1e-12)
    np.testing.assert_allclose(sp.lam, lam_ref, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_ill_conditioned_constraints(seed):
    # sigma_min / sigma_max(B) = 1e-9: a bordered LDL' solve loses about
    # eight digits on these; the QR of L^{-1}B_W' does not square the
    # conditioning.
    rng = np.random.default_rng(seed)
    n, m = 8, 4
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, m)))[0]
    b = U @ np.diag(np.logspace(0, -9, m)) @ V.T
    qp = ConeQP(A=random_spd(rng, n) + 0.2 * np.eye(n), B=b, f=rng.standard_normal(n))
    sp = sd.solve_saddle_point(qp)
    assert sp.kkt_residual <= 1e-8 * (1.0 + np.linalg.norm(qp.f))


def test_dependent_working_constraints_raise():
    # ConeQP rejects such a B, so the solver's own guard is reached only
    # through roundoff; set B past the constructor to exercise it.
    qp = ConeQP(A=np.diag([2.0, 1.0, 3.0]), B=np.eye(3)[:2], f=np.ones(3), cone=ConeKind.EQUALITY)
    for b in ([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]], [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]):
        object.__setattr__(qp, "B", np.array(b))
        with pytest.raises(sd.RankDeficientB):
            sd.solve_saddle_point(qp)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    data=st.data(),
)
def test_random_small_instances_match_enumeration(n, m, data):
    # Integer B: either rank deficient (RankDeficientB) or well conditioned.
    ints = st.integers(-2, 2)
    b = np.array(data.draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)))
    c = np.array(data.draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)))
    f = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n)))
    cone = data.draw(st.sampled_from(ConeKind))
    try:
        qp = ConeQP(A=c @ c.T / n + 0.5 * np.eye(n), B=b, f=f, cone=cone)
        sp = sd.solve_saddle_point(qp)
    except sd.ShapeDerivError:
        return
    if cone is ConeKind.EQUALITY:
        u_ref, lam_ref = bordered_solve(qp.A, qp.B, qp.f)
    else:
        u_ref, lam_ref = enumerate_solve(qp)
    np.testing.assert_allclose(sp.u, u_ref, atol=1e-9)
    np.testing.assert_allclose(sp.lam, lam_ref, atol=1e-9)


# --- construction errors ----------------------------------------------------


def test_not_positive_definite():
    with pytest.raises(sd.NotPositiveDefinite):
        ConeQP(A=np.diag([1.0, -1.0]), B=np.eye(2), f=np.zeros(2))


def test_rank_deficient_b():
    with pytest.raises(sd.RankDeficientB):
        ConeQP(A=np.eye(3), B=np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), f=np.zeros(3))


def test_dimension_mismatch():
    qp = ConeQP(A=np.eye(2), B=np.eye(2), f=np.zeros(2))
    with pytest.raises(sd.DimensionMismatch):
        sd.objective_value(qp, np.zeros(3))
    with pytest.raises(sd.DimensionMismatch):
        sd.lagrangian_value(qp, np.zeros(2), np.zeros(3))
    with pytest.raises(sd.DimensionMismatch):
        direction = PerturbationDirection(A1=np.eye(3), B1=np.eye(3), f1=np.zeros(3))
        sd.perturbed_qp(qp, direction, 0.1)


@pytest.mark.parametrize("block", ["A", "B", "f", "A1", "B1", "f1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_blocks_rejected(block, bad):
    data = {"A": np.eye(3), "B": np.eye(2, 3), "f": np.ones(3),
            "A1": np.zeros((3, 3)), "B1": np.zeros((2, 3)), "f1": np.zeros(3)}
    data[block] = data[block].copy()
    data[block].flat[0] = bad
    with pytest.raises(sd.DimensionMismatch, match=f"^{block} must be finite$"):
        ConeQP(A=data["A"], B=data["B"], f=data["f"])
        PerturbationDirection(A1=data["A1"], B1=data["B1"], f1=data["f1"])


# --- objective / Lagrangian -------------------------------------------------


def test_objective_zero_vector():
    rng = np.random.default_rng(1)
    qp = random_instance(rng, 5, 2, ConeKind.EQUALITY)
    assert sd.objective_value(qp, np.zeros(5)) == 0.0


def test_objective_direct_arithmetic():
    qp = ConeQP(A=np.eye(2), B=np.eye(2), f=np.array([1.0, 2.0]))
    assert sd.objective_value(qp, np.array([1.0, 0.0])) == pytest.approx(-0.5, abs=1e-15)


def test_objective_against_loop_oracle():
    """Oracle: elementwise double loop, no matrix products."""

    def loop_objective(a, f, u):
        total = 0.0
        for i in range(len(u)):
            for j in range(len(u)):
                total += 0.5 * u[i] * a[i, j] * u[j]
            total -= f[i] * u[i]
        return total

    rng = np.random.default_rng(5)
    qp = random_instance(rng, 5, 2, ConeKind.INEQUALITY)
    u = rng.standard_normal(5)
    assert sd.objective_value(qp, u) == pytest.approx(loop_objective(qp.A, qp.f, u), rel=1e-13)


def test_lagrangian_values():
    qp = ConeQP(A=np.eye(2), B=np.eye(2), f=np.array([1.0, 2.0]))
    assert sd.lagrangian_value(qp, np.zeros(2), np.array([5.0, -3.0])) == 0.0
    val = sd.lagrangian_value(qp, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert val == pytest.approx(-3.0, abs=1e-15)


def test_optimal_value_identity():
    # At the saddle point the multiplier term vanishes by complementarity.
    rng = np.random.default_rng(9)
    for cone in (ConeKind.EQUALITY, ConeKind.INEQUALITY):
        qp = random_instance(rng, 6, 3, cone)
        sp = sd.solve_saddle_point(qp)
        e = sd.objective_value(qp, sp.u)
        l = sd.lagrangian_value(qp, sp.u, sp.lam)
        assert abs(e - l) <= 1e-12 * (1.0 + abs(e))


def test_complementarity_scaled():
    rng = np.random.default_rng(13)
    for _ in range(10):
        qp = random_instance(rng, 8, 3, ConeKind.INEQUALITY)
        sp = sd.solve_saddle_point(qp)
        scale = 1.0 + np.linalg.norm(qp.f) * np.linalg.norm(sp.u)
        assert abs(sp.lam @ (qp.B @ sp.u)) <= 1e-10 * scale


def test_saddle_property_random_pairs():
    # L(u, p) <= L(u, lam) <= L(w, lam) for admissible test pairs.
    rng = np.random.default_rng(17)
    for cone in (ConeKind.EQUALITY, ConeKind.INEQUALITY):
        qp = random_instance(rng, 6, 3, cone)
        sp = sd.solve_saddle_point(qp)
        l_opt = sd.lagrangian_value(qp, sp.u, sp.lam)
        for _ in range(100):
            w = rng.standard_normal(6)
            p = rng.standard_normal(3)
            if cone is ConeKind.INEQUALITY:
                p = np.abs(p)  # dual cone: componentwise nonnegative
            assert sd.lagrangian_value(qp, sp.u, p) <= l_opt + 1e-9
            assert l_opt <= sd.lagrangian_value(qp, w, sp.lam) + 1e-9


# --- perturbations and the derivative ---------------------------------------


def test_perturbed_qp_trivial():
    rng = np.random.default_rng(2)
    qp = random_instance(rng, 4, 2, ConeKind.EQUALITY)
    direction = random_direction(rng, 4, 2)
    same = sd.perturbed_qp(qp, direction, 0.0)
    np.testing.assert_array_equal(same.A, qp.A)
    zero_dir = PerturbationDirection(A1=np.zeros((4, 4)), B1=np.zeros((2, 4)), f1=np.zeros(4))
    same2 = sd.perturbed_qp(qp, zero_dir, 0.7)
    np.testing.assert_array_equal(same2.B, qp.B)
    qp_i = ConeQP(A=np.eye(2), B=np.eye(2), f=np.zeros(2))
    dir_i = PerturbationDirection(A1=np.eye(2), B1=np.zeros((2, 2)), f1=np.zeros(2))
    np.testing.assert_allclose(sd.perturbed_qp(qp_i, dir_i, 0.5).A, 1.5 * np.eye(2))


def test_perturbed_qp_leaves_admissible_range():
    qp = ConeQP(A=np.eye(2), B=np.eye(2), f=np.zeros(2))
    dir_a = PerturbationDirection(A1=-np.eye(2), B1=np.zeros((2, 2)), f1=np.zeros(2))
    with pytest.raises(sd.NotPositiveDefinite):
        sd.perturbed_qp(qp, dir_a, 2.0)
    dir_b = PerturbationDirection(A1=np.zeros((2, 2)), B1=-np.eye(2), f1=np.zeros(2))
    with pytest.raises(sd.RankDeficientB):
        sd.perturbed_qp(qp, dir_b, 1.0)


def test_shape_derivative_trivial_cases():
    rng = np.random.default_rng(4)
    qp = random_instance(rng, 5, 2, ConeKind.EQUALITY)
    direction = random_direction(rng, 5, 2)
    sp_zero = sd.SaddlePoint(u=np.zeros(5), lam=rng.standard_normal(2))
    assert sd.shape_derivative(qp, direction, sp_zero) == 0.0

    sp = sd.solve_saddle_point(qp)
    dir_f = PerturbationDirection(A1=np.zeros((5, 5)), B1=np.zeros((2, 5)), f1=qp.f)
    assert sd.shape_derivative(qp, dir_f, sp) == pytest.approx(-float(qp.f @ sp.u), rel=1e-13)


def test_corollary_reduction_b1_zero():
    # With B1 = 0 the multiplier term drops out identically.
    rng = np.random.default_rng(8)
    qp = random_instance(rng, 6, 2, ConeKind.INEQUALITY)
    sp = sd.solve_saddle_point(qp)
    a1 = rng.standard_normal((6, 6))
    direction = PerturbationDirection(A1=(a1 + a1.T) / 2, B1=np.zeros((2, 6)), f1=rng.standard_normal(6))
    expected = 0.5 * sp.u @ direction.A1 @ sp.u - direction.f1 @ sp.u
    assert sd.shape_derivative(qp, direction, sp) == expected


def test_fd_derivative_zero_direction():
    rng = np.random.default_rng(6)
    qp = random_instance(rng, 5, 2, ConeKind.EQUALITY)
    zero_dir = PerturbationDirection(A1=np.zeros((5, 5)), B1=np.zeros((2, 5)), f1=np.zeros(5))
    assert sd.fd_derivative(qp, zero_dir, 1e-3) == 0.0


def test_fd_derivative_zero_solution_family():
    # f = 0 and f1 = 0 keep the minimizer at the origin for every s.
    qp = ConeQP(A=np.eye(3), B=np.eye(3), f=np.zeros(3), cone=ConeKind.EQUALITY)
    direction = PerturbationDirection(
        A1=np.diag([0.1, -0.2, 0.3]), B1=np.zeros((3, 3)), f1=np.zeros(3)
    )
    assert sd.fd_derivative(qp, direction, 1e-2) == 0.0


def _fd_slope_case(rng, cone, n, m, s_values):
    """Generate an instance whose active set is stable across the FD stencil."""
    for _ in range(50):
        qp = random_instance(rng, n, m, cone)
        direction = random_direction(rng, n, m)
        sp = sd.solve_saddle_point(qp)
        l1 = sd.shape_derivative(qp, direction, sp)
        stable = True
        if cone is ConeKind.INEQUALITY:
            for s in list(s_values) + [1e-4]:
                plus = sd.solve_saddle_point(sd.perturbed_qp(qp, direction, s))
                minus = sd.solve_saddle_point(sd.perturbed_qp(qp, direction, -s))
                if plus.active_set != sp.active_set or minus.active_set != sp.active_set:
                    stable = False
                    break
        if not stable:
            continue
        errs = [abs(sd.fd_derivative(qp, direction, s) - l1) for s in s_values]
        if min(errs) < 1e-11 * (1.0 + abs(l1)):
            continue  # quotient is flat; the slope would be meaningless
        return qp, direction, l1, errs
    raise AssertionError("could not generate a stable instance")


@pytest.mark.parametrize("cone", [ConeKind.EQUALITY, ConeKind.INEQUALITY])
def test_derivative_matches_central_differences(cone):
    rng = np.random.default_rng(42 if cone is ConeKind.EQUALITY else 43)
    s_values = [1e-2, 3e-3, 1e-3]
    qp, direction, l1, errs = _fd_slope_case(rng, cone, 6, 2, s_values)
    assert loglog_slope(s_values, errs) >= 1.8
    fd4 = sd.fd_derivative(qp, direction, 1e-4)
    assert abs(fd4 - l1) <= 1e-6 * (1.0 + abs(l1))


# --- check_lbb ----------------------------------------------------------------


def test_check_lbb_examples():
    f2 = np.zeros(2)
    assert sd.check_lbb(ConeQP(A=np.eye(2), B=np.eye(2), f=f2)) == pytest.approx(1.0)
    assert sd.check_lbb(ConeQP(A=np.eye(2), B=np.array([[1.0, 0.0]]), f=f2)) == pytest.approx(1.0)
    qp = ConeQP(A=np.diag([4.0, 1.0]), B=np.array([[1.0, 0.0]]), f=f2)
    assert sd.check_lbb(qp) == pytest.approx(0.5)


# --- instance files -----------------------------------------------------------


def test_qp_file_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    qp = random_instance(rng, 5, 2, ConeKind.INEQUALITY)
    direction = random_direction(rng, 5, 2)
    path = tmp_path / "inst.txt"
    sd.save_qp(path, qp, direction)
    qp2, dir2 = sd.load_qp(path)
    np.testing.assert_array_equal(qp2.A, qp.A)
    np.testing.assert_array_equal(qp2.B, qp.B)
    np.testing.assert_array_equal(qp2.f, qp.f)
    np.testing.assert_array_equal(dir2.B1, direction.B1)
    assert qp2.cone is qp.cone


def test_qp_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n")
    with pytest.raises(ValueError):
        sd.load_qp(path)
    path.write_text("cone-qp v1\ncone equality\nA 1 1\n1\nB 1 1\n1\nf 1\n0\nA1 1 1\n0\n")
    with pytest.raises(ValueError):
        sd.load_qp(path)  # partial perturbation block
    for text, where in [
        ("cone-qp v1\ncone equality\nA 2 2\n1 0\n", "block A expects 2 row(s), the file ends at line 4"),
        ("cone-qp v1\ncone equality\nA 2 2\n1 0\n0\n", "line 5: block A expects 2 value(s) per row"),
        ("cone-qp v1\ncone equality\nA 1 1\nnan\n", "line 4: block A: values must be finite"),
        ("cone-qp v1\ncone\n", "line 2: cone must be"),
        ("cone-qp v1\n# comment\n\nB 1\n", "line 4: block B expects 2 non-negative integer size(s)"),
        (
            "cone-qp v1\ncone equality\nA 2 2\n1 0\n0 1\nB 1 3\n1 0 0\nf 2\n0 0\n",
            "line 6: block B has shape (1, 3), expected (1, 2) for the 2 x 2 block A",
        ),
        (
            "cone-qp v1\ncone equality\nA 2 3\n1 0 0\n0 1 0\nB 1 3\n1 0 0\nf 2\n0 0\n",
            "line 3: block A has shape (2, 3), expected (2, 2)",
        ),
        (
            "cone-qp v1\ncone equality\nA 2 2\n1 0\n0 1\nB 1 2\n1 0\nf 2\n0 0\n"
            "A1 2 2\n0 0\n0 0\nB1 1 2\n0 0\nf1 3\n0 0 0\n",
            "line 15: block f1 has shape (3,), expected (2,)",
        ),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(where)):
            sd.load_qp(path)
