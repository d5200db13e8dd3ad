"""Velocity fields, flow integration and the first-order expansion residuals."""

import importlib

import numpy as np
import pytest
import scipy.linalg

import shapederiv as sd
from shapederiv.fields import ConstantForce, RotationalForce
from shapederiv.flow import CutoffWindow, flow_points

from flow_oracle import expansion_check, negated, rk4_flow


AFFINE = sd.AffineField(M=((0.3, 0.1), (-0.2, 0.15)), b=(0.05, -0.04))
QUADRATIC = sd.QuadraticField(
    coeffs=((0.1, 0.2, -0.3, 0.05, 0.1, -0.2), (0.0, -0.1, 0.2, 0.1, -0.05, 0.0))
)
WINDOWED = sd.ConstantField(b=(1.0, 0.5), window=CutoffWindow(lo=(0.1, -1.0), hi=(0.85, 2.0)))

ALL_FIELDS = [
    sd.ZeroField(),
    sd.ConstantField(b=(0.4, -0.7)),
    AFFINE,
    sd.RotationField(1.3),
    QUADRATIC,
    WINDOWED,
    sd.QuadraticField(
        coeffs=((0.0, 0.1, 0.0, 0.05, 0.0, -0.02), (0.1, 0.0, -0.1, 0.0, 0.03, 0.0)),
        window=CutoffWindow(lo=(0.0, 0.0), hi=(1.0, 1.0)),
    ),
]


@pytest.mark.parametrize(
    "field",
    ALL_FIELDS,
    ids=["ZeroField", "ConstantField", "AffineField0", "AffineField1", "QuadraticField", "ConstantField_win",
         "QuadraticField_win"],
)
def test_jacobian_matches_finite_differences(field):
    rng = np.random.default_rng(1)
    eps = 1e-6
    for _ in range(10):
        p = rng.uniform(-0.2, 1.2, size=2)
        jac = field.gradient(p)
        num = np.zeros((2, 2))
        for j in range(2):
            dp = np.zeros(2)
            dp[j] = eps
            num[:, j] = (field.evaluate(p + dp) - field.evaluate(p - dp)) / (2 * eps)
        assert np.abs(jac - num).max() <= 1e-6


def test_zero_field_flow():
    x = np.array([0.3, -0.8])
    fs = sd.integrate_flow(sd.ZeroField(), x, 0.5)
    np.testing.assert_array_equal(fs.point, x)
    np.testing.assert_array_equal(fs.jacobian, np.eye(2))
    assert fs.det == 1.0


def test_constant_field_flow_exact_in_one_step():
    x = np.array([0.1, 0.2])
    fs = sd.integrate_flow(sd.ConstantField(b=(2.0, -1.0)), x, 0.3, steps=1)
    np.testing.assert_allclose(fs.point, x + 0.3 * np.array([2.0, -1.0]), rtol=0, atol=1e-16)
    np.testing.assert_array_equal(fs.jacobian, np.eye(2))


def test_rotation_flow_against_closed_form():
    # Oracle: the rotation matrix exp(s * omega * [[0,-1],[1,0]]).
    s = np.pi / 2
    fs = sd.integrate_flow(sd.RotationField(1.0), np.array([1.0, 0.0]), s, steps=64)
    rot = np.array([[np.cos(s), -np.sin(s)], [np.sin(s), np.cos(s)]])
    assert np.linalg.norm(fs.point - np.array([0.0, 1.0])) <= 1e-8
    assert np.abs(fs.jacobian - rot).max() <= 1e-8
    assert abs(fs.det - 1.0) <= 1e-9


def test_affine_flow_against_matrix_exponential():
    # Oracle: augmented matrix exponential gives both exp(sM) and the
    # convolution of the offset in closed form.
    m = AFFINE.matrix()
    b = np.array(AFFINE.coeffs)[:, 0]
    aug = np.zeros((3, 3))
    aug[:2, :2] = m
    aug[:2, 2] = b
    rng = np.random.default_rng(2)
    for s in (0.2, -0.2, 0.05):
        big = scipy.linalg.expm(s * aug)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=2)
            exact = big[:2, :2] @ x + big[:2, 2]
            fs = sd.integrate_flow(AFFINE, x, s, steps=64)
            assert np.linalg.norm(fs.point - exact) <= 1e-10
            assert np.abs(fs.jacobian - scipy.linalg.expm(s * m)).max() <= 1e-10


@pytest.mark.parametrize("field", [AFFINE, QUADRATIC, WINDOWED, sd.RotationField(0.9)],
                         ids=["affine", "quadratic", "windowed", "rotation"])
@pytest.mark.parametrize("s", [0.2, -0.2, 0.07])
def test_flow_composition_with_reversed_field(field, s):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, size=2)
        forward = sd.integrate_flow(field, x, s, steps=64)
        back = sd.integrate_flow(negated(field), forward.point, s, steps=64)
        assert np.linalg.norm(back.point - x) <= 1e-8


@pytest.mark.parametrize(
    "field",
    [sd.RotationField(1.0), sd.AffineField(M=((0.4, 0.3), (0.2, -0.4)))],
    ids=["rotation", "traceless-affine"],
)
def test_divergence_free_flow_preserves_volume(field):
    rng = np.random.default_rng(4)
    for s in (0.2, -0.2):
        x = rng.uniform(-0.5, 0.5, size=2)
        fs = sd.integrate_flow(field, x, s, steps=64)
        assert abs(fs.det - 1.0) <= 1e-9


def test_batch_integration_matches_pointwise():
    pts = np.random.default_rng(5).uniform(0, 1, size=(7, 2))
    batch = sd.integrate_flow(AFFINE, pts, 0.1, steps=16)
    for k in range(7):
        single = sd.integrate_flow(AFFINE, pts[k], 0.1, steps=16)
        np.testing.assert_allclose(batch.point[k], single.point, atol=1e-15)
        np.testing.assert_allclose(batch.jacobian[k], single.jacobian, atol=1e-15)


def test_flow_blowup_raises():
    # d(x1)/ds = x1^2 blows up at s = 1 from x1 = 1; the guard must trip.
    field = sd.QuadraticField(coeffs=((0.0, 0.0, 0.0, 1.0, 0.0, 0.0), (0.0,) * 6))
    with pytest.raises(sd.NonPositiveJacobian):
        sd.integrate_flow(field, np.array([1.0, 0.0]), 2.0, steps=64)


def test_integrate_flow_validates_steps():
    with pytest.raises(ValueError):
        sd.integrate_flow(sd.ZeroField(), np.zeros(2), 0.1, steps=0)
    with pytest.raises(ValueError):
        flow_points(sd.ZeroField(), np.zeros(2), 0.1, steps=0)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_flow_points_equal_integrate_flow_points(field):
    # The same RK4 stages without the Jacobian: bit-identical image points.
    x = sd.unit_square_mesh(6).vertices
    for s, steps in ((0.3, 64), (-0.1, 5)):
        assert np.array_equal(flow_points(field, x, s, steps=steps), sd.integrate_flow(field, x, s, steps=steps).point)


# --- expansion residuals ------------------------------------------------------


def test_expansion_zero_and_constant_are_exact():
    for field in (sd.ZeroField(), sd.ConstantField(b=(1.0, -2.0))):
        rep = expansion_check(field, np.array([0.3, 0.7]), [1e-1, 1e-2, 1e-3])
        assert rep.exact
        assert rep.slope_r1 is None and rep.slope_r2 is None
        assert max(rep.r1_norms + rep.r2_norms) <= 1e-13


def test_expansion_affine_slopes():
    field = sd.AffineField(M=((1.0, 0.0), (0.0, 0.0)))
    rep = expansion_check(field, np.array([0.3, 0.7]), [1e-1, 1e-2, 1e-3])
    assert not rep.exact
    assert rep.slope_r1 >= 1.9
    assert rep.slope_r2 >= 1.9


def test_expansion_quadratic_slopes():
    rep = expansion_check(QUADRATIC, np.array([0.4, 0.6]), [1e-1, 1e-2, 1e-3])
    assert rep.slope_r1 >= 1.9
    assert rep.slope_r2 >= 1.9


def test_window_validation():
    with pytest.raises(ValueError):
        CutoffWindow(lo=(0.0, 0.0), hi=(1.0, 1.0), ramp=0.8)
    with pytest.raises(ValueError):
        CutoffWindow(lo=(1.0, 0.0), hi=(0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        CutoffWindow(lo=(np.nan, 0.0), hi=(1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        CutoffWindow(lo=(0.0, 0.0), hi=(1.0, np.inf))
    # Window value is 1 deep inside, 0 outside.
    win = CutoffWindow(lo=(0.0, 0.0), hi=(1.0, 1.0), ramp=0.25)
    assert win.value(np.array([0.5, 0.5])) == 1.0
    assert win.value(np.array([1.5, 0.5])) == 0.0


# --- every polynomial field is a QuadraticField --------------------------------
# Oracles: the closed forms the constructors' fields had as classes of their own.

M_AFFINE = ((0.3, 0.1), (-0.2, 0.15))
B_AFFINE = (0.05, -0.04)
WINDOW = CutoffWindow(lo=(-0.6, -0.4), hi=(0.9, 1.1))


# Each oracle is a pair: value(p) and Jacobian(p).
def _affine_oracle(M, b=(0.0, 0.0)):
    M = np.asarray(M, dtype=float)
    return (
        lambda p: p @ M.T + np.asarray(b, dtype=float),
        lambda p: np.broadcast_to(M, p.shape[:-1] + (2, 2)).copy(),
    )


def _constant_oracle(b):
    return (
        lambda p: np.broadcast_to(np.asarray(b, dtype=float), p.shape).copy(),
        lambda p: np.zeros(p.shape[:-1] + (2, 2)),
    )


def _rotational_oracle(c):
    def gradient(p):
        g = np.zeros(p.shape[:-1] + (2, 2))
        g[..., 0, 1] = -c
        g[..., 1, 0] = c
        return g

    return lambda p: c * np.stack([-p[..., 1], p[..., 0]], axis=-1), gradient


def _windowed(oracle, window):
    value, jacobian = oracle

    def windowed_jacobian(p):
        chi, grad_chi = window.value(p), window.gradient(p)
        return chi[..., None, None] * jacobian(p) + value(p)[..., :, None] * grad_chi[..., None, :]

    return lambda p: value(p) * window.value(p)[..., None], windowed_jacobian


CONSTRUCTORS = {
    "zero": (sd.ZeroField(), _constant_oracle((0.0, 0.0))),
    "constant": (sd.ConstantField(b=(0.4, -0.7)), _constant_oracle((0.4, -0.7))),
    "affine": (sd.AffineField(M=M_AFFINE, b=B_AFFINE), _affine_oracle(M_AFFINE, B_AFFINE)),
    "affine-no-b": (sd.AffineField(M=M_AFFINE), _affine_oracle(M_AFFINE)),
    "rotation": (sd.RotationField(1.3), _affine_oracle(((0.0, -1.3), (1.3, 0.0)))),
    "rotation-default": (sd.RotationField(), _affine_oracle(((0.0, -1.0), (1.0, 0.0)))),
    "constant-force": (ConstantForce(value=(0.7, -0.3)), _constant_oracle((0.7, -0.3))),
    "constant-force-default": (ConstantForce(), _constant_oracle((1.0, 0.0))),
    "rotational-force": (RotationalForce(c=0.8), _rotational_oracle(0.8)),
    "rotational-force-default": (RotationalForce(), _rotational_oracle(1.0)),
    "zero-windowed": (sd.ZeroField(window=WINDOW), _windowed(_constant_oracle((0.0, 0.0)), WINDOW)),
    "constant-windowed": (
        sd.ConstantField(b=(0.4, -0.7), window=WINDOW),
        _windowed(_constant_oracle((0.4, -0.7)), WINDOW),
    ),
    "affine-windowed": (
        sd.AffineField(M=M_AFFINE, b=B_AFFINE, window=WINDOW),
        _windowed(_affine_oracle(M_AFFINE, B_AFFINE), WINDOW),
    ),
    "rotation-windowed": (
        sd.RotationField(0.9, window=WINDOW),
        _windowed(_affine_oracle(((0.0, -0.9), (0.9, 0.0))), WINDOW),
    ),
}


@pytest.fixture(scope="module")
def seeded_points():
    return np.random.default_rng(12).uniform(-1.5, 1.5, size=(6, 40, 2))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructors_are_quadratic_fields_with_the_closed_forms(seeded_points, name):
    field, (value, jacobian) = CONSTRUCTORS[name]
    p, jac = seeded_points, jacobian(seeded_points)
    assert type(field) is sd.QuadraticField
    assert _same_bits(field.evaluate(p), value(p))
    assert _same_bits(field.gradient(p), jac)


def test_affine_accessors():
    field = sd.AffineField(M=M_AFFINE, b=B_AFFINE)
    assert np.array_equal(field.matrix(), np.asarray(M_AFFINE)) and field.matrix().flags.c_contiguous


@pytest.mark.parametrize(
    "field",
    [
        sd.AffineField(M=M_AFFINE, b=B_AFFINE, window=WINDOW),
        sd.QuadraticField(coeffs=QUADRATIC.coeffs, window=WINDOW),
        QUADRATIC,
    ],
    ids=["affine-windowed", "quadratic-windowed", "quadratic"],
)
def test_negated_is_the_exact_negation(seeded_points, field):
    neg, p = negated(field), seeded_points
    assert type(neg) is sd.QuadraticField and neg.window == field.window
    for method in ("evaluate", "gradient"):
        assert np.array_equal(getattr(neg, method)(p), -getattr(field, method)(p))
    assert negated(neg) == field
    assert np.array_equal(negated(neg).evaluate(p), field.evaluate(p))


# --- affine flows in closed form -----------------------------------------------
# Oracle: the RK4 on every point that the package ran for every field before
# affine fields without a window took the closed form of their RK4 flow
# (flow_oracle.rk4_flow).  Both take the same stages, so they differ in
# rounding only: each of the steps rounds every entry a few times, relative
# to the largest one.  The bound is 2 steps eps of the largest entry (the
# largest difference seen is 0.62 steps eps, on the n=16 square and the
# 8-ring disk).

AFFINE_FLOWS = {
    "zero": sd.ZeroField(),
    "constant": sd.ConstantField(b=(0.4, -0.7)),
    "affine": AFFINE,
    "rotation": sd.RotationField(1.3),
}
FLOW_MESHES = {"square": sd.unit_square_mesh(16, {"right"}), "disk": sd.disk_mesh(8)}
FLOW_STEPS = ((1e-2, 64), (-1e-2, 64), (0.3, 64), (-0.3, 5))


@pytest.mark.parametrize("mesh_name", sorted(FLOW_MESHES))
@pytest.mark.parametrize("name", sorted(AFFINE_FLOWS))
def test_affine_flows_match_the_per_vertex_rk4(name, mesh_name):
    field, x = AFFINE_FLOWS[name], FLOW_MESHES[mesh_name].vertices
    for s, steps in FLOW_STEPS:
        point, jacobian = rk4_flow(field, x, s, steps)
        sample = sd.integrate_flow(field, x, s, steps=steps)
        bound = 2 * steps * np.finfo(float).eps
        assert np.abs(sample.point - point).max() <= bound * np.abs(point).max()
        assert np.abs(sample.jacobian - jacobian).max() <= bound * np.abs(jacobian).max()
        assert _same_bits(flow_points(field, x, s, steps=steps), sample.point)
        if name in ("zero", "constant"):  # M = 0: the Jacobian is exactly I
            assert np.array_equal(sample.jacobian, jacobian)
        if name == "zero":
            assert np.array_equal(sample.point, x)


@pytest.mark.parametrize("mesh_name", sorted(FLOW_MESHES))
@pytest.mark.parametrize(
    "field", [sd.RotationField(0.9, window=WINDOW), QUADRATIC], ids=["windowed-rotation", "quadratic"]
)
def test_windowed_and_quadratic_flows_keep_the_per_vertex_rk4(field, mesh_name):
    x = FLOW_MESHES[mesh_name].vertices
    for s, steps in FLOW_STEPS:
        point, jacobian = rk4_flow(field, x, s, steps)
        sample = sd.integrate_flow(field, x, s, steps=steps)
        assert _same_bits(sample.point, point) and _same_bits(sample.jacobian, jacobian)
        assert _same_bits(flow_points(field, x, s, steps=steps), point)


def test_a_one_step_flip_is_refused_when_the_steps_square_it_away(monkeypatch):
    # No RK4 step of an affine field flips: det P = p(h l1) p(h l2), p the
    # RK4 polynomial, which is positive on the reals, and |p(h l)|^2 for a
    # complex pair.  So the step is reflected here: det P < 0, while an even
    # number of steps has det P^steps > 0.  RK4's per-step check sees the
    # flip after the first step, and so must the closed form.
    flow = importlib.import_module("shapederiv.flow")
    rk4 = flow._rk4

    def reflected(rhs, state, s, steps, valid):
        return (rk4(rhs, state, s, steps, valid)[0] * np.array([[1.0], [-1.0], [1.0]]),)

    x = sd.unit_square_mesh(4).vertices
    for steps in (2, 3, 64):
        assert np.all(sd.integrate_flow(AFFINE, x, 0.1, steps=steps).det > 0.0)
        with monkeypatch.context() as patched:
            patched.setattr(flow, "_rk4", reflected)
            with pytest.raises(sd.NonPositiveJacobian):
                sd.integrate_flow(AFFINE, x, 0.1, steps=steps)


def test_a_blown_up_affine_flow_raises():
    # The closed form's iterates overflow where every trajectory leaves the plane.
    with pytest.raises(sd.NonPositiveJacobian):
        flow_points(sd.AffineField(M=((1.0, 0.0), (0.0, 1.0))), np.ones((3, 2)), 1e100, steps=8)
    with pytest.raises(sd.NonPositiveJacobian):
        sd.integrate_flow(sd.RotationField(1e80), np.ones(2), 1.0, steps=4)
    with pytest.raises(ValueError, match="trailing dimension"):
        flow_points(AFFINE, np.ones((4, 3)), 0.1)
