"""Cone-constrained quadratic programs and their sensitivity to data perturbations.

The model problem is

    minimize  1/2 u'Au - f'u   over  {u : Bu >= 0}  or  {u : Bu = 0}

with A symmetric positive definite and B of full row rank.  Solving the
primal-dual saddle point of the Lagrangian L(u, lam) = 1/2 u'Au - f'u -
lam'Bu gives the multiplier lam needed to differentiate the optimal value
along a one-parameter family (A + s*A1, B + s*B1, f + s*f1).

The saddle point is found by a range-space method: a ConeQP factors
A = LL' once, when it is built, and whitens its data with L: G = L^{-1}B',
h = L^{-1}f, Z = A^{-1}B' and u0 = A^{-1}f.  The multiplier of a set of
active constraints solves B_W A^{-1} B_W' lam_W = -B_W A^{-1} f through a
QR factorization of G_W, updated by one Givens sweep when a
constraint enters or leaves the working set (Goldfarb & Idnani 1983;
Nocedal & Wright, Numerical Optimization, 2nd ed., sections 16.3 and
16.5).  The iteration may start from a given working set, such as the
terminal set of a nearby problem (the parametric warm start of Nocedal &
Wright, section 16.5, and of qpOASES, Ferreau, Bock & Diehl 2008), or the
constraints that the unconstrained minimizer violates (crash_start, the
point Goldfarb & Idnani start their dual method from).
check_lbb reads the inf-sup constant off the same G.  The module also
provides the optimal value of a perturbed problem and its
central-difference quotient, the independent check of that derivative.

All operations are pure functions of immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._norms import norm2
from ._textio import block_sizes, float_block, numbered_lines
from .errors import (
    DimensionMismatch,
    MaxIterations,
    NotPositiveDefinite,
    RankDeficientB,
)

__all__ = [
    "ConeKind",
    "ConeQP",
    "PerturbationDirection",
    "SaddlePoint",
    "solve_saddle_point",
    "crash_start",
    "objective_value",
    "lagrangian_value",
    "shape_derivative",
    "perturbed_qp",
    "optimal_value",
    "fd_derivative",
    "check_lbb",
    "load_qp",
    "save_qp",
]

_SYM_RTOL = 1e-12
_RANK_RTOL = 1e-10


class ConeKind(enum.Enum):
    INEQUALITY = "inequality"  # feasible set {u : Bu >= 0}
    EQUALITY = "equality"      # feasible set {u : Bu = 0}


def _as_array(x, name: str, ndim: int) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != ndim:
        raise DimensionMismatch(f"{name} must be a {ndim}-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionMismatch(f"{name} must be finite")
    return a


def _check_symmetric(a: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if float(np.abs(a - a.T).max(initial=0.0)) > _SYM_RTOL * scale:
        raise DimensionMismatch(f"{name} must be symmetric")


def _cholesky_or_raise(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix A failed the Cholesky test") from None


@dataclass(frozen=True)
class ConeQP:
    """Quadratic program 1/2 u'Au - f'u over a polyhedral cone Bu >= 0 or Bu = 0.

    A must be symmetric positive definite (its smallest eigenvalue is the
    strong-monotony constant) and B must have full row rank m <= n (its
    smallest singular value controls uniqueness of the multiplier).  Its
    Cholesky factor L of A = LL' makes G = L^{-1}B', h = L^{-1}f, Z = L^{-T}G
    and u0 = L^{-T}h, once, for every QP routine to read.
    """

    A: np.ndarray
    B: np.ndarray
    f: np.ndarray
    cone: ConeKind = ConeKind.INEQUALITY

    def __post_init__(self):
        A = _as_array(self.A, "A", 2)
        B = _as_array(self.B, "B", 2)
        f = _as_array(self.f, "f", 1)
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch("A must be square")
        if B.shape[1] != n or f.shape[0] != n:
            raise DimensionMismatch("B and f must match the dimension of A")
        _check_symmetric(A, "A")
        L = _cholesky_or_raise(A)
        sigma = np.linalg.svd(B, compute_uv=False)
        m = B.shape[0]
        if m > n or sigma.size == 0 or sigma[-1] <= _RANK_RTOL * sigma[0]:
            raise RankDeficientB("B must have full row rank m <= n")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "f", f)
        # Not fields: the whitened operator that every QP routine reads.
        G = scipy.linalg.solve_triangular(L, B.T, lower=True)
        h = scipy.linalg.solve_triangular(L, f, lower=True)
        Z = scipy.linalg.solve_triangular(L, G, lower=True, trans="T")
        u0 = scipy.linalg.solve_triangular(L, h, lower=True, trans="T")
        if not all(np.isfinite(x).all() for x in (G, h, Z, u0)):
            raise NotPositiveDefinite("matrix A is singular to working precision: A^{-1}B' or A^{-1}f is not finite")
        object.__setattr__(self, "_G", G)
        object.__setattr__(self, "_h", h)
        object.__setattr__(self, "_Z", Z)
        object.__setattr__(self, "_u0", u0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[0]


@dataclass(frozen=True)
class PerturbationDirection:
    """First-order data perturbation (A1, B1, f1) of a ConeQP."""

    A1: np.ndarray
    B1: np.ndarray
    f1: np.ndarray

    def __post_init__(self):
        A1 = _as_array(self.A1, "A1", 2)
        B1 = _as_array(self.B1, "B1", 2)
        f1 = _as_array(self.f1, "f1", 1)
        _check_symmetric(A1, "A1")
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "B1", B1)
        object.__setattr__(self, "f1", f1)

    def check_against(self, qp: ConeQP) -> None:
        if self.A1.shape != qp.A.shape or self.B1.shape != qp.B.shape:
            raise DimensionMismatch("perturbation shapes do not match the QP")
        if self.f1.shape != qp.f.shape:
            raise DimensionMismatch("f1 does not match the QP dimension")


@dataclass(frozen=True)
class SaddlePoint:
    """Primal minimizer, multiplier, terminal working set and KKT residual."""

    u: np.ndarray
    lam: np.ndarray
    active_set: frozenset[int] | None = None  # inequality case only, 0-based
    kkt_residual: float = 0.0
    iterations: int = 0  # active-set steps (working-set solves); 0 for the equality cone


def objective_value(qp: ConeQP, u) -> float:
    """Quadratic objective 1/2 u'Au - f'u."""
    u = _as_array(u, "u", 1)
    if u.shape[0] != qp.n:
        raise DimensionMismatch("u does not match the QP dimension")
    return float(0.5 * u @ qp.A @ u - qp.f @ u)


def lagrangian_value(qp: ConeQP, u, lam) -> float:
    """Lagrangian 1/2 u'Au - f'u - lam'Bu; equals the objective at a saddle point."""
    u = _as_array(u, "u", 1)
    lam = _as_array(lam, "lam", 1)
    if lam.shape[0] != qp.m:
        raise DimensionMismatch("lam does not match the number of constraints")
    return objective_value(qp, u) - float(lam @ (qp.B @ u))


def _kkt_residual(qp: ConeQP, u: np.ndarray, lam: np.ndarray) -> float:
    r_mom = norm2(qp.A @ u - qp.f - qp.B.T @ lam)
    bu = qp.B @ u
    if qp.cone is ConeKind.EQUALITY:
        return max(r_mom, norm2(bu))
    r_feas = float(max(0.0, -bu.min(initial=0.0)))
    r_dual = float(max(0.0, -lam.min(initial=0.0)))
    r_comp = float(abs(lam @ bu))
    return max(r_mom, r_feas, r_dual, r_comp)


def _working_multiplier(R: np.ndarray, qh: np.ndarray) -> np.ndarray:
    """lam_W = -R^{-1}(Q'h) for the QR factor R of G_W (k x k, upper).

    A diagonal entry that is non-finite or zero to roundoff (at most
    k * eps * max|R_ii|, the numpy.linalg.matrix_rank rule) means the
    working constraints are linearly dependent.
    """
    d = np.abs(R.diagonal())
    if not np.isfinite(d).all() or (d <= d.size * np.finfo(float).eps * d.max(initial=0.0)).any():
        raise RankDeficientB("working constraints are linearly dependent")
    return -scipy.linalg.solve_triangular(R, qh, check_finite=False)


def solve_saddle_point(qp: ConeQP, max_iter: int = 200, start: Iterable[int] | None = None) -> SaddlePoint:
    """Solve the primal-dual saddle point of the cone QP by a range-space method.

    A = LL' is factored, and G = L^{-1}B', h = L^{-1}f, Z = A^{-1}B' and
    u0 = A^{-1}f are made, once, when the QP is built.  For a
    working set W the KKT system A u - B_W' lam_W = f, B_W u = 0 reduces,
    with G_W = Q R, to lam_W = -R^{-1} Q'h and u = u0 + Z_W lam_W;
    G_W'G_W = B_W A^{-1} B_W' is never formed, so its conditioning is not
    squared.

    Equality cone: one economic QR of G.  Inequality cone: primal
    active-set iteration from the origin, where every constraint holds
    with equality, so any working set is feasible: it starts from the
    empty set or from ``start`` (constraint indices in range(m), say the
    terminal set of a nearby QP or crash_start(qp); one full QR of
    G_start), which saves steps only near the terminal set, as each row in
    one set and not the other costs a step.  Blocking constraints enter by
    lowest index and constraints leave by most negative multiplier (lowest
    index on ties), with ``max_iter`` working-set solves from the start as
    the cycling guard.  Q and R are updated by one Givens sweep per
    entering or leaving constraint.  A working set whose R has a diagonal
    entry that is zero to roundoff or non-finite raises RankDeficientB,
    the start set included; a bad ``start``, or any on the equality cone,
    raises DimensionMismatch.
    """
    start = None if start is None else list(start)  # an iterator is read once
    if start is not None and (qp.cone is ConeKind.EQUALITY or not all(
            isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < qp.m for i in start)):
        raise DimensionMismatch(f"start must be a set of constraint indices in range({qp.m}) of an inequality-cone QP")
    G, h, Z, u0 = qp._G, qp._h, qp._Z, qp._u0
    if qp.cone is ConeKind.EQUALITY:
        Q, R = scipy.linalg.qr(G, mode="economic")
        lam = _working_multiplier(R, Q.T @ h)
        u = u0 + Z @ lam
        res = _kkt_residual(qp, u, lam)
        return SaddlePoint(u=u, lam=lam, active_set=None, kkt_residual=res)

    n, m = qp.n, qp.m
    # Each tolerance is in the units of what it bounds, so that scaling
    # (A, f) or f, or a row of B, leaves every decision as it was: the step
    # p against u0 = A^{-1}f and u, B_i p against |B_i| |p|, and the force
    # lam_i |B_i| of a multiplier against f (max-norms, which cannot overflow).
    row_size = np.abs(qp.B).max(axis=1)
    u0_size = np.linalg.norm(u0, np.inf)
    mult_tol = 1e-11 * np.linalg.norm(qp.f, np.inf)
    u = np.zeros(n)
    # constraint of each column of G_W: the start set in order, then in insertion order
    working = sorted({int(i) for i in start or ()})
    in_working = np.zeros(m, dtype=bool)
    in_working[working] = True
    Q, R = np.linalg.qr(G[:, working], mode="complete") if working else (np.eye(n), np.zeros((n, 0)))  # full QR of G_W

    for step in range(1, max_iter + 1):
        k = len(working)
        lam_w = _working_multiplier(R[:k], Q[:, :k].T @ h)
        u_star = u0 + Z[:, working] @ lam_w
        p = u_star - u
        p_max = np.linalg.norm(p, np.inf)
        if p_max <= 1e-12 * (u0_size + np.linalg.norm(u, np.inf)):
            if k == 0 or (lam_w * row_size[working]).min() >= -mult_tol:
                lam = np.zeros(m)
                lam[working] = lam_w
                res = _kkt_residual(qp, u_star, lam)
                return SaddlePoint(
                    u=u_star,
                    lam=lam,
                    active_set=frozenset(working),
                    kkt_residual=res,
                    iterations=step,
                )
            # Columns are in insertion order, so argmin alone would not
            # break ties by constraint index.
            col = int(np.lexsort((working, lam_w))[0])
            Q, R = scipy.linalg.qr_delete(Q, R, col, which="col", check_finite=False)
            in_working[working.pop(col)] = False
            continue
        # Step toward the working-set minimizer, stopping at the first
        # blocking constraint (lowest index wins on equal ratios).
        bu = qp.B @ u
        bp = qp.B @ p
        cand = np.flatnonzero(~in_working & (bp < -1e-13 * p_max * row_size))
        alpha = 1.0
        block = None
        for i, bu_i, bp_i in zip(cand.tolist(), bu[cand].tolist(), bp[cand].tolist()):
            ratio = max(0.0, bu_i) / (-bp_i)
            if ratio < alpha - 1e-15:
                alpha = ratio
                block = i
        u = u + alpha * p
        if block is not None:
            Q, R = scipy.linalg.qr_insert(Q, R, G[:, block], k, which="col", check_finite=False)
            working.append(block)
            in_working[block] = True
    raise MaxIterations(f"active-set iteration did not settle in {max_iter} steps")


def crash_start(qp: ConeQP) -> frozenset[int] | None:
    """The rows that the unconstrained minimizer violates, {i : (B A^{-1} f)_i < 0}.

    A guess of the terminal set, to pass as solve_saddle_point's ``start``;
    A^{-1}f is the solver's own u0, made when the QP was built.  Each row
    it gets wrong costs at least one step, so where the cold path is short
    it can cost more steps than the empty start.  None for the equality
    cone, which takes no start.
    """
    if qp.cone is ConeKind.EQUALITY:
        return None
    return frozenset(np.flatnonzero(qp.B @ qp._u0 < 0.0).tolist())


def shape_derivative(qp: ConeQP, direction: PerturbationDirection, sp: SaddlePoint) -> float:
    """First-order change of the optimal value along the data perturbation.

    Evaluates 1/2 u'A1 u - f1'u - lam'B1 u at the solved saddle point.
    """
    direction.check_against(qp)
    u, lam = sp.u, sp.lam
    return float(0.5 * u @ direction.A1 @ u - direction.f1 @ u - lam @ (direction.B1 @ u))


def perturbed_qp(qp: ConeQP, direction: PerturbationDirection, s: float) -> ConeQP:
    """The QP with data (A + s*A1, B + s*B1, f + s*f1), same cone.

    Raises NotPositiveDefinite or RankDeficientB when s leaves the
    admissible interval of the perturbation.
    """
    direction.check_against(qp)
    return ConeQP(
        A=qp.A + s * direction.A1,
        B=qp.B + s * direction.B1,
        f=qp.f + s * direction.f1,
        cone=qp.cone,
    )


def optimal_value(
    qp: ConeQP, direction: PerturbationDirection, s: float, max_iter: int = 200, start: Iterable[int] | None = None
) -> float:
    """Optimal value of the QP perturbed by s along ``direction``.

    Uses only the solver and the Lagrangian, never ``shape_derivative``;
    ``start`` is the solver's starting working set.  At the saddle point
    the Lagrangian equals the objective, but it is stationary in u and
    lam, so a roundoff residual r in B_W u, which moves the objective by
    lam_W'r, moves it only at second order.
    """
    qp_s = perturbed_qp(qp, direction, s)
    sp = solve_saddle_point(qp_s, max_iter=max_iter, start=start)
    return lagrangian_value(qp_s, sp.u, sp.lam)


def fd_derivative(qp: ConeQP, direction: PerturbationDirection, s: float) -> float:
    """Central-difference quotient (E(+s) - E(-s)) / (2 s) of the optimal value."""
    if s == 0.0:
        raise ValueError("central difference requires s != 0")
    return (optimal_value(qp, direction, s) - optimal_value(qp, direction, -s)) / (2.0 * s)


def check_lbb(qp: ConeQP) -> float:
    """Discrete inf-sup constant: smallest singular value of B L^{-T}, A = L L'.

    Positive exactly when the multiplier is unique.
    """
    # B L^{-T} is the transpose of the solver's G = L^{-1} B'.
    return float(np.linalg.svd(qp._G, compute_uv=False)[-1])


# ---------------------------------------------------------------------------
# Text-file instance format
#
#   cone-qp v1
#   cone equality|inequality
#   A <n> <n>
#   <n rows of n floats>
#   B <m> <n>
#   f <n>
#   <one row of n floats>
#   A1/B1/f1 blocks (optional, all three or none)

_HEADER = "cone-qp v1"


def save_qp(path, qp: ConeQP, direction: PerturbationDirection | None = None) -> None:
    """Write an instance (and optional perturbation) in the text format."""

    def rows(name: str, a: np.ndarray) -> list[str]:
        a = np.atleast_2d(a)
        out = [f"{name} {a.shape[0]} {a.shape[1]}"]
        out += [" ".join(f"{v:.17g}" for v in row) for row in a]
        return out

    lines = [_HEADER, f"cone {qp.cone.value}"]
    lines += rows("A", qp.A)
    lines += rows("B", qp.B)
    lines += [f"f {qp.n}", " ".join(f"{v:.17g}" for v in qp.f)]
    if direction is not None:
        lines += rows("A1", direction.A1)
        lines += rows("B1", direction.B1)
        lines += [f"f1 {qp.n}", " ".join(f"{v:.17g}" for v in direction.f1)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_qp(path) -> tuple[ConeQP, PerturbationDirection | None]:
    """Read an instance file written by :func:`save_qp` (or by hand).

    Each float block is parsed in C (``_textio.float_block``) and read to
    the same bits as ``float()`` reads each token.  A malformed file, a
    repeated block or one whose shape disagrees with the n x n block A
    included, raises ValueError naming the block and the line.
    """
    lines = numbered_lines(path, comment="#")
    if not lines or lines[0][1] != _HEADER:
        raise ValueError(f"{path}: expected header '{_HEADER}'")
    pos = 1
    blocks: dict[str, np.ndarray] = {}
    header_line: dict[str, int] = {}
    cone = None
    while pos < len(lines):
        number, text = lines[pos]
        name, *rest = text.split()
        if name in header_line:
            raise ValueError(f"{path}, line {number}: block {name} repeats the one at line {header_line[name]}")
        header_line[name] = number
        if name == "cone":
            try:
                (value,) = rest
                cone = ConeKind(value)
            except ValueError:
                raise ValueError(f"{path}, line {number}: cone must be 'equality' or 'inequality'") from None
            pos += 1
        elif name in ("f", "f1"):
            (n,) = block_sizes(path, lines[pos], name, 1)
            blocks[name] = float_block(lines, pos + 1, path, name, 1, n)[0]
            pos += 2
        elif name in ("A", "B", "A1", "B1"):
            r, c = block_sizes(path, lines[pos], name, 2)
            blocks[name] = float_block(lines, pos + 1, path, name, r, c)
            pos += 1 + r
        else:
            raise ValueError(f"{path}, line {number}: unknown block '{name}'")
    if cone is None or not {"A", "B", "f"} <= blocks.keys():
        raise ValueError(f"{path}: incomplete instance (need cone, A, B, f)")
    n, m = blocks["A"].shape[0], blocks["B"].shape[0]
    expected = {"A": (n, n), "B": (m, n), "f": (n,), "A1": (n, n), "B1": (m, n), "f1": (n,)}
    for name, block in blocks.items():
        if block.shape != expected[name]:
            raise ValueError(
                f"{path}, line {header_line[name]}: block {name} has shape {block.shape}, "
                f"expected {expected[name]} for the {n} x {n} block A"
            )
    qp = ConeQP(A=blocks["A"], B=blocks["B"], f=blocks["f"], cone=cone)
    direction = None
    if {"A1", "B1", "f1"} <= blocks.keys():
        direction = PerturbationDirection(A1=blocks["A1"], B1=blocks["B1"], f1=blocks["f1"])
        direction.check_against(qp)
    elif {"A1", "B1", "f1"} & blocks.keys():
        raise ValueError(f"{path}: perturbation needs all of A1, B1, f1")
    return qp, direction
