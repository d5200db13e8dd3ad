"""Bordered-KKT reference solvers for the cone QP, used only as test oracles.

The package solves through the range space of A (a QR of L^{-1}B_W');
these oracles instead factor the full bordered matrix
[[A, -B_W'], [-B_W, 0]] (symmetric indefinite, LDL') for every working set.
"""

import itertools

import numpy as np
import scipy.linalg


def bordered_solve(A, B_w, f):
    """Solve [[A, -B_w'], [-B_w, 0]] (u, lam_w) = (f, 0) by an LDL' factorization."""
    n, k = A.shape[0], B_w.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = A
    kkt[:n, n:] = -B_w.T
    kkt[n:, :n] = -B_w
    sol = scipy.linalg.solve(kkt, np.concatenate([f, np.zeros(k)]), assume_a="sym")
    return sol[:n], sol[n:]


def enumerate_solve(qp, tol=1e-9):
    """Try every working set in order of size; return the first KKT point (u, lam)."""
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(qp.m), k) for k in range(qp.m + 1)
    ):
        rows = list(subset)
        u, lam_w = bordered_solve(qp.A, qp.B[rows], qp.f)
        lam = np.zeros(qp.m)
        lam[rows] = lam_w
        if np.all(qp.B @ u >= -tol) and np.all(lam >= -tol):
            return u, lam
    raise AssertionError("enumeration found no KKT point")


def active_set_reference(qp, max_iter=200, ties="lowest"):
    """Primal active-set iteration with a fresh bordered solve at every step.

    Same rules as the package solver: start at the origin, blocking
    constraints enter by lowest index, the most negative multiplier leaves
    (``ties`` picks the lowest or highest index among equal multipliers).
    Returns (u, lam, active_set, steps).
    """
    f_scale = 1.0 + float(np.linalg.norm(qp.f))
    u = np.zeros(qp.n)
    working = []
    for step in range(1, max_iter + 1):
        rows = sorted(working)
        u_star, lam_w = bordered_solve(qp.A, qp.B[rows], qp.f)
        p = u_star - u
        if np.linalg.norm(p, np.inf) <= 1e-12 * f_scale * (1.0 + np.linalg.norm(u, np.inf)):
            if not rows or lam_w.min() >= -1e-11 * f_scale:
                lam = np.zeros(qp.m)
                lam[rows] = lam_w
                return u_star, lam, frozenset(rows), step
            tied = [i for i, v in zip(rows, lam_w) if v == lam_w.min()]
            working.remove(min(tied) if ties == "lowest" else max(tied))
            continue
        bu, bp = qp.B @ u, qp.B @ p
        alpha, block = 1.0, None
        for i in range(qp.m):
            if i not in working and bp[i] < -1e-14 * f_scale:
                ratio = max(0.0, bu[i]) / (-bp[i])
                if ratio < alpha - 1e-15:
                    alpha, block = ratio, i
        u = u + alpha * p
        if block is not None:
            working.append(block)
    raise AssertionError(f"reference iteration did not settle in {max_iter} steps")
