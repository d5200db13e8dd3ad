"""Sensitivity of a cone-constrained quadratic program.

Builds a small inequality-constrained QP, solves its primal-dual saddle
point, then perturbs the data along a fixed direction and compares the
predicted first-order change of the optimal value with central
differences of the re-solved problems.
"""

import numpy as np

import shapederiv as sd
from shapederiv.slopes import fd_table

rng = np.random.default_rng(0)

n, m = 8, 3
q = rng.standard_normal((n, n))
qp = sd.ConeQP(
    A=q @ q.T / n + np.eye(n),
    B=rng.standard_normal((m, n)),
    f=rng.standard_normal(n),
    cone=sd.ConeKind.INEQUALITY,
)

sp = sd.solve_saddle_point(qp)
print(f"solved: objective {sd.objective_value(qp, sp.u):.6g}, "
      f"active constraints {sorted(sp.active_set)}, KKT residual {sp.kkt_residual:.2e}")
print(f"multiplier uniqueness constant (inf-sup): {sd.check_lbb(qp):.4f}")

a1 = rng.standard_normal((n, n)) * 0.3
direction = sd.PerturbationDirection(
    A1=(a1 + a1.T) / 2,
    B1=rng.standard_normal((m, n)) * 0.3,
    f1=rng.standard_normal(n),
)
l1 = sd.shape_derivative(qp, direction, sp)
print(f"\npredicted derivative of the optimal value: {l1:.10g}")

print("\n    s         (E(+s)-E(-s))/2s     |fd - L1|")
e0 = sd.objective_value(qp, sp.u)
table = fd_table(lambda s: sd.optimal_value(qp, direction, s), l1, e0, [1e-2, 3e-3, 1e-3])
for entry in table.entries:
    print(f"  {entry.s:7.1e}   {entry.fd:+.12e}   {entry.abs_err:.3e}")
print(f"\nlog-log slope of the disagreement: {table.slope:.3f} "
      "(central differences are second order)")
