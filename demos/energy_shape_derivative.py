"""Derivative of the flow energy under domain deformation.

Deforms the unit square (free right edge) along an affine velocity field,
contracts the nodal shape gradient with the field at the vertices, and
verifies the predicted energy derivative against central differences of
full re-solves on transported meshes.
"""

import shapederiv as sd
from shapederiv.fields import TrigForce

mesh = sd.unit_square_mesh(16, {"right"})
field = sd.AffineField(M=((0.3, 0.1), (-0.2, 0.15)), b=(0.05, -0.04))

report = sd.fd_verify(mesh, TrigForce(), field, [1e-2, 3e-3, 1e-3])

print(f"base energy            E  = {report.energy:+.10e}")
print(f"energy derivative      L1 = {report.L1:+.10e}")
print(f"  stiffness/load part  E1 = {report.E1:+.10e}")
print(f"  multiplier part         = {report.dual_term:+.10e}")

print("\n    s        central difference      |fd - L1|")
for entry in report.fd.entries:
    print(f"  {entry.s:7.1e}   {entry.fd:+.12e}   {entry.abs_err:.3e}")
print(f"\ncentral slope {report.fd.slope:.4f} (second order), "
      f"one-sided slope {report.fd.one_sided_slope:.4f} (first order)")

# Freezing the free edge with a cutoff window and forcing with a pressure
# gradient keeps the velocity at zero on every deformed domain: both the
# derivative and every difference quotient vanish identically.
from shapederiv.fields import ConstantForce
from shapederiv.flow import CutoffWindow

frozen = sd.AffineField(
    M=((0.2, 0.1), (0.0, -0.1)), b=(0.3, 0.1),
    window=CutoffWindow(lo=(0.05, -1.0), hi=(0.8, 2.0)),
)
trivial = sd.fd_verify(sd.unit_square_mesh(8, {"right"}),
                       ConstantForce(value=(1.0, 0.0)), frozen, [1e-2, 1e-3])
print(f"\npressure-gradient forcing with a frozen free edge: "
      f"L1 = {trivial.L1:.1e}, all quotients at machine zero: {trivial.fd.exact}")
