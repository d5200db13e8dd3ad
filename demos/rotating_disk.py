"""Rotating a fully clamped disk.

With no-slip conditions on the whole boundary the pressure is defined up
to a constant, and only area-preserving deformations keep the comparison
meaningful; a rigid rotation is the canonical example.  For a forcing
that is equivariant under rotations the energy cannot change and the
derivative vanishes; for a generic forcing the derivative is nonzero and
matches central differences at second order.
"""

import shapederiv as sd
from shapederiv.fields import RotationalForce, TrigForce

disk = sd.disk_mesh(4)
print(f"polygonal disk: {disk.num_vertices} vertices, {disk.num_triangles} triangles, "
      f"area {disk.triangle_areas().sum():.6f}")

symmetric = sd.fd_verify(disk, RotationalForce(c=1.0), sd.RotationField(1.0), [1e-2, 1e-3])
print(f"\nequivariant forcing f = (-x2, x1):")
print(f"  energy {symmetric.energy:+.6e}, L1 = {symmetric.L1:+.2e} "
      f"(zero by symmetry), quotients at machine zero: {symmetric.fd.exact}")

generic = sd.fd_verify(disk, TrigForce(), sd.RotationField(1.0), [1e-2, 3e-3, 1e-3])
print(f"\ngeneric trigonometric forcing:")
print(f"  L1 = {generic.L1:+.10e}")
for entry in generic.fd.entries:
    print(f"  s = {entry.s:7.1e}   fd = {entry.fd:+.10e}   |fd - L1| = {entry.abs_err:.3e}")
print(f"  slope {generic.fd.slope:.4f}")

# The rotation is exactly area preserving, element by element.
moved = sd.transport_mesh(disk, sd.RotationField(1.0), 0.2)
drift = abs(moved.triangle_areas() - disk.triangle_areas()).max()
print(f"\nmax per-triangle area drift after rotating by s = 0.2: {drift:.2e}")
