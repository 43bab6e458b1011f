"""The reproducing-kernel diagonal and the extremal L^inf/L^2 ratio.

For the model potential the lowest eigenspace is spanned by
conj(z)^m exp(-|z|^2); summing |u_m(x)|^2 over an orthonormalized basis gives
the kernel diagonal, which converges to the constant 2/pi as the basis grows.
Its square root is the largest possible sup-norm of a unit-L^2 eigenfunction
in that level: the sharp constant behind the eigenvalue-independent
L^inf bound, measured here rather than assumed.

The bases are the Rayleigh-Ritz level clusters of `ladder_level_clusters`,
the ones the `bounds` sweep measures. At basis sizes 1-12 the level-0 cluster
spans the sampled null states. The clusters of the level-0..2 ladder carry
the sweep's finite-difference error, so their ratios sit within a few percent
of sqrt(2/pi), not on it.
"""

import math

import numpy as np

from landaulab import Grid, extremal_linf, ladder_level_clusters, make_potential

model = make_potential("model_quadratic")
grid = Grid(extent_L=6.5, n_per_side=129)
target = 2.0 / math.pi
n = grid.n_per_side
X1, X2 = grid.mesh()


def kernel_diagonal(c):
    """x -> sum_j |u_j(x)|^2 over the cluster's orthonormal basis, as (n, n)."""
    return np.sum(np.abs(np.stack([b.values for b in c.basis])) ** 2, axis=0).reshape(n, n)


print("kernel diagonal at the origin vs basis size (level 0):")
for size in (1, 2, 4, 8, 12):
    (c,) = ladder_level_clusters(model, grid, 0, m_count=size)
    kd = kernel_diagonal(c)
    ring = kd[np.sqrt(X1**2 + X2**2) <= 1.0]
    print(f"  basis {size:2d}: value(0) = {kd[n // 2, n // 2]:.5f}   "
          f"plateau over |x|<=1 in [{ring.min():.5f}, {ring.max():.5f}]"
          f"   (2/pi = {target:.5f})")

print("\nextremal L^inf/L^2 ratios of the sweep's level clusters (9 states each):")
for c in ladder_level_clusters(model, grid, 2, m_count=9):
    ratio, point = extremal_linf(c)
    print(f"  level {c.label}: ratio = {ratio:.5f} at x = ({point[0]:+.2f}, {point[1]:+.2f})"
          f"   kernel diagonal at 0 = {kernel_diagonal(c)[n // 2, n // 2]:.5f}"
          f"   [sqrt(2/pi) = {math.sqrt(target):.5f}]")
print("\nthe ratio is flat across levels: the measured content of the")
print("eigenvalue-independent sup-norm bound")
