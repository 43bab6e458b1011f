"""Certified eigensolves for the model magnetic Laplacian.

The model operator H = (D1/2 - x2)^2 + (D2/2 + x1)^2 - 1 has Landau levels
0, 2, 4, ... in the continuum, each infinitely degenerate (about 2/pi states
per unit area). On a truncated box two things happen at desk scale:

  * the level-0 manifold shows up as a dense band of near-zero eigenvalues
    whose width shrinks like spacing^2, and
  * below it sit under-resolved states localized near the box corners, where
    the coefficient momentum |grad phi|/2 exceeds what the grid can carry.

This demo certifies both kinds of eigenpairs (residuals are recomputed
through the operator's CSR matrix) and shows how the interior band recovers the Landau structure.
"""

import numpy as np

from landaulab import (Grid, build_operator, eigenpairs_near, inner, l2_norm,
                       lowest_eigenpairs, make_potential, null_state)
from landaulab.eigensolve import resolution_warning

model = make_potential("model_quadratic")
grid = Grid(extent_L=5.2, n_per_side=129)
H = build_operator("H", model, grid)

warn = resolution_warning(model, grid)
print(f"grid: [-{grid.extent_L}, {grid.extent_L}]^2, {grid.n_per_side} nodes/side")
print(f"resolution diagnostic: {warn or 'corner momenta resolved'}")

print("\n-- lowest certified eigenpairs (note the sub-band corner states) --")
pairs = lowest_eigenpairs(H, k=8, tol=1e-6, seed=0)
for lam, vec, resid in pairs:
    X1, X2 = grid.mesh()
    w = np.abs(vec.as_2d()) ** 2
    w /= w.sum()
    r_mean = float((np.sqrt(X1**2 + X2**2) * w).sum())
    print(f"  lambda^2 = {lam:+.5f}   residual = {resid:.1e}   <r> = {r_mean:.2f}")

print("\n-- interior band at the lowest Landau level --")
u0 = null_state(0, grid)
sigma = inner(u0, H.apply(u0)).real / l2_norm(u0) ** 2
band = eigenpairs_near(H, k=12, sigma=sigma, tol=1e-6, seed=0)
vals = [p[0] for p in band]
print(f"  12 eigenvalues nearest the ground state's Rayleigh quotient {sigma:+.5f}:")
print("  " + np.array2string(np.array(vals), precision=5, max_line_width=90))
print("  (a spacing^2-wide shadow of the infinitely degenerate level 0)")
