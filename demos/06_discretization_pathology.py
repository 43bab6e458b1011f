"""Why the coefficient averaging matters: an alias-sector autopsy.

A centered difference D1 flips sign under the per-axis Nyquist modulation
u -> (-1)^{j1} u, while a pointwise coefficient multiplication does not. For
the magnetic factor A = D1/2 - (d2 phi)/2 that sign mismatch maps the
operator, on modulated envelopes, onto the companion (D1/2 + d2 phi/2) whose
commutator with the B factor VANISHES. No commutator means no zero-point
energy, and the companion's spectrum fills [-1, infinity) continuously: the
discrete operator acquires a dense cloud of spurious eigenvalues far below
the physical Landau band, at every grid resolution.

Applying the coefficient through the symmetrized neighbor average along the
differentiation axis makes the modulation flip BOTH terms, so the alias
sectors see the same magnetic structure and the cloud disappears. The
package builds only the averaged scheme; this demo assembles the pointwise
one itself and solves both side by side.
"""

import numpy as np
import scipy.sparse as sp

from landaulab import (Grid, OperatorHandle, build_operator, lowest_eigenpairs,
                       make_potential)

model = make_potential("model_quadratic")
grid = Grid(extent_L=6.0, n_per_side=129)


def pointwise_H(potential, grid):
    """The textbook stencil: A = (D1 - d2 phi)/2 and B = (D2 + d1 phi)/2 with
    pointwise coefficients, H = A^2 + B^2 - lap(phi)/4, as a handle."""
    n = grid.n_per_side
    X1, X2 = grid.mesh()
    g1, g2 = potential.grad(X1, X2)
    # -i d/dx by the centered difference, zeros outside the grid
    D = sp.diags([1j, -1j], [-1, 1], shape=(n, n)) / (2.0 * grid.spacing)
    eye = sp.identity(n)
    A = 0.5 * (sp.kron(D, eye) - sp.diags(g2.ravel()))
    B = 0.5 * (sp.kron(eye, D) + sp.diags(g1.ravel()))
    H = (A @ A + B @ B - sp.diags(potential.laplacian(X1, X2).ravel() / 4.0)).tocsr()
    return OperatorHandle(label="H", grid=grid, matrix=H, is_hermitian=True)


for H, name in ((pointwise_H(model, grid), "pointwise coefficients (textbook stencil)"),
                (build_operator("H", model, grid), "averaged coefficients (shipped scheme)")):
    pairs = lowest_eigenpairs(H, k=8, tol=1e-6, seed=0)
    vals = np.array([p[0] for p in pairs])
    print(f"\n{name}:")
    print("  lowest eigenvalues:",
          np.array2string(vals, precision=4, max_line_width=80))
    # half-Nyquist content of the bottom state
    u = pairs[0][1].as_2d()
    av = np.zeros_like(u)
    av[:-1, :] += u[1:, :]
    av[1:, :] += u[:-1, :]
    frac = 1.0 - float(np.real(np.vdot(u, 0.5 * av)) / np.vdot(u, u).real)
    print(f"  axis-1 Nyquist fraction of the bottom state: {frac:.2f} "
          "(0 = smooth, 1 = half-Nyquist carrier, 2 = checkerboard)")

print("""
With pointwise coefficients the bottom of the spectrum is a spurious
commutator-free cloud near -1; the shipped averaged scheme leaves only the
genuine desk-scale artifacts (under-resolved box-corner states at ~ -0.5 on
this particular grid, which vanish as the resolution grows).""")
