"""Closed-form eigenstructure of the model operator (phi = |z|^2).

The null space is spanned by conj(z)^m exp(-|z|^2) with analytic L^2 norm
sqrt(pi m! / 2^(m+1)); higher levels follow by repeated application of the
creation factor D*, which shifts the eigenvalue by exactly 2. These sampled
states are the ground truth the numerical pipeline is validated against.
`ladder_tiers` builds the tiers conj(z)^m e^{-phi}, D* of those, ... for any
potential; the Rayleigh-Ritz level bases of `verify` start from it too.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, GridFunction, mgs_orthonormalize
from .norms import _kernel_diagonal
from .operators import build_operator
from .potentials import make_potential

RESOLUTION_GUARD = 1e-8
MAX_CONDITION = 1e3     # largest Gram condition orthonormal_level_basis accepts


class OracleError(ValueError):
    pass


def analytic_null_norm(m: int) -> float:
    """L^2 norm of conj(z)^m exp(-|z|^2) over the plane."""
    return math.sqrt(math.pi * math.factorial(m) / 2.0 ** (m + 1))


def check_resolution(m: int, grid: Grid) -> None:
    """Reject states whose boundary amplitude exceeds the guard."""
    L = grid.extent_L
    boundary = math.exp(-L * L + m * math.log(max(L, 1.0)))
    if boundary > RESOLUTION_GUARD:
        raise OracleError(
            f"state m={m} unresolved on extent {L}: boundary amplitude {boundary:.2e}")


def null_state(m: int, grid: Grid) -> GridFunction:
    """Sampled, analytically normalized null-space state conj(z)^m e^{-|z|^2}."""
    if m < 0:
        raise OracleError(f"angular index must be >= 0, got {m}")
    check_resolution(m, grid)
    X1, X2 = grid.mesh()
    zbar = X1 - 1j * X2
    vals = zbar**m * np.exp(-(X1**2 + X2**2)) / analytic_null_norm(m)
    return GridFunction(vals.reshape(-1), grid)


_model = make_potential("model_quadratic")


def ladder_tiers(potential, dstar, m_count: int, max_level: int):
    """Yield the ladder tiers 0..max_level of `potential` on dstar's grid, each
    a list of m_count (n, n) arrays: tier 0 is conj(z)^m e^{-phi}, m < m_count,
    and each next tier is dstar applied to the last. Every vector is
    normalized discretely. dstar is the D_star handle over potential."""
    grid = dstar.grid
    X1, X2 = grid.mesh()
    zbar = X1 - 1j * X2
    env = np.exp(-potential.value(X1, X2)).astype(complex)
    w = grid.weight
    tier = [zbar**m * env for m in range(m_count)]
    for level in range(max_level + 1):
        if level:
            tier = [dstar.apply_array(u) for u in tier]
        tier = [u / np.sqrt(np.vdot(u, u).real * w) for u in tier]
        yield tier


def orthonormal_level_basis(level: int, basis_size: int, grid: Grid):
    """Discrete-orthonormal basis for the (truncated) level eigenspace of the
    model operator: the level's ladder tier of states m = 0..basis_size-1.

    Returns (list of flat arrays, gram condition number before MGS).
    """
    if level < 0:
        raise OracleError(f"level must be >= 0, got {level}")
    check_resolution(basis_size - 1 + level, grid)
    *_, tier = ladder_tiers(_model, build_operator("D_star", _model, grid),
                            basis_size, level)
    raw = [u.reshape(-1) for u in tier]
    w = grid.weight
    gram = np.array([[np.vdot(a, b) * w for b in raw] for a in raw])
    cond = float(np.linalg.cond(gram))
    if cond > MAX_CONDITION:
        raise OracleError(
            f"ladder basis ill-conditioned (cond {cond:.1e} > {MAX_CONDITION:.0e}); "
            "lower basis_size or refine the grid")
    return mgs_orthonormalize(raw, w), cond


def kernel_diagonal(level: int, basis_size: int, grid: Grid) -> GridFunction:
    """x -> sum_j |u_j(x)|^2 over an orthonormalized level basis.

    For level 0 the infinite-basis continuum value is the constant 2/pi; a
    finite basis plateaus at 2/pi near the origin and decays at radii where
    the basis is truncated.
    """
    basis, _ = orthonormal_level_basis(level, basis_size, grid)
    return GridFunction(_kernel_diagonal(np.stack(basis)).astype(complex), grid)
