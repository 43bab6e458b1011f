"""Closed-form null states of the model operator (phi = |z|^2).

The null space is spanned by conj(z)^m exp(-|z|^2) with analytic L^2 norm
sqrt(pi m! / 2^(m+1)). These sampled states are the ground truth that
`oracle-compare` measures the eigensolver's span against. The level bases
above the null space come from `verify.ladder_level_clusters` alone.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, GridFunction

RESOLUTION_GUARD = 1e-8


class OracleError(ValueError):
    pass


def analytic_null_norm(m: int) -> float:
    """L^2 norm of conj(z)^m exp(-|z|^2) over the plane."""
    return math.sqrt(math.pi * math.factorial(m) / 2.0 ** (m + 1))


def null_state(m: int, grid: Grid) -> GridFunction:
    """Sampled, analytically normalized null-space state conj(z)^m e^{-|z|^2}.

    States whose boundary amplitude exceeds RESOLUTION_GUARD are rejected."""
    if m < 0:
        raise OracleError(f"angular index must be >= 0, got {m}")
    L = grid.extent_L
    boundary = math.exp(-L * L + m * math.log(max(L, 1.0)))
    if boundary > RESOLUTION_GUARD:
        raise OracleError(
            f"state m={m} unresolved on extent {L}: boundary amplitude {boundary:.2e}")
    X1, X2 = grid.mesh()
    zbar = X1 - 1j * X2
    vals = zbar**m * np.exp(-(X1**2 + X2**2)) / analytic_null_norm(m)
    return GridFunction(vals.reshape(-1), grid)
