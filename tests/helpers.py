"""Test-only helpers around the package's API: sampled grid functions,
handles over arbitrary matrices, the model potential's level clusters, a
random-pair Hermiticity probe and a sampled check of each potential's stored
derivative bounds."""

from dataclasses import dataclass

import numpy as np

from landaulab import (Grid, GridFunction, OperatorHandle, ladder_level_clusters,
                       make_potential)
from landaulab.potentials import Potential, PotentialError, _fd_partial


def from_callable(fn, grid: Grid) -> GridFunction:
    X1, X2 = grid.mesh()
    return GridFunction(np.asarray(fn(X1, X2), dtype=complex).reshape(-1), grid)


def custom_operator(grid: Grid, matrix, is_hermitian: bool) -> OperatorHandle:
    return OperatorHandle(label="custom", grid=grid, matrix=matrix,
                          is_hermitian=is_hermitian)


def model_level_cluster(grid: Grid, level: int, m_count: int):
    """The model potential's Rayleigh-Ritz cluster of `level`, from the ladder
    tiers 0..level of m_count states each."""
    clusters = ladder_level_clusters(make_potential("model_quadratic"), grid, level,
                                     m_count=m_count)
    (c,) = [c for c in clusters if c.label == level]
    return c


def hermiticity_defect(op: OperatorHandle, trials: int = 50, seed: int = 0) -> float:
    """max over random pairs of |<f, Op g> - <Op f, g>| / (|f| |g|)."""
    rng = np.random.default_rng(seed)
    n = op.grid.n_per_side
    w = op.grid.weight
    worst = 0.0
    for _ in range(trials):
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = np.vdot(f, op.apply_array(g)) * w
        rhs = np.vdot(op.apply_array(f), g) * w
        scale = np.sqrt(np.vdot(f, f).real * np.vdot(g, g).real) * w
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@dataclass
class DerivativeBoundReport:
    order: int
    observed_sup: float
    claimed_bound: float
    passed: bool


# absolute floor for pass checks: covers FD round-off when the true bound is 0
FD_PASS_FLOOR = 1e-6


def check_derivative_bounds(potential: Potential, grid, max_order: int = 4,
                            step: float | None = None) -> list[DerivativeBoundReport]:
    """Sample |d^alpha phi| for 2 <= |alpha| <= max_order over the grid.

    The difference step defaults to the grid spacing. Passes when the observed
    sup is <= 1.05 * C_alpha + FD_PASS_FLOOR.
    """
    if not 2 <= max_order <= 4:
        raise PotentialError(f"max_order must be in [2, 4], got {max_order}")
    if grid.n_per_side < max_order + 1:
        raise PotentialError("grid too coarse for requested difference order")
    if step is None:
        step = grid.spacing
    X1, X2 = grid.mesh()
    # subsample interior nodes; FD stencils use analytic evaluation off-grid
    stride = max(1, grid.n_per_side // 48)
    X1 = X1[::stride, ::stride]
    X2 = X2[::stride, ::stride]
    reports = []
    for order in range(2, max_order + 1):
        sup = 0.0
        for i in range(order + 1):
            j = order - i
            vals = _fd_partial(potential.value, X1, X2, i, j, step)
            sup = max(sup, float(np.abs(vals).max()))
        claimed = float(potential.deriv_bound_orders.get(order, np.inf))
        reports.append(DerivativeBoundReport(
            order=order,
            observed_sup=sup,
            claimed_bound=claimed,
            passed=bool(sup <= 1.05 * claimed + FD_PASS_FLOOR),
        ))
    return reports
