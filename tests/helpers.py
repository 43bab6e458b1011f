"""Test-only helpers around the package's API: sampled grid functions,
handles over arbitrary matrices, orthonormal rows from `gram_cholesky`, the
model potential's level clusters, a two-pass Gram-Schmidt reference of the
ladder's Rayleigh-Ritz, a random-pair Hermiticity probe and a sampled check
of each shipped kind's derivative bounds."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from landaulab import (Grid, GridFunction, OperatorHandle, build_operator,
                       ladder_level_clusters, make_potential)
from landaulab.grid import gram_cholesky
from landaulab.verify import ladder_tiers
from landaulab.potentials import Potential, PotentialError, _fd_partial


def from_callable(fn, grid: Grid) -> GridFunction:
    X1, X2 = grid.mesh()
    return GridFunction(np.asarray(fn(X1, X2), dtype=complex).reshape(-1), grid)


def savetxt_reference(u: GridFunction, path: str) -> None:
    """The CSV that `save_grid_function` must reproduce byte for byte."""
    X1, X2 = u.grid.mesh()
    v = u.values
    np.savetxt(path, np.column_stack([X1.ravel(), X2.ravel(), v.real, v.imag]),
               delimiter=",", header="x1,x2,re_u,im_u", comments="")


def custom_operator(grid: Grid, matrix, is_hermitian: bool) -> OperatorHandle:
    return OperatorHandle(label="custom", grid=grid, matrix=matrix,
                          is_hermitian=is_hermitian)


def orthonormal_rows(vectors, weight):
    """The rows conj(L)^{-1} B of the stack B of `vectors`, for L =
    gram_cholesky(B): orthonormal in the weighted inner product, with the
    span of every leading run of vectors kept."""
    B = np.stack(vectors)
    return sla.solve_triangular(gram_cholesky(B, weight).conj(), B, lower=True)


def model_level_cluster(grid: Grid, level: int, m_count: int):
    """The model potential's Rayleigh-Ritz cluster of `level`, from the ladder
    tiers 0..level of m_count states each."""
    clusters = ladder_level_clusters(make_potential("model_quadratic"), grid, level,
                                     m_count=m_count)
    (c,) = [c for c in clusters if c.label == level]
    return c


def mgs_ritz_reference(potential, grid: Grid, max_level: int, m_count: int):
    """`ladder_level_clusters`' Rayleigh-Ritz by the route it replaced: the
    ladder tiers orthonormalized one vector at a time by modified Gram-Schmidt
    with one reorthogonalization pass, then `eigh` of H projected on them.
    Returns the Ritz values, the Ritz vectors as rows and their residuals."""
    w, n = grid.weight, grid.n_per_side
    H = build_operator("H", potential, grid)
    dstar = build_operator("D_star", potential, grid)
    Q = []
    for tier in ladder_tiers(potential, dstar, m_count, max_level):
        for u in tier:
            v = u.reshape(-1).copy()
            for _ in range(2):
                for q in Q:
                    v -= (np.vdot(q, v) * w) * q
            Q.append(v / np.sqrt(np.vdot(v, v).real * w))
    Q = np.stack(Q)
    HQ = np.stack([H.apply_array(q.reshape(n, n)).reshape(-1) for q in Q])
    M = (Q.conj() @ HQ.T) * w
    evals, Y = np.linalg.eigh(0.5 * (M + M.conj().T))
    vecs = Y.T @ Q
    resid = np.sqrt(np.sum(np.abs(Y.T @ HQ - evals[:, None] * vecs) ** 2, axis=1) * w)
    return evals, vecs, resid


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

# per kind, the bound C_alpha on |d^alpha phi| for each order |alpha| as a
# function of the amplitude eps. trig: every derivative of eps sin(x1)
# cos(x2) is a +-sin/cos product, so sup = eps at each order >= 3. bump:
# one-dimensional maximization of the Gaussian's derivatives (4 and 12 are
# the sups of |d^3| and |d^4| of exp(-|x|^2), rounded up).
DERIV_BOUNDS = {
    "model_quadratic": lambda: {2: 2.0, 3: 0.0, 4: 0.0},
    "quadratic_plus_trig": lambda eps: {2: 2.0 + eps, 3: eps, 4: eps},
    "quadratic_plus_gaussian_bump": lambda eps: {2: 2.0 + 2 * eps, 3: 4 * eps, 4: 12 * eps},
}


def check_derivative_bounds(potential: Potential, grid, max_order: int = 4,
                            step: float | None = None) -> list[DerivativeBoundReport]:
    """Sample |d^alpha phi| for 2 <= |alpha| <= max_order over the grid.

    The difference step defaults to the grid spacing. Passes when the observed
    sup is <= 1.05 * C_alpha + FD_PASS_FLOOR, for C_alpha the kind's
    `DERIV_BOUNDS` at the potential's params.
    """
    bounds = DERIV_BOUNDS[potential.kind](*potential.params)
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
        claimed = float(bounds[order])
        reports.append(DerivativeBoundReport(
            order=order,
            observed_sup=sup,
            claimed_bound=claimed,
            passed=bool(sup <= 1.05 * claimed + FD_PASS_FLOOR),
        ))
    return reports
