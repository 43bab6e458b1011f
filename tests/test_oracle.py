import math

import numpy as np
import pytest

from landaulab import (Grid, GridFunction, analytic_null_norm, build_operator,
                       inner, l2_norm, null_state)
from landaulab.grid import mgs_orthonormalize
from landaulab.oracle import OracleError
from landaulab.verify import ladder_tiers
from helpers import model_level_cluster


def test_analytic_norms():
    # closed-form Gaussian integrals: int |z|^(2m) e^{-2|z|^2} = pi m! / 2^(m+1)
    assert analytic_null_norm(0) == pytest.approx(math.sqrt(math.pi / 2.0))
    assert analytic_null_norm(1) == pytest.approx(math.sqrt(math.pi / 4.0))


def test_null_state_discretely_unit(grid_medium):
    for m in (0, 1, 3):
        s = null_state(m, grid_medium)
        assert l2_norm(s) == pytest.approx(1.0, abs=1e-8)


def test_null_states_orthogonal(grid_medium):
    s0 = null_state(0, grid_medium)
    s1 = null_state(1, grid_medium)
    assert abs(inner(s0, s1)) < 1e-10


def test_resolution_guard():
    g = Grid(extent_L=6.0, n_per_side=65)
    with pytest.raises(OracleError):
        null_state(25, g)  # e^{-36} 6^25 is far above the guard


def test_null_state_H_residual_rate(model):
    res = {}
    for n in (129, 257, 513):
        g = Grid(extent_L=6.0, n_per_side=n)
        H = build_operator("H", model, g)
        worst = 0.0
        for m in (0, 4, 8):
            s = null_state(m, g)
            r = l2_norm(H.apply(s)) / l2_norm(s)
            worst = max(worst, r)
        res[n] = worst
    assert 3.6 <= res[129] / res[257] <= 4.4
    assert 3.6 <= res[257] / res[513] <= 4.4


def _ladder(model, grid, m_count, max_level):
    """The ladder tiers as lists of GridFunctions."""
    dstar = build_operator("D_star", model, grid)
    return [[GridFunction(u.reshape(-1), grid) for u in tier]
            for tier in ladder_tiers(model, dstar, m_count, max_level)]


def test_ladder_rayleigh_shift(model):
    g = Grid(extent_L=6.0, n_per_side=257)
    H = build_operator("H", model, g)
    tiers = _ladder(model, g, 1, 2)
    assert len(tiers) == 3 and all(len(t) == 1 for t in tiers)
    for (u,), target in ((tiers[1], 2.0), (tiers[2], 4.0)):
        ray = inner(u, H.apply(u)).real / l2_norm(u) ** 2
        assert ray == pytest.approx(target, rel=0.02)


def test_ladder_level1_orthogonal_to_level0(model, grid_medium):
    (u0,), (u1,) = _ladder(model, grid_medium, 1, 1)
    # <D* u, u> = <u, D u> with D u = 0 for null states
    assert abs(inner(u1, u0)) < 1e-6


def test_ladder_tiers_discretely_unit(model, grid_medium):
    for tier in _ladder(model, grid_medium, 3, 2):
        for u in tier:
            assert l2_norm(u) == pytest.approx(1.0, abs=1e-14)


def test_ladder_tier0_is_the_null_state(model, grid_medium):
    (tier0,) = _ladder(model, grid_medium, 4, 0)
    for m, u in enumerate(tier0):
        ref = null_state(m, grid_medium).values
        np.testing.assert_allclose(u.values, ref, atol=1e-12)


def _kernel_diagonal(basis, grid):
    """x -> sum_j |u_j(x)|^2 over flat orthonormal arrays, as an (n, n) array."""
    return np.sum(np.abs(np.stack(basis)) ** 2, axis=0).reshape(grid.n_per_side, -1)


def _cluster_diagonal(grid, level, m_count):
    basis = [b.values for b in model_level_cluster(grid, level, m_count).basis]
    return _kernel_diagonal(basis, grid)


def test_level_basis_sits_on_its_level(model, grid_medium):
    H = build_operator("H", model, grid_medium)
    for level in (0, 1, 2):
        for u in model_level_cluster(grid_medium, level, 4).basis:
            # the discrete levels dip below 2 * level by O(spacing^2 level^2)
            assert inner(u, H.apply(u)).real == pytest.approx(2.0 * level, abs=0.2)


@pytest.mark.parametrize("L, n, m", [(6.0, 65, 4), (6.5, 129, 12), (6.0, 129, 8)])
def test_level0_cluster_spans_the_null_states(L, n, m):
    # the ladder's level-0 cluster and the sampled closed-form null states
    # span one space: their kernel diagonals agree
    g = Grid(extent_L=L, n_per_side=n)
    nulls = mgs_orthonormalize([null_state(j, g).values for j in range(m)], g.weight)
    np.testing.assert_allclose(_cluster_diagonal(g, 0, m), _kernel_diagonal(nulls, g),
                               rtol=0, atol=1e-12)


def test_kernel_diagonal_single_state(grid_medium):
    kd = _cluster_diagonal(grid_medium, 0, 1)
    # |u_0(0)|^2 = 2/pi for the normalized Gaussian
    n = grid_medium.n_per_side
    origin = kd[n // 2, n // 2]
    assert origin == pytest.approx(2.0 / math.pi, rel=1e-3)
    assert np.all(kd >= 0.0)


def test_kernel_diagonal_plateau():
    g = Grid(extent_L=6.5, n_per_side=129)
    kd = _cluster_diagonal(g, 0, 12)
    X1, X2 = g.mesh()
    inside = np.sqrt(X1**2 + X2**2) <= 1.0
    plateau = kd[inside]
    target = 2.0 / math.pi
    n = g.n_per_side
    assert kd[n // 2, n // 2] == pytest.approx(target, rel=0.01)
    assert plateau.max() <= 1.05 * target and plateau.min() >= 0.95 * target
    # variation across the unit disk stays within 2%
    assert (plateau.max() - plateau.min()) / target <= 0.02


def test_kernel_diagonal_level1():
    g = Grid(extent_L=6.5, n_per_side=129)
    kd = _cluster_diagonal(g, 1, 8)
    assert np.all(kd >= -1e-15)
    n = g.n_per_side
    # level-1 diagonal also plateaus near 2/pi at the origin
    assert kd[n // 2, n // 2] == pytest.approx(2.0 / math.pi, rel=0.05)
