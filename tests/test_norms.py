import math
import os
import subprocess
import sys

import numpy as np
import pytest

from landaulab import (EigenCluster, Grid, GridFunction, extremal_l6,
                       extremal_linf, ladder_level_clusters, norm_triple,
                       null_state, orthonormal_level_basis)
from landaulab.norms import NormError, l6_objective_and_gradient


def _cluster_from_basis(basis, grid, lam=0.0):
    return EigenCluster(label=0, eigenvalues=[lam] * len(basis),
                        basis=[GridFunction(v, grid) for v in basis],
                        residuals=[0.0] * len(basis))


def test_norm_triple_constant_field():
    # w = spacing^2 at every node: on [-1,1]^2 with n=9 that sums to
    # 81 * (1/16), i.e. l2 = 9/4 (the uniform-weight convention)
    g = Grid(extent_L=1.0, n_per_side=9)
    u = GridFunction(np.ones(g.size), g)
    t = norm_triple(u)
    assert t.l2 == pytest.approx(9.0 / 4.0, rel=1e-14)
    assert t.linf == 1.0
    assert t.l6 == pytest.approx((81.0 / 16.0) ** (1.0 / 6.0), rel=1e-14)


def test_gaussian_linf_over_l2(grid_medium):
    u = null_state(0, grid_medium).values
    t = norm_triple(u)
    assert t.linf / t.l2 == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-3)


def test_holder_interpolation(rng):
    g = Grid(extent_L=2.0, n_per_side=17)
    for _ in range(25):
        u = GridFunction(rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size), g)
        t = norm_triple(u)
        assert t.l6 <= t.linf ** (2.0 / 3.0) * t.l2 ** (1.0 / 3.0) * (1 + 1e-12)


def test_extremal_linf_single_vector(grid_medium):
    u = null_state(0, grid_medium).values
    c = _cluster_from_basis([u.values], grid_medium)
    ratio, point = extremal_linf(c)
    t = norm_triple(u)
    assert ratio == pytest.approx(t.linf / t.l2, rel=1e-12)
    assert abs(point[0]) < 1e-9 and abs(point[1]) < 1e-9


def test_extremal_linf_level0_anchor():
    g = Grid(extent_L=6.5, n_per_side=129)
    basis, _ = orthonormal_level_basis(0, 12, g)
    c = _cluster_from_basis(basis, g)
    ratio, _ = extremal_linf(c)
    assert ratio == pytest.approx(math.sqrt(2.0 / math.pi), rel=0.02)


def test_extremal_linf_rotation_invariance(rng):
    g = Grid(extent_L=6.0, n_per_side=65)
    basis, _ = orthonormal_level_basis(0, 4, g)
    c = _cluster_from_basis(basis, g)
    r1, _ = extremal_linf(c)
    U = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    mixed = [sum(U[j, i] * basis[j] for j in range(4)) for i in range(4)]
    r2, _ = extremal_linf(_cluster_from_basis(mixed, g))
    assert abs(r1 - r2) < 1e-10


def test_extremal_ratios_scale_invariant():
    g = Grid(extent_L=6.0, n_per_side=65)
    basis, _ = orthonormal_level_basis(0, 3, g)
    a = _cluster_from_basis(basis, g)
    b = _cluster_from_basis([7.3 * v for v in basis], g)
    assert extremal_linf(a)[0] == pytest.approx(extremal_linf(b)[0], rel=1e-12)
    ra = extremal_l6(a, restarts=2, seed=1).ratio
    rb = extremal_l6(b, restarts=2, seed=1).ratio
    assert ra == pytest.approx(rb, rel=1e-10)


def test_extremal_l6_single_vector(grid_medium):
    u = null_state(0, grid_medium).values
    c = _cluster_from_basis([u.values], grid_medium)
    for seed in (0, 7):
        res = extremal_l6(c, restarts=2, seed=seed)
        t = norm_triple(u)
        assert res.ratio == pytest.approx(t.l6 / t.l2, rel=1e-12)


def test_extremal_l6_rotation_invariance(rng):
    g = Grid(extent_L=6.0, n_per_side=65)
    basis, _ = orthonormal_level_basis(1, 2, g)
    c1 = _cluster_from_basis(basis, g)
    U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    mixed = [sum(U[j, i] * basis[j] for j in range(2)) for i in range(2)]
    c2 = _cluster_from_basis(mixed, g)
    r1 = extremal_l6(c1, restarts=8, seed=3).ratio
    r2 = extremal_l6(c2, restarts=8, seed=4).ratio
    assert r1 == pytest.approx(r2, abs=1e-6)


def test_extremal_l6_dominates_samples(rng):
    g = Grid(extent_L=6.0, n_per_side=65)
    basis, _ = orthonormal_level_basis(0, 5, g)
    c = _cluster_from_basis(basis, g)
    best = extremal_l6(c, restarts=8, seed=0).ratio
    V = np.stack(basis)
    for v in basis:
        t = norm_triple(GridFunction(v, g))
        assert best >= t.l6 / t.l2 - 1e-12
    for _ in range(100):
        coeff = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        coeff /= np.linalg.norm(coeff)
        u = coeff @ V
        t = norm_triple(GridFunction(u, g))
        assert best >= t.l6 / t.l2 - 1e-7


def test_l6_gradient_matches_finite_differences(rng):
    g = Grid(extent_L=6.0, n_per_side=65)
    basis, _ = orthonormal_level_basis(0, 4, g)
    V = np.stack(basis)
    w = g.weight
    step = 1e-5
    for _ in range(20):
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c /= np.linalg.norm(c)
        J, grad = l6_objective_and_gradient(c, V, w)
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        d /= np.linalg.norm(d)
        Jp, _ = l6_objective_and_gradient(c + step * d, V, w)
        Jm, _ = l6_objective_and_gradient(c - step * d, V, w)
        fd = (Jp - Jm) / (2 * step)
        analytic = np.real(np.vdot(grad, d))
        assert fd == pytest.approx(analytic, rel=1e-4)


def test_extremal_l6_converges_on_trig_level(trig01):
    g = Grid(extent_L=6.5, n_per_side=65)
    clusters, _ = ladder_level_clusters(trig01, g, 1, m_count=4)
    c = clusters[1]
    res = extremal_l6(c, restarts=4, seed=0)
    assert res.converged
    assert np.linalg.norm(res.coeffs) == pytest.approx(1.0, abs=1e-14)
    V = np.stack([b.values for b in c.basis])  # orthonormal: unit rows
    J, grad = l6_objective_and_gradient(res.coeffs, V, g.weight)
    assert J == pytest.approx(res.ratio, rel=1e-14)
    tangent = grad - np.real(np.vdot(res.coeffs, grad)) * res.coeffs
    assert np.linalg.norm(tangent) <= 1e-6


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize adds ~0.3 s and ~15 MB to every command; only the L^6
    # ascent needs it, and it imports it itself
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + "/src"
    code = "import sys, landaulab; print('scipy.optimize' in sys.modules)"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


def test_empty_cluster_rejected():
    g = Grid(extent_L=2.0, n_per_side=9)
    c = EigenCluster(label=0, eigenvalues=[], basis=[], residuals=[])
    with pytest.raises(NormError):
        extremal_linf(c)
    with pytest.raises(NormError):
        extremal_l6(c)
