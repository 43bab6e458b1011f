import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from landaulab import (EigenCluster, Grid, GridFunction, extremal_l6,
                       extremal_linf, ladder_level_clusters, norm_triple,
                       null_state)
from landaulab import norms
from landaulab.norms import (MOMENT_PANEL, SUPPORT_CUT, AscentResult,
                             NormError, _basis_matrix, l6_log_hessian,
                             l6_moment_objective, l6_objective_and_gradient,
                             l6_support, tangent_hessian_max)
from helpers import model_level_cluster


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
    u = null_state(0, grid_medium)
    t = norm_triple(u)
    assert t.linf / t.l2 == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-3)


def test_holder_interpolation(rng):
    g = Grid(extent_L=2.0, n_per_side=17)
    for _ in range(25):
        u = GridFunction(rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size), g)
        t = norm_triple(u)
        assert t.l6 <= t.linf ** (2.0 / 3.0) * t.l2 ** (1.0 / 3.0) * (1 + 1e-12)


def test_extremal_linf_single_vector(grid_medium):
    u = null_state(0, grid_medium)
    c = _cluster_from_basis([u.values], grid_medium)
    ratio, point = extremal_linf(c)
    t = norm_triple(u)
    assert ratio == pytest.approx(t.linf / t.l2, rel=1e-12)
    assert abs(point[0]) < 1e-9 and abs(point[1]) < 1e-9


def test_extremal_linf_level0_anchor():
    g = Grid(extent_L=6.5, n_per_side=129)
    ratio, _ = extremal_linf(model_level_cluster(g, 0, 12))
    assert ratio == pytest.approx(math.sqrt(2.0 / math.pi), rel=0.02)


def test_extremal_linf_rotation_invariance(rng):
    g = Grid(extent_L=6.0, n_per_side=65)
    basis = [b.values for b in model_level_cluster(g, 0, 4).basis]
    c = _cluster_from_basis(basis, g)
    r1, _ = extremal_linf(c)
    U = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    mixed = [sum(U[j, i] * basis[j] for j in range(4)) for i in range(4)]
    r2, _ = extremal_linf(_cluster_from_basis(mixed, g))
    assert abs(r1 - r2) < 1e-10


def test_extremal_ratios_scale_invariant():
    g = Grid(extent_L=6.0, n_per_side=65)
    basis = [b.values for b in model_level_cluster(g, 0, 3).basis]
    a = _cluster_from_basis(basis, g)
    b = _cluster_from_basis([7.3 * v for v in basis], g)
    assert extremal_linf(a)[0] == pytest.approx(extremal_linf(b)[0], rel=1e-12)
    ra = extremal_l6(a, restarts=2, seed=1).ratio
    rb = extremal_l6(b, restarts=2, seed=1).ratio
    assert ra == pytest.approx(rb, rel=1e-10)


def test_extremal_l6_single_vector(grid_medium):
    u = null_state(0, grid_medium)
    c = _cluster_from_basis([u.values], grid_medium)
    for seed in (0, 7):
        res = extremal_l6(c, restarts=2, seed=seed)
        t = norm_triple(u)
        assert res.ratio == pytest.approx(t.l6 / t.l2, rel=1e-12)


def test_extremal_l6_rotation_invariance(rng):
    g = Grid(extent_L=6.0, n_per_side=65)
    basis = [b.values for b in model_level_cluster(g, 1, 2).basis]
    c1 = _cluster_from_basis(basis, g)
    U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    mixed = [sum(U[j, i] * basis[j] for j in range(2)) for i in range(2)]
    c2 = _cluster_from_basis(mixed, g)
    r1 = extremal_l6(c1, restarts=8, seed=3).ratio
    r2 = extremal_l6(c2, restarts=8, seed=4).ratio
    assert r1 == pytest.approx(r2, abs=1e-6)


def test_extremal_l6_dominates_samples(rng):
    g = Grid(extent_L=6.0, n_per_side=65)
    basis = [b.values for b in model_level_cluster(g, 0, 5).basis]
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
    basis = [b.values for b in model_level_cluster(g, 0, 4).basis]
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
    clusters = ladder_level_clusters(trig01, g, 1, m_count=4)
    c = clusters[1]
    res = extremal_l6(c, restarts=4, seed=0)
    assert res.converged
    assert np.linalg.norm(res.coeffs) == pytest.approx(1.0, abs=1e-14)
    V = np.stack([b.values for b in c.basis])  # orthonormal: unit rows
    J, grad = l6_objective_and_gradient(res.coeffs, V, g.weight)
    assert J == pytest.approx(res.ratio, rel=1e-14)
    tangent = grad - np.real(np.vdot(res.coeffs, grad)) * res.coeffs
    assert np.linalg.norm(tangent) <= 1e-6


def _level1_at_65(potential):
    g = Grid(extent_L=6.5, n_per_side=65)
    return ladder_level_clusters(potential, g, 1, m_count=4)[1]


@pytest.fixture(scope="module")
def trig_level1(trig01):
    return _level1_at_65(trig01)


def _uncut_reference_ascent(cluster, restarts, seed, tol=1e-8, max_iter=500):
    """The ascent on every node: the same starts, BFGS settings and
    tie-break as extremal_l6, with the objective on the full basis matrix."""
    from scipy.optimize import minimize

    V = _basis_matrix(cluster)
    w = cluster.basis[0].grid.weight
    k = V.shape[0]

    def f_and_grad(x):
        c = x[:k] + 1j * x[k:]
        J, G = l6_objective_and_gradient(c, V, w)
        return (-np.log(J) + 0.5 * np.log(x @ x),
                -np.concatenate([G.real, G.imag]) / J + x / (x @ x))

    starts = [np.eye(k, dtype=complex)[j] for j in range(k)]
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        starts.append(c / np.linalg.norm(c))
    best = None
    for c in starts:
        res = minimize(f_and_grad, np.concatenate([c.real, c.imag]), jac=True,
                       method="BFGS", options={"gtol": tol, "maxiter": max_iter})
        c = res.x[:k] + 1j * res.x[k:]
        c /= np.linalg.norm(c)
        cur = (l6_objective_and_gradient(c, V, w)[0], bool(res.success))
        if best is None or cur[0] > best[0] + 1e-15:
            best = cur
    return best


@pytest.fixture(scope="module")
def coarse_level1(trig01):
    # 9 states on 49^2 nodes: D^2 = 165^2 exceeds 9 * 2401, so the ascent
    # evaluates the objective on the basis matrix
    g = Grid(extent_L=6.5, n_per_side=49)
    clusters = ladder_level_clusters(trig01, g, 1, m_count=9)
    return clusters[1]


def test_cut_ascent_matches_uncut_reference(trig_level1, coarse_level1, model, bump01,
                                            monkeypatch):
    built = []
    moment = norms.l6_moment_objective
    monkeypatch.setattr(norms, "l6_moment_objective",
                        lambda V, w: built.append(V.shape) or moment(V, w))
    for cluster, uses_moments in ((trig_level1, True), (coarse_level1, False),
                                  (_level1_at_65(model), True),
                                  (_level1_at_65(bump01), True)):
        built.clear()
        res = extremal_l6(cluster, restarts=4, seed=0)
        k = cluster.dim
        assert (math.comb(k + 2, 3) ** 2 <= k * res.nodes_kept) == uses_moments
        assert built == ([(k, res.nodes_kept)] if uses_moments else [])
        ratio, converged = _uncut_reference_ascent(cluster, restarts=4, seed=0)
        assert res.converged and converged
        assert res.ratio == pytest.approx(ratio, rel=1e-12)
        assert 0 < res.nodes_kept < cluster.basis[0].grid.size


@pytest.mark.parametrize("k", [1, 2, 4, 9])
def test_moment_objective_matches_basis_matrix_objective(k, trig01, rng):
    # 65^2 nodes: two full moment panels and a partial one
    g = Grid(extent_L=6.5, n_per_side=65)
    clusters = ladder_level_clusters(trig01, g, 1, m_count=k)
    V = _basis_matrix(clusters[1])
    assert V.shape == (k, g.size)
    objective = l6_moment_objective(V, g.weight)
    for _ in range(10):
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        c /= np.linalg.norm(c)
        J, G = objective(c)
        J_ref, G_ref = l6_objective_and_gradient(c, V, g.weight)
        assert J == pytest.approx(J_ref, rel=1e-13)
        assert np.linalg.norm(G - G_ref) <= 1e-13 * np.linalg.norm(G_ref)
    # a stack of rows: each row's J and G, from either form
    C = rng.standard_normal((10, k)) + 1j * rng.standard_normal((10, k))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    rows = [l6_objective_and_gradient(c, V, g.weight) for c in C]
    J_rows, G_rows = np.array([J for J, _ in rows]), np.stack([G for _, G in rows])
    for J, G in (objective(C), l6_objective_and_gradient(C, V, g.weight)):
        assert J.shape == (10,) and G.shape == (10, k)
        assert np.all(np.abs(J - J_rows) <= 1e-13 * J_rows)
        assert np.all(np.linalg.norm(G - G_rows, axis=1)
                      <= 1e-13 * np.linalg.norm(G_rows, axis=1))


def test_moment_build_peak_memory_is_set_by_the_panel(grid_medium, rng):
    # the (D, N) cube of a 129^2 basis would take 44 MB; the build holds
    # about two (D, MOMENT_PANEL) panels at a time
    shape, D = (9, grid_medium.size), math.comb(11, 3)
    V = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tracemalloc.start()
    try:
        l6_moment_objective(V, grid_medium.weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * D * MOMENT_PANEL * 16


def test_l6_support_drops_only_nodes_below_the_cut(trig_level1):
    V = _basis_matrix(trig_level1)
    w = trig_level1.basis[0].grid.weight
    keep, bound = l6_support(V, w)
    K = np.sum(np.abs(V) ** 2, axis=0)
    assert np.all(keep[K > SUPPORT_CUT * K.max()])
    assert not np.any(keep[K <= SUPPORT_CUT * K.max()])
    assert 0.0 < bound == pytest.approx(w * np.sum(K[~keep] ** 3), rel=1e-14)
    assert bound <= 1e-40
    assert extremal_l6(trig_level1, restarts=1, seed=0).cut_bound == bound


def test_cut_objective_within_reported_bound(trig_level1, rng):
    V = _basis_matrix(trig_level1)
    w = trig_level1.basis[0].grid.weight
    keep, bound = l6_support(V, w)
    k = V.shape[0]
    for _ in range(20):
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        c /= np.linalg.norm(c)
        J_full, _ = l6_objective_and_gradient(c, V, w)
        J_kept, _ = l6_objective_and_gradient(c, V[:, keep], w)
        dropped = w * np.sum(np.abs(c @ V[:, ~keep]) ** 6)
        assert dropped <= bound
        # J^6 = kept + dropped sums; dropped is far below the rounding of J
        assert abs(J_full ** 6 - J_kept ** 6) <= bound + 1e-14 * J_full ** 6


def test_ratio_is_evaluated_on_every_node(trig_level1, monkeypatch):
    # a coarse cut that visibly changes J: the reported ratio still is J on
    # all nodes at the winning coefficients
    from landaulab import norms
    monkeypatch.setattr(norms, "SUPPORT_CUT", 0.3)
    res = extremal_l6(trig_level1, restarts=2, seed=0)
    V = _basis_matrix(trig_level1)
    w = trig_level1.basis[0].grid.weight
    keep, bound = l6_support(V, w)
    assert res.nodes_kept == keep.sum() and res.cut_bound == bound > 1e-3
    assert res.ratio == l6_objective_and_gradient(res.coeffs, V, w)[0]
    assert l6_objective_and_gradient(res.coeffs, V[:, keep], w)[0] < res.ratio


def test_l6_log_hessian_matches_finite_differences(rng):
    g = Grid(extent_L=6.0, n_per_side=65)
    basis = [b.values for b in model_level_cluster(g, 1, 3).basis]
    V = np.stack(basis)
    w = g.weight
    k = V.shape[0]

    def grad_log_J(x):
        J, G = l6_objective_and_gradient(x[:k] + 1j * x[k:], V, w)
        return np.concatenate([G.real, G.imag]) / J

    step = 1e-5
    for _ in range(5):
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        c /= np.linalg.norm(c)
        x = np.concatenate([c.real, c.imag])
        hess = l6_log_hessian(c, V, w)
        # log J(tc) = log t + log J(c): the radial derivative is 1
        assert x @ grad_log_J(x) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(hess, hess.T)
        fd = np.stack([(grad_log_J(x + step * e) - grad_log_J(x - step * e)) / (2 * step)
                       for e in np.eye(2 * k)], axis=1)
        assert np.max(np.abs(fd - hess)) <= 1e-6 * np.max(np.abs(hess))


def test_tangent_hessian_certifies_the_ascent_maximum(trig_level1, rng):
    res = extremal_l6(trig_level1, restarts=4, seed=0)
    # clearly below 0, not round-off: the flat phase direction is excluded
    assert res.hessian_max is not None and res.hessian_max < -1e-3
    V = _basis_matrix(trig_level1)
    w = trig_level1.basis[0].grid.weight
    keep, _ = l6_support(V, w)
    assert res.hessian_max == tangent_hessian_max(res.coeffs, V[:, keep], w)
    c = res.coeffs
    ix = np.concatenate([-c.imag, c.real])
    assert abs(ix @ l6_log_hessian(c, V, w) @ ix - 1.0) <= 1e-10
    # the phase direction is flat: the curve c e^{it} keeps J
    for t in (1e-3, 0.7):
        assert l6_objective_and_gradient(res.coeffs * np.exp(1j * t), V, w)[0] == \
            pytest.approx(res.ratio, rel=1e-13)
    # a second-order step along any tangent direction off c, ic lowers J
    k = V.shape[0]
    for _ in range(10):
        d = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        d -= np.vdot(res.coeffs, d) * res.coeffs
        d /= np.linalg.norm(d)
        c = res.coeffs + 1e-3 * d
        assert l6_objective_and_gradient(c / np.linalg.norm(c), V, w)[0] < res.ratio


def test_stalled_start_stops_before_the_step_cap(trig_level1, monkeypatch):
    # with a gradient tolerance of 0 no start converges: the winner ends when
    # its line search can no longer lower f, not at ASCENT_MAX_ITER
    default = extremal_l6(trig_level1, restarts=4, seed=0)
    monkeypatch.setattr(norms, "ASCENT_TOL", 0.0)
    res = extremal_l6(trig_level1, restarts=4, seed=0)
    assert not res.converged
    assert res.iterations < norms.ASCENT_MAX_ITER
    assert res.ratio == pytest.approx(default.ratio, rel=0, abs=1e-14)


def test_tangent_hessian_undefined_on_one_dimensional_space(grid_medium):
    u = null_state(0, grid_medium)
    c = _cluster_from_basis([u.values], grid_medium)
    res = extremal_l6(c, restarts=1, seed=0)
    assert isinstance(res, AscentResult) and res.hessian_max is None


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize would add ~0.3 s and ~15 MB to every command; the L^6
    # ascent runs its own batched BFGS, so neither the import nor an ascent
    # loads it
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + "/src"
    code = ("import sys\n"
            "from landaulab import (Grid, extremal_l6, ladder_level_clusters,\n"
            "                       make_potential)\n"
            "print('scipy.optimize' in sys.modules)\n"
            "g = Grid(extent_L=6.5, n_per_side=65)\n"
            "trig = make_potential('quadratic_plus_trig', [0.1])\n"
            "extremal_l6(ladder_level_clusters(trig, g, 1, m_count=4)[1], restarts=2)\n"
            "print('scipy.optimize' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == ["False", "False"]


def test_empty_cluster_rejected():
    g = Grid(extent_L=2.0, n_per_side=9)
    c = EigenCluster(label=0, eigenvalues=[], basis=[], residuals=[])
    with pytest.raises(NormError):
        extremal_linf(c)
    with pytest.raises(NormError):
        extremal_l6(c)
