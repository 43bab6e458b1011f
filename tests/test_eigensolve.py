import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from landaulab import eigensolve
from landaulab import (Grid, assemble_sparse, build_operator, cluster,
                       eigenpairs_near, lowest_eigenpairs, principal_angles)
from landaulab.eigensolve import (BlockLimitError, SolverError, arnoldi_ncv, gap_groups,
                                  resolution_warning, sublattice_blocks)
from landaulab.grid import GridFunction, SublatticeFunction
from landaulab.potentials import Potential
from helpers import custom_operator, orthonormal_rows


def _diag_op(grid):
    d = np.arange(1.0, grid.size + 1.0)
    return custom_operator(grid, sp.diags(d).tocsr(), True)


def test_diagonal_operator_exact():
    g = Grid(extent_L=1.0, n_per_side=9)
    pairs = lowest_eigenpairs(_diag_op(g), k=3, tol=1e-8, seed=0)
    vals = [p[0] for p in pairs]
    assert vals == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)
    for i, (_, vec, resid) in enumerate(pairs):
        dense = np.abs(vec.values)
        assert dense.argmax() == i
        assert resid <= 1e-8 * max(1.0, vals[i])


def test_seed_determinism_and_subspace_agreement():
    g = Grid(extent_L=1.0, n_per_side=9)
    op = _diag_op(g)
    a = lowest_eigenpairs(op, k=4, tol=1e-8, seed=1)
    b = lowest_eigenpairs(op, k=4, tol=1e-8, seed=1)
    np.testing.assert_array_equal([p[0] for p in a], [p[0] for p in b])
    np.testing.assert_array_equal(a[0][1].values, b[0][1].values)
    c = lowest_eigenpairs(op, k=4, tol=1e-8, seed=2)
    assert [p[0] for p in a] == pytest.approx([p[0] for p in c], abs=1e-8)
    ang = principal_angles([p[1] for p in a], [p[1] for p in c])
    assert np.max(ang) <= 1e-4


def test_model_seed_independence(model):
    # k = 4 cuts at a clean spectral gap; a cut inside an exactly degenerate
    # multiplet would make the returned subspace seed-arbitrary
    g = Grid(extent_L=5.0, n_per_side=65)
    H = build_operator("H", model, g)
    a = lowest_eigenpairs(H, k=4, tol=1e-6, seed=0)
    b = lowest_eigenpairs(H, k=4, tol=1e-6, seed=123)
    assert [p[0] for p in a] == pytest.approx([p[0] for p in b], abs=1e-6)
    ang = principal_angles([p[1] for p in a], [p[1] for p in b])
    assert np.max(ang) <= 1e-4


def test_non_hermitian_rejected(model):
    g = Grid(extent_L=5.0, n_per_side=33)
    D = build_operator("D", model, g)
    with pytest.raises(SolverError):
        lowest_eigenpairs(D, k=2)


def test_guards(model, monkeypatch):
    g = Grid(extent_L=5.0, n_per_side=33)
    H = build_operator("H", model, g)
    with pytest.raises(SolverError):
        lowest_eigenpairs(H, k=201)
    with pytest.raises(SolverError):
        lowest_eigenpairs(H, k=2, tol=1e-9)

    # a non-finite tol would pass every residual (r > nan is false), and a
    # non-finite sigma would reach the factor: each is refused by name first
    def no_factor(*args, **kwargs):
        raise AssertionError("a factor was taken")

    monkeypatch.setattr(spla, "splu", no_factor)
    for bad in (np.nan, np.inf):
        with pytest.raises(SolverError, match="^tol must be finite"):
            lowest_eigenpairs(H, k=2, tol=bad)
        with pytest.raises(SolverError, match="^tol must be finite"):
            eigenpairs_near(H, k=2, sigma=0.0, tol=bad)
        for sigma in (bad, -bad):
            with pytest.raises(SolverError, match="^sigma must be finite"):
                eigenpairs_near(H, k=2, sigma=sigma)


def test_k_too_large_for_the_grid_raises_solver_error(model):
    # the CLI rejects this k as a usage error first; library callers get SolverError
    H = build_operator("H", model, Grid(extent_L=6.0, n_per_side=9))
    for solve in (lowest_eigenpairs, lambda op, k: eigenpairs_near(op, k, sigma=0.0)):
        with pytest.raises(SolverError, match="k too large for the grid"):
            solve(H, k=80)


def test_variational_sanity(model):
    from landaulab import inner, l2_norm, null_state
    g = Grid(extent_L=6.0, n_per_side=65)
    H = build_operator("H", model, g)
    pairs = lowest_eigenpairs(H, k=1, tol=1e-6, seed=0)
    u0 = null_state(0, g)
    rayleigh = inner(u0, H.apply(u0)).real / l2_norm(u0) ** 2
    assert pairs[0][0] <= rayleigh + 1e-6


def test_cluster_two_groups():
    # cluster groups orthonormal vectors and keeps the very objects it is given
    g = Grid(extent_L=1.0, n_per_side=9)
    rng = np.random.default_rng(0)
    rows = orthonormal_rows([rng.standard_normal(g.size) + 0j for _ in range(4)], g.weight)
    vecs = [GridFunction(r, g) for r in rows]
    pairs = [(0.001, vecs[0], 0.0), (0.002, vecs[1], 0.0),
             (1.999, vecs[2], 0.0), (2.003, vecs[3], 0.0)]
    cs = cluster(pairs, cluster_tol=0.1)
    assert [c.dim for c in cs] == [2, 2]
    assert cs[0].mean == pytest.approx(0.0015)
    assert cs[1].mean == pytest.approx(2.001)
    assert all(b is v for b, v in zip([b for c in cs for b in c.basis], vecs))


def test_cluster_single_group():
    g = Grid(extent_L=1.0, n_per_side=9)
    v, w = (GridFunction(r, g) for r in orthonormal_rows(
        [np.ones(g.size) + 0j, np.arange(g.size) + 0j], g.weight))
    cs = cluster([(0.0, v, 0.0), (0.05, w, 0.0)], cluster_tol=0.1)
    assert len(cs) == 1 and cs[0].dim == 2
    assert cs[0].basis[0] is v and cs[0].basis[1] is w


def test_cluster_keeps_the_sublattice_eigenvectors_of_a_lowest_solve(model):
    # Lanczos returns orthonormal vectors, so cluster takes them as they are
    g = Grid(extent_L=5.0, n_per_side=33)
    pairs = lowest_eigenpairs(build_operator("H", model, g), k=6, tol=1e-8, seed=0)
    cs = cluster(pairs, cluster_tol=0.25)
    basis = [b for c in cs for b in c.basis]
    assert all(b is p[1] for b, p in zip(basis, pairs)) and len(basis) == len(pairs)
    assert all(isinstance(b, SublatticeFunction) for b in basis)
    V = np.stack([b.values for b in basis])
    gram = (V.conj() @ V.T) * g.weight
    assert np.max(np.abs(gram - np.eye(len(basis)))) <= 1e-12


def test_gap_groups_takes_one_scalar_gap():
    groups = gap_groups([0.0, 0.1, 1.0, 1.05], 0.2)
    assert [g.tolist() for g in groups] == [[0, 1], [2, 3]]
    with pytest.raises(TypeError):
        gap_groups([0.0, 0.1, 1.0], [0.2, 0.2, 0.2])


def test_cluster_empty_rejected():
    with pytest.raises(SolverError):
        cluster([], cluster_tol=0.1)


def test_cluster_rejects_pairs_that_are_not_triples():
    # a pair must carry its residual, and its vector as a GridFunction
    g = Grid(extent_L=1.0, n_per_side=9)
    v = GridFunction(np.ones(g.size) + 0j, g)
    for pairs in ([(0.0, v)], [(0.0, v, 0.0), (0.05, v)], [(0.0, v.values, 0.0)],
                  [(0.0, v, 0.0, 0.0)]):
        with pytest.raises(SolverError, match="triple"):
            cluster(pairs, cluster_tol=0.1)


def test_resolution_warning_triggers(model):
    assert resolution_warning(model, Grid(extent_L=6.0, n_per_side=129)) is not None
    assert resolution_warning(model, Grid(extent_L=5.0, n_per_side=513)) is None


def test_eigenpairs_near_targets_band(model):
    # shift-target solve picks up the interior band around sigma
    g = Grid(extent_L=5.0, n_per_side=65)
    H = build_operator("H", model, g)
    pairs = eigenpairs_near(H, k=6, sigma=0.0, tol=1e-6, seed=0)
    low = lowest_eigenpairs(H, k=6, tol=1e-6, seed=0)
    # nearest-zero values are closer to 0 than the most negative ones
    assert max(abs(p[0]) for p in pairs) <= max(abs(p[0]) for p in low) + 1e-12


def test_degenerate_eigenvectors_orthonormal(model):
    # the model H on this square grid has two exactly double eigenvalues
    # among its lowest 8 (square symmetry); their vectors come back
    # orthonormal from Lanczos on the real form, with no Gram-Schmidt pass
    g = Grid(extent_L=4.0, n_per_side=33)
    for seed in (0, 2):
        pairs = lowest_eigenpairs(build_operator("H", model, g), k=8, seed=seed)
        vals = np.array([p[0] for p in pairs])
        assert np.sum(np.diff(vals) <= 1e-12) >= 2
        V = np.stack([p[1].values for p in pairs], axis=1)
        gram = (V.conj().T @ V) * g.weight
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-8
        assert max(p[2] for p in pairs) <= 1e-6


def test_matches_default_shift_invert(model):
    # the owned LU (minimum-degree ordering) and the k-sized Krylov basis
    # give the eigenvalues of scipy's own shift-invert path
    g = Grid(extent_L=4.0, n_per_side=33)
    H = build_operator("H", model, g)
    mat = assemble_sparse(H)
    v0 = np.random.RandomState(0).standard_normal(g.size)
    for sigma in (-1.0, 0.0):
        info = {}
        if sigma == -1.0:
            pairs = lowest_eigenpairs(H, k=8, seed=0, info=info)
        else:
            pairs = eigenpairs_near(H, k=8, sigma=sigma, seed=0, info=info)
        ref = np.sort(spla.eigsh(mat, k=8, sigma=sigma, v0=v0, return_eigenvectors=False))
        np.testing.assert_allclose([p[0] for p in pairs], ref, rtol=0, atol=1e-10)
        assert info["ncv"] == 20
        assert info["op_solves"] >= info["ncv"] - 1
        assert info["lu_fill_nnz"] > mat.nnz


def _sublattice(g):
    """Parity class 2 (i mod 2) + (j mod 2) of every node, flat."""
    i, j = np.divmod(np.arange(g.size), g.n_per_side)
    return 2 * (i % 2) + j % 2


def _near_vs_eigsh(H, k, sigma):
    mat = assemble_sparse(H)
    info = {}
    pairs = eigenpairs_near(H, k=k, sigma=sigma, seed=0, info=info)
    v0 = np.random.RandomState(0).standard_normal(mat.shape[0])
    ref = np.sort(spla.eigsh(mat, k=k, sigma=sigma, v0=v0, return_eigenvectors=False))
    np.testing.assert_allclose([p[0] for p in pairs], ref, rtol=0, atol=1e-10)
    return pairs, info


@pytest.mark.parametrize("potential, sizes, parities", [
    pytest.param("model", [145, 144, 136, 136, 136, 136, 128, 128], [1, -1] * 4, id="model"),
    pytest.param("trig01", [289, 272, 272, 256], [None] * 4, id="trig01")])
def test_split_solve_matches_eigsh(potential, sizes, parities, request):
    # sigma = 0.02 lies inside the level-0 band on this grid; the model's
    # radial phi splits each sublattice block into its inversion sectors,
    # trig's does not
    g = Grid(extent_L=4.0, n_per_side=33)
    H = build_operator("H", request.getfixturevalue(potential), g)
    pairs, info = _near_vs_eigsh(H, k=12, sigma=0.02)
    blocks = info["blocks"]
    assert [b["size"] for b in blocks] == sizes
    assert [b["parity"] for b in blocks] == parities
    for b in blocks:
        assert b["ncv"] == arnoldi_ncv(b["k"], b["size"])
        assert b["op_solves"] >= b["ncv"] - 1
    assert info["op_solves"] == sum(b["op_solves"] for b in blocks)
    assert info["lu_fill_nnz"] == sum(b["lu_fill_nnz"] for b in blocks)
    # each vector lives on one sublattice; together they are orthonormal
    labels = _sublattice(g)
    for _, vec, _ in pairs:
        assert len(np.unique(labels[vec.values != 0])) == 1
    V = np.stack([p[1].values for p in pairs], axis=1)
    gram = (V.conj().T @ V) * g.weight
    assert np.max(np.abs(gram - np.eye(12))) <= 1e-8


def test_parity_linking_matrix_solves_one_block():
    # the offset-1 diagonal stores entries linking node (i, j) to (i, j + 1),
    # another parity class, so the matrix is one block of all nodes
    g = Grid(extent_L=4.0, n_per_side=33)
    link = np.full(g.size - 1, 0.3)
    mat = sp.diags([link, np.linspace(0.0, 4.0, g.size), link], [-1, 0, 1]).tocsr()
    H = custom_operator(g, mat, True)
    assert len(sublattice_blocks(assemble_sparse(H), g.n_per_side)) == 1
    _, info = _near_vs_eigsh(H, k=8, sigma=0.0)
    assert [b["size"] for b in info["blocks"]] == [g.size]
    # the lowest solve slices the one block
    low = {}
    pairs = lowest_eigenpairs(H, k=8, seed=0, info=low)
    np.testing.assert_allclose([p[0] for p in pairs], sla.eigvalsh(mat.toarray())[:8],
                               rtol=0, atol=1e-10)
    assert [b["size"] for b in low["blocks"]] == [g.size]
    assert len(low["inertia"]["counts"]) == 1


def _one_sublattice_diag_op(g, cls):
    # eigenvalues 1, 2, ... on sublattice `cls`, all others above 100
    labels = _sublattice(g)
    d = 100.0 + np.arange(g.size)
    d[labels == cls] = np.arange(1.0, np.sum(labels == cls) + 1.0)
    return custom_operator(g, sp.diags(d).tocsr(), True), labels


class _TrackedLU:
    """A SuperLU factor behind a proxy, because SuperLU objects reject weak
    references."""

    def __init__(self, lu):
        self.lu = lu

    def __getattr__(self, name):
        return getattr(self.lu, name)


def _track_factors(monkeypatch):
    """Patch `splu` and `_shift_invert` to record, holding no factor alive,
    the set of live factors, how many are alive as each one is built, and
    (real form, solves, LU fill) after each Lanczos run, whose (eigenvalues,
    real Ritz vectors, facts) pass through."""
    alive, alive_at_build, runs = weakref.WeakSet(), [], []
    splu, shift_invert = spla.splu, eigensolve._shift_invert

    def tracked_splu(*args, **kwargs):
        lu = _TrackedLU(splu(*args, **kwargs))
        alive.add(lu)
        alive_at_build.append(len(alive))
        return lu

    def tracked_shift_invert(S, *args):
        vals, X, facts = shift_invert(S, *args)
        runs.append((S, facts["op_solves"], facts["lu_fill_nnz"]))
        return vals, X, facts

    monkeypatch.setattr(eigensolve.spla, "splu", tracked_splu)
    monkeypatch.setattr(eigensolve, "_shift_invert", tracked_shift_invert)
    return alive, alive_at_build, runs


def test_split_resolves_a_short_block(monkeypatch):
    # all 8 eigenvalues nearest sigma sit on sublattice (0, 0): its first
    # request (its share of k plus the margin) returns exactly them, so
    # it is solved again for more pairs
    _, alive_at_build, runs = _track_factors(monkeypatch)
    g = Grid(extent_L=1.0, n_per_side=9)
    op, labels = _one_sublattice_diag_op(g, 0)
    info = {}
    pairs = eigenpairs_near(op, k=8, sigma=0.5, tol=1e-8, seed=0, info=info)
    assert [p[0] for p in pairs] == pytest.approx(np.arange(1.0, 9.0), abs=1e-9)
    assert all(labels[np.argmax(np.abs(p[1].values))] == 0 for p in pairs)
    blocks = info["blocks"]
    assert [b["resolves"] for b in blocks] == [1, 0, 0, 0]
    assert blocks[0]["k"] > 8
    # blocks 0-3, then block 0 again on a fresh factor of its kept matrix
    assert alive_at_build == [1] * 5
    (mat, first, nnz), *others, (mat_again, again, nnz_again) = runs
    assert mat_again is mat
    assert blocks[0]["op_solves"] == first + again
    assert blocks[0]["lu_fill_nnz"] == nnz == nnz_again
    assert blocks[0]["ncv"] == arnoldi_ncv(blocks[0]["k"], blocks[0]["size"])   # the re-solve's
    assert [(b["op_solves"], b["lu_fill_nnz"]) for b in blocks[1:]] == [r[1:] for r in others]
    assert info["op_solves"] == sum(r[1] for r in runs)
    assert info["lu_fill_nnz"] == sum(r[2] for r in runs[:4])


def test_split_short_block_at_its_size_limit_raises():
    # sublattice (1, 1) of a 9 x 9 grid has 16 nodes, so ARPACK can return
    # at most 14 of its pairs: the 15 nearest sigma cannot be certified, a
    # usage error
    g = Grid(extent_L=1.0, n_per_side=9)
    op, _ = _one_sublattice_diag_op(g, 3)
    with pytest.raises(BlockLimitError, match="block 3 of 4 .* at most 14 "):
        eigenpairs_near(op, k=15, sigma=0.5, tol=1e-8)


def test_arnoldi_ncv_rule():
    for k in range(1, 16):
        assert arnoldi_ncv(k, 10**6) == max(2 * k + 1, 20)
    # a band block (k = 38 of 16,641 nodes), a one-block band solve
    assert arnoldi_ncv(38, 16641) == 54
    assert arnoldi_ncv(130, 66049) == 146
    for n in (12, 40, 300):
        for k in range(1, n - 1):
            ncv = arnoldi_ncv(k, n)
            # ARPACK needs k + 2 <= ncv <= n
            assert k + 2 <= ncv <= n


def test_solver_failures_raise_solver_error(monkeypatch):
    g = Grid(extent_L=1.0, n_per_side=9)
    # sigma on an eigenvalue of a diagonal matrix: an exactly singular factor
    with pytest.raises(SolverError, match="singular"):
        eigenpairs_near(_diag_op(g), k=2, sigma=3.0)

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spla, "splu", out_of_memory)
    with pytest.raises(SolverError):
        lowest_eigenpairs(_diag_op(g), k=2)


def _random_basis(rng, g, m):
    return [GridFunction(rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size), g)
            for _ in range(m)]


def _orthonormal(fs):
    """The rows of `helpers.orthonormal_rows` of the values of `fs`, as
    GridFunctions: a `span` for `principal_angles`."""
    g = fs[0].grid
    return [GridFunction(r, g) for r in orthonormal_rows([f.values for f in fs], g.weight)]


def _orthonormal_per_class(fs):
    """One-class vectors orthonormalized within each parity class, in their
    order, so that each stays on its class."""
    out = list(fs)
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
        idx = [i for i, f in enumerate(fs) if f.on_class(p, q) is not None]
        if idx:
            for i, f in zip(idx, _orthonormal([fs[i] for i in idx])):
                out[i] = f
    return out


def _assert_angles_match_scipy(span, other):
    ref = sla.subspace_angles(np.stack([v.values for v in span], axis=1),
                              np.stack([v.values for v in other], axis=1))
    np.testing.assert_allclose(principal_angles(span, other), ref, rtol=0, atol=1e-10)


def test_principal_angles_match_scipy():
    g = Grid(extent_L=1.0, n_per_side=15)
    rng = np.random.default_rng(3)
    small, large = _random_basis(rng, g, 4), _random_basis(rng, g, 11)
    # a 5-dimensional space inside span(large) up to a 1e-6 perturbation
    L = np.stack([b.values for b in large], axis=1)
    near = L @ (rng.standard_normal((11, 5)) + 1j * rng.standard_normal((11, 5)))
    near += 1e-6 * rng.standard_normal(near.shape)
    inside = [GridFunction(near[:, j], g) for j in range(5)]
    # `other` enters unorthonormalized
    for span, other in ((_orthonormal(large), small), (_orthonormal(large), inside),
                        (_orthonormal(inside), small), (_orthonormal(large), large)):
        _assert_angles_match_scipy(span, other)
    tiny = principal_angles(_orthonormal(large), inside)
    assert np.all((tiny > 1e-8) & (tiny < 1e-5))


def test_principal_angles_shorter_span_raises_solver_error():
    g = Grid(extent_L=1.0, n_per_side=9)
    rng = np.random.default_rng(8)
    span = _orthonormal(_random_basis(rng, g, 2))
    with pytest.raises(SolverError, match="span holds 2 vectors, fewer than the 3 of other"):
        principal_angles(span, _random_basis(rng, g, 3))
    with pytest.raises(SolverError, match="other holds no vector"):
        principal_angles(span, [])


def _on_classes(rng, g, classes):
    """A random complex vector supported on the given parity classes."""
    v = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    v[~np.isin(_sublattice(g), classes)] = 0.0
    return GridFunction(v, g)


def _compact(f, c):
    """f, zero off the parity class c = 2 (i mod 2) + (j mod 2), stored on
    that class only."""
    p, q = divmod(c, 2)
    return SublatticeFunction(f.as_2d()[p::2, q::2], (p, q), f.grid)


def test_principal_angles_class_panels_match_scipy():
    # the span is read one parity class at a time
    g = Grid(extent_L=1.0, n_per_side=17)
    rng = np.random.default_rng(5)
    spread = _random_basis(rng, g, 3)
    # each vector on one class, as `eigenpairs_near` returns them
    one_class = _orthonormal_per_class([_on_classes(rng, g, [c % 4]) for c in range(9)])
    _assert_angles_match_scipy(one_class, spread)
    # one vector spread over several classes
    _assert_angles_match_scipy(_orthonormal(one_class + [_on_classes(rng, g, [1, 2, 3])]),
                               spread)
    # class 2 holds no vector of the span (but rows of `other`)
    gap = _orthonormal_per_class([_on_classes(rng, g, [c]) for c in (0, 1, 3, 0, 1, 3, 0)])
    _assert_angles_match_scipy(gap, spread)
    _assert_angles_match_scipy(gap, [_on_classes(rng, g, [0, 3]) for _ in range(2)])
    # small angles (taken from sines) that only the rows of class 2 carry
    G = np.stack([b.values for b in gap], axis=1)
    leak = G @ rng.standard_normal((7, 2)) + 1e-3 * np.stack(
        [_on_classes(rng, g, [2]).values for _ in range(2)], axis=1)
    leaky = [GridFunction(leak[:, j], g) for j in range(2)]
    _assert_angles_match_scipy(gap, leaky)
    assert np.all(principal_angles(gap, leaky) > 1e-5)
    # a space inside span(one_class) up to a 1e-6 perturbation
    L = np.stack([b.values for b in one_class], axis=1)
    near = L @ (rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4)))
    near += 1e-6 * rng.standard_normal(near.shape)
    inside = [GridFunction(near[:, j], g) for j in range(4)]
    _assert_angles_match_scipy(one_class, inside)
    tiny = principal_angles(one_class, inside)
    assert np.all((tiny > 1e-8) & (tiny < 1e-5))
    # the one-class vectors stored on their class, as `eigenpairs_near`
    # returns them, alone or next to a vector spread over several classes
    # (orthonormal to them): the angles of plain copies of their values,
    # and scipy's
    compact = [_compact(v, c % 4) for c, v in enumerate(one_class)]
    spread_one = _orthonormal(one_class + [_on_classes(rng, g, [0, 2, 3])])[-1]
    for span in (compact, compact[:5] + [spread_one] + compact[5:]):
        plain = [GridFunction(v.values.copy(), g) for v in span]
        for other in (spread, inside, compact[1:4]):
            _assert_angles_match_scipy(span, other)
            np.testing.assert_array_equal(principal_angles(span, other),
                                          principal_angles(plain, other))


def test_principal_angles_peak_memory():
    # 40 vectors, ten on each class: the full-grid stack of them alone
    # would take 40 N complex entries
    g = Grid(extent_L=1.0, n_per_side=65)
    rng = np.random.default_rng(6)
    span = _orthonormal_per_class([_on_classes(rng, g, [c % 4]) for c in range(40)])
    other = _random_basis(rng, g, 4)
    tracemalloc.start()
    try:
        principal_angles(span, other)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * 40 * g.size * 16


def test_principal_angles_rank_deficient_other_raises_solver_error():
    # e0, e1, e0 + e1 spans 2 dimensions: its Gram matrix is integral, so its
    # last Cholesky pivot is exactly 0 and `gram_cholesky` refuses it;
    # unchecked, the angles against e0, e1, e40, e41, e42 come out as
    # [pi/2, 0, 0]
    g = Grid(extent_L=1.0, n_per_side=9)
    e = np.eye(g.size, dtype=complex) / g.spacing
    other = [GridFunction(v, g) for v in (e[0], e[1], e[0] + e[1])]
    span = [GridFunction(e[j], g) for j in (0, 1, 40, 41, 42)]
    with pytest.raises(SolverError, match="3-vector basis .* cannot be orthonormalized"):
        principal_angles(span, other)


def _factor_builds(info):
    """The factors a solve takes by its solver facts: the count factors of
    the lowest solve, then one per Lanczos run."""
    runs = sum(1 + b["resolves"] for b in info["blocks"] if b["k"])
    return info.get("inertia", {}).get("factors", 0) + runs


@pytest.mark.parametrize("near", [True, False])
def test_no_factor_alive_when_vectors_are_built(model, monkeypatch, near):
    alive, built, _ = _track_factors(monkeypatch)
    seen = []

    def counted(cls):
        def build(*args, **kwargs):
            seen.append(len(alive))
            return cls(*args, **kwargs)
        return build

    monkeypatch.setattr(eigensolve, "GridFunction", counted(GridFunction))
    monkeypatch.setattr(eigensolve, "SublatticeFunction", counted(SublatticeFunction))
    H = build_operator("H", model, Grid(extent_L=4.0, n_per_side=33))
    info = {}
    if near:
        pairs = eigenpairs_near(H, k=8, sigma=0.02, seed=0, info=info)
    else:
        pairs = lowest_eigenpairs(H, k=8, seed=0, info=info)
    # lowest: the count factors of the slice, then one per solved block
    assert built == [1] * _factor_builds(info)
    assert len(pairs) == 8 and len(seen) >= 8
    assert seen == [0] * len(seen)


@pytest.mark.parametrize("near", [True, False])
def test_certificate_rejects_a_perturbed_pair(model, monkeypatch, near):
    # the Ritz vector nearest sigma of a Lanczos run, off by 1e-4 of its
    # size in a random direction of its part's real coordinates, unfolds to
    # no eigenvector to tol of its block; near sigma = 0.02 the seventh run
    # (the even sector of sublattice (1, 1)) holds the eigenvalue nearest
    # sigma, and the lowest solve's first run is the even sector of block (0, 0)
    shift_invert = eigensolve._shift_invert
    runs = []

    def perturbed(S, sigma, seed, k):
        vals, X, facts = shift_invert(S, sigma, seed, k)
        runs.append(None)
        if len(runs) == (7 if near else 1):
            i = np.argmin(np.abs(vals - sigma))
            noise = np.random.RandomState(1).standard_normal(X.shape[1])
            X[i] += 1e-4 * np.linalg.norm(X[i]) / np.linalg.norm(noise) * noise
        return vals, X, facts

    monkeypatch.setattr(eigensolve, "_shift_invert", perturbed)
    H = build_operator("H", model, Grid(extent_L=4.0, n_per_side=33))
    with pytest.raises(SolverError, match="recomputed residual"):
        if near:
            eigenpairs_near(H, k=8, sigma=0.02, seed=0)
        else:
            lowest_eigenpairs(H, k=8, seed=0)


def test_shift_invert_returns_real_ritz_vectors(model):
    # a part's Lanczos run stays in the part's real coordinates
    g = Grid(extent_L=4.0, n_per_side=33)
    mat = build_operator("H", model, g).matrix
    idx = sublattice_blocks(mat, 33)[0]
    S, _, _ = eigensolve._parts(mat[idx][:, idx], idx, 33)[0]
    vals, X, facts = eigensolve._shift_invert(S, 0.02, 0, 6)
    assert X.dtype == np.float64 and X.shape == (6, S.shape[0])
    np.testing.assert_allclose(X @ X.T, np.eye(6), rtol=0, atol=1e-12)
    resid = np.linalg.norm(S @ X.T - X.T * vals, axis=0)
    assert np.max(resid) <= 1e-8
    assert facts["ncv"] == arnoldi_ncv(6, S.shape[0])


class _CountedIsometry:
    """A part's isometry Q behind a proxy that counts the vectors it unfolds."""

    def __init__(self, Q, count):
        self.Q, self.shape, self.count = Q, Q.shape, count

    def __matmul__(self, x):
        self.count.append(None)
        return self.Q @ x


@pytest.mark.parametrize("near", [True, False])
def test_only_kept_vectors_are_unfolded(model, monkeypatch, near):
    # the near solve's eight parts return 50 pairs, of which 8 are kept:
    # only those leave their part's real coordinates
    parts, unfolded = eigensolve._parts, []
    monkeypatch.setattr(eigensolve, "_parts", lambda *args: [
        (S, _CountedIsometry(Q, unfolded), parity) for S, Q, parity in parts(*args)])
    H = build_operator("H", model, Grid(extent_L=4.0, n_per_side=33))
    info = {}
    if near:
        pairs = eigenpairs_near(H, k=8, sigma=0.02, seed=0, info=info)
        assert sum(b["k"] for b in info["blocks"]) == 50
    else:
        pairs = lowest_eigenpairs(H, k=8, seed=0, info=info)
    assert len(pairs) == 8 and len(unfolded) == 8


def test_one_factor_alive_at_a_time(model, monkeypatch):
    # one factor per part: the two inversion sectors of each sublattice block
    _, alive_at_build, _ = _track_factors(monkeypatch)
    H = build_operator("H", model, Grid(extent_L=4.0, n_per_side=33))
    near = {}
    eigenpairs_near(H, k=8, sigma=0.02, seed=0, info=near)
    assert len(near["blocks"]) == 8
    assert alive_at_build == [1] * 8
    # the lowest solve's count factors and its part solves
    info = {}
    lowest_eigenpairs(H, k=8, seed=0, info=info)
    assert alive_at_build == [1] * (8 + _factor_builds(info))
    assert info["inertia"]["factors"] >= len(info["blocks"]) == 8


def test_eigenpairs_near_vectors_stay_on_their_class(model):
    # a full-grid copy of every vector would retain k N complex entries
    g = Grid(extent_L=5.0, n_per_side=65)
    H = build_operator("H", model, g)
    k = 40
    tracemalloc.start()
    try:
        pairs = eigenpairs_near(H, k=k, sigma=0.02, seed=0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 0.35 * k * g.size * 16
    labels = _sublattice(g).reshape(g.n_per_side, g.n_per_side)
    for _, vec, _ in pairs:
        assert isinstance(vec, SublatticeFunction)
        p, q = vec.parity
        full = np.zeros((g.n_per_side, g.n_per_side), dtype=complex)
        full[p::2, q::2] = vec.rows
        np.testing.assert_array_equal(vec.values, full.reshape(-1))
        np.testing.assert_array_equal(vec.as_2d(), full)
        assert np.all(labels[full != 0] == 2 * p + q)
    # an in-place write fails loudly instead of going into a copy
    vec = pairs[0][1]
    before = vec.rows.copy()
    with pytest.raises(ValueError):
        vec.values[0] = 1.0
    with pytest.raises(ValueError):
        vec.as_2d()[vec.parity] *= 2.0
    np.testing.assert_array_equal(vec.rows, before)


# --- real symmetric form: H commutes with T = R∘K, R: x2 -> -x2 -------------

def _skew_potential():
    """phi = |x|^2 + 0.1 sin(x1 + 2 x2): no reflection symmetry in x2."""
    return Potential(
        kind="skew",
        value_fn=lambda x1, x2: x1**2 + x2**2 + 0.1 * np.sin(x1 + 2 * x2),
        grad_fn=lambda x1, x2: (2 * x1 + 0.1 * np.cos(x1 + 2 * x2),
                                2 * x2 + 0.2 * np.cos(x1 + 2 * x2)),
        laplacian_fn=lambda x1, x2: 4.0 - 0.5 * np.sin(x1 + 2 * x2))


def _block_matrices(mat, n):
    """(nodes, matrix) of the one block of all nodes and of each sublattice block."""
    return [(idx, mat[idx][:, idx]) for idx in [np.arange(n * n)] + sublattice_blocks(mat, n)]


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("potential", ["model", "trig01", "bump01"])
def test_fold_is_an_isometry_onto_a_real_symmetric_form(potential, n, request):
    # the parts' isometries together are unitary with T-fixed columns, and
    # each part's form is real symmetric
    g = Grid(extent_L=5.0, n_per_side=n)
    mat = assemble_sparse(build_operator("H", request.getfixturevalue(potential), g))
    for idx, sub in _block_matrices(mat, n):
        parts = eigensolve._parts(sub, idx, n)
        W = sp.hstack([Q for _, Q, _ in parts]).tocsr()
        assert W.shape == sub.shape
        assert abs(W.conj().T @ W - sp.identity(len(idx))).max() <= 1e-15
        assert abs(W[_image(idx, n, lambda i: i, lambda j: n - 1 - j)].conj() - W).max() <= 1e-15
        for S, Q, _ in parts:
            assert abs((Q.conj().T @ sub @ Q).imag).max() <= 1e-13 * abs(sub).max()
            assert S.dtype == np.float64
            assert abs(S - S.T).max() <= 1e-15 * abs(S).max()


def _both_solves(H):
    """(pairs, info) of the lowest 12 and of the 20 nearest 0.02."""
    low, near = {}, {}
    return [(lowest_eigenpairs(H, k=12, seed=0, info=low), low),
            (eigenpairs_near(H, k=20, sigma=0.02, seed=0, info=near), near)]


def _dense_blocks(H):
    """Every eigenvalue of each of the four sublattice blocks of the
    assembled H, from dense `eigvalsh`."""
    n = H.grid.n_per_side
    return [sla.eigvalsh(sub.toarray()) for _, sub in _block_matrices(assemble_sparse(H), n)[1:]]


def _dense_parts(H):
    """Every eigenvalue of each part (a sublattice block, or one of its
    inversion sectors) of the assembled H, from dense `eigvalsh` of its real
    symmetric form, in the solver's part order."""
    n = H.grid.n_per_side
    return [sla.eigvalsh(S.toarray())
            for idx, sub in _block_matrices(assemble_sparse(H), n)[1:]
            for S, _, _ in eigensolve._parts(sub, idx, n)]


def _dense_spectrum(H):
    """Every eigenvalue of the assembled H, sorted."""
    return np.sort(np.concatenate(_dense_blocks(H)))


def _dtype_spy(monkeypatch):
    """Patch `splu` and `eigsh` to record the dtype of every matrix (and
    shift-invert operator) they receive."""
    seen = []
    splu, eigsh = spla.splu, spla.eigsh

    def spied_splu(A, *args, **kwargs):
        seen.append(A.dtype)
        return splu(A, *args, **kwargs)

    def spied_eigsh(A, *args, **kwargs):
        seen.extend([A.dtype, kwargs["OPinv"].dtype])
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(eigensolve.spla, "splu", spied_splu)
    monkeypatch.setattr(eigensolve.spla, "eigsh", spied_eigsh)
    return seen


@pytest.mark.parametrize("potential", ["model", "trig01", "bump01"])
def test_real_form_matches_dense_eigvalsh(potential, request, monkeypatch):
    g = Grid(extent_L=5.0, n_per_side=65)
    H = build_operator("H", request.getfixturevalue(potential), g)
    parts = _dense_parts(H)
    dense = _dense_spectrum(H)
    seen = _dtype_spy(monkeypatch)
    (low, low_info), (near, _) = _both_solves(H)
    wide_info = {}
    wide = lowest_eigenpairs(H, k=40, seed=0, info=wide_info)
    # every factor and every Lanczos run is real
    assert seen and all(dtype == np.float64 for dtype in seen)
    # the lowest solve's part counts are the part eigenvalues below tau, and
    # the parts hold the spectrum of the assembled H
    assert len(parts) == (4 if potential == "trig01" else 8)
    assert np.all(np.abs(np.sort(np.concatenate(parts)) - dense)
                  <= 1e-12 * np.maximum(1.0, np.abs(dense)))
    for info in (low_info, wide_info):
        tau = info["inertia"]["tau"]
        assert info["inertia"]["counts"] == [int(np.sum(b < tau)) for b in parts]
    refs = [dense[:12], np.sort(dense[np.argsort(np.abs(dense - 0.02), kind="stable")[:20]]),
            dense[:40]]
    for pairs, ref in zip((low, near, wide), refs):
        vals = np.array([p[0] for p in pairs])
        assert np.all(np.abs(vals - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        # Lanczos vectors are orthonormal as returned, and each is fixed by
        # T, u(x1, -x2) = conj(u(x1, x2))
        V = np.stack([p[1].values for p in pairs], axis=1)
        gram = (V.conj().T @ V) * g.weight
        assert np.max(np.abs(gram - np.eye(len(pairs)))) <= 1e-12
        for _, f, _ in pairs:
            u = f.as_2d()
            assert np.max(np.abs(u[:, ::-1] - u.conj())) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("handle", ["skew", "A"])
def test_block_with_neither_symmetry_raises_before_any_factor(handle, model, monkeypatch):
    # the skew phi is not even in x2; the model's A anticommutes with T,
    # R conj(A) R = -A, and is complex
    g = Grid(extent_L=5.0, n_per_side=33)
    op = (build_operator("H", _skew_potential(), g) if handle == "skew"
          else build_operator("A", model, g))
    seen = _dtype_spy(monkeypatch)
    with pytest.raises(SolverError, match=r"neither T = R∘K .* nor K .* FOLD_TOL"):
        lowest_eigenpairs(op, k=8, seed=0)
    with pytest.raises(SolverError, match=r"neither T = R∘K .* nor K .* FOLD_TOL"):
        eigenpairs_near(op, k=8, sigma=0.02, seed=0)
    assert seen == []   # no factor, no Lanczos run


@pytest.mark.parametrize("size, folds", [(1e-9, False), (1e-14, True)])
def test_fold_tol_separates_a_perturbed_block(model, size, folds):
    # a Hermitian perturbation at node (10, 3), off the axis j = 16, breaks
    # T by `size` of H's largest entry (a little more of a sublattice
    # block's); the complex H has no K symmetry
    g = Grid(extent_L=5.0, n_per_side=33)
    mat = assemble_sparse(build_operator("H", model, g))
    a = 10 * 33 + 3
    bump = sp.csr_matrix(([size * abs(mat).max()], ([a], [a])), shape=mat.shape)
    op = custom_operator(g, (mat + bump).tocsr(), True)
    if folds:
        for idx, sub in _block_matrices(op.matrix, 33):
            for _, Q, _ in eigensolve._parts(sub, idx, 33):
                assert abs(Q.imag).max() > 0   # from T's isometry, not the identity
        for pairs, _ in _both_solves(op):
            assert max(p[2] for p in pairs) <= 1e-6 * max(1.0, max(abs(p[0]) for p in pairs))
    else:
        for solve in (lambda: lowest_eigenpairs(op, k=8, seed=0),
                      lambda: eigenpairs_near(op, k=8, sigma=0.02, seed=0)):
            with pytest.raises(SolverError, match=r"neither T = R∘K \(.* = \d\.\de-09\)"):
                solve()


def test_real_matrix_without_t_symmetry_solves():
    # diagonal entries 1, 2, ... in node order: R reorders them, K fixes them
    g = Grid(extent_L=1.0, n_per_side=9)
    op = _diag_op(g)
    nodes = np.arange(g.size)
    i, j = np.divmod(nodes, 9)
    r = i * 9 + 8 - j
    assert abs(op.matrix[r][:, r] - op.matrix).max() >= 1.0
    # J reorders them too: one part, in the block's own coordinates
    [(S, Q, parity)] = eigensolve._parts(op.matrix, nodes, 9)
    assert parity is None and abs(Q - sp.identity(g.size)).max() == 0
    assert abs(S - op.matrix).max() == 0
    for pairs in (lowest_eigenpairs(op, k=3, tol=1e-8),
                  eigenpairs_near(op, k=3, sigma=0.5, tol=1e-8)):
        assert [p[0] for p in pairs] == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)


def _solve_spy(monkeypatch):
    """Patch `_factor` and `eigsh` to record (size, shift) of every factor
    and the size of every matrix that reaches Lanczos."""
    factored, lanczos = [], []
    factor, eigsh = eigensolve._factor, spla.eigsh

    def spied_factor(mat, shift):
        factored.append((mat.shape[0], shift))
        return factor(mat, shift)

    def spied_eigsh(A, *args, **kwargs):
        lanczos.append(A.shape[0])
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(eigensolve, "_factor", spied_factor)
    monkeypatch.setattr(eigensolve.spla, "eigsh", spied_eigsh)
    return factored, lanczos


def test_a_block_with_no_count_is_never_factored_at_sigma(model, monkeypatch):
    # none of the 12 lowest eigenvalues of the model at 65^2 lies on
    # sublattice (1, 1): neither of its inversion sectors gets a factor at
    # sigma = -1 or a Lanczos run, and both are still listed
    g = Grid(extent_L=5.0, n_per_side=65)
    H = build_operator("H", model, g)
    factored, lanczos = _solve_spy(monkeypatch)
    info = {}
    pairs = lowest_eigenpairs(H, k=12, seed=0, info=info)
    assert len(pairs) == 12
    counts = info["inertia"]["counts"]
    assert counts[6:] == [0, 0] and min(counts[:6]) > 0
    blocks = info["blocks"]
    sizes = [545, 544, 528, 528, 528, 528, 512, 512]
    assert [b["size"] for b in blocks] == sizes
    assert [b["parity"] for b in blocks] == [1, -1] * 4
    assert [b["k"] for b in blocks] == counts
    for parity, b in zip((1, -1), blocks[6:]):
        assert b == {"size": 512, "parity": parity, "k": 0, "resolves": 0, "op_solves": 0,
                     "lu_fill_nnz": 0, "diagonal_pivots": None, "ncv": 0}
    solved = sorted(b["size"] for b in blocks if b["k"] for _ in range(1 + b["resolves"]))
    assert sorted(size for size, shift in factored if shift == -1.0) == solved
    assert sorted(lanczos) == solved and 512 not in lanczos
    # every other factor is a count, of all eight parts
    counted = [size for size, shift in factored if shift != -1.0]
    assert len(counted) == info["inertia"]["factors"]
    assert counted[:8] == sizes


def _copy_dropping_eigsh(monkeypatch):
    """Patch `eigsh` so that its first run holding two eigenvalues within
    1e-6 of each other returns one of them only, and the next eigenvalue of
    its block in its place, as a Krylov solve that skips a copy does. The
    list it returns records the block size of that run."""
    dropped = []
    eigsh = spla.eigsh

    def dropping(A, k, **kwargs):
        if dropped:
            return eigsh(A, k=k, **kwargs)
        vals, vecs = eigsh(A, k=k + 1, **{**kwargs, "ncv": arnoldi_ncv(k + 1, A.shape[0])})
        order = np.argsort(vals)
        close = np.flatnonzero(np.diff(vals[order]) <= 1e-6)
        keep = np.delete(order, close[0] + 1) if len(close) else order[:k]
        if len(close):
            dropped.append(A.shape[0])
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(eigensolve.spla, "eigsh", dropping)
    return dropped


def test_lowest_solve_returns_every_copy_of_a_degenerate_eigenvalue(model, bump01, trig01,
                                                                   monkeypatch):
    # the lowest 8 eigenvalues end with four copies of -0.335949 (two pairs
    # 1e-7 apart, box-corner states that the bump does not reach). A
    # single-vector Lanczos solve can return two of them and eigenvalues
    # above instead; per part no seed 0-29 of either potential does (nor of
    # trig, nor at k = 12). The inversion sectors of the model and the bump
    # hold no two of their lowest 8 within 1e-6; trig's unsplit block (1, 0)
    # holds two copies of -0.336012, 9e-8 apart: the 7th and 8th lowest of H.
    # So a solve of trig that drops a copy is forced: the part's count below
    # tau exposes it, and the part is solved again for its count plus
    # BLOCK_MARGIN pairs
    g = Grid(extent_L=5.0, n_per_side=65)
    for potential, seeds in ((model, range(10)), (bump01, range(10))):
        H = build_operator("H", potential, g)
        dense = _dense_spectrum(H)
        assert np.abs(dense[4:8] + 0.335949) == pytest.approx(0.0, abs=1e-6)
        for seed in seeds:
            vals = [p[0] for p in lowest_eigenpairs(H, k=8, seed=seed)]
            np.testing.assert_allclose(vals, dense[:8], rtol=0, atol=1e-9)
        assert all(np.min(np.diff(part[part <= dense[7]]), initial=1.0) > 1e-6
                   for part in _dense_parts(H))
    H = build_operator("H", trig01, g)
    dense = _dense_spectrum(H)
    assert dense[7] - dense[6] <= 1e-7
    dropped = _copy_dropping_eigsh(monkeypatch)
    info = {}
    vals = [p[0] for p in lowest_eigenpairs(H, k=8, seed=0, info=info)]
    np.testing.assert_allclose(vals, dense[:8], rtol=0, atol=1e-9)
    assert len(dropped) == 1
    counts = info["inertia"]["counts"]
    again = [b for b, f in enumerate(info["blocks"]) if f["resolves"]]
    assert again == [2]
    block = info["blocks"][again[0]]
    assert block["size"] == dropped[0]
    assert block["resolves"] == 1
    assert block["k"] == counts[again[0]] + eigensolve.BLOCK_MARGIN


def test_each_part_real_form_is_built_once(trig01, monkeypatch):
    # the trig solve of the test above, whose block (1, 0) is solved again:
    # every count factor, factor at sigma and re-solve factor of a part takes
    # the one real form that `_parts` built for it
    H = build_operator("H", trig01, Grid(extent_L=5.0, n_per_side=65))
    _copy_dropping_eigsh(monkeypatch)
    factored, factor = [], eigensolve._factor

    def spied_factor(mat, shift):
        factored.append((mat, shift))
        return factor(mat, shift)

    monkeypatch.setattr(eigensolve, "_factor", spied_factor)
    info = {}
    lowest_eigenpairs(H, k=8, seed=0, info=info)
    counted = [mat for mat, shift in factored if shift != -1.0]
    at_sigma = [mat for mat, shift in factored if shift == -1.0]
    forms = counted[:4]
    assert len({id(S) for S in forms}) == len(info["blocks"]) == 4
    assert len(counted) == info["inertia"]["factors"]
    assert all(any(mat is S for S in forms) for mat in counted)
    assert [b["resolves"] for b in info["blocks"]] == [0, 0, 1, 0]
    assert [sum(mat is S for mat in at_sigma) for S in forms] == [
        (1 + b["resolves"]) if b["k"] else 0 for b in info["blocks"]]
    assert len(at_sigma) == sum(1 + b["resolves"] for b in info["blocks"] if b["k"])


def test_inertia_moves_its_shift_off_a_pivot_breakdown():
    # 40 copies of [[0, 1], [1, 0]] and one 5: at the bracket's first shift
    # tau = sigma + 1 = 0 every 2 x 2 block pivots off its (zero) diagonal,
    # so tau moves to a quarter of the bracket (-1, 0]
    pair = sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]])
    mat = sp.block_diag([pair] * 40 + [sp.csr_matrix([[5.0]])], format="csr")
    assert eigensolve._slice([mat], 40, -1.0, 1e-6) == {
        "tau": -0.75, "counts": [40], "factors": 2}
    # 40 copies of -1 exceed k = 1 plus the margin below every tau, so the
    # bisection stops when the bracket is tol wide
    out = eigensolve._slice([mat], 1, -1.0, 1e-6)
    assert out["counts"] == [40] and -1.0 < out["tau"] <= -1.0 + 1e-6
    # entries of 1e4 push every pivot within 10 of 0 off the diagonal: no
    # shift of the bracket gives a count
    with pytest.raises(SolverError, match=r"bracket \(-1, 0\]"):
        eigensolve._slice([1e4 * mat], 40, -1.0, 1e-6)


def test_inertia_mismatch_raises_solver_error(model, monkeypatch):
    slice_ = eigensolve._slice

    def overcount(*args):
        out = slice_(*args)
        return {**out, "counts": [out["counts"][0] + 1] + out["counts"][1:]}

    monkeypatch.setattr(eigensolve, "_slice", overcount)
    H = build_operator("H", model, Grid(extent_L=4.0, n_per_side=33))
    with pytest.raises(SolverError, match=r"block 0 of 4 \(parity \+1\): .* negative pivots"):
        lowest_eigenpairs(H, k=8, seed=0)


# --- inversion sectors: a radial phi commutes with J: x -> -x --------------

def _hand_built_radial():
    """phi = |x|^2 + 0.2 sin(|x|^2 / 4): radial, but none of the shipped kinds."""
    r2 = lambda x1, x2: x1**2 + x2**2
    return Potential(
        kind="hand-built radial",
        value_fn=lambda x1, x2: r2(x1, x2) + 0.2 * np.sin(r2(x1, x2) / 4),
        grad_fn=lambda x1, x2: (2 * x1 * (1 + 0.05 * np.cos(r2(x1, x2) / 4)),
                                2 * x2 * (1 + 0.05 * np.cos(r2(x1, x2) / 4))),
        laplacian_fn=lambda x1, x2: (4.0 + 0.2 * np.cos(r2(x1, x2) / 4)
                                     - 0.05 * r2(x1, x2) * np.sin(r2(x1, x2) / 4)))


def _image(nodes, n, i_of, j_of):
    """Position among the sorted `nodes` of the image of each node under the
    node map (i, j) -> (i_of(i), j_of(j))."""
    i, j = np.divmod(nodes, n)
    return np.searchsorted(nodes, i_of(i) * n + j_of(j))


def _assert_sectors(sub, idx, n, parts):
    """The `_parts` of one block split it: each isometry is orthonormal, the
    parts are mutually orthogonal and together span the block, each column
    is fixed by T and has its part's parity under J (when it has one), and
    the dense spectra of the parts' real forms together are the block's, to
    1e-12."""
    W = sp.hstack([Q for _, Q, _ in parts]).tocsr()
    assert W.shape == sub.shape
    assert abs(W.conj().T @ W - sp.identity(len(idx))).max() <= 1e-15
    flip = lambda i: n - 1 - i
    keep = lambda i: i
    reflect, invert = _image(idx, n, keep, flip), _image(idx, n, flip, flip)
    for _, Q, parity in parts:
        assert abs(Q[reflect].conj() - Q).max() <= 1e-15   # T-fixed
        if parity is not None:
            assert abs(Q[invert] - parity * Q).max() <= 1e-15
    block = sla.eigvalsh(sub.toarray())
    split = np.sort(np.concatenate([sla.eigvalsh(S.toarray()) for S, _, _ in parts]))
    assert np.all(np.abs(split - block) <= 1e-12 * np.maximum(1.0, np.abs(block)))


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("potential", ["model", "bump01", "trig01"])
def test_sectors_split_each_block_of_a_radial_potential(potential, n, request):
    g = Grid(extent_L=5.0, n_per_side=n)
    mat = assemble_sparse(build_operator("H", request.getfixturevalue(potential), g))
    for idx, sub in _block_matrices(mat, n)[1:]:
        parts = eigensolve._parts(sub, idx, n)
        if potential == "trig01":
            # eps sin(x1) cos(x2) is odd under x -> -x: the block is one part, T's fold
            assert len(parts) == 1 and parts[0][2] is None
        else:
            assert [parity for *_, parity in parts] == [1, -1]
            assert sum(S.shape[0] for S, _, _ in parts) == len(idx)
        _assert_sectors(sub, idx, n, parts)


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("potential", ["model", "bump01"])
def test_returned_vectors_have_inversion_parity(potential, n, request):
    # each vector is even or odd under x -> -x, u(-x) = +-u(x), and T-fixed,
    # u(x1, -x2) = conj(u(x1, x2)); the eight parts are listed with their parity
    g = Grid(extent_L=5.0, n_per_side=n)
    H = build_operator("H", request.getfixturevalue(potential), g)
    for pairs, info in _both_solves(H):
        assert [b["parity"] for b in info["blocks"]] == [1, -1] * 4
        parities = []
        for _, f, _ in pairs:
            u = f.as_2d()
            scale = np.max(np.abs(u))
            assert np.max(np.abs(u[:, ::-1] - u.conj())) <= 1e-12 * scale
            odd, even = (np.max(np.abs(u[::-1, ::-1] + s * u)) for s in (1, -1))
            assert min(odd, even) <= 1e-12 * scale
            parities.append(1 if even < odd else -1)
        assert {1, -1} <= set(parities)


def test_a_hand_built_radial_potential_splits():
    # the split is read off the assembled matrix, not the potential's kind;
    # the one block of all nodes (a matrix without the sublattice split)
    # splits too
    g = Grid(extent_L=5.0, n_per_side=33)
    H = build_operator("H", _hand_built_radial(), g)
    for idx, sub in _block_matrices(assemble_sparse(H), 33):
        parts = eigensolve._parts(sub, idx, 33)
        assert [parity for *_, parity in parts] == [1, -1]
        _assert_sectors(sub, idx, 33, parts)
    solves = _both_solves(H)
    for pairs, info in solves:
        assert [b["parity"] for b in info["blocks"]] == [1, -1] * 4
        assert max(p[2] for p in pairs) <= 1e-6
    low = [p[0] for p in solves[0][0]]
    np.testing.assert_allclose(low, _dense_spectrum(H)[:12], rtol=0, atol=1e-10)


def _wrong_sign_in_the_odd_sector(halves, mutated):
    """`_halves` with the second entry of every two-entry column of E-
    negated: (e_c + s_c e_d)/sqrt 2, the even combination, in place of the
    odd one. Only J's halves change: R's signs are all +1, while in T's
    coordinates J maps the odd column i (e_a - e_Ra)/sqrt 2 of a pair to
    minus another. Each mutated call appends its size to `mutated`."""
    def mutant(d, s):
        even, odd = halves(d, s)
        if np.all(s == 1):
            return even, odd
        odd = odd.tocsc()
        pair = np.flatnonzero(np.diff(odd.indptr) == 2)
        odd.data[odd.indptr[pair] + 1] *= -1.0
        mutated.append(len(d))
        return even, odd.tocsr()
    return mutant


def test_a_wrong_sign_in_the_odd_sector_fails(model, monkeypatch):
    g = Grid(extent_L=5.0, n_per_side=33)
    H = build_operator("H", model, g)
    mutated = []
    monkeypatch.setattr(eigensolve, "_halves",
                        _wrong_sign_in_the_odd_sector(eigensolve._halves, mutated))
    for idx, sub in _block_matrices(assemble_sparse(H), 33)[1:]:
        with pytest.raises(AssertionError):
            _assert_sectors(sub, idx, 33, eigensolve._parts(sub, idx, 33))
    assert mutated == [len(idx) for idx in sublattice_blocks(assemble_sparse(H), 33)]
    with pytest.raises(SolverError, match="recomputed residual"):
        lowest_eigenpairs(H, k=12, seed=0)
