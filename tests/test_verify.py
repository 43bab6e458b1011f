import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from landaulab import (Grid, GridFunction, build_operator, check_cutoff_lemma,
                       check_energy_lemma, check_gauge_lemma, extremal_linf, l2_norm,
                       ladder_level_clusters, make_cutoff, rescale, sweep_bounds)
from landaulab import verify
from landaulab.cutoffs import SUPPORT_RADIUS, lattice_window
from landaulab.eigensolve import EigenCluster
from landaulab.grid import RANK_TOL, l2_sums
from landaulab.verify import VerifyError, _gauge_sups, ladder_tiers, translate_samples
from helpers import custom_operator, mgs_ritz_reference


@pytest.fixture(scope="module")
def model_clusters(model):
    g = Grid(extent_L=6.5, n_per_side=129)
    clusters = ladder_level_clusters(model, g, 2, m_count=5)
    return g, clusters


def test_ladder_clusters_hit_landau_levels(model):
    # the per-level Ritz dip scales like spacing^2 * level^2; 257 nodes keep
    # levels 0..2 within 0.05 of the Landau values
    g = Grid(extent_L=6.5, n_per_side=257)
    clusters = ladder_level_clusters(model, g, 2, m_count=4)
    assert [c.label for c in clusters] == [0, 1, 2]
    for c in clusters:
        assert c.mean == pytest.approx(2.0 * c.label, abs=0.05)
        assert c.dim == 4


def test_ladder_clusters_perturbed(trig01):
    g = Grid(extent_L=6.5, n_per_side=129)
    clusters = ladder_level_clusters(trig01, g, 1, m_count=4)
    assert [c.label for c in clusters] == [0, 1]
    assert clusters[1].mean == pytest.approx(2.0, abs=0.15)


def test_energy_identity_rows(model_clusters, model):
    g, clusters = model_clusters
    for c in clusters:
        rows = check_energy_lemma(model, g, c)
        assert len(rows) == c.dim
        assert all(r.passed for r in rows)
        assert all(r.detail["rel_err"] <= 1e-3 for r in rows)


def test_energy_identity_rejects_non_unit(model, model_clusters):
    g, clusters = model_clusters
    bad = GridFunction(np.zeros(g.size, dtype=complex), g)
    c = clusters[0]
    from landaulab import EigenCluster
    broken = EigenCluster(label=0, eigenvalues=[0.0], basis=[bad], residuals=[0.0])
    with pytest.raises(VerifyError):
        check_energy_lemma(model, g, broken)


def _cutoff_state(model, h, L=9.0, n=193):
    level = round(1.0 / (2.0 * h))
    g = Grid(extent_L=L, n_per_side=n)
    clusters = ladder_level_clusters(model, g, level, m_count=1)
    u = clusters[-1].basis[0]
    return rescale(u, h)


def test_cutoff_lemma_rows_pass(model):
    h = 0.5
    uh = _cutoff_state(model, h)
    rows = check_cutoff_lemma(model, uh.grid, uh, h, centers=[(1.5, 0.0), (0.0, 1.5)])
    sup_rows = [r for r in rows if r.lemma_id == "cutoff_sup_q"]
    assert len(sup_rows) == 2
    assert all(r.passed for r in sup_rows)
    l2_rows = [r for r in rows if r.lemma_id == "cutoff_l2_q"]
    assert len(l2_rows) == 1 and l2_rows[0].passed


@pytest.mark.parametrize("L, n, clean", [(6.5, 97, False), (9.0, 193, True)])
def test_cutoff_lemma_input_guard_flag(model, L, n, clean):
    # L = 6.5, n = 97 is the lemmas CLI test's grid: its h = 0.5 ladder state
    # has ||Pu||/||u|| = 0.066, above the 0.05 guard
    h = 0.5
    uh = _cutoff_state(model, h, L=L, n=n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = check_cutoff_lemma(model, uh.grid, uh, h, centers=[(1.5, 0.0)])
    assert {r.lemma_id for r in rows} == {"cutoff_sup_q", "cutoff_l2_q"}
    assert all(r.detail["input_guard_ok"] is clean for r in rows)
    assert any("guard" in str(w.message) for w in caught) is not clean


def test_cutoff_lemma_corner_center_vanishes(model):
    h = 0.5
    uh = _cutoff_state(model, h)
    L = uh.grid.extent_L
    corner = (L - 2.0, L - 2.0)  # far from the state's mass near the origin
    rows = check_cutoff_lemma(model, uh.grid, uh, h, centers=[corner])
    assert rows[0].lhs <= 1e-8


def test_cutoff_lemma_margin_guard(model):
    h = 0.5
    uh = _cutoff_state(model, h)
    L = uh.grid.extent_L
    with pytest.raises(VerifyError):
        check_cutoff_lemma(model, uh.grid, uh, h, centers=[(L - 1.0, 0.0)])


def test_cutoff_lemma_checks_centers_before_the_input_guard(trig01):
    # a random state fails the ||Pu||/||u|| guard, but a bad center raises
    # before the guard can warn
    g = Grid(extent_L=6.0, n_per_side=65)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VerifyError, match="interior margin"):
            check_cutoff_lemma(trig01, g, _random_state(g), 0.5, [(0.0, 0.0), (5.0, 0.0)])


def test_cutoff_lemma_pads_a_sublattice_input_once(model, monkeypatch):
    # a solver eigenvector is stored on its parity class; the check pads it
    # to the full grid once, not once per center, and gives the rows of a
    # plain full-grid copy of it
    from landaulab import lowest_eigenpairs
    from landaulab.grid import SublatticeFunction
    g = Grid(extent_L=5.0, n_per_side=65)
    u = lowest_eigenpairs(build_operator("H", model, g), k=1, seed=0)[0][1]
    assert isinstance(u, SublatticeFunction)
    plain = GridFunction(u.values.copy(), g)
    centers = [(1.0, 0.0), (0.0, 1.0), (-1.0, 1.0)]
    assert len(lattice_window(g)) > len(centers)
    as_2d, calls = SublatticeFunction.as_2d, []

    def counted(self):
        calls.append(self)
        return as_2d(self)

    monkeypatch.setattr(SublatticeFunction, "as_2d", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = check_cutoff_lemma(model, g, u, 1.0, centers)
        assert len(calls) == 1
        assert rows == check_cutoff_lemma(model, g, plain, 1.0, centers)


def _random_state(grid, seed=7):
    rng = np.random.default_rng(seed)
    shape = grid.n_per_side, grid.n_per_side
    return GridFunction(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), grid)


def test_cutoff_lemma_lhs_equals_full_grid_apply(trig01):
    # the row-block applies give every lhs bit for bit, the blocks of
    # q1 = 4 and q1 = -4 clamped at the grid edges included: reference
    # P(beta_q u) on the whole grid, exactly zero off the rows
    # |x1 - q1| < SUPPORT_RADIUS and 2 more on each side, summed over those
    # rows, and over the window in its order
    g = Grid(extent_L=6.0, n_per_side=65)
    h = 0.5
    u = _random_state(g)
    centers = [(0.5, -1.0), (4.0, 4.0), (-4.0, 0.0), (0.5, 2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # a random u fails the ||Pu|| guard
        rows = check_cutoff_lemma(trig01, g, u, h, centers)
    P = build_operator("P", trig01, g, h=h)
    x, n = g.axis(), g.n_per_side

    def ref(q):
        lo, hi = np.searchsorted(x, [q[0] - SUPPORT_RADIUS, q[0] + SUPPORT_RADIUS])
        r0, r1 = max(lo - 2, 0), min(hi + 2, n)
        full = P.apply(GridFunction(make_cutoff(q, g).values * u.values, g)).as_2d()
        assert not full[:r0].any() and not full[r1:].any()
        return float(np.sqrt(l2_sums(full[r0:r1].reshape(-1)) * g.weight))

    assert [r.lhs for r in rows[:-1]] == [ref(q) for q in centers]
    total = 0.0
    for q in lattice_window(g):
        total += ref(q) ** 2
    assert rows[-1].lemma_id == "cutoff_l2_q" and rows[-1].lhs == float(np.sqrt(total))


def test_cutoff_lemma_applies_P_once_on_the_full_grid(trig01, monkeypatch):
    # only the input guard applies P to a full grid; each cutoff apply runs
    # on its strip of rows
    import landaulab.verify as verify
    calls = []

    def counting_build(*args, **kwargs):
        op = build_operator(*args, **kwargs)
        apply = op.apply_array
        op.apply_array = lambda u: calls.append(op.label) or apply(u)
        return op

    monkeypatch.setattr(verify, "build_operator", counting_build)
    g = Grid(extent_L=6.0, n_per_side=65)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = check_cutoff_lemma(trig01, g, _random_state(g), 0.5, [(1.5, 0.0)])
    assert len(rows) == 2 and calls == ["P"]


def test_translate_samples(model):
    g = Grid(extent_L=6.0, n_per_side=121)  # spacing 0.1
    X1, X2 = g.mesh()
    u = GridFunction((X1 + 2 * X2).astype(complex).reshape(-1), g)
    shifted = translate_samples(u, (0.5, -0.3))
    arr = shifted.as_2d()
    x = g.axis()
    i, j = 30, 40
    assert arr[i, j] == pytest.approx((x[i] + 0.5) + 2 * (x[j] - 0.3), abs=1e-12)
    with pytest.raises(VerifyError):
        translate_samples(u, (0.05, 0.0))  # half a node: not aligned


@pytest.mark.parametrize("q", [(12.1, 0.0), (0.0, -12.1), (20.0, 3.0), (-30.0, -30.0)])
def test_translate_samples_beyond_the_grid_is_zero(q):
    # a shift of n nodes or more moves every sample off the grid
    g = Grid(extent_L=6.0, n_per_side=121)   # spacing 0.1, n = 121
    u = GridFunction(np.ones(g.size, dtype=complex), g)
    shifted = translate_samples(u, q)
    assert shifted.grid == g
    np.testing.assert_array_equal(shifted.values, np.zeros(g.size))


def test_gauge_lemma_rows(model):
    g = Grid(extent_L=6.0, n_per_side=121)
    clusters = ladder_level_clusters(model, g, 0, m_count=1)
    ground = clusters[0].basis[0]
    rows = check_gauge_lemma(model, g, ground, (2.0, 0.0))
    assert {r.lemma_id for r in rows} == {"gauge_translate_A", "gauge_translate_B"}
    assert all(r.passed for r in rows)
    _, res = verify.rayleigh_residual(build_operator("H", model, g), ground)
    assert [r.detail["input_residual"] for r in rows] == [res, res]
    # margin violation
    with pytest.raises(VerifyError):
        check_gauge_lemma(model, g, ground, (5.0, 0.0))


def test_rayleigh_residual_of_an_exact_eigenvector():
    g = Grid(extent_L=6.0, n_per_side=9)
    op = custom_operator(g, sp.diags(np.arange(g.size, dtype=float)).tocsr(), True)
    u = GridFunction(np.zeros(g.size), g)
    u.values[5] = 3.0 - 4.0j   # |u|^2 = 25, exact
    assert verify.rayleigh_residual(op, u) == (5.0, 0.0)


def test_gauge_lemma_trivial_phase_at_origin(model):
    g = Grid(extent_L=6.0, n_per_side=121)
    clusters = ladder_level_clusters(model, g, 0, m_count=1)
    ground = clusters[0].basis[0]
    rows = check_gauge_lemma(model, g, ground, (0.0, 0.0))
    assert all(r.passed for r in rows)


def test_sweep_bounds_model_small(model):
    g = Grid(extent_L=6.5, n_per_side=129)
    report = sweep_bounds(model, g, max_level=3, m_count=6, restarts=8, seed=0)
    assert [r.level for r in report.rows] == [0, 1, 2, 3]
    assert report.theorem1 is not None and report.theorem1.passed
    assert report.theorem2 is not None and report.theorem2.passed
    anchor = report.rows[0].ratio_linf
    assert anchor == pytest.approx(np.sqrt(2.0 / np.pi), rel=0.02)
    for row in report.rows:
        # O(spacing^2 * level^2) downward dip at this resolution
        assert row.lambda_sq == pytest.approx(2.0 * row.level, abs=0.25)


def test_sweep_monotone_in_resolution(model):
    # refining the grid must not flip the pass verdicts
    for n in (129, 161):
        g = Grid(extent_L=6.5, n_per_side=n)
        report = sweep_bounds(model, g, max_level=2, m_count=5, restarts=8, seed=0)
        assert report.theorem1.passed and report.theorem2.passed


def test_sweep_report_serialization(model):
    g = Grid(extent_L=6.5, n_per_side=129)
    report = sweep_bounds(model, g, max_level=1, m_count=4, restarts=8, seed=0)
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "level,lambda_sq,cluster_dim,ratio_linf,ratio_l6,scaled_l6"
    assert len(lines) == 3
    import json
    # as cli.run_bounds writes it
    doc = json.loads(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    assert doc["schema_version"] == 1
    assert doc["theorem1"]["passed"] is True
    assert len(doc["rows"]) == 2
    # the key sets are pinned, so that a new dataclass field cannot change
    # bounds.json unnoticed
    assert set(doc) == {"schema_version", "potential_kind", "params", "grid", "rows",
                        "theorem1", "theorem2", "warnings"}
    assert set(doc["grid"]) == {"extent_L", "n_per_side"}
    assert {tuple(sorted(row)) for row in doc["rows"]} == {(
        "cluster_dim", "l6_converged", "l6_cut_bound", "l6_hessian_max",
        "l6_iterations", "l6_nodes_kept", "lambda_sq", "level", "max_residual",
        "ratio_l6", "ratio_linf", "scaled_l6")}
    for t in ("theorem1", "theorem2"):
        assert set(doc[t]) == {"max_value", "bound", "slope", "passed"}
    for row in doc["rows"]:
        assert row["l6_converged"] is True
        assert isinstance(row["l6_iterations"], int)
    assert doc["warnings"] == []


def test_ladder_level_clusters_are_eigensolve_clusters(trig01):
    g = Grid(extent_L=6.5, n_per_side=97)
    clusters = ladder_level_clusters(trig01, g, 3, m_count=3)
    assert all(isinstance(c, EigenCluster) and len(c.residuals) == c.dim for c in clusters)
    assert [c.label for c in clusters] == [0, 1, 2, 3]
    for c in clusters:
        V = np.stack([b.values for b in c.basis])
        assert np.abs((V.conj() @ V.T) * g.weight - np.eye(c.dim)).max() <= 1e-12


def _gram_defect(clusters, grid):
    V = np.stack([b.values for c in clusters for b in c.basis])
    return np.abs((V.conj() @ V.T) * grid.weight - np.eye(len(V))).max()


# the smoke grids of the benchmark's sweep config and of the lemmas config's
# first ladder (levels 0..2 of 6 states)
@pytest.mark.parametrize("L, n, max_level, m_count", [(6.5, 97, 3, 3), (10.0, 129, 2, 6)],
                         ids=["sweep", "lemmas"])
def test_ladder_ritz_pairs_match_a_gram_schmidt_reference(trig01, L, n, max_level, m_count):
    g = Grid(extent_L=L, n_per_side=n)
    clusters = ladder_level_clusters(trig01, g, max_level, m_count=m_count)
    assert _gram_defect(clusters, g) <= 1e-13
    evals, vecs, resid = mgs_ritz_reference(trig01, g, max_level, m_count)
    np.testing.assert_allclose([e for c in clusters for e in c.eigenvalues], evals,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose([r for c in clusters for r in c.residuals], resid,
                               rtol=1e-12, atol=0)
    first = np.cumsum([0] + [c.dim for c in clusters])
    for c, i in zip(clusters, first):
        ref = np.sqrt(np.max(np.sum(np.abs(vecs[i:i + c.dim]) ** 2, axis=0)))
        assert extremal_linf(c)[0] == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("scale, accepted", [(1.5, True), (1 / 1.5, False)],
                         ids=["inside", "outside"])
def test_ladder_rank_rule_at_its_threshold(trig01, monkeypatch, scale, accepted):
    # the last ladder vector is replaced by one at distance scale * RANK_TOL
    # from the span of the others: sqrt(1 - s^2) b_0 + s e, with e a unit
    # vector orthogonal to the other rows (the next null state, projected)
    g = Grid(extent_L=6.5, n_per_side=65)
    s = scale * RANK_TOL
    dstar = build_operator("D_star", trig01, g)
    rows = np.stack([u.reshape(-1) for t in ladder_tiers(trig01, dstar, 3, 1) for u in t])[:-1]
    X1, X2 = g.mesh()
    e = ((X1 - 1j * X2) ** 3 * np.exp(-trig01.value(X1, X2))).reshape(-1)
    Q = np.linalg.qr(rows.T)[0]
    e -= Q @ (Q.conj().T @ e)
    e /= np.sqrt(np.vdot(e, e).real * g.weight)
    near = (np.sqrt(1.0 - s * s) * rows[0] + s * e).reshape(g.n_per_side, -1)

    def tiers(potential, dstar, m_count, max_level):
        *head, last = ladder_tiers(potential, dstar, m_count, max_level)
        yield from head
        yield last[:-1] + [near]

    monkeypatch.setattr(verify, "ladder_tiers", tiers)
    if accepted:
        assert _gram_defect(ladder_level_clusters(trig01, g, 1, m_count=3), g) <= 1e-10
    else:
        with pytest.raises(VerifyError, match="^ladder basis of m_count 3 and max_level 1 "
                           "is rank-deficient on n_per_side 65: lower m_count or "
                           "max_level, or refine the grid$"):
            ladder_level_clusters(trig01, g, 1, m_count=3)


@pytest.mark.parametrize("n, levels, shared", [(49, [0, 1], [2]), (25, [0], [1, 2])],
                         ids=["n49", "n25"])
def test_sweep_warns_when_levels_share_a_label(trig01, n, levels, shared):
    # on these grids an under-resolved level rounds to its neighbour's label,
    # and the clusters that miss the residual guard are excluded
    g = Grid(extent_L=6.5, n_per_side=n)
    with pytest.warns(UserWarning, match="is held by the clusters"), \
            pytest.warns(UserWarning, match="excluded: worst Ritz residual"):
        report = sweep_bounds(trig01, g, max_level=3, m_count=3, restarts=8, seed=0)
    assert [r.level for r in report.rows] == levels
    assert [w.split()[1] for w in report.warnings
            if " is held by the clusters " in w] == [str(s) for s in shared]


def test_sweep_warns_on_cluster_above_max_level(trig01, monkeypatch):
    from landaulab import verify
    ladder = verify.ladder_level_clusters
    # hand the sweep a cluster labelled max_level + 1
    monkeypatch.setattr(verify, "ladder_level_clusters",
                        lambda pot, grid, max_level, **kw: ladder(pot, grid, max_level + 1, **kw))
    g = Grid(extent_L=6.5, n_per_side=97)
    with pytest.warns(UserWarning, match="its label 2 is above max_level 1"):
        report = sweep_bounds(trig01, g, max_level=1, m_count=3, restarts=8, seed=0)
    assert [r.level for r in report.rows] == [0, 1]
    assert len(report.warnings) == 1


def test_sweep_reports_l6_certificates(trig01):
    g = Grid(extent_L=6.5, n_per_side=97)
    report = sweep_bounds(trig01, g, max_level=1, m_count=3, restarts=8, seed=0)
    rows = report.to_dict()["rows"]
    assert len(rows) == 2
    for row in rows:
        assert 0.0 < row["l6_cut_bound"] <= 1e-40
        assert 0 < row["l6_nodes_kept"] < g.size
        assert row["l6_hessian_max"] < 0.0
    assert report.warnings == []


def test_sweep_warns_on_uncertified_maximum(trig01, monkeypatch):
    from landaulab import norms, verify

    def flat(c, **kw):
        res = norms.extremal_l6(c, **kw)
        res.hessian_max = 0.0
        return res

    monkeypatch.setattr(verify, "extremal_l6", flat)
    g = Grid(extent_L=6.5, n_per_side=97)
    with pytest.warns(UserWarning, match="not certified as a strict local maximum"):
        report = sweep_bounds(trig01, g, max_level=0, m_count=3, restarts=8, seed=0)
    assert report.rows[0].l6_hessian_max == 0.0
    assert report.warnings[0].startswith("level 0: the L^6 ascent's tangent Hessian")


def test_lemma_handles_share_unscaled_factors(trig01, monkeypatch):
    from landaulab import operators
    composed = []
    compose = operators._compose
    monkeypatch.setattr(operators, "_compose",
                        lambda label, *a: composed.append(label) or compose(label, *a))
    monkeypatch.setattr(operators, "_unscaled", None)
    g = Grid(extent_L=6.5, n_per_side=65)
    clusters = ladder_level_clusters(trig01, g, 1, m_count=2)
    assert composed == ["D_star", "H"]
    check_energy_lemma(trig01, g, clusters[0])
    ladder_level_clusters(trig01, g, 0, m_count=1)
    # a Ritz vector of this coarse ladder is not an eigenvector to the gauge
    # input's guard
    with pytest.warns(UserWarning, match="above guard"):
        check_gauge_lemma(trig01, g, clusters[0].basis[0], (4 * g.spacing, 0.0))
    assert composed == ["D_star", "H", "A", "B"]
    # another grid gets its own matrices
    ladder_level_clusters(trig01, Grid(extent_L=6.5, n_per_side=67), 0, m_count=1)
    assert composed == ["D_star", "H", "A", "B", "D_star", "H"]


def test_hessian_verdict_does_not_follow_round_off(model):
    # the model's level-0 winner has a flat magnetic-translation direction, so
    # its largest tangent-Hessian eigenvalue is round-off whose sign moves
    # with the grid; the certificate's verdict must not
    verdicts = set()
    for n in (95, 97, 99):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = sweep_bounds(model, Grid(extent_L=6.5, n_per_side=n),
                                  max_level=0, m_count=6, restarts=8, seed=0)
        assert abs(report.rows[0].l6_hessian_max) < 1e-12
        verdicts.add(tuple("not certified" in w for w in report.warnings))
    assert len(verdicts) == 1


def test_sweep_warns_on_unconverged_ascent(trig01, monkeypatch):
    from landaulab import norms
    monkeypatch.setattr(norms, "ASCENT_MAX_ITER", 1)
    g = Grid(extent_L=6.5, n_per_side=97)
    # one BFGS step leaves level 1's winner short of a certified maximum too
    with pytest.warns(UserWarning, match="L\\^6 ascent stopped"), \
            pytest.warns(UserWarning, match="tangent Hessian"):
        report = sweep_bounds(trig01, g, max_level=1, m_count=3, restarts=2, seed=0)
    assert [r.level for r in report.rows] == [0, 1]
    assert not report.rows[1].l6_converged
    assert report.rows[1].l6_iterations == 1
    assert any(w.startswith("level 1: L^6 ascent stopped") for w in report.warnings)


def test_sweep_envelope_guard(model):
    g = Grid(extent_L=4.0, n_per_side=65)
    with pytest.raises(VerifyError):
        sweep_bounds(model, g, max_level=1, m_count=2)


def test_gauge_sups_model(model):
    # grad d_c phi = 2 e_c, and |d_c phi| = 2|x_c| peaks at 4 on B(0, 2)
    for comp in (0, 1):
        hess_sup, grad_sup = _gauge_sups(model, comp)
        assert hess_sup == pytest.approx(2.0, abs=1e-9)
        assert grad_sup == 4.0


def test_gauge_sups_trig(trig01):
    # |grad d_c phi| peaks at 2 + eps where sin(x1) cos(x2) = -1
    for comp in (0, 1):
        hess_sup, _ = _gauge_sups(trig01, comp)
        assert hess_sup == pytest.approx(2.1, abs=1e-5)
