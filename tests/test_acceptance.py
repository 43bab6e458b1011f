"""Acceptance suite: one test per quantitative criterion, one summary line each.

Shared heavy computations (the pinned low-spectrum solve, the three potential
sweeps, the oracle-band solve) run once per session. Criterion 1 exercises the
exact pinned configuration; see notes on the discrete operator's low spectrum
in the README before interpreting its outcome.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from landaulab import (Grid, GridFunction, build_operator, check_cutoff_lemma,
                       cluster, eigenpairs_near, gauge_multiplier, inner,
                       l2_norm, ladder_level_clusters, lowest_eigenpairs,
                       make_potential, norm_triple, null_state,
                       principal_angles, rescale, sweep_bounds)
from landaulab.cli import main as cli_main
from landaulab.eigensolve import EigenCluster
from landaulab.verify import check_energy_lemma

# 193 nodes per side resolve the level-5 ladder states of all three shipped
# potentials (worst Ritz residual ~0.36, inside the exclusion guard)
SWEEP_GRID = Grid(extent_L=6.5, n_per_side=193)
SWEEP_KW = dict(max_level=5, m_count=9, restarts=8, seed=0)

POTENTIALS = {
    "model_quadratic": make_potential("model_quadratic"),
    "quadratic_plus_trig": make_potential("quadratic_plus_trig", [0.1]),
    "quadratic_plus_gaussian_bump": make_potential("quadratic_plus_gaussian_bump", [0.1]),
}


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def pinned_solve():
    """Criterion-1 pinned configuration: model, [-6,6]^2, 129^2, k=12, tol=1e-6."""
    model = POTENTIALS["model_quadratic"]
    grid = Grid(extent_L=6.0, n_per_side=129)
    H = build_operator("H", model, grid)
    t0 = time.time()
    pairs = lowest_eigenpairs(H, k=12, tol=1e-6, seed=0)
    elapsed = time.time() - t0
    clusters = cluster(pairs, cluster_tol=0.25)
    return model, grid, pairs, clusters, elapsed


@pytest.fixture(scope="session")
def sweeps():
    out = {}
    for kind, pot in POTENTIALS.items():
        out[kind] = sweep_bounds(pot, SWEEP_GRID, **SWEEP_KW)
    return out


@pytest.fixture(scope="session")
def oracle_band_solve():
    """Band-covering interior solve used for the oracle subspace comparison."""
    model = POTENTIALS["model_quadratic"]
    grid = Grid(extent_L=5.2, n_per_side=257)
    H = build_operator("H", model, grid)
    oracle = [null_state(m, grid) for m in range(6)]
    rays = [inner(u, H.apply(u)).real / l2_norm(u) ** 2 for u in oracle]
    sigma = float(np.mean(rays))
    pairs = eigenpairs_near(H, k=130, sigma=sigma, tol=1e-6, seed=0)
    return grid, pairs, oracle


def test_criterion_1_landau_level_reproduction(pinned_solve):
    _, _, pairs, clusters, elapsed = pinned_solve
    targets = [0.0, 2.0, 4.0]
    means = [c.mean for c in clusters[:3]]
    ok_runtime = elapsed <= 300.0
    ok_clusters = (len(clusters) >= 3
                   and all(abs(m - t) <= 0.05 for m, t in zip(means, targets)))
    ok = ok_runtime and ok_clusters
    _line(1, ok, f"clusters={len(clusters)} means={['%.3f' % m for m in means]} "
                 f"vs {targets} (runtime {elapsed:.0f}s)")
    assert ok_runtime
    # Known limitation of the pinned configuration: at 129^2 on [-6,6]^2 the
    # k=12 lowest eigenvalues of the discrete operator are under-resolved
    # box-corner states near -0.5..-0.3, and the ~72-fold Landau degeneracy of
    # level 0 in this box means k=12 could never reach levels 1 and 2 even on
    # an ideal grid. The criterion is asserted as stated; see the README's
    # "Known limitations" and demos/06_discretization_pathology.py.
    assert ok_clusters, (
        f"pinned 129^2 solve returns {len(clusters)} cluster(s) with means "
        f"{means}; the Landau pattern {{0, 2, 4}} is not reproducible at "
        "k=12 on this box (see README: level-0 degeneracy ~ 72 states, "
        "plus under-resolved corner states below the physical band)")


def test_criterion_2_theorem1_surrogate(sweeps):
    ok = True
    details = []
    for kind, report in sweeps.items():
        t1 = report.theorem1
        levels = [r.level for r in report.rows]
        this = (levels == [0, 1, 2, 3, 4, 5]) and t1 is not None and t1.passed
        ok = ok and this
        details.append(f"{kind}: max={t1.max_value:.4f}<=bound={t1.bound:.4f}, "
                       f"slope={t1.slope:+.4f}")
    _line(2, ok, "; ".join(details))
    assert ok


def test_criterion_3_level0_anchor(sweeps):
    row0 = sweeps["model_quadratic"].rows[0]
    target = math.sqrt(2.0 / math.pi)
    rel = abs(row0.ratio_linf - target) / target
    ok = rel <= 0.02
    _line(3, ok, f"level-0 ratio_linf={row0.ratio_linf:.5f} vs sqrt(2/pi)={target:.5f} "
                 f"(rel {rel:.2%})")
    assert ok


def test_criterion_4_theorem2_surrogate(sweeps):
    ok = True
    details = []
    for kind, report in sweeps.items():
        t2 = report.theorem2
        this = t2 is not None and t2.passed
        ok = ok and this
        details.append(f"{kind}: max={t2.max_value:.4f}<=bound={t2.bound:.4f}, "
                       f"slope={t2.slope:+.4f}")
    _line(4, ok, "; ".join(details))
    assert ok


def test_criterion_5_rescaling_identities():
    rng = np.random.default_rng(11)
    g = Grid(extent_L=3.0, n_per_side=33)
    u = GridFunction(rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size), g)
    base = norm_triple(u)
    worst = 0.0
    for h in (1.0, 0.25, 1.0 / 16.0):
        t = norm_triple(rescale(u, h))
        worst = max(worst,
                    abs(t.l2 / base.l2 - h**0.5) / h**0.5,
                    abs(t.l6 / base.l6 - h ** (1 / 6)) / h ** (1 / 6),
                    abs(t.linf - base.linf) / base.linf)
    ok = worst <= 1e-12
    _line(5, ok, f"worst relative identity error {worst:.2e} over h in {{1, 1/4, 1/16}}")
    assert ok


def _conjugation_discrepancy(model, n, h, q):
    g = Grid(extent_L=np.sqrt(h) * 4.0, n_per_side=n)
    At = build_operator("A_tilde_q", model, g, h=h, q=q)
    T = gauge_multiplier(model, g, h=h, q=q)
    X1, X2 = g.mesh()
    test = np.exp(-(X1**2 + X2**2))
    lhs = np.conj(T) * At.apply_array(T * test)
    s = np.sqrt(h)
    g2s = model.grad((X1 + q[0]) / s, (X2 + q[1]) / s)[1] / s
    from stencils import coeff_mul, d1_stencil
    mul = coeff_mul(g2s, 1)
    rhs = (h / 2.0) * d1_stencil(test.astype(complex), g.spacing) - (h / 2.0) * mul(test)
    return float(np.max(np.abs(lhs - rhs)))


def test_criterion_6_gauge_conjugation_rate():
    model = POTENTIALS["model_quadratic"]
    d = {n: _conjugation_discrepancy(model, n, 0.5, (0.6, 0.8))
         for n in (65, 129, 257)}
    r1 = d[65] / d[129]
    r2 = d[129] / d[257]
    ok = 3.4 <= r1 <= 4.6 and 3.4 <= r2 <= 4.6
    _line(6, ok, f"max-norm discrepancy refinement factors {r1:.2f}, {r2:.2f} "
                 "(want 4 +/- 15%)")
    assert ok


def test_criterion_7_energy_identity(pinned_solve, oracle_band_solve):
    model, grid, pairs, _, _ = pinned_solve
    grid2, pairs2, _ = oracle_band_solve
    worst = 0.0
    count = 0
    for g, prs in ((grid, pairs), (grid2, pairs2[:20])):
        for lam, u, _ in prs:
            c1 = EigenCluster(label=0, eigenvalues=[lam], basis=[u], residuals=[0.0])
            row = check_energy_lemma(model, g, c1)[0]
            worst = max(worst, row.detail["rel_err"])
            count += 1
    ok = worst <= 1e-3
    _line(7, ok, f"worst |Au|^2+|Bu|^2 vs <(lap/4 + lambda^2)u,u> relative error "
                 f"{worst:.2e} over {count} computed eigenpairs")
    assert ok


def test_criterion_8_cutoff_lemma_rate():
    model = POTENTIALS["model_quadratic"]
    src = Grid(extent_L=10.0, n_per_side=257)
    lhs_values = []
    bounds_ok = True
    hs = (0.5, 0.25, 0.125)
    for h in hs:
        level = round(1.0 / (2.0 * h))
        clusters = ladder_level_clusters(model, src, level, m_count=1)
        uh = rescale(clusters[-1].basis[0], h)
        rows = check_cutoff_lemma(model, uh.grid, uh, h, centers=[(1.5, 0.0)],
                                  p_residual_guard=0.1)
        row = [r for r in rows if r.lemma_id == "cutoff_sup_q"][0]
        lhs_values.append(row.lhs / l2_norm(uh))
        bounds_ok = bounds_ok and row.lhs <= 1.05 * row.rhs
    slope = float(np.polyfit(np.log(hs), np.log(lhs_values), 1)[0])
    ok = bounds_ok and 0.85 <= slope <= 1.15
    _line(8, ok, f"||P beta_q u_h|| log-log slope {slope:.3f} (want 1 +/- 0.15); "
                 f"explicit-constant bound {'holds' if bounds_ok else 'fails'} at each h")
    assert ok


def test_criterion_9_solver_certification(pinned_solve, oracle_band_solve):
    _, _, pairs, _, _ = pinned_solve
    grid, band_pairs, oracle = oracle_band_solve
    res_ok = all(r <= 1e-6 * max(1.0, abs(lam)) for lam, _, r in pairs)
    res_ok &= all(r <= 1e-6 * max(1.0, abs(lam)) for lam, _, r in band_pairs)
    angles = principal_angles([p[1] for p in band_pairs], oracle)
    max_angle = float(np.max(angles))
    ang_ok = max_angle <= 1e-2
    ok = res_ok and ang_ok
    _line(9, ok, f"residual certificates {'ok' if res_ok else 'VIOLATED'}; "
                 f"oracle n=0 containment angle {max_angle:.2e} rad (want <= 1e-2)")
    assert ok


def test_criterion_10_reproducibility(tmp_path):
    cfg = {
        "potential": {"kind": "model_quadratic", "params": []},
        "grid": {"extent_L": 6.5, "n_per_side": 129},
        "sweep": {"max_level": 2, "restarts": 8, "m_count": 5},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        code = cli_main(["bounds", "--config", str(path), "--out", out, "--seed", "3"])
        assert code == 0
        outs.append(open(os.path.join(out, "bounds.csv"), "rb").read())
    ok = outs[0] == outs[1]
    _line(10, ok, f"two bounds runs: {len(outs[0])} bytes each, "
                  f"{'byte-identical' if ok else 'DIFFER'}")
    assert ok
