"""Lemma-level inequality checks with their explicit constants.

Three families:
  * the energy identity ||Au||^2 + ||Bu||^2 = <(lap phi/4 + lambda^2) u, u>,
    exact for computed eigenpairs because the discretization keeps A, B
    Hermitian and H composed from them;
  * the cutoff bound ||P(beta_q u_h)|| <= h (h/4 |lap beta| +
    sqrt(h/4 |lap phi| + 1)(|d1 beta| + |d2 beta|)) ||u_h||, with its O(h)
    rate across h = 1/2, 1/4, 1/8;
  * the translation-gauge bound on A(e^{i sigma} beta u_{-q}).
"""

import numpy as np

from landaulab import (Grid, check_cutoff_lemma, check_energy_lemma,
                       check_gauge_lemma, l2_norm, ladder_level_clusters,
                       make_potential, rescale)

model = make_potential("model_quadratic")

print("-- energy identity on Ritz eigenpairs (levels 0..2) --")
grid = Grid(extent_L=6.5, n_per_side=129)
clusters = ladder_level_clusters(model, grid, 2, m_count=4)
for c in clusters:
    rows = check_energy_lemma(model, grid, c)
    worst = max(r.detail["rel_err"] for r in rows)
    print(f"  level {c.label}: {len(rows)} states, worst relative error {worst:.2e}")

print("\n-- cutoff bound and its O(h) rate (q = (1.5, 0)) --")
src = Grid(extent_L=10.0, n_per_side=257)
lhs_per_h = []
for h in (0.5, 0.25, 0.125):
    level = round(1.0 / (2.0 * h))
    cl = ladder_level_clusters(model, src, level, m_count=1)
    uh = rescale(cl[-1].basis[0], h)
    rows = check_cutoff_lemma(model, uh.grid, uh, h, centers=[(1.5, 0.0)],
                              p_residual_guard=0.1)
    sup = [r for r in rows if r.lemma_id == "cutoff_sup_q"][0]
    summed = [r for r in rows if r.lemma_id == "cutoff_l2_q"][0]
    lhs_per_h.append(sup.lhs / l2_norm(uh))
    print(f"  h={h:5.3f}: lhs={sup.lhs:.4f} <= bound={sup.rhs:.4f}  "
          f"(summed-over-q: {summed.lhs:.4f} <= {summed.rhs:.4f})")
slope = np.polyfit(np.log([0.5, 0.25, 0.125]), np.log(lhs_per_h), 1)[0]
print(f"  log-log slope in h: {slope:.3f} (the lemma's O(h) rate)")

print("\n-- translation-gauge bound at q = (2, 0) --")
g2 = Grid(extent_L=6.0, n_per_side=121)
cl0 = ladder_level_clusters(model, g2, 0, m_count=1)
ground = cl0[0].basis[0]
for row in check_gauge_lemma(model, g2, ground, (2.0, 0.0)):
    print(f"  {row.lemma_id}: lhs={row.lhs:.4f} <= chain={row.rhs:.4f} "
          f"-> {'ok' if row.passed else 'violated'}")
