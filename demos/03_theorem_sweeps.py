"""Per-level extremal norm sweeps: the two main bounds at desk scale.

For each potential the sweep builds level bases from the analytic null space
(exp(-phi) conj(z)^m is annihilated exactly for every potential here) raised
by the creation factor and refined by Rayleigh-Ritz, then measures

  ratio_linf  = sup of ||u||_inf / ||u||_2 over the level's eigenspace,
  scaled_l6   = lambda^(1/3) * sup of ||u||_6 / ||u||_2  (levels >= 1).

Boundedness of the first column across levels is the desk-scale content of
the sup-norm bound; boundedness of the second is the improved-L^6 bound.
Most of the run time goes to the L^6 extremizer: a BFGS maximization from
k + 8 starts per level, advanced together so that each step evaluates every
running start in one call. A start stops when its gradient is below tolerance,
after 500 steps, or when its line search can no longer raise the ratio; a
level whose winning start did not converge is listed under the warnings.
"""

from landaulab import Grid, make_potential, sweep_bounds

grid = Grid(extent_L=6.5, n_per_side=161)

for kind, params in (("model_quadratic", []),
                     ("quadratic_plus_trig", [0.1]),
                     ("quadratic_plus_gaussian_bump", [0.1])):
    potential = make_potential(kind, params)
    report = sweep_bounds(potential, grid, max_level=4, m_count=9, restarts=8, seed=0)
    print(f"\n=== {kind} {tuple(params)} ===")
    print("level  lambda^2   dim   ratio_linf   ratio_l6   scaled_l6")
    for r in report.rows:
        print(f"  {r.level}    {r.lambda_sq:+8.4f}   {r.cluster_dim:2d}   "
              f"{r.ratio_linf:9.5f}   {r.ratio_l6:8.5f}   {r.scaled_l6:8.5f}")
    t1, t2 = report.theorem1, report.theorem2
    print(f"sup-norm bound:  max {t1.max_value:.5f} <= {t1.bound:.5f}, "
          f"slope {t1.slope:+.5f}  -> {'PASS' if t1.passed else 'FAIL'}")
    print(f"L^6 bound:       max {t2.max_value:.5f} <= {t2.bound:.5f}, "
          f"slope {t2.slope:+.5f}  -> {'PASS' if t2.passed else 'FAIL'}")
    for w in report.warnings:
        print(f"  warning: {w}")
