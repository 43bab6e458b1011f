import numpy as np
import pytest

from landaulab import Grid, bump_profile, make_cutoff, smooth_step
from landaulab.cutoffs import lattice_window, overlap_sup_factors, profile_sup_norms


def test_smooth_step_endpoints():
    assert smooth_step(-1.0) == 1.0
    assert smooth_step(0.0) == 1.0
    assert smooth_step(1.0) == 0.0
    assert smooth_step(2.0) == 0.0
    mid = smooth_step(np.linspace(0.01, 0.99, 100))
    assert np.all((mid >= 0) & (mid <= 1))


def test_bump_support():
    r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    b = bump_profile(r)
    assert b[0] == b[1] == b[2] == 1.0
    assert 0.0 < b[3] < 1.0
    assert b[4] == b[5] == 0.0


def test_bump_monotone_on_transition():
    r = np.linspace(1.0, 2.0, 2001)
    psi = bump_profile(r)
    assert np.all(np.diff(psi) <= 1e-15)


def test_cutoff_values(model):
    g = Grid(extent_L=6.0, n_per_side=121)
    q = (1.0, 0.0)
    cut = make_cutoff(q, g)
    beta = cut.beta.as_2d().real
    x = g.axis()
    iq = np.argmin(np.abs(x - 1.0))
    i0 = np.argmin(np.abs(x - 0.0))
    assert beta[iq, i0] == 1.0                       # beta_q(q) = 1
    i25 = np.argmin(np.abs(x - 3.5))                 # distance 2.5 from q
    assert beta[i25, i0] == 0.0
    # beta_tilde = 1 at distance 1.9 (it is 1 out to distance 2)
    bt = cut.beta_tilde.as_2d().real
    i19 = np.argmin(np.abs(x - 2.9))
    assert bt[i19, i0] == 1.0
    # beta_tilde = 1 on supp beta
    assert np.all(bt[beta > 0] == 1.0)
    assert np.all((beta >= 0) & (beta <= 1))


def test_profile_sup_norms_sane():
    sup_grad, sup_lap = profile_sup_norms()
    assert 1.5 < sup_grad < 3.0
    assert 5.0 < sup_lap < 20.0


def test_squared_profile_sups_differ():
    from landaulab.cutoffs import _profile_sups
    sq = lambda r: bump_profile(r) ** 2
    g1, l1 = profile_sup_norms()
    g2, l2 = _profile_sups(sq)
    assert g2 != pytest.approx(g1, rel=1e-3)


def test_lattice_window(model):
    g = Grid(extent_L=6.0, n_per_side=21)
    pts = lattice_window(g, margin=2.0)
    assert (0.0, 0.0) in pts
    assert all(max(abs(p[0]), abs(p[1])) <= 4.0 for p in pts)
    assert len(pts) == 81  # 9 x 9 integer points


def test_overlap_sup_factors_finite(model):
    g = Grid(extent_L=5.0, n_per_side=41)
    s_lap, s_d1, s_d2 = overlap_sup_factors(g)
    g1, l1 = profile_sup_norms()
    # finite overlap: summed squares exceed a single bump but stay bounded
    assert l1 <= s_lap < 4 * l1
    assert g1 <= s_d1 < 4 * g1
    assert abs(s_d1 - s_d2) < 1e-6


def _overlap_sup_factors_full_grid(grid, margin=2.0):
    """Reference: every lattice center evaluated on the whole grid."""
    X1, X2 = grid.mesh()
    s_lap = np.zeros_like(X1)
    s_d1 = np.zeros_like(X1)
    s_d2 = np.zeros_like(X1)
    eps = 1e-9
    for q in lattice_window(grid, margin):
        r = np.sqrt((X1 - q[0]) ** 2 + (X2 - q[1]) ** 2)
        rr = np.maximum(r, eps)
        dr = 1e-6
        dpsi = (bump_profile(rr + dr) - bump_profile(rr - dr)) / (2 * dr)
        d2psi = (bump_profile(rr + dr) - 2 * bump_profile(rr) + bump_profile(rr - dr)) / dr**2
        lap = d2psi + dpsi / rr
        s_lap += lap**2
        s_d1 += (dpsi * (X1 - q[0]) / rr) ** 2
        s_d2 += (dpsi * (X2 - q[1]) / rr) ** 2
    return (float(np.sqrt(s_lap.max())), float(np.sqrt(s_d1.max())),
            float(np.sqrt(s_d2.max())))


@pytest.mark.parametrize("extent, n", [(10.0 * np.sqrt(0.5), 129),
                                       (10.0 * np.sqrt(0.25), 129),
                                       (10.0 * np.sqrt(0.125), 257),
                                       (5.0, 41)])   # nodes exactly at radius 2
def test_overlap_sup_factors_window_is_exact(extent, n):
    g = Grid(extent_L=extent, n_per_side=n)
    assert overlap_sup_factors(g) == _overlap_sup_factors_full_grid(g)


def test_beta_tilde_evaluated_on_first_access(model):
    g = Grid(extent_L=6.0, n_per_side=41)
    grid_calls = []

    def profile(r):
        if np.ndim(r) == 2:
            grid_calls.append(r.copy())
        return bump_profile(r)

    cut = make_cutoff((1.0, -0.5), g, profile=profile)
    assert len(grid_calls) == 1
    ref = make_cutoff((1.0, -0.5), g)
    assert np.array_equal(cut.beta.values, ref.beta.values)
    bt = cut.beta_tilde
    assert len(grid_calls) == 2
    assert np.array_equal(grid_calls[1], grid_calls[0] / 2.0)
    assert np.array_equal(bt.values, ref.beta_tilde.values)
    assert cut.beta_tilde is bt and len(grid_calls) == 2
