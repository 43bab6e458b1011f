import numpy as np
import pytest

from landaulab import Grid, bump_profile, make_cutoff, smooth_step
from landaulab.cutoffs import (bump_derivatives, lattice_window,
                               overlap_square_sums, overlap_sup_factors,
                               profile_sup_norms)


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
    beta = make_cutoff(q, g).as_2d()
    assert np.all(beta.imag == 0.0)
    beta = beta.real
    x = g.axis()
    iq = np.argmin(np.abs(x - 1.0))
    i0 = np.argmin(np.abs(x - 0.0))
    assert beta[iq, i0] == 1.0                       # beta_q(q) = 1
    i25 = np.argmin(np.abs(x - 3.5))                 # distance 2.5 from q
    assert beta[i25, i0] == 0.0
    assert np.all((beta >= 0) & (beta <= 1))


def test_profile_sup_norms_sane():
    sup_grad, sup_lap = profile_sup_norms()
    assert 1.5 < sup_grad < 3.0
    assert 5.0 < sup_lap < 20.0


def test_bump_derivatives_match_central_differences():
    r = np.linspace(1.02, 1.98, 481)
    d = 1e-5
    d1, d2 = bump_derivatives(r)
    fd1 = (bump_profile(r + d) - bump_profile(r - d)) / (2 * d)
    fd2 = (bump_profile(r + d) - 2 * bump_profile(r) + bump_profile(r - d)) / d**2
    np.testing.assert_allclose(d1, fd1, rtol=0, atol=1e-8)
    np.testing.assert_allclose(d2, fd2, rtol=0, atol=2e-5)


def test_bump_gradient_peak_is_two_at_midpoint():
    # t = 1/2: f = 1/2, g' = 8, so psi' = -f(1-f)g' = -2 exactly
    assert bump_derivatives(1.5)[0] == -2.0
    r = np.linspace(1.0, 2.0, 100001)
    d1 = np.abs(bump_derivatives(r)[0])
    assert d1.max() == 2.0 and r[d1.argmax()] == 1.5


def test_profile_sup_norms_closed_form():
    sup_grad, sup_lap = profile_sup_norms()
    assert sup_grad == 2.0
    # the numeric-gradient estimate this replaced read these values
    assert sup_grad == pytest.approx(1.99999999988, rel=1e-6)
    assert sup_lap == pytest.approx(10.4968964, rel=1e-6)


def test_bump_derivatives_vanish_off_the_transition():
    r = np.array([0.0, 0.5, 1.0, 2.0, 2.5, 10.0])
    d1, d2 = bump_derivatives(r)
    assert np.all(d1 == 0.0) and np.all(d2 == 0.0)
    ends = np.array([np.nextafter(1.0, 2.0), np.nextafter(2.0, 1.0)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        d1, d2 = bump_derivatives(ends)
    assert np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))


def test_lattice_window(model):
    g = Grid(extent_L=6.0, n_per_side=21)
    pts = lattice_window(g)
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


def _overlap_square_sums_full_grid(grid):
    """Reference: the three summed fields, every lattice center evaluated
    on the whole grid."""
    X1, X2 = grid.mesh()
    s_lap = np.zeros_like(X1)
    s_d1 = np.zeros_like(X1)
    s_d2 = np.zeros_like(X1)
    for q in lattice_window(grid):
        rr = np.maximum(np.sqrt((X1 - q[0]) ** 2 + (X2 - q[1]) ** 2), 1.0)
        dpsi, d2psi = bump_derivatives(rr)
        s_lap += (d2psi + dpsi / rr) ** 2
        s_d1 += (dpsi * (X1 - q[0]) / rr) ** 2
        s_d2 += (dpsi * (X2 - q[1]) / rr) ** 2
    return s_lap, s_d1, s_d2


def _overlap_sup_factors_by_differences(grid):
    """Independent reference: derivatives of bump_profile by central
    differences of step 1e-6 on the whole grid."""
    X1, X2 = grid.mesh()
    s_lap = np.zeros_like(X1)
    s_d1 = np.zeros_like(X1)
    s_d2 = np.zeros_like(X1)
    dr = 1e-6
    for q in lattice_window(grid):
        rr = np.maximum(np.sqrt((X1 - q[0]) ** 2 + (X2 - q[1]) ** 2), 1e-9)
        dpsi = (bump_profile(rr + dr) - bump_profile(rr - dr)) / (2 * dr)
        d2psi = (bump_profile(rr + dr) - 2 * bump_profile(rr) + bump_profile(rr - dr)) / dr**2
        s_lap += (d2psi + dpsi / rr) ** 2
        s_d1 += (dpsi * (X1 - q[0]) / rr) ** 2
        s_d2 += (dpsi * (X2 - q[1]) / rr) ** 2
    return (float(np.sqrt(s_lap.max())), float(np.sqrt(s_d1.max())),
            float(np.sqrt(s_d2.max())))


@pytest.mark.parametrize("extent, n", [(10.0 * np.sqrt(0.5), 129),
                                       (10.0 * np.sqrt(0.25), 129),
                                       (10.0 * np.sqrt(0.125), 257),
                                       (5.0, 41)])   # nodes exactly at radius 2
def test_overlap_sup_factors_window_is_exact(extent, n):
    # the fields themselves, not only their maxima: a box that drops nodes
    # where the sums are nonzero but not maximal changes a field entry
    g = Grid(extent_L=extent, n_per_side=n)
    ref = _overlap_square_sums_full_grid(g)
    for field, full in zip(overlap_square_sums(g), ref):
        assert np.array_equal(field, full)
    assert overlap_sup_factors(g) == tuple(float(np.sqrt(f.max())) for f in ref)


@pytest.mark.parametrize("extent, n", [(10.0, 257), (5.0, 41)])
def test_overlap_sup_factors_match_differences(extent, n):
    g = Grid(extent_L=extent, n_per_side=n)
    np.testing.assert_allclose(overlap_sup_factors(g),
                               _overlap_sup_factors_by_differences(g), rtol=1e-5)
