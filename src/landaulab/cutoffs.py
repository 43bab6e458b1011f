"""Smooth radial cutoffs: beta = 1 on the unit disk, 0 outside radius 2.

The radial profile is the standard exp(-1/t) glue, so beta is C^infinity,
radially non-increasing, and 0 <= beta <= 1. The profile's first two
derivatives have a closed form; the derivative sup norms, the same for every
cutoff, sample it on a fine one-dimensional mesh, and the summed overlap
factors evaluate it on the grid.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import Grid, GridFunction

# beta_q vanishes outside the disk of this radius around q, so it is also
# the margin a center keeps from the box boundary
SUPPORT_RADIUS = 2.0
PROFILE_SAMPLES = 20001     # mesh of profile_sup_norms on 1 <= r <= 2


def smooth_step(t):
    """1 for t <= 0, 0 for t >= 1, exp(-1/t)-glued in between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t <= 0.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    with np.errstate(over="ignore"):
        fa = np.exp(-1.0 / (1.0 - tm))
        fb = np.exp(-1.0 / tm)
    out[mid] = fa / (fa + fb)
    return out


def bump_profile(r):
    """psi(r): 1 for r <= 1, 0 for r >= 2, smooth and non-increasing."""
    return smooth_step(np.asarray(r, dtype=float) - 1.0)


def bump_derivatives(r):
    """(psi'(r), psi''(r)) in closed form, exactly 0 outside 1 < r < 2.

    With t = r - 1, f = smooth_step(t) = 1 / (1 + e^g), g = 1/(1-t) - 1/t:
    psi' = -f(1-f) g' and psi'' = -psi'(1-2f) g' - f(1-f) g'', where
    g' = 1/t^2 + 1/(1-t)^2 and g'' = 2/(1-t)^3 - 2/t^3. In terms of g alone,
    f(1-f) = e / (1+e)^2 with e = exp(-|g|) <= 1 (no overflow) and
    1 - 2f = tanh(g/2)."""
    t = np.asarray(r, dtype=float) - 1.0
    d1 = np.zeros_like(t)
    d2 = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    a = 1.0 / t[mid]
    b = 1.0 / (1.0 - t[mid])
    g = b - a
    e = np.exp(-np.abs(g))
    ff = e / (1.0 + e) ** 2
    g1 = a * a + b * b
    d1[mid] = -ff * g1
    d2[mid] = ff * g1 * g1 * np.tanh(0.5 * g) - 2.0 * ff * (b**3 - a**3)
    return d1, d2


@lru_cache(maxsize=1)
def profile_sup_norms():
    """(sup |psi'|, sup |Delta beta|) for the bump, sampled from the closed
    form on 1 <= r <= 2 (outside it both vanish). |grad beta| = |psi'(r)|,
    largest (= 2) at r = 1.5, and Delta beta = psi'' + psi'/r."""
    r = np.linspace(1.0, 2.0, PROFILE_SAMPLES)
    d1, d2 = bump_derivatives(r)
    return float(np.abs(d1).max()), float(np.abs(d2 + d1 / r).max())


def cutoff_rows(q, grid: Grid, r0: int, r1: int) -> np.ndarray:
    """beta_q = bump_profile(|x - q|) on grid rows r0:r1, a real (r1 - r0, n) array."""
    x = grid.axis()
    r = np.sqrt((x[r0:r1, None] - q[0]) ** 2 + (x[None, :] - q[1]) ** 2)
    return bump_profile(r)


def make_cutoff(q, grid: Grid) -> GridFunction:
    """beta_q = bump_profile(|x - q|) on the grid's nodes."""
    return GridFunction(cutoff_rows(q, grid, 0, grid.n_per_side).astype(complex).reshape(-1), grid)


def center_inside(q, grid: Grid) -> bool:
    """Whether center q keeps the lemma checks' margin: max |q_i| <= extent_L - SUPPORT_RADIUS."""
    return max(abs(q[0]), abs(q[1])) <= grid.extent_L - SUPPORT_RADIUS


def lattice_window(grid: Grid):
    """The integer lattice points q that are `center_inside` the grid's box."""
    span = range(-int(grid.extent_L), int(grid.extent_L) + 1)
    return [(float(q1), float(q2)) for q1 in span for q2 in span
            if center_inside((q1, q2), grid)]


def overlap_square_sums(grid: Grid):
    """The (n, n) fields sum_q |Delta beta_q|^2, sum_q |d_1 beta_q|^2 and
    sum_q |d_2 beta_q|^2 over the integer-lattice window, from the bump's
    closed-form derivatives.

    Each center is evaluated only on the box of nodes within SUPPORT_RADIUS
    of it in both coordinates: every node outside lies beyond the bump's
    support, where each term is exactly 0."""
    x = grid.axis()
    n = grid.n_per_side
    s_lap = np.zeros((n, n))
    s_d1 = np.zeros((n, n))
    s_d2 = np.zeros((n, n))
    for q in lattice_window(grid):
        lo1, hi1, lo2, hi2 = np.searchsorted(
            x, [q[0] - SUPPORT_RADIUS, q[0] + SUPPORT_RADIUS,
                q[1] - SUPPORT_RADIUS, q[1] + SUPPORT_RADIUS])
        box = (slice(lo1, hi1), slice(lo2, hi2))
        x1 = x[box[0], None] - q[0]
        x2 = x[None, box[1]] - q[1]
        # the derivatives vanish for r <= 1: clipping r there keeps 1/r finite
        rr = np.maximum(np.sqrt(x1 ** 2 + x2 ** 2), 1.0)
        dpsi, d2psi = bump_derivatives(rr)
        s_lap[box] += (d2psi + dpsi / rr) ** 2
        s_d1[box] += (dpsi * x1 / rr) ** 2
        s_d2[box] += (dpsi * x2 / rr) ** 2
    return s_lap, s_d1, s_d2


def overlap_sup_factors(grid: Grid):
    """Finite-overlap factors for the summed cutoff inequality: the sup
    norms of the square roots of the `overlap_square_sums` fields."""
    return tuple(float(np.sqrt(s.max())) for s in overlap_square_sums(grid))
