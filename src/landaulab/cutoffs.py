"""Smooth radial cutoffs: beta = 1 on the unit disk, 0 outside radius 2.

The radial profile is the standard exp(-1/t) glue, so beta is C^infinity,
radially non-increasing, and 0 <= beta <= 1. The wide variant
beta_tilde(x) = beta(x/2) equals 1 on the support of beta. Derivative sup
norms are measured once on a fine one-dimensional reference mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .grid import Grid, GridFunction


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


def _profile_sups(profile, samples: int = 400001):
    r = np.linspace(0.5, 2.5, samples)
    dr = r[1] - r[0]
    psi = profile(r)
    dpsi = np.gradient(psi, dr)
    d2psi = np.gradient(dpsi, dr)
    sup_grad = float(np.abs(dpsi).max())
    sup_lap = float(np.abs(d2psi + dpsi / r).max())
    return sup_grad, sup_lap


@lru_cache(maxsize=1)
def profile_sup_norms(samples: int = 400001):
    """(sup |psi'|, sup |Delta beta|) for the shipped bump, measured on a
    fine 1-d mesh. |grad beta| = |psi'(r)| and Delta beta = psi'' + psi'/r;
    both extremes live in 1 <= r <= 2."""
    return _profile_sups(bump_profile, samples)


def _radial(profile, q, grid: Grid, scale: float = 1.0) -> GridFunction:
    """profile(|x - q| / scale) on the grid's nodes."""
    x = grid.axis()
    r = np.sqrt((x[:, None] - q[0]) ** 2 + (x[None, :] - q[1]) ** 2)
    return GridFunction(profile(r / scale).astype(complex).reshape(-1), grid)


@dataclass
class Cutoff:
    center: tuple
    beta: GridFunction        # beta_q on the grid
    sup_d1: float             # sup |D1 beta| = sup |d1 beta|
    sup_d2: float
    sup_lap: float            # sup |Delta beta|
    profile: Callable = field(repr=False)   # the radial profile psi

    @cached_property
    def beta_tilde(self) -> GridFunction:
        """beta_tilde_q = beta((x - q)/2), evaluated on first access."""
        return _radial(self.profile, self.center, self.beta.grid, 2.0)


def make_cutoff(q, grid: Grid, profile=None) -> Cutoff:
    """Cutoff centered at q; an alternative admissible radial profile (1 on
    r<=1, 0 on r>=2) may be supplied, e.g. bump_profile squared."""
    if profile is None:
        profile = bump_profile
        sup_grad, sup_lap = profile_sup_norms()
    else:
        sup_grad, sup_lap = _profile_sups(profile)
    center = (float(q[0]), float(q[1]))
    # |d_j beta| = |psi'(r)| |x_j - q_j| / r <= |psi'(r)|, attained on the axis
    return Cutoff(center=center, beta=_radial(profile, center, grid),
                  sup_d1=sup_grad, sup_d2=sup_grad, sup_lap=sup_lap,
                  profile=profile)


def lattice_window(grid: Grid, margin: float = 2.0):
    """Integer lattice points q with dist(q, boundary) >= margin."""
    reach = int(np.floor(grid.extent_L - margin))
    pts = []
    for q1 in range(-reach, reach + 1):
        for q2 in range(-reach, reach + 1):
            pts.append((float(q1), float(q2)))
    return pts


def overlap_sup_factors(grid: Grid, margin: float = 2.0):
    """Finite-overlap factors for the summed cutoff inequality:
    sup-norms of sum_q |Delta beta_q|^2 and sum_q |d_j beta_q|^2 over the
    integer-lattice window, computed from the actual bump.

    Each center is evaluated only on the box of nodes within 2 + dr of it in
    both coordinates: every node outside lies beyond the bump's support at
    the difference step dr, where each term is exactly 0."""
    x = grid.axis()
    n = grid.n_per_side
    s_lap = np.zeros((n, n))
    s_d1 = np.zeros((n, n))
    s_d2 = np.zeros((n, n))
    eps = 1e-9
    dr = 1e-6
    for q in lattice_window(grid, margin):
        lo1, hi1, lo2, hi2 = np.searchsorted(
            x, [q[0] - 2.0 - dr, q[0] + 2.0 + dr, q[1] - 2.0 - dr, q[1] + 2.0 + dr])
        box = (slice(lo1, hi1 + 1), slice(lo2, hi2 + 1))
        x1 = x[box[0], None] - q[0]
        x2 = x[None, box[1]] - q[1]
        rr = np.maximum(np.sqrt(x1 ** 2 + x2 ** 2), eps)
        psi_in, psi, psi_out = (bump_profile(rr - dr), bump_profile(rr),
                                bump_profile(rr + dr))
        dpsi = (psi_out - psi_in) / (2 * dr)
        d2psi = (psi_out - 2 * psi + psi_in) / dr**2
        lap = d2psi + dpsi / rr
        s_lap[box] += lap**2
        s_d1[box] += (dpsi * x1 / rr) ** 2
        s_d2[box] += (dpsi * x2 / rr) ** 2
    return (float(np.sqrt(s_lap.max())), float(np.sqrt(s_d1.max())),
            float(np.sqrt(s_d2.max())))
