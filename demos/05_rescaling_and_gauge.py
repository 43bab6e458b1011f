"""Exact semiclassical rescaling and the gauge-translation identity.

Rescaling u_h(x) = u(x / sqrt(h)) is implemented as a pure relabeling of the
sample array onto a grid of extent sqrt(h) L, so the norm identities

  ||u_h||_2 = h^(1/2) ||u||_2,  ||u_h||_6 = h^(1/6) ||u||_6,
  ||u_h||_inf = ||u||_inf

hold to round-off. The gauge multiplier T_q conjugates the translated factor
back to an untranslated one up to O(spacing^2), which the refinement study at
the end makes visible.
"""

import numpy as np

from landaulab import (Grid, GridFunction, build_operator, gauge_multiplier,
                       make_potential, norm_triple, rescale)


def translated_factor(u, coeff, h, delta):
    """(h/2) D1 u - (h/2) sym(coeff) u on an (n, n) array, axis 0 = x1:
    the centered difference and the symmetrized neighbor average along x1,
    with zeros outside the grid."""
    def shift_sum(v, sign):
        out = np.zeros_like(v, dtype=complex)
        out[:-1] += v[1:]
        out[1:] += sign * v[:-1]
        return out
    d1 = -1j * shift_sum(u, -1.0) / (2.0 * delta)
    sym = 0.25 * (coeff * shift_sum(u, 1.0) + shift_sum(coeff * u, 1.0))
    return (h / 2) * d1 - (h / 2) * sym


model = make_potential("model_quadratic")
rng = np.random.default_rng(0)

g = Grid(extent_L=3.0, n_per_side=33)
u = GridFunction(rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size), g)
base = norm_triple(u)
print("rescaling identities on a random field:")
for h in (1.0, 0.25, 1.0 / 16.0):
    t = norm_triple(rescale(u, h))
    print(f"  h={h:<7.4f} l2 ratio err {abs(t.l2/base.l2 - h**0.5):.2e}   "
          f"l6 ratio err {abs(t.l6/base.l6 - h**(1/6)):.2e}   "
          f"linf err {abs(t.linf - base.linf):.2e}")

print("\ngauge conjugation T_q^{-1} A~_q T_q vs translated factor (q=(0.6,0.8), h=0.5):")
prev = None
for n in (65, 129, 257):
    h, q = 0.5, (0.6, 0.8)
    gg = Grid(extent_L=np.sqrt(h) * 4.0, n_per_side=n)
    At = build_operator("A_tilde_q", model, gg, h=h, q=q)
    phase = gauge_multiplier(model, gg, h=h, q=q)     # T_q; T_q^{-1} is its conjugate
    X1, X2 = gg.mesh()
    test = np.exp(-(X1**2 + X2**2))
    lhs = np.conj(phase) * At.apply_array(phase * test)
    s = np.sqrt(h)
    coeff = model.grad((X1 + q[0]) / s, (X2 + q[1]) / s)[1] / s
    rhs = translated_factor(test, coeff, h, gg.spacing)
    disc = float(np.max(np.abs(lhs - rhs)))
    note = f"  ({prev / disc:.2f}x down)" if prev else ""
    print(f"  n={n:3d}: max discrepancy {disc:.3e}{note}")
    prev = disc
print("the factor-4 decrease per halving is the second-order consistency of")
print("the discrete identity; in the continuum it is exact")
