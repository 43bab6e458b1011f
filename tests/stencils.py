"""Independent stencil reference for the operators, used only by the tests.

The package defines every operator by its CSR factors. These numpy stencils
on (n, n) arrays (axis 0 = x1) restate the same discretization term by term,
so the tests can check each handle against a second, separately written
definition.
"""

import numpy as np


def d1_stencil(u, delta):
    """-i d/dx1 by the centered difference, zeros outside the grid."""
    out = np.zeros_like(u, dtype=complex)
    out[:-1, :] += u[1:, :]
    out[1:, :] -= u[:-1, :]
    out *= -1j / (2.0 * delta)
    return out


def d2_stencil(u, delta):
    out = np.zeros_like(u, dtype=complex)
    out[:, :-1] += u[:, 1:]
    out[:, 1:] -= u[:, :-1]
    out *= -1j / (2.0 * delta)
    return out


def avg1_stencil(u):
    """Nearest-neighbor average along x1, zeros outside the grid."""
    out = np.zeros_like(u, dtype=complex)
    out[:-1, :] += u[1:, :]
    out[1:, :] += u[:-1, :]
    out *= 0.5
    return out


def avg2_stencil(u):
    out = np.zeros_like(u, dtype=complex)
    out[:, :-1] += u[:, 1:]
    out[:, 1:] += u[:, :-1]
    out *= 0.5
    return out


def coeff_mul(coeff, axis):
    """Multiplication by a real field: sym(c)u = (c avg(u) + avg(c u)) / 2
    along the given axis."""
    avg = avg1_stencil if axis == 1 else avg2_stencil
    return lambda u: 0.5 * (coeff * avg(u) + avg(coeff * u))


def reference_apply(label, potential, grid, h=None, q=None):
    """The stencil form of the named operator, as an (n, n) -> (n, n) map."""
    X1, X2 = grid.mesh()
    tilde = label.endswith("tilde_q")
    if label in ("A", "B", "H", "D", "D_star"):
        # A = D1/2 - (d2 phi)/2, B = D2/2 + (d1 phi)/2, V = lap(phi)/4
        s, r = 0.5, 1.0
        zero = potential.laplacian(X1, X2) / 4.0
    else:
        # h/2 and phi_h(x) = phi(x / sqrt(h)); V = h^2 lap(phi_h)/4 + 1
        s, r = h / 2.0, np.sqrt(h)
        zero = (h / 4.0) * potential.laplacian(X1 / r, X2 / r) + 1.0
    p = q if tilde else (0.0, 0.0)
    g1, g2 = (g / r for g in potential.grad((X1 + p[0]) / r, (X2 + p[1]) / r))
    # the translated factors subtract (d phi_h)(q) through the same average
    k1, k2 = ((float(g) / r for g in potential.grad(p[0] / r, p[1] / r))
              if tilde else (0.0, 0.0))
    mul2, mul1 = coeff_mul(g2, 1), coeff_mul(g1, 2)
    delta = grid.spacing
    A = lambda u: s * (d1_stencil(u, delta) - mul2(u) + k2 * avg1_stencil(u))
    B = lambda u: s * (d2_stencil(u, delta) + mul1(u) - k1 * avg2_stencil(u))
    return {
        "A": A, "A_tilde_q": A, "B": B, "B_tilde_q": B,
        "D": lambda u: 1j * A(u) + B(u),
        "D_star": lambda u: -1j * A(u) + B(u),
    }.get(label, lambda u: A(A(u)) + B(B(u)) - zero * u)
