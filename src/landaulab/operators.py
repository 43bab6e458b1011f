"""Magnetic-Laplacian operators on truncated grids, each one CSR matrix.

Discretization:
  * D_j = -i * second-order centered difference along axis j, Dirichlet
    truncation (ghost zeros outside the grid);
  * coefficient fields entering the first-order factors are applied through a
    symmetrized nearest-neighbor average along the differentiation axis,
      sym(c)u = (c * avg_j(u) + avg_j(c * u)) / 2,
    which is Hermitian, second-order accurate, and makes the per-axis Nyquist
    modulation an exact symmetry of the operator. With plain pointwise
    coefficients that modulation maps the operator onto a companion whose
    factors commute, and the discrete spectrum picks up a dense cloud of
    spurious states filling [-1, 0] at every resolution;
    demos/06_discretization_pathology.py assembles that pointwise stencil
    and shows the cloud.
  * zeroth-order terms (Delta phi / 4, the semiclassical -1) are plain
    diagonal multiplications.

Every handle is its matrix over the flattened grid, composed once when the
handle is built from two first-order CSR factors A, B and one zeroth-order
diagonal V: A and B are the factors themselves, D = iA + B and D* = -iA + B,
and H, P and P~ are A@A + B@B - V. A handle applies as one CSR matvec, and
`assemble_sparse` returns a copy of the same matrix. Unscaled handles
(A, B, H, D, D_star) over one potential object and equal grids share their
matrices (see `build_operator`). All Hermitian-flagged handles are exactly
Hermitian in the uniform-weight discrete inner product, and
H = A@A + B@B - (Delta phi / 4) holds as matrices, so energy identities hold
to round-off for computed eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import Grid, GridFunction
from .potentials import Potential

LABELS = ("A", "B", "H", "P", "A_tilde_q", "B_tilde_q", "P_tilde_q",
          "D", "D_star")

SEMICLASSICAL_LABELS = ("P", "A_tilde_q", "B_tilde_q", "P_tilde_q")
TILDE_LABELS = ("A_tilde_q", "B_tilde_q", "P_tilde_q")
_unscaled = None   # (potential, grid, {label: matrix}) of the last unscaled handles built


class OperatorError(ValueError):
    pass


@dataclass
class OperatorHandle:
    label: str
    grid: Grid
    matrix: sp.csr_matrix   # over the flattened grid
    is_hermitian: bool

    def apply_array(self, u):
        """(n, n) complex array -> (n, n) complex array, one matvec."""
        return (self.matrix @ u.reshape(-1)).reshape(u.shape)

    def apply(self, u: GridFunction) -> GridFunction:
        if u.grid != self.grid:
            raise OperatorError("grid mismatch between operator and argument")
        return GridFunction(self.apply_array(u.as_2d()).reshape(-1), self.grid)


def _factor(grid: Grid, axis: int, coeff, scale: float, const: float):
    """scale * (D_axis + c) as a CSR matrix over the flattened grid.

    c multiplies by the field `coeff` plus the constant `const` through the
    symmetrized neighbor average along `axis`: each neighbor pair (k, l)
    carries (coeff_k + coeff_l)/4 + const/2. Neighbors along axis 1 (x1) are
    n nodes apart, along axis 2 one node apart within a row. No explicit zero
    is stored.
    """
    n = grid.n_per_side
    size = n * n
    off = n if axis == 1 else 1
    c = coeff.ravel()
    d = -1j / (2.0 * grid.spacing)
    mix = 0.25 * (c[:-off] + c[off:]) + 0.5 * const   # pairs (k, k + off)
    lower, upper = scale * (mix - d), scale * (d + mix)
    if axis == 2:
        for v in (lower, upper):
            v[n - 1::n] = 0.0   # (k, k + 1) across a row end is not a pair
    # the DIA to CSR conversion drops the zeros
    return sp.diags([lower, upper], [-off, off], shape=(size, size), format="csr")


# ---------------------------------------------------------------------------
# coefficient fields of the semiclassical potential phi_h(x) = phi(x / sqrt(h)):
#   (d_j phi_h)(x) = h^{-1/2} (d_j phi)(h^{-1/2} x),
#   (lap phi_h)(x) = h^{-1}   (lap phi)(h^{-1/2} x);
# h = 1 gives the unscaled fields exactly.

def _fields(potential, grid, h, q):
    """The (d phi_h)(x + q) fields and the unshifted (lap phi_h)(x) field."""
    X1, X2 = grid.mesh()
    s = np.sqrt(h)
    g1, g2 = potential.grad((X1 + q[0]) / s, (X2 + q[1]) / s)
    lap = potential.laplacian(X1 / s, X2 / s)
    return g1 / s, g2 / s, lap / h


def _grad_at(potential, q, h):
    """(d phi_h)(q) as two floats."""
    s = np.sqrt(h)
    g1, g2 = potential.grad(q[0] / s, q[1] / s)
    return float(g1) / s, float(g2) / s


# ---------------------------------------------------------------------------

def _compose(label, potential, grid, h, q):
    """The label's CSR matrix, composed from A = (s/2)(D1 - d2 phi_s),
    B = (s/2)(D2 + d1 phi_s) and the diagonal V: s = h and V = h^2 lap(phi_h)/4 + 1
    for the semiclassical labels, s = 1 and V = lap(phi)/4 else.
    A translated label takes (d phi_h)(x + q) - (d phi_h)(q) for d phi_s; the
    constant rides the same axis average so that the quadratic-potential
    identity A_tilde_q = A holds exactly on the lattice."""
    semi = label in SEMICLASSICAL_LABELS
    s = h if semi else 1.0
    tilde = label in TILDE_LABELS
    g1, g2, lap = _fields(potential, grid, s, q if tilde else (0.0, 0.0))
    k1, k2 = _grad_at(potential, q, h) if tilde else (0.0, 0.0)
    A, B = _factor(grid, 1, -g2, s / 2.0, k2), _factor(grid, 2, g1, s / 2.0, -k1)
    if label in ("A", "A_tilde_q"):
        return A
    if label in ("B", "B_tilde_q"):
        return B
    if label in ("D", "D_star"):
        # annihilation factor D = iA + B = d_z + (d_z phi), which kills
        # e^{-phi} F(conj z); creation factor D_star = -iA + B, its formal
        # adjoint, so H = D_star ∘ D
        return ((1j if label == "D" else -1j) * A + B).tocsr()
    V = (h * h / 4.0) * lap + 1.0 if semi else lap / 4.0
    return (A @ A + B @ B - sp.diags(V.ravel())).tocsr()


def build_operator(label: str, potential: Potential, grid: Grid,
                   h: float | None = None, q: tuple | None = None) -> OperatorHandle:
    """Construct a handle for one of the named operators, with its CSR matrix.

    An unscaled handle (A, B, H, D, D_star) reuses the matrix of its label
    from the last unscaled handles built when its potential is the same
    object and its grid is equal; a semiclassical handle (P and the tilde
    labels) always composes its own. The record holds one potential and grid,
    so any unscaled build by any caller over other inputs replaces it."""
    global _unscaled
    if label not in LABELS:
        raise OperatorError(f"unknown label {label!r}")
    semi = label in SEMICLASSICAL_LABELS
    if semi:
        if h is None:
            raise OperatorError(f"{label} requires the semiclassical parameter h")
        if not h > 0:
            raise OperatorError(f"h must be positive, got {h}")
    if label in TILDE_LABELS and q is None:
        raise OperatorError(f"{label} requires a translation center q")
    if semi:
        matrix = _compose(label, potential, grid, h, q)
    else:
        if _unscaled is None or _unscaled[0] is not potential or _unscaled[1] != grid:
            _unscaled = (potential, grid, {})
        mats = _unscaled[2]
        if label not in mats:
            mats[label] = _compose(label, potential, grid, h, q)
        matrix = mats[label]
    return OperatorHandle(label=label, grid=grid, matrix=matrix,
                          is_hermitian=label not in ("D", "D_star"))


# ---------------------------------------------------------------------------

MAX_ASSEMBLE_N = 2049


def assemble_sparse(op: OperatorHandle):
    """A copy of the handle's matrix, owned by the caller (guarded by grid size)."""
    if op.grid.n_per_side > MAX_ASSEMBLE_N:
        raise OperatorError(
            f"n_per_side {op.grid.n_per_side} exceeds assembly guard {MAX_ASSEMBLE_N}")
    return op.matrix.copy()


def gauge_multiplier(potential: Potential, grid: Grid, h: float, q: tuple) -> np.ndarray:
    """The (n, n) phase exp(i sigma(x, h^{-1/2} grad phi(h^{-1/2} q))) of the
    unitary multiplication T_q; T_q^{-1} multiplies by its conjugate.

    sigma(x, xi) = x2 xi1 - x1 xi2. With h = 1 this is the small-eigenvalue
    variant exp(i sigma(x, grad phi(q))).
    """
    if not h > 0:
        raise OperatorError(f"h must be positive, got {h}")
    xi1, xi2 = _grad_at(potential, q, h)
    X1, X2 = grid.mesh()
    return np.exp(1j * (X2 * xi1 - X1 * xi2))
