"""Magnetic-Laplacian operators on truncated grids, defined by CSR factors.

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

Every built handle is defined by its two first-order factors A, B, stored as
CSR factor matrices over the flattened grid, and one zeroth-order diagonal V,
built with the handle. Unscaled handles (A, B, H, D, D_star) over one potential
object and equal grids share one set (see `build_operator`). A and B apply
as one CSR matvec each, D = iA + B and D* = -iA + B as two, and H, P and P~
as A(Au) + B(Bu) - V u. `assemble_sparse` composes the same factors,
A@A + B@B - V. All Hermitian-flagged handles are exactly Hermitian in the
uniform-weight discrete inner product, and H = A∘A + B∘B - (Delta phi / 4)
holds as composed maps, so energy identities hold to round-off for computed
eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .grid import Grid, GridFunction
from .potentials import Potential

LABELS = ("A", "B", "H", "P", "A_tilde_q", "B_tilde_q", "P_tilde_q",
          "D", "D_star")

SEMICLASSICAL_LABELS = ("P", "A_tilde_q", "B_tilde_q", "P_tilde_q")
TILDE_LABELS = ("A_tilde_q", "B_tilde_q", "P_tilde_q")
_unscaled = None   # Factors of the last unscaled handle built; build_operator reuses them


class OperatorError(ValueError):
    pass


@dataclass
class OperatorHandle:
    label: str
    grid: Grid
    apply_array: Callable  # (n, n) complex array -> (n, n) complex array
    is_hermitian: bool
    sparse_builder: Optional[Callable] = None
    factors: Optional["Factors"] = None

    def apply(self, u: GridFunction) -> GridFunction:
        if u.grid != self.grid:
            raise OperatorError("grid mismatch between operator and argument")
        return GridFunction(self.apply_array(u.as_2d()).reshape(-1), self.grid)


class Factors:
    """`mats` = (A, B, V): the CSR first-order factors of A∘A + B∘B - V and its (n, n)
    diagonal V, built from `key` = (potential, grid, h, q)."""

    def __init__(self, key: tuple, mats: tuple):
        self.key = key
        self.mats = mats

    def A(self, u):
        return (self.mats[0] @ u.reshape(-1)).reshape(u.shape)

    def B(self, u):
        return (self.mats[1] @ u.reshape(-1)).reshape(u.shape)

    def square(self, u):
        """A(Au) + B(Bu) - V u."""
        A, B, V = self.mats
        x = u.reshape(-1)
        return (A @ (A @ x) + B @ (B @ x)).reshape(u.shape) - V * u

    def strip(self, r0: int, r1: int) -> "Factors":
        """A[s, s], B[s, s] and V[r0:r1], s = slice(r0 n, r1 n): the factors on
        grid rows r0:r1, each kept row's stored entries in their order."""
        A, B, V = self.mats
        s = slice(r0 * V.shape[1], r1 * V.shape[1])
        return Factors(self.key, (A[s, s], B[s, s], V[r0:r1]))

    def square_matrix(self):
        A, B, V = self.mats
        return (A @ A + B @ B - sp.diags(V.ravel())).tocsr()


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

def _build_mats(label, potential, grid, h, q):
    """(A, B, V) with A = (s/2)(D1 - d2 phi_s), B = (s/2)(D2 + d1 phi_s): s = h and
    V = h^2 lap(phi_h)/4 + 1 for the semiclassical labels, s = 1 and V = lap(phi)/4 else.
    A translated label takes (d phi_h)(x + q) - (d phi_h)(q) for d phi_s; the
    constant rides the same axis average so that the quadratic-potential
    identity A_tilde_q = A holds exactly on the lattice."""
    semi = label in SEMICLASSICAL_LABELS
    s = h if semi else 1.0
    tilde = label in TILDE_LABELS
    g1, g2, lap = _fields(potential, grid, s, q if tilde else (0.0, 0.0))
    k1, k2 = _grad_at(potential, q, h) if tilde else (0.0, 0.0)
    V = (h * h / 4.0) * lap + 1.0 if semi else lap / 4.0
    return (_factor(grid, 1, -g2, s / 2.0, k2), _factor(grid, 2, g1, s / 2.0, -k1), V)


def build_operator(label: str, potential: Potential, grid: Grid,
                   h: float | None = None, q: tuple | None = None) -> OperatorHandle:
    """Construct a handle for one of the named operators, with its CSR factors.

    An unscaled handle (A, B, H, D, D_star) reuses the factors of the last
    unscaled handle built when its potential is the same object and its grid
    is equal; a semiclassical handle (P and the tilde labels) always builds
    its own. The record holds one set, so any unscaled build by any caller
    over other inputs replaces it."""
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
    key = (potential, grid, h if semi else None,
           tuple(map(float, q)) if label in TILDE_LABELS else None)
    f = _unscaled
    if f is None or f.key[0] is not potential or f.key[1:] != key[1:]:
        f = Factors(key, _build_mats(label, potential, grid, h, q))
        if not semi:
            _unscaled = f
    if label in ("A", "A_tilde_q"):
        apply, sparse = f.A, lambda: f.mats[0].copy()
    elif label in ("B", "B_tilde_q"):
        apply, sparse = f.B, lambda: f.mats[1].copy()
    elif label in ("D", "D_star"):
        # annihilation factor D = iA + B = d_z + (d_z phi), which kills
        # e^{-phi} F(conj z); creation factor D_star = -iA + B, its formal
        # adjoint, so H = D_star ∘ D
        c = 1j if label == "D" else -1j
        apply = lambda u: c * f.A(u) + f.B(u)
        sparse = lambda: (c * f.mats[0] + f.mats[1]).tocsr()
    else:
        apply, sparse = f.square, f.square_matrix
    return OperatorHandle(label=label, grid=grid, apply_array=apply,
                          is_hermitian=label not in ("D", "D_star"),
                          sparse_builder=sparse, factors=f)


# ---------------------------------------------------------------------------

MAX_ASSEMBLE_N = 2049


def assemble_sparse(op: OperatorHandle):
    """Sparse matrix representation of a handle (guarded by grid size)."""
    if op.grid.n_per_side > MAX_ASSEMBLE_N:
        raise OperatorError(
            f"n_per_side {op.grid.n_per_side} exceeds assembly guard {MAX_ASSEMBLE_N}")
    if op.sparse_builder is None:
        raise OperatorError(f"handle {op.label!r} carries no sparse builder")
    return op.sparse_builder()


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
