"""Uniform truncated square grids and complex grid functions.

Conventions used throughout the package:
  * the domain is [-L, L]^2 sampled at n_per_side points per axis (n odd, so
    the origin is a node); spacing = 2L/(n-1);
  * grid functions are stored flat, row-major over (x1, x2): index i1*n + i2;
  * values are implicitly zero outside the grid (Dirichlet truncation);
  * the discrete L^2 inner product uses the uniform weight spacing^2 at every
    node, in norms, operators and eigensolvers alike, and every sum of it over
    nodes is `l2_sums`, whose order no BLAS thread count moves.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

ENVELOPE_THRESHOLD = 1e-10   # Grid.check_envelope's bound on boundary exp(-phi)
RANK_TOL = 1e-2              # gram_cholesky's rank rule; its docstring says why


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    extent_L: float
    n_per_side: int

    def __post_init__(self):
        if self.n_per_side < 9 or self.n_per_side % 2 == 0:
            raise GridError(f"n_per_side must be odd and >= 9, got {self.n_per_side}")
        if self.extent_L <= 0:
            raise GridError(f"extent_L must be positive, got {self.extent_L}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent_L / (self.n_per_side - 1)

    @property
    def weight(self) -> float:
        """Quadrature weight per node."""
        return self.spacing**2

    @property
    def size(self) -> int:
        return self.n_per_side**2

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent_L, self.extent_L, self.n_per_side)

    def mesh(self):
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def node_shift(self, q):
        """q in whole node spacings (ints), or None if it is > 1e-9 spacings off a node."""
        s = [c / self.spacing for c in q]
        if any(abs(c - round(c)) > 1e-9 for c in s):
            return None
        return tuple(int(round(c)) for c in s)

    def check_envelope(self, potential) -> bool:
        """True when exp(-phi) < ENVELOPE_THRESHOLD on the whole boundary."""
        x = self.axis()
        L = np.full_like(x, self.extent_L)
        vals = []
        for bx1, bx2 in ((L, x), (-L, x), (x, L), (x, -L)):
            vals.append(np.exp(-potential.value(bx1, bx2)))
        return bool(np.max(vals) < ENVELOPE_THRESHOLD)


@dataclass
class GridFunction:
    values: np.ndarray  # complex, flat, length n^2, row-major over (x1, x2)
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        if self.values.size != self.grid.size:
            raise GridError(
                f"value count {self.values.size} does not match grid size {self.grid.size}")

    def as_2d(self) -> np.ndarray:
        """(n, n) view, axis 0 = x1, axis 1 = x2."""
        n = self.grid.n_per_side
        return self.values.reshape(n, n)

    def on_class(self, p: int, q: int):
        """Values on the node parity class (i mod 2, j mod 2) = (p, q), or
        None where they are all zero."""
        rows = self.as_2d()[p::2, q::2]
        return rows if rows.any() else None


class SublatticeFunction(GridFunction):
    """A grid function that is zero off the node parity class (p, q), stored
    only there: `rows` holds its values at (i, j) = (p + 2a, q + 2b).
    `.values` and `.as_2d()` return a fresh zero-padded full-grid array,
    read-only so that an in-place write fails instead of going into a copy."""

    def __init__(self, rows, parity: tuple, grid: Grid):
        p, q = parity
        n = grid.n_per_side
        self.rows = np.asarray(rows, dtype=complex).reshape(
            len(range(p, n, 2)), len(range(q, n, 2)))
        self.parity, self.grid = (p, q), grid

    @property
    def values(self) -> np.ndarray:
        return self.as_2d().reshape(-1)

    def as_2d(self) -> np.ndarray:
        n = self.grid.n_per_side
        full = np.zeros((n, n), dtype=complex)
        full[self.parity[0]::2, self.parity[1]::2] = self.rows
        full.flags.writeable = False
        return full

    def on_class(self, p: int, q: int):
        return self.rows if (p, q) == self.parity else None


def l2_sums(F, G=None) -> np.ndarray:
    """Re sum conj(F) G, or sum |F|^2 when G is None, over the last (node) axis
    of a complex vector or row stack; times `Grid.weight`, the discrete L^2
    product's real part or squared norm. The package's one such sum: a numpy
    einsum over the float64 (re, im) pairs in an order fixed by the shapes,
    with no BLAS call: a BLAS dot product splits a long sum by thread count."""
    X = F.view(np.float64)
    return np.einsum("...i,...i->...", X, X if G is None else G.view(np.float64))


def inner(f: GridFunction, g: GridFunction) -> complex:
    """Discrete L^2 inner product, conjugate-linear in f: Re <f, g> + i Re <if, g>."""
    if f.grid != g.grid:
        raise GridError("inner product requires a common grid")
    return complex(l2_sums(f.values, g.values), l2_sums(1j * f.values, g.values)) * f.grid.weight


def l2_norm(f: GridFunction) -> float:
    return float(np.sqrt(l2_sums(f.values) * f.grid.weight))


def gram_cholesky(B, weight: float):
    """Lower Cholesky factor L of the weighted Gram matrix G = conj(B) B^T weight
    of the rows of a (k, N) stack B, from one GEMM and a k x k factor:
    G = L L^H, and the rows of conj(L)^{-1} B are orthonormal (B = conj(L) Q,
    as Gram-Schmidt gives).

    L_ii is the distance of row i from the span of the rows before it. A row
    with L_ii <= RANK_TOL |b_i|, or a G that is not numerically positive
    definite, raises `GridError`. RANK_TOL is not Gram-Schmidt's 1e-10:
    rounded to about eps, G resolves L_ii only to about sqrt(eps) |b_i|. At
    1e-2, G's rounding reaches conj(L)^{-1} B (and the ladder's Ritz vectors)
    amplified by |L^{-1}|^2, about 2 / RANK_TOL^2 = 2e4 for one row near the
    others' span, which stays far inside 1e-10."""
    B = np.asarray(B, dtype=complex)
    G = (B.conj() @ B.T) * weight
    try:
        L = np.linalg.cholesky(G)
        full_rank = np.all(L.diagonal().real > RANK_TOL * np.sqrt(G.diagonal().real))
    except np.linalg.LinAlgError:
        full_rank = False
    if not full_rank:
        raise GridError("rank-deficient basis in orthonormalization")
    return L


mgs_orthonormalize = gram_cholesky   # the name the benchmark's layer timer wraps


# ---------------------------------------------------------------------------
# semiclassical rescaling: exact sample relabeling, no interpolation

def rescale(u: GridFunction, h: float) -> GridFunction:
    """Relabel samples of u(x) as u_h(x) = u(x / sqrt(h)) on the grid of
    extent sqrt(h) * L. Nodes map exactly (same sample values, new
    coordinates and quadrature weight), so the norm identities
      ||u_h||_2 = h^{1/2} ||u||_2,  ||u_h||_6 = h^{1/6} ||u||_6,
      ||u_h||_inf = ||u||_inf
    hold to round-off.
    """
    if not h > 0:
        raise GridError(f"h must be positive, got {h}")
    new_grid = Grid(extent_L=u.grid.extent_L * np.sqrt(h), n_per_side=u.grid.n_per_side)
    return GridFunction(u.values.copy(), new_grid)


# ---------------------------------------------------------------------------
# serialization: CSV of (x1, x2, Re u, Im u) + JSON sidecar

def save_grid_function(u: GridFunction, path: str) -> None:
    # the bytes np.savetxt writes (header, then "%.18e" rows). Row i1*n + i2
    # has x1, x2 = axis[i1], axis[i2], so the n axis values are formatted once
    # into the row template and one % fills in only (Re u, Im u), and only on
    # the node parity classes that hold values: a class that is all +0.0 gets
    # the text of +0.0 in the template (a -0.0 keeps its sign, so its class is
    # formatted). The rows of one x1 are x1 + x1.join(tails[i1 % 2]): n
    # strings, not n^2
    full = u.as_2d()
    stored = np.array([[u.on_class(p, q) is not None
                        or np.signbit(full[p::2, q::2].real).any()
                        or np.signbit(full[p::2, q::2].imag).any()
                        for q in (0, 1)] for p in (0, 1)])
    ax = ["%.18e" % x for x in u.grid.axis().tolist()]
    zeros = "%.18e,%.18e\n" % (0.0, 0.0)
    tails = [[f",{x2}," + ("%.18e,%.18e\n" if stored[p, j % 2] else zeros)
              for j, x2 in enumerate(ax)] for p in (0, 1)]
    template = "".join([x1 + x1.join(tails[i % 2]) for i, x1 in enumerate(ax)])
    parity = np.arange(u.grid.n_per_side) % 2
    re_im = full[stored[np.ix_(parity, parity)]].view(np.float64)
    atomic_write_text(path, "x1,x2,re_u,im_u\n" + template % tuple(re_im.tolist()))
    meta = {"extent_L": u.grid.extent_L, "n_per_side": u.grid.n_per_side, "format": "csv"}
    atomic_write_text(path + ".meta.json", json.dumps(meta, sort_keys=True) + "\n")


def atomic_write_text(path: str, text: str) -> None:
    """Write to a temp name in the same directory, then rename. An `OSError`
    of either step raises `GridError` naming `path`."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise GridError(f"output {path!r} cannot be written: {exc}") from exc
