"""Sparse Hermitian eigensolves and near-degenerate clustering.

The solver assembles the operator once and shift-inverts at a real sigma
(`lowest_eigenpairs` uses -1 only as a shift: A^2 + B^2 >= 0 holds exactly,
so H >= -max(lap phi)/4, -1 - eps/2 for trig, and the slice's counts make
the returned pairs the lowest). It factors H - sigma I itself, once, with
SuperLU under the minimum-degree ordering of A^T + A (the stencil matrix is
structurally symmetric, and this ordering has far less fill than the default
COLAMD) in its symmetric mode, which pivots on the diagonal unless a diagonal
entry is below 0.001 of its column's largest, and hands the factor's solve
to ARPACK. Diagonal pivots keep the Hermitian structure (less fill than
partial pivoting), and only with them does U's diagonal carry the inertia of
H - sigma I; the `diagonal_pivots` fact says whether every pivot stayed there.
The Krylov basis holds `arnoldi_ncv(k, N)` vectors. Every returned pair is
certified by recomputing its residual on the assembled complex matrix of its
block, by one sparse product on its stored row and `grid.l2_sums`; this is
independent of the LU and of ARPACK. Results are deterministic for a fixed
seed (the seed fixes the Krylov start vector).

Both solvers solve each invariant block of the assembled matrix on its own.
When the matrix stores no entry linking two of the four node parity classes
(i mod 2, j mod 2), which holds for every `build_operator` handle, H is
block-diagonal over them and its spectrum is the union of the four block
spectra (`sublattice_blocks`), and each eigenvector is supported on one
sublattice.

Real symmetric parts. The magnetic field breaks complex conjugation K as a
symmetry of H, but when phi(x1, -x2) = phi(x1, x2), as for every shipped
kind, the antiunitary T = R∘K, with R the reflection x2 -> -x2, has T^2 = 1
and commutes with H: H is in the orthogonal class of Dyson's threefold way,
and a block is real symmetric in the coordinates of its T-invariant vectors
(e_a on the axis, (e_a + e_Ra)/sqrt 2 and i (e_a - e_Ra)/sqrt 2 for a node
pair). A block that is already real (K itself commutes with it) keeps its
own coordinates, and one with neither symmetry (R conj(H) R and conj(H)
each differ from H by more than `FOLD_TOL` of its largest entry) raises
`SolverError` before any factor. A radial phi (the model, the bump) makes
two node maps symmetries too, each tested on the block's matrix as T is:
the inversion J: (i, j) -> (n-1-i, n-1-j), and the quarter turn C: (i, j)
-> (j, n-1-i), which squares to J. `_parts` applies them in turn, R (through
T), then J, then C, each through `_halves` of a signed involution: J splits
a block into its even and odd sectors, u(-x) = +-u(x), and C each sector of
blocks (0, 0) and (1, 1), which it maps onto themselves, into two quarters
(on an odd sector the involution is -i C, as C^2 = -1 there); every trig
block stays one part. Each part has an isometry Q and a real symmetric form
S = Re(Q^H H Q), the first from the complex block, each later one as
E^T S E from its parent's. C maps block (0, 1) onto block (1, 0): when it
maps the one's matrix onto the other's, block (1, 0)'s parts are twins of
block (0, 1)'s, with no form, count, factor or Krylov run of their own; their
pairs are (0, 1)'s Ritz pairs unfolded through its isometries with their
rows moved by C (times i on an odd sector). Each part that is no twin gets
a real LU and a run of ARPACK's symmetric Lanczos driver on S, whose Ritz
vectors are orthonormal and stay in the part's real coordinates until the
k pairs to return are chosen; only those come back as eigenvectors Q x,
which Q keeps orthonormal (the complex inner product of two T-invariant
vectors is real); under T they satisfy u(x1, -x2) = conj(u(x1, x2)). Each
pair, a twin's too, is certified on its own block's assembled matrix, and k
is at most the sum over the parts of their size - 2.

The solvers differ only in how many pairs each part is asked for.
`eigenpairs_near` asks each part for its share of k plus `BLOCK_MARGIN`
pairs and keeps the k eigenvalues nearest sigma over all parts. A part
whose farthest returned eigenvalue is not beyond the k-th distance may hold
more of them, so it is solved once more for k + `BLOCK_MARGIN` pairs; if
that still falls short the solve raises `SolverError`, and `BlockLimitError`
when the part returned its size - 2.

Spectrum slicing. `lowest_eigenpairs` first finds a shift tau below which
the parts hold at least k eigenvalues together, counting each part's by
Sylvester's law of inertia on a factor of its real form S - tau I (a twin
repeats its source's count, with no factor; `_slice`,
after Ericsson & Ruhe, Math. Comp. 35, 1980, and Grimes, Lewis & Simon,
SIMAX 15, 1994). Each part is then asked for exactly its count c of pairs;
a part with c = 0 gets no factor at sigma and no Krylov run. A
single-vector Krylov solve can skip copies of an exactly degenerate
eigenvalue, so a part that returns fewer than c eigenvalues below tau is
solved once more for c + `BLOCK_MARGIN` pairs, and a part whose count still
differs raises `SolverError` (and a c above the part's size - 2,
`BlockLimitError`, before any Krylov run). The k lowest over all parts are
kept, so every returned eigenvalue lies below a counted tau.

Memory: one LU is alive at a time. The handle keeps its own matrix; the
assembled copy is freed once the blocks are sliced, each count factor once
its pivots are read, and each solve's LU once its Krylov run is read.
Between the slicing and the certificate everything is real: the parts'
forms, which stay alive through the solve (a part solved again refactors
its own; a twin shares its source's), their LUs and their Lanczos vectors,
freed after the last part that reads them (a twin reads its source's).
A sector's form, once C has split it, goes when `_parts` returns, and every
part's form before the first kept vector is unfolded. Each kept vector is
unfolded once, into the complex row that is normalized and certified; a
returned pair that is not kept is never unfolded. A proper block's
eigenvectors are `SublatticeFunction`s stored on its parity class, so no
full-grid copy of one is made; `principal_angles` reads them one parity
class at a time.

States below the band: H = A^2 + B^2 - V takes its ghost zeros on the
factors, so at a boundary node of an even parity class a diagonal entry of
A^2 or B^2 holds one neighbour's term only, a Neumann-type closure (block
(0, 0) on all four sides, (0, 1) and (1, 0) on two; (1, 1) is Dirichlet).
A magnetic Laplacian with a Neumann boundary has edge states at Theta_0 B,
Theta_0 ~ 0.5901, and right-angle corner states near 0.51 B, which for
H = ((p - a)^2 - B) / 4 with B = lap phi = 4 sit at Theta_0 - 1 ~ -0.41 and
about -0.49: these are the lowest eigenvalues on a box. Refining the grid
does not remove them (block (0, 0)'s lowest at L = 6 reads -0.5079 at 65^2
and -0.4986 at 161^2); `resolution_warning`, which tests |grad phi| *
spacing / 2 > 0.5 and names under-resolution, is silent on fine grids.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import GridError, GridFunction, SublatticeFunction, gram_cholesky, l2_sums
from .operators import OperatorHandle, assemble_sparse

MAX_K = 200
MIN_TOL = 1e-8
# largest |R conj(H) R - H| (or |conj(H) - H|) over the largest |H| entry for
# which a block has a real symmetric form (np.linspace's last-bit asymmetry
# gives about 2e-16)
FOLD_TOL = 1e-12


class SolverError(RuntimeError):
    pass


class BlockLimitError(SolverError, ValueError):
    """k asks an invariant part for more pairs than its size - 2, the most a
    Lanczos solve of it returns: a usage error (a `ValueError`, exit 1 from
    the CLI) that library callers still catch as a `SolverError`."""


def resolution_warning(potential, grid) -> str | None:
    """Non-empty message when the box corners are under-resolved."""
    xi = potential.grad_sup_norm(np.sqrt(2.0) * grid.extent_L)
    band = 0.5 * xi * grid.spacing
    if band > 0.5:
        return (f"coefficient momentum x spacing = {band:.2f} > 0.5: lowest "
                "eigenvalues will include under-resolved boundary-region states "
                "displaced below the physical band")
    return None


def gap_groups(values, gap):
    """Index arrays of the maximal runs of nondecreasing `values` whose
    consecutive gaps are <= the scalar gap."""
    breaks = np.flatnonzero(np.diff(values) > float(gap))
    return np.split(np.arange(len(values)), breaks + 1)


def arnoldi_ncv(k: int, n: int) -> int:
    """Krylov basis size for k eigenpairs of an n x n matrix.

    scipy's default max(2k+1, 20) up to k = 15; beyond that k + 16, because
    a larger basis costs more dense Krylov work without saving many solves.
    A scan of the constant c in k + c over the split Lanczos shift-invert
    solves of the model potential on [-5.2, 5.2]^2 (sigma at the mean
    Rayleigh quotient of the oracle states, seed 3) counted these
    shift-invert solves, over the ten solved parts (eight quarters asked
    for 14 pairs and two sectors for 22 at 257^2; 12 and 18 at 161^2):

        grid, k            c = 12   c = 16   c = 20
        257^2, k = 130     346      358      366
        161^2, k = 100     274      285      291

    Over the eight inversion sectors (22 pairs each at 257^2, 18 at 161^2)
    the counts were 316, 320, 344 and 260, 280, 304, and over the four
    whole sublattice blocks (38 pairs each at 257^2) 228, 220, 236 and 245,
    237, 245; c = 16 is kept until a paired `run_s` measurement favours
    another. Never more than n.
    """
    return min(max(min(2 * k + 1, k + 16), 20), n)


def sublattice_blocks(mat, n_side: int) -> list:
    """Node index arrays of the invariant blocks of an assembled grid matrix.

    The four parity classes (i mod 2, j mod 2) of the nodes, in that order,
    when `mat` stores no entry linking two classes; otherwise one block of
    all nodes. With averaged coefficients every term of A shifts axis 1 by
    exactly one node and every term of B shifts axis 2 by one, so
    H = A^2 + B^2 - lap(phi)/4 (and P, P~) never links two classes.
    """
    def parity(node):
        return 2 * (node // n_side % 2) + node % n_side % 2

    coo = mat.tocoo()
    nodes = np.arange(mat.shape[0])
    if np.any(parity(coo.row) != parity(coo.col)):
        return [nodes]
    labels = parity(nodes)
    return [np.flatnonzero(labels == c) for c in range(4)]


def _halves(d, s):
    """(E+, E-): real isometries onto the +1 and -1 eigenspaces of the signed
    involution M e_c = s_c e_d(c) (s = +-1, d(d(c)) = c). E+- has a column
    (e_c +- s_c e_d)/sqrt 2 for each pair c < d(c), and e_c for each c = d(c)
    with s_c = +-1, in the order of c; each row holds at most one entry."""
    c = np.arange(len(d))
    first, second, fixed = c < d, c > d, c == d
    w = np.where(fixed, 1.0, np.sqrt(0.5))

    def half(parity):
        keep = first | (fixed & (s == parity))
        col, row = np.cumsum(keep) - 1, keep | second
        return sp.csr_matrix((np.where(second, parity * s[d] * w, w)[row],
                              np.where(second, col[d], col)[row],
                              np.concatenate([[0], np.cumsum(row)])), shape=(len(c), col[-1] + 1))

    return half(1), half(-1)


def _moved(mat, to):
    """mat[to][:, to] for a permutation `to` of mat's rows, with the column
    indices of mat[to] renamed in place of a column slice."""
    rows, back = mat[to], np.empty_like(to)
    back[to] = np.arange(len(to))
    return sp.csr_matrix((rows.data, back[rows.indices], rows.indptr), shape=mat.shape)


def _largest(mat) -> float:
    """Largest |entry| of a sparse matrix, 0 for one with none stored."""
    return float(np.abs(mat.data).max(initial=0.0))


def _parts(sub, nodes, n_side: int):
    """[(S, Q, parity, quarter)] of the parts of the block matrix `sub` over
    the sorted grid `nodes` (all nodes, or one parity class): each part's
    isometry Q and real symmetric form S = Re(Q^H sub Q). A node map is a
    symmetry when it maps `nodes` onto themselves and `sub[to][:, to]`
    equals `sub` to FOLD_TOL of its largest entry.

    T = R∘K comes first: Q = [E+, i E-] from the `_halves` of R: (i, j) ->
    (i, n-1-j), or the identity for a real `sub`; `SolverError` when neither
    holds. J, then C, split every part while each is a symmetry: M = Q^H
    Q[to] (times -i on a J-odd part, where C^2 = -1) is a real signed
    involution, whose `_halves` E+- give the halves Q E+- with forms E+-^T S
    E+- and their sign as `parity` (J) or `quarter` (C), None for a split
    not made. A part whose M is no signed permutation stays whole."""
    i, j = np.divmod(nodes, n_side)
    m, size, scale = n_side - 1, len(nodes), _largest(sub)
    at = np.full(n_side * n_side, -1)
    at[nodes] = np.arange(size)
    r = at[i * n_side + m - j]
    t_defect = _largest(_moved(sub, r) - sub.conj())
    if t_defect <= FOLD_TOL * scale:
        even, odd = _halves(r, np.ones(size))
        Q = sp.hstack([even, 1j * odd], format="csr")
    else:
        k_defect = _largest(sub - sub.conj())
        if k_defect > FOLD_TOL * scale:
            raise SolverError(
                f"the {size}-node block commutes with neither T = R∘K "
                f"(|R conj(H) R - H| / max|H| = {t_defect / scale:.1e}) nor K "
                f"(|conj(H) - H| / max|H| = {k_defect / scale:.1e}) to FOLD_TOL = {FOLD_TOL:g}: "
                "the eigensolvers need phi(x1, -x2) = phi(x1, x2) or a real matrix")
        Q = sp.identity(size, format="csr")
    prod = Q.conj().T.tocsr() @ sub @ Q
    parts = [(sp.csr_matrix((prod.data.real.copy(), prod.indices, prod.indptr), shape=prod.shape), Q, ())]
    for to in (at[(m - i) * n_side + m - j], at[j * n_side + m - i]):
        if to.min() < 0 or _largest(_moved(sub, to) - sub) > FOLD_TOL * scale:
            break
        parts, whole = [], parts
        for S, Q, signs in whole:
            M = ((-1j if signs[-1:] == (-1,) else 1) * (Q.conj().T.tocsr() @ Q[to])).real
            M.data[abs(M.data) < 0.5] = 0.0   # the cancelled terms of a pair
            M.eliminate_zeros()
            halves = _halves(M.indices, np.sign(M.data)) if np.all(np.diff(M.indptr) == 1) else []
            parts += [(E.T.tocsr() @ S @ E, Q @ E, signs + (sign,))
                      for E, sign in zip(halves, (1, -1))] or [(S, Q, signs)]
    return [(S, Q, *(signs + (None, None))[:2]) for S, Q, signs in parts]


def _factor(mat, shift: float):
    """SuperLU factor of mat - shift I under the minimum-degree ordering of
    A^T + A, in symmetric mode (diagonal pivots unless a diagonal entry is
    below 0.001 of its column's largest)."""
    try:
        return spla.splu((mat - shift * sp.identity(mat.shape[0], format="csr")).tocsc(),
                         permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.001,
                         options={"SymmetricMode": True})
    except (RuntimeError, MemoryError) as exc:
        raise SolverError(f"LU factorization of H - {shift:g} I failed: {exc}") from exc


def _shift_invert(S, sigma: float, seed: int, k: int):
    """(eigenvalues, Ritz vectors, solve facts) of the k eigenpairs nearest
    sigma of the real symmetric matrix S, by ARPACK's Lanczos shift-invert
    on S from the Krylov start vector of `RandomState(seed)` with an
    `arnoldi_ncv(k, n)` basis for S's size n. The vectors are the rows of a
    real (k, n) array, orthonormal, copied once the LU is freed: the copy can
    take the LU's memory, where ARPACK's array would sit above it and keep
    it resident."""
    n = S.shape[0]
    ncv = arnoldi_ncv(k, n)
    lu = _factor(S, sigma)
    solves = 0

    def apply(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    v0 = np.random.RandomState(seed).standard_normal(n)
    try:
        vals, vecs = spla.eigsh(
            S, k=k, sigma=sigma, which="LM", v0=v0, ncv=ncv,
            OPinv=spla.LinearOperator(S.shape, matvec=apply, dtype=S.dtype))
    except spla.ArpackNoConvergence as exc:
        raise SolverError(
            f"eigensolver did not converge within the iteration budget: {exc}") from exc
    except (RuntimeError, MemoryError) as exc:
        raise SolverError(f"shift-invert eigensolve failed: {exc}") from exc
    facts = {"ncv": ncv, "op_solves": solves, "lu_fill_nnz": int(lu.nnz),
             "diagonal_pivots": bool(np.array_equal(lu.perm_r, lu.perm_c))}
    del lu
    return vals, vecs.T.copy(), facts


# pairs asked of a part beyond its share of k, or beyond its count when a
# lowest solve repeats it; the slice stops bisecting within this many per
# solved part
BLOCK_MARGIN = 5


def _slice(parts, k: int, sigma: float, tol: float, twin) -> dict:
    """{tau, counts, factors}: a shift tau above sigma below which the real
    symmetric matrices `parts` hold at least k eigenvalues together, each
    part's count and the factors taken. A part p with `twin[p]` not None
    shares the spectrum of that earlier part: it repeats its count and takes
    no factor. Every other part, a solved one, counts the negative
    diagonal entries of U in a factor of part - tau I (Sylvester's law of
    inertia), valid only when every pivot stayed on the diagonal (`perm_r ==
    perm_c`). tau brackets upward from sigma + 1, doubling its distance from
    sigma, until the counts sum to k, then bisects while the sum exceeds k +
    `BLOCK_MARGIN` per solved part and the bracket is wider than tol
    max(1, |tau|).
    A shift whose factor fails (tau on an eigenvalue) or leaves the diagonal
    moves to a quarter, then three quarters, of its bracket; `SolverError`
    names the bracket when all three do. One factor is alive at a time."""
    factors = 0

    def counts_below(tau):
        nonlocal factors
        counts = []
        for part, t in zip(parts, twin):
            if t is not None:
                counts.append(counts[t])
                continue
            factors += 1
            try:
                lu = _factor(part, tau)
            except SolverError as exc:
                return None, str(exc)
            if not np.array_equal(lu.perm_r, lu.perm_c):
                return None, f"a pivot of the {part.shape[0]}-row part left the diagonal"
            counts.append(int(np.sum(lu.U.diagonal() < 0)))
            del lu
        return counts, None

    def probe(lo, hi, first):
        for frac in (first, 0.25, 0.75):
            tau = float(lo + frac * (hi - lo))
            counts, reason = counts_below(tau)
            if counts is not None:
                return tau, counts
        raise SolverError(f"no factor at the shifts tried in the bracket ({lo:.6g}, {hi:.6g}] "
                          f"kept its pivots on the diagonal, so no eigenvalue count (last: {reason})")

    lo, step = sigma, 1.0
    tau, counts = probe(lo, sigma + step, 1.0)
    while sum(counts) < k:
        lo, step = tau, 2.0 * step
        tau, counts = probe(lo, sigma + step, 1.0)
    while sum(counts) > k + BLOCK_MARGIN * twin.count(None) and tau - lo > tol * max(1.0, abs(tau)):
        mid, below = probe(lo, tau, 0.5)
        if sum(below) >= k:
            tau, counts = mid, below
        else:
            lo = mid
    return {"tau": tau, "counts": counts, "factors": factors}


def _solve(op: OperatorHandle, k: int, tol: float, seed: int, sigma: float,
           info: dict | None, lowest: bool):
    if not op.is_hermitian:
        raise SolverError(f"operator {op.label!r} is not flagged Hermitian")
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 1 <= k <= MAX_K:
        raise SolverError(f"k must be an integer in [1, {MAX_K}], got {k!r}")
    k = int(k)
    if not MIN_TOL <= tol < math.inf:
        raise SolverError(f"tol must be finite and >= {MIN_TOL}, got {tol}")
    if not math.isfinite(sigma):
        raise SolverError(f"sigma must be finite, got {sigma}")
    mat = assemble_sparse(op)
    n, n_side = mat.shape[0], op.grid.n_per_side
    blocks = sublattice_blocks(mat, n_side)
    # slice every block, then let the assembled matrix go
    subs = [mat] if len(blocks) == 1 else [mat[idx][:, idx] for idx in blocks]
    del mat
    # (block, real form, isometry, parity, quarter, twin) of each part, a
    # block's in turn. C: (i, j) -> (j, n-1-i) maps class (1, 0) onto (0, 1):
    # when it maps block 1's matrix onto block 2's, block 2's parts are twins
    # of block 1's, which share their forms and Ritz pairs and unfold them
    # through row-permuted isometries (times i on a J-odd part, which keeps
    # their columns T-fixed)
    parts = []
    for b, (sub, idx) in enumerate(zip(subs, blocks)):
        to = (np.searchsorted(blocks[1], idx % n_side * n_side + n_side - 1 - idx // n_side)
              if b == 2 else None)
        if to is not None and _largest(_moved(subs[1], to) - sub) <= FOLD_TOL * _largest(sub):
            parts += [(b, S, (1j if parity == -1 else 1) * Q[to], parity, quarter, p)
                      for p, (c, S, Q, parity, quarter, _) in enumerate(parts) if c == 1]
        else:
            parts += [(b, *part, None) for part in _parts(sub, idx, n_side)]
    sizes = [S.shape[0] for _, S, *_ in parts]
    twin = [part[5] for part in parts]
    src = [p if t is None else t for p, t in enumerate(twin)]   # the part whose run each reads
    limit = sum(size - 2 for size in sizes)
    if k > limit:
        raise BlockLimitError(f"k too large for the grid: its {len(parts)} invariant part(s) "
                              f"return at most {limit} pairs (each its size - 2), k = {k}")

    def name(p):
        signs = [f"{key} {sign:+d}" for key, sign in zip(("parity", "quarter"), parts[p][3:5])
                 if sign is not None]
        return f"block {parts[p][0]} of {len(blocks)}" + (f" ({', '.join(signs)})" if signs else "")

    if lowest:
        # each part is asked for exactly its eigenvalues below a counted tau
        inertia = _slice([S for _, S, *_ in parts], k, sigma, tol, twin)
        ks = inertia["counts"]
        for p, (count, size) in enumerate(zip(ks, sizes)):
            if count > size - 2:
                raise BlockLimitError(
                    f"{name(p)} holds {count} eigenvalues below tau = "
                    f"{inertia['tau']:.6g}, but returns at most {size - 2} (its size - 2)")
    else:
        ks = [k if len(parts) == 1 else min(math.ceil(k * size / n) + BLOCK_MARGIN, size - 2)
              for size in sizes]
    found, facts = [], []
    for (_, S, _, parity, _, t), size, kp in zip(parts, sizes, ks):
        if kp and t is None:
            vals, X, f = _shift_invert(S, sigma, seed, kp)
        else:   # a twin, or no eigenvalue below tau: no factor, no Krylov run
            vals, X = np.empty(0), np.empty((0, size))
            f = {"ncv": 0, "op_solves": 0, "lu_fill_nnz": 0, "diagonal_pivots": None}
        found.append((vals, X))
        facts.append({"size": size, "parity": parity, "k": kp, "resolves": 0, **f})

    def resolve(p, kp):
        found[p] = None
        vals, X, f = _shift_invert(parts[p][1], sigma, seed, kp)
        found[p] = (vals, X)
        facts[p].update(f, k=kp, resolves=1, op_solves=facts[p]["op_solves"] + f["op_solves"])

    if lowest:
        # Krylov solves can skip copies of a degenerate eigenvalue: a part
        # that returned fewer than its count below tau is asked for
        # BLOCK_MARGIN more pairs, once, and keeps those below tau
        tau = inertia["tau"]
        for p, count in enumerate(inertia["counts"]):
            if twin[p] is not None:
                continue
            kp = min(count + BLOCK_MARGIN, sizes[p] - 2)
            if np.sum(found[p][0] < tau) < count and kp > count:
                resolve(p, kp)
            vals, X = found[p]
            below = vals < tau
            if np.sum(below) != count:
                raise SolverError(
                    f"{name(p)}: S - {tau:.6g} I has {count} negative "
                    f"pivots, but the solve returned {np.sum(below)} eigenvalues below {tau:.6g}")
            found[p] = (vals[below], X[below])
    else:
        # keep the k eigenvalues nearest sigma over all parts; a part whose
        # farthest returned eigenvalue is not beyond the k-th distance may
        # hold more inside it, so it is asked for k + BLOCK_MARGIN pairs, once;
        # one already asked for its size - 2 cannot be (a usage error)
        while len(parts) > 1:
            dist = np.sort(np.abs(np.concatenate([found[s][0] for s in src]) - sigma))
            reach = dist[k - 1] if len(dist) >= k else np.inf
            short = [p for p, s in enumerate(src) if p == s
                     and np.max(np.abs(found[p][0] - sigma)) <= reach]
            if not short:
                break
            for p in short:
                more = (f"{name(p)} may hold more of the {k} eigenvalues "
                        f"nearest {sigma:g} than the {facts[p]['k']} it returned")
                limit = sizes[p] - 2
                if facts[p]["k"] == limit:
                    raise BlockLimitError(f"{more}, and returns at most {limit} (its size - 2)")
                if facts[p]["resolves"]:
                    raise SolverError(more)
                resolve(p, min(k + BLOCK_MARGIN, limit))
    every = np.concatenate([found[s][0] for s in src])
    kept = np.zeros(len(every), dtype=bool)
    kept[np.argsort(every if lowest else np.abs(every - sigma), kind="stable")[:k]] = True
    if info is not None:
        if any(quarter is not None or t is not None for *_, quarter, t in parts):
            # C is a symmetry of H: every part lists its quarter and twin, and
            # a twin its source's k and resolves
            facts = [{**f, "quarter": quarter, "twin": t} if t is None else
                     {**f, "quarter": quarter, "twin": t, "k": facts[t]["k"],
                      "resolves": facts[t]["resolves"]} for f, (*_, quarter, t) in zip(facts, parts)]
        info.update(ncv=max(f["ncv"] for f in facts),
                    op_solves=sum(f["op_solves"] for f in facts),
                    lu_fill_nnz=sum(f["lu_fill_nnz"] for f in facts), blocks=facts)
        if lowest:
            info["inertia"] = inertia

    # unfold each part's kept Lanczos vectors, Q x, and certify them on
    # their block's assembled matrix, which is independent of the LU
    # (vectors of different blocks have disjoint supports, the sectors of a
    # block are orthogonal, and Q keeps a part's Lanczos vectors orthonormal)
    grid = op.grid
    parts = [(b, iso) for b, _, iso, *_ in parts]   # the forms go before any row is made
    lams, fs, resids = [], [], []
    start = 0
    for p, (b, iso) in enumerate(parts):
        vals, X = found[src[p]]
        if src[p] not in src[p + 1:]:   # the last reader: the Lanczos vectors go with `X`
            found[src[p]] = None
        mine = np.flatnonzero(kept[start:start + len(vals)])
        start += len(vals)
        order = mine[np.argsort(vals[mine])]
        vals = vals[order]
        rows = np.empty((len(order), iso.shape[0]), dtype=complex)
        for i, j in enumerate(order):
            rows[i] = iso @ X[j]
        rows /= np.sqrt(grid.weight * l2_sums(rows))[:, None]
        subs[b].sort_indices()   # so that each row of the product sums in column order
        resid = np.sqrt(grid.weight * np.array(
            [l2_sums(subs[b] @ r - lam * r) for lam, r in zip(vals, rows)]))
        bound = tol * np.maximum(1.0, np.abs(vals))
        for lam, r, bd in zip(vals, resid, bound):
            if r > bd:
                raise SolverError(
                    f"recomputed residual {r:.2e} exceeds {bd:.2e} "
                    f"for eigenvalue {lam:.6g}")
        idx = blocks[b]
        cls = divmod(int(idx[0]), n_side)   # a class's first node is (p, q)
        fs += [GridFunction(r, grid) if len(idx) == n else SublatticeFunction(r, cls, grid)
               for r in rows]
        lams += vals.tolist()
        resids += resid.tolist()
    return [(lams[i], fs[i], resids[i]) for i in np.argsort(lams, kind="stable")]


def lowest_eigenpairs(op: OperatorHandle, k: int, tol: float = 1e-6,
                      seed: int = 0, info: dict | None = None):
    """k smallest eigenpairs of a Hermitian handle, residual-certified.

    Returns (eigenvalue, GridFunction, residual) triples in nondecreasing
    eigenvalue order, with orthonormal eigenvectors in the discrete L^2;
    those of a proper sublattice block are `SublatticeFunction`s. Each
    part (a block, one of its inversion sectors or one of their quarters)
    is asked for the count of its eigenvalues below a shift tau (see the
    module docstring). A dict passed as `info` receives the solver facts
    `ncv` (the largest Krylov basis size), `op_solves` (shift-invert solves)
    and `lu_fill_nnz` (the real entries SuperLU stores for L and U), summed
    over the solved parts; `blocks`: per part its `size`, `parity` (+1 or -1
    for an inversion sector or its quarters, None for a whole block), `k`,
    `ncv`, `op_solves` (over both runs of a part solved again),
    `lu_fill_nnz` (of one factor), `diagonal_pivots` (whether SuperLU kept
    every pivot on the diagonal, `perm_r == perm_c`) and `resolves` (0 or
    1), with `k`, `ncv`, `op_solves` and `lu_fill_nnz` 0 and
    `diagonal_pivots` None for a part not solved, and, when the quarter turn
    C is a symmetry of H (some part has a quarter or a twin), `quarter` (+1
    or -1 for a quarter of a sector, None otherwise) and `twin` (the index
    of the part whose run a twin reuses, None otherwise); a twin lists its
    source's `k` and `resolves` with `ncv`, `op_solves` and `lu_fill_nnz` 0
    and `diagonal_pivots` None; and `inertia`: the shift `tau`, the
    per-part `counts` of eigenvalues below it (a twin's its source's) and
    the count `factors` taken, none for a twin.
    """
    return _solve(op, k, tol, seed, -1.0, info, lowest=True)


def eigenpairs_near(op: OperatorHandle, k: int, sigma: float,
                    tol: float = 1e-6, seed: int = 0, info: dict | None = None):
    """k certified eigenpairs nearest the shift sigma (used by oracle
    comparison, where the physical band sits at a known location), solved
    per invariant part; `info` as for `lowest_eigenpairs`,
    without `inertia`. The eigenvectors of a proper block are
    `SublatticeFunction`s."""
    return _solve(op, k, tol, seed, sigma, info, lowest=False)


# ---------------------------------------------------------------------------

@dataclass
class EigenCluster:
    label: int
    eigenvalues: list
    basis: list          # the given GridFunctions, orthonormal in the discrete L^2
    residuals: list

    @property
    def mean(self) -> float:
        return float(np.mean(self.eigenvalues))

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def cluster(pairs, cluster_tol: float = 0.25) -> list[EigenCluster]:
    """Group sorted (eigenvalue, GridFunction, residual) triples into maximal runs
    with consecutive gaps <= cluster_tol. The vectors must already be
    orthonormal in the discrete L^2, as `lowest_eigenpairs`, `eigenpairs_near`
    and the ladder's Rayleigh-Ritz return them: nothing orthonormalizes them
    here, and each cluster's basis holds the given vector objects."""
    if not pairs:
        raise SolverError("cannot cluster an empty eigenpair list")
    if not cluster_tol > 0:   # NaN too
        raise SolverError(f"cluster_tol must be positive, got {cluster_tol}")
    if any(len(p) != 3 or not isinstance(p[1], GridFunction) for p in pairs):
        raise SolverError("each eigenpair must be a (eigenvalue, GridFunction, residual) triple")
    vals = [p[0] for p in pairs]
    if any(vals[i + 1] < vals[i] for i in range(len(vals) - 1)):
        raise SolverError("eigenpairs must be sorted by eigenvalue")
    return [EigenCluster(label=idx, eigenvalues=[pairs[i][0] for i in run],
                         basis=[pairs[i][1] for i in run],
                         residuals=[pairs[i][2] for i in run])
            for idx, run in enumerate(gap_groups(vals, cluster_tol))]


def principal_angles(span, other) -> np.ndarray:
    """Principal angles (radians) between span(span) and span(other), as
    `scipy.linalg.subspace_angles` returns them: len(other) angles, in
    nonincreasing order; small angles mean span(other) lies inside span(span).

    `span` must hold at least len(other) vectors, orthonormal in the discrete
    L^2, and is used as given: both eigensolvers return their vectors so, and
    a second pass would only repeat theirs. Only `other` (in `oracle-compare`
    the closed-form states, which the grid leaves slightly non-orthogonal)
    becomes the rows of Q = conj(L)^{-1} B, for the `grid.gram_cholesky`
    factor L of its row stack B. A shorter `span`, or an `other` that fails
    the rank rule, raises `SolverError`. The cosines are the singular values
    of C = <A, Q> for the rows A of `span`, the sines those of Q - C^T A
    (Björck & Golub, Math. Comp. 27, 1973). A cosine resolves an angle theta
    only to about eps / theta, a sine to about eps / cos(theta): angles up to
    pi/4 come from the sines, the rest from the cosines.

    C and the residual are summed or stacked over the four node parity
    classes (i mod 2, j mod 2), one panel alive at a time, each holding the
    class values (`on_class`) of only the `span` vectors nonzero there: for
    `eigenpairs_near`'s, a quarter of them on a quarter of the rows.
    """
    if not len(other):
        raise SolverError("other holds no vector to measure against the span")
    if len(span) < len(other):
        raise SolverError(f"span holds {len(span)} vectors, fewer than the {len(other)} of other")
    grid = other[0].grid
    B = np.stack([b.values for b in other])
    try:
        L = gram_cholesky(B, grid.weight)
    except GridError as exc:
        raise SolverError(f"`other`, the {len(other)}-vector basis measured against the "
                          f"span, cannot be orthonormalized: {exc}") from exc
    Q = sla.solve_triangular(L.conj(), B, lower=True, overwrite_b=True)
    del B   # LAPACK solves on a copy of a C-ordered stack

    # per class: the span vectors nonzero there, their rows, Q's; no panel outlives its loop
    def panels():
        for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
            Qc = Q.reshape(len(Q), grid.n_per_side, -1)[:, p::2, q::2].reshape(len(Q), -1)
            rows = [a.on_class(p, q) for a in span]
            on = [i for i, r in enumerate(rows) if r is not None]
            yield on, np.array([rows[i] for i in on], complex).reshape(len(on), Qc.shape[1]), Qc

    # C = conj(A) Q^T w, with no conjugated copy of a panel
    C = np.zeros((len(span), len(Q)), dtype=complex)
    for on, A, Qc in panels():
        C[on] += (A @ Qc.conj().T).conj() * grid.weight
        del A
    cos = sla.svdvals(C)[::-1]
    # the residual's columns in class order, which keeps its singular values
    resid = []
    for on, A, Qc in panels():
        resid.append(Qc - C[on].T @ A)
        del A
    sin = sla.svdvals(np.concatenate(resid, axis=1)) * grid.spacing
    return np.where(cos ** 2 >= 0.5, np.arcsin(np.clip(sin, -1.0, 1.0)),
                    np.arccos(np.clip(cos, -1.0, 1.0)))
