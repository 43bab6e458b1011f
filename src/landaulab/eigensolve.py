"""Sparse Hermitian eigensolves and near-degenerate clustering.

The solver assembles the operator once and shift-inverts at a real sigma
(`lowest_eigenpairs` uses -1: the discrete operator is bounded below by -1 up
to discretization). It factors H - sigma I itself, once, with SuperLU under
the minimum-degree ordering of A^T + A (the stencil matrix is structurally
symmetric, and this ordering has far less fill than the default COLAMD) in
its symmetric mode, which pivots on the diagonal unless a diagonal entry is
below 0.001 of its column's largest, and hands the factor's solve to ARPACK.
Diagonal pivots keep the Hermitian structure (less fill than partial
pivoting), and only with them does U's diagonal carry the inertia of
H - sigma I; the `diagonal_pivots` fact says whether every pivot stayed there.
The Krylov basis holds `arnoldi_ncv(k, N)` vectors. Every returned pair is
certified by recomputing its residual on the assembled complex matrix of its
block, by one sparse product on its stored row and `grid.l2_sums`; this is
independent of the LU and of ARPACK. Results are deterministic for a
fixed seed (the seed fixes the Krylov start vector).

Real symmetric form. The magnetic field breaks complex conjugation K as a
symmetry of H, but when phi(x1, -x2) = phi(x1, x2), as for every shipped
kind, the antiunitary T = R∘K, with R the reflection x2 -> -x2, has T^2 = 1
and commutes with H: H is in the orthogonal class of Dyson's threefold way.
In the coordinates of the T-invariant vectors (`_fold`: e_a on the axis,
(e_a + e_Ra)/sqrt 2 and i (e_a - e_Ra)/sqrt 2 for a node pair) a block is a
real symmetric matrix S = Re(Q^H H Q). A block that is already real (K
itself commutes with it) is its own S, with Q the identity. Every block is
solved this way: a real LU and ARPACK's symmetric Lanczos driver, whose Ritz
vectors are orthonormal, and its eigenvectors come back as Q x, which Q
keeps orthonormal (the complex inner product of two T-invariant vectors is
real); under T they satisfy u(x1, -x2) = conj(u(x1, x2)). A block with
neither symmetry (R conj(H) R and conj(H) each differ from H by more than
`FOLD_TOL` of its largest entry) raises `SolverError` before any factor.

Both solvers solve each invariant block of the assembled matrix on its own.
When the matrix stores no entry linking two of the four node parity classes
(i mod 2, j mod 2), which holds for every `build_operator` handle, H is
block-diagonal over them and its spectrum is the union of the four block
spectra (`sublattice_blocks`). Each solved block gets its own LU and a
quarter-size Krylov basis, and each eigenvector is supported on one
sublattice. The solvers differ only in how many pairs each block is asked
for. `eigenpairs_near` asks each block for its share of k plus
`BLOCK_MARGIN` pairs and keeps the k eigenvalues nearest sigma over all
blocks. A block whose farthest returned eigenvalue is not beyond the k-th
distance may hold more of them, so it is solved once more for k +
`BLOCK_MARGIN` pairs; if that still falls short the solve raises
`SolverError`.

Spectrum slicing. `lowest_eigenpairs` first finds a shift tau below which
the blocks hold at least k eigenvalues together, counting each block's by
Sylvester's law of inertia on a factor of its real form S - tau I (`_slice`,
after Ericsson & Ruhe, Math. Comp. 35, 1980, and Grimes, Lewis & Simon,
SIMAX 15, 1994). Each block is then asked for exactly its count c of pairs;
a block with c = 0 gets no factor at sigma and no Krylov run. A
single-vector Krylov solve can skip copies of an exactly degenerate
eigenvalue, so a block that returns fewer than c eigenvalues below tau is
solved once more for c + `BLOCK_MARGIN` pairs, and a block whose count still
differs raises `SolverError`. The k lowest over all blocks are kept, so every
returned eigenvalue lies below a counted tau.

Memory: one LU is alive at a time. The handle keeps its own matrix; the
assembled copy is freed once the blocks are sliced, each count factor once
its pivots are read, each solve's LU (and real form) once its Krylov run is
read, before the rows are unfolded, and a block solved again refactors. A
proper block's eigenvectors are `SublatticeFunction`s stored on its parity
class, normalized and certified there, so no full-grid copy of one is made;
`principal_angles` reads them one parity class at a time.

Caution for coarse grids: when the largest coefficient momentum |grad phi|/2
on the box approaches the grid's resolvable band (|grad phi| * spacing / 2 of
order one), the lowest discrete eigenvalues belong to under-resolved states
near the box corners, displaced below the physical band by O((k dx)^2). The
`resolution_warning` helper quantifies this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import GridFunction, SublatticeFunction, gram_cholesky, l2_sums
from .operators import OperatorHandle, assemble_sparse

MAX_K = 200
MIN_TOL = 1e-8
# largest |R conj(H) R - H| (or |conj(H) - H|) over the largest |H| entry for
# which a block has a real symmetric form (np.linspace's last-bit asymmetry
# gives about 2e-16)
FOLD_TOL = 1e-12


class SolverError(RuntimeError):
    pass


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
    a larger basis costs more dense Krylov work without saving solves. A
    scan of the constant c in k + c over the split Lanczos shift-invert solves
    of the model potential on [-5.2, 5.2]^2 (sigma at the mean Rayleigh
    quotient of the oracle states, seed 3) counted these shift-invert solves:

        grid, k            c = 12   c = 16   c = 20
        257^2, k = 130     228      220      236
        161^2, k = 100     245      237      245

    Never more than n.
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


def _fold(mat, nodes, n_side: int):
    """The isometry Q from real coordinates onto the vectors that a
    conjugation symmetry of the block matrix `mat` over the sorted grid
    `nodes` (all nodes, or one parity class) fixes, so that Q^H mat Q is real
    symmetric; `SolverError` when `mat` has neither symmetry.

    T = R∘K comes first. R reflects x2 -> -x2, (i, j) -> (i, n-1-j), and
    maps every parity class onto itself because n is odd. T commutes with
    `mat` when R conj(mat) R = mat, tested to FOLD_TOL of the largest entry.
    The columns that R keeps come first: e_a for a node on the axis j =
    (n-1)/2 and (e_a + e_Ra)/sqrt 2 for a pair a < Ra, in node order; then
    i (e_a - e_Ra)/sqrt 2 for each pair. Q is square and unitary. Otherwise,
    when K commutes with `mat` (conj(mat) = mat, to the same tolerance), Q is
    the identity.
    """
    i, j = np.divmod(nodes, n_side)
    r = np.searchsorted(nodes, i * n_side + n_side - 1 - j)
    scale = abs(mat).max()
    t_defect = abs(mat[r][:, r] - mat.conj()).max()
    if t_defect > FOLD_TOL * scale:
        k_defect = abs(mat - mat.conj()).max()
        if k_defect <= FOLD_TOL * scale:
            return sp.identity(len(nodes), format="csr")
        raise SolverError(
            f"the {len(nodes)}-node block commutes with neither T = R∘K "
            f"(|R conj(H) R - H| / max|H| = {t_defect / scale:.1e}) nor K "
            f"(|conj(H) - H| / max|H| = {k_defect / scale:.1e}) to FOLD_TOL = {FOLD_TOL:g}: "
            "the eigensolvers need phi(x1, -x2) = phi(x1, x2) or a real matrix")
    first = np.flatnonzero(np.arange(len(nodes)) <= r)
    col = np.arange(len(first))
    pair = first < r[first]
    lo, at = first[pair], col[pair]
    odd = len(first) + np.arange(len(lo))
    s = np.full(len(lo), np.sqrt(0.5))
    return sp.csr_matrix(
        (np.concatenate([np.ones(len(first) - len(lo)), s, s, 1j * s, -1j * s]),
         (np.concatenate([first[~pair], lo, r[lo], lo, r[lo]]),
          np.concatenate([col[~pair], at, at, odd, odd]))),
        shape=mat.shape)


def _real_symmetric(mat, fold):
    """S = Re(Q^H mat Q), real symmetric for the `_fold` Q of `mat`, holding
    no view of the complex product."""
    prod = fold.conj().T @ mat @ fold
    return sp.csr_matrix((prod.data.real.copy(), prod.indices, prod.indptr), shape=mat.shape)


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


def _shift_invert(mat, sigma: float, seed: int, k: int, fold):
    """(eigenvalues, eigenvector rows, solve facts) of the k eigenpairs of `mat`
    nearest sigma, by ARPACK's Lanczos shift-invert on the real symmetric
    S = Re(Q^H mat Q) of its `fold` Q (see `_fold`), from the Krylov start
    vector of `RandomState(seed)` with an `arnoldi_ncv(k, n)` basis; the rows
    are Q x. The output rows are allocated first, below the LU and the Krylov
    basis in the heap, so a next solve reuses their space; the LU and S are
    freed before the rows are unfolded, one at a time."""
    n = mat.shape[0]
    rows = np.empty((k, n), dtype=complex)
    mat = _real_symmetric(mat, fold)
    lu = _factor(mat, sigma)
    solves = 0

    def apply(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    v0 = np.random.RandomState(seed).standard_normal(n)
    try:
        vals, vecs = spla.eigsh(
            mat, k=k, sigma=sigma, which="LM", v0=v0, ncv=arnoldi_ncv(k, n),
            OPinv=spla.LinearOperator(mat.shape, matvec=apply, dtype=mat.dtype))
    except spla.ArpackNoConvergence as exc:
        raise SolverError(
            f"eigensolver did not converge within the iteration budget: {exc}") from exc
    except (RuntimeError, MemoryError) as exc:
        raise SolverError(f"shift-invert eigensolve failed: {exc}") from exc
    facts = {"op_solves": solves, "lu_fill_nnz": int(lu.nnz),
             "diagonal_pivots": bool(np.array_equal(lu.perm_r, lu.perm_c))}
    del lu, mat
    for i in range(k):
        rows[i] = fold @ vecs[:, i]
    return vals, rows, facts


# pairs asked of a block beyond its share of k, or beyond its count when a
# lowest solve repeats it; the slice stops bisecting within this many per block
BLOCK_MARGIN = 5


def _slice(parts, k: int, sigma: float, tol: float) -> dict:
    """{tau, counts, factors}: a shift tau above sigma below which the real
    symmetric blocks `parts` hold at least k eigenvalues together, each
    block's count and the factors taken. A count is the number of negative
    diagonal entries of U in a factor of part - tau I (Sylvester's law of
    inertia), valid only when every pivot stayed on the diagonal (`perm_r ==
    perm_c`). tau brackets upward from sigma + 1, doubling its distance from
    sigma, until the counts sum to k, then bisects while the sum exceeds k +
    `BLOCK_MARGIN` per block and the bracket is wider than tol max(1, |tau|).
    A shift whose factor fails (tau on an eigenvalue) or leaves the diagonal
    moves to a quarter, then three quarters, of its bracket; `SolverError`
    names the bracket when all three do. One factor is alive at a time."""
    factors = 0

    def counts_below(tau):
        nonlocal factors
        counts = []
        for part in parts:
            factors += 1
            try:
                lu = _factor(part, tau)
            except SolverError as exc:
                return None, str(exc)
            if not np.array_equal(lu.perm_r, lu.perm_c):
                return None, f"a pivot of the {part.shape[0]}-node block left the diagonal"
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
    while sum(counts) > k + BLOCK_MARGIN * len(parts) and tau - lo > tol * max(1.0, abs(tau)):
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
    if k < 1 or k > MAX_K:
        raise SolverError(f"k must be in [1, {MAX_K}], got {k}")
    if tol < MIN_TOL:
        raise SolverError(f"tol must be >= {MIN_TOL}, got {tol}")
    mat = assemble_sparse(op)
    n = mat.shape[0]
    if k >= n - 1:
        raise SolverError("k too large for the grid")
    blocks = sublattice_blocks(mat, op.grid.n_per_side)
    # slice every block, then let the assembled matrix go
    subs = [mat] if len(blocks) == 1 else [mat[idx][:, idx] for idx in blocks]
    del mat

    folds = [_fold(sub, idx, op.grid.n_per_side) for sub, idx in zip(subs, blocks)]
    if lowest:
        # each block is asked for exactly its eigenvalues below a counted tau
        parts = [_real_symmetric(sub, fold) for sub, fold in zip(subs, folds)]
        inertia = _slice(parts, k, sigma, tol)
        del parts
        # (a count above what ARPACK can return fails the check below)
        ks = [min(count, len(idx) - 2) for count, idx in zip(inertia["counts"], blocks)]
    else:
        ks = [k if len(idx) == n else min(math.ceil(k * len(idx) / n) + BLOCK_MARGIN, len(idx) - 2)
              for idx in blocks]
    found, facts = [], []
    for sub, fold, kb in zip(subs, folds, ks):
        nb = sub.shape[0]
        if kb:
            vals, rows, f = _shift_invert(sub, sigma, seed, kb, fold)
        else:   # no eigenvalue below tau: no factor, no Krylov run
            vals, rows = np.empty(0), np.empty((0, nb), dtype=complex)
            f = {"op_solves": 0, "lu_fill_nnz": 0, "diagonal_pivots": None}
        found.append((vals, rows))
        facts.append({"size": nb, "k": kb, "resolves": 0, **f})

    def resolve(b, kb):
        found[b] = None
        vals, rows, f = _shift_invert(subs[b], sigma, seed, kb, folds[b])
        found[b] = (vals, rows)
        facts[b].update(k=kb, resolves=1, op_solves=facts[b]["op_solves"] + f["op_solves"])

    if lowest:
        # Krylov solves can skip copies of a degenerate eigenvalue: a block
        # that returned fewer than its count below tau is asked for
        # BLOCK_MARGIN more pairs, once, and keeps those below tau
        tau = inertia["tau"]
        for b, count in enumerate(inertia["counts"]):
            kb = min(count + BLOCK_MARGIN, facts[b]["size"] - 2)
            if np.sum(found[b][0] < tau) < count and kb > count:
                resolve(b, kb)
            vals, rows = found[b]
            below = vals < tau
            if np.sum(below) != count:
                raise SolverError(
                    f"block {b} of {len(blocks)}: S - {tau:.6g} I has {count} negative "
                    f"pivots, but the solve returned {np.sum(below)} eigenvalues below {tau:.6g}")
            found[b] = (vals[below], rows[below])
    else:
        # keep the k eigenvalues nearest sigma over all blocks; a block whose
        # farthest returned eigenvalue is not beyond the k-th distance may
        # hold more inside it, so it is asked for k + BLOCK_MARGIN pairs, once
        while len(blocks) > 1:
            dist = np.sort(np.abs(np.concatenate([v for v, _ in found]) - sigma))
            if len(dist) < k:
                raise SolverError(f"the {len(blocks)} invariant blocks hold fewer than k = {k} pairs")
            short = [b for b, (v, _) in enumerate(found)
                     if np.max(np.abs(v - sigma)) <= dist[k - 1]]
            if not short:
                break
            for b in short:
                kb = min(k + BLOCK_MARGIN, facts[b]["size"] - 2)
                if facts[b]["resolves"] or kb <= facts[b]["k"]:
                    raise SolverError(
                        f"block {b} of {len(blocks)} may hold more of the {k} eigenvalues "
                        f"nearest {sigma:g} than the {facts[b]['k']} it returned")
                resolve(b, kb)
    every = np.concatenate([v for v, _ in found])
    kept = np.zeros(len(every), dtype=bool)
    kept[np.argsort(every if lowest else np.abs(every - sigma), kind="stable")[:k]] = True
    if info is not None:
        for f in facts:
            f["ncv"] = arnoldi_ncv(f["k"], f["size"]) if f["k"] else 0
        info.update(ncv=max(f["ncv"] for f in facts),
                    op_solves=sum(f["op_solves"] for f in facts),
                    lu_fill_nnz=sum(f["lu_fill_nnz"] for f in facts), blocks=facts)
        if lowest:
            info["inertia"] = inertia

    # certify each block's pairs on its assembled matrix, which is
    # independent of the LU (vectors of different blocks have disjoint
    # supports, and Q keeps a block's Lanczos vectors orthonormal)
    grid = op.grid
    lams, fs, resids = [], [], []
    start = 0
    for b, idx in enumerate(blocks):
        vals, vecs = found[b]
        found[b] = None   # so this block's output goes with `vecs`
        mine = np.flatnonzero(kept[start:start + len(vals)])
        start += len(vals)
        order = mine[np.argsort(vals[mine])]
        vals = vals[order]
        rows = vecs[order]
        del vecs
        rows /= np.sqrt(grid.weight * l2_sums(rows))[:, None]
        resid = np.sqrt(grid.weight * np.array(
            [l2_sums(subs[b] @ r - lam * r) for lam, r in zip(vals, rows)]))
        bound = tol * np.maximum(1.0, np.abs(vals))
        for lam, r, bd in zip(vals, resid, bound):
            if r > bd:
                raise SolverError(
                    f"recomputed residual {r:.2e} exceeds {bd:.2e} "
                    f"for eigenvalue {lam:.6g}")
        parity = divmod(int(idx[0]), grid.n_per_side)   # a class's first node is (p, q)
        fs += [GridFunction(r, grid) if len(idx) == n else SublatticeFunction(r, parity, grid)
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
    block is asked for the count of its eigenvalues below a shift tau (see
    the module docstring). A dict passed as `info` receives the solver facts
    `ncv` (the largest Krylov basis size), `op_solves` (shift-invert solves)
    and `lu_fill_nnz` (the real entries SuperLU stores for L and U), summed
    over the solved blocks; `blocks`: per block its `size`, `k`, `ncv`,
    `op_solves` (over both runs of a block solved again), `lu_fill_nnz` (of
    one factor), `diagonal_pivots` (whether SuperLU kept every pivot on the
    diagonal, `perm_r == perm_c`) and `resolves` (0 or 1), with `k`, `ncv`,
    `op_solves` and `lu_fill_nnz` 0 and `diagonal_pivots` None for a block
    not solved; and `inertia`: the shift `tau`, the per-block `counts` of
    eigenvalues below it and the count `factors` taken.
    """
    return _solve(op, k, tol, seed, -1.0, info, lowest=True)


def eigenpairs_near(op: OperatorHandle, k: int, sigma: float,
                    tol: float = 1e-6, seed: int = 0, info: dict | None = None):
    """k certified eigenpairs nearest the shift sigma (used by oracle
    comparison, where the physical band sits at a known location), solved
    per invariant sublattice block; `info` as for `lowest_eigenpairs`,
    without `inertia`. The eigenvectors of a proper block are
    `SublatticeFunction`s."""
    return _solve(op, k, tol, seed, sigma, info, lowest=False)


# ---------------------------------------------------------------------------

@dataclass
class EigenCluster:
    label: int
    eigenvalues: list
    basis: list          # GridFunctions, orthonormal in the discrete L^2
    residuals: list

    @property
    def mean(self) -> float:
        return float(np.mean(self.eigenvalues))

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def cluster(pairs, cluster_tol: float = 0.25) -> list[EigenCluster]:
    """Group sorted (eigenvalue, GridFunction, residual) triples into maximal runs
    with consecutive gaps <= cluster_tol; each cluster basis is re-orthonormalized,
    as conj(L)^{-1} B for the row stack B of its vectors and L =
    `gram_cholesky`(B), which raises `GridError` on a rank-deficient group."""
    if not pairs:
        raise SolverError("cannot cluster an empty eigenpair list")
    if cluster_tol <= 0:
        raise SolverError(f"cluster_tol must be positive, got {cluster_tol}")
    if any(len(p) != 3 or not isinstance(p[1], GridFunction) for p in pairs):
        raise SolverError("each eigenpair must be a (eigenvalue, GridFunction, residual) triple")
    vals = [p[0] for p in pairs]
    if any(vals[i + 1] < vals[i] for i in range(len(vals) - 1)):
        raise SolverError("eigenpairs must be sorted by eigenvalue")
    out = []
    for idx, run in enumerate(gap_groups(vals, cluster_tol)):
        g = [pairs[i] for i in run]
        grid = g[0][1].grid
        B = np.stack([p[1].values for p in g])
        ortho = np.linalg.inv(gram_cholesky(B, grid.weight)).conj() @ B
        out.append(EigenCluster(
            label=idx,
            eigenvalues=[p[0] for p in g],
            basis=[GridFunction(v, grid) for v in ortho],
            residuals=[p[2] for p in g],
        ))
    return out


def principal_angles(basis_a, basis_b) -> np.ndarray:
    """Principal angles (radians) between the spans of two GridFunction lists.

    Returns min(dim_a, dim_b) angles in nonincreasing order, as
    `scipy.linalg.subspace_angles` does; small angles mean the smaller space
    is contained in the larger one. Both lists must be linearly independent.
    Only the smaller basis is orthonormalized (QR), and it raises
    `SolverError` when a diagonal entry of R is at most 1e-10 of the largest:
    Householder QR resolves R's diagonal to about eps of the column norm, so
    this threshold can sit far below `grid.RANK_TOL`, which a Cholesky
    factor's diagonal (resolved to about sqrt(eps)) needs. The larger one
    enters through the Cholesky factor R of its Gram matrix, so no SVD of a
    tall matrix is taken. Angles up to pi/4 come from sines, the rest from
    cosines, each the accurate form in its range. A larger basis whose Gram
    matrix is not numerically positive definite fails the Cholesky
    factorization and raises `SolverError`.

    The larger basis is never stacked on the full grid: A^H A, A^H Qb and the
    residual Qb - A S are summed or stacked over the four node parity classes
    (i mod 2, j mod 2), each panel holding the class values (`on_class`) of
    only the vectors nonzero there, which is exact for any basis. For the
    `SublatticeFunction`s of `eigenpairs_near` each panel holds about a
    quarter of the vectors on a quarter of the rows, with no scan. One panel
    is alive at a time, and the QR of the smaller basis overwrites its stack.
    """
    if len(basis_a) < len(basis_b):
        basis_a, basis_b = basis_b, basis_a
    n = basis_a[0].grid.n_per_side
    # the transpose of the row stack is Fortran-ordered, so LAPACK needs no copy
    Qb, Rb = sla.qr(np.stack([b.values for b in basis_b]).T, mode="economic",
                    overwrite_a=True)
    d = np.abs(np.diag(Rb))
    if d.min() <= 1e-10 * d.max():
        raise SolverError(f"QR of the {len(d)}-vector basis has |R_ii| down to {d.min():.1e} "
                          f"of the largest {d.max():.1e}: the basis is rank-deficient")
    Qb = Qb.reshape(n, n, -1)

    def panels():
        """(indices of the vectors nonzero on the class, their rows of the
        class as Fortran-ordered columns, the class rows of Qb). The
        generator keeps no panel, and its loops drop each one before the
        next is stacked."""
        for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
            Qc = Qb[p::2, q::2].reshape(-1, Qb.shape[2])
            rows = [a.on_class(p, q) for a in basis_a]
            on = [i for i, r in enumerate(rows) if r is not None]
            yield on, (np.stack([rows[i] for i in on]).reshape(len(on), -1).T if on
                       else np.zeros((len(Qc), 0), dtype=complex)), Qc

    dim = len(basis_a)
    gram = np.zeros((dim, dim), dtype=complex)
    aq = np.zeros((dim, Qb.shape[2]), dtype=complex)
    for on, A, Qc in panels():
        if on:
            # upper triangle of A^H A, with no conjugated copy of A
            gram[np.ix_(on, on)] += sla.blas.zherk(1.0, A, trans=2)
            aq[on] += (Qc.conj().T @ A).conj().T
        del A
    try:
        R = sla.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Cholesky factorization of the {dim} x {dim} Gram matrix "
                          f"failed: the basis is rank-deficient ({exc})") from exc
    # Qa = A R^{-1} is orthonormal; C = Qa^H Qb is dim_a x dim_b
    C = sla.solve_triangular(R, aq, trans="C")
    S = sla.solve_triangular(R, C)
    cos = sla.svdvals(C)[::-1]
    # the residual's rows in class order: a row permutation keeps its
    # singular values
    resid = []
    for on, A, Qc in panels():
        resid.append(Qc - A @ S[on])
        del A
    sin = sla.svdvals(np.concatenate(resid))
    return np.where(cos ** 2 >= 0.5, np.arcsin(np.clip(sin, -1.0, 1.0)),
                    np.arccos(np.clip(cos, -1.0, 1.0)))
