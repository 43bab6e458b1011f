"""Quantitative checks: per-level extremal-norm sweeps and lemma inequalities.

The level sweep builds the eigenspace bases analytically rather than by a
blind sparse solve: for every shipped potential the null space contains
exp(-phi) conj(z)^m exactly, and the higher levels are generated by the
creation factor and refined by a Rayleigh-Ritz projection of H onto the
ladder subspace. `ladder_tiers` builds the tiers and `ladder_level_clusters`,
the package's one builder of level bases, runs the projection on the tiers
as they are, through the Cholesky factor of their Gram matrix
(`grid.gram_cholesky`, whose rank rule rejects a ladder that outgrows the
grid), and never forms an orthonormal copy of them. At desk scale this is
the only route to levels beyond the first: the truncated box carries
~ (2/pi) * area near-degenerate states per Landau level, so a lowest-k
eigensolve never reaches level 1 with any practical k.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import groupby

import numpy as np

from .cutoffs import (SUPPORT_RADIUS, center_inside, cutoff_rows, lattice_window,
                      make_cutoff, overlap_sup_factors, profile_sup_norms)
from .eigensolve import EigenCluster, cluster
from .grid import (ENVELOPE_THRESHOLD, Grid, GridError, GridFunction, gram_cholesky,
                   l2_norm, l2_sums)
from .norms import extremal_l6, extremal_linf
from .operators import build_operator, gauge_multiplier
from .potentials import Potential, _fd_partial, ball_sup

SCHEMA_VERSION = 1          # of every JSON report the package writes

LEVEL_CLUSTER_TOL = 0.5     # largest eigenvalue gap inside one level's cluster
RITZ_PANEL = 4096           # nodes per panel of the ladder's Ritz vectors
RESIDUAL_GUARD = 0.5        # worst Ritz residual above which a level is excluded
# bounded no growth: the later levels at most TREND_SLACK times the largest
# of the first two, and a fitted slope at most SLOPE_LIMIT
TREND_SLACK = 1.25
SLOPE_LIMIT = 0.01
ENERGY_REL_TOL = 1e-3       # relative tolerance of the energy identity
LEMMA_SLACK = 1.05          # cutoff and gauge rows pass when lhs <= slack * rhs
H_RESIDUAL_GUARD = 0.05     # gauge input's ||Hu - lambda u||/||u|| warned above
# largest tangent-Hessian eigenvalue that certifies a strict maximum: on a flat
# direction it is round-off of either sign, ~1e-15, that moves with the grid
HESSIAN_CERT_MAX = -1e-10

class VerifyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# ladder + Rayleigh-Ritz level bases (any shipped potential)

def ladder_tiers(potential, dstar, m_count: int, max_level: int):
    """Yield the ladder tiers 0..max_level of `potential` on dstar's grid, each
    a list of m_count (n, n) arrays: tier 0 is conj(z)^m e^{-phi}, m < m_count,
    and each next tier is dstar applied to the last. Every vector is
    normalized discretely. dstar is the D_star handle over potential."""
    grid = dstar.grid
    X1, X2 = grid.mesh()
    zbar = X1 - 1j * X2
    env = np.exp(-potential.value(X1, X2)).astype(complex)
    tier = [zbar**m * env for m in range(m_count)]
    for level in range(max_level + 1):
        if level:
            tier = [dstar.apply_array(u) for u in tier]
        tier = [u / l2_norm(GridFunction(u, grid)) for u in tier]
        yield tier


def ladder_level_clusters(potential: Potential, grid: Grid, max_level: int,
                          m_count: int = 9):
    """Per-level eigenspace clusters from the analytic ladder subspace.

    Cluster `label` is the Landau level index (mean eigenvalue / 2, rounded);
    each cluster carries its Ritz vectors, orthonormal as returned, and residuals.
    """
    if max_level < 0:
        raise VerifyError("max_level must be >= 0")
    if m_count < 1:
        raise VerifyError(f"m_count must be >= 1, got {m_count}")
    if not grid.check_envelope(potential):
        raise VerifyError(
            f"extent {grid.extent_L} too small: exp(-phi) exceeds "
            f"{ENVELOPE_THRESHOLD:g} on the boundary")

    w = grid.weight
    n = grid.n_per_side
    rank_deficient = VerifyError(
        f"ladder basis of m_count {m_count} and max_level {max_level} is "
        f"rank-deficient on n_per_side {n}: lower m_count or max_level, or "
        "refine the grid")
    # more vectors than nodes cannot be full rank: raise before the stack
    # (which could ask for terabytes) is allocated
    if m_count * (max_level + 1) > grid.size:
        raise rank_deficient
    dstar = build_operator("D_star", potential, grid)
    H = build_operator("H", potential, grid)

    # the tiers stream into one (basis size, N) stack B
    B = np.empty((m_count * (max_level + 1), grid.size), dtype=complex)
    tiers = ladder_tiers(potential, dstar, m_count, max_level)
    for i, u in enumerate(u for tier in tiers for u in tier):
        B[i] = u.reshape(-1)
    try:
        L = gram_cholesky(B, w)
    except GridError as exc:
        raise rank_deficient from exc
    HB = np.empty_like(B)
    for i in range(len(B)):   # a row view in a loop variable would keep B, HB past `del`
        HB[i] = H.apply_array(B[i].reshape(n, n)).reshape(-1)
    # Rayleigh-Ritz in the coordinates of Q = conj(L)^{-1} B, which is never
    # formed: for M = conj(B) HB^T w, Q's projection of H is L^{-1} M L^{-H},
    # and its eigenvectors Y give the Ritz vectors C B for C = (L^{-H} Y)^T.
    # B is conjugated in place for M (exactly, and with no copy beside HB)
    np.conjugate(B, out=B)
    M = (B @ HB.T) * w
    np.conjugate(B, out=B)
    L_inv = np.linalg.inv(L)
    A = L_inv @ M @ L_inv.conj().T
    evals, Y = np.linalg.eigh(0.5 * (A + A.conj().T))
    C = (L_inv.conj().T @ Y).T
    # the Ritz vectors overwrite B one panel of nodes at a time, and the
    # squares of their residual vectors C HB - lambda C B are summed there
    r2 = np.zeros(len(B))
    for s in range(0, grid.size, RITZ_PANEL):
        X = C @ B[:, s:s + RITZ_PANEL]
        r2 += l2_sums(C @ HB[:, s:s + RITZ_PANEL] - evals[:, None] * X)
        B[:, s:s + RITZ_PANEL] = X
    del HB
    resid = np.sqrt(r2 * w)
    # a copy of each Ritz row, so that B is freed on return
    clusters = cluster([(float(lam), GridFunction(v.copy(), grid), float(r))
                        for lam, v, r in zip(evals, B, resid)], LEVEL_CLUSTER_TOL)
    for c in clusters:
        c.label = int(round(c.mean / 2.0))
    return clusters


# ---------------------------------------------------------------------------
# bound report

@dataclass
class LevelRow:
    level: int
    lambda_sq: float
    cluster_dim: int
    ratio_linf: float
    ratio_l6: float
    scaled_l6: float
    max_residual: float
    l6_converged: bool
    l6_iterations: int
    l6_cut_bound: float
    l6_nodes_kept: int
    l6_hessian_max: float | None


@dataclass
class LemmaRow:
    lemma_id: str
    lhs: float
    rhs: float
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class TrendCheck:
    max_value: float
    bound: float
    slope: float
    passed: bool


@dataclass
class BoundReport:
    potential_kind: str
    params: tuple
    grid: Grid
    rows: list
    theorem1: TrendCheck | None = None
    theorem2: TrendCheck | None = None
    warnings: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(t.passed for t in (self.theorem1, self.theorem2) if t is not None)

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    def to_csv(self) -> str:
        lines = ["level,lambda_sq,cluster_dim,ratio_linf,ratio_l6,scaled_l6"]
        for r in sorted(self.rows, key=lambda x: x.level):
            lines.append("%d,%.17g,%d,%.17g,%.17g,%.17g" % (
                r.level, r.lambda_sq, r.cluster_dim, r.ratio_linf,
                r.ratio_l6, r.scaled_l6))
        return "\n".join(lines) + "\n"


def _bounded_no_growth(levels, values) -> TrendCheck:
    """Bounded-by-the-low-levels plus no-growth-trend rule."""
    values = np.asarray(values, dtype=float)
    bound = TREND_SLACK * float(values[:2].max())
    max_rest = float(values[1:].max()) if len(values) > 1 else float(values[0])
    slope = float(np.polyfit(np.asarray(levels, float), values, 1)[0]) \
        if len(values) > 1 else 0.0
    return TrendCheck(max_value=max_rest, bound=bound, slope=slope,
                      passed=bool(max_rest <= bound and slope <= SLOPE_LIMIT))


def sweep_bounds(potential: Potential, grid: Grid, max_level: int,
                 m_count: int = 9, restarts: int = 8, seed: int = 0) -> BoundReport:
    """Per-level extremal norm ratios with the Theorem-1/Theorem-2 pass rules.

    Levels whose worst Ritz residual exceeds RESIDUAL_GUARD are excluded from
    the report with a warning (never silently); a level whose L^6 ascent did
    not converge, or whose winner's tangent Hessian has an eigenvalue at or
    above HESSIAN_CERT_MAX, is reported with a warning. So are a label held
    by several clusters and a label above max_level: rounding can mislabel an
    under-resolved level.
    """
    clusters = ladder_level_clusters(potential, grid, max_level, m_count=m_count)
    rows = []
    warns = []

    def warn(msg):
        warns.append(msg)
        warnings.warn(msg)

    labels = [c.label for c in clusters]
    for level in sorted({lab for lab in labels if labels.count(lab) > 1}):
        warn(f"label {level} is held by the clusters at mean eigenvalues "
             f"{[round(c.mean, 3) for c in clusters if c.label == level]}: a level "
             "near it is under-resolved")
    for c in clusters:
        if c.label > max_level:
            warn(f"cluster at mean eigenvalue {c.mean:.3f} dropped: its label "
                 f"{c.label} is above max_level {max_level}")
            continue
        worst = float(max(c.residuals))
        if worst > RESIDUAL_GUARD:
            warn(f"level {c.label} excluded: worst Ritz residual {worst:.3f} "
                 f"exceeds guard {RESIDUAL_GUARD}")
            continue
        ratio_linf, _ = extremal_linf(c)
        asc = extremal_l6(c, restarts=restarts, seed=seed)
        if not asc.converged:
            warn(f"level {c.label}: L^6 ascent stopped after {asc.iterations} "
                 "iterations without converging; ratio_l6 is a looser lower bound")
        if asc.hessian_max is not None and not asc.hessian_max < HESSIAN_CERT_MAX:
            warn(f"level {c.label}: the L^6 ascent's tangent Hessian has largest "
                 f"eigenvalue {asc.hessian_max:.3g} >= {HESSIAN_CERT_MAX:g}; the "
                 "winner is not certified as a strict local maximum")
        lam2 = c.mean
        scaled = asc.ratio * lam2 ** (1.0 / 6.0) if c.label >= 1 else asc.ratio
        rows.append(LevelRow(level=c.label, lambda_sq=lam2, cluster_dim=c.dim,
                             ratio_linf=ratio_linf, ratio_l6=asc.ratio,
                             scaled_l6=scaled, max_residual=worst,
                             l6_converged=asc.converged, l6_iterations=asc.iterations,
                             l6_cut_bound=asc.cut_bound, l6_nodes_kept=asc.nodes_kept,
                             l6_hessian_max=asc.hessian_max))

    report = BoundReport(potential_kind=potential.kind, params=potential.params,
                         grid=grid, rows=rows, warnings=warns)
    if rows:
        report.theorem1 = _bounded_no_growth([r.level for r in rows],
                                             [r.ratio_linf for r in rows])
    t2_rows = [r for r in rows if r.level >= 1]
    if t2_rows:
        report.theorem2 = _bounded_no_growth([r.level for r in t2_rows],
                                             [r.scaled_l6 for r in t2_rows])
    return report


# ---------------------------------------------------------------------------
# Lemma checks. Every check recomputes both sides from primitives.

def check_energy_lemma(potential: Potential, grid: Grid,
                       cluster: EigenCluster) -> list[LemmaRow]:
    """Energy identity for each cluster basis vector:
    ||Au||^2 + ||Bu||^2 = <(lap phi / 4 + lambda^2) u, u> within
    ENERGY_REL_TOL (exact for true discrete eigenpairs).
    """
    rows = []
    A = build_operator("A", potential, grid)
    B = build_operator("B", potential, grid)
    X1, X2 = grid.mesh()
    lap4 = potential.laplacian(X1, X2).reshape(-1) / 4.0
    for lam, u in zip(cluster.eigenvalues, cluster.basis):
        if u.grid != grid:
            raise VerifyError("cluster grid does not match the supplied grid")
        if not 0.5 < l2_norm(u) ** 2 < 2.0:
            raise VerifyError("cluster basis vector is not unit-normalized")
        lhs = (l2_norm(A.apply(u)) ** 2 + l2_norm(B.apply(u)) ** 2)
        rhs = float(l2_sums(u.values, (lap4 + lam) * u.values) * grid.weight)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        rows.append(LemmaRow(lemma_id="energy_identity", lhs=lhs, rhs=rhs,
                             passed=bool(rel <= ENERGY_REL_TOL),
                             detail={"lambda_sq": lam, "rel_err": rel}))
    return rows


def check_cutoff_lemma(potential: Potential, grid: Grid, u: GridFunction,
                       h: float, centers,
                       p_residual_guard: float = 0.05) -> list[LemmaRow]:
    """||P beta_q u||_2 against the explicit product-rule constant, per center,
    plus the summed (little-l2 over the lattice window) variant. Each row's
    detail records `input_guard_ok`: whether the input's ||Pu||/||u|| is
    within `p_residual_guard`, above which the check may be polluted.

    P(beta_q u) is applied only on the grid rows |x1 - q1| < SUPPORT_RADIUS
    and 2 more on each side, by P.matrix[s, s] with s the nodes of those rows:
    P moves data at most two rows along x1, so it vanishes off them. Each kept
    row holds its stored entries in the full matrix's order, and the dropped
    columns multiply zeros: the strip holds the full-grid apply bit for bit.
    A `SublatticeFunction` input is padded to the full grid once, here."""
    for q in centers:
        if not center_inside(q, grid):
            raise VerifyError(f"center {q} violates the interior margin {SUPPORT_RADIUS:g}")
    u = GridFunction(u.values, u.grid)
    P = build_operator("P", potential, grid, h=h)
    nu = l2_norm(u)
    p_res = l2_norm(P.apply(u)) / nu
    guard_ok = bool(p_res <= p_residual_guard)
    if not guard_ok:
        warnings.warn(f"input state has ||Pu||/||u|| = {p_res:.3f}, above the "
                      f"guard {p_residual_guard}; the check may be polluted")
    energy_factor = float(np.sqrt(h / 4.0 * potential.laplacian_sup_norm() + 1.0))
    # sup |d_j beta_q| <= sup |grad beta_q| = sup_grad, attained on the axes
    sup_grad, sup_lap = profile_sup_norms()
    n, x = grid.n_per_side, grid.axis()

    def norms(qs):   # ||P(beta_q u)||_2, one row block per run of centers with one q1
        for q1, group in groupby(qs, key=lambda q: q[0]):
            lo, hi = np.searchsorted(x, [q1 - SUPPORT_RADIUS, q1 + SUPPORT_RADIUS])
            r0, r1 = max(lo - 2, 0), min(hi + 2, n)
            P_rows = P.matrix[r0 * n:r1 * n, r0 * n:r1 * n]
            for q in group:
                v = cutoff_rows(q, grid, r0, r1) * u.as_2d()[r0:r1]
                yield float(np.sqrt(l2_sums(P_rows @ v.reshape(-1)) * grid.weight))

    rhs = h * (h / 4.0 * sup_lap + energy_factor * 2.0 * sup_grad) * nu
    rows = [LemmaRow(lemma_id="cutoff_sup_q", lhs=lhs, rhs=rhs,
                     passed=bool(lhs <= LEMMA_SLACK * rhs),
                     detail={"q": [float(q[0]), float(q[1])], "h": h,
                             "p_residual": p_res, "input_guard_ok": guard_ok})
            for q, lhs in zip(centers, norms(centers))]
    # summed version over the integer-lattice window
    window = lattice_window(grid)
    if window:
        lhs_sum = float(np.sqrt(reduce(lambda t, lhs: t + lhs ** 2, norms(window), 0.0)))
        s_lap, s_d1, s_d2 = overlap_sup_factors(grid)
        rhs_sum = h * (h / 4.0 * s_lap + energy_factor * (s_d1 + s_d2)) * nu
        rows.append(LemmaRow(lemma_id="cutoff_l2_q", lhs=lhs_sum, rhs=rhs_sum,
                             passed=bool(lhs_sum <= LEMMA_SLACK * rhs_sum),
                             detail={"window_size": len(window), "h": h,
                                     "input_guard_ok": guard_ok}))
    return rows


def rayleigh_residual(op, u: GridFunction):
    """(lambda, ||op u - lambda u|| / ||u||) for the Rayleigh quotient lambda
    of u, from `grid.l2_sums`, so no BLAS thread count moves it; the
    quadrature weight cancels."""
    v, ov = u.values, op.apply(u).values
    sq = l2_sums(v)
    lam = float(l2_sums(v, ov) / sq)
    return lam, float(np.sqrt(l2_sums(ov - lam * v) / sq))


def translate_samples(u: GridFunction, q) -> GridFunction:
    """u(x + q) by exact node shifting (q must be node-aligned); Dirichlet
    zeros flow in from outside the grid."""
    shifts = u.grid.node_shift(q)
    if shifts is None:
        raise VerifyError(f"translation {q} is not node-aligned (spacing {u.grid.spacing})")
    # node i of u sits at m + i of the padded array; a shift of n nodes or
    # more reads only padding
    n = u.grid.n_per_side
    s1, s2 = np.clip(shifts, -n, n)
    m = max(abs(s1), abs(s2))
    padded = np.pad(u.as_2d(), m)
    return GridFunction(padded[m + s1:m + s1 + n, m + s2:m + s2 + n], u.grid)


def _gauge_sups(potential: Potential, comp: int):
    """The gauge chain's constants for d_comp phi: the sampled sups of
    |grad d_comp phi| over B(0, 30) (central differences of grad, step 1e-4)
    and of |d_comp phi| over B(0, 2)."""
    def d_comp(x1, x2):
        return potential.grad(x1, x2)[comp]

    def hessian_row(x1, x2):
        return np.sqrt(_fd_partial(d_comp, x1, x2, 1, 0, 1e-4) ** 2
                       + _fd_partial(d_comp, x1, x2, 0, 1, 1e-4) ** 2)

    return ball_sup(hessian_row, 30.0, 401), ball_sup(d_comp, 2.0, 401)


def check_gauge_lemma(potential: Potential, grid: Grid, u: GridFunction, q) -> list[LemmaRow]:
    """Translation-gauge bound: A and B applied to the phase-twisted,
    cutoff-localized translate of u stay controlled by the proof's chain
      ||A(beta_q u)|| + ||grad d2 phi||_inf ||u|| + ||d2 phi||_{B(0,2)} ||u||
    (and symmetrically for B with d1 phi)."""
    if not center_inside(q, grid):
        raise VerifyError(f"center {q} violates the interior margin {SUPPORT_RADIUS:g}")
    nu = l2_norm(u)
    _, res = rayleigh_residual(build_operator("H", potential, grid), u)
    if res > H_RESIDUAL_GUARD:
        warnings.warn(f"input has ||Hu - lambda u||/||u|| = {res:.3f} above "
                      f"guard {H_RESIDUAL_GUARD}")
    phase = gauge_multiplier(potential, grid, h=1.0, q=q)
    u_minus_q = translate_samples(u, q)          # u(x + q)
    beta0 = make_cutoff((0.0, 0.0), grid)
    twisted = GridFunction(phase.reshape(-1) * beta0.values * u_minus_q.values, grid)
    beta_q = make_cutoff(q, grid)
    local = GridFunction(beta_q.values * u.values, grid)

    rows = []
    for name, comp in (("A", 1), ("B", 0)):
        op = build_operator(name, potential, grid)
        lhs = l2_norm(op.apply(twisted))
        hess_sup, grad_sup = _gauge_sups(potential, comp)
        chain = l2_norm(op.apply(local)) + (hess_sup + grad_sup) * nu
        rows.append(LemmaRow(lemma_id=f"gauge_translate_{name}", lhs=lhs,
                             rhs=chain, passed=bool(lhs <= LEMMA_SLACK * chain),
                             detail={"q": [float(q[0]), float(q[1])],
                                     "input_residual": res}))
    return rows
