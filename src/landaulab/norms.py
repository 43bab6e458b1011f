"""Discrete L^2 / L^6 / L^inf norms and eigenspace-extremal norm ratios.

The quadrature weight is spacing^2 at every node (the package-wide
convention). For an orthonormal eigenspace basis {u_j} the extremal
L^inf/L^2 ratio is exact: it is the square root of the maximum of the
kernel diagonal sum_j |u_j(x)|^2 (evaluation-functional norm). The extremal
L^6/L^2 ratio is a smooth optimization over the coefficient sphere, computed
by multistart BFGS on a scale-invariant objective, all starts advanced
together (`_bfgs`); the returned value is a certified lower bound on the true
supremum.

BFGS evaluates the objective at a stack of coefficient rows in one of two
exact forms, picked from the sizes alone: on the (k, N) basis matrix of the
kept nodes, or, when D^2 <= k N for D = C(k + 2, 3), on the (D, D)
sixth-moment Gram matrix of `l6_moment_objective`, built once per ascent. At
N = 11,000 nodes a batched evaluation of k + 8 rows still costs less from
the Gram matrix at k = 16, where the rule already picks the basis matrix.
The reported ratio and the Hessian certificate are computed from the basis
matrix either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .grid import GridFunction, l2_norm, l2_sums


class NormError(ValueError):
    pass


@dataclass(frozen=True)
class NormTriple:
    l2: float
    l6: float
    linf: float


def norm_triple(u: GridFunction) -> NormTriple:
    a2 = np.abs(u.values) ** 2
    l6 = float((np.sum(a2**3) * u.grid.weight) ** (1.0 / 6.0))
    return NormTriple(l2=l2_norm(u), l6=l6, linf=float(np.sqrt(a2.max())))


def _basis_matrix(cluster):
    """(k, N) complex array of the cluster's basis, renormalized to unit
    discrete L^2 so that both extremal ratios are homogeneous of degree zero
    in the stored values."""
    V = np.stack([b.values for b in cluster.basis])
    nrm = np.sqrt(l2_sums(V) * cluster.basis[0].grid.weight)
    if not nrm.all():
        raise NormError("zero vector in cluster basis")
    V /= nrm[:, None]   # in place, with no second (k, N) array
    return V


def _kernel_diagonal(V):
    """K(x) = sum_j |v_j(x)|^2 over the rows of V. For unit coefficients c,
    |sum_j c_j v_j(x)|^2 <= K(x) by Cauchy-Schwarz."""
    return np.sum(np.abs(V) ** 2, axis=0)


def extremal_linf(cluster):
    """Largest L^inf/L^2 ratio over the cluster's eigenspace.

    Returns (ratio, argmax_point). Exact via the kernel diagonal.
    """
    if not cluster.basis:
        raise NormError("empty cluster")
    grid = cluster.basis[0].grid
    diag = _kernel_diagonal(_basis_matrix(cluster))
    idx = int(np.argmax(diag))
    x = grid.axis()
    n = grid.n_per_side
    point = (float(x[idx // n]), float(x[idx % n]))
    return float(np.sqrt(diag[idx])), point


SUPPORT_CUT = 1e-18


def l6_support(V, weight):
    """(keep, cut_bound): the nodes with K > SUPPORT_CUT * max K, and
    weight * sum of K^3 over the dropped nodes. For every unit c the dropped
    nodes add at most cut_bound to the L^6 sum weight * sum |c @ V|^6."""
    K = _kernel_diagonal(V)
    keep = K > SUPPORT_CUT * K.max()
    return keep, float(np.sum(K[~keep] ** 3) * weight)


def _l6_terms(C, V, weight):
    """U = C @ V, |U|^2, |U|^4 and the L^6 sums S = weight * sum |U|^6 of the
    rows of C (one S for a 1-D C)."""
    U = C @ V
    a2 = U.real ** 2 + U.imag ** 2
    a4 = a2 * a2
    return U, a2, a4, np.sum(a4 * a2, axis=-1) * weight


def _ratio_and_gradient(S, g, one_row):
    """J = S^(1/6) and G = S^(-5/6) g row by row, with J = 0 and G = 0 where
    S <= 0; the first row's J and G when one_row."""
    pos = S > 0.0
    S = np.where(pos, S, 1.0)
    J = np.where(pos, S ** (1.0 / 6.0), 0.0)
    G = np.where(pos[:, None], S[:, None] ** (-5.0 / 6.0) * g, 0.0)
    return (J[0], G[0]) if one_row else (J, G)


def l6_objective_and_gradient(coeffs, V, weight, Vc=None):
    """J(c) = ||sum_j c_j u_j||_6 for orthonormal rows of V, with the complex
    gradient vector G such that dJ = Re <G, dc> on the coefficient space.

    coeffs is a stack of coefficient rows, (S, k), giving J of shape (S,) and
    G of shape (S, k); a 1-D c counts as one row and gives one J and G. Vc,
    when given, is V.conj()."""
    if Vc is None:
        Vc = V.conj()
    C = np.atleast_2d(coeffs)
    U, _, a4, S = _l6_terms(C, V, weight)
    g = ((a4 * U) @ Vc.T) * weight  # dS/dconj(c) / 3, one row per c
    return _ratio_and_gradient(S, g, coeffs.ndim == 1)


MOMENT_PANEL = 2048   # nodes per panel of the sixth-moment build


def l6_moment_objective(V, weight):
    """The objective of `l6_objective_and_gradient` on V, evaluated from the
    sixth-moment Gram matrix instead of V.

    u^3 = sum_a m_a z_a v_a over the multisets a = (i <= j <= l), for the
    symmetric cube z_a = c_i c_j c_l, the multinomial count m_a (1, 3 or 6
    ordered triples) and the row product v_a = v_i v_j v_l. So
    S = weight * sum |u|^6 = z^H T z with T_ab = weight m_a m_b sum_x
    conj(v_a) v_b, a (D, D) matrix for D = C(k + 2, 3). T is summed over
    panels of MOMENT_PANEL nodes, so the build holds two (D, MOMENT_PANEL)
    arrays at a time; afterwards an evaluation costs O(D^2) whatever the node
    count. Returns C -> (J, G) on a stack of rows C, as
    `l6_objective_and_gradient`; its (S, D) cubes cost one (S, D)(D, D)
    product."""
    k, n = V.shape
    trip = np.array(list(combinations_with_replacement(range(k), 3)))
    pairs = np.array(list(combinations_with_replacement(range(k), 2)))
    steps = np.count_nonzero(np.diff(trip, axis=1), axis=1)   # 0, 1 or 2
    mult = np.array([1.0, 3.0, 6.0])[steps]
    # gather[p, r] is the multiset {p} + pairs[r] = {p, i, j}, and
    # d z_gather / d c_p = 3 coef[p, r] c_i c_j for coef = m_pair / m_gather
    index = {tuple(t): r for r, t in enumerate(trip)}
    gather = np.array([[index[tuple(sorted((p, *ab)))] for ab in pairs] for p in range(k)])
    coef = np.where(pairs[:, 0] != pairs[:, 1], 2.0, 1.0) / mult[gather]
    t0, t1, t2 = trip.T
    T = np.zeros((len(trip), len(trip)), dtype=complex)
    for s in range(0, n, MOMENT_PANEL):
        Vp = V[:, s:s + MOMENT_PANEL]
        Z = Vp[t0]
        Z *= Vp[t1]
        Z *= Vp[t2]
        T += Z.conj() @ Z.T
    T *= weight * np.outer(mult, mult)
    a, b = pairs.T

    def objective(coeffs):
        C = np.atleast_2d(coeffs)
        Z = C[:, t0] * C[:, t1] * C[:, t2]
        TZ = Z @ T.T  # the rows T z; T is Hermitian
        S = np.einsum("sd,sd->s", Z.conj(), TZ).real
        # dS/dconj(c) / 3
        g = np.einsum("skp,sp->sk", coef * TZ[:, gather], np.conj(C[:, a] * C[:, b]))
        return _ratio_and_gradient(S, g, coeffs.ndim == 1)

    return objective


def l6_log_hessian(coeffs, V, weight):
    """Euclidean Hessian of log J at c in the real coordinates
    x = (Re c, Im c), as a (2k, 2k) array.

    With S = weight * sum |u|^6, the second variation of S is
    9 dc^H M dc + 6 Re(conj(dc)^T N conj(dc)) for M = conj(V) diag(w |u|^4) V^T
    and N = conj(V) diag(w |u|^2 u^2) conj(V)^T, both formed in one pass over
    V, and its first variation 6 Re <g, dc> for g = M c; log J = log(S) / 6."""
    u, a2, a4, S = _l6_terms(coeffs, V, weight)
    Vc = V.conj()
    k = V.shape[0]
    MN = Vc @ np.concatenate([V.T * (weight * a4)[:, None],
                              Vc.T * (weight * a2 * u * u)[:, None]], axis=1)
    M, N = MN[:, :k], MN[:, k:]
    g = M @ coeffs
    gamma = np.concatenate([g.real, g.imag])
    quad_M = np.block([[M.real, -M.imag], [M.imag, M.real]])
    quad_N = np.block([[N.real, N.imag], [N.imag, -N.real]])
    hess = (3.0 * quad_M + 2.0 * quad_N) / S - 6.0 * np.outer(gamma, gamma) / S**2
    return 0.5 * (hess + hess.T)


def tangent_hessian_max(coeffs, V, weight):
    """Largest eigenvalue of the Riemannian Hessian of log J on the unit
    coefficient sphere at unit c, off the phase direction ic:
    P (Hess - (x . grad) I) P with P projecting onto the real tangent
    directions orthogonal to c and ic (Absil, Mahony & Sepulchre, 2008).
    Negative certifies a strict local maximum up to phase; None when the
    space is one-dimensional and no such direction exists."""
    k = len(coeffs)
    if k < 2:
        return None
    x = np.concatenate([coeffs.real, coeffs.imag])
    ix = np.concatenate([-coeffs.imag, coeffs.real])
    Q = np.linalg.qr(np.stack([x, ix], axis=1), mode="complete")[0][:, 2:]
    # x . grad log J = 1 on the unit sphere: log J(tc) = log t + log J(c)
    riem = Q.T @ (l6_log_hessian(coeffs, V, weight) - np.eye(2 * k)) @ Q
    return float(np.linalg.eigvalsh(riem)[-1])


@dataclass
class AscentResult:
    ratio: float
    coeffs: np.ndarray
    converged: bool
    iterations: int
    cut_bound: float
    nodes_kept: int
    hessian_max: float | None = None


ASCENT_TOL = 1e-8        # BFGS gradient tolerance of the L^6 ascent
ASCENT_MAX_ITER = 500    # BFGS step cap of each start
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9   # sufficient decrease and curvature of a step
SEARCH_TRIALS = 20       # trial steps before a line search gives up


def _cubic_step(a0, f0, d0, a1, f1, d1):
    """Minimizer of the cubic with values f and slopes d at a0 and a1
    (Nocedal & Wright, eq. 3.59), or the midpoint where that is undefined or
    within a tenth of the interval of either end."""
    with np.errstate(all="ignore"):
        e1 = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
        e2 = np.sign(a1 - a0) * np.sqrt(e1 * e1 - d0 * d1)
        a = a1 - (a1 - a0) * (d1 + e2 - e1) / (d1 - d0 + 2.0 * e2)
    lo, hi = np.minimum(a0, a1), np.maximum(a0, a1)
    inside = (a > lo + 0.1 * (hi - lo)) & (a < hi - 0.1 * (hi - lo))
    return np.where(inside, a, 0.5 * (a0 + a1))


def _bfgs(f_and_grad, X):
    """Minimizes f from every row of X at once; f_and_grad(X) returns f and
    its gradient at each row. Returns the final rows, each start's step count
    and whether it converged.

    Each start keeps its own point, gradient and inverse-Hessian
    approximation (Nocedal & Wright, Algorithm 6.1) and makes scipy's BFGS
    choices: the identity as first inverse Hessian, and a first trial step
    from the last decrease of f. Its line search looks for a strong-Wolfe
    step by expansion and cubic zoom (Algorithms 3.5 and 3.6). Each call of
    f_and_grad evaluates the next trial point of every running start.

    A start stops converged when the max-norm of its gradient reaches
    ASCENT_TOL. It stops not converged after ASCENT_MAX_ITER steps, or when
    its line search can no longer lower f (scipy's "precision loss"): its
    direction does not descend, its bracket predicts a change of f below f's
    rounding, or SEARCH_TRIALS trials found no step.
    """
    X = X.copy()
    n_starts, n = X.shape
    F, G = f_and_grad(X)
    H = np.tile(np.eye(n), (n_starts, 1, 1))
    P = -G
    slope = -np.einsum("si,si->s", G, G)    # of f along P at the step's start
    F_old = F + np.sqrt(-slope) / 2         # scipy's: the first trial moves x by ~1
    steps = np.zeros(n_starts, dtype=int)
    converged = np.max(np.abs(G), axis=1) <= ASCENT_TOL
    running = ~converged
    alpha, trials = np.ones(n_starts), np.zeros(n_starts, dtype=int)
    # the line-search bracket: lo is the lowest sufficient-decrease trial so
    # far, hi the other end (inf until a trial overshoots)
    lo_a, lo_f, lo_d = np.zeros(n_starts), F.copy(), slope.copy()
    hi_a, hi_f, hi_d = np.full(n_starts, np.inf), np.zeros(n_starts), np.zeros(n_starts)

    def start_search(i):
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.minimum(1.0, 2.02 * (F[i] - F_old[i]) / slope[i])
        alpha[i] = np.where(a > 0.0, a, 1.0)
        trials[i] = 0
        lo_a[i], lo_f[i], lo_d[i], hi_a[i] = 0.0, F[i], slope[i], np.inf

    start_search(np.flatnonzero(running))
    while running.any():
        r = np.flatnonzero(running)
        a = alpha[r]
        Ft, Gt = f_and_grad(X[r] + a[:, None] * P[r])
        Dt = np.einsum("si,si->s", Gt, P[r])
        trials[r] += 1
        decrease = (Ft <= F[r] + WOLFE_C1 * a * slope[r]) & ~((lo_a[r] > 0.0) & (Ft >= lo_f[r]))
        wolfe = decrease & (np.abs(Dt) <= -WOLFE_C2 * slope[r])
        # the bracket of the searches that go on: a trial without enough
        # decrease ends it; one past the minimum turns lo into its far end;
        # without a far end the next trial lies 4 times further than the
        # last one was from lo (as scipy's line search extrapolates)
        alpha[r] = a + 4.0 * (a - lo_a[r])
        down = decrease & ~wolfe
        flip = r[down & np.where(hi_a[r] > lo_a[r], Dt >= 0.0, Dt <= 0.0)]
        hi_a[flip], hi_f[flip], hi_d[flip] = lo_a[flip], lo_f[flip], lo_d[flip]
        up = r[~decrease]
        hi_a[up], hi_f[up], hi_d[up] = a[~decrease], Ft[~decrease], Dt[~decrease]
        lo_a[r[down]], lo_f[r[down]], lo_d[r[down]] = a[down], Ft[down], Dt[down]
        stalled = ~wolfe & ((np.abs(hi_a[r] - lo_a[r]) * -slope[r] <= 4.0 * np.spacing(np.abs(F[r])))
                            | (trials[r] >= SEARCH_TRIALS))
        running[r[stalled]] = False

        i = r[wolfe]
        s, y = a[wolfe, None] * P[i], Gt[wolfe] - G[i]
        F_old[i] = F[i]
        X[i] += s
        F[i], G[i] = Ft[wolfe], Gt[wolfe]
        steps[i] += 1
        converged[i] = np.max(np.abs(G[i]), axis=1) <= ASCENT_TOL
        running[i] = ~converged[i] & (steps[i] < ASCENT_MAX_ITER)
        go = running[i]
        i, s, y = i[go], s[go], y[go]
        # the BFGS update H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T
        # for rho = 1 / y.s, which is positive at a strong-Wolfe step up to
        # rounding (a start whose y.s is not keeps its H)
        ys = np.einsum("si,si->s", y, s)
        rho = np.divide(1.0, ys, out=np.zeros_like(ys), where=ys > 0.0)
        Hy = np.einsum("sij,sj->si", H[i], y)
        sHy = s[:, :, None] * Hy[:, None, :]
        H[i] += ((rho * (1.0 + rho * np.einsum("si,si->s", y, Hy)))[:, None, None]
                 * s[:, :, None] * s[:, None, :]
                 - rho[:, None, None] * (sHy + sHy.transpose(0, 2, 1)))
        P[i] = -np.einsum("sij,sj->si", H[i], G[i])
        slope[i] = np.einsum("si,si->s", G[i], P[i])
        running[i[slope[i] >= 0.0]] = False
        start_search(i)

        o = r[running[r] & ~wolfe & np.isfinite(hi_a[r])]
        alpha[o] = _cubic_step(lo_a[o], lo_f[o], lo_d[o], hi_a[o], hi_f[o], hi_d[o])
    return X, steps, converged


def extremal_l6(cluster, restarts: int = 8, seed: int = 0) -> AscentResult:
    """Multistart BFGS maximization of the L^6/L^2 ratio over the cluster's
    eigenspace.

    Minimizes the scale-invariant f(x) = -log J(c) + log|c| over
    x = (Re c, Im c), so no sphere constraint is needed. The k basis vectors
    and `restarts` random unit vectors start one batched BFGS (`_bfgs`), which
    evaluates J at every running start in one call of the objective per
    step. A start stops converged at gradient max-norm ASCENT_TOL, and not
    converged after ASCENT_MAX_ITER steps or when its line search can no
    longer lower f. Deterministic for a fixed seed; ties between starts break
    toward the lowest start index.

    The ascent runs on the nodes that `l6_support` keeps; the dropped nodes
    change J^6 by at most the result's cut_bound; BFGS evaluates J in the
    form the module docstring's size rule picks. The ratios of all starts
    are then evaluated on all nodes in one product, so the reported ratio is
    a lower bound whatever the cut. The winner's ratio is
    `l6_objective_and_gradient` at its coeffs on all nodes, evaluated again
    on its own row. The winner also carries converged, iterations (its
    accepted steps), hessian_max (`tangent_hessian_max` on the kept nodes)
    and nodes_kept.
    """
    if not cluster.basis:
        raise NormError("empty cluster")
    if restarts < 1:
        raise NormError("restarts must be >= 1")
    V = _basis_matrix(cluster)
    w = cluster.basis[0].grid.weight
    keep, cut_bound = l6_support(V, w)
    Vk = V[:, keep]
    k, nodes_kept = Vk.shape
    if comb(k + 2, 3) ** 2 <= k * nodes_kept:
        objective = l6_moment_objective(Vk, w)
    else:
        Vkc = Vk.conj()
        objective = lambda C: l6_objective_and_gradient(C, Vk, w, Vkc)

    def f_and_grad(X):
        J, G = objective(X[:, :k] + 1j * X[:, k:])
        xx = np.einsum("si,si->s", X, X)
        return (-np.log(J) + 0.5 * np.log(xx),
                -np.concatenate([G.real, G.imag], axis=1) / J[:, None] + X / xx[:, None])

    # starts at the basis vectors guarantee the result dominates every
    # individual basis ratio (BFGS only accepts decreasing steps); random
    # restarts explore mixed directions
    starts = [np.eye(k, dtype=complex)]
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        starts.append(c[None] / np.linalg.norm(c))
    C = np.concatenate(starts)
    X, steps, converged = _bfgs(f_and_grad, np.concatenate([C.real, C.imag], axis=1))
    C = X[:, :k] + 1j * X[:, k:]
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    ratios = _l6_terms(C, V, w)[3] ** (1.0 / 6.0)
    best = 0
    for j in range(1, len(C)):
        if ratios[j] > ratios[best] + 1e-15:
            best = j
    c = C[best]
    return AscentResult(ratio=float(l6_objective_and_gradient(c, V, w)[0]), coeffs=c,
                        converged=bool(converged[best]), iterations=int(steps[best]),
                        cut_bound=cut_bound, nodes_kept=nodes_kept,
                        hessian_max=tangent_hessian_max(c, Vk, w))
