"""Discrete L^2 / L^6 / L^inf norms and eigenspace-extremal norm ratios.

The quadrature weight is spacing^2 at every node (the package-wide
convention). For an orthonormal eigenspace basis {u_j} the extremal
L^inf/L^2 ratio is exact: it is the square root of the maximum of the
kernel diagonal sum_j |u_j(x)|^2 (evaluation-functional norm). The extremal
L^6/L^2 ratio is a smooth optimization over the coefficient sphere, computed
by multistart BFGS on a scale-invariant objective; the returned value is a
certified lower bound on the true supremum.

BFGS evaluates the objective in one of two exact forms, picked from the sizes
alone: on the (k, N) basis matrix of the kept nodes, or, when D^2 <= k N for
D = C(k + 2, 3), on the (D, D) sixth-moment Gram matrix of
`l6_moment_objective`, built once per ascent. At N = 11,000 nodes the two cost
the same per evaluation near k = 14-16. The reported ratio and the Hessian
certificate are computed from the basis matrix either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .grid import GridFunction


class NormError(ValueError):
    pass


@dataclass(frozen=True)
class NormTriple:
    l2: float
    l6: float
    linf: float


def norm_triple(u: GridFunction) -> NormTriple:
    w = u.grid.weight
    a2 = np.abs(u.values) ** 2
    l2 = float(np.sqrt(a2.sum() * w))
    l6 = float((np.sum(a2**3) * w) ** (1.0 / 6.0))
    linf = float(np.sqrt(a2.max()))
    return NormTriple(l2=l2, l6=l6, linf=linf)


def _basis_matrix(cluster):
    """(k, N) complex array of the cluster's basis, renormalized to unit
    discrete L^2 so that both extremal ratios are homogeneous of degree zero
    in the stored values."""
    grid = cluster.basis[0].grid
    rows = []
    for b in cluster.basis:
        nrm = np.sqrt(np.vdot(b.values, b.values).real * grid.weight)
        if nrm == 0.0:
            raise NormError("zero vector in cluster basis")
        rows.append(b.values / nrm)
    return np.stack(rows)


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


def _l6_terms(coeffs, V, weight):
    """u = coeffs @ V, |u|^2, |u|^4 and the L^6 sum S = weight * sum |u|^6."""
    u = coeffs @ V
    a2 = u.real ** 2 + u.imag ** 2
    a4 = a2 * a2
    return u, a2, a4, float(np.sum(a4 * a2) * weight)


def l6_objective_and_gradient(coeffs, V, weight, Vc=None):
    """J(c) = ||sum_j c_j u_j||_6 for orthonormal rows of V, with the complex
    gradient vector G such that dJ = Re <G, dc> on the coefficient space.
    Vc, when given, is V.conj()."""
    if Vc is None:
        Vc = V.conj()
    u, _, a4, S = _l6_terms(coeffs, V, weight)
    if S <= 0.0:
        return 0.0, np.zeros_like(coeffs)
    g = (Vc @ (a4 * u)) * weight  # dS/dconj(c) / 3
    return S ** (1.0 / 6.0), S ** (-5.0 / 6.0) * g


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
    count. Returns c -> (J, G)."""
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
        z = coeffs[t0] * coeffs[t1] * coeffs[t2]
        Tz = T @ z
        S = float(np.vdot(z, Tz).real)
        if S <= 0.0:
            return 0.0, np.zeros_like(coeffs)
        g = (coef * Tz[gather]) @ np.conj(coeffs[a] * coeffs[b])  # dS/dconj(c) / 3
        return S ** (1.0 / 6.0), S ** (-5.0 / 6.0) * g

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
ASCENT_MAX_ITER = 500    # BFGS iteration cap of each restart


def extremal_l6(cluster, restarts: int = 8, seed: int = 0) -> AscentResult:
    """Multistart BFGS maximization of the L^6/L^2 ratio over the cluster's
    eigenspace.

    Minimizes the scale-invariant f(x) = -log J(c) + log|c| over
    x = (Re c, Im c), so no sphere constraint is needed; BFGS stops at
    gradient ASCENT_TOL or after ASCENT_MAX_ITER iterations. Deterministic for
    a fixed seed; ties between restarts break toward the lowest restart index.

    The ascent runs on the nodes that `l6_support` keeps; the dropped nodes
    change J^6 by at most the result's cut_bound; BFGS evaluates J in the
    form the module docstring's size rule picks. Each restart's ratio is
    evaluated on all nodes, so the reported ratio is a lower bound whatever
    the cut. The winner also carries hessian_max (`tangent_hessian_max` on
    the kept nodes) and nodes_kept.
    """
    # imported here: scipy.optimize costs every command ~0.3 s and ~15 MB
    from scipy.optimize import minimize

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
        objective = lambda c: l6_objective_and_gradient(c, Vk, w, Vkc)

    def f_and_grad(x):
        c = x[:k] + 1j * x[k:]
        J, G = objective(c)
        return (-np.log(J) + 0.5 * np.log(x @ x),
                -np.concatenate([G.real, G.imag]) / J + x / (x @ x))

    # starts at the basis vectors guarantee the result dominates every
    # individual basis ratio (BFGS only accepts decreasing steps); random
    # restarts explore mixed directions
    starts = [np.eye(k, dtype=complex)[j] for j in range(k)]
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        starts.append(c / np.linalg.norm(c))

    best = None
    for c in starts:
        res = minimize(f_and_grad, np.concatenate([c.real, c.imag]), jac=True,
                       method="BFGS", options={"gtol": ASCENT_TOL, "maxiter": ASCENT_MAX_ITER})
        c = res.x[:k] + 1j * res.x[k:]
        c /= np.linalg.norm(c)
        cur = AscentResult(ratio=_l6_terms(c, V, w)[3] ** (1.0 / 6.0), coeffs=c,
                           converged=bool(res.success),
                           iterations=int(res.nit), cut_bound=cut_bound,
                           nodes_kept=nodes_kept)
        if best is None or cur.ratio > best.ratio + 1e-15:
            best = cur
    best.hessian_max = tangent_hessian_max(best.coeffs, Vk, w)
    return best
