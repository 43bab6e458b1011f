"""Discrete L^2 / L^6 / L^inf norms and eigenspace-extremal norm ratios.

The quadrature weight is spacing^2 at every node (the package-wide
convention). For an orthonormal eigenspace basis {u_j} the extremal
L^inf/L^2 ratio is exact: it is the square root of the maximum of the
kernel diagonal sum_j |u_j(x)|^2 (evaluation-functional norm). The extremal
L^6/L^2 ratio is a smooth optimization over the coefficient sphere, computed
by multistart BFGS on a scale-invariant objective; the returned value is a
certified lower bound on the true supremum.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def extremal_linf(cluster):
    """Largest L^inf/L^2 ratio over the cluster's eigenspace.

    Returns (ratio, argmax_point). Exact via the kernel diagonal.
    """
    if not cluster.basis:
        raise NormError("empty cluster")
    grid = cluster.basis[0].grid
    V = _basis_matrix(cluster)
    diag = np.sum(np.abs(V) ** 2, axis=0)
    idx = int(np.argmax(diag))
    x = grid.axis()
    n = grid.n_per_side
    point = (float(x[idx // n]), float(x[idx % n]))
    return float(np.sqrt(diag[idx])), point


def _l6_value(coeffs, V, weight):
    u = coeffs @ V
    a2 = np.real(u) ** 2 + np.imag(u) ** 2
    S = float(np.sum(a2**3) * weight)
    return S ** (1.0 / 6.0) if S > 0.0 else 0.0, u, a2, S


def l6_objective_and_gradient(coeffs, V, weight, Vc=None):
    """J(c) = ||sum_j c_j u_j||_6 for orthonormal rows of V, with the complex
    gradient vector G such that dJ = Re <G, dc> on the coefficient space."""
    if Vc is None:
        Vc = V.conj()
    J, u, a2, S = _l6_value(coeffs, V, weight)
    if S <= 0.0:
        return 0.0, np.zeros_like(coeffs)
    g = (Vc @ ((a2**2) * u)) * weight  # dS/dconj(c) / 3
    return J, S ** (-5.0 / 6.0) * g


@dataclass
class AscentResult:
    ratio: float
    coeffs: np.ndarray
    converged: bool
    restart_index: int
    iterations: int


def extremal_l6(cluster, restarts: int = 8, tol: float = 1e-8,
                seed: int = 0, max_iter: int = 500) -> AscentResult:
    """Multistart BFGS maximization of the L^6/L^2 ratio over the cluster's
    eigenspace.

    Minimizes the scale-invariant f(x) = -log J(c) + log|c| over
    x = (Re c, Im c), so no sphere constraint is needed; tol is the BFGS
    gradient tolerance and max_iter its iteration cap. Deterministic for a
    fixed seed; ties between restarts break toward the lowest restart index.
    """
    # imported here: scipy.optimize costs every command ~0.3 s and ~15 MB
    from scipy.optimize import minimize

    if not cluster.basis:
        raise NormError("empty cluster")
    if restarts < 1:
        raise NormError("restarts must be >= 1")
    V = _basis_matrix(cluster)
    Vc = V.conj()
    w = cluster.basis[0].grid.weight
    k = V.shape[0]

    def f_and_grad(x):
        c = x[:k] + 1j * x[k:]
        J, G = l6_objective_and_gradient(c, V, w, Vc)
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
    for r, c in enumerate(starts):
        res = minimize(f_and_grad, np.concatenate([c.real, c.imag]), jac=True,
                       method="BFGS", options={"gtol": tol, "maxiter": max_iter})
        c = res.x[:k] + 1j * res.x[k:]
        c /= np.linalg.norm(c)
        cur = AscentResult(ratio=_l6_value(c, V, w)[0], coeffs=c,
                           converged=bool(res.success), restart_index=r,
                           iterations=int(res.nit))
        if best is None or cur.ratio > best.ratio + 1e-15:
            best = cur
    return best
