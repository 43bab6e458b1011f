"""Scalar potentials for the magnetic Laplacian, with analytic derivatives.

Every shipped potential is smooth, grows quadratically, and has all derivatives
of order >= 2 bounded (the tests hold each kind's bounds against
finite-difference sampling on a grid). (Any growth faster than |x|^eps
already makes the operator's null space infinite-dimensional; quadratic growth
is recorded here as a property of the shipped family, not a requirement the
code enforces.)

Potentials are immutable and their callables pure, so instances are safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# the kinds make_potential builds and a config can name
KINDS = ("model_quadratic", "quadratic_plus_trig", "quadratic_plus_gaussian_bump")

GRAD_SUP_SAMPLES = 721      # ball_sup mesh of Potential.grad_sup_norm
LAP_SUP_RADIUS, LAP_SUP_SAMPLES = 30.0, 601   # ball and mesh of laplacian_sup_norm


class PotentialError(ValueError):
    pass


@dataclass(frozen=True)
class Potential:
    """Scalar field phi with gradient and Laplacian callables.

    All callables accept numpy arrays (x1, x2) broadcastable to a common shape
    and are pure, so a Potential is safe to share across threads.
    """

    kind: str
    value_fn: Callable  # (x1, x2) -> phi
    grad_fn: Callable   # (x1, x2) -> (d1 phi, d2 phi)
    laplacian_fn: Callable  # (x1, x2) -> lap phi
    params: tuple = ()

    def value(self, x1, x2):
        return self.value_fn(np.asarray(x1, float), np.asarray(x2, float))

    def grad(self, x1, x2):
        return self.grad_fn(np.asarray(x1, float), np.asarray(x2, float))

    def laplacian(self, x1, x2):
        out = self.laplacian_fn(np.asarray(x1, float), np.asarray(x2, float))
        return np.broadcast_to(np.asarray(out, float), np.broadcast(x1, x2).shape).copy()

    def grad_sup_norm(self, radius: float) -> float:
        """sup |grad phi| over the closed ball of given radius, sampled by
        `ball_sup` (a lower estimate)."""
        return ball_sup(lambda x1, x2: np.sqrt(sum(g**2 for g in self.grad(x1, x2))),
                        radius, GRAD_SUP_SAMPLES)

    def laplacian_sup_norm(self) -> float:
        """sup |lap phi| over the ball of radius LAP_SUP_RADIUS, sampled by
        `ball_sup`: a lower estimate of the global sup (trig eps = 0.1 reads
        4.2 - O(1e-6) against the exact 4 + 2 eps). Sampled once per object."""
        return self._laplacian_sup

    @cached_property
    def _laplacian_sup(self) -> float:
        return ball_sup(self.laplacian, LAP_SUP_RADIUS, LAP_SUP_SAMPLES)


def ball_sup(fn, radius: float, samples: int) -> float:
    """max |fn(x1, x2)| over a polar mesh of the closed ball of given radius
    centered at 0: `samples` angles on [0, 2 pi] by samples // 2 radii on
    [0, radius]. Like every sampled sup in the package, a lower estimate of
    the true sup."""
    t = np.linspace(0.0, 2 * np.pi, samples)
    r = np.linspace(0.0, radius, samples // 2)
    R, T = np.meshgrid(r, t, indexing="ij")
    return float(np.abs(fn(R * np.cos(T), R * np.sin(T))).max())


def _model():
    return Potential(
        kind="model_quadratic",
        value_fn=lambda x1, x2: x1**2 + x2**2,
        grad_fn=lambda x1, x2: (2 * x1, 2 * x2),
        laplacian_fn=lambda x1, x2: 4.0 + 0.0 * x1,
    )


def _trig(eps):
    # phi = |x|^2 + eps sin(x1) cos(x2)
    return Potential(
        kind="quadratic_plus_trig",
        value_fn=lambda x1, x2: x1**2 + x2**2 + eps * np.sin(x1) * np.cos(x2),
        grad_fn=lambda x1, x2: (
            2 * x1 + eps * np.cos(x1) * np.cos(x2),
            2 * x2 - eps * np.sin(x1) * np.sin(x2),
        ),
        laplacian_fn=lambda x1, x2: 4.0 - 2 * eps * np.sin(x1) * np.cos(x2),
        params=(eps,),
    )


def _bump(eps):
    # phi = |x|^2 + eps exp(-|x|^2)
    g = lambda x1, x2: np.exp(-(x1**2 + x2**2))
    return Potential(
        kind="quadratic_plus_gaussian_bump",
        value_fn=lambda x1, x2: x1**2 + x2**2 + eps * g(x1, x2),
        grad_fn=lambda x1, x2: (
            2 * x1 * (1 - eps * g(x1, x2)),
            2 * x2 * (1 - eps * g(x1, x2)),
        ),
        laplacian_fn=lambda x1, x2: 4.0 + eps * (4 * (x1**2 + x2**2) - 4) * g(x1, x2),
        params=(eps,),
    )


def make_potential(kind: str, params=()) -> Potential:
    """Build a Potential of one of the KINDS.

    params: none for the model, one amplitude eps >= 0 for the perturbed
    kinds. Any other phi is a `Potential(...)` built directly from its
    callables; the eigensolvers need it even in x2, phi(x1, -x2) =
    phi(x1, x2), as every kind here is.
    """
    params = tuple(params)
    if kind not in KINDS:
        raise PotentialError(f"unknown potential kind {kind!r}; known: {KINDS}")
    arity = int(kind != "model_quadratic")
    if len(params) != arity:
        raise PotentialError(f"{kind} takes {arity} parameter(s), got {params}")
    if not arity:
        return _model()
    eps = float(params[0])
    if not 0 <= eps < np.inf:
        raise PotentialError(f"perturbation amplitude must be finite and >= 0, got {eps}")
    return _trig(eps) if kind == "quadratic_plus_trig" else _bump(eps)


def _fd_partial(f, x1, x2, i_order, j_order, step):
    """Centered finite-difference estimate of d1^i d2^j f at (x1, x2)."""
    if i_order > 0:
        return (_fd_partial(f, x1 + step, x2, i_order - 1, j_order, step)
                - _fd_partial(f, x1 - step, x2, i_order - 1, j_order, step)) / (2 * step)
    if j_order > 0:
        return (_fd_partial(f, x1, x2 + step, i_order, j_order - 1, step)
                - _fd_partial(f, x1, x2 - step, i_order, j_order - 1, step)) / (2 * step)
    return f(x1, x2)

