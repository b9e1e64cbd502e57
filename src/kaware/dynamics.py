"""Continuous-time dynamics: nominal flows and rigorous reach-set dilation.

The disturbed system is the differential inclusion
``xdot in f(x, u) + W`` with ``W`` an origin-centered box.  Reach sets are
over-approximated by rectangles using the linear growth bound
``r' = exp(L*tau) r + (int_0^tau exp(L*s) ds) w`` where ``L`` bounds the
Jacobian of ``f`` entrywise over the domain; :func:`reach_over_approx` is
the one place that bound is computed.  ``L`` must be nilpotent (``L^n = 0``,
as for the Dubins car), so both matrices are finite power series in ``L``
and :func:`growth_matrices` sums them exactly, with no truncation or
scaling step.  Flows are not wrapped: which
coordinates are angles is the state grid's ``periodic`` mask, and callers
pass flowed states through ``Grid.wrap``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def dubins_field(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Unit-speed car: (cos x3, sin x3, u).  Vectorized over leading axes."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    out = np.empty_like(x)
    out[..., 0] = np.cos(x[..., 2])
    out[..., 1] = np.sin(x[..., 2])
    out[..., 2] = u[..., 0] if u.ndim else u
    return out


# entrywise Jacobian bounds: |sin|, |cos| <= 1
DUBINS_LIPSCHITZ = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class ContinuousSystem:
    """System description ``(X, U, W, f)`` plus sampling time and bounds;
    ``name`` is hashed into the abstraction cache's fingerprint."""

    name: str
    tau: float
    lipschitz: np.ndarray       # (n, n) for an n-dimensional state
    dist_halfwidth: np.ndarray  # per-dim half width of W; zeros => W = {0}
    field: Callable = field(repr=False)
    # dimensions the field does not read: translating the start state along
    # them translates the flow, so the abstraction builds one row for all
    # cells that differ only there
    invariant_dims: tuple[int, ...] = ()

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        L = np.asarray(self.lipschitz, dtype=float)
        if not np.all(L >= 0):
            raise ValueError("lipschitz matrix must be non-negative")
        growth_matrices(L, self.tau)  # refuses a bound that is not nilpotent
        w = np.asarray(self.dist_halfwidth, dtype=float)
        if np.any(w < 0):
            raise ValueError("disturbance box must contain the origin")
        object.__setattr__(self, "lipschitz", L)
        object.__setattr__(self, "dist_halfwidth", w)
        inv = tuple(sorted(set(self.invariant_dims)))
        if any(not 0 <= d < L.shape[0] for d in inv):
            raise ValueError("invariant dimensions out of range")
        object.__setattr__(self, "invariant_dims", inv)


def dubins_car(tau: float = 0.2, dist_halfwidth=(0.0, 0.0, 0.0)) -> ContinuousSystem:
    return ContinuousSystem(
        name="dubins_car",
        tau=tau,
        lipschitz=DUBINS_LIPSCHITZ,
        dist_halfwidth=dist_halfwidth,
        field=dubins_field,
        invariant_dims=(0, 1),
    )


_SUBSTEPS = 8  # RK4 steps per call of flow


def flow(sys: ContinuousSystem, x0, u, t: float, disturbance=0.0) -> np.ndarray:
    """RK4 integration of ``xdot = f(x, u) + w`` with constant ``u`` and
    ``w = disturbance``: zero by default, the nominal flow.

    ``x0`` may carry leading batch axes.  The result is not wrapped.
    """
    x = np.asarray(x0, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(disturbance, dtype=float)
    h = t / _SUBSTEPS
    for _ in range(_SUBSTEPS):
        k1 = sys.field(x, u) + w
        k2 = sys.field(x + 0.5 * h * k1, u) + w
        k3 = sys.field(x + 0.5 * h * k2, u) + w
        k4 = sys.field(x + h * k3, u) + w
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def growth_matrices(L: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """``(exp(L tau), int_0^tau exp(L s) ds)``, the upper blocks of
    ``exp(M)`` for ``M = [[L, I], [0, 0]] * tau``.

    ``M^k = tau^k [[L^k, L^(k-1)], [0, 0]]``, so for a nilpotent ``L``
    ``M^(n+1) = 0`` and ``sum_{k<=n} M^k / k!`` is the exponential itself.
    A bound that is not nilpotent raises ``ValueError``; for a non-negative
    ``L`` the test on its nonzero pattern is exact.
    """
    n = L.shape[0]
    if np.linalg.matrix_power((L != 0).astype(float), n).any():
        raise ValueError("the growth bound must be nilpotent (L^n = 0)")
    m = np.block([[L, np.eye(n)], [np.zeros((n, 2 * n))]]) * tau
    term = total = np.eye(2 * n)
    # a huge tau overflows to inf and NaN, which build_abstraction rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            term = term @ m / k
            total = total + term
    return total[:n, :n], total[:n, n:]


def reach_over_approx(sys: ContinuousSystem, center, radius,
                      u) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular over-approximation of ``Sol(cell, u, tau)``.

    Returns ``(center', radius')`` with ``center' = flow(center, u, tau)``
    (unwrapped) and ``radius' = exp(L tau) radius + int_0^tau exp(L s) ds *
    w``.  ``center`` may be batched.
    """
    eL, iL = growth_matrices(sys.lipschitz, sys.tau)
    radius = np.asarray(radius, dtype=float)
    r_out = radius @ eL.T + sys.dist_halfwidth @ iL.T
    return flow(sys, center, u, sys.tau), r_out
