"""Continuous-time dynamics: nominal flows and rigorous reach-set dilation.

The disturbed system is the differential inclusion
``xdot in f(x, u) + W`` with ``W`` an origin-centered box.  Reach sets are
over-approximated by rectangles using the linear growth bound
``r' = exp(L*tau) r + (int_0^tau exp(L*s) ds) w`` where ``L`` bounds the
Jacobian of ``f`` entrywise over the domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import expm


def dubins_field(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Unit-speed car: (cos x3, sin x3, u).  Vectorized over leading axes."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    out = np.empty_like(x)
    out[..., 0] = np.cos(x[..., 2])
    out[..., 1] = np.sin(x[..., 2])
    out[..., 2] = u[..., 0] if u.ndim else u
    return out


def zero_field(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.zeros_like(np.asarray(x, dtype=float))


VECTOR_FIELDS: dict[str, Callable] = {
    "dubins_car": dubins_field,
    "zero": zero_field,
}

# entrywise Jacobian bounds: |sin|, |cos| <= 1
DUBINS_LIPSCHITZ = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class ContinuousSystem:
    """System description ``(X, U, W, f)`` plus sampling time and bounds."""

    name: str
    state_dim: int
    input_dim: int
    tau: float
    lipschitz: np.ndarray
    dist_halfwidth: np.ndarray  # per-dim half width of W; zeros => W = {0}
    angle_dims: tuple[int, ...] = ()
    # dimensions the field does not read: translating the start state along
    # them translates the flow, so the abstraction builds one row for all
    # cells that differ only there
    invariant_dims: tuple[int, ...] = ()
    field: Callable = field(default=None, repr=False)

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        L = np.asarray(self.lipschitz, dtype=float)
        if np.any(L < 0):
            raise ValueError("lipschitz matrix must be non-negative")
        w = np.asarray(self.dist_halfwidth, dtype=float)
        if np.any(w < 0):
            raise ValueError("disturbance box must contain the origin")
        object.__setattr__(self, "lipschitz", L)
        object.__setattr__(self, "dist_halfwidth", w)
        inv = tuple(sorted(set(self.invariant_dims)))
        if any(not 0 <= d < self.state_dim for d in inv):
            raise ValueError("invariant dimensions out of range")
        object.__setattr__(self, "invariant_dims", inv)
        if self.field is None:
            object.__setattr__(self, "field", VECTOR_FIELDS[self.name])

    def f(self, x, u):
        return self.field(x, u)


def dubins_car(tau: float = 0.2, dist_halfwidth=None) -> ContinuousSystem:
    w = np.zeros(3) if dist_halfwidth is None else np.asarray(dist_halfwidth, float)
    return ContinuousSystem(
        name="dubins_car",
        state_dim=3,
        input_dim=1,
        tau=tau,
        lipschitz=DUBINS_LIPSCHITZ,
        dist_halfwidth=w,
        angle_dims=(2,),
        invariant_dims=(0, 1),
    )


def wrap_angles(sys: ContinuousSystem, x: np.ndarray) -> np.ndarray:
    x = np.array(x, dtype=float, copy=True)
    for d in sys.angle_dims:
        x[..., d] = np.mod(x[..., d] + np.pi, 2 * np.pi) - np.pi
    return x


def flow(sys: ContinuousSystem, x0, u, t: float, substeps: int = 8,
         disturbance=None) -> np.ndarray:
    """RK4 integration of ``xdot = f(x, u) + w`` with constant ``u`` and ``w``.

    ``x0`` may carry leading batch axes.  Angle components are wrapped to
    ``[-pi, pi)`` at the end.
    """
    x = np.asarray(x0, dtype=float)
    u = np.asarray(u, dtype=float)
    if disturbance is None:
        g = sys.f
    else:
        w = np.asarray(disturbance, dtype=float)

        def g(x_, u_):
            return sys.f(x_, u_) + w

    h = t / substeps
    for _ in range(substeps):
        k1 = g(x, u)
        k2 = g(x + 0.5 * h * k1, u)
        k3 = g(x + 0.5 * h * k2, u)
        k4 = g(x + h * k3, u)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return wrap_angles(sys, x)


def growth_matrices(L: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """``(exp(L tau), int_0^tau exp(L s) ds)`` via one augmented exponential.

    ``expm([[L, I], [0, 0]] * tau)`` has the integral in its upper-right
    block; for the nilpotent Dubins bound both blocks are exact polynomials.
    """
    n = L.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = L
    aug[:n, n:] = np.eye(n)
    E = expm(aug * tau)
    return E[:n, :n], E[:n, n:]


def reach_over_approx(sys: ContinuousSystem, center, radius, u,
                      tau: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular over-approximation of ``Sol(cell, u, tau)``.

    Returns ``(center', radius')`` with ``center' = flow(center, u, tau)`` and
    ``radius' = exp(L tau) radius + int_0^tau exp(L s) ds * w``.  Angle radii
    saturate at pi (full circle).  ``center`` may be batched.
    """
    tau = sys.tau if tau is None else tau
    eL, iL = growth_matrices(sys.lipschitz, tau)
    radius = np.asarray(radius, dtype=float)
    r_out = radius @ eL.T + sys.dist_halfwidth @ iL.T
    for d in sys.angle_dims:
        r_out[..., d] = np.minimum(r_out[..., d], np.pi)
    c_out = flow(sys, center, u, tau)
    return c_out, r_out
