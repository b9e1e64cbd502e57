"""Independent reference implementations used to pin expected values.

Everything in here is deliberately naive (plain loops, sets, Taylor
series) so that agreement with the library is evidence, not tautology.
Nothing imports from the modules under test except where a converter has
to pattern-match AST node types.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# dynamics


def dubins_arc(x0, u, t):
    """Closed-form unit-speed arc: exact endpoint of the Dubins ODE."""
    x1, x2, th = float(x0[0]), float(x0[1]), float(x0[2])
    if abs(u) < 1e-12:
        return np.array([x1 + t * math.cos(th), x2 + t * math.sin(th), th])
    return np.array([
        x1 + (math.sin(th + u * t) - math.sin(th)) / u,
        x2 + (math.cos(th) - math.cos(th + u * t)) / u,
        th + u * t,
    ])


def expm_series(A, tol=1e-16):
    """Matrix exponential by scaled-and-squared Taylor series."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    norm = np.abs(A).sum(axis=1).max()
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    B = A / (2 ** s)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ B / k
        out = out + term
        if np.abs(term).max() < tol:
            break
    for _ in range(s):
        out = out @ out
    return out


def int_expm_series(A, tau, tol=1e-16):
    """integral_0^tau e^{A s} ds = sum_k tau^{k+1}/(k+1)! A^k, term by term."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    out = np.zeros((n, n))
    term = np.eye(n) * tau
    k = 0
    while np.abs(term).max() >= tol and k < 80:
        out = out + term
        k += 1
        term = term @ A * (tau / (k + 1))
    return out


# ---------------------------------------------------------------------------
# abstraction


def per_cell_boxes(sys, grid_x, grid_u, tol=1e-9):
    """Successor boxes built cell by cell: every cell center is flowed for
    one period under every input and the growth-bound rectangle is turned
    into index ranges.

    Returns ``(lo, ln, blocked)``: ``lo`` and ``ln`` are ``(N, M, d)`` box
    starts and lengths (periodic starts wrapped, 0 when the box covers the
    circle; other starts and ends clipped to the axis), ``blocked`` is
    ``(N, M)``: the rectangle leaves the bounds on a non-periodic dimension.
    This is the construction the table abstraction replaced.
    """
    from kaware.dynamics import flow, growth_matrices

    n, m, d = grid_x.size, grid_u.size, grid_x.ndim
    centers = grid_x.centers()
    eL, iL = growth_matrices(sys.lipschitz, sys.tau)
    radius = eL @ (grid_x.eta / 2) + iL @ sys.dist_halfwidth
    for dim in sys.angle_dims:
        radius[dim] = min(radius[dim], np.pi)
    lo = np.zeros((n, m, d), dtype=np.int64)
    ln = np.zeros((n, m, d), dtype=np.int64)
    blocked = np.zeros((n, m), dtype=bool)
    xlo, xhi = grid_x.bounds.lower, grid_x.bounds.upper
    for j in range(m):
        c_out = flow(sys, centers, grid_u.center(j), sys.tau)
        r_lo = c_out - radius
        r_hi = c_out + radius
        for dim in range(d):
            nd_ = int(grid_x.counts[dim])
            eta = grid_x.eta[dim]
            k_lo = np.floor((r_lo[:, dim] - xlo[dim]) / eta - 0.5 + tol).astype(np.int64) + 1
            k_hi = np.ceil((r_hi[:, dim] - xlo[dim]) / eta + 0.5 - tol).astype(np.int64) - 1
            if grid_x.periodic[dim]:
                length = k_hi - k_lo + 1
                lo[:, j, dim] = np.where(length >= nd_, 0, np.mod(k_lo, nd_))
                ln[:, j, dim] = np.minimum(length, nd_)
            else:
                blocked[:, j] |= ((r_lo[:, dim] < xlo[dim] - tol)
                                  | (r_hi[:, dim] > xhi[dim] + tol))
                k_lo = np.clip(k_lo, 0, nd_ - 1)
                k_hi = np.clip(k_hi, 0, nd_ - 1)
                lo[:, j, dim] = k_lo
                ln[:, j, dim] = np.maximum(k_hi - k_lo + 1, 0)
    return lo, ln, blocked


# ---------------------------------------------------------------------------
# grids


def nearest_point_index(lower, eta, count, x):
    """Argmin over the explicitly enumerated grid points of one dimension."""
    points = [lower + k * eta for k in range(count)]
    return min(range(count), key=lambda k: abs(x - points[k]))


def cells_overlapping_bruteforce(grid, region_lo, region_hi):
    """All cells whose rect has positive-measure overlap with the box."""
    out = []
    for cell in range(grid.size):
        r = grid.cell_rect(cell)
        if all(r.lower[d] < region_hi[d] and region_lo[d] < r.upper[d]
               for d in range(grid.ndim)):
            out.append(cell)
    return out


# ---------------------------------------------------------------------------
# games


def reach_avoid_bruteforce(n_states, n_inputs, post, target, avoid):
    """Naive backward induction; returns (winning set, rank dict)."""
    target = set(target)
    avoid = set(avoid)
    win = set(target)
    rank = {s: 0 for s in target}
    k = 0
    while True:
        k += 1
        new = set()
        for s in range(n_states):
            if s in win or s in avoid:
                continue
            for u in range(n_inputs):
                succ = list(post(s, u))
                if succ and all(t in win for t in succ):
                    new.add(s)
                    break
        if not new:
            return win, rank
        for s in new:
            rank[s] = k
        win |= new


def safety_bruteforce(n_states, n_inputs, post, forbidden):
    """Greatest fixpoint by repeated pruning of states with no safe input."""
    alive = set(range(n_states)) - set(forbidden)
    while True:
        keep = set()
        for s in alive:
            for u in range(n_inputs):
                succ = list(post(s, u))
                if succ and all(t in alive for t in succ):
                    keep.add(s)
                    break
        if keep == alive:
            return alive
        alive = keep


def random_game(rng, max_states=50, n_inputs=4):
    """A random sparse transition system as a successor dict."""
    n = int(rng.integers(2, max_states + 1))
    succ = {}
    for s in range(n):
        for u in range(n_inputs):
            if rng.random() < 0.15:
                continue  # blocked pair
            k = int(rng.integers(1, 4))
            succ[(s, u)] = sorted(set(rng.integers(0, n, size=k).tolist()))
    return n, n_inputs, succ


# ---------------------------------------------------------------------------
# bounded LTL over ('op', ...) tuples


def ltl_holds(phi, trace, i=0):
    op = phi[0]
    if op == "true":
        return True
    if op == "p":
        return phi[1] in trace[i]
    if op == "not":
        return not ltl_holds(phi[1], trace, i)
    if op == "and":
        return ltl_holds(phi[1], trace, i) and ltl_holds(phi[2], trace, i)
    if op == "or":
        return ltl_holds(phi[1], trace, i) or ltl_holds(phi[2], trace, i)
    if op == "imp":
        return (not ltl_holds(phi[1], trace, i)) or ltl_holds(phi[2], trace, i)
    if op == "next":
        return i + 1 < len(trace) and ltl_holds(phi[1], trace, i + 1)
    if op == "until":
        # exists j >= i with right at j and left everywhere before it
        return any(
            ltl_holds(phi[2], trace, j)
            and all(ltl_holds(phi[1], trace, k) for k in range(i, j))
            for j in range(i, len(trace))
        )
    if op == "ev":
        return ltl_holds(("until", ("true",), phi[1]), trace, i)
    if op == "alw":
        return all(ltl_holds(phi[1], trace, k) for k in range(i, len(trace)))
    raise ValueError(op)


def to_tuple_formula(phi):
    """Convert a library formula AST into the oracle's tuple form."""
    from kaware import ltl as m

    if isinstance(phi, m.TrueF):
        return ("true",)
    if isinstance(phi, m.Prop):
        return ("p", phi.name)
    if isinstance(phi, m.NotF):
        return ("not", to_tuple_formula(phi.arg))
    if isinstance(phi, m.AndF):
        return ("and", to_tuple_formula(phi.left), to_tuple_formula(phi.right))
    if isinstance(phi, m.OrF):
        return ("or", to_tuple_formula(phi.left), to_tuple_formula(phi.right))
    if isinstance(phi, m.Implies):
        return ("imp", to_tuple_formula(phi.left), to_tuple_formula(phi.right))
    if isinstance(phi, m.Next):
        return ("next", to_tuple_formula(phi.arg))
    if isinstance(phi, m.Until):
        return ("until", to_tuple_formula(phi.left), to_tuple_formula(phi.right))
    if isinstance(phi, m.Eventually):
        return ("ev", to_tuple_formula(phi.arg))
    if isinstance(phi, m.Always):
        return ("alw", to_tuple_formula(phi.arg))
    raise TypeError(phi)


# ---------------------------------------------------------------------------
# proximity by dense sampling


def proximity_sampled(grid, a, b, max_range, samples=5):
    """Sampled evaluation of the detection relation (5 points per dim).

    Grid cells are identical or interior-disjoint per dimension, so the
    sampled minimum planar distance is exact (endpoints are included).
    The heading maximum is only sampled; callers must exclude pairs whose
    analytic directional maximum sits inside the sampling margin band.
    """
    ra, rb = grid.cell_rect(a), grid.cell_rect(b)
    a1 = np.linspace(ra.lower[0], ra.upper[0], samples)
    a2 = np.linspace(ra.lower[1], ra.upper[1], samples)
    th = np.linspace(ra.lower[2], ra.upper[2], samples)
    b1 = np.linspace(rb.lower[0], rb.upper[0], samples)
    b2 = np.linspace(rb.lower[1], rb.upper[1], samples)
    A1, A2 = np.meshgrid(a1, a2, indexing="ij")
    B1, B2 = np.meshgrid(b1, b2, indexing="ij")
    d1 = B1.reshape(1, -1) - A1.reshape(-1, 1)
    d2 = B2.reshape(1, -1) - A2.reshape(-1, 1)
    dist = float(np.hypot(d1, d2).min())
    direction = (d1[..., None] * np.cos(th) + d2[..., None] * np.sin(th)).max()
    return dist < max_range and float(direction) > 0.0


# ---------------------------------------------------------------------------
# Monte-Carlo abstraction soundness


def mc_soundness(abs_, sys, n_samples, rng, pieces=4):
    """Count containment violations of post() under sampled concrete steps.

    Each sample draws a (state, input) pair, a state inside the cell, and a
    piecewise-constant disturbance with `pieces` pieces in W, integrates one
    period, and checks that the quantized endpoint is a listed successor
    (samples whose endpoint leaves the state space are skipped: the pair is
    blocked or the exit is the abstraction's responsibility elsewhere).
    """
    from kaware.dynamics import flow

    grid_x, grid_u = abs_.grid_x, abs_.grid_u
    violations = 0
    checked = 0
    while checked < n_samples:
        s = int(rng.integers(0, grid_x.size))
        u_idx = int(rng.integers(0, grid_u.size))
        succ = abs_.post(s, u_idx)
        if not succ.size:
            continue
        rect = grid_x.cell_rect(s)
        x = rng.uniform(rect.lower, rect.upper)
        u = grid_u.center(u_idx)
        for _ in range(pieces):
            w = rng.uniform(-sys.dist_halfwidth, sys.dist_halfwidth)
            x = flow(sys, x, u, sys.tau / pieces, disturbance=w)
        inside = np.all(~grid_x.periodic
                        & (x >= grid_x.bounds.lower)
                        & (x <= grid_x.bounds.upper)
                        | grid_x.periodic)
        if not inside:
            continue
        checked += 1
        if grid_x.quantize(x) not in succ:
            violations += 1
    return violations
