"""SVG rendering of the map, the game's cells, and a logged trajectory.

Plain string assembly, no plotting dependency: the output is exact
geometry and diffs cleanly.
"""

from __future__ import annotations

import numpy as np

from .grid import HyperRect
from .ltl import eval_concept, reach_avoid
from .runtime import Trace
from .scenario import Scenario

_SCALE = 60.0
_MARGIN = 20.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Canvas:
    def __init__(self, bounds):
        self.bounds = bounds
        self.width = (bounds.upper[0] - bounds.lower[0]) * _SCALE + 2 * _MARGIN
        self.height = (bounds.upper[1] - bounds.lower[1]) * _SCALE + 2 * _MARGIN
        self.parts: list[str] = []

    def pt(self, x: float, y: float) -> tuple[float, float]:
        px = _MARGIN + (x - self.bounds.lower[0]) * _SCALE
        py = self.height - _MARGIN - (y - self.bounds.lower[1]) * _SCALE
        return px, py

    def rect(self, box, fill: str, opacity: float = 1.0, stroke: str = "none"):
        x0, y1 = self.pt(box.lower[0], box.lower[1])
        x1, y0 = self.pt(box.upper[0], box.upper[1])
        self.parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="{stroke}"/>'
        )

    def polyline(self, points, stroke: str, width: float):
        coords = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (self.pt(x, y) for x, y in points)
        )
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    def circle(self, x: float, y: float, r: float, fill: str):
        px, py = self.pt(x, y)
        self.parts.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{r}" fill="{fill}"/>'
        )

    def to_svg(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
        )


def render_svg(scenario: Scenario, trace: Trace) -> str:
    """The map, its unsafe and goal cells and detection zone, and ``trace``'s path."""
    grid_x = scenario.state_grid()
    canvas = _Canvas(scenario.state_bounds)
    canvas.rect(scenario.state_bounds, "none", stroke="black")

    for sign in scenario.signs:
        canvas.rect(sign.street_box, "#f4c7c3", 0.6)

    # planar projections of the unsafe and goal cells and the detection zone,
    # one rect per run of adjacent x2 cells in each x1 column
    interp, _ = scenario.ground(grid_x)
    safe, goal = reach_avoid(interp.objective)
    zone = interp.roles["Proximity"].preimage(interp.extent("NoEntrySign"))
    counts = grid_x.counts
    for cells, fill, opacity in ((~eval_concept(interp, safe), "#777777", 1.0),
                                 (eval_concept(interp, goal), "#8fd18f", 1.0),
                                 (zone, "#ffb347", 0.35)):
        cols = cells.reshape(counts[0], counts[1], -1).any(axis=2)
        # a run's edges alternate, start then stop, along each column
        i, j = np.nonzero(np.diff(cols, prepend=False, append=False, axis=1))
        lower, _ = grid_x.rects((i[::2] * counts[1] + j[::2]) * counts[2])
        _, upper = grid_x.rects((i[1::2] * counts[1] + j[1::2] - 1) * counts[2])
        for lo, hi in zip(lower.T, upper.T):
            canvas.rect(HyperRect(lo, hi), fill, opacity)
    for sign in scenario.signs:
        canvas.rect(sign.sign_box, "#d62728")

    pts = [(s.state[0], s.state[1]) for s in trace.steps]
    canvas.polyline(pts, "#1f4fd6", 2.5)
    s0 = trace.steps[0]
    canvas.circle(s0.state[0], s0.state[1], 5, "black")
    for s in trace.steps:
        if s.detected:
            canvas.circle(s.state[0], s.state[1], 4, "#d62728")
    s_end = trace.steps[-1]
    canvas.circle(s_end.state[0], s_end.state[1], 5, "#1a7f1a")

    return canvas.to_svg()
