"""SVG rendering of the map, detection zones, and a logged trajectory.

Plain string assembly, no plotting dependency: the output is exact
geometry and diffs cleanly.
"""

from __future__ import annotations

import numpy as np

from . import knowledge
from .errors import UndeclaredName
from .grid import HyperRect
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

    def polyline(self, points, stroke: str, width: float = 2.0):
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


def render_svg(scenario: Scenario, trace: Trace | None = None) -> str:
    grid_x = scenario.state_grid()
    canvas = _Canvas(scenario.state_bounds)
    canvas.rect(scenario.state_bounds, "none", stroke="black")

    for sign in scenario.signs:
        canvas.rect(sign.street_box, "#f4c7c3", 0.6)
    for box in scenario.regions.get("Obstacle", []):
        canvas.rect(box, "#777777")
    for box in scenario.regions.get("Target", []):
        canvas.rect(box, "#8fd18f")
    for sign in scenario.signs:
        canvas.rect(sign.sign_box, "#d62728")

    # detection zone: planar projection of the derived detection concept
    kb = scenario.knowledge_base()
    interp = knowledge.assemble_interpretation(kb, scenario.all_regions(), grid_x)
    try:
        detected = interp.extent("NoEntrySignDetected")
    except UndeclaredName:  # a scenario without the concept has no zone
        detected = np.zeros(grid_x.size, dtype=bool)
    counts = grid_x.counts
    cols = detected.reshape(counts[0], counts[1], -1).any(axis=2)
    lower, upper = grid_x.rects(np.flatnonzero(cols) * counts[2])
    for lo, hi in zip(lower.T, upper.T):
        canvas.rect(HyperRect(lo, hi), "#ffb347", 0.35)

    if trace is not None:
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
