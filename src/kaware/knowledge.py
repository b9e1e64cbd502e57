"""ALC knowledge base evaluated over the single grid interpretation.

:func:`kaware.scenario.load_scenario` decides which concept and role names
exist and hands over the concept definitions, one formula per defined
name; this module only evaluates.  A temporal axiom is parsed and
name-checked there and then dropped: it does not shape the game, whose
only avoid cells beyond the objective's unsafe cells are the streets of
the detected ``map.signs`` signs.  A concept extent is a bool mask over
the state cells.  The built-in ``Proximity`` role relates a cell to a
target cell when their planar rectangles are closer than the detection
range and the target lies ahead of some heading of the cell by more than
the grid's 1e-9 band (at an exactly perpendicular heading, "ahead" is a
rounding residue).  One vectorized kernel, :meth:`ProximityRole.relate`,
serves the concepts (once per distinct planar target rectangle) and the
runtime sensor (once per step).  The tests check it against a scalar
reference of the relation and evaluate concepts over hand-built roles of
their own; a role is any object with a ``preimage`` of a cell mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

import numpy as np

from .errors import UndeclaredName
from .grid import _TOL, Grid, HyperRect
from .ltl import Formula, eval_concept

# ---------------------------------------------------------------------------
# Proximity geometry


class ProximityRole:
    """The Proximity relation over the grid, evaluated by one kernel."""

    def __init__(self, grid_x: Grid, max_range: float):
        self.grid = grid_x
        self.max_range = float(max_range)

    def relate(self, sources, targets) -> np.ndarray:
        """Bool array: ``[i, j]`` when ``targets[j]`` is in proximity of
        ``sources[i]``."""
        return self._kernel(self.grid.rects(sources), self.grid.rects(targets))

    def _kernel(self, a, b) -> np.ndarray:
        """``relate`` on the cells' rects; the heading test runs only on the
        pairs in range."""
        (a_lo, a_hi), (b_lo, b_hi) = a, b
        g1, g2 = (np.maximum(0.0, np.maximum(b_lo[d] - a_hi[d, :, None],
                                             a_lo[d, :, None] - b_hi[d]))
                  for d in (0, 1))
        out = np.hypot(g1, g2) < self.max_range
        s, t = np.nonzero(out)
        a_lo, a_hi, b_lo, b_hi = a_lo[:, s], a_hi[:, s], b_lo[:, t], b_hi[:, t]
        th_lo, th_hi = a_lo[2], a_hi[2]
        width = th_hi - th_lo
        # directional_max over the source's headings
        best = np.full(s.size, -np.inf)
        for d1 in (b_lo[0] - a_hi[0], b_hi[0] - a_lo[0]):
            for d2 in (b_lo[1] - a_hi[1], b_hi[1] - a_lo[1]):
                r = np.hypot(d1, d2)
                phi = np.arctan2(d2, d1)
                inside = ((np.mod(phi - th_lo, 2 * np.pi) <= width)
                          | (width >= 2 * np.pi))
                cand = r * np.maximum(np.cos(th_lo - phi), np.cos(th_hi - phi))
                best = np.maximum(best, np.where(inside, r, cand))
        out[s, t] = best > _TOL
        return out

    def preimage(self, targets: np.ndarray) -> np.ndarray:
        """Mask of the cells related to a cell of the ``targets`` mask: one
        kernel call per distinct planar target rectangle."""
        grid = self.grid
        cells = np.flatnonzero(targets)
        planar = cells // grid.counts[2]   # row-major, heading last
        every = grid.rects(np.arange(grid.size))
        found = np.zeros(grid.size, dtype=bool)
        for t in cells[np.unique(planar, return_index=True)[1]]:
            found |= self._kernel(every, grid.rects([t]))[:, 0]
        return found


# ---------------------------------------------------------------------------
# interpretation


@dataclass
class Interpretation:
    """The concepts' extents as cell masks, the roles, and the ``objective``
    whose game :func:`~kaware.ltl.compile_objective` builds.  A defined mask
    is evaluated from ``definitions`` at its first :meth:`extent`, then kept."""

    domain_size: int
    concept_extents: dict[str, np.ndarray]
    roles: dict[str, object] = dc_field(default_factory=dict)
    definitions: dict[str, Formula] = dc_field(default_factory=dict)
    objective: Formula | None = None

    def extent(self, name: str) -> np.ndarray:
        if name not in self.concept_extents:
            if name not in self.definitions:
                raise UndeclaredName(name)
            self.concept_extents[name] = eval_concept(self, self.definitions[name])
        return self.concept_extents[name]


def assemble_interpretation(regions: Mapping[str, Sequence[HyperRect]],
                            roles: Mapping[str, object],
                            definitions: Mapping[str, Formula],
                            grid_x: Grid) -> Interpretation:
    """Ground each region's boxes as a cell mask and take the ``roles`` and
    the concept ``definitions`` as they are; a definition is evaluated when
    its extent is first asked for."""
    extents: dict[str, np.ndarray] = {}
    for name, boxes in regions.items():
        mask = np.zeros(grid_x.size, dtype=bool)
        for box in boxes:
            mask[grid_x.cells_intersecting(box)] = True
        extents[name] = mask
    return Interpretation(domain_size=grid_x.size, concept_extents=extents,
                          roles=dict(roles), definitions=dict(definitions))
