"""ALC knowledge base evaluated over the single grid interpretation.

A concept extent is a bool mask over the state cells.  The built-in
``Proximity`` role relates a cell to a target cell when their planar
rectangles are closer than the detection range and the target lies ahead
of some heading of the cell by more than the grid's 1e-9 band (at an
exactly perpendicular heading, "ahead" is a rounding residue).  One
vectorized kernel, :meth:`ProximityRole.relate`, serves the concepts (once
per distinct planar target rectangle) and the runtime sensor (once per
step).  The tests check it against a scalar reference of the relation and
evaluate concepts over hand-built roles of their own; a role is any object
with a ``preimage`` of a cell mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

import numpy as np

from .errors import UndeclaredName
from .grid import _TOL, Grid, HyperRect
from .ltl import (And, Atomic, Bottom, Exists, Forall, Formula, Not, Or, Top,
                  mentions)

# ---------------------------------------------------------------------------
# TBox


@dataclass(frozen=True)
class Equivalence:
    """Fresh atomic name defined by a (non-temporal) concept."""
    name: str
    concept: Formula


@dataclass(frozen=True)
class TemporalEquivalence:
    """Fresh atomic name defined by a temporal formula over concepts.

    Only :meth:`KnowledgeBase.check_names` reads it; nothing compiles it
    into the game.
    """
    name: str
    formula: Formula


@dataclass
class KnowledgeBase:
    atomic_concepts: set[str]
    roles: dict[str, float]  # role name -> detection range D
    tbox: list = dc_field(default_factory=list)

    def check_names(self) -> set[str]:
        """Axioms may use declared atoms and roles and the names of earlier
        concept axioms; a concept axiom's name replaces an atom of that name.
        Returns the concept names an interpretation gives an extent."""
        defined = {ax.name for ax in self.tbox if isinstance(ax, Equivalence)}
        declared = set(self.atomic_concepts) - defined
        for i, ax in enumerate(self.tbox):
            body = ax.concept if isinstance(ax, Equivalence) else ax.formula
            for is_role, name in mentions(body):
                if name not in (self.roles if is_role else declared):
                    raise UndeclaredName(name, axiom=i)
            if isinstance(ax, Equivalence):
                declared.add(ax.name)
        return declared


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
    """The extents of the concepts as cell masks, and the roles.  A defined
    concept's mask is evaluated from ``definitions`` the first time
    :meth:`extent` asks for it, and then kept."""

    domain_size: int
    concept_extents: dict[str, np.ndarray]
    roles: dict[str, object] = dc_field(default_factory=dict)
    definitions: dict[str, Formula] = dc_field(default_factory=dict)

    def extent(self, name: str) -> np.ndarray:
        if name not in self.concept_extents:
            if name not in self.definitions:
                raise UndeclaredName(name)
            self.concept_extents[name] = eval_concept(self, self.definitions[name])
        return self.concept_extents[name]


def eval_concept(interp: Interpretation, concept: Formula) -> np.ndarray:
    """Structural concept semantics over the fixed interpretation."""
    if isinstance(concept, Top):
        return np.ones(interp.domain_size, dtype=bool)
    if isinstance(concept, Bottom):
        return np.zeros(interp.domain_size, dtype=bool)
    if isinstance(concept, Atomic):
        return interp.extent(concept.name)
    if isinstance(concept, Not):
        return ~eval_concept(interp, concept.arg)
    if isinstance(concept, And):
        return eval_concept(interp, concept.left) & eval_concept(interp, concept.right)
    if isinstance(concept, Or):
        return eval_concept(interp, concept.left) | eval_concept(interp, concept.right)
    if isinstance(concept, Exists):
        role = _get_role(interp, concept.role)
        return role.preimage(eval_concept(interp, concept.arg))
    if isinstance(concept, Forall):
        # forall r.C  ==  not exists r.(not C)
        role = _get_role(interp, concept.role)
        return ~role.preimage(~eval_concept(interp, concept.arg))
    raise TypeError(f"not a concept: {concept!r}")


def _get_role(interp: Interpretation, name: str):
    try:
        return interp.roles[name]
    except KeyError:
        raise UndeclaredName(name) from None


def assemble_interpretation(kb: KnowledgeBase,
                            regions: Mapping[str, Sequence[HyperRect]],
                            grid_x: Grid) -> Interpretation:
    """Ground atomic extents from scenario boxes and keep the definitions.

    A non-temporal TBox equivalence is evaluated when its extent is first
    asked for; a temporal equivalence is not evaluated.
    """
    kb.check_names()
    for name in regions:
        if name not in kb.atomic_concepts:
            raise UndeclaredName(name)
    definitions = {ax.name: ax.concept for ax in kb.tbox
                   if isinstance(ax, Equivalence)}
    extents: dict[str, np.ndarray] = {}
    for name in kb.atomic_concepts - definitions.keys():
        mask = np.zeros(grid_x.size, dtype=bool)
        for box in regions.get(name, ()):
            mask[grid_x.cells_intersecting(box)] = True
        extents[name] = mask
    roles = {name: ProximityRole(grid_x, rng) for name, rng in kb.roles.items()}
    return Interpretation(domain_size=grid_x.size, concept_extents=extents,
                          roles=roles, definitions=definitions)
