"""Formulas: one node set and one parser for concepts and LTL, the
finite-trace checker, concept semantics, and the reach-avoid game.

An LTL atom is a concept name, so both syntaxes share the nodes `Top`,
`Atomic`, `Not`, `And` and `Or` and the operators `!`, `&`, `|` and
parentheses (`&` binds tighter; both associate left).  A concept adds
`top`, `bottom` and `exists r.C`/`forall r.C`, which bind like `!`.  An
LTL formula adds `true`, `X`, `F`, `G`, `U` and `->`, with precedence
`!` > `X`/`F`/`G` > `U` > `&` > `|` > `->`; `U` and `->` associate right.
A keyword of one syntax is an atom in the other.

The trace checker uses bounded (finite-trace) semantics: an Until needs
its witness inside the trace, Next at the last position is false, Always
quantifies over the remaining positions.  It is an auditor for logged
closed-loop runs, not a synthesis engine.

The objective is a reach-avoid game: :func:`reach_avoid` alone reads its
shape, for the game, the audit and scenario validation alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Set

import numpy as np

from .errors import LtlSyntaxError, UndeclaredName

log = logging.getLogger("kaware")


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Atomic(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    role: str
    arg: Formula


@dataclass(frozen=True)
class Forall(Formula):
    role: str
    arg: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    arg: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    arg: Formula


@dataclass(frozen=True)
class Always(Formula):
    arg: Formula


def _operands(phi: Formula) -> list[Formula]:
    """The formulas ``phi`` applies its operator to, left before right."""
    return [getattr(phi, f) for f in ("arg", "left", "right") if hasattr(phi, f)]


def mentions(phi: Formula) -> Iterator[tuple[bool, str]]:
    """``(is_role, name)`` of every atom and role ``phi`` mentions, in
    reading order."""
    if isinstance(phi, Atomic):
        yield False, phi.name
    if isinstance(phi, (Exists, Forall)):
        yield True, phi.role
    for child in _operands(phi):
        yield from mentions(child)


def propositions(phi: Formula) -> frozenset[str]:
    return frozenset(name for is_role, name in mentions(phi) if not is_role)


# ---------------------------------------------------------------------------
# parser


def _tokenize(text: str):
    """``(token, position)`` pairs of an LTL formula or a concept: the two
    syntaxes share identifiers and punctuation, ``->`` is LTL's and ``.``
    the concepts'; each mode rejects the other's as an unexpected token."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()!&|.":
            tokens.append((ch, i))
            i += 1
        elif ch == "-":
            if text[i:i + 2] != "->":
                raise LtlSyntaxError("expected '->'", i)
            tokens.append(("->", i))
            i += 2
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], i))
            i = j
        else:
            raise LtlSyntaxError(f"bad character {ch!r}", i)
    return tokens


# Per mode: the binary operators, loosest first, as (token, node, whether
# it associates right); the prefix operators; the constants; the role
# restrictions.
_TEMPORAL = ((("->", Implies, True), ("|", Or, False), ("&", And, False),
              ("U", Until, True)),
             {"!": Not, "X": Next, "F": Eventually, "G": Always},
             {"true": Top}, {})
_CONCEPT = ((("|", Or, False), ("&", And, False)), {"!": Not},
            {"top": Top, "bottom": Bottom}, {"exists": Exists, "forall": Forall})


# Longest path of operators and parentheses from a formula's root to an atom;
# every walker (the parser, the deepest, takes 2 frames a parenthesis) fits
# 1 000 frames.
MAX_DEPTH = 200


def _parse(text: str, temporal: bool) -> Formula:
    binary, prefix, constants, restrictions = _TEMPORAL if temporal else _CONCEPT
    levels = {op: k for k, (op, _, _) in enumerate(binary)}
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, len(text))

    def take():
        nonlocal pos
        tok, at = peek()
        if tok is None:
            raise LtlSyntaxError(
                f"unexpected end of {'formula' if temporal else 'concept'}", at)
        pos += 1
        return tok, at

    def expect(want):
        tok, at = take()
        if tok != want:
            raise LtlSyntaxError(f"expected {want!r}, found {tok!r}", at)

    def unary(depth: int) -> tuple[Formula, int]:
        """The operand at ``depth`` levels below the root, and its height."""
        tok, at = take()
        if depth > MAX_DEPTH:
            raise LtlSyntaxError("formula nested too deeply", at)
        if tok == "(":
            phi, height = binaries(0, depth + 1)
            expect(")")
            return phi, height + 1
        if tok in prefix:
            phi, height = unary(depth + 1)
            return prefix[tok](phi), height + 1
        if tok in restrictions:
            role, _ = take()
            if not role.isidentifier():
                raise LtlSyntaxError("expected role name", at)
            expect(".")
            phi, height = unary(depth + 1)
            return restrictions[tok](role, phi), height + 1
        if tok in constants:
            return constants[tok](), 0
        # LTL's `U` is an identifier, but not an atom
        if tok.isidentifier() and tok not in levels:
            return Atomic(tok), 0
        raise LtlSyntaxError(f"unexpected token {tok!r}", at)

    def binaries(lowest: int, depth: int) -> tuple[Formula, int]:
        """Precedence climbing: an operand and the operators from level
        ``lowest`` up that follow it.  A left-associative chain does not
        recurse but deepens its first operand, so the height is checked."""
        phi, height = unary(depth)
        while levels.get(peek()[0], -1) >= lowest:
            tok, at = take()
            k = levels[tok]
            _, node, right = binary[k]
            # the right operand of a right-associative operator takes
            # every later operator of its level
            rhs, h = binaries(k if right else k + 1, depth + 1)
            phi, height = node(phi, rhs), max(height, h) + 1
            if depth + height > MAX_DEPTH:
                raise LtlSyntaxError("formula nested too deeply", at)
        return phi, height

    phi, _ = binaries(0, 0)
    tok, at = peek()
    if tok is not None:
        raise LtlSyntaxError(f"trailing input {tok!r}", at)
    return phi


def parse_ltl(text: str) -> Formula:
    return _parse(text, temporal=True)


def parse_concept(text: str) -> Formula:
    return _parse(text, temporal=False)


# ---------------------------------------------------------------------------
# finite-trace checker


def check_trace(phi: Formula, trace: Sequence[Set[str]]) -> bool:
    """Bounded satisfaction of ``phi`` on a finite, nonempty trace."""
    if not trace:
        raise ValueError("trace must be nonempty")
    return bool(_holds(phi, trace)[0])


def _holds(phi: Formula, trace: Sequence[Set[str]]) -> np.ndarray:
    """Truth of ``phi`` at every position of ``trace``, from its operands'
    truths: each subformula is evaluated once, so the cost is linear in the
    formula's size times the trace's length."""
    if isinstance(phi, Top):
        return np.ones(len(trace), dtype=bool)
    if isinstance(phi, Atomic):
        return np.array([phi.name in step for step in trace], dtype=bool)
    if isinstance(phi, Not):
        return ~_holds(phi.arg, trace)
    if isinstance(phi, (And, Or, Implies, Until)):
        left, right = _holds(phi.left, trace), _holds(phi.right, trace)
        if isinstance(phi, And):
            return left & right
        if isinstance(phi, Or):
            return left | right
        if isinstance(phi, Implies):
            return ~left | right
        # a witness for right, with left holding at every position before it
        out, now = np.empty_like(right), False
        for k in range(len(trace) - 1, -1, -1):
            now = out[k] = right[k] or (left[k] and now)
        return out
    if isinstance(phi, (Next, Eventually, Always)):
        arg = _holds(phi.arg, trace)
        if isinstance(phi, Next):
            return np.append(arg[1:], False)
        fold = np.logical_or if isinstance(phi, Eventually) else np.logical_and
        return fold.accumulate(arg[::-1])[::-1]
    raise TypeError(f"not a formula: {phi!r}")


def eval_concept(interp, concept: Formula) -> np.ndarray:
    """Structural concept semantics over a fixed interpretation: the mask
    of the cells where ``concept`` holds."""
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


def _get_role(interp, name: str):
    try:
        return interp.roles[name]
    except KeyError:
        raise UndeclaredName(name) from None


# ---------------------------------------------------------------------------
# game objective


def _boolean(phi: Formula) -> bool:
    return (isinstance(phi, (Top, Atomic, Not, And, Or))
            and all(map(_boolean, _operands(phi))))


def reach_avoid(phi: Formula) -> tuple[Formula, Formula]:
    """``(safe, goal)`` of the objective ``phi``: stay in ``safe`` until in
    ``goal``.  ``A U B`` gives ``(A, B)``, ``F B`` is ``true U B``, and
    ``G A & F B``, in either order, is ``A U (A & B)``, since the loop stops
    on the goal.  ``A`` and ``B`` must be Boolean; any other objective
    raises ``ValueError``."""
    safe = goal = None
    if isinstance(phi, Until):
        safe, goal = phi.left, phi.right
    elif isinstance(phi, Eventually):
        safe, goal = Top(), phi.arg
    elif isinstance(phi, And):
        always, eventually = ((phi.left, phi.right) if isinstance(phi.left, Always)
                              else (phi.right, phi.left))
        if isinstance(always, Always) and isinstance(eventually, Eventually):
            safe, goal = always.arg, And(always.arg, eventually.arg)
    if not (_boolean(safe) and _boolean(goal)):
        raise ValueError("not a reach-avoid objective: need 'A U B', 'F B' or "
                         "'G A & F B' with A and B of true, atoms, !, & and |")
    return safe, goal


class CellSet:
    """A read-only set of state cells, held as one boolean mask over the
    state grid.

    The set owns its mask: the constructor copies the given array and
    makes the copy read-only, so no caller's array is frozen or aliased.
    Two cell sets are equal when their masks are, so cell sets over grids
    of other sizes differ; the hash is taken over the packed mask.
    """

    __slots__ = ("mask", "_len", "_hash")

    def __init__(self, mask: np.ndarray):
        mask = np.array(mask)
        if mask.dtype != bool or mask.ndim != 1:
            raise ValueError("a cell set needs a 1-D boolean mask, "
                             f"got {mask.dtype} of shape {mask.shape}")
        mask.flags.writeable = False
        self.mask = mask
        self._len = int(np.count_nonzero(mask))
        self._hash = None

    def __len__(self) -> int:
        return self._len

    def __contains__(self, cell) -> bool:
        return (isinstance(cell, (int, np.integer)) and 0 <= cell < self.mask.size
                and bool(self.mask[int(cell)]))

    def __eq__(self, other):
        if not isinstance(other, CellSet):
            return NotImplemented
        return self._len == other._len and bool(np.array_equal(self.mask, other.mask))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(np.packbits(self.mask).tobytes())
        return self._hash

    def __repr__(self) -> str:
        return f"CellSet({self._len} of {self.mask.size} cells)"


@dataclass(frozen=True)
class GameObjective:
    """Reach the target cells while never visiting the avoid cells.

    Both are :class:`CellSet` masks over the same state grid; they hash,
    so an objective can key the controller memo.
    """

    target: CellSet
    avoid: CellSet

    def __post_init__(self):
        if self.target.mask.size != self.avoid.mask.size:
            raise ValueError(f"target covers {self.target.mask.size} cells, "
                             f"avoid {self.avoid.mask.size}")
        overlap = np.count_nonzero(self.target.mask & self.avoid.mask)
        if overlap:
            raise ValueError(f"target and avoid overlap on {overlap} cells")


def compile_objective(interp, sign_links: Sequence[tuple[np.ndarray, np.ndarray]],
                      known_signs: Iterable[int]) -> GameObjective:
    """The game of ``interp.objective``: avoid the cells where its safe part
    fails and the streets of the activated signs, and reach its goal.

    ``sign_links`` pairs each sign's cell indices with its linked street
    cells; a sign is active once any of its cells is among ``known_signs``,
    which must be cells of the grid.
    """
    safe, goal = reach_avoid(interp.objective)
    avoid = ~eval_concept(interp, safe)
    signs = np.array(list(known_signs), dtype=np.int64)
    outside = signs[(signs < 0) | (signs >= avoid.size)]
    if outside.size:
        raise ValueError(f"known sign cell {outside[0]} outside [0, {avoid.size})")
    known = np.zeros(avoid.size, dtype=bool)
    known[signs] = True
    for sign_cells, street_cells in sign_links:
        if known[sign_cells].any():
            avoid[street_cells] = True
    # goal cells swallowed by an obligation stop counting as target
    target = eval_concept(interp, goal)
    reachable = target & ~avoid
    if target.any() and not reachable.any():
        log.warning("avoid set covers the whole target region")
    return GameObjective(target=CellSet(reachable), avoid=CellSet(avoid))
