"""Formulas: one node set and one parser for concepts and LTL, the
finite-trace checker, and the reach-avoid game objective.

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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Set

import numpy as np

from .errors import LtlSyntaxError, TargetUnreachableWarning


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


def mentions(phi: Formula) -> Iterator[tuple[bool, str]]:
    """``(is_role, name)`` of every atom and role ``phi`` mentions, in
    reading order."""
    if isinstance(phi, Atomic):
        yield False, phi.name
    if isinstance(phi, (Exists, Forall)):
        yield True, phi.role
    for f in ("arg", "left", "right"):
        child = getattr(phi, f, None)
        if child is not None:
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
# every walker (check_trace's F and G take 3 frames a level) fits 1 000 frames.
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
        # LTL names the token it wants, a concept also the one it found
        tok, at = peek()
        if temporal and tok != want:
            raise LtlSyntaxError(f"expected {want!r}", at)
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


def check_trace(phi: Formula, trace: Sequence[Set[str]], at: int = 0) -> bool:
    """Bounded satisfaction of ``phi`` on a finite, nonempty trace."""
    if not trace:
        raise ValueError("trace must be nonempty")
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Atomic):
        return phi.name in trace[at]
    if isinstance(phi, Not):
        return not check_trace(phi.arg, trace, at)
    if isinstance(phi, And):
        return check_trace(phi.left, trace, at) and check_trace(phi.right, trace, at)
    if isinstance(phi, Or):
        return check_trace(phi.left, trace, at) or check_trace(phi.right, trace, at)
    if isinstance(phi, Implies):
        return (not check_trace(phi.left, trace, at)) or check_trace(phi.right, trace, at)
    if isinstance(phi, Next):
        return at + 1 < len(trace) and check_trace(phi.arg, trace, at + 1)
    if isinstance(phi, Until):
        for k in range(at, len(trace)):
            if check_trace(phi.right, trace, k):
                return True
            if not check_trace(phi.left, trace, k):
                return False
        return False
    if isinstance(phi, Eventually):
        return any(check_trace(phi.arg, trace, k) for k in range(at, len(trace)))
    if isinstance(phi, Always):
        return all(check_trace(phi.arg, trace, k) for k in range(at, len(trace)))
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# game objective


@dataclass(frozen=True)
class GameObjective:
    """Reach the target cells while never visiting the avoid cells.

    Frozensets, so that an objective can key the controller memo.
    """

    target: frozenset[int]
    avoid: frozenset[int]

    def __post_init__(self):
        overlap = self.target & self.avoid
        if overlap:
            raise ValueError(f"target and avoid overlap on {len(overlap)} cells")


def compile_objective(interp, sign_links: Sequence[tuple[np.ndarray, np.ndarray]],
                      known_signs: Iterable[int]) -> GameObjective:
    """Fold the activated invariance obligations into an enlarged avoid set.

    ``sign_links`` pairs each sign's cell indices with its linked street
    cells; a sign is active once any of its cells is among ``known_signs``.
    """
    target = interp.extent("Target")
    avoid = interp.extent("Obstacle").copy()
    known = np.zeros(avoid.size, dtype=bool)
    known[np.fromiter(known_signs, dtype=np.int64)] = True
    for sign_cells, street_cells in sign_links:
        if known[sign_cells].any():
            avoid[street_cells] = True
    # target cells swallowed by an obligation stop counting as target
    reachable = target & ~avoid
    if target.any() and not reachable.any():
        warnings.warn("avoid set covers the whole target region",
                      TargetUnreachableWarning)
    return GameObjective(target=frozenset(np.flatnonzero(reachable).tolist()),
                         avoid=frozenset(np.flatnonzero(avoid).tolist()))
