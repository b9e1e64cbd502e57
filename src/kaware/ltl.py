"""LTL fragment: AST, concrete-syntax parser, finite-trace checker, and
reach-avoid game objective assembly.

Concrete syntax: atoms are identifiers, `true` is a literal; operators
`!`, `&`, `|`, `->`, `X`, `U`, `F`, `G` with precedence
`!` > `X`/`F`/`G` > `U` > `&` > `|` > `->`; `U` and `->` associate right.

The trace checker uses bounded (finite-trace) semantics: an Until needs
its witness inside the trace, Next at the last position is false, Always
quantifies over the remaining positions.  It is an auditor for logged
closed-loop runs, not a synthesis engine.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, Set

import numpy as np

from .errors import LtlSyntaxError, TargetUnreachableWarning


class LtlFormula:
    __slots__ = ()


@dataclass(frozen=True)
class TrueF(LtlFormula):
    pass


@dataclass(frozen=True)
class Prop(LtlFormula):
    name: str


@dataclass(frozen=True)
class NotF(LtlFormula):
    arg: LtlFormula


@dataclass(frozen=True)
class AndF(LtlFormula):
    left: LtlFormula
    right: LtlFormula


@dataclass(frozen=True)
class OrF(LtlFormula):
    left: LtlFormula
    right: LtlFormula


@dataclass(frozen=True)
class Implies(LtlFormula):
    left: LtlFormula
    right: LtlFormula


@dataclass(frozen=True)
class Next(LtlFormula):
    arg: LtlFormula


@dataclass(frozen=True)
class Until(LtlFormula):
    left: LtlFormula
    right: LtlFormula


@dataclass(frozen=True)
class Eventually(LtlFormula):
    arg: LtlFormula


@dataclass(frozen=True)
class Always(LtlFormula):
    arg: LtlFormula


def propositions(phi: LtlFormula) -> frozenset[str]:
    if isinstance(phi, Prop):
        return frozenset({phi.name})
    out: set[str] = set()
    for f in ("arg", "left", "right"):
        child = getattr(phi, f, None)
        if child is not None:
            out |= propositions(child)
    return frozenset(out)


# ---------------------------------------------------------------------------
# parser

_UNARY = {"X": Next, "F": Eventually, "G": Always}


def _tokenize(text: str):
    """``(token, position)`` pairs of an LTL formula or a concept: the two
    syntaxes share identifiers and punctuation, ``->`` is LTL's and ``.``
    the concepts'; each parser rejects the other's as an unexpected token."""
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


def parse_ltl(text: str) -> LtlFormula:
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]][0] if pos[0] < len(tokens) else None

    def here():
        return tokens[pos[0]][1] if pos[0] < len(tokens) else len(text)

    def take():
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def unary() -> LtlFormula:
        tok = peek()
        if tok is None:
            raise LtlSyntaxError("unexpected end of formula", here())
        if tok == "!":
            take()
            return NotF(unary())
        if tok in _UNARY:
            take()
            return _UNARY[tok](unary())
        if tok == "(":
            take()
            phi = implication()
            if peek() != ")":
                raise LtlSyntaxError("expected ')'", here())
            take()
            return phi
        if tok == "true":
            take()
            return TrueF()
        if tok.isidentifier() and tok not in ("U",):
            take()
            return Prop(tok)
        raise LtlSyntaxError(f"unexpected token {tok!r}", here())

    def until() -> LtlFormula:
        left = unary()
        if peek() == "U":
            take()
            return Until(left, until())
        return left

    def conjunction() -> LtlFormula:
        phi = until()
        while peek() == "&":
            take()
            phi = AndF(phi, until())
        return phi

    def disjunction() -> LtlFormula:
        phi = conjunction()
        while peek() == "|":
            take()
            phi = OrF(phi, conjunction())
        return phi

    def implication() -> LtlFormula:
        phi = disjunction()
        if peek() == "->":
            take()
            return Implies(phi, implication())
        return phi

    phi = implication()
    if peek() is not None:
        raise LtlSyntaxError(f"trailing input {peek()!r}", here())
    return phi


# ---------------------------------------------------------------------------
# finite-trace checker


def check_trace(phi: LtlFormula, trace: Sequence[Set[str]], at: int = 0) -> bool:
    """Bounded satisfaction of ``phi`` on a finite, nonempty trace."""
    if not trace:
        raise ValueError("trace must be nonempty")
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, Prop):
        return phi.name in trace[at]
    if isinstance(phi, NotF):
        return not check_trace(phi.arg, trace, at)
    if isinstance(phi, AndF):
        return check_trace(phi.left, trace, at) and check_trace(phi.right, trace, at)
    if isinstance(phi, OrF):
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
