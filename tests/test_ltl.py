import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaware.errors import LtlSyntaxError, TargetUnreachableWarning
from kaware.knowledge import Interpretation
from kaware.ltl import (MAX_DEPTH, Always, And, Atomic, Eventually,
                        GameObjective, Implies, Next, Not, Or, Top, Until,
                        check_trace, compile_objective, parse_concept, parse_ltl,
                        propositions)

import oracles


# ---------------------------------------------------------------------------
# parsing


def test_parse_reach_avoid_objective():
    assert parse_ltl("!Obstacle U Target") == \
        Until(Not(Atomic("Obstacle")), Atomic("Target"))


def test_parse_true():
    assert parse_ltl("true") == Top()


def test_parse_nested_always():
    got = parse_ltl("G (Detected -> G !NoEntry)")
    assert got == Always(Implies(Atomic("Detected"),
                                 Always(Not(Atomic("NoEntry")))))


def test_until_is_right_associative():
    assert parse_ltl("a U b U c") == Until(Atomic("a"),
                                           Until(Atomic("b"), Atomic("c")))


def test_implies_is_right_associative():
    assert parse_ltl("a -> b -> c") == \
        Implies(Atomic("a"), Implies(Atomic("b"), Atomic("c")))


def test_precedence_ladder():
    # ! > X/F/G > U > & > | > ->
    assert parse_ltl("!a U b") == Until(Not(Atomic("a")), Atomic("b"))
    assert parse_ltl("F a U b") == Until(Eventually(Atomic("a")), Atomic("b"))
    assert parse_ltl("a U b & c") == And(Until(Atomic("a"), Atomic("b")),
                                         Atomic("c"))
    assert parse_ltl("a & b | c") == Or(And(Atomic("a"), Atomic("b")),
                                        Atomic("c"))
    assert parse_ltl("a | b -> c") == Implies(Or(Atomic("a"), Atomic("b")),
                                              Atomic("c"))
    assert parse_ltl("X a & b") == And(Next(Atomic("a")), Atomic("b"))


@pytest.mark.parametrize("text,pos", [
    ("", 0),
    ("a U", 3),
    ("(a", 2),
    ("a b", 2),
    ("a -", 2),
    ("a # b", 2),
    ("a . b", 2),
])
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(LtlSyntaxError) as exc:
        parse_ltl(text)
    assert exc.value.pos == pos


def _nested_chains(n):
    """Left chains of 9 ``&`` nested as first operands, 10 levels each."""
    phi = "a"
    for _ in range(n // 10):
        phi = "(" + phi + " & a" * 9 + ")"
    return "!" * (n % 10) + phi


# formulas of nesting depth n: the levels of operators and parentheses on
# the longest path from the root to an atom
DEPTH_SHAPES = {
    "parentheses": lambda n: "(" * n + "a" + ")" * n,
    "prefix": lambda n: "G " * n + "a",
    "left_chain": lambda n: " & ".join(["a"] * (n + 1)),
    "right_chain": lambda n: " -> ".join(["a"] * (n + 1)),
    "nested_left_chains": _nested_chains,
    "concept_restriction": lambda n: "exists r." * n + "a",
    "concept_left_chain": lambda n: " | ".join(["a"] * (n + 1)),
}


@pytest.mark.parametrize("shape", sorted(DEPTH_SHAPES))
def test_nesting_depth_is_bounded(shape):
    parse = parse_concept if shape.startswith("concept") else parse_ltl
    parse(DEPTH_SHAPES[shape](MAX_DEPTH))
    with pytest.raises(LtlSyntaxError, match="formula nested too deeply"):
        parse(DEPTH_SHAPES[shape](MAX_DEPTH + 1))


def test_concept_keywords_are_atoms():
    assert parse_ltl("top") == Atomic("top")
    assert parse_ltl("bottom & A") == And(Atomic("bottom"), Atomic("A"))


def test_propositions():
    phi = parse_ltl("G (a -> b U !c)")
    assert propositions(phi) == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# printing


@st.composite
def formulas(draw, depth=6):
    if depth == 0:
        return draw(st.sampled_from([Top(), Atomic("a"), Atomic("b")]))
    kind = draw(st.integers(0, 9))
    sub = formulas(depth=depth - 1)
    if kind == 0:
        return draw(formulas(depth=0))
    if kind == 1:
        return Not(draw(sub))
    if kind == 2:
        return And(draw(sub), draw(sub))
    if kind == 3:
        return Or(draw(sub), draw(sub))
    if kind == 4:
        return Implies(draw(sub), draw(sub))
    if kind == 5:
        return Next(draw(sub))
    if kind == 6:
        return Until(draw(sub), draw(sub))
    if kind == 7:
        return Eventually(draw(sub))
    if kind == 8:
        return Always(draw(sub))
    return draw(formulas(depth=0))


@settings(max_examples=300)
@given(formulas())
def test_pretty_roundtrip(phi):
    assert parse_ltl(oracles.pretty(phi)) == phi


def test_pretty_examples():
    pretty = oracles.pretty
    assert pretty(parse_ltl("!Obstacle U Target")) == "!Obstacle U Target"
    assert pretty(parse_ltl("G (a -> G !b)")) == "G (a -> G !b)"


# ---------------------------------------------------------------------------
# finite-trace checking


def test_check_trace_hand_examples():
    obj = parse_ltl("!Obstacle U Target")
    assert check_trace(obj, [set(), {"Target"}])
    assert not check_trace(obj, [{"Obstacle"}, {"Target"}])
    assert check_trace(Top(), [set()])
    # bounded semantics: no witness inside the trace means false
    assert not check_trace(obj, [set(), set()])
    # Next at the last position is false
    assert not check_trace(parse_ltl("X a"), [{"a"}])
    assert check_trace(parse_ltl("X a"), [set(), {"a"}])


FORMULA_BATTERY = [
    "!a U b",
    "a U b",
    "G a",
    "F b",
    "G (a -> X b)",
    "a U (b U a)",
    "F a & G !b",
    "X X a",
    "G (a -> F b)",
    "!(a U b) | F a",
]


def test_checker_matches_oracle_exhaustively():
    formulas_ = [parse_ltl(t) for t in FORMULA_BATTERY]
    tuples = [oracles.to_tuple_formula(f) for f in formulas_]
    letters = [set(), {"a"}, {"b"}, {"a", "b"}]
    for length in (1, 2, 3, 4):
        for trace in itertools.product(letters, repeat=length):
            trace = list(trace)
            for phi, tup in zip(formulas_, tuples):
                assert check_trace(phi, trace) == oracles.ltl_holds(tup, trace)


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        check_trace(Top(), [])


# ---------------------------------------------------------------------------
# game objective compilation


def test_game_objective_overlap_rejected():
    with pytest.raises(ValueError):
        GameObjective(target=frozenset({1, 2}), avoid=frozenset({2}))


def _mask(cells):
    m = np.zeros(30, dtype=bool)
    m[list(cells)] = True
    return m


def _interp(target, obstacle):
    return Interpretation(domain_size=30, concept_extents={
        "Target": _mask(target), "Obstacle": _mask(obstacle)})


def _link(sign_cells, street_cells):
    return np.array(sign_cells), np.array(street_cells)


def test_compile_objective_no_known_signs():
    interp = _interp({1, 2}, {5, 6})
    links = [_link([10], [11, 12])]
    obj = compile_objective(interp, links, set())
    assert obj.target == {1, 2}
    assert obj.avoid == {5, 6}


def test_compile_objective_all_signs_known():
    interp = _interp({1, 2}, {5, 6})
    links = [_link([10], [11, 12]),
             _link([20], [21])]
    obj = compile_objective(interp, links, {10, 20})
    assert obj.avoid == {5, 6, 11, 12, 21}


def test_compile_objective_one_sign_grows_by_its_street():
    interp = _interp({1, 2}, {5, 6})
    links = [_link([10], [11, 12]),
             _link([20], [21])]
    base = compile_objective(interp, links, set())
    one = compile_objective(interp, links, {10})
    assert one.avoid - base.avoid == {11, 12}
    assert one.target == base.target


def test_compile_objective_monotone_in_known_signs():
    interp = _interp({1}, {5})
    links = [_link([10], [11]),
             _link([20], [21, 22])]
    prev = compile_objective(interp, links, set()).avoid
    for known in ({10}, {10, 20}):
        cur = compile_objective(interp, links, known).avoid
        assert prev <= cur
        prev = cur


def test_compile_objective_warns_when_target_swallowed():
    interp = _interp({11}, {5})
    links = [_link([10], [11, 12])]
    with pytest.warns(TargetUnreachableWarning):
        obj = compile_objective(interp, links, {10})
    assert obj.target == frozenset()
