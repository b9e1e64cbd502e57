import ast
import dataclasses
import itertools
import logging
import pathlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kaware
from kaware import build_world
from kaware.errors import LtlSyntaxError
from kaware.knowledge import Interpretation
from kaware.ltl import (MAX_DEPTH, Always, And, Atomic, CellSet, Eventually,
                        Implies, Next, Not, Or, Top, Until, check_trace,
                        compile_objective, parse_concept, parse_ltl, propositions,
                        reach_avoid)

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


# each LTL case and its concept-mode twin: the concepts' `|` for `U`, LTL's
# `->` for the concepts' `.`
PARSE_ERRORS = {
    parse_ltl: [("", 0), ("a U", 3), ("(a", 2), ("a b", 2), ("a -", 2),
                ("a # b", 2), ("a . b", 2)],
    parse_concept: [("", 0), ("a |", 3), ("(a", 2), ("a b", 2), ("a -", 2),
                    ("a # b", 2), ("a -> b", 2)],
}


@pytest.mark.parametrize("parse,text,pos", [
    pytest.param(parse, text, pos,
                 id=("concept:" if parse is parse_concept else "") + f"{text}-{pos}")
    for parse, cases in PARSE_ERRORS.items() for text, pos in cases])
def test_parse_errors_carry_position(parse, text, pos):
    with pytest.raises(LtlSyntaxError) as exc:
        parse(text)
    assert exc.value.pos == pos


@pytest.mark.parametrize("parse,end", [(parse_ltl, "formula"),
                                       (parse_concept, "concept")])
def test_a_missing_token_is_reported_alike_in_both_modes(parse, end):
    """A truncated input reports its end; a wrong token is named with the
    one that was expected."""
    with pytest.raises(LtlSyntaxError, match=f"^unexpected end of {end} "):
        parse("(a")
    with pytest.raises(LtlSyntaxError,
                       match=r"^expected '\)', found 'b' \(at position 3\)"):
        parse("(a b")


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(formulas(), st.lists(st.sets(st.sampled_from("ab")), min_size=1, max_size=8))
def test_checker_matches_the_recursive_checker(phi, trace):
    assert check_trace(phi, trace) == oracles.check_trace_recursive(phi, trace)


def test_checker_is_linear_in_nesting_depth():
    # the recursive checker takes about 30 ** depth steps on this trace
    phi = parse_ltl("G F " * 10 + "Target")
    trace = [{"Target"} if k % 7 == 3 else set() for k in range(30)]
    t0 = time.perf_counter()
    assert not check_trace(phi, trace)
    trace[-1] = {"Target"}
    assert check_trace(phi, trace)
    assert time.perf_counter() - t0 < 1.0


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        check_trace(Top(), [])


# ---------------------------------------------------------------------------
# the reach-avoid fragment


@pytest.mark.parametrize("text,safe,goal", [
    ("!Obstacle U Target", "!Obstacle", "Target"),
    ("F Target", "true", "Target"),
    ("G !Obstacle & F Target", "!Obstacle", "!Obstacle & Target"),
    ("F Target & G !Obstacle", "!Obstacle", "!Obstacle & Target"),
    ("(true | !a) U (a & !b)", "true | !a", "a & !b"),
])
def test_reach_avoid_reads_the_three_forms(text, safe, goal):
    assert reach_avoid(parse_ltl(text)) == (parse_ltl(safe), parse_ltl(goal))


@pytest.mark.parametrize("text", [
    "G Obstacle", "X Target", "F G Target", "Obstacle U F Target",
    "G !Obstacle", "G !Obstacle | F Target", "Target", "true",
    "(a -> b) U c", "G a & G b", "F a & F b", "G a & F b & c",
])
def test_reach_avoid_rejects_other_objectives(text):
    with pytest.raises(ValueError, match="'A U B', 'F B' or 'G A & F B'"):
        reach_avoid(parse_ltl(text))


BOOLEANS = st.recursive(
    st.sampled_from([Top(), Atomic("a"), Atomic("b")]),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(And, sub, sub),
                          st.builds(Or, sub, sub)),
    max_leaves=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(BOOLEANS, BOOLEANS, st.integers(0, 3),
       st.lists(st.sets(st.sampled_from("ab")), min_size=1, max_size=8))
def test_reach_avoid_decides_a_run_stopped_at_its_goal_like_the_checker(
        a, b, form, trace):
    """The loop stops at the first goal cell, so on a trace cut there the
    objective and ``safe U goal`` hold alike, ``G a & F b`` included."""
    phi = [Until(a, b), Eventually(b), And(Always(a), Eventually(b)),
           And(Eventually(b), Always(a))][form]
    safe, goal = reach_avoid(phi)
    reached = [k for k, step in enumerate(trace) if check_trace(goal, [step])]
    cut = trace[:reached[0] + 1] if reached else trace
    assert check_trace(phi, cut) == check_trace(Until(safe, goal), cut)


def test_only_the_objective_names_the_mission_regions():
    """Loading, grounding, the game, the loop, the audit, the picture and
    the CLI take the mission's cells from the parsed objective: no module
    names a region."""
    modules = sorted(pathlib.Path(kaware.__file__).parent.glob("*.py"))
    assert {"scenario.py", "render.py", "cli.py"} <= {m.name for m in modules}
    for module in modules:
        tree = ast.parse(module.read_text())
        named = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and node.value in ("Target", "Obstacle")]
        assert named == [], f"{module.name} names a region on lines {named}"


# ---------------------------------------------------------------------------
# game objective compilation


def test_game_objective_overlap_rejected():
    with pytest.raises(ValueError):
        oracles.objective(30, {1, 2}, {2})


def _mask(cells):
    m = np.zeros(30, dtype=bool)
    m[list(cells)] = True
    return m


def _interp(target, obstacle, objective="!Obstacle U Target"):
    return Interpretation(domain_size=30, concept_extents={
        "Target": _mask(target), "Obstacle": _mask(obstacle)},
        objective=parse_ltl(objective))


def _link(sign_cells, street_cells):
    return np.array(sign_cells), np.array(street_cells)


def members(cells):
    """The cells of a cell set, as a frozenset of ints."""
    return frozenset(np.flatnonzero(cells.mask).tolist())


def test_compile_objective_no_known_signs():
    interp = _interp({1, 2}, {5, 6})
    links = [_link([10], [11, 12])]
    obj = compile_objective(interp, links, set())
    assert members(obj.target) == {1, 2}
    assert members(obj.avoid) == {5, 6}


@pytest.mark.parametrize("objective,target,avoid", [
    ("F Target", {1, 2}, set()),
    ("G !Obstacle & F Target", {1, 2}, {5, 6}),
    ("F Target & G !Obstacle", {1, 2}, {5, 6}),
    ("!Target U Obstacle", {5, 6}, {1, 2}),
    ("true U (Target | Obstacle)", {1, 2, 5, 6}, set()),
])
def test_compile_objective_reads_the_objective(objective, target, avoid):
    """Avoid is where the safe part fails and target is the goal minus
    avoid, whichever regions the objective names in either part."""
    obj = compile_objective(_interp({1, 2}, {5, 6}, objective), [], set())
    assert (members(obj.target), members(obj.avoid)) == (target, avoid)


def test_compile_objective_all_signs_known():
    interp = _interp({1, 2}, {5, 6})
    links = [_link([10], [11, 12]),
             _link([20], [21])]
    obj = compile_objective(interp, links, {10, 20})
    assert members(obj.avoid) == {5, 6, 11, 12, 21}


def test_compile_objective_one_sign_grows_by_its_street():
    interp = _interp({1, 2}, {5, 6})
    links = [_link([10], [11, 12]),
             _link([20], [21])]
    base = compile_objective(interp, links, set())
    one = compile_objective(interp, links, {10})
    assert members(one.avoid) - members(base.avoid) == {11, 12}
    assert one.target == base.target


def test_compile_objective_monotone_in_known_signs():
    interp = _interp({1}, {5})
    links = [_link([10], [11]),
             _link([20], [21, 22])]
    prev = compile_objective(interp, links, set()).avoid
    for known in ({10}, {10, 20}):
        cur = compile_objective(interp, links, known).avoid
        assert members(prev) <= members(cur)
        prev = cur


def test_compile_objective_warns_when_target_swallowed(caplog):
    caplog.set_level(logging.WARNING, logger="kaware")
    interp = _interp({11}, {5})
    links = [_link([10], [11, 12])]
    obj = compile_objective(interp, links, {10})
    assert members(obj.target) == frozenset()
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("kaware", "WARNING", "avoid set covers the whole target region")]


@pytest.mark.parametrize("cell", [-1, 30])
def test_compile_objective_rejects_a_known_sign_outside_the_grid(cell):
    """A negative index would otherwise mark a cell counted from the end of
    the grid, and one past the end would raise numpy's ``IndexError``."""
    interp = _interp({1}, {5})
    with pytest.raises(ValueError, match=f"known sign cell {cell} outside"):
        compile_objective(interp, [_link([10], [11])], {10, cell})


def test_cell_set_is_a_read_only_set_of_its_mask_cells():
    source = _mask({3, 7})
    cells = CellSet(source)
    source[4] = True
    assert members(cells) == {3, 7} and len(cells) == 2
    assert 7 in cells and np.int64(3) in cells
    assert all(c not in cells for c in (4, -27, 30, 3.0, "3"))
    assert not cells.mask.flags.writeable
    assert cells != CellSet(_mask({3})) and cells != CellSet(source)
    with pytest.raises(ValueError, match="1-D boolean mask"):
        CellSet([3, 7])


def test_cell_sets_are_equal_exactly_when_their_masks_are():
    """Equal masks give equal cell sets that hash alike; the same cells
    over a grid of another size, or a plain set of them, are not equal."""
    cells, again = CellSet(_mask({3, 7})), CellSet(_mask({3, 7}))
    assert cells == again and hash(cells) == hash(again)
    wider = CellSet(np.append(_mask({3, 7}), np.zeros(9, dtype=bool)))
    assert members(wider) == members(cells) and cells != wider
    assert cells != CellSet(_mask({3, 8}))
    for plain in ({3, 7}, frozenset({3, 7}), [3, 7]):
        assert cells != plain and plain != cells


def test_full_scale_compile_keeps_cells_as_masks(full_scenario, full_abstraction):
    """The full-scale objective's 2 688 target and 23 664 avoid cells stay
    boolean masks: compiling peaks under 1 MB of traced memory, where
    frozensets of Python ints took about 4 MB, and no field is a set."""
    world = build_world(full_scenario, full_abstraction)
    compile_objective(world.interp, world.sign_links, set())  # memoizes extents
    tracemalloc.start()
    try:
        obj = compile_objective(world.interp, world.sign_links, set())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(obj.target), len(obj.avoid)) == (2688, 23664)
    assert peak < 1 << 20, f"compile_objective peaked at {peak} bytes"
    for field in dataclasses.fields(obj):
        cells = getattr(obj, field.name)
        assert type(cells) is CellSet
        assert type(cells.mask) is np.ndarray and cells.mask.dtype == bool
        assert not any(isinstance(getattr(cells, slot), (set, frozenset))
                       for slot in CellSet.__slots__)
