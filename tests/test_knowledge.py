import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaware.errors import LtlSyntaxError, UndeclaredName
from kaware.grid import HyperRect, make_grid
from kaware.knowledge import Interpretation, ProximityRole, assemble_interpretation
from kaware.ltl import (And, Atomic, Bottom, Exists, Forall, Not, Or, Top,
                        eval_concept, parse_concept)

import oracles
from oracles import ExplicitRole, proximity

PI = np.pi


# ---------------------------------------------------------------------------
# concept parsing


def test_parse_atoms_and_booleans():
    assert parse_concept("Obstacle") == Atomic("Obstacle")
    assert parse_concept("top") == Top()
    assert parse_concept("bottom") == Bottom()
    assert parse_concept("!A & B") == And(Not(Atomic("A")), Atomic("B"))
    assert parse_concept("A | B & C") == Or(Atomic("A"),
                                            And(Atomic("B"), Atomic("C")))
    assert parse_concept("(A | B) & C") == And(Or(Atomic("A"), Atomic("B")),
                                               Atomic("C"))


def test_parse_role_restrictions():
    assert parse_concept("exists Proximity.NoEntrySign") == \
        Exists("Proximity", Atomic("NoEntrySign"))
    assert parse_concept("forall r.(A & B)") == \
        Forall("r", And(Atomic("A"), Atomic("B")))
    assert parse_concept("!exists r.A") == Not(Exists("r", Atomic("A")))


def test_ltl_keywords_are_atoms():
    assert parse_concept("X") == Atomic("X")
    assert parse_concept("true") == Atomic("true")


# error position by input
PARSE_ERRORS = {"": 0, "A &": 3, "exists r A": 9, "A B": 2, "(A": 2, "&A": 0,
                "A -> B": 2, "exists . A": 0, "exists r.": 9}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_errors(text):
    with pytest.raises(LtlSyntaxError) as exc:
        parse_concept(text)
    assert exc.value.pos == PARSE_ERRORS[text]


# ---------------------------------------------------------------------------
# concept semantics on hand-built interpretations


def mask(n, cells):
    m = np.zeros(n, dtype=bool)
    m[list(cells)] = True
    return m


def members(extent):
    return set(np.flatnonzero(extent).tolist())


def hand_interp(n=3, pairs=((0, 1), (1, 0)), extents=None):
    extents = extents if extents is not None else {"C": frozenset({1})}
    return Interpretation(
        domain_size=n,
        concept_extents={k: mask(n, v) for k, v in extents.items()},
        roles={"r": ExplicitRole(pairs)},
    )


def test_top_bottom():
    interp = hand_interp()
    assert members(eval_concept(interp, Top())) == {0, 1, 2}
    assert members(eval_concept(interp, Bottom())) == frozenset()


def test_exists_forall_hand_example():
    # r = {(0,1),(1,0)}, C = {1}:
    #   exists r.C = {0};  forall r.C = {0, 2} (2 holds vacuously)
    interp = hand_interp()
    assert members(eval_concept(interp, Exists("r", Atomic("C")))) == {0}
    assert members(eval_concept(interp, Forall("r", Atomic("C")))) == {0, 2}


def test_forall_is_vacuously_true_without_successors():
    interp = hand_interp(pairs=((0, 1),))
    # only 0 has a successor, and it satisfies C; 1 and 2 hold vacuously
    assert members(eval_concept(interp, Forall("r", Atomic("C")))) == {0, 1, 2}


def test_undeclared_names():
    interp = hand_interp()
    with pytest.raises(UndeclaredName):
        eval_concept(interp, Atomic("Missing"))
    with pytest.raises(UndeclaredName):
        eval_concept(interp, Exists("unknown_role", Atomic("C")))


cells = st.sets(st.integers(min_value=0, max_value=19), max_size=20)
pairs = st.sets(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40)


@st.composite
def concepts(draw, depth=4):
    if depth == 0:
        return draw(st.sampled_from([Top(), Bottom(), Atomic("C"),
                                     Atomic("D")]))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(concepts(depth=0))
    if kind == 1:
        return Not(draw(concepts(depth=depth - 1)))
    if kind == 2:
        return And(draw(concepts(depth=depth - 1)),
                   draw(concepts(depth=depth - 1)))
    if kind == 3:
        return Or(draw(concepts(depth=depth - 1)),
                  draw(concepts(depth=depth - 1)))
    if kind == 4:
        return Exists("r", draw(concepts(depth=depth - 1)))
    return Forall("r", draw(concepts(depth=depth - 1)))


@settings(max_examples=300)
@given(concepts())
def test_pretty_roundtrip(c):
    assert parse_concept(oracles.pretty(c, temporal=False)) == c


@settings(max_examples=100)
@given(cells, cells, pairs)
def test_double_negation(c_ext, d_ext, rel):
    interp = hand_interp(n=20, pairs=tuple(rel),
                         extents={"C": c_ext, "D": d_ext})
    c = And(Atomic("C"), Exists("r", Atomic("D")))
    assert np.array_equal(eval_concept(interp, Not(Not(c))),
                          eval_concept(interp, c))


@settings(max_examples=100)
@given(concepts(), concepts(), cells, cells, pairs)
def test_de_morgan(c, d, c_ext, d_ext, rel):
    interp = hand_interp(n=20, pairs=tuple(rel),
                         extents={"C": c_ext, "D": d_ext})
    left = eval_concept(interp, Not(And(c, d)))
    right = eval_concept(interp, Or(Not(c), Not(d)))
    assert np.array_equal(left, right)


@settings(max_examples=100)
@given(concepts(), cells, cells, pairs)
def test_forall_exists_duality(c, c_ext, d_ext, rel):
    interp = hand_interp(n=20, pairs=tuple(rel),
                         extents={"C": c_ext, "D": d_ext})
    forall = eval_concept(interp, Forall("r", c))
    exists_not = eval_concept(interp, Exists("r", Not(c)))
    assert np.array_equal(forall, ~exists_not)


# ---------------------------------------------------------------------------
# proximity


@pytest.fixture(scope="module")
def coarse_grid():
    return make_grid([-2, -2, -PI], [2, 2, PI], [0.5, 0.5, PI / 4],
                     periodic=[False, False, True])


def test_proximity_ahead(coarse_grid):
    g = coarse_grid
    src = g.quantize([0, 0, 0])
    ahead = g.quantize([1, 0, 0])
    assert proximity(g, src, ahead, 2.0)


def test_proximity_behind(coarse_grid):
    g = coarse_grid
    src = g.quantize([0, 0, 0])
    behind = g.quantize([-1.5, 0, 0])
    assert not proximity(g, src, behind, 2.0)


def test_proximity_out_of_range(coarse_grid):
    g = coarse_grid
    src = g.quantize([-2, -2, 0])
    far = g.quantize([2, 2, 0])
    assert not proximity(g, src, far, 1.0)


def test_proximity_matches_sampling_oracle(coarse_grid):
    import math

    g = coarse_grid
    rng = np.random.default_rng(13)
    checked = 0
    trials = 0
    while checked < 500 and trials < 5000:
        trials += 1
        a = int(rng.integers(0, g.size))
        b = int(rng.integers(0, g.size))
        ra, rb = oracles.cell_rect(g, a), oracles.cell_rect(g, b)
        gap = math.hypot(oracles.planar_gap(ra, rb, 0),
                         oracles.planar_gap(ra, rb, 1))
        dmax = oracles.directional_max(ra, rb, ra.lower[2], ra.upper[2])
        # margin bands: distance ties, and directional maxima too small for
        # the 5-sample heading resolution to certify the sign
        far_corner = math.hypot(
            max(abs(rb.lower[0] - ra.upper[0]), abs(rb.upper[0] - ra.lower[0])),
            max(abs(rb.lower[1] - ra.upper[1]), abs(rb.upper[1] - ra.lower[1])))
        band = far_corner * (1 - math.cos(g.eta[2] / 8)) + 1e-9
        if abs(gap - 1.5) < 1e-9 or 0 < dmax < band:
            continue
        checked += 1
        assert proximity(g, a, b, 1.5) == \
            oracles.proximity_sampled(g, a, b, 1.5)
    assert checked == 500


def test_proximity_role_preimage_matches_pointwise(coarse_grid):
    g = coarse_grid
    role = ProximityRole(g, 1.2)
    targets = frozenset({g.quantize([1, 1, 0]), g.quantize([-1, 0.5, 0])})
    got = role.preimage(mask(g.size, targets))
    expected = frozenset(
        c for c in range(g.size)
        if any(proximity(g, c, t, 1.2) for t in targets))
    assert members(got) == expected


def test_preimage_matches_scalar_proximity_per_sign_rectangle(desk_scenario):
    """For each distinct planar sign rectangle of the desk map, the kernel's
    preimage of one of its cells equals the scalar relation on every cell
    whose planar gap to it is below the range + 1, and is empty beyond."""
    g = desk_scenario.state_grid()
    rng = desk_scenario.proximity_range
    interp = desk_scenario.ground(g)[0]
    role = interp.roles["Proximity"]
    signs = np.flatnonzero(interp.extent("NoEntrySign"))
    planar = np.ravel_multi_index(np.unravel_index(signs, g.counts)[:2],
                                  g.counts[:2])
    reps = signs[np.unique(planar, return_index=True)[1]]
    centers = g.centers()
    pairs = 0
    for t in reps.tolist():
        got = role.preimage(mask(g.size, [t]))
        rect = oracles.cell_rect(g, t)
        gap = np.maximum(0.0, np.maximum(
            rect.lower[:2] - centers[:, :2] - g.eta[:2] / 2,
            centers[:, :2] - g.eta[:2] / 2 - rect.upper[:2]))
        near = np.hypot(gap[:, 0], gap[:, 1]) < rng + 1
        assert not got[~near].any()
        expected = [proximity(g, c, t, rng) for c in np.flatnonzero(near).tolist()]
        assert got[near].tolist() == expected
        pairs += len(expected)
    assert (len(reps), pairs) == (16, 39552)


# ---------------------------------------------------------------------------
# interpretation assembly


def ground(grid, regions, definitions=None):
    """The interpretation of ``regions`` over ``grid``, with no Target,
    Obstacle or NoEntrySign boxes unless ``regions`` gives them, and
    Proximity at range 1.2."""
    boxes = {"Target": [], "Obstacle": [], "NoEntrySign": [], **regions}
    return assemble_interpretation(
        boxes, {"Proximity": ProximityRole(grid, 1.2)}, definitions or {}, grid)


DETECTED = {"Detected": parse_concept("exists Proximity.NoEntrySign")}


def test_assemble_empty_region(coarse_grid):
    interp = ground(coarse_grid, {"Obstacle": []})
    assert members(interp.extent("Obstacle")) == frozenset()


def test_assemble_extent_overlaps_box(coarse_grid):
    box = HyperRect([0.1, 0.1], [0.9, 0.9])
    interp = ground(coarse_grid,
                    {"Target": [HyperRect([0.1, 0.1, -PI], [0.9, 0.9, PI])]})
    ext = np.flatnonzero(interp.extent("Target")).tolist()
    assert ext
    for cell in ext:
        rect = oracles.cell_rect(coarse_grid, cell)
        assert rect.lower[0] < box.upper[0] and box.lower[0] < rect.upper[0]
        assert rect.lower[1] < box.upper[1] and box.lower[1] < rect.upper[1]


def test_detected_concept_matches_double_loop(coarse_grid):
    g = coarse_grid
    sign_box = HyperRect([0.5, -0.5, -PI], [1.0, 0.0, PI])
    interp = ground(g, {"NoEntrySign": [sign_box]}, DETECTED)
    signs = np.flatnonzero(interp.extent("NoEntrySign")).tolist()
    expected = frozenset(
        x for x in range(g.size)
        if any(proximity(g, x, s, 1.2) for s in signs))
    assert members(interp.extent("Detected")) == expected


def test_region_monotonicity(coarse_grid):
    small = HyperRect([0.0, 0.0, -PI], [0.5, 0.5, PI])
    big = HyperRect([0.0, 0.0, -PI], [1.5, 1.5, PI])
    i1 = ground(coarse_grid, {"Obstacle": [small]})
    i2 = ground(coarse_grid, {"Obstacle": [small, big]})
    assert members(i1.extent("Obstacle")) <= members(i2.extent("Obstacle"))
    d1 = ground(coarse_grid, {"NoEntrySign": [small]}, DETECTED)
    d2 = ground(coarse_grid, {"NoEntrySign": [small, big]}, DETECTED)
    assert members(d1.extent("Detected")) <= members(d2.extent("Detected"))


def test_derived_concept_is_evaluated_on_first_use(desk_scenario):
    interp = desk_scenario.ground(desk_scenario.state_grid())[0]
    assert "NoEntrySignDetected" not in interp.concept_extents
    zone = interp.extent("NoEntrySignDetected")
    assert interp.extent("NoEntrySignDetected") is zone
    assert np.array_equal(zone, eval_concept(
        interp, parse_concept("exists Proximity.NoEntrySign")))
    assert zone.any()
