import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaware.errors import InvalidCell, OutOfDomain
from kaware.grid import HyperRect, make_grid

import oracles

PI = np.pi


def test_input_grid_has_49_points():
    grid = make_grid([-2 * PI], [2 * PI], [0.26])
    assert grid.counts.tolist() == [49]
    assert grid.size == 49


def test_quantize_lower_bound_is_cell_zero():
    grid = make_grid([0.0], [8.0], [0.15])
    assert grid.quantize([0.0]) == 0
    assert grid.center(0)[0] == 0.0


def test_quantize_matches_nearest_point_oracle():
    grid = make_grid([0.0], [8.0], [0.15])
    cell = grid.quantize([0.31])
    assert cell == oracles.nearest_point_index(0.0, 0.15, grid.size, 0.31)
    assert grid.center(cell)[0] == pytest.approx(0.30)
    rng = np.random.default_rng(7)
    for x in rng.uniform(0, 8, size=200):
        assert grid.quantize([x]) == oracles.nearest_point_index(
            0.0, 0.15, grid.size, x)


def test_quantize_periodic_wrap():
    grid = make_grid([-PI], [PI], [0.26], periodic=[True])
    # the same physical angle expressed on both sides of the seam
    assert grid.quantize([PI - 0.01]) == grid.quantize([-PI - 0.01])
    assert grid.quantize([PI + 0.01]) == grid.quantize([-PI + 0.01])


def test_quantize_boundary_ties_to_lower_cell():
    grid = make_grid([0.0], [8.0], [0.15])
    # 0.075 is exactly between the first two points
    assert grid.quantize([0.075]) == 0


def test_quantize_out_of_domain():
    grid = make_grid([0.0, 0.0], [8.0, 11.0], [0.15, 0.15])
    with pytest.raises(OutOfDomain):
        grid.quantize([-0.1, 5.0])
    with pytest.raises(OutOfDomain):
        grid.quantize([1.0, 11.2])


def test_quantize_rejects_nan():
    grid = make_grid([0.0, 0.0, -PI], [8.0, 11.0, PI], [0.3, 0.3, 0.52],
                     periodic=[False, False, True])
    for x in ([np.nan, 5.0, 0.0], [1.0, 5.0, np.nan]):
        with pytest.raises(OutOfDomain):
            grid.quantize(x)


def test_quantize_rejects_an_infinite_periodic_coordinate():
    # warnings are errors under pytest, so a warning from the wrap fails here
    grid = make_grid([0.0, 0.0, -PI], [8.0, 11.0, PI], [0.3, 0.3, 0.52],
                     periodic=[False, False, True])
    for x in ([1.0, 5.0, np.inf], [1.0, 5.0, -np.inf]):
        with pytest.raises(OutOfDomain, match="inf"):
            grid.quantize(x)


def test_center_last_cell():
    grid = make_grid([0.0], [8.0], [0.15])
    assert grid.size == 54
    assert grid.center(grid.size - 1)[0] == pytest.approx(0.15 * 53)  # 7.95


def test_quantize_center_roundtrip_exhaustive():
    grid = make_grid([0.0, -1.0, -PI], [1.0, 1.0, PI], [0.4, 0.7, 2 * PI / 3],
                     periodic=[False, False, True])
    for cell in range(grid.size):
        assert grid.quantize(grid.center(cell)) == cell


def test_invalid_cell():
    grid = make_grid([0.0], [1.0], [0.5])
    with pytest.raises(InvalidCell):
        grid.center(grid.size)
    with pytest.raises(InvalidCell):
        grid.multi_index(-1)


def test_cell_rect():
    grid = make_grid([0.0], [8.0], [0.15])
    rect = oracles.cell_rect(grid, 2)
    assert rect.lower[0] == pytest.approx(0.225)
    assert rect.upper[0] == pytest.approx(0.375)


def test_cell_rects_cover_bounds():
    grid = make_grid([0.0, -PI], [2.0, PI], [0.3, 1.0],
                     periodic=[False, True])
    rng = np.random.default_rng(3)
    # non-periodic lattices stop at lower + (counts-1)*eta; states in the
    # trailing remainder snap to the last point, so sample the covered part
    hi = np.where(grid.periodic, grid.bounds.upper,
                  grid.bounds.lower + (grid.counts - 1) * grid.eta)
    for _ in range(300):
        x = rng.uniform(grid.bounds.lower, hi)
        c = grid.center(grid.quantize(x))
        d = np.abs(x - c)
        d = np.where(grid.periodic, np.minimum(d, grid.span - d), d)
        assert np.all(d <= grid.eta / 2 + 1e-12)


@settings(max_examples=60)
@given(st.floats(min_value=0.0, max_value=8.0),
       st.floats(min_value=0.0, max_value=11.0),
       st.floats(min_value=-10.0, max_value=10.0))
def test_quantize_within_half_eta(x1, x2, theta):
    grid = make_grid([0.0, 0.0, -PI], [8.0, 11.0, PI], [0.15, 0.15, 0.26],
                     periodic=[False, False, True])
    cell = grid.quantize([x1, x2, theta])
    c = grid.center(cell)
    x = grid.wrap([x1, x2, theta])
    d = np.abs(x - c)
    d = np.where(grid.periodic, np.minimum(d, grid.span - d), d)
    assert np.all(d <= grid.eta / 2 + 1e-12)


def test_periodic_eta_snaps_to_tile_the_circle():
    grid = make_grid([-PI], [PI], [0.26], periodic=[True])
    assert grid.counts.tolist() == [24]
    assert grid.eta[0] == pytest.approx(2 * PI / 24)
    # an integer number of cells covers the circle exactly
    assert grid.counts[0] * grid.eta[0] == pytest.approx(2 * PI)


def test_flat_index_is_row_major():
    grid = make_grid([0.0] * 3, [4.0, 5.0, 6.0], [1.05, 1.05, 1.05])
    assert grid.counts.tolist() == [4, 5, 6]
    assert grid.flat_index([1, 2, 3]) == 1 * 30 + 2 * 6 + 3
    assert grid.multi_index(45).tolist() == [1, 2, 3]


def test_cells_intersecting_full_region():
    grid = make_grid([0.0, 0.0], [1.0, 1.0], [0.25, 0.25])
    got = grid.cells_intersecting(grid.bounds)
    assert got.tolist() == list(range(grid.size))


def test_cells_intersecting_region_inside_one_cell():
    grid = make_grid([0.0], [8.0], [0.15])
    got = grid.cells_intersecting(HyperRect([0.28], [0.32]))
    assert got.tolist() == [2]  # center 0.30


def test_cells_intersecting_matches_bruteforce():
    grid = make_grid([0.0], [8.0], [0.15])
    got = grid.cells_intersecting(HyperRect([0.2], [0.4]))
    expected = oracles.cells_overlapping_bruteforce(grid, [0.2], [0.4])
    assert got.tolist() == expected
    assert sorted(grid.center(c)[0] for c in got) == pytest.approx(
        [0.15, 0.30, 0.45])


def test_cells_intersecting_bruteforce_random_boxes():
    grid = make_grid([0.0, -PI], [2.0, PI], [0.3, 1.2], periodic=[False, True])
    rng = np.random.default_rng(11)
    for _ in range(50):
        lo = rng.uniform([0.0, -PI - 1], [1.8, PI])
        hi = lo + rng.uniform(0.01, 1.5, size=2)
        got = grid.cells_intersecting(HyperRect(lo, hi)).tolist()
        # brute force with explicit wrapped copies of the box on the angle dim
        expected = set()
        for shift in (-2 * PI, 0.0, 2 * PI):
            expected.update(oracles.cells_overlapping_bruteforce(
                grid, [lo[0], lo[1] + shift], [hi[0], hi[1] + shift]))
        assert got == sorted(expected)


def test_cells_intersecting_degenerate_region():
    grid = make_grid([0.0], [8.0], [0.15])
    # a zero-width box strictly inside a cell maps to that cell
    assert grid.cells_intersecting(HyperRect([0.3], [0.3])).tolist() == [2]
    # on a cell face (0.225 separates cells 1 and 2) it touches neither
    assert grid.cells_intersecting(HyperRect([0.225], [0.225])).size == 0


def test_cells_intersecting_trailing_strip():
    grid = make_grid([0.0], [8.0], [0.3])
    # the last rect ends at 7.95; the strip (7.95, 8] quantizes to it
    assert grid.quantize([7.98]) == grid.size - 1
    assert grid.cells_intersecting(HyperRect([7.96], [8.0])).tolist() == \
        [grid.size - 1]
    assert grid.cells_intersecting(HyperRect([7.96], [7.96])).tolist() == \
        [grid.size - 1]
    # a region starting at or past the upper bound meets no cell
    assert grid.cells_intersecting(HyperRect([8.0], [8.0])).size == 0
    assert grid.cells_intersecting(HyperRect([8.5], [8.5])).size == 0
    assert grid.cells_intersecting(HyperRect([8.5], [9.0])).size == 0


def test_cells_intersecting_regions_far_past_the_bounds():
    # JSON has no infinity, so a huge finite number stands for it; its
    # window must not lose the region's other end to float rounding
    grid = make_grid([0.0], [8.0], [0.3])
    for huge in (1e300, 1.7e308):
        assert grid.cells_intersecting(HyperRect([-huge], [5.0])).tolist() == \
            list(range(18))
        assert grid.cells_intersecting(HyperRect([3.0], [huge])).tolist() == \
            list(range(10, grid.size))
        assert grid.cells_intersecting(HyperRect([-huge], [huge])).tolist() == \
            list(range(grid.size))
        assert grid.cells_intersecting(HyperRect([-huge], [-1e299])).size == 0
        assert grid.cells_intersecting(HyperRect([1e299], [huge])).size == 0
        assert grid.cells_intersecting(HyperRect([-huge], [-huge])).size == 0
    circle = make_grid([-PI], [PI], [0.5], periodic=[True])
    everything = list(range(circle.size))
    for lo, hi in [(-1e300, 0.0), (0.0, 1e300), (-1e20, 1e20), (-1.7e308, 0.0),
                   (0.0, 1.7e308), (-1.7e308, 1.7e308)]:
        assert circle.cells_intersecting(HyperRect([lo], [hi])).tolist() == everything
    # a point a whole number of turns out means the angle it has on the circle
    for turns in (-1e6, -3.0, 5.0, 1e6):
        at = 1.0 + turns * 2 * PI
        assert circle.cells_intersecting(HyperRect([at], [at])).tolist() == \
            circle.cells_intersecting(HyperRect([1.0], [1.0])).tolist()
    assert circle.cells_intersecting(HyperRect([-1.7e308], [-1.7e308])).size == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_states_inside_a_region_quantize_to_its_cells(data):
    ndim = data.draw(st.integers(1, 3))
    lower = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=ndim,
                                        max_size=ndim)))
    span = np.array(data.draw(st.lists(st.floats(0.5, 20), min_size=ndim,
                                       max_size=ndim)))
    cells = np.array(data.draw(st.lists(st.floats(1.05, 15), min_size=ndim,
                                        max_size=ndim)))
    periodic = data.draw(st.lists(st.booleans(), min_size=ndim, max_size=ndim))
    grid = make_grid(lower, lower + span, span / cells, periodic)
    # a region inside the bounds, at least 1 % of the span wide
    a = np.array(data.draw(st.lists(st.floats(0, 0.99), min_size=ndim,
                                    max_size=ndim)))
    b = a + np.array(data.draw(st.lists(st.floats(0.01, 1), min_size=ndim,
                                        max_size=ndim))) * (1 - a)
    region = HyperRect(lower + a * span, lower + np.maximum(b, a + 0.01) * span)
    got = set(grid.cells_intersecting(region).tolist())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = np.vstack([rng.uniform(0.001, 0.999, (20, ndim)),
                   np.full((1, ndim), 0.999), np.full((1, ndim), 0.001)])
    for x in region.lower + f * (region.upper - region.lower):
        assert grid.quantize(x) in got


def _random_grid(rng):
    ndim = int(rng.integers(1, 4))
    lower = rng.uniform(-5, 5, ndim)
    span = rng.uniform(0.5, 10, ndim)
    return make_grid(lower, lower + span, span / rng.uniform(1.05, 12, ndim),
                     rng.random(ndim) < 0.3)


def _random_coordinate(rng, grid, d):
    """Uniform around the bounds, on a cell face, at the upper bound, or in
    the trailing strip, each about a quarter of the time; on a non-periodic
    dimension, one time in ten far past either bound.  (On a periodic one a
    point that far has no meaningful angle, so the rules need not agree.)"""
    lo, hi, eta, n = (grid.bounds.lower[d], grid.bounds.upper[d], grid.eta[d],
                      int(grid.counts[d]))
    if not grid.periodic[d] and rng.random() < 0.1:
        return rng.choice([-1e300, -1e20, 1e20, 1e300])
    face = lo + (n - 0.5) * eta
    return [lambda: rng.uniform(lo - 0.3 * (hi - lo), hi + 0.3 * (hi - lo)),
            lambda: lo + (rng.integers(-1, n + 1) + 0.5) * eta,
            lambda: hi + rng.choice([-1e-6, -1e-12, 0.0, 1e-12, 1e-6]),
            lambda: rng.uniform(min(face, hi), hi)][rng.integers(4)]()


def differential(rng, pairs):
    """Compare ``cells_intersecting`` with the former scalar rule
    (:func:`oracles.cells_by_index_interval`) on random (grid, region)
    pairs.  Returns the number of pairs, of differing pairs, and of
    differing pairs that break the expected difference: the former set
    plus, where the region meets the trailing strip of a non-periodic
    dimension, cells at that dimension's last index."""
    differ = wrong = 0
    for _ in range(pairs):
        grid = _random_grid(rng)
        lo, hi = np.sort([[_random_coordinate(rng, grid, d) for d in range(grid.ndim)]
                          for _ in range(2)], axis=0)
        if rng.random() < 0.2:
            hi = lo.copy()
        new = set(grid.cells_intersecting(HyperRect(lo, hi)).tolist())
        old = set(oracles.cells_by_index_interval(grid, lo, hi))
        if new == old:
            continue
        differ += 1
        face = grid.bounds.lower + (grid.counts - 0.5) * grid.eta
        strip = ~grid.periodic & (hi >= face - 1e-6) & (lo < grid.bounds.upper)
        added = [np.unravel_index(c, tuple(grid.counts)) for c in new - old]
        wrong += not (old <= new and strip.any() and all(
            any(k[d] == grid.counts[d] - 1 for d in np.flatnonzero(strip))
            for k in added))
    return pairs, differ, wrong


def test_cells_intersecting_differs_from_the_former_rule_only_on_the_strip():
    pairs, differ, wrong = differential(np.random.default_rng(5), 3000)
    assert wrong == 0
    assert differ > 0


def test_hyperrect_validation():
    with pytest.raises(ValueError):
        HyperRect([1.0], [0.0])
    with pytest.raises(ValueError):
        HyperRect([0.0, 0.0], [1.0])


def test_hyperrect_intersects_is_open():
    a = HyperRect([0.0], [1.0])
    b = HyperRect([1.0], [2.0])  # shares only a face
    c = HyperRect([0.9], [2.0])
    assert not a.intersects(b)
    assert a.intersects(c)
