import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from kaware.abstraction import build_abstraction
from kaware.dynamics import (DUBINS_LIPSCHITZ, ContinuousSystem, dubins_car,
                             dubins_field, flow, growth_matrices,
                             reach_over_approx)
from kaware.grid import make_grid

import oracles


def test_flow_straight_line():
    sys = dubins_car(tau=0.2)
    x = flow(sys, [0.0, 0.0, 0.0], [0.0], 0.2)
    assert x == pytest.approx([0.2, 0.0, 0.0], abs=1e-12)


def test_flow_pure_y_motion():
    sys = dubins_car(tau=0.2)
    x = flow(sys, [1.0, 2.0, np.pi / 2], [0.0], 0.2)
    assert x == pytest.approx([1.0, 2.2, np.pi / 2], abs=1e-12)


def test_flow_arc_matches_closed_form():
    sys = dubins_car(tau=0.2)
    x = flow(sys, [0.0, 0.0, 0.0], [1.0], 0.2)
    expected = oracles.dubins_arc([0.0, 0.0, 0.0], 1.0, 0.2)
    assert x == pytest.approx(expected.tolist(), abs=1e-9)
    # the closed form itself evaluates to the known arc endpoint
    assert expected[0] == pytest.approx(np.sin(0.2))
    assert expected[1] == pytest.approx(1.0 - np.cos(0.2))


def test_flow_vs_closed_form_random():
    sys = dubins_car(tau=0.2)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x0 = rng.uniform([0, 0, -np.pi], [8, 11, np.pi])
        u = rng.uniform(-2 * np.pi, 2 * np.pi)
        got = flow(sys, x0, [u], 0.2)
        exp = oracles.dubins_arc(x0, u, 0.2)
        assert np.abs(got - exp).max() < 1e-6


def test_flow_batched_equals_loop():
    sys = dubins_car(tau=0.2)
    rng = np.random.default_rng(5)
    xs = rng.uniform([0, 0, -np.pi], [8, 11, np.pi], size=(20, 3))
    batched = flow(sys, xs, [1.3], 0.2)
    single = np.stack([flow(sys, x, [1.3], 0.2) for x in xs])
    assert np.allclose(batched, single, atol=0, rtol=0)


def test_wrap_angles():
    """The state grid wraps the heading; the flow does not."""
    sys = dubins_car(tau=0.2)
    grid = make_grid([0, 0, -np.pi], [8, 11, np.pi], [0.2, 0.2, 0.26],
                     periodic=[False, False, True])
    x = flow(sys, [1.0, 1.0, np.pi - 0.05], [1.0], 0.2)
    assert x[2] == pytest.approx(np.pi + 0.15)   # flow does not wrap
    assert grid.wrap(x)[2] == pytest.approx(-np.pi + 0.15)
    assert grid.wrap(x)[:2].tolist() == x[:2].tolist()
    assert grid.wrap([0.0, 0.0, 3 * np.pi])[2] == pytest.approx(-np.pi)
    assert grid.wrap([0, 0, 0.5])[2] == pytest.approx(0.5)


def test_growth_matrices_match_series_oracle():
    tau = 0.2
    eL, iL = growth_matrices(DUBINS_LIPSCHITZ, tau)
    assert np.allclose(eL, oracles.expm_series(DUBINS_LIPSCHITZ * tau),
                       atol=1e-12)
    assert np.allclose(iL, oracles.int_expm_series(DUBINS_LIPSCHITZ, tau),
                       atol=1e-12)
    # nilpotent bound: the exponential is exactly I + L*tau
    assert np.allclose(eL, np.eye(3) + DUBINS_LIPSCHITZ * tau, atol=1e-14)


def test_growth_matrices_random_matrices():
    """Nilpotent bounds (a permuted strictly upper triangle) match the
    scaled-and-squared Taylor oracle; a bound with a cycle is refused."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        L = np.triu(rng.uniform(0, 1.5, size=(n, n)), 1)
        L *= rng.random((n, n)) < 0.7
        perm = rng.permutation(n)
        L = L[perm][:, perm]
        tau = rng.uniform(0.05, 0.8)
        eL, iL = growth_matrices(L, tau)
        assert np.allclose(eL, oracles.expm_series(L * tau), atol=1e-10)
        assert np.allclose(iL, oracles.int_expm_series(L, tau), atol=1e-10)
    with pytest.raises(ValueError, match="nilpotent"):
        growth_matrices(rng.uniform(0, 1.5, size=(3, 3)), 0.2)


def test_reach_point_set_no_disturbance():
    sys = dubins_car(tau=0.2)
    c, r = reach_over_approx(sys, [1.0, 1.0, 0.3], [0.0, 0.0, 0.0], [0.5])
    assert np.all(r == 0)
    assert c == pytest.approx(flow(sys, [1.0, 1.0, 0.3], [0.5], 0.2).tolist())


def test_reach_radius_dilation():
    sys = dubins_car(tau=0.2)
    _, r = reach_over_approx(sys, [0, 0, 0], [0.075, 0.075, 0.13], [0.0])
    assert r == pytest.approx([0.101, 0.101, 0.13])


def test_reach_radius_includes_disturbance():
    sys = dubins_car(tau=0.2, dist_halfwidth=[0.1, 0.1, 0.0])
    _, r = reach_over_approx(sys, [0, 0, 0], [0.0, 0.0, 0.0], [0.0])
    # integral of the (nilpotent) exponential applied to w: tau * w here
    assert r[:2] == pytest.approx([0.02, 0.02])
    assert r[2] == 0.0


def test_reach_monotone_in_radius():
    sys = dubins_car(tau=0.2)
    rng = np.random.default_rng(9)
    for _ in range(30):
        r1 = rng.uniform(0, 0.3, size=3)
        r2 = r1 + rng.uniform(0, 0.3, size=3)
        _, out1 = reach_over_approx(sys, [1, 1, 0.5], r1, [1.0])
        _, out2 = reach_over_approx(sys, [1, 1, 0.5], r2, [1.0])
        assert np.all(out2 >= out1 - 1e-12)


def test_heading_radius_past_pi_covers_the_circle():
    """The heading radius is not clamped: a box wider than the circle is
    cut to the full circle by the grid, starting at cell 0."""
    sys = dubins_car(tau=2.0)
    _, r = reach_over_approx(sys, [0, 0, 0], [0.0, 0.0, 4.0], [0.0])
    assert r[2] == 4.0
    grid_x = make_grid([0, 0, -np.pi], [20, 20, np.pi], [1.0, 1.0, 0.5],
                       periodic=[False, False, True])
    wide = ContinuousSystem(name="dubins_car", tau=2.0,
                            lipschitz=DUBINS_LIPSCHITZ,
                            dist_halfwidth=[0.0, 0.0, 2.0],
                            field=dubins_field, invariant_dims=(0, 1))
    abs_ = build_abstraction(wide, grid_x, make_grid([-1], [1], [1.0]))
    lo, hi = abs_.boxes(np.arange(grid_x.size), 1)
    on = (hi > lo).all(axis=0)
    assert on.any()
    assert (lo[2][on] == 0).all() and (hi[2][on] == grid_x.counts[2]).all()


def test_reach_containment_monte_carlo():
    sys = dubins_car(tau=0.2, dist_halfwidth=[0.02, 0.02, 0.05])
    rng = np.random.default_rng(31)
    radius = np.array([0.075, 0.075, 0.13])
    for _ in range(300):
        center = rng.uniform([0.5, 0.5, -np.pi], [7.5, 10.5, np.pi])
        u = rng.uniform(-2 * np.pi, 2 * np.pi, size=1)
        c_out, r_out = reach_over_approx(sys, center, radius, u)
        x = rng.uniform(center - radius, center + radius)
        for _ in range(4):
            w = rng.uniform(-sys.dist_halfwidth, sys.dist_halfwidth)
            x = flow(sys, x, u, sys.tau / 4, disturbance=w)
        d = np.abs(x - c_out)
        d[2] = min(d[2], 2 * np.pi - d[2])  # wrapped heading distance
        assert np.all(d <= r_out + 1e-9)


def test_system_validation():
    with pytest.raises(ValueError):
        dubins_car(tau=-1.0)
    with pytest.raises(ValueError):
        ContinuousSystem(name="dubins_car", tau=0.2,
                         lipschitz=-np.ones((3, 3)), dist_halfwidth=np.zeros(3),
                         field=dubins_field)
    # a dense bound is not nilpotent: its exponential is no finite series
    with pytest.raises(ValueError, match="nilpotent"):
        ContinuousSystem(name="dubins_car", tau=0.2,
                         lipschitz=np.ones((3, 3)), dist_halfwidth=np.zeros(3),
                         field=dubins_field)
    with pytest.raises(ValueError):
        dubins_car(dist_halfwidth=[-0.1, 0, 0])


def test_the_cli_imports_numpy_alone():
    """The growth bound is a finite numpy series: beyond the standard
    library, importing the CLI in a fresh process loads only numpy."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys\n"
            "def tops(): return {m.split('.')[0] for m in sys.modules}\n"
            "before = tops()\n"
            "import kaware.cli\n"
            "print(sorted(tops() - before - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['kaware', 'numpy']"
