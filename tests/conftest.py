import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from kaware import (build_abstraction, build_world, compile_objective,
                    load_scenario, run_closed_loop, solve_reach_avoid)

SCENARIO_DIR = (pathlib.Path(__file__).resolve().parents[1]
                / "src" / "kaware" / "scenarios")
DESK_SCENARIO = SCENARIO_DIR / "urban_desk.scn.json"
FULL_SCENARIO = SCENARIO_DIR / "urban.scn.json"
# the benchmark's reference digests, keyed by the scenario file's SHA-256
REFS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"


@pytest.fixture(scope="session")
def desk_scenario():
    return load_scenario(str(DESK_SCENARIO))


@pytest.fixture(scope="session")
def full_scenario():
    return load_scenario(str(FULL_SCENARIO))


@pytest.fixture(scope="session")
def desk_abstraction(desk_scenario):
    return build_abstraction(desk_scenario.system(), desk_scenario.state_grid(),
                             desk_scenario.input_grid())


@pytest.fixture(scope="session")
def full_abstraction(full_scenario):
    return build_abstraction(full_scenario.system(), full_scenario.state_grid(),
                             full_scenario.input_grid())


@pytest.fixture(scope="session")
def desk_world(desk_scenario, desk_abstraction):
    return build_world(desk_scenario, desk_abstraction)


@pytest.fixture(scope="session")
def desk_controller(desk_world):
    """Initial controller (no signs known yet)."""
    objective = compile_objective(desk_world.interp, desk_world.sign_links, set())
    return solve_reach_avoid(desk_world.abstraction, objective), objective


@pytest.fixture(scope="session")
def desk_trace(desk_world, desk_scenario):
    return run_closed_loop(desk_world, seed=desk_scenario.seed,
                           max_steps=desk_scenario.max_steps)
