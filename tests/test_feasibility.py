"""Feasibility oracle: a scripted team delivers the box in every scenario.

The controller sees the true state. The box follows a route of waypoints:
up the corridor between scenario a/b's obstacles to (0, 0.35), or past the
right side of scenario c's single obstacle at (0.3, 0), then to the target.
Each agent steers to a stand-off point just behind the box on the line to
the current waypoint, and once there, pushes through the box's center. So
the tasks are winnable within max_steps by plain pushing, whatever a trained
policy does.
"""
from __future__ import annotations

import numpy as np
import pytest

from hlab import world

ROUTES = {"a": [(0.0, 0.35)], "b": [(0.0, 0.35)], "c": [(0.3, 0.0)]}
# the box has passed a waypoint once its y is within this of the waypoint's
PASSED = 0.05
# an agent this close to its stand-off point pushes instead of steering
REACH = 0.06
# the README quotes these step counts
STEPS_TO_GOAL = {"a": 39, "b": 39, "c": 42}


def scripted_actions(state: world.WorldState,
                     scenario: world.ScenarioConfig) -> list[int]:
    box = state.box_pos
    route = [np.array(w) for w in ROUTES[scenario.scenario_id]]
    waypoint = next((w for w in route if box[1] < w[1] - PASSED),
                    np.array(scenario.target[0]))
    heading = (waypoint - box) / np.linalg.norm(waypoint - box)
    standoff = box - heading * (scenario.box_radius + scenario.agent_radius)
    actions = []
    for pos in state.agent_pos:
        want = standoff - pos
        if np.linalg.norm(want) < REACH:
            want = box - pos
        actions.append(int(np.argmax(world.ACTION_DIRECTIONS @ want)))
    return actions


@pytest.mark.parametrize("sid", world.SCENARIO_IDS)
def test_scripted_team_reaches_goal(sid):
    scenario = world.build_scenario(sid)
    state = world.reset(scenario)
    while not state.done:
        joint = world.ACTION_ONE_HOTS[scripted_actions(state, scenario)]
        state = world.step(state, joint, scenario).next_state
    assert state.done_reason == "goal"
    assert state.step_index == STEPS_TO_GOAL[sid] <= scenario.max_steps
