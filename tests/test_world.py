"""World tests: geometry, integration, rewards, observations, trajectory IO."""
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlab import world
from hlab.world import (
    ContactReport,
    ScenarioConfig,
    WorldState,
    action_one_hot,
    build_scenario,
    decode_action,
    observe,
    replay_trajectory,
    reset,
    reward_components,
    step,
)


def make_state(agent_pos, box_pos, agent_vel=None, box_vel=None, step_index=0):
    agent_pos = np.array(agent_pos, dtype=float)
    return WorldState(
        step_index=step_index,
        agent_pos=agent_pos,
        agent_vel=(np.zeros_like(agent_pos) if agent_vel is None
                   else np.array(agent_vel, dtype=float)),
        box_pos=np.array(box_pos, dtype=float),
        box_vel=(np.zeros(2) if box_vel is None
                 else np.array(box_vel, dtype=float)),
    )


def quiet_contacts(n, pushes=None, collisions=None, box_hit=False, oob=None):
    return ContactReport(
        pushes=np.array(pushes if pushes is not None else [False] * n),
        agent_collisions=np.array(
            collisions if collisions is not None else [False] * n),
        box_obstacle_collision=box_hit,
        out_of_bounds=np.array(oob if oob is not None else [False] * n),
    )


# a bare arena for constructed-state reward tests: target at the origin,
# no obstacles, agents parked far from everything
def bare_config(**overrides):
    defaults = dict(
        scenario_id="a",
        agent_starts=[(-0.8, -0.8), (0.8, -0.8), (0.0, -0.8)],
        agent_radius=0.05,
        box_start=(0.5, 0.5),
        box_radius=0.075,
        obstacles=[],
        target=((0.0, 0.0), 0.075),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestScenarioGeometry:
    def test_scenario_a(self):
        cfg = build_scenario("a")
        assert cfg.agent_starts == [(0.0, -0.75), (0.5, -0.75), (-0.5, -0.75)]
        assert cfg.agent_radius == 0.05
        assert cfg.box_start == (0.0, -0.5)
        assert cfg.box_radius == 0.075
        assert cfg.obstacles == [((-0.3, 0.0), 0.2), ((0.3, 0.0), 0.2)]
        assert cfg.target == ((-0.9, 0.9), 0.075)
        assert cfg.world_bound == 1.0
        assert cfg.max_steps == 50

    def test_scenario_b_mirrors_target(self):
        cfg = build_scenario("b")
        assert cfg.target == ((0.9, 0.9), 0.075)
        assert cfg.obstacles == build_scenario("a").obstacles

    def test_scenario_c_single_obstacle(self):
        cfg = build_scenario("c")
        assert cfg.obstacles == [((0.0, 0.0), 0.2)]
        assert cfg.target == ((0.0, 0.9), 0.075)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("d")

    def test_goal_distance_is_radius_sum(self):
        cfg = build_scenario("a")
        assert cfg.goal_distance == 0.075 + 0.075

    def test_json_dict_values(self):
        # the content of a train run's scenario.json
        assert build_scenario("b").to_json_dict() == {
            "scenario_id": "b",
            "agents": [{"pos": [0.0, -0.75], "radius": 0.05},
                       {"pos": [0.5, -0.75], "radius": 0.05},
                       {"pos": [-0.5, -0.75], "radius": 0.05}],
            "box": {"pos": [0.0, -0.5], "radius": 0.075},
            "obstacles": [{"pos": [-0.3, 0.0], "radius": 0.2},
                          {"pos": [0.3, 0.0], "radius": 0.2}],
            "target": {"pos": [0.9, 0.9], "radius": 0.075},
            "world_bound": 1.0, "max_steps": 50, "dt": 0.1,
            "damping": 0.25, "stiffness": 100.0, "contact_margin": 0.001,
            "force": 3.0, "agent_mass": 1.0, "box_mass": 1.0,
            "goal_threshold": None,
        }

    def test_validate_rejects_overlapping_obstacle(self):
        with pytest.raises(ValueError, match="overlaps the box"):
            bare_config(obstacles=[((0.5, 0.5), 0.2)]).validate()

    def test_config_is_frozen(self):
        cfg = build_scenario("a")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_steps = 10

    @pytest.mark.parametrize("bad", [dict(max_steps=0), dict(box_radius=0.0),
                                     dict(agent_starts=[])])
    def test_invalid_config_raises_at_construction(self, bad):
        with pytest.raises(ValueError):
            bare_config(**bad)
        with pytest.raises(ValueError):
            dataclasses.replace(bare_config(), **bad)

    def test_dims_are_the_layout_widths(self):
        for sid in "abc":
            cfg = build_scenario(sid)
            assert {cfg.layout(i).total_dim for i in range(cfg.n_agents)} \
                == {cfg.obs_dim}
            assert cfg.joint_dim \
                == cfg.n_agents * (cfg.obs_dim + world.N_ACTIONS)


class TestActions:
    def test_decode_round_trip(self):
        for k in range(5):
            assert decode_action(action_one_hot(k)) == k

    def test_rejects_non_one_hot(self):
        with pytest.raises(ValueError, match="one-hot"):
            decode_action([0.5, 0.5, 0, 0, 0])
        with pytest.raises(ValueError, match="one-hot"):
            decode_action([1, 1, 0, 0, 0])
        with pytest.raises(ValueError, match="shape"):
            decode_action([1, 0, 0, 0])

    def test_direction_conventions(self):
        # left, right, down, up, stay
        assert world.ACTION_DIRECTIONS.tolist() == [
            [-1, 0], [1, 0], [0, -1], [0, 1], [0, 0]]


class TestIntegration:
    def test_reset_matches_starts(self):
        cfg = build_scenario("a")
        s = reset(cfg)
        assert np.array_equal(s.agent_pos, np.array(cfg.agent_starts))
        assert np.all(s.agent_vel == 0) and np.all(s.box_vel == 0)
        assert s.step_index == 0 and not s.done

    def test_single_euler_step_by_hand(self):
        # v' = v(1 - 0.25) + F * 0.1; x' = x + v' * 0.1
        # from rest with force +y: v' = 0.1, dx = 0.01
        cfg = bare_config()
        s = reset(cfg)
        joint = np.stack([action_one_hot(3)] * 3)
        out = step(s, joint, cfg)
        assert out.next_state.agent_vel[0, 1] == pytest.approx(0.1, abs=1e-12)
        assert out.next_state.agent_pos[0, 1] == pytest.approx(-0.79, abs=1e-12)

    def test_damping_decay_from_known_velocity(self):
        # v = 0.4 with stay action: v' = 0.4 * 0.75 = 0.3, dx = 0.03
        cfg = bare_config()
        s = reset(cfg)
        s.agent_vel[0] = [0.4, 0.0]
        out = step(s, np.stack([action_one_hot(4)] * 3), cfg)
        assert out.next_state.agent_vel[0, 0] == pytest.approx(0.3, abs=1e-15)
        assert out.next_state.agent_pos[0, 0] == pytest.approx(
            -0.8 + 0.03, abs=1e-15)

    def test_stationary_far_bodies_stay_put(self):
        # far from contacts the only forces are the vanishing softplus tails
        cfg = bare_config()
        s = reset(cfg)
        out = step(s, np.stack([action_one_hot(4)] * 3), cfg)
        assert np.all(np.abs(out.next_state.agent_vel) < 1e-60)
        assert np.all(np.abs(out.next_state.agent_pos
                             - np.array(cfg.agent_starts)) < 1e-60)
        assert np.all(out.next_state.box_pos == np.array(cfg.box_start))

    def test_contact_pushes_box(self):
        cfg = bare_config(agent_starts=[(0.39, 0.5), (0.8, -0.8), (-0.8, -0.8)],
                          box_start=(0.5, 0.5))
        s = reset(cfg)
        s.agent_vel[0] = [0.4, 0.0]  # driving into the box
        out = step(s, np.stack([action_one_hot(1), action_one_hot(4),
                                action_one_hot(4)]), cfg)
        assert out.next_state.box_vel[0] > 0  # box pushed in +x
        assert out.contacts.pushes[0]

    def test_boundary_is_soft(self):
        # the arena edge penalizes but does not block
        cfg = bare_config(agent_starts=[(0.999, 0.0), (0.8, -0.8), (-0.8, -0.8)])
        s = reset(cfg)
        s.agent_vel[0] = [0.4, 0.0]
        out = step(s, np.stack([action_one_hot(1)] + [action_one_hot(4)] * 2),
                   cfg)
        assert out.contacts.out_of_bounds[0]
        assert out.next_state.agent_pos[0, 0] > cfg.world_bound
        assert out.breakdown.r_bound[0] == -50.0
        assert not out.contacts.out_of_bounds[1:].any()
        # coming back inside clears the flag and the penalty
        s2 = out.next_state
        s2.agent_vel[0] = [-4.0, 0.0]
        out2 = step(s2, np.stack([action_one_hot(0)] + [action_one_hot(4)] * 2),
                    cfg)
        assert not out2.contacts.out_of_bounds[0]
        assert out2.breakdown.r_bound[0] == 0.0

    def test_step_counter_and_timeout(self):
        cfg = bare_config(max_steps=3)
        s = reset(cfg)
        stay = np.stack([action_one_hot(4)] * 3)
        for k in range(3):
            out = step(s, stay, cfg)
            s = out.next_state
        assert s.done and s.done_reason == "timeout"
        with pytest.raises(RuntimeError, match="finished episode"):
            step(s, stay, cfg)

    def test_goal_termination(self):
        cfg = bare_config(box_start=(0.2, 0.0))
        s = reset(cfg)
        s.box_vel[:] = [-1.0, 0.0]  # glides into the target disc
        out = step(s, np.stack([action_one_hot(4)] * 3), cfg)
        assert out.next_state.done_reason == "goal"
        assert out.breakdown.r_goal[0] == 1000.0

    def test_determinism(self):
        cfg = build_scenario("a")
        rng = np.random.default_rng(7)
        acts = rng.integers(0, 5, size=(50, 3))
        runs = []
        for _ in range(2):
            s = reset(cfg)
            trace = []
            for k in range(50):
                if s.done:
                    break
                out = step(s, np.stack([action_one_hot(a) for a in acts[k]]),
                           cfg)
                s = out.next_state
                trace.append((s.agent_pos.copy(), s.box_pos.copy(),
                              out.rewards.copy()))
            runs.append(trace)
        for (p1, b1, r1), (p2, b2, r2) in zip(*runs):
            assert np.array_equal(p1, p2)
            assert np.array_equal(b1, b2)
            assert np.array_equal(r1, r2)


class TestRewards:
    def test_distance_unit_exact(self):
        # target at origin: d 0.1 -> 0.05 gives exactly +2.5 to every agent
        # (shrunken goal radius keeps the goal term out of the picture)
        cfg = bare_config(goal_threshold=0.01)
        prev = make_state(cfg.agent_starts, (0.1, 0.0))
        now = make_state(cfg.agent_starts, (0.05, 0.0), step_index=1)
        br = reward_components(prev, now, quiet_contacts(3), cfg)
        assert br.r_dis.tolist() == [2.5, 2.5, 2.5]
        assert br.r_goal.tolist() == [0.0, 0.0, 0.0]

    def test_distance_sign_follows_motion(self):
        cfg = bare_config()
        prev = make_state(cfg.agent_starts, (0.5, 0.0))
        closer = make_state(cfg.agent_starts, (0.4, 0.0), step_index=1)
        farther = make_state(cfg.agent_starts, (0.6, 0.0), step_index=1)
        assert reward_components(prev, closer, quiet_contacts(3),
                                 cfg).r_dis[0] > 0
        assert reward_components(prev, farther, quiet_contacts(3),
                                 cfg).r_dis[0] < 0

    def test_push_unit(self):
        cfg = bare_config()
        s = make_state(cfg.agent_starts, (0.5, 0.5))
        br = reward_components(s, s, quiet_contacts(3, pushes=[True, False,
                                                               False]), cfg)
        assert br.r_push.tolist() == [50.0, 0.0, 0.0]

    def test_goal_unit_shared(self):
        cfg = bare_config()
        prev = make_state(cfg.agent_starts, (0.2, 0.0))
        now = make_state(cfg.agent_starts, (0.1, 0.0), step_index=1)
        br = reward_components(prev, now, quiet_contacts(3), cfg)
        assert br.r_goal.tolist() == [1000.0, 1000.0, 1000.0]

    def test_collision_unit_agent_pair(self):
        cfg = bare_config()
        s = make_state(cfg.agent_starts, (0.5, 0.5))
        br = reward_components(s, s, quiet_contacts(
            3, collisions=[True, True, False]), cfg)
        assert br.r_col.tolist() == [-50.0, -50.0, 0.0]

    def test_collision_unit_box_obstacle_hits_everyone(self):
        cfg = bare_config()
        s = make_state(cfg.agent_starts, (0.5, 0.5))
        br = reward_components(s, s, quiet_contacts(3, box_hit=True), cfg)
        assert br.r_col.tolist() == [-50.0, -50.0, -50.0]

    def test_boundary_unit(self):
        cfg = bare_config()
        s = make_state(cfg.agent_starts, (0.5, 0.5))
        br = reward_components(s, s, quiet_contacts(
            3, oob=[False, True, False]), cfg)
        assert br.r_bound.tolist() == [0.0, -50.0, 0.0]

    def test_total_is_component_sum(self):
        cfg = bare_config(goal_threshold=0.01)
        prev = make_state(cfg.agent_starts, (0.1, 0.0))
        now = make_state(cfg.agent_starts, (0.05, 0.0), step_index=1)
        contacts = quiet_contacts(3, pushes=[True, False, False],
                                  collisions=[False, True, True],
                                  oob=[False, False, True])
        br = reward_components(prev, now, contacts, cfg)
        want = br.r_dis + br.r_push + br.r_goal + br.r_col + br.r_bound
        assert np.array_equal(br.totals(), want)
        assert br.totals()[0] == 2.5 + 50.0
        assert br.totals()[1] == 2.5 - 50.0
        assert br.totals()[2] == 2.5 - 50.0 - 50.0

    def test_live_collision_detection(self):
        # agents driven into each other still overlap after the step
        cfg = bare_config(agent_starts=[(0.0, 0.0), (0.09, 0.0), (-0.8, -0.8)])
        s = reset(cfg)
        s.agent_vel[0] = [0.4, 0.0]
        s.agent_vel[1] = [-0.4, 0.0]
        out = step(s, np.stack([action_one_hot(4)] * 3), cfg)
        assert out.contacts.agent_collisions[0]
        assert out.contacts.agent_collisions[1]
        assert not out.contacts.agent_collisions[2]
        assert out.breakdown.r_col[0] == -50.0

    def test_live_box_obstacle_collision(self):
        cfg = build_scenario("c")
        s = reset(cfg)
        s.box_pos[:] = [0.0, -0.25]
        s.box_vel[:] = [0.0, 0.5]  # driving into the obstacle at the origin
        out = step(s, np.stack([action_one_hot(4)] * 3), cfg)
        assert out.contacts.box_obstacle_collision
        assert np.all(out.breakdown.r_col == -50.0)


class TestObservations:
    @pytest.mark.parametrize("scenario_id,dim", [("a", 20), ("b", 20),
                                                 ("c", 18)])
    def test_dimensions(self, scenario_id, dim):
        cfg = build_scenario(scenario_id)
        s = reset(cfg)
        for i in range(cfg.n_agents):
            assert observe(s, i, cfg).shape == (dim,)
            assert cfg.layout(i).total_dim == dim

    def test_layout_slots(self):
        cfg = build_scenario("a")
        s = reset(cfg)
        s.agent_vel[0] = [0.11, -0.07]
        s.agent_vel[2] = [0.02, 0.03]
        obs = observe(s, 0, cfg)
        layout = cfg.layout(0)
        assert obs[layout.self_pos].tolist() == [0.0, -0.75]
        assert obs[layout.self_vel].tolist() == [0.11, -0.07]
        # obstacle displacement is obstacle minus self
        assert obs[layout.obstacle_rel(0)].tolist() == [-0.3, 0.75]
        assert obs[layout.obstacle_rel(1)].tolist() == [0.3, 0.75]
        assert obs[layout.self_to_target].tolist() == [-0.9, 0.9 + 0.75]
        assert obs[layout.box_to_target].tolist() == [-0.9, 0.9 + 0.5]
        # teammates in ascending index order, absolute coordinates
        assert obs[layout.teammate_pos(1)].tolist() == [0.5, -0.75]
        assert obs[layout.teammate_pos(2)].tolist() == [-0.5, -0.75]
        assert obs[layout.teammate_vel(2)].tolist() == [0.02, 0.03]

    def test_teammate_block_indices(self):
        layout = build_scenario("a").layout(1)
        # observer 1 sees teammates (0, 2); block of 0 is slots 12,13 (pos)
        # and 16,17 (vel) in the 20-dim vector
        assert layout.teammate_block(0).tolist() == [12, 13, 16, 17]
        assert layout.teammate_block(2).tolist() == [14, 15, 18, 19]
        with pytest.raises(ValueError):
            layout.teammate_block(1)

    def test_observe_rejects_bad_index(self):
        cfg = build_scenario("a")
        with pytest.raises(ValueError, match="out of range"):
            observe(reset(cfg), 3, cfg)


class TestTrajectoryIO:
    def _random_episode(self, cfg, seed=11):
        """One episode of uniform random actions, played to its end."""
        rng = np.random.default_rng(seed)
        s = reset(cfg)
        states = [s.copy()]
        actions, rewards = [], []
        while not s.done:
            idx = rng.integers(0, 5, size=cfg.n_agents)
            out = step(s, np.stack([action_one_hot(a) for a in idx]), cfg)
            s = out.next_state
            states.append(s.copy())
            actions.append(idx)
            rewards.append(out.rewards)
        return states, np.array(actions), np.array(rewards)

    @staticmethod
    def _write(path, scenario_id, states, actions, rewards):
        """Log the episode through the stacks of its stepped states."""
        stepped = world.Worlds.of(states[1:])
        world.write_trajectory_csv(path, scenario_id, stepped.pos,
                                   stepped.vel, actions, rewards,
                                   np.array([s.done for s in states[1:]]))

    @pytest.mark.parametrize("scenario_id", world.SCENARIO_IDS)
    def test_round_trip_and_replay(self, tmp_path, scenario_id):
        cfg = build_scenario(scenario_id)
        states, actions, rewards = self._random_episode(cfg)
        path = tmp_path / "traj.csv"
        self._write(path, scenario_id, states, actions, rewards)
        log = world.read_trajectory_csv(path)
        assert log.scenario_id == scenario_id
        assert log.n_agents == 3
        # the table holds every written value back, bit for bit
        stepped = world.Worlds.of(states[1:])
        want = {"step": np.arange(len(actions)),
                "box_x": stepped.pos[:, 3, 0], "box_y": stepped.pos[:, 3, 1],
                "done": [s.done for s in states[1:]]}
        for i in range(3):
            a = f"agent{i + 1}_"
            want |= {a + "x": stepped.pos[:, i, 0],
                     a + "y": stepped.pos[:, i, 1],
                     a + "vx": stepped.vel[:, i, 0],
                     a + "vy": stepped.vel[:, i, 1],
                     f"reward_{i + 1}": rewards[:, i],
                     f"action_{i + 1}": actions[:, i]}
        cols = world.trajectory_columns(3)
        assert log.table.shape == (len(actions), len(cols))
        for col, name in zip(log.table.T, cols):
            _assert_bits_equal(col, np.asarray(want[name], dtype=float), name)
        result = replay_trajectory(path)
        assert result.ok, result.message

    def test_replay_detects_tampering(self, tmp_path):
        cfg = build_scenario("a")
        states, actions, rewards = self._random_episode(cfg)
        path = tmp_path / "traj.csv"
        self._write(path, "a", states, actions, rewards)
        lines = path.read_text().splitlines()
        # perturb agent1_x in the row for step 4 (line 6: comment + header)
        row = lines[6].split(",")
        row[1] = repr(float(row[1]) + 1e-6)
        lines[6] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        result = replay_trajectory(path)
        assert not result.ok
        assert result.first_bad_step == 4

    @pytest.mark.parametrize("action", [7, -1])
    def test_replay_rejects_action_outside_range(self, tmp_path, action):
        cfg = build_scenario("a")
        states, actions, rewards = self._random_episode(cfg)
        path = tmp_path / "traj.csv"
        self._write(path, "a", states, actions, rewards)
        lines = path.read_text().splitlines()
        # action_2 in the row for step 4 (line 6: comment + header)
        col = lines[1].split(",").index("action_2")
        row = lines[6].split(",")
        row[col] = str(action)
        lines[6] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"step 4: agent 2 logged "
                                             f"action {action}, not an index"):
            replay_trajectory(path)

    def _logged_lines(self, tmp_path):
        cfg = build_scenario("a")
        states, actions, rewards = self._random_episode(cfg)
        path = tmp_path / "traj.csv"
        self._write(path, "a", states, actions, rewards)
        return path, path.read_text().splitlines()

    def test_replay_fails_on_nan_cell(self, tmp_path):
        path, lines = self._logged_lines(tmp_path)
        row = lines[6].split(",")  # step 4 (line 6: comment + header)
        row[1] = "nan"
        lines[6] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        result = replay_trajectory(path)
        assert not result.ok
        assert result.first_bad_step == 4
        assert result.message == "agent positions diverge at step 4 (|err|=nan)"

    def test_replay_rejects_row_after_episode_end(self, tmp_path):
        path, lines = self._logged_lines(tmp_path)
        assert lines[-1].split(",")[-4] == "1"  # the episode ended
        t = len(lines) - 2
        lines.append(",".join([str(t)] + lines[-1].split(",")[1:]))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"step {t}: row follows the "
                                             f"episode's end at step {t - 1}"):
            replay_trajectory(path)

    @pytest.mark.parametrize("kept, message", [
        (12, "step 9: log ends before the episode does"),  # steps 0..9
        (2, "trajectory has no steps"),  # the two header lines
    ])
    def test_reader_rejects_log_that_does_not_end_its_episode(
            self, tmp_path, kept, message):
        path, lines = self._logged_lines(tmp_path)
        assert len(lines) > 12 and lines[-1].split(",")[-4] == "1"
        path.write_text("\n".join(lines[:kept]) + "\n")
        with pytest.raises(ValueError, match=message):
            replay_trajectory(path)

    def test_reader_rejects_header_without_scenario(self, tmp_path):
        path, lines = self._logged_lines(tmp_path)
        lines[0] = f"# {world.TRAJECTORY_MAGIC} agents=3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="header has no scenario= field"):
            replay_trajectory(path)

    def test_reader_rejects_other_version(self, tmp_path):
        # a version that merely starts with the magic's is not v1
        path, lines = self._logged_lines(tmp_path)
        lines[0] = lines[0].replace(world.TRAJECTORY_MAGIC,
                                    world.TRAJECTORY_MAGIC + "7")
        assert lines[0] == "# hlab-trajectory v17 scenario=a agents=3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not an hlab trajectory file"):
            replay_trajectory(path)

    def test_reader_rejects_short_row(self, tmp_path):
        path, lines = self._logged_lines(tmp_path)
        lines[6] = lines[6].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="step 4: row has 21 fields, "
                                             "expected 22"):
            replay_trajectory(path)

    def test_reader_rejects_relabelled_step(self, tmp_path):
        path, lines = self._logged_lines(tmp_path)
        lines[6] = "99," + lines[6].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="step 4: row is labelled step 99"):
            replay_trajectory(path)

    def test_reader_rejects_line_csv_cannot_read(self, tmp_path):
        path, lines = self._logged_lines(tmp_path)
        lines[6] = '"' + "1" * 200_000 + '"' + lines[6][lines[6].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="trajectory line 7: field larger"):
            replay_trajectory(path)

    def test_reader_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="trajectory"):
            world.read_trajectory_csv(path)


def _assert_outcomes_equal(got, want):
    for name in ("agent_pos", "agent_vel", "box_pos", "box_vel"):
        _assert_bits_equal(getattr(got.next_state, name),
                           getattr(want.next_state, name), name)
    _assert_bits_equal(got.rewards, want.rewards, "rewards")
    for name in ("pushes", "agent_collisions", "out_of_bounds"):
        assert np.array_equal(getattr(got.contacts, name),
                              getattr(want.contacts, name)), name
    assert got.contacts.box_obstacle_collision \
        == want.contacts.box_obstacle_collision


class TestCarriedGeometry:
    """Stepped worlds carry their pair geometry to the next step_worlds
    call, and stepped states have read-only positions; neither may step
    differently from fresh positions."""

    def _stepped(self, cfg, steps=6):
        s = reset(cfg)
        for k in range(steps):
            s = step(s, np.eye(5)[[3, k % 5, 2]], cfg).next_state
        return s

    @staticmethod
    def _fresh(s):
        return WorldState(s.step_index, s.agent_pos.copy(),
                          s.agent_vel.copy(), s.box_pos.copy(),
                          s.box_vel.copy())

    @pytest.mark.parametrize("reassign", ["agent_pos", "box_pos", "both"])
    def test_reassigned_positions_step_like_a_fresh_state(self, reassign):
        cfg = build_scenario("c")
        s = self._stepped(cfg)
        joint = np.eye(5)[[3, 3, 0]]
        # put agent 1 onto the box and the box against the obstacle, so
        # stale pair geometry would show in forces and contacts
        if reassign in ("agent_pos", "both"):
            s.agent_pos = np.array(s.agent_pos)
            s.agent_pos[1] = s.box_pos + [0.1, 0.0]
        if reassign in ("box_pos", "both"):
            s.box_pos = np.array([0.0, -0.27])
        _assert_outcomes_equal(step(s, joint, cfg),
                               step(self._fresh(s), joint, cfg))

    def test_stepping_under_another_geometry_is_fresh(self):
        a, c = build_scenario("a"), build_scenario("c")
        s = self._stepped(a)
        joint = np.eye(5)[[3, 3, 3]]
        _assert_outcomes_equal(step(s, joint, c),
                               step(self._fresh(s), joint, c))

    def test_replaced_config_steps_like_a_fresh_one(self):
        c = build_scenario("c")
        s = self._stepped(c)
        # touching agent 1, so stale statics would show in forces, contacts
        # and observations
        moved = ((float(s.agent_pos[1, 0]) + 0.25,
                  float(s.agent_pos[1, 1])), 0.2)
        replaced = dataclasses.replace(c, obstacles=[moved])
        fresh = ScenarioConfig(**{**{f.name: getattr(c, f.name)
                                     for f in dataclasses.fields(c)},
                                  "obstacles": [moved]})
        joint = np.eye(5)[[3, 1, 0]]
        want = step(self._fresh(s), joint, fresh)
        _assert_outcomes_equal(step(s, joint, replaced), want)
        _assert_outcomes_equal(step(self._fresh(s), joint, replaced), want)
        _assert_bits_equal(world.observe_all(s, replaced),
                           world.observe_all(s, fresh), "observations")
        assert not np.array_equal(world.observe_all(s, replaced),
                                  world.observe_all(s, c))

    def test_carried_worlds_under_a_replaced_layout_step_fresh(self):
        c = build_scenario("c")
        worlds = world.Worlds.of([reset(c)] * 4)
        for k in range(6):
            joint = [[3, (k + r) % 5, 2] for r in range(4)]
            worlds = world.step_worlds(worlds, np.array(joint), c).worlds
        # touching world 0's agent 1, so stale statics would show in
        # forces, contacts and rewards
        moved = ((float(worlds.pos[0, 1, 0]) + 0.25,
                  float(worlds.pos[0, 1, 1])), 0.2)
        replaced = dataclasses.replace(c, obstacles=[moved])
        for carried in (worlds, worlds.take(np.array([2, 0]))):
            assert carried.pairs is not None
            indices = np.array([[3, 1, 0]] * len(carried))
            fresh = world.Worlds(carried.step_index, np.array(carried.pos),
                                 carried.vel)
            got = world.step_worlds(carried, indices, replaced)
            want = world.step_worlds(fresh, indices, replaced)
            for name in ("pos", "vel"):
                _assert_bits_equal(getattr(got.worlds, name),
                                   getattr(want.worlds, name), name)
            _assert_bits_equal(got.terms, want.terms, "reward terms")
            for name in ("pushes", "agent_collisions",
                         "box_obstacle_collision", "out_of_bounds"):
                assert np.array_equal(getattr(got.contacts, name),
                                      getattr(want.contacts, name)), name

    def test_stepped_positions_are_read_only(self):
        s = self._stepped(build_scenario("a"))
        with pytest.raises(ValueError, match="read-only"):
            s.agent_pos[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            s.box_pos[1] = 0.0

    def test_copy_is_writable_and_steps_alike(self):
        cfg = build_scenario("a")
        s = self._stepped(cfg)
        joint = np.eye(5)[[1, 2, 4]]
        c = s.copy()
        _assert_outcomes_equal(step(c, joint, cfg), step(s, joint, cfg))
        c.agent_pos[0] = [0.4, 0.4]
        c.box_pos[:] = [0.1, 0.2]
        moved = WorldState(s.step_index, np.array(c.agent_pos), s.agent_vel,
                           np.array([0.1, 0.2]), s.box_vel)
        _assert_outcomes_equal(step(c, joint, cfg), step(moved, joint, cfg))


class TestRewardProperties:
    @given(bx=st.floats(-0.9, 0.9), by=st.floats(-0.9, 0.9),
           dx=st.floats(-0.05, 0.05), dy=st.floats(-0.05, 0.05))
    @settings(max_examples=60, deadline=None)
    def test_distance_reward_sign_matches_distance_change(self, bx, by, dx,
                                                          dy):
        cfg = bare_config()
        prev = make_state(cfg.agent_starts, (bx, by))
        now = make_state(cfg.agent_starts, (bx + dx, by + dy), step_index=1)
        br = reward_components(prev, now, quiet_contacts(3), cfg)
        d_prev = math.hypot(bx, by)
        d_now = math.hypot(bx + dx, by + dy)
        assert br.r_dis[0] == pytest.approx((d_prev - d_now) * 50.0)
        assert np.all(br.r_dis == br.r_dis[0])  # shared by the team


# ---------------------------------------------------------------------------
# Scalar reference: the pair-by-pair physics that `step` and `observe` must
# reproduce bit for bit, signed zeros included.

def _ref_contact_force(delta, dist, min_dist, config):
    margin = config.contact_margin
    penetration = margin * np.logaddexp(0.0, (min_dist - dist) / margin)
    direction = delta / max(dist, 1e-9)
    return config.stiffness * penetration * direction


def _ref_body_forces(agent_pos, box_pos, config):
    n = agent_pos.shape[0]
    f_agents = np.zeros((n, 2))
    f_box = np.zeros(2)
    for i in range(n):
        for j in range(i + 1, n):
            delta = agent_pos[i] - agent_pos[j]
            f = _ref_contact_force(delta, float(np.hypot(*delta)),
                                   2 * config.agent_radius, config)
            f_agents[i] += f
            f_agents[j] -= f
    for i in range(n):
        delta = agent_pos[i] - box_pos
        f = _ref_contact_force(delta, float(np.hypot(*delta)),
                               config.agent_radius + config.box_radius, config)
        f_agents[i] += f
        f_box -= f
    for (opos, orad) in config.obstacles:
        opos = np.asarray(opos, dtype=float)
        for i in range(n):
            delta = agent_pos[i] - opos
            f_agents[i] += _ref_contact_force(
                delta, float(np.hypot(*delta)), config.agent_radius + orad,
                config)
        delta = box_pos - opos
        f_box += _ref_contact_force(delta, float(np.hypot(*delta)),
                                    config.box_radius + orad, config)
    return f_agents, f_box


def _ref_detect_contacts(state, out_of_bounds, config):
    n = config.n_agents
    pushes = np.zeros(n, dtype=bool)
    agent_collisions = np.zeros(n, dtype=bool)
    for i in range(n):
        delta = state.box_pos - state.agent_pos[i]
        dist = float(np.hypot(*delta))
        if dist < config.agent_radius + config.box_radius:
            if float(np.dot(state.agent_vel[i], delta)) > 0.0:
                pushes[i] = True
        for j in range(i + 1, n):
            d2 = state.agent_pos[i] - state.agent_pos[j]
            if float(np.hypot(*d2)) < 2 * config.agent_radius:
                agent_collisions[i] = True
                agent_collisions[j] = True
    box_hit = False
    for (opos, orad) in config.obstacles:
        delta = state.box_pos - np.asarray(opos, dtype=float)
        if float(np.hypot(*delta)) < config.box_radius + orad:
            box_hit = True
            break
    return ContactReport(pushes, agent_collisions, box_hit, out_of_bounds)


def _ref_box_target_dist(box_pos, config):
    tpos = np.asarray(config.target[0], dtype=float)
    return float(np.hypot(*(box_pos - tpos)))


def _ref_step(state, indices, config):
    """(next_state, rewards, breakdown, contacts) of one scalar-path step."""
    f_agents, f_box = _ref_body_forces(state.agent_pos, state.box_pos, config)
    f_agents = f_agents + config.force * world.ACTION_DIRECTIONS[indices]
    agent_vel = state.agent_vel * (1.0 - config.damping) \
        + (f_agents / config.agent_mass) * config.dt
    box_vel = state.box_vel * (1.0 - config.damping) \
        + (f_box / config.box_mass) * config.dt
    nxt = WorldState(state.step_index + 1,
                     state.agent_pos + agent_vel * config.dt, agent_vel,
                     state.box_pos + box_vel * config.dt, box_vel)
    oob = np.any(np.abs(nxt.agent_pos) > config.world_bound, axis=1)
    contacts = _ref_detect_contacts(nxt, oob, config)
    n = config.n_agents
    d_prev = _ref_box_target_dist(state.box_pos, config)
    d_now = _ref_box_target_dist(nxt.box_pos, config)
    goal = d_now < config.goal_distance
    collided = contacts.agent_collisions | contacts.box_obstacle_collision
    breakdown = world.RewardBreakdown(
        np.full(n, (d_prev - d_now) * 50.0),
        np.where(contacts.pushes, 50.0, 0.0),
        np.full(n, 1000.0 if goal else 0.0),
        np.where(collided, -50.0, 0.0),
        np.where(contacts.out_of_bounds, -50.0, 0.0))
    if goal:
        nxt.done, nxt.done_reason = True, "goal"
    elif nxt.step_index >= config.max_steps:
        nxt.done, nxt.done_reason = True, "timeout"
    return nxt, breakdown.totals(), breakdown, contacts


def _ref_observe(state, i, config):
    layout = config.layout(i)
    obs = np.empty(layout.total_dim)
    pos = state.agent_pos[i]
    obs[layout.self_pos] = pos
    obs[layout.self_vel] = state.agent_vel[i]
    for k, (opos, _r) in enumerate(config.obstacles):
        obs[layout.obstacle_rel(k)] = np.asarray(opos, dtype=float) - pos
    tpos = np.asarray(config.target[0], dtype=float)
    obs[layout.self_to_target] = tpos - pos
    obs[layout.box_to_target] = tpos - state.box_pos
    for j in layout.teammates:
        obs[layout.teammate_pos(j)] = state.agent_pos[j]
        obs[layout.teammate_vel(j)] = state.agent_vel[j]
    return obs


def _assert_bits_equal(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), what


@pytest.mark.parametrize("scenario_id", world.SCENARIO_IDS)
def test_step_matches_scalar_reference(scenario_id):
    cfg = build_scenario(scenario_id)
    rng = np.random.default_rng(2024)
    seen = np.zeros(4, dtype=int)
    for episode in range(100):
        # agent 0 starts under the box; leaning its policy toward "up" drives
        # the box into the obstacles now and then
        lean = np.array([0.1, 0.1, 0.1, 0.6, 0.1]) if episode % 2 else None
        s = reset(cfg)
        while not s.done:
            indices = rng.integers(0, 5, size=cfg.n_agents)
            if lean is not None:
                indices[0] = rng.choice(5, p=lean)
            out = step(s, np.eye(5)[indices], cfg)
            nxt, rewards, breakdown, contacts = _ref_step(s, indices, cfg)
            got = out.next_state
            where = f"episode {episode} step {s.step_index}"
            for name in ("agent_pos", "agent_vel", "box_pos", "box_vel"):
                _assert_bits_equal(getattr(got, name), getattr(nxt, name),
                                   f"{name}, {where}")
            _assert_bits_equal(out.rewards, rewards, f"rewards, {where}")
            for name in ("r_dis", "r_push", "r_goal", "r_col", "r_bound"):
                _assert_bits_equal(getattr(out.breakdown, name),
                                   getattr(breakdown, name), f"{name}, {where}")
            for name in ("pushes", "agent_collisions", "out_of_bounds"):
                assert np.array_equal(getattr(out.contacts, name),
                                      getattr(contacts, name)), where
            assert out.contacts.box_obstacle_collision \
                == contacts.box_obstacle_collision, where
            assert (got.step_index, got.done, got.done_reason) \
                == (nxt.step_index, nxt.done, nxt.done_reason), where
            assert out.done == nxt.done
            for i in range(cfg.n_agents):
                _assert_bits_equal(observe(got, i, cfg),
                                   _ref_observe(got, i, cfg),
                                   f"observe({i}), {where}")
            seen += [contacts.pushes.any(), contacts.agent_collisions.any(),
                     contacts.box_obstacle_collision,
                     contacts.out_of_bounds.any()]
            s = got
    # every contact flag fired, so the comparison covered it
    assert np.all(seen > 0), seen


@pytest.mark.parametrize("scenario_id", world.SCENARIO_IDS)
def test_observe_all_rows_equal_observe(scenario_id):
    cfg = build_scenario(scenario_id)
    rng = np.random.default_rng(7)
    s = reset(cfg)
    while not s.done:
        team = world.observe_all(s, cfg)
        assert team.shape == (cfg.n_agents, cfg.layout(0).total_dim)
        for i in range(cfg.n_agents):
            _assert_bits_equal(team[i], observe(s, i, cfg),
                               f"agent {i}, step {s.step_index}")
        s = step(s, np.eye(5)[rng.integers(0, 5, size=cfg.n_agents)],
                 cfg).next_state


@pytest.mark.parametrize("row", [
    [0.5, 0.5, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 0, 0, 0],
    [np.nan, 0, 0, 0, 0], [1, 0, 0, 0, -1], [2, 0, 0, 0, 0],
])
def test_step_rejects_malformed_action_row(row):
    cfg = build_scenario("a")
    joint = np.eye(5)[[0, 1, 2]]
    joint[1] = row
    with pytest.raises(ValueError, match="one-hot"):
        step(reset(cfg), joint, cfg)


def test_step_accepts_negative_zero_in_one_hot():
    cfg = build_scenario("a")
    joint = np.eye(5)[[0, 1, 2]]
    signed = joint.copy()
    signed[signed == 0.0] = -0.0
    a = step(reset(cfg), joint, cfg)
    b = step(reset(cfg), signed, cfg)
    _assert_bits_equal(b.next_state.agent_pos, a.next_state.agent_pos,
                       "agent_pos")
    _assert_bits_equal(b.rewards, a.rewards, "rewards")


def _random_worlds(cfg, rng, k):
    """k states that crowd the events: agents around the box, the box near
    an obstacle or the target, some at rest on the start positions, some a
    step before their timeout."""
    n = cfg.n_agents
    (tx, ty), _tr = cfg.target
    states = []
    for j in range(k):
        if j % 6 == 0:
            s = reset(cfg)
            s.step_index = int(rng.integers(0, cfg.max_steps))
            states.append(s)
            continue
        kind = j % 3
        if kind == 0:  # the box just outside goal reach
            angle = rng.uniform(0, 2 * np.pi)
            box = np.array([tx, ty]) + (cfg.goal_distance + rng.uniform(
                0.0, 0.02)) * np.array([np.cos(angle), np.sin(angle)])
        elif kind == 1:  # the box touching an obstacle
            (ox, oy), orad = cfg.obstacles[int(rng.integers(cfg.n_obstacles))]
            angle = rng.uniform(0, 2 * np.pi)
            box = np.array([ox, oy]) + (orad + cfg.box_radius + rng.uniform(
                -0.01, 0.01)) * np.array([np.cos(angle), np.sin(angle)])
        else:
            box = rng.uniform(-1.05, 1.05, size=2)
        agents = box + rng.normal(scale=0.1, size=(n, 2))
        states.append(make_state(
            agents, box, agent_vel=rng.normal(scale=0.3, size=(n, 2)),
            box_vel=rng.normal(scale=0.2, size=2),
            step_index=int(rng.choice([0, cfg.max_steps - 2,
                                       cfg.max_steps - 1]))))
    return states


@pytest.mark.parametrize("scenario_id", world.SCENARIO_IDS)
def test_worlds_step_each_world_as_alone(scenario_id):
    """K worlds stepped together, some ending and dropping out while the
    rest go on, each equal to itself stepped alone, signed zeros included."""
    cfg = build_scenario(scenario_id)
    rng = np.random.default_rng(11)
    solo = _random_worlds(cfg, rng, 48)
    worlds = world.Worlds.of(solo)
    seen = dict.fromkeys(("push", "collision", "box_obstacle", "bounds",
                          "goal", "timeout", "still"), 0)
    while solo:
        indices = rng.integers(0, 5, size=(len(solo), cfg.n_agents))
        obs = world.observe_worlds(worlds, cfg)
        out = world.step_worlds(worlds, indices, cfg)
        alone = []
        for r, s in enumerate(solo):
            _assert_bits_equal(obs[r], world.observe_all(s, cfg),
                               f"observations, world {r}")
            want = step(s, np.eye(5)[indices[r]], cfg)
            got = out.state(r)
            where = f"world {r}, step {s.step_index}"
            for name in ("agent_pos", "agent_vel", "box_pos", "box_vel"):
                _assert_bits_equal(getattr(got, name),
                                   getattr(want.next_state, name),
                                   f"{name}, {where}")
            _assert_bits_equal(out.rewards[r], want.rewards, where)
            _assert_bits_equal(out.terms[:, r],
                               np.stack(dataclasses.astuple(want.breakdown)),
                               where)
            for name in ("pushes", "agent_collisions", "out_of_bounds"):
                assert np.array_equal(getattr(out.contacts, name)[r],
                                      getattr(want.contacts, name)), where
            assert out.contacts.box_obstacle_collision[r] \
                == want.contacts.box_obstacle_collision, where
            assert (got.step_index, got.done, got.done_reason) == (
                want.next_state.step_index, want.next_state.done,
                want.next_state.done_reason), where
            assert out.goal[r] == (got.done_reason == "goal")
            c = want.contacts
            seen["push"] += c.pushes.any()
            seen["collision"] += c.agent_collisions.any()
            seen["box_obstacle"] += c.box_obstacle_collision
            seen["bounds"] += c.out_of_bounds.any()
            seen["goal"] += got.done_reason == "goal"
            seen["timeout"] += got.done_reason == "timeout"
            alone.append(want.next_state)
        seen["still"] += bool(out.done.any() and not out.done.all())
        keep = ~out.done
        worlds = out.worlds.take(keep)
        solo = [s for s, live in zip(alone, keep) if live]
    # every event fired, and some iterations stepped a batch in which
    # worlds ended while others went on
    assert all(v > 0 for v in seen.values()), seen

