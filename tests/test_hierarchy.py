"""Dependency analysis tests: worked arithmetic, oracles, segmentation."""
import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FD_H, MISFITS, forward_mode_jacobians, misfit_team, rel_error)
from hlab import hierarchy, nn, world
from hlab.hierarchy import (
    DependencyTrace,
    HierarchyReport,
    PATTERN_ALTERNATING,
    PATTERN_PERSISTENT,
    TIE_TOL,
    analyze_rollout,
    dependency_values,
    identify_hierarchy,
    pairwise_sensitivity,
    report_to_json_dict,
    segment_phases,
    sensitivity_matrix,
    trace_columns,
    write_trace_csv,
)
from hlab.maddpg import (
    IncompatibilityError, TrainConfig, build_agents, load_checkpoint, rollout,
    save_checkpoint, train)


WORKED = np.array([
    [0.0, 0.2, 0.1],
    [0.5, 0.0, 0.3],
    [0.4, 0.6, 0.0],
])


def trace_from_leaders(leaders, n_agents=3) -> DependencyTrace:
    """Synthetic trace whose per-step argmax follows the given sequence."""
    leaders = np.asarray(leaders, dtype=np.int64)
    t = len(leaders)
    deps = np.full((t, n_agents), -1.0)
    deps[np.arange(t), leaders] = float(n_agents - 1)
    return DependencyTrace(
        scenario_id="a",
        dependencies=deps,
        sensitivities=np.zeros((t, n_agents, n_agents)),
        leaders=leaders,
        ties=np.zeros(t, dtype=bool),
    )


class TestDependencyValues:
    def test_worked_example_is_exact(self):
        d = dependency_values(WORKED)
        assert d.tolist() == [0.6, 0.0, -0.6]

    def test_symmetric_matrix_gives_zero(self, rng):
        m = rng.random((4, 4))
        m = m + m.T
        np.fill_diagonal(m, 0.0)
        assert dependency_values(m).tolist() == [0.0] * 4

    def test_stack_matches_per_step_calls(self, rng):
        m = rng.random((2, 7, 4, 4))
        m[..., np.arange(4), np.arange(4)] = 0.0
        m[0, 0] = 0.0  # a flat step, with exact zeros
        d = dependency_values(m)
        assert d.shape == (2, 7, 4)
        for idx in np.ndindex(2, 7):
            assert d[idx].tobytes() == dependency_values(m[idx]).tobytes()
        assert dependency_values(np.zeros((0, 3, 3))).shape == (0, 3)

    @given(st.integers(2, 6), st.integers(0, 10 ** 9))
    @settings(max_examples=80, deadline=None)
    def test_zero_sum_property(self, n, seed):
        m = np.random.default_rng(seed).random((n, n)) * 10.0
        np.fill_diagonal(m, 0.0)
        assert abs(float(dependency_values(m).sum())) < 1e-9

    def test_scaling_equivariance(self, rng):
        m = rng.random((3, 3))
        np.fill_diagonal(m, 0.0)
        d1 = dependency_values(m)
        d2 = dependency_values(2.5 * m)
        assert np.allclose(d2, 2.5 * d1, atol=1e-12)
        assert d1.argmax() == d2.argmax()

    def test_permutation_equivariance(self, rng):
        m = rng.random((3, 3))
        np.fill_diagonal(m, 0.0)
        perm = np.array([2, 0, 1])
        d = dependency_values(m)
        d_perm = dependency_values(m[np.ix_(perm, perm)])
        assert np.allclose(d_perm, d[perm], atol=1e-12)


class TestIdentifyHierarchy:
    def test_strict_max_leader(self):
        call = identify_hierarchy(np.array([0.6, 0.0, -0.6]))
        assert call.leader == 0
        assert call.followers == (1, 2)
        assert not call.tie

    def test_flat_vector_means_no_hierarchy(self):
        call = identify_hierarchy(np.zeros(3))
        assert call.leader is None
        assert call.followers == (0, 1, 2)
        assert not call.tie

    def test_tie_at_top_flagged_lowest_index_wins(self):
        call = identify_hierarchy(np.array([0.5, 0.5, -1.0]))
        assert call.leader == 0
        assert call.tie
        assert call.followers == (1, 2)

    def test_near_equal_within_tol_is_flat(self):
        call = identify_hierarchy(np.array([1.0, 1.0 + 1e-14, 1.0 - 1e-14]))
        assert call.leader is None

    def test_rejects_scalars(self):
        with pytest.raises(ValueError):
            identify_hierarchy(np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            identify_hierarchy(np.array([0.5, bad, -0.5]))

    def test_stack_matches_per_row_calls(self, rng):
        t = TIE_TOL
        deps = np.concatenate([
            np.array([[0.6, 0.0, -0.6],  # strict leader
                      [0.5, 0.5, -1.0],  # exact tie
                      [1.0, 1.0 + 0.5 * t, -2.0],  # tie within TIE_TOL
                      [1.0, 1.0 + 2.0 * t, -2.0],  # just outside it
                      [0.0, 0.0, 0.0],  # flat
                      [0.0, 0.5 * t, -0.5 * t],  # flat within TIE_TOL
                      [-1.0, -1.0, 2.0]]),
            rng.normal(size=(20, 3))])
        leaders, ties, flat = hierarchy._leaders_and_ties(deps)
        for d, leader, tie, is_flat in zip(deps, leaders, ties, flat):
            call = identify_hierarchy(d)
            assert leader == (call.leader or 0)
            assert tie == call.tie
            assert is_flat == (call.leader is None)
        assert ties[1:4].tolist() == [True, True, False]
        assert flat[4:6].all() and not flat[:4].any()


class TestPairwiseSensitivity:
    def test_zero_weights_into_teammate_slots(self, rng):
        layout = world.build_scenario("a").layout(0)
        actor = nn.init_params(layout.total_dim, [6], 5, "softmax", rng)
        cols = layout.teammate_block(1)
        actor.weights[0][:, cols] = 0.0
        obs = rng.normal(size=layout.total_dim)
        assert pairwise_sensitivity(actor, obs, layout, 1) == 0.0
        assert pairwise_sensitivity(actor, obs, layout, 2) > 0.0

    def test_single_layer_closed_form(self):
        # softmax output p has Jacobian (diag(p) - p p^T) W over the inputs
        layout = world.build_scenario("a").layout(0)
        rng = np.random.default_rng(5)
        w = rng.normal(size=(5, layout.total_dim)) * 0.3
        actor = nn.MlpParams([w], [np.zeros(5)], "softmax")
        obs = rng.normal(size=layout.total_dim)
        p = nn.forward(actor, obs)
        jac = (np.diag(p) - np.outer(p, p)) @ w
        for j in (1, 2):
            want = float(np.linalg.norm(jac[:, layout.teammate_block(j)]))
            got = pairwise_sensitivity(actor, obs, layout, j)
            assert got == pytest.approx(want, abs=1e-14)

    def test_matches_finite_differences(self, rng):
        layout = world.build_scenario("c").layout(2)
        for _ in range(5):
            actor = nn.init_params(layout.total_dim, [6, 5], 5, "softmax",
                                   rng)
            obs = rng.normal(size=layout.total_dim)
            cols = list(layout.teammate_block(0))
            fd = np.zeros((5, 4))
            for c, col in enumerate(cols):
                hi, lo = obs.copy(), obs.copy()
                hi[col] += FD_H
                lo[col] -= FD_H
                fd[:, c] = (nn.forward(actor, hi) - nn.forward(actor, lo)) \
                    / (2 * FD_H)
            want = float(np.linalg.norm(fd))
            got = pairwise_sensitivity(actor, obs, layout, 0)
            if want > 1e-8:
                assert abs(got - want) / want < 1e-4

    def test_rejects_self_and_bad_shape(self, rng):
        layout = world.build_scenario("a").layout(1)
        actor = nn.init_params(layout.total_dim, [4], 5, "softmax", rng)
        with pytest.raises(ValueError, match="own state"):
            pairwise_sensitivity(actor, np.zeros(layout.total_dim), layout, 1)
        with pytest.raises(ValueError, match="does not match"):
            pairwise_sensitivity(actor, np.zeros(7), layout, 0)


class TestSensitivityMatrixOp:
    def _actors(self, scenario, rng, hidden=(6,)):
        return [nn.init_params(scenario.layout(i).total_dim, hidden, 5,
                               "softmax", rng)
                for i in range(scenario.n_agents)]

    def test_entries_match_pairwise_calls(self, rng):
        sc = world.build_scenario("a")
        actors = self._actors(sc, rng)
        joint = [rng.normal(size=sc.layout(i).total_dim) for i in range(3)]
        m = sensitivity_matrix(actors, joint, sc)
        assert m.shape == (3, 3)
        assert np.all(np.diag(m) == 0.0)
        for i in range(3):
            for j in range(3):
                if i != j:
                    want = pairwise_sensitivity(actors[i], joint[i],
                                                sc.layout(i), j)
                    assert m[i, j] == want

    def test_wrong_actor_count(self, rng):
        sc = world.build_scenario("a")
        with pytest.raises(ValueError, match="actors"):
            sensitivity_matrix(self._actors(sc, rng)[:2],
                               [np.zeros(20)] * 3, sc)


@pytest.fixture(scope="module")
def mini_run():
    cfg = TrainConfig(scenario_id="a", max_episodes=3, max_episode_length=12,
                      learning_start_step=12, learning_frequency=6,
                      batch_size=4, memory_size=64, hidden=(8,), seed=3)
    res = train(cfg)
    traj = rollout(res.nets, res.scenario)
    return res, traj


class TestAnalyzeRollout:
    def test_shapes_and_zero_sum(self, mini_run):
        res, traj = mini_run
        trace = analyze_rollout(traj, res.nets, res.scenario, seed=3,
                                checkpoint="final")
        assert trace.n_steps == traj.n_steps
        assert trace.dependencies.shape == (traj.n_steps, 3)
        assert trace.sensitivities.shape == (traj.n_steps, 3, 3)
        assert trace.scenario_id == "a"
        assert trace.seed == 3 and trace.checkpoint == "final"
        for t in range(trace.n_steps):
            assert abs(float(trace.dependencies[t].sum())) < 1e-9
            assert np.all(trace.sensitivities[t] >= 0.0)
            assert np.all(np.diag(trace.sensitivities[t]) == 0.0)
            assert trace.leaders[t] == int(np.argmax(trace.dependencies[t]))

    def test_accepts_bare_actor_list(self, mini_run):
        res, traj = mini_run
        a = analyze_rollout(traj, [x.actor for x in res.nets], res.scenario)
        b = analyze_rollout(traj, res.nets, res.scenario)
        assert np.array_equal(a.dependencies, b.dependencies)

    def test_incompatible_actor_dims_rejected(self, mini_run):
        res, traj = mini_run
        sc_c = world.build_scenario("c")  # 18-dim obs vs trained 20-dim
        with pytest.raises(ValueError, match="expects"):
            analyze_rollout(traj, res.nets, sc_c)

    def test_wrong_actor_count_rejected(self, mini_run):
        res, traj = mini_run
        with pytest.raises(ValueError, match="2 actors for 3 agents"):
            analyze_rollout(traj, res.nets[:2], res.scenario)

    @pytest.mark.parametrize("case, agent", MISFITS)
    def test_misfit_team_rejected(self, mini_run, case, agent):
        res, traj = mini_run
        with pytest.raises(IncompatibilityError,
                           match=f"agent {agent} actor"):
            analyze_rollout(traj, misfit_team(case, res.scenario),
                            res.scenario)

    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    @pytest.mark.parametrize("scenario_id", ["a", "b", "c"])
    def test_matches_per_step_oracle(self, scenario_id, epsilon):
        # reference-width actors; one sensitivity_matrix (one
        # input_jacobian per agent) per step is the oracle
        sc = world.build_scenario(scenario_id)
        nets = build_agents(sc, TrainConfig(scenario_id=scenario_id,
                                            seed=11))
        traj = rollout(nets, sc, epsilon=epsilon,
                       rng=np.random.default_rng(4))
        trace = analyze_rollout(traj, nets, sc)
        actors = [a.actor for a in nets]
        for t in range(traj.n_steps):
            m = sensitivity_matrix(actors, traj.observations[t], sc)
            d = dependency_values(m)
            call = identify_hierarchy(d)
            assert np.array_equal(trace.sensitivities[t], m)
            assert np.array_equal(trace.dependencies[t], d)
            assert trace.leaders[t] == (call.leader or 0)
            assert trace.ties[t] == call.tie

    @pytest.mark.parametrize("scenario_id", ["a", "b", "c"])
    def test_hierarchy_as_under_forward_accumulation(self, scenario_id,
                                                      tmp_path, monkeypatch):
        # a seeded checkpoint, made as the analyze benchmark makes one; the
        # reverse-mode Jacobians move D by rounding only, which must leave
        # every leader, tie, segment and the pattern where it was
        sc = world.build_scenario(scenario_id)
        save_checkpoint(build_agents(sc, TrainConfig(scenario_id=scenario_id,
                                                     seed=5)), tmp_path)
        nets = load_checkpoint(tmp_path)
        traj = rollout(nets, sc)
        got = analyze_rollout(traj, nets, sc)
        monkeypatch.setattr(hierarchy, "input_jacobians",
                            forward_mode_jacobians)
        want = analyze_rollout(traj, nets, sc)
        assert np.allclose(got.sensitivities, want.sensitivities,
                           rtol=1e-12, atol=0.0)
        assert np.array_equal(got.leaders, want.leaders)
        assert np.array_equal(got.ties, want.ties)
        a, b = segment_phases(got), segment_phases(want)
        assert a.pattern == b.pattern and a.tie_steps == b.tie_steps
        assert [(s.start, s.end, s.leader) for s in a.segments] == \
            [(s.start, s.end, s.leader) for s in b.segments]

    @pytest.mark.parametrize("scenario_id", ["a", "b", "c"])
    def test_live_nets_analyse_as_their_checkpoint(self, scenario_id,
                                                   tmp_path):
        # live networks are float32, loaded ones float64; both act and are
        # analysed through the same exact widening
        cfg = TrainConfig(scenario_id=scenario_id, max_episodes=4,
                          max_episode_length=12, learning_start_step=12,
                          learning_frequency=6, batch_size=8,
                          memory_size=64, hidden=(16, 8), seed=4)
        live = train(cfg).nets
        save_checkpoint(live, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        assert live[0].actor.weights[0].dtype == np.float32
        assert loaded[0].actor.weights[0].dtype == np.float64
        sc = world.build_scenario(scenario_id)
        for name, nets in (("live", live), ("loaded", loaded)):
            traj = rollout(nets, sc)
            traj.write_csv(tmp_path / f"{name}_trajectory.csv")
            write_trace_csv(analyze_rollout(traj, nets, sc),
                            tmp_path / f"{name}_trace.csv")
        for kind in ("trajectory", "trace"):
            assert (tmp_path / f"live_{kind}.csv").read_bytes() \
                == (tmp_path / f"loaded_{kind}.csv").read_bytes(), kind


class TestSegmentPhases:
    def test_three_phase_example(self):
        leaders = [0] * 12 + [1] * 26 + [0] * 12
        report = segment_phases(trace_from_leaders(leaders))
        assert [(s.start, s.end, s.leader) for s in report.segments] == \
            [(0, 12, 0), (12, 38, 1), (38, 50, 0)]
        assert report.pattern == PATTERN_ALTERNATING
        assert report.leader_sequence == [0, 1, 0]

    def test_constant_leader_is_persistent(self):
        report = segment_phases(trace_from_leaders([2] * 30))
        assert report.pattern == PATTERN_PERSISTENT
        assert [(s.start, s.end, s.leader) for s in report.segments] == \
            [(0, 30, 2)]

    def test_single_step_spike_absorbed(self):
        leaders = [0] * 10 + [1] + [0] * 10
        report = segment_phases(trace_from_leaders(leaders),
                                min_segment_length=3)
        assert [(s.start, s.end, s.leader) for s in report.segments] == \
            [(0, 21, 0)]
        assert report.pattern == PATTERN_PERSISTENT

    def test_short_opening_run_folds_forward(self):
        leaders = [1] * 2 + [0] * 20
        report = segment_phases(trace_from_leaders(leaders))
        assert [(s.start, s.end, s.leader) for s in report.segments] == \
            [(0, 22, 0)]

    def test_lone_short_run_survives(self):
        report = segment_phases(trace_from_leaders([1, 1]))
        assert [(s.start, s.end, s.leader) for s in report.segments] == \
            [(0, 2, 1)]

    def test_segments_partition_the_trace(self, rng):
        for _ in range(20):
            leaders = rng.integers(0, 3, size=int(rng.integers(1, 60)))
            report = segment_phases(trace_from_leaders(leaders),
                                    min_segment_length=int(rng.integers(0, 5)))
            segs = report.segments
            assert segs[0].start == 0
            assert segs[-1].end == len(leaders)
            for a, b in zip(segs, segs[1:]):
                assert a.end == b.start
                assert a.leader != b.leader

    def test_mean_dependency_per_segment(self):
        trace = trace_from_leaders([0] * 4 + [1] * 4)
        report = segment_phases(trace, min_segment_length=2)
        want0 = trace.dependencies[:4].mean(axis=0)
        assert np.allclose(report.segments[0].mean_dependency, want0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            segment_phases(trace_from_leaders([]))


class TestTraceFiles:
    def test_columns_layout(self):
        assert trace_columns(3) == [
            "step", "D_1", "D_2", "D_3",
            "grad_1_2", "grad_1_3", "grad_2_1", "grad_2_3",
            "grad_3_1", "grad_3_2",
        ]

    def test_csv_round_trip(self, tmp_path, mini_run):
        res, traj = mini_run
        trace = analyze_rollout(traj, res.nets, res.scenario)
        # two near-tie rows, whose last digits must survive the file
        near = np.array([[1.0, 1.0 + 5e-13, -2.0 - 5e-13],
                         [0.0, 1e-13, -1e-13]])
        deps = np.concatenate([trace.dependencies, near])
        sens = np.concatenate([trace.sensitivities, np.zeros((2, 3, 3))])
        trace = DependencyTrace(
            scenario_id=trace.scenario_id, dependencies=deps,
            sensitivities=sens,
            leaders=np.concatenate([trace.leaders, [0, 0]]),
            ties=np.concatenate([trace.ties, [True, False]]))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        with open(path, newline="") as fp:
            reader = csv.DictReader(fp)
            assert reader.fieldnames == trace_columns(3)
            rows = list(reader)
        assert [int(r["step"]) for r in rows] == list(range(len(deps)))
        for i in range(3):
            got = np.array([float(r[f"D_{i + 1}"]) for r in rows])
            assert got.tobytes() == deps[:, i].tobytes(), i
            for j in range(3):
                if i != j:
                    got = np.array([float(r[f"grad_{i + 1}_{j + 1}"])
                                    for r in rows])
                    assert got.tobytes() == sens[:, i, j].tobytes(), (i, j)

    def test_report_json_uses_one_based_agent_labels(self, tmp_path):
        report = segment_phases(trace_from_leaders([0] * 5 + [2] * 5),
                                min_segment_length=2)
        doc = report_to_json_dict(report)
        assert doc["pattern"] == PATTERN_ALTERNATING
        assert doc["leader_sequence"] == [1, 3]
        assert doc["segments"][0]["leader"] == 1
        assert doc["segments"][1]["leader"] == 3
        assert doc["n_steps"] == 10
        path = tmp_path / "report.json"
        hierarchy.write_report_json(report, path)
        assert json.loads(path.read_text()) == doc
