"""Trainer tests. Update-rule gradients are checked against finite
differences through the full actor-critic chain."""
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import FD_H, min_preactivation_gap, rel_error
from hlab import maddpg, nn, world
from hlab.maddpg import (
    AgentNets,
    Batch,
    ReplayBuffer,
    TrainConfig,
    Transition,
    actor_update,
    build_agents,
    critic_update,
    epsilon_for_episode,
    rollout,
    select_action,
    sync_targets,
    td_target,
    trailing_mean,
    train,
)
from hlab.maddpg import _joint_input


def tiny_config(**kw) -> TrainConfig:
    base = dict(scenario_id="a", max_episodes=3, max_episode_length=10,
                learning_start_step=12, learning_frequency=6, batch_size=4,
                memory_size=64, hidden=(8,), seed=7)
    base.update(kw)
    return TrainConfig(**base)


def synthetic_world(rng, n_agents=2, obs_dim=4, hidden=(5, 4),
                    batch=3, algo="adam", lr=0.01):
    """Small agent population over made-up observations."""
    joint = n_agents * obs_dim + n_agents * world.N_ACTIONS
    nets = []
    for _ in range(n_agents):
        actor = nn.init_params(obs_dim, hidden, world.N_ACTIONS, "softmax",
                               rng)
        critic = nn.init_params(joint, hidden, 1, "linear", rng)
        nets.append(AgentNets(
            actor=actor, critic=critic,
            target_actor=actor.copy(), target_critic=critic.copy(),
            actor_opt=nn.OptimizerState.for_params(actor, lr, algo=algo),
            critic_opt=nn.OptimizerState.for_params(critic, lr, algo=algo)))
    return nets, random_batch(rng, batch, n_agents, obs_dim)


def random_batch(rng, batch, n_agents, obs_dim):
    return Batch(
        obs=rng.normal(size=(batch, n_agents, obs_dim)),
        action_indices=rng.integers(0, 5, size=(batch, n_agents)),
        rewards=rng.normal(size=(batch, n_agents)),
        next_obs=rng.normal(size=(batch, n_agents, obs_dim)),
        terminal=(rng.random(batch) < 0.3).astype(float),
    )


def _chain_gap(nets, agent, batch):
    """Smallest |relu pre-activation| across every forward in one update."""
    gaps = []
    for j, a in enumerate(nets):
        gaps.append(min_preactivation_gap(a.actor, batch.obs[:, j]))
        gaps.append(min_preactivation_gap(a.target_actor,
                                          batch.next_obs[:, j]))
    probs = np.stack([nn.forward(nets[j].actor, batch.obs[:, j])
                      for j in range(len(nets))], axis=1)
    ones = world.ACTION_ONE_HOTS[batch.action_indices]
    own = ones.copy()
    own[:, agent] = probs[:, agent]
    for x in (_joint_input(batch.obs, ones), _joint_input(batch.obs, own)):
        gaps.append(min_preactivation_gap(nets[agent].critic, x))
    nxt = np.stack([nn.forward(nets[j].target_actor, batch.next_obs[:, j])
                    for j in range(len(nets))], axis=1)
    gaps.append(min_preactivation_gap(nets[agent].target_critic,
                                      _joint_input(batch.next_obs, nxt)))
    return min(gaps)


def smooth_synthetic(rng, agent=0, **kw):
    # redraw until no relu sits within reach of the FD perturbation
    for _ in range(60):
        nets, batch = synthetic_world(rng, **kw)
        if _chain_gap(nets, agent, batch) > 1e-3:
            return nets, batch
    raise AssertionError("could not draw a kink-free case")


class TestConfig:
    def test_defaults_and_validate(self):
        cfg = TrainConfig()
        cfg.validate()
        assert cfg.max_episodes == 20000
        assert cfg.max_episode_length == 50
        assert cfg.learning_start_step == 50000
        assert cfg.learning_frequency == 100
        assert cfg.batch_size == 1256
        assert cfg.memory_size == 100000
        assert cfg.gamma == 0.97
        assert cfg.tau == 0.01
        assert cfg.lr_actor == 0.01 and cfg.lr_critic == 0.01
        assert cfg.max_grad_norm == 0.5
        assert cfg.hidden == (128, 64)

    @pytest.mark.parametrize("bad", [
        dict(gamma=1.5), dict(tau=0.0), dict(batch_size=0),
        dict(memory_size=3, batch_size=4), dict(max_episodes=0),
        dict(epsilon_final=0.9, epsilon_start=0.5),
        dict(actor_logit_reg=-1.0), dict(actor_logit_reg=float("nan")),
        dict(actor_logit_reg=float("inf")),
        dict(lr_actor=0.0), dict(lr_actor=float("nan")),
        dict(lr_actor=float("inf")), dict(lr_critic=-0.5),
        dict(lr_critic=float("nan")), dict(max_grad_norm=-0.1),
        dict(max_grad_norm=float("nan")), dict(max_grad_norm=float("inf")),
        dict(epsilon_fraction=-1.0), dict(epsilon_fraction=float("nan")),
        dict(epsilon_fraction=float("inf")), dict(seed=-1),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()

    def test_json_round_trip(self):
        cfg = tiny_config(gamma=0.9, hidden=(16, 8))
        doc = json.loads(json.dumps(cfg.to_json_dict()))
        assert TrainConfig.from_json_dict(doc) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            TrainConfig.from_json_dict({"max_episodes": 5, "typo": 1})

    @pytest.mark.parametrize("doc", [3, [], "a"])
    def test_non_object_rejected(self, doc):
        with pytest.raises(ValueError, match="JSON object"):
            TrainConfig.from_json_dict(doc)

    @pytest.mark.parametrize("hidden", [5, ["a"], "64", [64, 1.5]])
    def test_hidden_must_be_integers(self, hidden):
        with pytest.raises(ValueError, match="hidden"):
            TrainConfig.from_json_dict({"hidden": hidden})

    def test_json_key_order(self):
        # run manifests list the config in this order
        assert list(TrainConfig().to_json_dict()) == [
            "scenario_id", "max_episodes", "max_episode_length",
            "learning_start_step", "learning_frequency", "batch_size",
            "memory_size", "gamma", "tau", "lr_actor", "lr_critic",
            "max_grad_norm", "actor_logit_reg", "epsilon_start",
            "epsilon_final", "epsilon_fraction", "seed", "hidden"]


class TestEpsilonSchedule:
    def test_endpoints_and_floor(self):
        cfg = TrainConfig(max_episodes=1000)
        assert epsilon_for_episode(0, cfg) == 1.0
        assert epsilon_for_episode(250, cfg) == pytest.approx(0.05)
        assert epsilon_for_episode(999, cfg) == pytest.approx(0.05)

    def test_linear_midpoint(self):
        cfg = TrainConfig(max_episodes=1000)
        assert epsilon_for_episode(125, cfg) == pytest.approx(0.525)


class TestReplayBuffer:
    def _tr(self, tag, n=2, od=3):
        return Transition(
            obs=np.full((n, od), float(tag)),
            action_indices=np.full(n, tag % 5, dtype=np.int64),
            rewards=np.full(n, float(tag)),
            next_obs=np.zeros((n, od)),
            terminal=False,
        )

    def test_growth_and_capacity(self):
        buf = ReplayBuffer(4, 2, 3)
        for k in range(6):
            buf.push(self._tr(k))
            assert len(buf) == min(k + 1, 4)

    def test_ring_overwrites_oldest(self, rng):
        buf = ReplayBuffer(4, 2, 3)
        for k in range(6):
            buf.push(self._tr(k))
        batch = buf.sample(4, rng)
        seen = sorted(batch.rewards[:, 0].tolist())
        assert seen == [2.0, 3.0, 4.0, 5.0]

    def test_refuses_short_sample(self, rng):
        buf = ReplayBuffer(8, 2, 3)
        buf.push(self._tr(0))
        with pytest.raises(ValueError, match="cannot sample"):
            buf.sample(2, rng)

    def test_sample_has_no_duplicates(self, rng):
        buf = ReplayBuffer(16, 2, 3)
        for k in range(16):
            buf.push(self._tr(k))
        batch = buf.sample(16, rng)
        assert len(set(batch.rewards[:, 0].tolist())) == 16


class TestSelectAction:
    def _actor_with_logits(self, logits):
        w = np.zeros((5, 3))
        return nn.MlpParams([w], [np.asarray(logits, float)], "softmax")

    def test_greedy_takes_argmax(self):
        actor = self._actor_with_logits([2.0, -1.0, 0.0, 1.0, 0.5])
        idx, probs = select_action(actor, np.zeros(3), epsilon=0.0)
        assert idx == 0
        assert world.action_one_hot(idx).tolist() == [1, 0, 0, 0, 0]
        assert probs.argmax() == 0 and probs.sum() == pytest.approx(1.0)

    def test_up_one_hot_encoding(self):
        assert world.ACTION_NAMES[3] == "up"
        assert world.action_one_hot(3).tolist() == [0, 0, 0, 1, 0]

    def test_full_exploration_is_uniform(self):
        actor = self._actor_with_logits([9.0, 0.0, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(11)
        counts = np.zeros(5)
        for _ in range(5000):
            idx, _ = select_action(actor, np.zeros(3), epsilon=1.0, rng=rng)
            counts[idx] += 1
        assert np.all(counts > 800) and np.all(counts < 1200)

    def test_exploration_needs_rng(self):
        actor = self._actor_with_logits([0.0] * 5)
        with pytest.raises(ValueError, match="rng"):
            select_action(actor, np.zeros(3), epsilon=0.5)

    def test_probs_returned_even_when_exploring(self):
        actor = self._actor_with_logits([3.0, 0.0, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(0)
        _, probs = select_action(actor, np.zeros(3), epsilon=1.0, rng=rng)
        assert probs.argmax() == 0  # soft output reflects the actor, not the draw


class TestTdTarget:
    def test_gamma_zero(self):
        y = td_target(np.array([3.0]), np.array([0.0]), np.array([99.0]), 0.0)
        assert y.tolist() == [3.0]

    def test_terminal_masks_bootstrap(self):
        y = td_target(np.array([1000.0]), np.array([1.0]), np.array([50.0]),
                      0.97)
        assert y.tolist() == [1000.0]

    def test_worked_value(self):
        y = td_target(np.array([10.0]), np.array([0.0]), np.array([5.0]),
                      0.97)
        assert y[0] == pytest.approx(14.85)

    def test_timeout_keeps_bootstrapping(self):
        # non-goal episode ends are stored with terminal = 0
        y = td_target(np.array([1.0]), np.array([0.0]), np.array([2.0]), 0.5)
        assert y.tolist() == [2.0]


class TestCriticUpdate:
    def _zero_net(self, in_dim, hidden=(4,)):
        p = nn.init_params(in_dim, hidden, 1, "linear",
                           np.random.default_rng(0))
        for w in p.weights:
            w[...] = 0.0
        for b in p.biases:
            b[...] = 0.0
        return p

    def test_loss_is_mean_squared_residual(self, rng):
        nets, batch = synthetic_world(rng, n_agents=2, obs_dim=3, batch=2)
        joint = 2 * 3 + 2 * 5
        zero = self._zero_net(joint)
        nets[0].critic = zero
        nets[0].target_critic = self._zero_net(joint)
        nets[0].critic_opt = nn.OptimizerState.for_params(zero, 0.0,
                                                          algo="sgd")
        # q = 0 and q_next = 0, so residuals are -rewards
        batch.rewards[:, 0] = [1.0, -1.0]
        batch.terminal[:] = 0.0
        loss = critic_update(0, nets, batch, gamma=0.97, max_grad_norm=0.5)
        assert loss == pytest.approx(1.0)

    def test_exact_fit_gives_zero_loss_and_no_step(self, rng):
        nets, batch = synthetic_world(rng, n_agents=2, obs_dim=3, batch=1,
                                      algo="sgd", lr=1.0)
        joint = 2 * 3 + 2 * 5
        nets[0].critic = self._zero_net(joint)
        nets[0].target_critic = self._zero_net(joint)
        nets[0].critic_opt = nn.OptimizerState.for_params(
            nets[0].critic, 1.0, algo="sgd")
        batch.rewards[:, 0] = 0.0
        batch.terminal[:] = 0.0
        before = nets[0].critic.flatten()
        loss = critic_update(0, nets, batch, gamma=0.97, max_grad_norm=0.0)
        assert loss == 0.0
        assert np.array_equal(nets[0].critic.flatten(), before)

    def test_gradient_matches_finite_differences(self, rng):
        nets, batch = smooth_synthetic(rng, agent=0)
        for a in nets:
            a.critic_opt = nn.OptimizerState.for_params(a.critic, 1.0,
                                                        algo="sgd")
        # freeze the regression target exactly as the update computes it
        next_probs = np.stack(
            [nn.forward(nets[j].target_actor, batch.next_obs[:, j])
             for j in range(2)], axis=1)
        q_next = nn.forward(nets[0].target_critic,
                            _joint_input(batch.next_obs, next_probs))[:, 0]
        y = td_target(batch.rewards[:, 0], batch.terminal, q_next, 0.9)
        x = _joint_input(batch.obs,
                         world.ACTION_ONE_HOTS[batch.action_indices])

        theta0 = nets[0].critic.copy()
        critic_update(0, nets, batch, gamma=0.9, max_grad_norm=0.0)
        analytic = theta0.flatten() - nets[0].critic.flatten()  # sgd lr 1

        probe = theta0.copy()
        flat = theta0.flatten()
        fd = np.zeros_like(flat)
        for k in range(flat.size):
            for sgn in (1.0, -1.0):
                bumped = flat.copy()
                bumped[k] += sgn * FD_H
                probe.assign_flat(bumped)
                q = nn.forward(probe, x)[:, 0]
                fd[k] += sgn * float(np.mean((q - y) ** 2)) / (2 * FD_H)
        assert rel_error(analytic, fd) < 1e-4

    def test_loss_decreases_on_frozen_batch(self, rng):
        nets, batch = synthetic_world(rng, n_agents=2, obs_dim=3, batch=8,
                                      lr=0.003)
        losses = [critic_update(0, nets, batch, gamma=0.9, max_grad_norm=0.5)
                  for _ in range(60)]
        assert losses[-1] < losses[0]

    def test_bootstrap_uses_target_actor_soft_output(self, rng):
        # the batch stores no soft outputs, so the bootstrap term can only
        # come from the target actors; a cloned population updates alike
        nets, batch = synthetic_world(rng, n_agents=2, obs_dim=3)
        nets2 = [AgentNets(a.actor.copy(), a.critic.copy(),
                           a.target_actor.copy(), a.target_critic.copy(),
                           nn.OptimizerState.for_params(a.actor, 0.01),
                           nn.OptimizerState.for_params(a.critic, 0.01))
                 for a in nets]
        l1 = critic_update(0, nets, batch, 0.9, 0.5)
        l2 = critic_update(0, nets2, batch, 0.9, 0.5)
        assert l1 == l2
        assert np.array_equal(nets[0].critic.flatten(),
                              nets2[0].critic.flatten())


class TestActorUpdate:
    def test_gradient_matches_finite_differences(self, rng):
        for reg in (0.0, 1e-3):
            nets, batch = smooth_synthetic(rng, agent=0)
            nets[0].actor_opt = nn.OptimizerState.for_params(
                nets[0].actor, 1.0, algo="sgd")
            theta0 = nets[0].actor.copy()
            actor_update(0, nets, batch, max_grad_norm=0.0, logit_reg=reg)
            analytic = theta0.flatten() - nets[0].actor.flatten()

            ones = world.ACTION_ONE_HOTS[batch.action_indices]
            probe = theta0.copy()
            flat = theta0.flatten()

            def objective(v):
                probe.assign_flat(v)
                acts = ones.copy()
                acts[:, 0] = nn.forward(probe, batch.obs[:, 0])
                q = nn.forward(nets[0].critic,
                               _joint_input(batch.obs, acts))[:, 0]
                val = -float(np.mean(q))
                if reg > 0.0:
                    logits = nn.forward(
                        nn.MlpParams(probe.weights, probe.biases, "linear"),
                        batch.obs[:, 0])
                    val += reg * float(np.mean(logits ** 2))
                return val

            fd = np.zeros_like(flat)
            for k in range(flat.size):
                hi = flat.copy(); hi[k] += FD_H
                lo = flat.copy(); lo[k] -= FD_H
                fd[k] = (objective(hi) - objective(lo)) / (2 * FD_H)
            assert rel_error(analytic, fd) < 1e-4, f"reg={reg}"

    def test_critic_constant_in_actions_gives_zero_gradient(self, rng):
        nets, batch = synthetic_world(rng, n_agents=2, obs_dim=3,
                                      algo="sgd", lr=1.0)
        # kill the critic's first-layer weights on every action column
        obs_block = 2 * 3
        nets[0].critic.weights[0][:, obs_block:] = 0.0
        before = nets[0].actor.flatten()
        actor_update(0, nets, batch, max_grad_norm=0.0, logit_reg=0.0)
        assert np.array_equal(nets[0].actor.flatten(), before)

    def test_other_agents_come_from_batch_not_their_actors(self, rng):
        nets, batch = synthetic_world(rng, n_agents=2, obs_dim=3)
        nets2 = [AgentNets(a.actor.copy(), a.critic.copy(),
                           a.target_actor.copy(), a.target_critic.copy(),
                           nn.OptimizerState.for_params(a.actor, 0.01),
                           nn.OptimizerState.for_params(a.critic, 0.01))
                 for a in nets]
        # perturbing agent 1's actor must not change agent 0's update:
        # only executed indices enter its critic
        nets2[1].actor.weights[0][...] += 1.0
        batch2 = Batch(batch.obs, batch.action_indices, batch.rewards,
                       batch.next_obs, batch.terminal)
        l1 = actor_update(0, nets, batch, 0.5)
        l2 = actor_update(0, nets2, batch2, 0.5)
        assert l1 == l2
        assert np.array_equal(nets[0].actor.flatten(),
                              nets2[0].actor.flatten())

    def test_own_executed_action_is_ignored_too(self, rng):
        # the agent's own slot is its fresh soft output, not the one-hot
        nets, batch = synthetic_world(rng, n_agents=2, obs_dim=3)
        clone = [AgentNets(a.actor.copy(), a.critic.copy(),
                           a.target_actor.copy(), a.target_critic.copy(),
                           nn.OptimizerState.for_params(a.actor, 0.01),
                           nn.OptimizerState.for_params(a.critic, 0.01))
                 for a in nets]
        batch2 = Batch(batch.obs, batch.action_indices.copy(), batch.rewards,
                       batch.next_obs, batch.terminal)
        batch2.action_indices[:, 0] = (batch2.action_indices[:, 0] + 2) % 5
        assert actor_update(0, nets, batch, 0.5) == \
            actor_update(0, clone, batch2, 0.5)

    def test_logit_penalty_shrinks_saturated_logits(self, rng):
        nets, batch = synthetic_world(rng, n_agents=2, obs_dim=3,
                                      algo="sgd", lr=1.0)
        obs_block = 2 * 3
        nets[0].critic.weights[0][:, obs_block:] = 0.0  # isolate the penalty
        nets[0].actor.biases[-1][...] = np.array([30.0, 0, 0, 0, -30.0])
        body = nn.MlpParams(nets[0].actor.weights, nets[0].actor.biases,
                            "linear")
        before = float(np.mean(nn.forward(body, batch.obs[:, 0]) ** 2))
        for _ in range(20):
            actor_update(0, nets, batch, max_grad_norm=0.0, logit_reg=1e-3)
        after = float(np.mean(nn.forward(body, batch.obs[:, 0]) ** 2))
        assert after < before


class TestSyncTargets:
    def test_moves_all_four_networks(self, rng):
        nets, _ = synthetic_world(rng, n_agents=2, obs_dim=3)
        gaps0 = [np.linalg.norm(a.target_actor.flatten() - a.actor.flatten())
                 for a in nets]
        sync_targets(nets, tau=0.25)
        for a, g0 in zip(nets, gaps0):
            g1 = np.linalg.norm(a.target_actor.flatten() - a.actor.flatten())
            assert g1 == pytest.approx(0.75 * g0, rel=1e-12)
            gc = np.linalg.norm(a.target_critic.flatten()
                                - a.critic.flatten())
            assert gc >= 0.0  # critic targets move too
        sync_targets(nets, tau=1.0)
        for a in nets:
            assert np.allclose(a.target_critic.flatten(),
                               a.critic.flatten(), atol=1e-15)


class TestBuildAgents:
    def test_dims_follow_scenario(self):
        sc = world.build_scenario("a")
        nets = build_agents(sc, TrainConfig(hidden=(8,)))
        joint = 20 * 3 + 3 * 5
        for i, a in enumerate(nets):
            assert a.actor.weights[0].shape[1] == sc.layout(i).total_dim
            assert a.critic.weights[0].shape[1] == joint
            assert a.actor.head == "softmax" and a.critic.head == "linear"
            assert np.array_equal(a.target_actor.flatten(),
                                  a.actor.flatten())

    def test_agents_get_distinct_seeds(self):
        sc = world.build_scenario("a")
        nets = build_agents(sc, TrainConfig(hidden=(8,)))
        assert not np.array_equal(nets[0].actor.weights[0][:, :18],
                                  nets[1].actor.weights[0][:, :18])


class TestTrainLoop:
    def test_smoke_shapes_and_counts(self):
        cfg = tiny_config()
        res = train(cfg)
        e = cfg.max_episodes
        assert res.episode_rewards.shape == (e, 3)
        assert res.episode_steps.shape == (e,)
        assert res.episode_goal.shape == (e,)
        assert res.total_env_steps == int(res.episode_steps.sum())
        # one round per learning_frequency steps after the threshold
        expected = sum(1 for t in range(1, res.total_env_steps + 1)
                       if t >= cfg.learning_start_step
                       and t % cfg.learning_frequency == 0)
        assert res.update_rounds == expected

    def test_no_learning_before_threshold(self):
        cfg = tiny_config(learning_start_step=10_000)
        sc = world.build_scenario("a")
        fresh = build_agents(sc, cfg)
        res = train(cfg)
        for a, b in zip(fresh, res.nets):
            assert np.array_equal(a.actor.flatten(), b.actor.flatten())
            assert np.array_equal(a.critic.flatten(), b.critic.flatten())
        assert res.update_rounds == 0

    def test_deterministic_repeat(self):
        r1 = train(tiny_config())
        r2 = train(tiny_config())
        assert np.array_equal(r1.episode_rewards, r2.episode_rewards)
        for a, b in zip(r1.nets, r2.nets):
            assert np.array_equal(a.actor.flatten(), b.actor.flatten())
            assert np.array_equal(a.critic.flatten(), b.critic.flatten())

    def test_seed_changes_trajectories(self):
        # short random episodes can all score exactly zero, so compare the
        # learned parameters instead of the reward log
        r1 = train(tiny_config(seed=1))
        r2 = train(tiny_config(seed=2))
        assert not np.array_equal(r1.nets[0].actor.flatten(),
                                  r2.nets[0].actor.flatten())

    def test_callback_sees_every_episode(self):
        seen = []
        cfg = tiny_config()

        def cb(ep, rewards, goal, nets):
            seen.append((ep, rewards.shape, goal, len(nets)))

        train(cfg, on_episode=cb)
        assert [s[0] for s in seen] == list(range(cfg.max_episodes))
        assert all(s[1] == (3,) and s[3] == 3 for s in seen)

    def test_epsilon_log_follows_schedule(self):
        cfg = tiny_config(max_episodes=8)
        res = train(cfg)
        want = [epsilon_for_episode(k, cfg) for k in range(8)]
        assert np.allclose(res.episode_epsilon, want, atol=1e-15)


class TestRollout:
    def test_greedy_rollout_is_deterministic(self):
        cfg = tiny_config()
        res = train(cfg)
        t1 = rollout(res.nets, res.scenario)
        t2 = rollout(res.nets, res.scenario)
        assert np.array_equal(t1.action_indices, t2.action_indices)
        assert np.array_equal(t1.rewards, t2.rewards)

    def test_step0_obs_matches_reset(self):
        cfg = tiny_config()
        res = train(cfg)
        traj = rollout(res.nets, res.scenario)
        state = world.reset(res.scenario)
        for i in range(3):
            want = world.observe(state, i, res.scenario)
            assert np.array_equal(traj.observations[0, i], want)

    def test_length_capped_by_scenario(self):
        cfg = tiny_config()
        res = train(cfg)
        traj = rollout(res.nets, res.scenario)
        assert 1 <= traj.n_steps <= res.scenario.max_steps
        assert len(traj.states) == traj.n_steps + 1
        assert traj.rewards.shape == (traj.n_steps, 3)

    def test_execution_only_reads_actors(self):
        cfg = tiny_config()
        res = train(cfg)
        for a in res.nets:  # critics scrambled, rollout must not notice
            for w in a.critic.weights + a.target_critic.weights:
                w[...] = np.nan
        traj = rollout(res.nets, res.scenario)
        assert np.isfinite(traj.rewards).all()


class TestRewardLogAndCheckpoints:
    def test_trailing_mean_window(self):
        x = np.arange(1.0, 11.0)
        got = trailing_mean(x, window=4)
        assert got[0] == 1.0
        assert got[2] == pytest.approx(2.0)
        assert got[-1] == pytest.approx((7 + 8 + 9 + 10) / 4)
        assert trailing_mean(np.full(300, 2.5), 100).tolist() == [2.5] * 300

    def test_rewards_csv_round_trip(self, tmp_path):
        totals = np.array([1.5, -2.0, 0.25])
        path = tmp_path / "rewards.csv"
        maddpg.write_rewards_csv(path, totals)
        raw, smooth = maddpg.read_rewards_csv(path)
        assert np.array_equal(raw, totals)
        assert np.array_equal(smooth, trailing_mean(totals, 100))

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = tiny_config()
        res = train(cfg)
        maddpg.save_checkpoint(res.nets, tmp_path / "ck")
        loaded = maddpg.load_checkpoint(tmp_path / "ck")
        assert len(loaded) == 3
        for a, b in zip(res.nets, loaded):
            assert np.array_equal(a.actor.flatten(), b.actor.flatten())
            assert np.array_equal(a.target_critic.flatten(),
                                  b.target_critic.flatten())

    def test_checkpoint_text_is_one_json_document(self, tmp_path):
        res = train(tiny_config())
        paths = maddpg.save_checkpoint(res.nets, tmp_path / "ck")
        for i, (a, path) in enumerate(zip(res.nets, paths), start=1):
            doc = {
                "agent": i,
                "actor": a.actor.to_json_dict(),
                "critic": a.critic.to_json_dict(),
                "target_actor": a.target_actor.to_json_dict(),
                "target_critic": a.target_critic.to_json_dict(),
            }
            with open(path) as fp:
                assert fp.read() == json.dumps(doc)

    def test_checkpoint_rejects_bad_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            maddpg.load_checkpoint(tmp_path / "missing")

    @pytest.fixture
    def saved(self, tmp_path):
        res = train(tiny_config())
        paths = maddpg.save_checkpoint(res.nets, tmp_path / "ck")
        return res.nets, paths

    @staticmethod
    def _same_actor_critics(got, nets):
        """load_checkpoint: actors and critics, number for number."""
        assert len(got) == len(nets)
        for g, a in zip(got, nets):
            assert g.actor.head == "softmax" and g.critic.head == "linear"
            assert np.array_equal(g.actor.flatten(), a.actor.flatten())
            assert np.array_equal(g.critic.flatten(), a.critic.flatten())

    @staticmethod
    def _same_actors(got, nets):
        """load_actor_critics: actors bit for bit, and each critic's width."""
        assert len(got) == len(nets)
        for g, a in zip(got, nets):
            assert g.actor.head == "softmax"
            assert len(g.actor.weights) == len(a.actor.weights)
            for mine, theirs in zip(g.actor.weights + g.actor.biases,
                                    a.actor.weights + a.actor.biases):
                assert mine.shape == theirs.shape
                assert mine.tobytes() == theirs.tobytes()
            assert g.critic_in_dim == a.critic.in_dim

    def test_actor_critic_loader_matches_saved_nets(self, saved):
        nets, paths = saved
        self._same_actors(
            maddpg.load_actor_critics(os.path.dirname(paths[0])), nets)

    @pytest.mark.parametrize("layout", ["indent", "reordered"])
    def test_actor_critic_loader_reads_any_json_layout(self, saved, layout):
        nets, paths = saved
        for path in paths:
            with open(path) as fp:
                doc = json.load(fp)
            if layout == "indent":
                text = json.dumps(doc, indent=2)
            else:  # targets first, critic before actor, label last
                order = ["target_critic", "critic", "target_actor", "actor",
                         "agent"]
                text = json.dumps({k: doc[k] for k in order})
            with open(path, "w") as fp:
                fp.write(text)
        ckpt = os.path.dirname(paths[0])
        self._same_actors(maddpg.load_actor_critics(ckpt), nets)
        self._same_actor_critics(maddpg.load_checkpoint(ckpt), nets)

    def test_actor_critic_loader_skips_target_networks(self, saved):
        # damage after the critic is never parsed here; the full loader
        # still rejects the file
        nets, paths = saved
        with open(paths[1]) as fp:
            text = fp.read()
        cut = text.index('"target_actor"') + 40
        with open(paths[1], "w") as fp:
            fp.write(text[:cut])
        ckpt = os.path.dirname(paths[0])
        self._same_actors(maddpg.load_actor_critics(ckpt), nets)
        with pytest.raises(ValueError):
            maddpg.load_checkpoint(ckpt)

    def test_actor_critic_loader_ignores_critic_values(self, saved):
        # the critic's numbers are checked as JSON but never converted, so
        # other valid floats in their place load the same actors
        nets, paths = saved
        with open(paths[0]) as fp:
            doc = json.load(fp)
        for layer in doc["critic"]["layers"]:
            layer["w"] = [[-1.5e300] * len(row) for row in layer["w"]]
            layer["b"] = [0.25] * len(layer["b"])
        with open(paths[0], "w") as fp:
            fp.write(json.dumps(doc))
        self._same_actors(
            maddpg.load_actor_critics(os.path.dirname(paths[0])), nets)

    @pytest.mark.parametrize("loader", ["load_checkpoint",
                                        "load_actor_critics"])
    def test_loaders_reject_malformed_critic_number(self, saved, loader):
        _nets, paths = saved
        with open(paths[1]) as fp:
            text = fp.read()
        start = text.index('"critic"')
        number = re.compile(r"-?\d+\.\d+(e-?\d+)?").search(text, start)
        with open(paths[1], "w") as fp:
            fp.write(text[:number.start()] + "1.2.3" + text[number.end():])
        with pytest.raises(ValueError):
            getattr(maddpg, loader)(os.path.dirname(paths[0]))

    @pytest.mark.parametrize("loader", ["load_checkpoint",
                                        "load_actor_critics"])
    def test_loaders_reject_critic_cut_mid_array(self, saved, loader):
        _nets, paths = saved
        with open(paths[0]) as fp:
            text = fp.read()
        start = text.index('"critic"')
        cut = (start + text.index('"target_actor"')) // 2
        assert text[cut - 1] not in "}]"
        with open(paths[0], "w") as fp:
            fp.write(text[:cut])
        with pytest.raises(ValueError):
            getattr(maddpg, loader)(os.path.dirname(paths[0]))

    @pytest.mark.parametrize("loader", ["load_checkpoint",
                                        "load_actor_critics"])
    def test_loaders_reject_ragged_critic(self, saved, loader):
        _nets, paths = saved
        with open(paths[2]) as fp:
            doc = json.load(fp)
        doc["critic"]["layers"][0]["w"][-1].append(0.5)
        with open(paths[2], "w") as fp:
            fp.write(json.dumps(doc))
        with pytest.raises(ValueError):
            getattr(maddpg, loader)(os.path.dirname(paths[0]))

    @pytest.mark.parametrize("loader", ["load_checkpoint",
                                        "load_actor_critics"])
    def test_loaders_reject_truncated_file(self, saved, loader):
        _nets, paths = saved
        with open(paths[0]) as fp:
            text = fp.read()
        with open(paths[0], "w") as fp:
            fp.write(text[:text.index('"critic"') + 30])
        with pytest.raises(ValueError):
            getattr(maddpg, loader)(os.path.dirname(paths[0]))

    @pytest.mark.parametrize("loader", ["load_checkpoint",
                                        "load_actor_critics"])
    def test_loaders_reject_wrong_agent_label(self, saved, loader):
        _nets, paths = saved
        with open(paths[2]) as fp:
            doc = json.load(fp)
        doc["agent"] = 2
        with open(paths[2], "w") as fp:
            fp.write(json.dumps(doc))
        with pytest.raises(ValueError, match="agent_3.json carries agent "
                                             "label 2, expected 3"):
            getattr(maddpg, loader)(os.path.dirname(paths[0]))

    @pytest.mark.parametrize("loader", ["load_checkpoint",
                                        "load_actor_critics"])
    def test_loaders_reject_missing_member(self, saved, loader):
        _nets, paths = saved
        with open(paths[0]) as fp:
            doc = json.load(fp)
        del doc["critic"]
        with open(paths[0], "w") as fp:
            fp.write(json.dumps(doc))
        with pytest.raises(ValueError, match="agent_1.json lacks critic"):
            getattr(maddpg, loader)(os.path.dirname(paths[0]))


# ---------------------------------------------------------------------------
# Reference update round: every pass recomputed by its own helpers, with no
# forward cache shared. Its actor step follows the shipped arithmetic: the
# penalty's cotangent joins the policy's at the logits and one backward runs
# from there, and the critic's input gradient is taken for the agent's own
# action columns only. Both round differently from summing two full actor
# backwards and slicing a full input gradient (_two_pass_actor_update), so
# the oracle takes them too and holds the shipped round to itself bit for
# bit; test_folded_actor_step_matches_two_pass holds the two arithmetics to
# one gradient.

def _ref_forward(params, x, return_cache=False):
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = x.reshape(1, -1) if squeeze else x
    acts, pre = [h], []
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        pre.append(z)
        if l < params.n_layers - 1:
            h = np.maximum(z, 0.0)
        elif params.head == "softmax":
            shifted = z - z.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            h = e / e.sum(axis=-1, keepdims=True)
        else:
            h = z
        acts.append(h)
    out = h[0] if squeeze else h
    return (out, (acts, pre, squeeze)) if return_cache else out


def _ref_head(params, x, upstream):
    out, (acts, pre, squeeze) = _ref_forward(params, x, return_cache=True)
    u = np.asarray(upstream, dtype=float)
    if squeeze:
        u = u.reshape(1, -1)
        out = out.reshape(1, -1)
    if params.head == "softmax":
        dot = (u * out).sum(axis=-1, keepdims=True)
        u = out * (u - dot)
    return u, acts, pre, squeeze


def _ref_layer_grads(params, g, acts, pre):
    """Parameter gradients from the head's pre-activation cotangent g."""
    gw, gb = [None] * params.n_layers, [None] * params.n_layers
    for l in range(params.n_layers - 1, -1, -1):
        gw[l] = g.T @ acts[l]
        gb[l] = g.sum(axis=0)
        if l > 0:
            g = (g @ params.weights[l]) * (pre[l - 1] > 0.0)
    return nn.MlpParams(gw, gb, params.head)


def _ref_backward_params(params, x, upstream):
    g, acts, pre, _ = _ref_head(params, x, upstream)
    return _ref_layer_grads(params, g, acts, pre)


def _ref_input_gradient(params, x, upstream, columns=slice(None)):
    """The gradient's input columns `columns` only."""
    g, _, pre, squeeze = _ref_head(params, x, upstream)
    for l in range(params.n_layers - 1, 0, -1):
        g = (g @ params.weights[l]) * (pre[l - 1] > 0.0)
    g = g @ params.weights[0][:, columns]
    return g[0] if squeeze else g


def _ref_critic_update(agent, nets, batch, gamma, max_grad_norm):
    m = batch.size
    next_probs = np.stack(
        [_ref_forward(nets[j].target_actor, batch.next_obs[:, j])
         for j in range(len(nets))], axis=1)
    x_next = _joint_input(batch.next_obs, next_probs)
    q_next = _ref_forward(nets[agent].target_critic, x_next)[:, 0]
    y = td_target(batch.rewards[:, agent], batch.terminal, q_next, gamma)
    x = _joint_input(batch.obs, world.ACTION_ONE_HOTS[batch.action_indices])
    q = _ref_forward(nets[agent].critic, x)[:, 0]
    err = q - y
    loss = float(np.mean(err ** 2))
    grads = _ref_backward_params(nets[agent].critic, x,
                                 (2.0 / m) * err[:, None])
    nn.clip_and_apply(nets[agent].critic, grads, nets[agent].critic_opt,
                      max_grad_norm)
    return loss


def _ref_actor_update(agent, nets, batch, max_grad_norm, logit_reg):
    m = batch.size
    n = len(nets)
    actor = nets[agent].actor
    obs_i = batch.obs[:, agent]
    probs_i = _ref_forward(actor, obs_i)
    actions = world.ACTION_ONE_HOTS[batch.action_indices]
    actions[:, agent] = probs_i
    x = _joint_input(batch.obs, actions)
    q = _ref_forward(nets[agent].critic, x)[:, 0]
    loss = float(-np.mean(q))
    start = batch.obs.shape[2] * n + agent * world.N_ACTIONS
    g_action = _ref_input_gradient(nets[agent].critic, x,
                                   np.full((m, 1), -1.0 / m),
                                   slice(start, start + world.N_ACTIONS))
    g, acts, pre, _ = _ref_head(actor, obs_i, g_action)
    if logit_reg > 0.0:
        logits = pre[-1]
        loss += logit_reg * float(np.mean(logits ** 2))
        g = g + (2.0 * logit_reg / logits.size) * logits
    grads = _ref_layer_grads(actor, g, acts, pre)
    nn.clip_and_apply(actor, grads, nets[agent].actor_opt, max_grad_norm)
    return loss


def _two_pass_actor_update(agent, nets, batch, max_grad_norm, logit_reg):
    """The actor step as two full backwards, the policy's and the
    penalty's, summed layer by layer, with the agent's action columns
    sliced from the critic's whole input gradient."""
    m = batch.size
    n = len(nets)
    actor = nets[agent].actor
    obs_i = batch.obs[:, agent]
    actor_cache = nn.forward(actor, obs_i, return_cache=True)
    actions = world.ACTION_ONE_HOTS[batch.action_indices]
    actions[:, agent] = actor_cache[0]
    x = _joint_input(batch.obs, actions)
    cache = nn.forward(nets[agent].critic, x, return_cache=True)
    loss = float(-np.mean(cache[0][:, 0]))
    dx = nn.input_gradient(nets[agent].critic, x, np.full((m, 1), -1.0 / m),
                           cache)
    obs_block = batch.obs.shape[2] * n
    g_action = dx[:, obs_block + agent * world.N_ACTIONS:
                  obs_block + (agent + 1) * world.N_ACTIONS]
    grads = nn.backward_params(actor, obs_i, g_action, actor_cache)
    if logit_reg > 0.0:
        _acts, logits, _squeeze = actor_cache[1]
        loss += logit_reg * float(np.mean(logits ** 2))
        body = nn.MlpParams(actor.weights, actor.biases, "linear")
        reg_grads = nn.backward_params(
            body, obs_i, (2.0 * logit_reg / logits.size) * logits,
            (logits, actor_cache[1]))
        for gw, rw in zip(grads.weights, reg_grads.weights):
            gw += rw
        for gb, rb in zip(grads.biases, reg_grads.biases):
            gb += rb
    nn.clip_and_apply(actor, grads, nets[agent].actor_opt, max_grad_norm)
    return loss


def _clone(nets, lr=0.01, algo="adam"):
    return [AgentNets(a.actor.copy(), a.critic.copy(), a.target_actor.copy(),
                      a.target_critic.copy(),
                      nn.OptimizerState.for_params(a.actor, lr, algo),
                      nn.OptimizerState.for_params(a.critic, lr, algo))
            for a in nets]


_ROUND_SHAPES = pytest.mark.parametrize(
    "n_agents, batch_size, obs_dim, hidden",
    [pytest.param(n, m, 6, (32, 16), id=f"{m}-{n}")
     for m in (1, 7, 256) for n in (2, 3)]
    # the desk run's shapes: 3 agents, 20 observations, hidden (128, 64)
    + [pytest.param(3, 256, 20, (128, 64), id="desk"),
       # the reference run's: scenario c's 18 observations, batch 1256
       pytest.param(3, 1256, 18, (128, 64), id="reference")])


def _counting(calls, real):
    def counting(*args, **kwargs):
        calls.append(real.__name__)
        return real(*args, **kwargs)
    return counting


@_ROUND_SHAPES
def test_update_round_matches_reference(n_agents, batch_size, obs_dim, hidden,
                                        monkeypatch):
    rng = np.random.default_rng(100 * n_agents + batch_size)
    nets, _ = synthetic_world(rng, n_agents=n_agents, obs_dim=obs_dim,
                              hidden=hidden, batch=batch_size)
    ref = _clone(nets)
    calls = []
    for name in ("forward", "backward_params"):
        counting = _counting(calls, getattr(nn, name))
        monkeypatch.setattr(nn, name, counting)
        monkeypatch.setattr(maddpg, name, counting)
    for rnd in range(4):
        calls.clear()
        clip = 0.5 if rnd % 2 == 0 else 0.0  # 0 steps unclipped
        for i in range(n_agents):
            batch = random_batch(rng, batch_size, n_agents, obs_dim=obs_dim)
            assert critic_update(i, nets, batch, 0.97, clip) == \
                _ref_critic_update(i, ref, batch, 0.97, clip)
            assert actor_update(i, nets, batch, clip, 1e-2) == \
                _ref_actor_update(i, ref, batch, clip, 1e-2)
        sync_targets(nets, 0.05)
        sync_targets(ref, 0.05)
        # per agent: n target actors, the target critic and the critic,
        # then one cached actor pass that gives the critic's soft input and
        # the actor backward, and the critic (21 for 3 agents)
        assert calls.count("forward") == n_agents * (n_agents + 4)
        # per agent: the critic's backward and one actor backward that
        # carries the logit penalty too
        assert calls.count("backward_params") == 2 * n_agents
        for a, b in zip(nets, ref):
            for name in ("actor", "critic", "target_actor", "target_critic"):
                pa, pb = getattr(a, name), getattr(b, name)
                for wa, wb in zip(pa.weights + pa.biases,
                                  pb.weights + pb.biases):
                    assert np.array_equal(wa, wb), name


@pytest.mark.parametrize("logit_reg", [0.0, 1e-2])
@_ROUND_SHAPES
def test_folded_actor_step_matches_two_pass(n_agents, batch_size, obs_dim,
                                            hidden, logit_reg, monkeypatch):
    """The folded actor step applies the two-pass step's gradient, to
    rounding. At SGD lr 1, unclipped, the applied step is the gradient.
    An entry summed from terms that nearly cancel keeps only the rounding
    of its terms, so the tolerance is 1e-12 of each entry or of the
    layer's largest entry, whichever is larger."""
    rng = np.random.default_rng(100 * n_agents + batch_size)
    nets, _ = synthetic_world(rng, n_agents=n_agents, obs_dim=obs_dim,
                              hidden=hidden, batch=batch_size, algo="sgd",
                              lr=1.0)
    two = _clone(nets, lr=1.0, algo="sgd")
    applied = []
    real = nn.clip_and_apply

    def recording(params, grads, opt, max_grad_norm):
        applied.append(grads.weights + grads.biases)
        return real(params, grads, opt, max_grad_norm)

    monkeypatch.setattr(nn, "clip_and_apply", recording)
    monkeypatch.setattr(maddpg, "clip_and_apply", recording)
    for i in range(n_agents):
        batch = random_batch(rng, batch_size, n_agents, obs_dim=obs_dim)
        before = nets[i].actor.copy()
        assert actor_update(i, nets, batch, 0.0, logit_reg) == \
            _two_pass_actor_update(i, two, batch, 0.0, logit_reg)
        two_pass, folded = applied.pop(), applied.pop()
        for p0, p1, g, want in zip(
                before.weights + before.biases,
                nets[i].actor.weights + nets[i].actor.biases, folded,
                two_pass):
            assert np.array_equal(p1, p0 - g)
            np.testing.assert_allclose(g, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("hidden", [((16, 8),) * 3,
                                    ((16, 8), (12,), (16, 8))],
                         ids=["stacked", "mixed"])
def test_team_actions_match_select_action(epsilon, hidden):
    rng = np.random.default_rng(5)
    actors = [nn.init_params(6, h, world.N_ACTIONS, "softmax", rng)
              for h in hidden]
    policy = maddpg._team_forward(actors)
    team_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(200):
        obs = rng.normal(size=(3, 6))
        idx = maddpg._team_actions(policy, obs, epsilon, team_rng)
        picks = [select_action(a, o, epsilon, ref_rng)
                 for a, o in zip(actors, obs)]
        assert idx.tolist() == [p[0] for p in picks]
        assert np.array_equal(policy(obs), np.stack([p[1] for p in picks]))
    assert team_rng.random() == ref_rng.random()  # same draws consumed


def test_team_actions_skip_actors_when_all_explore():
    def never(obs):
        raise AssertionError("actors ran although every agent explored")

    idx = maddpg._team_actions(never, np.zeros((3, 4)), 1.0,
                               np.random.default_rng(0))
    assert idx.shape == (3,)
    with pytest.raises(ValueError, match="rng"):
        maddpg._team_actions(never, np.zeros((3, 4)), 0.5, None)


def _ref_train(config, scenario=None, on_episode=None):
    """The per-agent act-and-observe loop: one select_action and one observe
    call per agent and step, the networks read live, one episode after
    another; on_episode runs as each episode ends."""
    if scenario is None:
        scenario = world.build_scenario(config.scenario_id)
    scenario = replace(scenario, max_steps=config.max_episode_length)
    n = scenario.n_agents
    _init, explore_ss, sample_ss = np.random.SeedSequence(config.seed).spawn(3)
    explore_rng = np.random.default_rng(explore_ss)
    sample_rng = np.random.default_rng(sample_ss)
    nets = build_agents(scenario, config)
    buffer = ReplayBuffer(config.memory_size, n, scenario.layout(0).total_dim)
    rewards = np.zeros((config.max_episodes, n))
    total = 0
    for episode in range(config.max_episodes):
        epsilon = epsilon_for_episode(episode, config)
        state = world.reset(scenario)
        obs = np.stack([world.observe(state, i, scenario) for i in range(n)])
        while not state.done:
            indices = np.array(
                [select_action(nets[i].actor, obs[i], epsilon, explore_rng)[0]
                 for i in range(n)], dtype=np.int64)
            outcome = world.step(state, np.eye(world.N_ACTIONS)[indices],
                                 scenario)
            state = outcome.next_state
            next_obs = np.stack([world.observe(state, i, scenario)
                                 for i in range(n)])
            buffer.push(Transition(obs, indices, outcome.rewards, next_obs,
                                   state.done_reason == "goal"))
            rewards[episode] += outcome.rewards
            total += 1
            obs = next_obs
            if (total >= config.learning_start_step
                    and total % config.learning_frequency == 0
                    and len(buffer) >= config.batch_size):
                for i in range(n):
                    batch = buffer.sample(config.batch_size, sample_rng)
                    critic_update(i, nets, batch, config.gamma,
                                  config.max_grad_norm)
                    actor_update(i, nets, batch, config.max_grad_norm,
                                 config.actor_logit_reg)
                sync_targets(nets, config.tau)
        if on_episode is not None:
            on_episode(episode, rewards[episode],
                       state.done_reason == "goal", nets)
    return rewards, nets


@pytest.mark.parametrize("scenario_id", ["a", "c"])
def test_train_matches_per_agent_loop(scenario_id):
    cfg = tiny_config(scenario_id=scenario_id, max_episodes=8,
                      epsilon_fraction=0.5, hidden=(8, 4))
    got = train(cfg)
    want_rewards, want_nets = _ref_train(cfg)
    assert got.update_rounds > 0
    assert np.array_equal(got.episode_rewards, want_rewards)
    for a, b in zip(got.nets, want_nets):
        for name in ("actor", "critic", "target_actor", "target_critic"):
            pa, pb = getattr(a, name), getattr(b, name)
            for wa, wb in zip(pa.weights + pa.biases, pb.weights + pb.biases):
                assert np.array_equal(wa, wb), name


def _assert_nets_equal(got, want):
    for a, b in zip(got, want, strict=True):
        for name in ("actor", "critic", "target_actor", "target_critic"):
            pa, pb = getattr(a, name), getattr(b, name)
            for wa, wb in zip(pa.weights + pa.biases, pb.weights + pb.biases):
                assert np.array_equal(wa, wb), name


def _episode_log(path=None):
    """An on_episode that logs its calls and saves a checkpoint every third
    episode under path."""
    calls = []

    def on_episode(ep, rewards, goal, nets):
        calls.append((ep, rewards.tobytes(), goal))
        if path is not None and ep % 3 == 2:
            maddpg.save_checkpoint(nets, path / f"ep_{ep + 1}")

    return calls, on_episode


# goal_threshold 1.6 against a start distance of 1.664: random pushes
# reach the goal now and then
_GOAL_PRONE = world.build_scenario("a", goal_threshold=1.6)


@pytest.mark.parametrize("case", ["goal_rollback", "split_episodes",
                                  "buffer_wraps"])
def test_lock_step_blocks_match_sequential_loop(case):
    """Blocks of lock-step episodes reproduce the sequential loop bit for
    bit where the blocks are hardest to get right."""
    cfg = tiny_config(max_episodes=30, max_episode_length=20,
                      learning_start_step=200, learning_frequency=20,
                      batch_size=8, memory_size=1000, epsilon_fraction=0.5)
    if case == "split_episodes":
        cfg = replace(cfg, learning_frequency=7)
    elif case == "buffer_wraps":
        cfg = replace(cfg, learning_frequency=7, memory_size=50)
    got_calls, got_hook = _episode_log()
    want_calls, want_hook = _episode_log()
    got = train(cfg, _GOAL_PRONE, got_hook)
    want_rewards, want_nets = _ref_train(cfg, _GOAL_PRONE, want_hook)
    # the first block, 200 steps of pure collection, holds several goals,
    # each of which rolls the block back
    first_block = np.cumsum(got.episode_steps) <= cfg.learning_start_step
    assert got.episode_goal[first_block].sum() >= 3
    assert got.update_rounds > 0
    assert got_calls == want_calls
    assert np.array_equal(got.episode_rewards, want_rewards)
    assert got.episode_goal.tolist() == [c[2] for c in want_calls]
    _assert_nets_equal(got.nets, want_nets)
    if case != "goal_rollback":
        # update steps fall inside episodes, so blocks cut them
        assert cfg.max_episode_length % cfg.learning_frequency != 0
    if case == "buffer_wraps":
        # the first block fills the ring buffer four times over
        assert cfg.learning_start_step >= 4 * cfg.memory_size


def test_on_episode_checkpoints_match_sequential_loop(tmp_path):
    cfg = tiny_config(max_episodes=24, max_episode_length=20,
                      learning_start_step=100, learning_frequency=30,
                      batch_size=8, memory_size=80, epsilon_fraction=0.5)
    got_calls, got_hook = _episode_log(tmp_path / "got")
    want_calls, want_hook = _episode_log(tmp_path / "want")
    got = train(cfg, _GOAL_PRONE, got_hook)
    _ref_train(cfg, _GOAL_PRONE, want_hook)
    assert got.episode_goal.any() and got.update_rounds > 0
    assert got_calls == want_calls
    saved = sorted(os.listdir(tmp_path / "got"))
    assert saved == sorted(os.listdir(tmp_path / "want"))
    assert len(saved) == 8
    for ep in saved:
        for name in sorted(os.listdir(tmp_path / "got" / ep)):
            assert (tmp_path / "got" / ep / name).read_bytes() \
                == (tmp_path / "want" / ep / name).read_bytes(), (ep, name)


def _ref_rollout(actors, scenario, epsilon, rng):
    """The per-agent rollout: one select_action and one observe call per
    agent and step, every state copied."""
    n = scenario.n_agents
    state = world.reset(scenario)
    states = [state.copy()]
    obs, idx, rew = [], [], []
    while not state.done:
        o = np.stack([world.observe(state, i, scenario) for i in range(n)])
        indices = np.array([select_action(actors[i], o[i], epsilon, rng)[0]
                            for i in range(n)], dtype=np.int64)
        outcome = world.step(state, np.eye(world.N_ACTIONS)[indices],
                             scenario)
        state = outcome.next_state
        states.append(state.copy())
        obs.append(o)
        idx.append(indices)
        rew.append(outcome.rewards)
    return states, np.stack(obs), np.stack(idx), np.stack(rew)


@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("scenario_id", ["a", "c"])
def test_rollout_matches_per_agent_loop(scenario_id, epsilon):
    scenario = world.build_scenario(scenario_id)
    nets = build_agents(scenario, tiny_config(scenario_id=scenario_id,
                                              hidden=(8, 4)))
    actors = [a.actor for a in nets]
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    traj = rollout(nets, scenario, epsilon, got_rng if epsilon else None)
    states, obs, idx, rew = _ref_rollout(actors, scenario, epsilon,
                                         want_rng if epsilon else None)
    assert np.array_equal(traj.observations, obs)
    assert np.array_equal(traj.action_indices, idx)
    assert np.array_equal(traj.rewards, rew)
    assert len(traj.states) == len(states)
    for s, w in zip(traj.states, states):
        assert s.step_index == w.step_index and s.done == w.done
        for name in ("agent_pos", "agent_vel", "box_pos", "box_vel"):
            assert np.array_equal(getattr(s, name), getattr(w, name)), name
    assert traj.done_reason == states[-1].done_reason
    assert got_rng.random() == want_rng.random()
