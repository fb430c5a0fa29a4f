"""Multi-agent actor-critic training with centralized critics.

Each agent owns four networks: an actor mapping its own observation to a
softmax distribution over the five discrete actions, a critic scoring the
joint (all observations, all actions) vector, and Polyak-averaged target
copies of both. The critic regresses on the executed one-hot actions stored
in the buffer; soft actor outputs enter the critic only where a gradient
must flow through them (the agent's own slot in its policy update, and the
target actors in the bootstrap term).

Update cadence follows the step counter, not episodes: after
`learning_start_step` environment steps, one update round runs every
`learning_frequency` steps. A round updates every agent in index order
(critic first, then actor, on one freshly sampled batch per agent) and then
soft-updates all target networks once. The episodes between two rounds are
played side by side, as one batch of lock-step worlds (see train).
"""
from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import re
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from hlab import world
from hlab.nn import (
    MlpParams,
    OptimizerState,
    _head_vjp,
    _softmax,
    backward_params,
    clip_and_apply,
    forward,
    init_params,
    input_gradient,
    soft_update,
)
from hlab.world import ACTION_ONE_HOTS, N_ACTIONS, ScenarioConfig, WorldState


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


@dataclass
class TrainConfig:
    """Training hyperparameters (defaults are the reference setting)."""

    scenario_id: str = "a"
    max_episodes: int = 20000
    max_episode_length: int = 50
    learning_start_step: int = 50000
    learning_frequency: int = 100
    batch_size: int = 1256
    memory_size: int = 100000
    gamma: float = 0.97
    tau: float = 0.01
    lr_actor: float = 0.01
    lr_critic: float = 0.01
    max_grad_norm: float = 0.5
    actor_logit_reg: float = 1e-3  # squared-logit penalty, keeps softmax alive
    epsilon_start: float = 1.0
    epsilon_final: float = 0.05
    epsilon_fraction: float = 0.25  # anneal over this fraction of max_episodes
    seed: int = 0
    # last, where run manifests have always listed it
    hidden: tuple[int, ...] = (128, 64)

    def validate(self) -> None:
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive, got "
                             f"{list(self.hidden)}")
        if self.learning_frequency < 1:
            raise ValueError("learning_frequency must be positive")
        if self.batch_size < 1 or self.memory_size < self.batch_size:
            raise ValueError("memory_size must hold at least one batch")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.max_episodes < 1 or self.max_episode_length < 1:
            raise ValueError("episode counts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 <= self.epsilon_final <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_final <= epsilon_start <= 1")
        # the comparisons fail for NaN as well
        for name in ("lr_actor", "lr_critic"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        # max_grad_norm 0 turns clipping off
        for name in ("max_grad_norm", "epsilon_fraction", "actor_logit_reg"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "hidden": list(self.hidden)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainConfig":
        if not isinstance(doc, dict):
            raise ValueError("training config must be a JSON object, got "
                             f"{type(doc).__name__}")
        extra = set(doc) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown training config keys: {sorted(extra)}")
        kwargs = dict(doc)
        for f in fields(cls):
            if f.name == "hidden" or f.name not in kwargs:
                continue
            value, kind = kwargs[f.name], type(f.default)
            # a float field takes an int as well; a bool is no number here
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"training config {f.name} must be "
                                 f"{_KIND_NAMES[kind]}, got {value!r}")
        if "hidden" in kwargs:
            hidden = kwargs["hidden"]
            if not (isinstance(hidden, (list, tuple))
                    and all(isinstance(h, int) and not isinstance(h, bool)
                            for h in hidden)):
                raise ValueError("training config hidden must be a list of "
                                 f"integers, got {hidden!r}")
            kwargs["hidden"] = tuple(hidden)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def epsilon_for_episode(episode: int, config: TrainConfig) -> float:
    """Linear anneal from epsilon_start to epsilon_final, then flat."""
    horizon = max(1, int(round(config.epsilon_fraction * config.max_episodes)))
    frac = min(1.0, episode / horizon)
    return config.epsilon_start + frac * (config.epsilon_final - config.epsilon_start)


@dataclass
class AgentNets:
    """One agent's networks and optimizers."""

    actor: MlpParams
    critic: MlpParams
    target_actor: MlpParams
    target_critic: MlpParams
    actor_opt: OptimizerState
    critic_opt: OptimizerState

    @classmethod
    def create(cls, obs_dim: int, joint_dim: int, hidden: Sequence[int],
               lr_actor: float, lr_critic: float,
               rng: np.random.Generator) -> "AgentNets":
        actor = init_params(obs_dim, hidden, N_ACTIONS, "softmax", rng)
        critic = init_params(joint_dim, hidden, 1, "linear", rng)
        return cls(
            actor=actor,
            critic=critic,
            target_actor=actor.copy(),
            target_critic=critic.copy(),
            actor_opt=OptimizerState.for_params(actor, lr_actor),
            critic_opt=OptimizerState.for_params(critic, lr_critic),
        )


@dataclass
class Transition:
    obs: np.ndarray  # (n, obs_dim)
    action_indices: np.ndarray  # (n,) executed action per agent
    rewards: np.ndarray  # (n,)
    next_obs: np.ndarray  # (n, obs_dim)
    terminal: bool  # true only when the goal ended the episode


@dataclass
class Batch:
    obs: np.ndarray  # (m, n, obs_dim)
    action_indices: np.ndarray  # (m, n)
    rewards: np.ndarray  # (m, n)
    next_obs: np.ndarray  # (m, n, obs_dim)
    terminal: np.ndarray  # (m,) float 0/1

    @property
    def size(self) -> int:
        return self.obs.shape[0]


class ReplayBuffer:
    """Fixed-capacity ring buffer over preallocated arrays."""

    def __init__(self, capacity: int, n_agents: int, obs_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._obs = np.zeros((capacity, n_agents, obs_dim))
        self._idx = np.zeros((capacity, n_agents), dtype=np.int64)
        self._rew = np.zeros((capacity, n_agents))
        self._next = np.zeros((capacity, n_agents, obs_dim))
        self._term = np.zeros(capacity)
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, tr: Transition) -> None:
        k = self._cursor
        self._obs[k] = tr.obs
        self._idx[k] = tr.action_indices
        self._rew[k] = tr.rewards
        self._next[k] = tr.next_obs
        self._term[k] = 1.0 if tr.terminal else 0.0
        self._cursor = (k + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def put(self, steps: np.ndarray, obs: np.ndarray,
            action_indices: np.ndarray, rewards: np.ndarray,
            next_obs: np.ndarray, terminal: np.ndarray) -> None:
        """Store transitions of a stream, row r at slot steps[r] % capacity.

        steps numbers each row's transition in the stream, from 0; the
        other arguments stack a Transition's fields along a leading axis.
        seek then says how much of the stream the buffer holds.
        """
        k = steps % self.capacity
        self._obs[k] = obs
        self._idx[k] = action_indices
        self._rew[k] = rewards
        self._next[k] = next_obs
        self._term[k] = terminal

    def seek(self, total: int) -> None:
        """Hold the stream's first total transitions, as after total pushes."""
        self._cursor = total % self.capacity
        self._size = min(total, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if self._size < batch_size:
            raise ValueError(f"buffer holds {self._size} transitions, "
                             f"cannot sample {batch_size}")
        pick = rng.choice(self._size, size=batch_size, replace=False)
        return Batch(
            obs=self._obs[pick],
            action_indices=self._idx[pick],
            rewards=self._rew[pick],
            next_obs=self._next[pick],
            terminal=self._term[pick],
        )


def _joint_input(obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """(m, n, od) + (m, n, 5) -> (m, n*od + n*5) critic input."""
    m = obs.shape[0]
    return np.hstack([obs.reshape(m, -1), actions.reshape(m, -1)])


def select_action(actor: MlpParams, obs: np.ndarray, epsilon: float,
                  rng: np.random.Generator | None = None
                  ) -> tuple[int, np.ndarray]:
    """Pick an executed action index; also return the actor's soft output.

    epsilon > 0 requires an rng; with probability epsilon the executed action
    is uniform over the five choices, otherwise the argmax of the actor.
    rollout acts for the whole team through _team_actions instead, and
    train through the same _greedy_fill over exploration drawn per block;
    this per-agent form is kept as the reference that _team_actions is
    tested against.
    """
    probs = forward(actor, obs)
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("exploration requires an rng")
        if rng.random() < epsilon:
            return int(rng.integers(N_ACTIONS)), probs
    return int(np.argmax(probs)), probs


def _team_forward(actors: Sequence[MlpParams]
                  ) -> Callable[[np.ndarray], np.ndarray]:
    """obs (..., n, d) -> every actor's soft output on its own row, (..., n, 5).

    Row i of each team equals forward(actors[i], obs[..., i, :]) bit for
    bit. Actors of one shape run as one batched network: matmul broadcasts
    (..., n, 1, d) @ (n, d, h), which runs the same one-row product on each
    (team, agent) slice as forward does, and every other operation acts
    elementwise or along rows. The stack is a copy of the weights, so the
    function goes stale once an actor changes.
    """
    actors = list(actors)
    if (len({tuple(w.shape for w in a.weights) for a in actors}) != 1
            or any(a.head != "softmax" for a in actors)):
        def each(obs: np.ndarray) -> np.ndarray:
            teams = obs.reshape(-1, *obs.shape[-2:])
            return np.array([[forward(a, o) for a, o in zip(actors, team)]
                             for team in teams]).reshape(
                *obs.shape[:-1], N_ACTIONS)
        return each
    layers = [(np.stack([a.weights[l] for a in actors]).transpose(0, 2, 1),
               np.stack([a.biases[l] for a in actors])[:, None, :])
              for l in range(actors[0].n_layers)]

    def probs(obs: np.ndarray) -> np.ndarray:
        h = obs[..., None, :]
        for l, (w, b) in enumerate(layers):
            z = np.matmul(h, w)
            z += b
            h = (np.maximum(z, 0.0, out=z) if l < len(layers) - 1
                 else _softmax(z))
        return h[..., 0, :]

    return probs


def _exploration(epsilon: float, steps: int, n: int,
                 rng: np.random.Generator | None) -> np.ndarray:
    """The exploring picks of `steps` team actions, (steps, n); -1 marks an
    agent that acts greedily.

    Draws the same random numbers in the same order as select_action
    called per agent and step. They never depend on the state, so a whole
    episode's can be drawn before it is played.
    """
    if epsilon <= 0.0:
        return np.full((steps, n), -1, dtype=np.int64)
    if rng is None:
        raise ValueError("exploration requires an rng")
    return np.array([int(rng.integers(N_ACTIONS)) if rng.random() < epsilon
                     else -1 for _ in range(steps * n)],
                    dtype=np.int64).reshape(steps, n)


def _greedy_fill(policy: Callable[[np.ndarray], np.ndarray],
                 obs: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """picks (..., n) with each -1 replaced by that agent's greedy action.

    policy is a _team_forward and obs (..., n, d) the teams' observations.
    The actors run only for teams in which some agent acts greedily.
    """
    greedy = picks < 0
    if greedy.all():
        return policy(obs).argmax(axis=-1)
    teams = greedy.any(axis=-1).nonzero()[0]
    if teams.size:
        picks[teams] = np.where(greedy[teams],
                                policy(obs[teams]).argmax(axis=-1),
                                picks[teams])
    return picks


def _team_actions(policy: Callable[[np.ndarray], np.ndarray],
                  obs: np.ndarray, epsilon: float,
                  rng: np.random.Generator | None) -> np.ndarray:
    """select_action's index for every agent in index order, in one pass.

    policy is a _team_forward. Draws the same random numbers in the same
    order as one select_action call per agent and picks the same indices.
    The actors run only if some agent acts greedily.
    """
    return _greedy_fill(policy, obs[None],
                        _exploration(epsilon, 1, obs.shape[0], rng))[0]


def _play(worlds: world.Worlds, budget: np.ndarray, scenario: ScenarioConfig,
          act: Callable[[np.ndarray, int, np.ndarray], np.ndarray]
          ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray,
                              world.WorldsStep, np.ndarray]]:
    """Play K worlds in lock-step, each world's team acting through act.

    World k plays until its episode ends or it has taken budget[k] steps.
    At lock-step iteration t, act(live, t, obs) maps the worlds still
    playing (ascending indices) and their observations (k, n, obs_dim) to
    action indices (k, n). Yields (live, obs, indices, step, next_obs) for
    every iteration, next_obs being the observations of step.worlds. act
    is called for an iteration only once the caller has taken the one
    before it, and the caller may lower budget in between: a world whose
    budget is spent stops after the iteration that spent it.
    """
    live = np.arange(len(worlds))
    obs = world.observe_worlds(worlds, scenario)
    t = 0
    while live.size:
        indices = act(live, t, obs)
        out = world.step_worlds(worlds, indices, scenario)
        next_obs = world.observe_worlds(out.worlds, scenario)
        yield live, obs, indices, out, next_obs
        t += 1
        worlds, obs = out.worlds, next_obs
        stop = out.done | (budget[live] <= t)
        if stop.any():
            keep = ~stop
            live, worlds, obs = live[keep], worlds.take(keep), obs[keep]


def td_target(rewards_i: np.ndarray, terminal: np.ndarray, q_next: np.ndarray,
              gamma: float) -> np.ndarray:
    """y = r + gamma * (1 - terminal) * Q'. Timeouts keep bootstrapping."""
    return rewards_i + gamma * (1.0 - terminal) * q_next


def critic_update(agent: int, nets: list[AgentNets], batch: Batch,
                  gamma: float, max_grad_norm: float) -> float:
    """One mean-squared TD error step on agent's critic. Returns the loss.

    Q regresses on the executed one-hot actions (the transition's cause);
    the bootstrap term evaluates the target actors' soft outputs at the
    next observations.
    """
    m = batch.size
    next_probs = np.stack(
        [forward(nets[j].target_actor, batch.next_obs[:, j]) for j in
         range(len(nets))], axis=1)
    x_next = _joint_input(batch.next_obs, next_probs)
    q_next = forward(nets[agent].target_critic, x_next)[:, 0]
    y = td_target(batch.rewards[:, agent], batch.terminal, q_next, gamma)
    x = _joint_input(batch.obs, ACTION_ONE_HOTS[batch.action_indices])
    cache = forward(nets[agent].critic, x, return_cache=True)
    err = cache[0][:, 0] - y
    loss = float(np.mean(err ** 2))
    upstream = (2.0 / m) * err[:, None]
    grads = backward_params(nets[agent].critic, x, upstream, cache)
    clip_and_apply(nets[agent].critic, grads, nets[agent].critic_opt,
                   max_grad_norm)
    return loss


def actor_update(agent: int, nets: list[AgentNets], batch: Batch,
                 max_grad_norm: float, logit_reg: float = 1e-3) -> float:
    """One policy-gradient step through the agent's own critic.

    The critic is evaluated with the agent's fresh soft actor output in its
    own action slot and the executed one-hot actions from the batch in every
    other slot; the upstream of -mean(Q) flows through the critic input back
    into the actor. logit_reg adds a mean squared-logit penalty that stops
    the softmax from saturating (a pinned softmax has a zero Jacobian, which
    both freezes learning and blanks the dependency analysis).

    Returns the minimized scalar: -mean(Q) plus the penalty term. The
    applied (pre-clip) gradient is the gradient of that scalar, taken in
    one backward: both terms meet at the logits, so the policy cotangent's
    softmax VJP and the penalty's cotangent are summed there and run back
    through the actor's layers together.
    """
    m = batch.size
    actor, critic = nets[agent].actor, nets[agent].critic
    obs_i = batch.obs[:, agent]
    # one actor pass gives the critic's soft input and the actor backward
    probs, actor_cache = forward(actor, obs_i, return_cache=True)
    actions = ACTION_ONE_HOTS[batch.action_indices]
    actions[:, agent] = probs
    x = _joint_input(batch.obs, actions)
    cache = forward(critic, x, return_cache=True)
    loss = float(-np.mean(cache[0][:, 0]))
    # only the agent's own action columns of the critic's input gradient
    # are needed, so its first layer enters restricted to them (a view)
    start = batch.obs.shape[2] * len(nets) + agent * N_ACTIONS
    own_slot = MlpParams(
        [critic.weights[0][:, start:start + N_ACTIONS], *critic.weights[1:]],
        critic.biases, critic.head)
    g_action = input_gradient(own_slot, x, np.full((m, 1), -1.0 / m), cache)
    del cache, x
    g_logits = _head_vjp(actor, g_action, probs)
    _acts, logits, _squeeze = actor_cache
    if logit_reg > 0.0:
        loss += logit_reg * float(np.mean(logits ** 2))
        g_logits += (2.0 * logit_reg / logits.size) * logits
    # under a linear head the actor's output is the cached logits, and the
    # upstream passes through unchanged: one backward from the logits
    body = MlpParams(actor.weights, actor.biases, "linear")
    grads = backward_params(body, obs_i, g_logits, (logits, actor_cache))
    clip_and_apply(actor, grads, nets[agent].actor_opt, max_grad_norm)
    return loss


def sync_targets(nets: list[AgentNets], tau: float) -> None:
    for a in nets:
        soft_update(a.target_actor, a.actor, tau)
        soft_update(a.target_critic, a.critic, tau)


def build_agents(scenario: ScenarioConfig, config: TrainConfig) -> list[AgentNets]:
    """Fresh per-agent networks with seeds derived from config.seed."""
    ss = np.random.SeedSequence(config.seed)
    init_ss, _explore, _sample = ss.spawn(3)
    return [
        AgentNets.create(scenario.obs_dim, scenario.joint_dim, config.hidden,
                         config.lr_actor, config.lr_critic,
                         np.random.default_rng(child))
        for child in init_ss.spawn(scenario.n_agents)
    ]


@dataclass
class TrainResult:
    scenario: ScenarioConfig
    config: TrainConfig
    nets: list[AgentNets]
    episode_rewards: np.ndarray  # (E, n) summed per-agent reward per episode
    episode_steps: np.ndarray  # (E,)
    episode_goal: np.ndarray  # (E,) bool
    episode_epsilon: np.ndarray  # (E,)
    total_env_steps: int
    update_rounds: int


@functools.lru_cache(maxsize=None)
def _retain_freed_memory() -> None:
    """Let glibc keep freed heap memory for reuse; once per process.

    An update round allocates and frees megabytes of batch-sized numpy
    temporaries. Under glibc's default, self-adjusting thresholds the heap
    top is handed back to the kernel after each round, and every page of it
    faults in again during the next: about 3,000 minor faults per round at
    batch 256. A fixed 32 MiB trim threshold keeps that memory mapped. The
    mmap threshold is fixed at 1 MiB (setting one threshold freezes both):
    a batch-256 layer array (256 KiB) comes from the heap, while arrays of
    a megabyte and more keep their own mappings, so a large batch cannot
    fragment the heap and raise the peak resident set. Only where numpy
    arrays are placed changes, not what is computed. Without glibc's
    mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 1 << 20)
    mallopt(m_trim_threshold, 32 << 20)


def _next_update(total: int, config: TrainConfig) -> int:
    """The first update step after total env steps.

    An update step is a step count S >= learning_start_step with
    S % learning_frequency == 0 and min(S, memory_size) >= batch_size;
    memory_size holds a batch, so the last is S >= batch_size.
    """
    first = max(total + 1, config.learning_start_step, config.batch_size)
    return -(-first // config.learning_frequency) * config.learning_frequency


def _play_block(states: list[WorldState], first: np.ndarray,
                budget: np.ndarray, epsilons: np.ndarray, rewards: np.ndarray,
                scenario: ScenarioConfig,
                policy: Callable[[np.ndarray], np.ndarray],
                explore_rng: np.random.Generator, buffer: ReplayBuffer
                ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray,
                           WorldState | None]:
    """Play one block of episodes in lock-step, streaming into buffer.

    World k plays on from states[k] at exploration rate epsilons[k], as
    stream steps first[k] on, for at most budget[k] steps; rewards[k]
    holds its episode's reward sums so far and gains the block's. Each
    world's exploration is drawn before the block, in the order of one
    episode after another. An episode that reaches the goal ends early,
    so the worlds after it drew theirs too soon: they are dropped, and the
    stream is rewound to that episode's end.

    Returns (kept, played, final_step, goal, carry): how many worlds are
    kept; per world, the steps it played, its last step index (0 while its
    episode runs on) and whether it reached the goal; and the last world's
    state, where the block cut its episode short.
    """
    n = scenario.n_agents
    k_worlds = len(states)
    saved = []  # the exploration stream's state before each world's draws
    picks = np.empty((k_worlds, budget.max(), n), dtype=np.int64)
    for k in range(k_worlds):
        saved.append(explore_rng.bit_generator.state)
        picks[k, :budget[k]] = _exploration(epsilons[k], budget[k], n,
                                            explore_rng)

    def act(live: np.ndarray, t: int, obs: np.ndarray) -> np.ndarray:
        return _greedy_fill(policy, obs, picks[live, t])

    played = budget.copy()
    budget = budget.copy()  # lowered to stop the worlds a goal drops
    final_step = np.zeros(k_worlds, dtype=np.int64)
    goal = np.zeros(k_worlds, dtype=bool)
    goal_at = k_worlds  # the first world whose episode reached the goal
    carry = None
    for t, (live, obs, indices, out, next_obs) in enumerate(
            _play(world.Worlds.of(states), budget, scenario, act)):
        buffer.put(first[live] + t, obs, indices, out.rewards, next_obs,
                   out.goal)
        rewards[live] += out.rewards
        if out.done.any():
            ended = live[out.done]
            played[ended] = t + 1
            final_step[ended] = out.worlds.step_index[out.done]
            goal[ended] = out.goal[out.done]
            if out.goal.any():
                goal_at = min(goal_at, live[out.goal][0])
                budget[goal_at + 1:] = 0
        if (live[-1] == k_worlds - 1 and t + 1 == budget[-1]
                and not out.done[-1]):
            carry = out.state(live.size - 1)
    if goal_at < k_worlds:
        explore_rng.bit_generator.state = saved[goal_at]
        _exploration(epsilons[goal_at], played[goal_at], n, explore_rng)
        carry = None
    return min(goal_at + 1, k_worlds), played, final_step, goal, carry


def train(config: TrainConfig,
          scenario: ScenarioConfig | None = None,
          on_episode: Callable[[int, np.ndarray, bool, list[AgentNets]], None]
          | None = None) -> TrainResult:
    """Run the full training loop. Deterministic for a fixed config.

    Between two update rounds the actors are fixed, every episode starts
    from the same reset state, and no exploration draw depends on the
    state. So the steps up to the next update step, or to the run's end,
    form a block that is played as one batch of lock-step worlds, one per
    episode (_play_block), with the results of playing one episode after
    another, bit for bit. A goal drops the episodes after it, and the next
    block starts after the goal. A block holds at most memory_size steps,
    so it writes no buffer slot twice.

    on_episode(episode, rewards, goal, nets) runs once per finished
    episode, in episode order, after the episode's block has been played;
    nets are the live networks, to be read only. It runs before the
    block-ending update round, except for an episode that ends on the
    update step itself, which gets it after the round.
    """
    config.validate()
    _retain_freed_memory()
    if scenario is None:
        scenario = world.build_scenario(config.scenario_id)
    if scenario.max_steps != config.max_episode_length:
        scenario = replace(scenario, max_steps=config.max_episode_length)
    n = scenario.n_agents

    ss = np.random.SeedSequence(config.seed)
    _init_ss, explore_ss, sample_ss = ss.spawn(3)
    explore_rng = np.random.default_rng(explore_ss)
    sample_rng = np.random.default_rng(sample_ss)
    nets = build_agents(scenario, config)

    buffer = ReplayBuffer(config.memory_size, n, scenario.obs_dim)
    ep_rewards = np.zeros((config.max_episodes, n))
    ep_steps = np.zeros(config.max_episodes, dtype=np.int64)
    ep_goal = np.zeros(config.max_episodes, dtype=bool)
    ep_eps = np.zeros(config.max_episodes)
    total_steps = 0
    rounds = 0
    episode = 0  # the first episode not yet finished
    carry: WorldState | None = None  # its state, where a block cut it short
    fresh = world.reset(scenario)

    def notify(episodes: np.ndarray) -> None:
        if on_episode is not None:
            for e in episodes:
                on_episode(int(e), ep_rewards[e], bool(ep_goal[e]), nets)

    while episode < config.max_episodes:
        update_at = _next_update(total_steps, config)
        end = min(update_at, total_steps + config.memory_size)
        # world k plays episodes[k] from stream step first[k] on, for at
        # most budget[k] steps
        states, episodes, first, budget = [], [], [], []
        state, cursor = carry or fresh, total_steps
        while episode + len(episodes) < config.max_episodes and cursor < end:
            steps = min(scenario.max_steps - state.step_index, end - cursor)
            states.append(state)
            episodes.append(episode + len(episodes))
            first.append(cursor)
            budget.append(steps)
            state, cursor = fresh, cursor + steps
        episodes, first = np.array(episodes), np.array(first)
        budget = np.array(budget)
        ep_eps[episodes] = [epsilon_for_episode(e, config) for e in episodes]
        rewards = ep_rewards[episodes]  # a copy: a cut episode's sums so far
        kept, played, final_step, goal, carry = _play_block(
            states, first, budget, ep_eps[episodes], rewards, scenario,
            _team_forward([a.actor for a in nets]), explore_rng, buffer)
        ep_rewards[episodes[:kept]] = rewards[:kept]
        ended = final_step[:kept] > 0
        finished = episodes[:kept][ended]
        ep_steps[finished] = final_step[:kept][ended]
        ep_goal[finished] = goal[:kept][ended]
        total_steps = int(first[kept - 1] + played[kept - 1])
        buffer.seek(total_steps)
        episode = int(episodes[kept - 1]) + int(ended[-1])

        update = total_steps == update_at
        # an episode that ends on the update step hears of it after the round
        late = int(update and ended[-1])
        notify(finished[:finished.size - late])
        if update:
            for i in range(n):
                batch = buffer.sample(config.batch_size, sample_rng)
                critic_update(i, nets, batch, config.gamma,
                              config.max_grad_norm)
                actor_update(i, nets, batch, config.max_grad_norm,
                             config.actor_logit_reg)
            sync_targets(nets, config.tau)
            rounds += 1
        notify(finished[finished.size - late:])

    return TrainResult(
        scenario=scenario, config=config, nets=nets,
        episode_rewards=ep_rewards,
        episode_steps=ep_steps, episode_goal=ep_goal, episode_epsilon=ep_eps,
        total_env_steps=total_steps, update_rounds=rounds,
    )


@dataclass
class Trajectory:
    """One executed episode plus everything the analysis needs from it."""

    scenario_id: str
    # T + 1 entries: the reset state, then the stepped states themselves,
    # whose positions are read-only
    states: list[WorldState]
    observations: np.ndarray  # (T, n, obs_dim), taken before each action
    action_indices: np.ndarray  # (T, n)
    rewards: np.ndarray  # (T, n)
    done_reason: str | None

    @property
    def n_steps(self) -> int:
        return self.action_indices.shape[0]

    @property
    def n_agents(self) -> int:
        return self.action_indices.shape[1]

    def reached_goal(self) -> bool:
        return self.done_reason == "goal"

    def write_csv(self, path) -> None:
        world.write_trajectory_csv(path, self.scenario_id, self.states,
                                   self.action_indices, self.rewards)


def _actor_list(nets: Sequence[AgentNets] | Sequence[ActorCritic]
                | Sequence[MlpParams]) -> list[MlpParams]:
    return [a if isinstance(a, MlpParams) else a.actor for a in nets]


def rollout(nets: Sequence[AgentNets] | Sequence[MlpParams],
            scenario: ScenarioConfig, epsilon: float = 0.0,
            rng: np.random.Generator | None = None) -> Trajectory:
    """Execute one episode. epsilon=0 gives the deterministic greedy policy."""
    actors = _actor_list(list(nets))
    n = scenario.n_agents
    if len(actors) != n:
        raise ValueError(f"{len(actors)} actors for {n} agents")
    policy = _team_forward(actors)
    states = [world.reset(scenario)]
    all_obs, all_idx, all_rew = [], [], []
    for _live, obs, indices, out, _next_obs in _play(
            world.Worlds.of(states), np.array([scenario.max_steps]), scenario,
            lambda _live, _t, o: _team_actions(policy, o[0], epsilon,
                                               rng)[None]):
        states.append(out.state(0))
        all_obs.append(obs[0])
        all_idx.append(indices[0])
        all_rew.append(out.rewards[0])
    return Trajectory(
        scenario_id=scenario.scenario_id,
        states=states,
        observations=np.stack(all_obs),
        action_indices=np.stack(all_idx),
        rewards=np.stack(all_rew),
        done_reason=states[-1].done_reason,
    )


def trailing_mean(values: Sequence[float] | np.ndarray,
                  window: int = 100) -> np.ndarray:
    """Mean of the last `window` entries at each index (fewer at the start)."""
    x = np.asarray(values, dtype=float)
    if window < 1:
        raise ValueError("window must be positive")
    csum = np.concatenate([[0.0], np.cumsum(x)])
    idx = np.arange(1, x.size + 1)
    lo = np.maximum(idx - window, 0)
    return (csum[idx] - csum[lo]) / (idx - lo)


def write_rewards_csv(path, totals: np.ndarray, window: int = 100) -> None:
    """Reward log: episode, total_reward, smoothed_reward_w100."""
    smoothed = trailing_mean(totals, window)
    with open(path, "w", newline="") as fp:
        fp.write("episode,total_reward,smoothed_reward_w100\n")
        for k in range(len(totals)):
            fp.write(f"{k},{float(totals[k])!r},{float(smoothed[k])!r}\n")


def read_rewards_csv(path) -> tuple[np.ndarray, np.ndarray]:
    totals, smoothed = [], []
    with open(path, newline="") as fp:
        header = fp.readline().strip()
        if header != "episode,total_reward,smoothed_reward_w100":
            raise ValueError(f"unrecognized reward log header: {header!r}")
        for line in fp:
            _ep, tot, smo = line.strip().split(",")
            totals.append(float(tot))
            smoothed.append(float(smo))
    return np.array(totals), np.array(smoothed)


# ---------------------------------------------------------------------------
# Checkpoints: one JSON file per agent (1-based file names). Optimizer state
# is not persisted; a loaded checkpoint is for evaluation and analysis.

def save_checkpoint(nets: Sequence[AgentNets], dirpath) -> list[str]:
    os.makedirs(dirpath, exist_ok=True)
    paths = []
    for i, a in enumerate(nets, start=1):
        doc = {
            "agent": i,
            "actor": a.actor.to_json_dict(),
            "critic": a.critic.to_json_dict(),
            "target_actor": a.target_actor.to_json_dict(),
            "target_critic": a.target_critic.to_json_dict(),
        }
        path = os.path.join(dirpath, f"agent_{i}.json")
        with open(path, "w") as fp:
            # dumps runs the C encoder in one go; dump writes the same bytes
            # through the slower pure-Python encoder
            fp.write(json.dumps(doc))
        paths.append(path)
    return paths


_CRITIC_KEYS = ("agent", "actor", "critic")
_ALL_KEYS = _CRITIC_KEYS + ("target_actor", "target_critic")
_JSON_SPACE = re.compile(r"[ \t\n\r]*")
_DECODE = json.JSONDecoder().raw_decode
# the scanner still checks every token, but a float decodes to the length of
# its text: no float object is built
_SKIM = json.JSONDecoder(parse_float=len).raw_decode


class ActorCritic(NamedTuple):
    """The part of a checkpointed agent that analysis reads."""

    actor: MlpParams
    critic_in_dim: int


def _agent_files(dirpath) -> list[str]:
    """Paths of a checkpoint's agent_<k>.json files, in label order."""
    files = sorted(
        (f for f in os.listdir(dirpath)
         if re.fullmatch(r"agent_\d+\.json", f)),
        key=lambda f: int(re.findall(r"\d+", f)[0]),
    )
    if not files:
        raise FileNotFoundError(f"no agent_<k>.json files in {dirpath}")
    return [os.path.join(dirpath, f) for f in files]


def _check_agent_doc(path: str, k: int, doc: dict,
                     keys: Sequence[str]) -> None:
    """The k-th file must carry label k and every member in keys."""
    fname = os.path.basename(path)
    if doc.get("agent") != k:
        raise ValueError(f"{fname} carries agent label {doc.get('agent')}, "
                         f"expected {k}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{fname} lacks {', '.join(missing)}")


def _leading_members(text: str, keys: Sequence[str],
                     exact: Sequence[str]) -> dict:
    """Top-level members of the JSON object in text, decoded in file order.

    Members named in exact are decoded in full. Every other member is
    skimmed: its JSON is checked, but each float in it decodes to the length
    of its text. Stops as soon as every key in keys has been read, so what
    follows those members is never parsed, nor checked. Without them all, it
    reads up to the object's end.
    """
    skip = _JSON_SPACE.match
    doc: dict = {}
    pos = skip(text).end()
    if not text.startswith("{", pos):
        raise json.JSONDecodeError("Expecting '{'", text, pos)
    pos = skip(text, pos + 1).end()
    end = text.startswith("}", pos)
    while not end and not all(key in doc for key in keys):
        key, pos = _DECODE(text, pos)
        if not isinstance(key, str):
            raise json.JSONDecodeError("Expecting property name", text, pos)
        pos = skip(text, pos).end()
        if not text.startswith(":", pos):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
        decode = _DECODE if key in exact else _SKIM
        doc[key], pos = decode(text, skip(text, pos + 1).end())
        pos = skip(text, pos).end()
        end = text.startswith("}", pos)
        if not end and not text.startswith(",", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        pos = skip(text, pos + 1).end()
    return doc


def _skimmed_in_dim(net: dict, name: str) -> int:
    """Input width of a skimmed network member, once its shape is checked.

    Each layer's weights must be a non-empty list of rows of one length, with
    one bias per row. The numbers themselves are not checked.
    """
    layers = net["layers"]
    if not layers:
        raise ValueError(f"{name} has no layers")
    for layer in layers:
        w, b = layer["w"], layer["b"]
        if not (isinstance(w, list) and w and isinstance(b, list)
                and len(b) == len(w) and all(isinstance(r, list) for r in w)
                and len(set(map(len, w))) == 1):
            raise ValueError(f"{name} has a layer that is not a rectangular "
                             f"weight matrix with one bias per row")
    return len(layers[0]["w"][0])


def load_actor_critics(dirpath) -> list[ActorCritic]:
    """Each agent's actor, and its critic's input width.

    Analysis runs the actors only. The critic is skimmed: its JSON and layer
    shapes are checked and its input width is read, but none of its numbers
    is converted. save_checkpoint writes the target networks after the
    critic, so they are never parsed. A file in another valid JSON layout or
    key order reads the same, though target networks written before agent,
    actor and critic are then skimmed too. A wrong but well-formed number in
    a critic or a target network goes unnoticed here; load_checkpoint
    converts and checks every member.
    """
    out = []
    for k, path in enumerate(_agent_files(dirpath), start=1):
        with open(path) as fp:
            doc = _leading_members(fp.read(), _CRITIC_KEYS,
                                   exact=("agent", "actor"))
        _check_agent_doc(path, k, doc, _CRITIC_KEYS)
        name = f"{os.path.basename(path)} critic"
        out.append(ActorCritic(MlpParams.from_json_dict(doc["actor"]),
                               _skimmed_in_dim(doc["critic"], name)))
    return out


def load_checkpoint(dirpath) -> list[AgentNets]:
    """Every network of each agent, with fresh optimizers at the default
    learning rates."""
    nets = []
    for k, path in enumerate(_agent_files(dirpath), start=1):
        with open(path) as fp:
            doc = json.load(fp)
        _check_agent_doc(path, k, doc, _ALL_KEYS)
        actor = MlpParams.from_json_dict(doc["actor"])
        critic = MlpParams.from_json_dict(doc["critic"])
        nets.append(AgentNets(
            actor=actor,
            critic=critic,
            target_actor=MlpParams.from_json_dict(doc["target_actor"]),
            target_critic=MlpParams.from_json_dict(doc["target_critic"]),
            actor_opt=OptimizerState.for_params(actor, TrainConfig.lr_actor),
            critic_opt=OptimizerState.for_params(critic,
                                                 TrainConfig.lr_critic),
        ))
    return nets
