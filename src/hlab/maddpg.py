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

Training runs in TRAIN_DTYPE, float32: every network and Adam moment, the
replay buffer's observations and rewards, and so every update round. The
teams act, and are analysed, on float64 widenings of the actors
(_team_actors), so a rollout or an analysis of live networks equals that
of their saved checkpoint.
"""
from __future__ import annotations

import ctypes
import functools
import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from hlab import world
from hlab.nn import (
    MlpParams,
    OptimizerState,
    _head_vjp,
    backward_params,
    clip_and_apply,
    forward,
    init_params,
    input_gradient,
    soft_update,
)
from hlab.world import ACTION_ONE_HOTS, N_ACTIONS, ScenarioConfig, WorldState


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}

# the one training precision: networks, optimizer state, replay, updates
TRAIN_DTYPE = np.float32


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
        if str(self.scenario_id).lower() not in world.SCENARIO_IDS:
            raise ValueError(f"unknown scenario {self.scenario_id!r}; "
                             "expected one of a, b, c")
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
    """One agent's networks and optimizers. A loaded checkpoint has no
    optimizers: Adam's moments are not saved, so it cannot be trained on.
    create's networks are TRAIN_DTYPE, a loaded checkpoint's float64."""

    actor: MlpParams
    critic: MlpParams
    target_actor: MlpParams
    target_critic: MlpParams
    actor_opt: OptimizerState | None = None
    critic_opt: OptimizerState | None = None

    @classmethod
    def create(cls, obs_dim: int, joint_dim: int, hidden: Sequence[int],
               lr_actor: float, lr_critic: float,
               rng: np.random.Generator) -> "AgentNets":
        # drawn in float64, then rounded: the seeded draws do not change
        actor = init_params(obs_dim, hidden, N_ACTIONS, "softmax",
                            rng).astype(TRAIN_DTYPE)
        critic = init_params(joint_dim, hidden, 1, "linear",
                             rng).astype(TRAIN_DTYPE)
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
    """A sample of transitions; the float fields share one dtype."""

    obs: np.ndarray  # (m, n, obs_dim)
    action_indices: np.ndarray  # (m, n), int8 when sampled
    rewards: np.ndarray  # (m, n)
    next_obs: np.ndarray  # (m, n, obs_dim)
    terminal: np.ndarray  # (m,) 0/1

    @property
    def size(self) -> int:
        return self.obs.shape[0]


class ReplayBuffer:
    """Fixed-capacity ring buffer of a transition stream, each observation
    stored once.

    Transition s of the stream (numbered from 0) lives in slot
    s % (capacity + 1), which holds its actions, rewards and terminal flag
    and the row of its next observation. The buffer holds the stream's
    last capacity transitions; the one slot more keeps the newest
    transition's next observation off the oldest one's observation. The
    observations live in one array of 2 * (capacity + 1) rows:

    - an observation ring, rows [0, capacity]: ring row s % (capacity + 1)
      holds transition s's next observation where the episode goes on,
      which is transition s + 1's observation. So transition s's
      observation sits in the row before its slot's, (s - 1) % (capacity
      + 1), written as transition s - 1's next observation or, for a world
      that starts at s, as its first observation;
    - final rows [capacity + 1, 2 * (capacity + 1)): the next observation
      of a transition that ends its episode, by goal or by timeout. Episode
      e's goes to row capacity + 1 + e % (capacity + 1). The buffer holds
      at most capacity episode ends, so those rows never collide, and
      consecutive episodes write consecutive rows: the written part of the
      array stays dense, which matters where large arrays are backed by
      huge pages.

    sample picks slots as a ring of capacity slots would and returns what
    one array of observations and one of next observations would hold.
    Observations and rewards are stored, and sampled, in TRAIN_DTYPE.

    A buffer is filled by put (a stream of lock-step worlds, which says
    where episodes end) or by push (a one-row put of a transition that
    ends an episode of its own), never both: their final rows would collide.
    A goal rewind has put write transitions past the held stream that are
    written again later. sample reads the held transitions right as long
    as nothing past them was written after them, which holds at every
    update step of train.
    """

    def __init__(self, capacity: int, n_agents: int, obs_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._slots = slots = capacity + 1  # also the first final row
        self._obs = np.zeros((2 * slots, n_agents, obs_dim), TRAIN_DTYPE)
        self._idx = np.zeros((slots, n_agents), dtype=np.int8)  # 0..4
        self._rew = np.zeros((slots, n_agents), TRAIN_DTYPE)
        self._next_row = np.zeros(slots, dtype=np.int64)
        self._term = np.zeros(slots, dtype=bool)
        self._total = 0  # stream transitions held so far

    def __len__(self) -> int:
        return min(self._total, self.capacity)

    def push(self, tr: Transition) -> None:
        """Append one transition: a one-row put that ends an episode
        numbered by the transition's step."""
        s = np.array([self._total])
        self.put(steps=s, episodes=s, action_indices=[tr.action_indices],
                 rewards=[tr.rewards], next_obs=[tr.next_obs],
                 terminal=[tr.terminal], done=np.array([True]),
                 obs=[tr.obs])
        self.seek(self._total + 1)

    def put(self, steps: np.ndarray, episodes: np.ndarray,
            action_indices: np.ndarray, rewards: np.ndarray,
            next_obs: np.ndarray, terminal: np.ndarray, done: np.ndarray,
            obs: np.ndarray | None = None) -> None:
        """Store transitions of a stream, row r at slot steps[r] %
        (capacity + 1).

        steps numbers each row's transition in the stream, from 0, and
        episodes its episode; done marks the rows that end their episode,
        terminal those that end it at the goal. The other arguments stack a
        Transition's fields along a leading axis. A transition's
        observation is the next observation its world's previous
        transition stored, so obs is given only where every row is the
        first transition of its world: the observations the worlds start
        from. seek then says how much of the stream the buffer holds.
        """
        if obs is not None:
            self._obs[(steps - 1) % self._slots] = obs
        k = steps % self._slots
        rows = k
        if done.any():
            rows = np.where(done, self._slots + episodes % self._slots, k)
        self._obs[rows] = next_obs
        self._idx[k] = action_indices
        self._rew[k] = rewards
        self._next_row[k] = rows
        self._term[k] = terminal

    def seek(self, total: int) -> None:
        """Hold the stream's first total transitions, as after total pushes."""
        self._total = total

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        size = len(self)
        if size < batch_size:
            raise ValueError(f"buffer holds {size} transitions, "
                             f"cannot sample {batch_size}")
        pick = rng.choice(size, size=batch_size, replace=False)
        # the draws pick slots of a ring of capacity slots; slot pick
        # holds the newest stream step s with s % capacity == pick
        last = self._total - 1
        steps = last - (last - pick) % self.capacity
        k = steps % self._slots
        return Batch(
            obs=self._obs[(steps - 1) % self._slots],
            action_indices=self._idx[k],
            rewards=self._rew[k],
            next_obs=self._obs[self._next_row[k]],
            terminal=self._term[k].astype(TRAIN_DTYPE),
        )


def _joint_input(obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """(m, n, od) + (m, n, 5) -> (m, n*od + n*5) critic input."""
    m = obs.shape[0]
    return np.hstack([obs.reshape(m, -1), actions.reshape(m, -1)])


def _one_hots(batch: Batch) -> np.ndarray:
    """The batch's executed actions as one-hots (m, n, 5), in its dtype."""
    return ACTION_ONE_HOTS.astype(batch.obs.dtype)[batch.action_indices]


def select_action(actor: MlpParams, obs: np.ndarray, epsilon: float,
                  rng: np.random.Generator | None = None
                  ) -> tuple[int, np.ndarray]:
    """Pick an executed action index; also return the actor's soft output.

    epsilon > 0 requires an rng; with probability epsilon the executed action
    is uniform over the five choices, otherwise the argmax of the actor.
    train and rollout act for the whole team through _greedy_fill over
    _exploration's picks instead; this per-agent form is kept as the
    reference that the team path is tested against.
    """
    probs = forward(actor, obs)
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("exploration requires an rng")
        if rng.random() < epsilon:
            return int(rng.integers(N_ACTIONS)), probs
    return int(np.argmax(probs)), probs


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


def _greedy_fill(team: MlpParams, obs: np.ndarray,
                 picks: np.ndarray) -> np.ndarray:
    """picks (..., n) with each -1 replaced by that agent's greedy action.

    team is the actors stacked by MlpParams.stack and obs (..., n, d) the
    teams' observations; agent i's row runs through its own actor as one
    (1, d) row, so its output equals forward(actors[i], obs[..., i, :])
    bit for bit. The actors run only for teams in which some agent acts
    greedily.
    """
    greedy = picks < 0
    if greedy.all():
        return forward(team, obs[..., None, :])[..., 0, :].argmax(axis=-1)
    teams = greedy.any(axis=-1).nonzero()[0]
    if teams.size:
        probs = forward(team, obs[teams][..., None, :])[..., 0, :]
        picks[teams] = np.where(greedy[teams], probs.argmax(axis=-1),
                                picks[teams])
    return picks


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
    x = _joint_input(batch.obs, _one_hots(batch))
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
    actions = _one_hots(batch)
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
    g_action = input_gradient(own_slot, x, np.full((m, 1), -1.0 / m, x.dtype),
                              cache)
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


def _seed_streams(config: TrainConfig) -> dict[str, np.random.SeedSequence]:
    """SeedSequence(config.seed)'s children by name, in spawn order; a new
    stream goes last, which leaves the others as they are."""
    init, explore, sample = np.random.SeedSequence(config.seed).spawn(3)
    return {"init": init, "explore": explore, "sample": sample}


def build_agents(scenario: ScenarioConfig, config: TrainConfig) -> list[AgentNets]:
    """Fresh per-agent networks with seeds derived from config.seed."""
    return [
        AgentNets.create(scenario.obs_dim, scenario.joint_dim, config.hidden,
                         config.lr_actor, config.lr_critic,
                         np.random.default_rng(child))
        for child in _seed_streams(config)["init"].spawn(scenario.n_agents)
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
    faults in again during the next. A fixed 32 MiB trim threshold keeps
    that memory mapped. Setting one threshold freezes both, so the mmap
    threshold is fixed too, at glibc's 32 MiB maximum: a (1256, 128)
    float32 temporary of a batch-1256 round (643 kB) then comes from the
    heap as well, instead of a fresh mapping whose 158 pages fault in on
    every use. Measured when training was float64, whose temporaries are
    twice those sizes, on a 2-vCPU x86_64 host (glibc 2.36,
    OPENBLAS_NUM_THREADS=1): about 3,000 minor faults per round at batch
    256 under the default; scenario c at batch 1256 (hidden 128/64),
    against a 1 MiB mmap threshold, 80 episodes took 3.9-4.2k minor faults
    instead of 33.4k, and 400 episodes 4.1-4.3k instead of 183.5-183.8k,
    with peak resident sets of 53.4-54.0 against 54.0 MB and of 61.6-62.2
    against 60.9-62.2 MB, so the retained heap did not raise the peak.
    Only where numpy arrays are placed changes, not what is computed.
    Without glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 32 << 20)


def _next_update(total: int, config: TrainConfig) -> int:
    """The first update step after total env steps.

    An update step is a step count S >= learning_start_step with
    S % learning_frequency == 0 and min(S, memory_size) >= batch_size;
    memory_size holds a batch, so the last is S >= batch_size.
    """
    first = max(total + 1, config.learning_start_step, config.batch_size)
    return -(-first // config.learning_frequency) * config.learning_frequency


def _play_block(states: list[WorldState], episodes: np.ndarray,
                first: np.ndarray, budget: np.ndarray, epsilons: np.ndarray,
                rewards: np.ndarray, scenario: ScenarioConfig,
                team: MlpParams, explore_rng: np.random.Generator,
                buffer: ReplayBuffer
                ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray,
                           WorldState | None]:
    """Play one block of episodes in lock-step, streaming into buffer.

    World k plays on from states[k] episode episodes[k] at exploration
    rate epsilons[k], as stream steps first[k] on, for at most budget[k]
    steps; rewards[k] holds its episode's reward sums so far and gains
    the block's. Each world's exploration is drawn before the block, in
    the order of one episode after another. An episode that reaches the
    goal ends early, so the worlds after it drew theirs too soon: they are
    dropped, and the stream is rewound to that episode's end.

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
        return _greedy_fill(team, obs, picks[live, t])

    played = budget.copy()
    budget = budget.copy()  # lowered to stop the worlds a goal drops
    final_step = np.zeros(k_worlds, dtype=np.int64)
    goal = np.zeros(k_worlds, dtype=bool)
    goal_at = k_worlds  # the first world whose episode reached the goal
    carry = None
    for t, (live, obs, indices, out, next_obs) in enumerate(
            _play(world.Worlds.of(states), budget, scenario, act)):
        buffer.put(first[live] + t, episodes[live], indices, out.rewards,
                   next_obs, out.goal, out.done, obs if t == 0 else None)
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

    streams = _seed_streams(config)
    explore_rng = np.random.default_rng(streams["explore"])
    sample_rng = np.random.default_rng(streams["sample"])
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
            states, episodes, first, budget, ep_eps[episodes], rewards,
            scenario, MlpParams.stack(_team_actors(nets, scenario)),
            explore_rng, buffer)
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
    # (T + 1, n + 1, 2) each, in Worlds' body order (the agents, then the
    # box): the reset row, then the state after each step
    pos: np.ndarray
    vel: np.ndarray
    observations: np.ndarray  # (T, n, obs_dim), taken before each action
    action_indices: np.ndarray  # (T, n)
    rewards: np.ndarray  # (T, n)
    done_reason: str  # "goal" | "timeout": step T ends the episode

    @property
    def n_steps(self) -> int:
        return self.action_indices.shape[0]

    @property
    def n_agents(self) -> int:
        return self.action_indices.shape[1]

    def reached_goal(self) -> bool:
        return self.done_reason == "goal"

    def write_csv(self, path) -> None:
        world.write_trajectory_csv(path, self.scenario_id, self.pos[1:],
                                   self.vel[1:], self.action_indices,
                                   self.rewards,
                                   np.arange(self.n_steps) == self.n_steps - 1)


class IncompatibilityError(ValueError):
    """A team's networks do not fit the scenario they are to act in."""


def _team_actors(nets: Sequence[AgentNets] | Sequence[MlpParams],
                 scenario: ScenarioConfig) -> list[MlpParams]:
    """The team's actors, once checked against the scenario, as float64
    widenings; raises IncompatibilityError, naming the agent 1-based, if
    the team misfits.

    Widening is exact, so live float32 networks act and are analysed as
    their saved checkpoint is, bit for bit.

    One actor per agent, each a softmax over the N_ACTIONS actions on the
    scenario's observations with agent 1's layer widths, so that the team
    acts as one MlpParams.stack; an AgentNets team's critics must take the
    scenario's joint input.
    """
    nets = list(nets)
    actors = [a if isinstance(a, MlpParams) else a.actor for a in nets]
    n = scenario.n_agents
    if len(actors) != n:
        raise IncompatibilityError(
            f"{len(actors)} actors for {n} agents of scenario "
            f"{scenario.scenario_id!r}")
    dims = [[a.in_dim] + [w.shape[0] for w in a.weights] for a in actors]
    for k, (a, actor) in enumerate(zip(nets, actors), start=1):
        if actor.in_dim != scenario.obs_dim:
            raise IncompatibilityError(
                f"agent {k} actor expects {actor.in_dim}-dim input, scenario "
                f"{scenario.scenario_id!r} observations are "
                f"{scenario.obs_dim}-dim")
        if actor.head != "softmax" or actor.out_dim != N_ACTIONS:
            raise IncompatibilityError(
                f"agent {k} actor is a {actor.head} head with "
                f"{actor.out_dim} outputs, not a softmax over {N_ACTIONS} "
                f"actions")
        if dims[k - 1] != dims[0]:
            raise IncompatibilityError(
                f"agent {k} actor has layer widths {dims[k - 1]}, agent 1's "
                f"has {dims[0]}")
        if isinstance(a, AgentNets) and a.critic.in_dim != scenario.joint_dim:
            raise IncompatibilityError(
                f"agent {k} critic expects {a.critic.in_dim}-dim input, "
                f"scenario joint input is {scenario.joint_dim}-dim")
    return [a.astype(float) for a in actors]


def rollout(nets: Sequence[AgentNets] | Sequence[MlpParams],
            scenario: ScenarioConfig, epsilon: float = 0.0,
            rng: np.random.Generator | None = None) -> Trajectory:
    """Execute one episode. epsilon=0 gives the deterministic greedy policy."""
    team = MlpParams.stack(_team_actors(nets, scenario))
    n = scenario.n_agents
    start = world.Worlds.of([world.reset(scenario)])
    _live, obs, indices, outs, _next_obs = zip(*_play(
        start, np.array([scenario.max_steps]), scenario,
        lambda _live, _t, o: _greedy_fill(
            team, o, _exploration(epsilon, 1, n, rng))))
    # the budget is the horizon, so the last step ends the episode
    return Trajectory(
        scenario_id=scenario.scenario_id,
        pos=np.concatenate([start.pos, *(out.worlds.pos for out in outs)]),
        vel=np.concatenate([start.vel, *(out.worlds.vel for out in outs)]),
        observations=np.concatenate(obs),
        action_indices=np.concatenate(indices),
        rewards=np.concatenate([out.rewards for out in outs]),
        done_reason="goal" if outs[-1].goal[0] else "timeout",
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


def write_rewards_csv(path, totals: np.ndarray) -> None:
    """Reward log: episode, total_reward, smoothed_reward_w100."""
    smoothed = trailing_mean(totals)
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
# Checkpoints: per agent (1-based file names), a small JSON header
# agent_<k>.json and its payload agent_<k>.f64 beside it. The header holds
# the agent label and, for each member in _NETS order, {"head", "dims"} with
# dims = [in_dim, *hidden, out_dim]. The payload is the members'
# MlpParams.flatten() vectors, concatenated in that order, as raw
# little-endian float64, so every value reads back bit for bit. Optimizer
# state is not persisted; a loaded checkpoint is for evaluation and analysis.

_NETS = ("actor", "critic", "target_actor", "target_critic")


def _payload_path(header_path: str) -> str:
    """agent_<k>.f64 beside agent_<k>.json, named from the header's file
    name, never from anything the header holds."""
    return os.path.splitext(header_path)[0] + ".f64"


def save_checkpoint(nets: Sequence[AgentNets], dirpath) -> list[str]:
    """Write every agent's header and payload; returns the header paths."""
    os.makedirs(dirpath, exist_ok=True)
    paths = []
    for i, a in enumerate(nets, start=1):
        members = [getattr(a, key) for key in _NETS]
        header = {"agent": i}
        for key, params in zip(_NETS, members):
            header[key] = {"head": params.head,
                           "dims": [params.in_dim,
                                    *(w.shape[0] for w in params.weights)]}
        path = os.path.join(dirpath, f"agent_{i}.json")
        with open(path, "w") as fp:
            fp.write(json.dumps(header))
        flat = np.concatenate([params.flatten() for params in members])
        with open(_payload_path(path), "wb") as fp:
            fp.write(flat.astype("<f8", copy=False))
        paths.append(path)
    return paths


def _agent_files(dirpath) -> list[str]:
    """Paths of a checkpoint's agent_<k>.json headers, in label order.

    k is one or more decimal digits, any that str.isdecimal (and so a
    regex's \\d) accepts; each file keeps its own name.
    """
    labelled = []
    for f in os.listdir(dirpath):
        label = f[len("agent_"):-len(".json")]
        if f.startswith("agent_") and f.endswith(".json") \
                and label.isdecimal():
            labelled.append((int(label), f))
    if not labelled:
        raise FileNotFoundError(f"no agent_<k>.json files in {dirpath}")
    return [os.path.join(dirpath, f) for _k, f in sorted(labelled)]


def _check_agent_doc(fname: str, k: int, doc) -> None:
    """The k-th file must be an object carrying label k and every network."""
    if not isinstance(doc, dict):
        raise ValueError(f"{fname} holds no JSON object")
    label = doc.get("agent")
    if type(label) is not int or label != k:
        raise ValueError(f"{fname} carries agent label {label}, "
                         f"expected {k}")
    missing = [key for key in _NETS if key not in doc]
    if missing:
        raise ValueError(f"{fname} lacks {', '.join(missing)}")


def _member_shape(member) -> tuple[str, list[int]]:
    """A header member's head and dims, checked; old layouts by name."""
    if not isinstance(member, dict):
        raise ValueError("holds no JSON object")
    if "layers" in member:
        raise ValueError("holds w/b lists, the old decimal checkpoint "
                         "layout, which is no longer read")
    if "f64" in member:
        raise ValueError("holds an f64 string, the old base64 checkpoint "
                         "layout, which is no longer read")
    missing = [key for key in ("head", "dims") if key not in member]
    if missing:
        raise ValueError(f"lacks {', '.join(missing)}")
    head, dims = member["head"], member["dims"]
    if head not in ("linear", "softmax"):
        raise ValueError(f"unknown head {head!r}")
    if not (isinstance(dims, list) and len(dims) >= 2 and all(
            type(d) is int and d >= 1 for d in dims)):
        raise ValueError(f"dims must be a list of at least two positive "
                         f"integers, got {dims!r}")
    return head, dims


def _read_payload(path: str, need: int) -> np.ndarray:
    """The need float64 values of a payload file that holds exactly them.

    The size on disk is checked before anything is read or allocated, so
    that a header with huge dims cannot exhaust memory.
    """
    fname = os.path.basename(path)
    with open(path, "rb") as fp:
        size = os.fstat(fp.fileno()).st_size
        if size != 8 * need:
            raise ValueError(f"{fname} holds {size} bytes, the header's dims "
                             f"need {8 * need}")
        flat = np.empty(need, dtype="<f8")
        got = fp.readinto(flat)
    if got != size:
        raise ValueError(f"{fname} gave {got} of its {size} bytes")
    return flat


def load_checkpoint(dirpath) -> list[AgentNets]:
    """Every network of each agent, without optimizers, in fresh writable
    float64 arrays.

    Every header member is checked (its head and layer widths), and the
    payload must hold exactly the values they need. A header in any JSON
    layout or key order reads the same; the old decimal and base64 layouts
    are rejected by name.
    """
    nets = []
    for k, path in enumerate(_agent_files(dirpath), start=1):
        fname = os.path.basename(path)
        with open(path, encoding="utf-8") as fp:
            try:
                doc = json.load(fp)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"{fname} is not valid JSON: {exc}") from exc
        _check_agent_doc(fname, k, doc)
        shapes = []
        for key in _NETS:
            try:
                shapes.append(_member_shape(doc[key]))
            except ValueError as exc:
                raise ValueError(f"{fname} {key}: {exc}") from exc
        flat = _read_payload(_payload_path(path), sum(
            o * (i + 1) for _head, dims in shapes
            for i, o in zip(dims, dims[1:])))
        # every array is a view of the agent's fresh payload buffer, in
        # flatten() order: no copy, and no second allocation to fault in
        params, start = {}, 0
        for key, (head, dims) in zip(_NETS, shapes):
            weights, biases = [], []
            for i, o in zip(dims, dims[1:]):
                weights.append(flat[start:start + o * i].reshape(o, i))
                biases.append(flat[start + o * i:start + o * (i + 1)])
                start += o * (i + 1)
            params[key] = MlpParams(weights, biases, head)
        nets.append(AgentNets(**params))
    return nets
