"""2D box-pushing world: scenarios, particle dynamics, rewards, observations.

Coordinate frame: origin at the arena center, x right, y up. The arena is the
square |x| <= world_bound, |y| <= world_bound (world_bound = 1 by default);
its edge is a penalty line, not a wall, so bodies can move past it and agents
that do collect a boundary penalty each step. All bodies are discs. Three
scenarios (a, b, c) share the same agent/box starts and differ in target
position and obstacle count:

    a: target (-0.9, 0.9), obstacles at (-0.3, 0) and (0.3, 0)
    b: target ( 0.9, 0.9), obstacles at (-0.3, 0) and (0.3, 0)
    c: target ( 0.0, 0.9), single obstacle at (0, 0)

Dynamics are semi-implicit Euler with per-step linear velocity damping:

    vel <- vel * (1 - damping) + (force / mass) * dt
    pos <- pos + vel * dt

Disc contacts apply a soft repulsive force along the center line, with a
softplus ramp of the penetration depth (stiffness * margin *
log(1 + exp((r_sum - dist) / margin))), so trajectories stay deterministic.

Actions are discrete one-hot 5-vectors: indices 0..4 = left, right, down,
up, stay; a chosen direction applies a constant force of magnitude `force`
along that axis for one step.
"""
from __future__ import annotations

import csv
import functools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

ACTION_NAMES = ("left", "right", "down", "up", "stay")
ACTION_DIRECTIONS = np.array(
    [[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [0.0, 0.0]]
)
N_ACTIONS = 5
ACTION_ONE_HOTS = np.eye(N_ACTIONS)  # row k is the one-hot of action k
ACTION_ONE_HOTS.setflags(write=False)

SCENARIO_IDS = ("a", "b", "c")

TRAJECTORY_MAGIC = "hlab-trajectory v1"


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, dynamics constants and task parameters of one scenario.

    Frozen and validated on construction; build a variant with
    dataclasses.replace or build_scenario(id, **overrides). What step and
    observe derive from the fields is built once per config object, so the
    list fields must not be mutated in place either.
    """

    scenario_id: str
    agent_starts: list[tuple[float, float]]
    agent_radius: float
    box_start: tuple[float, float]
    box_radius: float
    obstacles: list[tuple[tuple[float, float], float]]
    target: tuple[tuple[float, float], float]
    world_bound: float = 1.0
    max_steps: int = 50
    dt: float = 0.1
    damping: float = 0.25
    stiffness: float = 100.0
    contact_margin: float = 1e-3
    force: float = 1.0
    agent_mass: float = 1.0
    box_mass: float = 1.0
    # goal fires when dist(box center, target center) < goal_threshold;
    # None resolves to box_radius + target_radius (disc overlap)
    goal_threshold: float | None = None

    def __post_init__(self) -> None:
        self.validate()

    @property
    def n_agents(self) -> int:
        return len(self.agent_starts)

    @property
    def n_obstacles(self) -> int:
        return len(self.obstacles)

    @property
    def goal_distance(self) -> float:
        if self.goal_threshold is not None:
            return self.goal_threshold
        return self.box_radius + self.target[1]

    def validate(self) -> None:
        if self.n_agents < 1:
            raise ValueError("scenario needs at least one agent")
        radii = [self.agent_radius, self.box_radius, self.target[1]]
        radii += [r for _, r in self.obstacles]
        if any(r <= 0 for r in radii):
            raise ValueError("all radii must be positive")
        for pos in [*self.agent_starts, self.box_start]:
            if max(abs(pos[0]), abs(pos[1])) >= self.world_bound:
                raise ValueError(f"start position {pos} not strictly inside the arena")
        bx, by = self.box_start
        for (ox, oy), orad in self.obstacles:
            if math.hypot(ox - bx, oy - by) < orad + self.box_radius:
                raise ValueError("obstacle overlaps the box start")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")

    def layout(self, agent_index: int) -> "ObservationLayout":
        return ObservationLayout(self.n_agents, self.n_obstacles, agent_index)

    @property
    def obs_dim(self) -> int:
        """Width of every agent's observation vector."""
        return self.layout(0).total_dim

    @property
    def joint_dim(self) -> int:
        """Width of a critic's input: every observation, every action."""
        return self.n_agents * (self.obs_dim + N_ACTIONS)

    @functools.cached_property
    def _geometry(self) -> "_Geometry":
        n = self.n_agents
        radii = np.array([self.agent_radius] * n + [self.box_radius]
                         + [r for _p, r in self.obstacles], dtype=float)
        geo = _Geometry(
            statics=np.array([p for p, _r in self.obstacles],
                             dtype=float).reshape(-1, 2),
            radius_sums=radii[:, None] + radii[:n + 1],
            target=np.array(self.target[0], dtype=float),
            mass=np.array([[self.agent_mass]] * n + [[self.box_mass]],
                          dtype=float),
        )
        for arr in (geo.statics, geo.radius_sums, geo.target, geo.mass):
            arr.setflags(write=False)
        return geo

    @functools.cached_property
    def _gather(self) -> tuple[np.ndarray, np.ndarray]:
        return _observation_gather(self)

    def to_json_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "agents": [
                {"pos": list(p), "radius": self.agent_radius} for p in self.agent_starts
            ],
            "box": {"pos": list(self.box_start), "radius": self.box_radius},
            "obstacles": [
                {"pos": list(p), "radius": r} for p, r in self.obstacles
            ],
            "target": {"pos": list(self.target[0]), "radius": self.target[1]},
            "world_bound": self.world_bound,
            "max_steps": self.max_steps,
            "dt": self.dt,
            "damping": self.damping,
            "stiffness": self.stiffness,
            "contact_margin": self.contact_margin,
            "force": self.force,
            "agent_mass": self.agent_mass,
            "box_mass": self.box_mass,
            "goal_threshold": self.goal_threshold,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScenarioConfig":
        agents = doc["agents"]
        return cls(
            scenario_id=doc["scenario_id"],
            agent_starts=[tuple(a["pos"]) for a in agents],
            agent_radius=float(agents[0]["radius"]),
            box_start=tuple(doc["box"]["pos"]),
            box_radius=float(doc["box"]["radius"]),
            obstacles=[(tuple(o["pos"]), float(o["radius"])) for o in doc["obstacles"]],
            target=(tuple(doc["target"]["pos"]), float(doc["target"]["radius"])),
            world_bound=float(doc["world_bound"]),
            max_steps=int(doc["max_steps"]),
            dt=float(doc["dt"]),
            damping=float(doc["damping"]),
            stiffness=float(doc["stiffness"]),
            contact_margin=float(doc.get("contact_margin", 1e-3)),
            force=float(doc["force"]),
            agent_mass=float(doc.get("agent_mass", 1.0)),
            box_mass=float(doc.get("box_mass", 1.0)),
            goal_threshold=doc.get("goal_threshold"),
        )

    def to_json(self, fp: IO[str] | None = None) -> str:
        text = json.dumps(self.to_json_dict(), indent=2)
        if fp is not None:
            fp.write(text)
        return text


def build_scenario(scenario_id: str, **overrides) -> ScenarioConfig:
    """Return the configured geometry of scenario 'a', 'b' or 'c'."""
    sid = str(scenario_id).lower()
    if sid not in SCENARIO_IDS:
        raise ValueError(f"unknown scenario {scenario_id!r}; expected one of a, b, c")
    if sid == "c":
        obstacles = [((0.0, 0.0), 0.2)]
        target_pos = (0.0, 0.9)
    else:
        obstacles = [((-0.3, 0.0), 0.2), ((0.3, 0.0), 0.2)]
        target_pos = (-0.9, 0.9) if sid == "a" else (0.9, 0.9)
    # force 3.0: under the default 1.0, three agents pushing in concert move
    # the box at most ~0.9 units over a 50-step episode, while every named
    # target sits >1.6 route units away once the detour around the obstacles
    # is counted, so the tasks would be unwinnable by construction; 3.0 puts
    # the route within reach with a handful of steps to spare
    overrides.setdefault("force", 3.0)
    return ScenarioConfig(
        scenario_id=sid,
        agent_starts=[(0.0, -0.75), (0.5, -0.75), (-0.5, -0.75)],
        agent_radius=0.05,
        box_start=(0.0, -0.5),
        box_radius=0.075,
        obstacles=obstacles,
        target=(target_pos, 0.075),
        **overrides,
    )


@dataclass
class WorldState:
    """Kinematic snapshot of all movable bodies plus episode bookkeeping.

    A state that `step` returns has read-only positions, since it carries
    their pair geometry to the next step; `copy()` gives writable arrays.
    """

    step_index: int
    agent_pos: np.ndarray  # (n, 2)
    agent_vel: np.ndarray  # (n, 2)
    box_pos: np.ndarray  # (2,)
    box_vel: np.ndarray  # (2,)
    done: bool = False
    done_reason: str | None = None  # "goal" | "timeout" | None
    _pairs: "_PairGeometry | None" = field(default=None, repr=False,
                                           compare=False)

    def copy(self) -> "WorldState":
        return WorldState(
            step_index=self.step_index,
            agent_pos=self.agent_pos.copy(),
            agent_vel=self.agent_vel.copy(),
            box_pos=self.box_pos.copy(),
            box_vel=self.box_vel.copy(),
            done=self.done,
            done_reason=self.done_reason,
        )


@dataclass
class ContactReport:
    """Per-step contact/boundary events, as seen after integration."""

    pushes: np.ndarray  # (n,) bool: agent overlaps box and moves toward its center
    agent_collisions: np.ndarray  # (n,) bool: agent overlaps some other agent
    box_obstacle_collision: bool
    out_of_bounds: np.ndarray  # (n,) bool


@dataclass
class RewardBreakdown:
    """Per-agent reward components of one step (Def.: r = dis+push+goal+col+bound)."""

    r_dis: np.ndarray
    r_push: np.ndarray
    r_goal: np.ndarray
    r_col: np.ndarray
    r_bound: np.ndarray

    def totals(self) -> np.ndarray:
        return self.r_dis + self.r_push + self.r_goal + self.r_col + self.r_bound


@dataclass
class StepOutcome:
    next_state: WorldState
    rewards: np.ndarray  # (n,)
    breakdown: RewardBreakdown
    contacts: ContactReport
    done: bool


@dataclass(frozen=True)
class ObservationLayout:
    """Index map of one agent's observation vector.

    Slot order: own position (2), own velocity (2), obstacle displacements
    (2 per obstacle, obstacle - self), self-to-target displacement (2),
    box-to-target displacement (2), then teammate absolute positions
    (2 per teammate, ascending agent index) and teammate absolute velocities
    (2 per teammate, same order).
    """

    n_agents: int
    n_obstacles: int
    observer: int

    @property
    def total_dim(self) -> int:
        return 8 + 2 * self.n_obstacles + 4 * (self.n_agents - 1)

    @property
    def self_pos(self) -> slice:
        return slice(0, 2)

    @property
    def self_vel(self) -> slice:
        return slice(2, 4)

    def obstacle_rel(self, k: int) -> slice:
        if not 0 <= k < self.n_obstacles:
            raise ValueError(f"obstacle index {k} out of range")
        return slice(4 + 2 * k, 6 + 2 * k)

    @property
    def self_to_target(self) -> slice:
        base = 4 + 2 * self.n_obstacles
        return slice(base, base + 2)

    @property
    def box_to_target(self) -> slice:
        base = 6 + 2 * self.n_obstacles
        return slice(base, base + 2)

    @property
    def teammates(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n_agents) if j != self.observer)

    def _teammate_slot(self, j: int) -> int:
        if j == self.observer:
            raise ValueError("observer has no teammate slots for itself")
        try:
            return self.teammates.index(j)
        except ValueError:
            raise ValueError(f"agent {j} is not observed by agent {self.observer}")

    def teammate_pos(self, j: int) -> slice:
        base = 8 + 2 * self.n_obstacles
        k = self._teammate_slot(j)
        return slice(base + 2 * k, base + 2 * k + 2)

    def teammate_vel(self, j: int) -> slice:
        base = 8 + 2 * self.n_obstacles + 2 * (self.n_agents - 1)
        k = self._teammate_slot(j)
        return slice(base + 2 * k, base + 2 * k + 2)

    def teammate_block(self, j: int) -> np.ndarray:
        """The four observation indices carrying teammate j's state."""
        pos = self.teammate_pos(j)
        vel = self.teammate_vel(j)
        return np.array([pos.start, pos.start + 1, vel.start, vel.start + 1])


def reset(config: ScenarioConfig) -> WorldState:
    """Initial state: configured start positions, zero velocities.

    The start configuration is fixed, so every episode starts alike.
    """
    return WorldState(
        step_index=0,
        agent_pos=np.array(config.agent_starts, dtype=float),
        agent_vel=np.zeros((config.n_agents, 2)),
        box_pos=np.array(config.box_start, dtype=float),
        box_vel=np.zeros(2),
    )


def decode_action(one_hot: Sequence[float] | np.ndarray) -> int:
    """Validate a one-hot 5-vector and return the action index (0..4)."""
    arr = np.asarray(one_hot, dtype=float)
    if arr.shape != (N_ACTIONS,):
        raise ValueError(f"action must have shape ({N_ACTIONS},), got {arr.shape}")
    index = int(np.argmax(arr))
    # step's rule: one-hot exactly when equal to the one-hot of the argmax
    if not (arr == ACTION_ONE_HOTS[index]).all():
        raise ValueError(f"action must be one-hot, got {arr.tolist()}")
    return index


def action_one_hot(index: int) -> np.ndarray:
    out = np.zeros(N_ACTIONS)
    out[index] = 1.0
    return out


@dataclass(frozen=True, eq=False)
class _Geometry:
    """Static geometry of one config object (`ScenarioConfig._geometry`).

    Bodies are stacked agents, box, obstacles; the first n + 1 move.
    """

    statics: np.ndarray  # (n_obstacles, 2) obstacle centres
    radius_sums: np.ndarray  # (bodies, n + 1): radius of body j + movable k
    target: np.ndarray  # (2,)
    mass: np.ndarray  # (n + 1, 1): agents, then the box


@dataclass(frozen=True, eq=False)
class _PairGeometry:
    """Pair geometry of one set of positions, carried to the next step.

    It is valid for a state only while the state's agent_pos and box_pos
    are the very arrays below and it is stepped under the config whose
    `_Geometry` this is.
    """

    geo: _Geometry
    pos: np.ndarray  # (n + 1, 2): agents, then the box
    agent_pos: np.ndarray  # view pos[:n]
    box_pos: np.ndarray  # view pos[n]
    delta: np.ndarray  # (bodies, n + 1, 2): movable body k - body j
    dist: np.ndarray  # (bodies, n + 1): length of delta
    box_target: float  # box-target distance


def _box_target_dist(box_pos: np.ndarray, target: np.ndarray) -> float:
    d = box_pos - target
    return float(np.hypot(d[0], d[1]))


def _pair_geometry(pos: np.ndarray, geo: _Geometry) -> _PairGeometry:
    n = pos.shape[0] - 1
    delta = pos - np.concatenate((pos, geo.statics))[:, None]
    return _PairGeometry(geo, pos, pos[:n], pos[n], delta,
                         np.hypot(delta[..., 0], delta[..., 1]),
                         _box_target_dist(pos[n], geo.target))


def _state_pairs(state: WorldState, geo: _Geometry) -> _PairGeometry:
    """The state's carried pair geometry if still valid, else a fresh pass."""
    pairs = state._pairs
    if (pairs is not None and pairs.geo is geo
            and state.agent_pos is pairs.agent_pos
            and state.box_pos is pairs.box_pos):
        return pairs
    return _pair_geometry(np.concatenate((state.agent_pos,
                                          state.box_pos[None])), geo)


def _body_forces(pairs: _PairGeometry, config: ScenarioConfig) -> np.ndarray:
    """Contact forces on the movable bodies (n + 1, 2): agents, then the box.

    Each pair gets a soft repulsion along its center line, ~linear in the
    penetration depth. A body's total is summed from +0 over its partners in
    stacking order (agents, box, obstacles); that order is part of the
    byte-identical rerun contract. The self pair adds an exact +0: its delta
    is zero.
    """
    dist = pairs.dist
    margin = config.contact_margin
    penetration = margin * np.logaddexp(
        0.0, (pairs.geo.radius_sums - dist) / margin)
    direction = pairs.delta / np.maximum(dist, 1e-9)[..., None]
    pair = (config.stiffness * penetration)[..., None] * direction
    return np.add.reduce(pair, axis=0, initial=0.0)


def _detect_contacts(pairs: _PairGeometry, vel: np.ndarray,
                     out_of_bounds: np.ndarray) -> ContactReport:
    """Contacts at the positions of `pairs`, under the velocities `vel`."""
    n = pairs.pos.shape[0] - 1
    overlap = pairs.dist < pairs.geo.radius_sums
    pushes = np.zeros(n, dtype=bool)
    for i in overlap[n, :n].nonzero()[0]:
        # np.dot of velocity and box - agent, as a product sum rounds
        # differently and can flip the sign
        pushes[i] = float(np.dot(vel[i], pairs.delta[i, n])) > 0.0
    return ContactReport(
        pushes=pushes,
        # every agent overlaps itself, so a collision is a second overlap
        agent_collisions=overlap[:n, :n].sum(axis=0) > 1,
        box_obstacle_collision=bool(overlap[n + 1:, n].any()),
        out_of_bounds=out_of_bounds,
    )


def reward_components(prev_state: WorldState, state: WorldState,
                      contacts: ContactReport,
                      config: ScenarioConfig) -> RewardBreakdown:
    """Five reward terms per agent for the prev_state -> state transition.

    Distance and goal terms are shared by the whole team; push and boundary
    are per-agent; an agent-agent collision penalizes both participants and a
    box-obstacle collision penalizes everyone. Each term fires at most once
    per agent per step.
    """
    target = config._geometry.target
    d_now = _box_target_dist(state.box_pos, target)
    return RewardBreakdown(*_reward_terms(
        _box_target_dist(prev_state.box_pos, target), d_now,
        d_now < config.goal_distance, contacts, config.n_agents))


def _reward_terms(d_prev: float, d_now: float, goal: bool,
                  contacts: ContactReport, n: int) -> np.ndarray:
    """The five terms as rows of a (5, n) array, in RewardBreakdown order."""
    terms = np.empty((5, n))
    terms[0] = (d_prev - d_now) * 50.0
    terms[1] = np.where(contacts.pushes, 50.0, 0.0)
    terms[2] = 1000.0 if goal else 0.0
    collided = contacts.agent_collisions | contacts.box_obstacle_collision
    terms[3] = np.where(collided, -50.0, 0.0)
    terms[4] = np.where(contacts.out_of_bounds, -50.0, 0.0)
    return terms


def step(state: WorldState, joint_action: Sequence[Sequence[float]] | np.ndarray,
         config: ScenarioConfig) -> StepOutcome:
    """Advance one time step under a joint one-hot action.

    Agents and box move as one (n + 1, 2) stack. The next state carries the
    pair geometry of its positions, which serves as its contacts here and
    as the force geometry of the step after it.
    """
    if state.done:
        raise RuntimeError("cannot step a finished episode; call reset first")
    n = config.n_agents
    actions = np.asarray(joint_action, dtype=float)
    if actions.shape != (n, N_ACTIONS):
        raise ValueError(f"joint_action must have shape ({n}, {N_ACTIONS}), "
                         f"got {actions.shape}")
    indices = actions.argmax(axis=1)
    # a row is one-hot exactly when it equals the one-hot of its argmax
    valid = (actions == ACTION_ONE_HOTS[indices]).all(axis=1)
    if not valid.all():
        decode_action(actions[np.argmin(valid)])  # raises for that row

    geo = config._geometry
    now = _state_pairs(state, geo)
    forces = _body_forces(now, config)
    forces[:n] += config.force * ACTION_DIRECTIONS[indices]

    vel = np.concatenate((state.agent_vel, state.box_vel[None])) \
        * (1.0 - config.damping) + (forces / geo.mass) * config.dt
    pos = now.pos + vel * config.dt
    pos.setflags(write=False)
    nxt = _pair_geometry(pos, geo)

    # the boundary is soft: bodies may leave the arena square, agents that
    # do are penalized through r_bound each step they stay outside
    out_of_bounds = (np.abs(nxt.agent_pos) > config.world_bound).any(axis=1)

    next_state = WorldState(
        step_index=state.step_index + 1,
        agent_pos=nxt.agent_pos,
        agent_vel=vel[:n],
        box_pos=nxt.box_pos,
        box_vel=vel[n],
        _pairs=nxt,
    )
    contacts = _detect_contacts(nxt, vel, out_of_bounds)
    goal = nxt.box_target < config.goal_distance
    terms = _reward_terms(now.box_target, nxt.box_target, goal, contacts, n)

    if goal:
        next_state.done = True
        next_state.done_reason = "goal"
    elif next_state.step_index >= config.max_steps:
        next_state.done = True
        next_state.done_reason = "timeout"

    return StepOutcome(
        next_state=next_state,
        rewards=np.add.reduce(terms, axis=0),
        breakdown=RewardBreakdown(*terms),
        contacts=contacts,
        done=next_state.done,
    )


def _observation_gather(config: ScenarioConfig
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Index tables (a, b), each (n_agents, obs_dim).

    Agent i's observation is source[a[i]] - source[b[i]], where source is
    observe's flat vector [agent positions, agent velocities, box position,
    obstacle positions, target position, 0.0]. Copied slots subtract the
    trailing +0.0, which leaves every value, signed zeros included,
    unchanged.
    """
    n_agents, n_obstacles = config.n_agents, config.n_obstacles
    box = 4 * n_agents
    target = box + 2 + 2 * n_obstacles
    zero = target + 2
    a = np.empty((n_agents, config.obs_dim), dtype=np.intp)
    b = np.full((n_agents, config.obs_dim), zero, dtype=np.intp)

    def put(i: int, slot: slice, src: int, minus: int | None = None) -> None:
        a[i, slot] = (src, src + 1)
        if minus is not None:
            b[i, slot] = (minus, minus + 1)

    for i in range(n_agents):
        layout = config.layout(i)
        own = 2 * i
        put(i, layout.self_pos, own)
        put(i, layout.self_vel, 2 * n_agents + own)
        for k in range(n_obstacles):
            put(i, layout.obstacle_rel(k), box + 2 + 2 * k, own)
        put(i, layout.self_to_target, target, own)
        put(i, layout.box_to_target, target, box)
        for j in layout.teammates:
            put(i, layout.teammate_pos(j), 2 * j)
            put(i, layout.teammate_vel(j), 2 * n_agents + 2 * j)
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def _observation_source(state: WorldState,
                        config: ScenarioConfig) -> np.ndarray:
    """The flat vector that `_observation_gather` indexes into."""
    geo = config._geometry
    return np.concatenate((state.agent_pos.ravel(), state.agent_vel.ravel(),
                           state.box_pos, geo.statics.ravel(), geo.target,
                           (0.0,)))


def observe(state: WorldState, agent_index: int, config: ScenarioConfig) -> np.ndarray:
    """Agent's local observation vector, laid out per ObservationLayout."""
    n = config.n_agents
    if not 0 <= agent_index < n:
        raise ValueError(f"agent_index {agent_index} out of range for {n} agents")
    a, b = config._gather
    row = operator.index(agent_index)
    source = _observation_source(state, config)
    return source[a[row]] - source[b[row]]


def observe_all(state: WorldState, config: ScenarioConfig) -> np.ndarray:
    """Every agent's observation, (n_agents, obs_dim), in one gather.

    Row i holds the same values as observe(state, i, config).
    """
    a, b = config._gather
    source = _observation_source(state, config)
    return source[a] - source[b]


# ---------------------------------------------------------------------------
# Trajectory CSV (one row per executed step; state columns are post-step)

def trajectory_columns(n_agents: int) -> list[str]:
    cols = ["step"]
    for i in range(1, n_agents + 1):
        cols += [f"agent{i}_x", f"agent{i}_y", f"agent{i}_vx", f"agent{i}_vy"]
    cols += ["box_x", "box_y"]
    cols += [f"reward_{i}" for i in range(1, n_agents + 1)]
    cols += ["done"]
    cols += [f"action_{i}" for i in range(1, n_agents + 1)]
    return cols


def write_trajectory_csv(path, scenario_id: str, states: Sequence[WorldState],
                         actions: np.ndarray, rewards: np.ndarray) -> None:
    """states has T+1 entries (reset state first); actions/rewards are (T, n)."""
    actions = np.asarray(actions)
    rewards = np.asarray(rewards)
    t_steps, n = rewards.shape
    with open(path, "w", newline="") as fp:
        fp.write(f"# {TRAJECTORY_MAGIC} scenario={scenario_id} agents={n}\n")
        writer = csv.writer(fp)
        writer.writerow(trajectory_columns(n))
        for k in range(t_steps):
            s = states[k + 1]
            row: list = [k]
            for i in range(n):
                row += [repr(float(s.agent_pos[i, 0])), repr(float(s.agent_pos[i, 1])),
                        repr(float(s.agent_vel[i, 0])), repr(float(s.agent_vel[i, 1]))]
            row += [repr(float(s.box_pos[0])), repr(float(s.box_pos[1]))]
            row += [repr(float(rewards[k, i])) for i in range(n)]
            row += [int(s.done)]
            row += [int(actions[k, i]) for i in range(n)]
            writer.writerow(row)


@dataclass
class TrajectoryLog:
    scenario_id: str
    n_agents: int
    steps: list[dict]  # parsed rows keyed by column name


def read_trajectory_csv(path) -> TrajectoryLog:
    """Parse a trajectory log and check that it is well formed.

    Raises ValueError naming the header field or the step at fault: a
    header without scenario= or agents=, columns off the schema, a row of
    the wrong length or with a cell that does not parse, row k not labelled
    step k, a done flag other than 0 or 1, a row after the episode's end,
    or an action outside 0..4; also a line the csv module cannot read.
    """
    with open(path, newline="") as fp:
        first = fp.readline()
        if not first.startswith(f"# {TRAJECTORY_MAGIC}"):
            raise ValueError("not an hlab trajectory file (missing header comment)")
        meta = dict(tok.partition("=")[::2] for tok in first.split()[3:])
        for key in ("scenario", "agents"):
            if key not in meta:
                raise ValueError(f"trajectory header has no {key}= field")
        try:
            n = int(meta["agents"])
        except ValueError:
            raise ValueError(f"trajectory header field agents={meta['agents']!r}"
                             f" is not an integer") from None
        reader = csv.reader(fp)
        try:
            header, *rows = list(reader) or [None]
        except csv.Error as exc:
            raise ValueError(f"trajectory line {reader.line_num + 1}: "
                             f"{exc}") from None
    expected = trajectory_columns(n)
    if header != expected:
        raise ValueError(f"trajectory columns {header} do not match "
                         f"the schema for {n} agents")
    parsers = [int if key == "step" or key == "done"
               or key.startswith("action_") else float for key in expected]
    steps: list[dict] = []
    for raw in rows:
        if not raw:
            continue  # a blank line
        k = len(steps)
        if len(raw) != len(expected):
            raise ValueError(f"step {k}: row has {len(raw)} fields, "
                             f"expected {len(expected)}")
        row = {}
        for key, parse, cell in zip(expected, parsers, raw):
            try:
                row[key] = parse(cell)
            except ValueError:
                kind = "an integer" if parse is int else "a number"
                raise ValueError(f"step {k}: {key} = {cell!r} is not "
                                 f"{kind}") from None
        if row["step"] != k:
            raise ValueError(f"step {k}: row is labelled step {row['step']}")
        if steps and steps[-1]["done"]:
            raise ValueError(f"step {k}: row follows the episode's end "
                             f"at step {k - 1}")
        if row["done"] not in (0, 1):
            raise ValueError(f"step {k}: done = {row['done']}, not 0 or 1")
        for i in range(1, n + 1):
            a = row[f"action_{i}"]
            if not 0 <= a < N_ACTIONS:
                raise ValueError(f"step {k}: agent {i} logged action {a}, "
                                 f"not an index in 0..{N_ACTIONS - 1}")
        steps.append(row)
    return TrajectoryLog(scenario_id=meta["scenario"], n_agents=n, steps=steps)


@dataclass
class ReplayResult:
    ok: bool
    first_bad_step: int | None = None
    message: str = ""


def replay_trajectory(path, config: ScenarioConfig | None = None,
                      tol: float = 1e-9) -> ReplayResult:
    """Re-simulate a logged trajectory and verify positions/rewards match.

    The whole log is validated first (see read_trajectory_csv), then
    re-simulated, then compared at every step at once. The result names the
    first step that differs, checking agent positions, agent velocities, box
    position, rewards and the done flag in that order; an error that is not
    <= tol, NaN included, differs.
    """
    log = read_trajectory_csv(path)
    if config is None:
        config = build_scenario(log.scenario_id)
    elif config.scenario_id != log.scenario_id:
        raise ValueError(f"log was recorded in scenario {log.scenario_id!r} "
                         f"but scenario {config.scenario_id!r} was requested")
    if config.n_agents != log.n_agents:
        raise ValueError(f"log has {log.n_agents} agents, scenario has "
                         f"{config.n_agents}")
    if not log.steps:
        return ReplayResult(True)
    n = log.n_agents
    # columns per trajectory_columns: step, n x (x, y, vx, vy), box x/y,
    # n rewards, done, n actions
    table = np.array([list(row.values()) for row in log.steps], dtype=float)
    agents = table[:, 1:1 + 4 * n].reshape(-1, n, 4)
    box = table[:, 1 + 4 * n:3 + 4 * n]
    rewards = table[:, 3 + 4 * n:3 + 5 * n]
    done = table[:, 3 + 5 * n] == 1.0

    state = reset(config)
    states, got_rewards = [], []
    for joint in ACTION_ONE_HOTS[table[:, 4 + 5 * n:].astype(np.intp)]:
        outcome = step(state, joint, config)
        state = outcome.next_state
        states.append(state)
        got_rewards.append(outcome.rewards)
        if state.done:
            break  # a longer log has done = 0 here, which fails below
    t = len(states)
    errors = np.stack([
        np.abs(np.stack([s.agent_pos for s in states])
               - agents[:t, :, :2]).max(axis=(1, 2)),
        np.abs(np.stack([s.agent_vel for s in states])
               - agents[:t, :, 2:]).max(axis=(1, 2)),
        np.abs(np.stack([s.box_pos for s in states]) - box[:t]).max(axis=1),
        np.abs(np.stack(got_rewards) - rewards[:t]).max(axis=1),
    ])
    failed = ~(errors <= tol)
    bad = failed.any(axis=0) | (np.array([s.done for s in states]) != done[:t])
    if not bad.any():
        return ReplayResult(True)
    k = int(bad.argmax())
    labels = ("agent positions", "agent velocities", "box position", "rewards")
    for label, err, wrong in zip(labels, errors[:, k], failed[:, k]):
        if wrong:
            return ReplayResult(False, k,
                                f"{label} diverge at step {k} (|err|={err:.3e})")
    return ReplayResult(False, k, f"done flag diverges at step {k}")
