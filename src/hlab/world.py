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
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
            push=self.force * ACTION_DIRECTIONS,
            tail=np.array([c for p, _r in self.obstacles for c in p]
                          + list(self.target[0]) + [0.0], dtype=float),
        )
        for arr in (geo.statics, geo.radius_sums, geo.target, geo.mass,
                    geo.push, geo.tail):
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

    A state that `step` returns has read-only positions, views of the
    stepped worlds' positions; `copy()` gives writable arrays.
    """

    step_index: int
    agent_pos: np.ndarray  # (n, 2)
    agent_vel: np.ndarray  # (n, 2)
    box_pos: np.ndarray  # (2,)
    box_vel: np.ndarray  # (2,)
    done: bool = False
    done_reason: str | None = None  # "goal" | "timeout" | None

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
    """Per-step contact/boundary events, as seen after integration.

    From step_worlds, every field has a leading world axis.
    """

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
    push: np.ndarray  # (5, 2): force times ACTION_DIRECTIONS
    tail: np.ndarray  # statics, target, 0.0: the observation source's end


class _PairGeometry(NamedTuple):
    """Pair geometry of K worlds' positions, carried to the next step.

    It is valid only for the read-only positions of the Worlds that holds
    it and under the config whose `_Geometry` this is.
    """

    geo: _Geometry
    delta: np.ndarray  # (K, bodies, n + 1, 2): movable body k - body j
    dist: np.ndarray  # (K, bodies, n + 1): length of delta
    box_target: np.ndarray  # (K,) box-target distance


@dataclass
class Worlds:
    """K worlds of one scenario, stepped together by `step_worlds`.

    Row k of every array belongs to world k. Positions that step_worlds
    returns are read-only, since pairs carries their geometry to the next
    step.
    """

    step_index: np.ndarray  # (K,) int
    pos: np.ndarray  # (K, n + 1, 2): agents, then the box
    vel: np.ndarray  # (K, n + 1, 2)
    pairs: _PairGeometry | None = field(default=None, repr=False)

    @classmethod
    def of(cls, states: Sequence[WorldState]) -> "Worlds":
        """The worlds of states, in order."""
        return cls(np.array([s.step_index for s in states], dtype=np.int64),
                   np.stack([_movable(s.agent_pos, s.box_pos)
                             for s in states]),
                   np.stack([_movable(s.agent_vel, s.box_vel)
                             for s in states]))

    def __len__(self) -> int:
        return self.pos.shape[0]

    def take(self, rows: np.ndarray) -> "Worlds":
        """The worlds at rows (indices or a boolean mask), in that order."""
        pos, pairs = self.pos[rows], self.pairs
        if pairs is not None:
            pos.setflags(write=False)
            pairs = _PairGeometry(pairs.geo, pairs.delta[rows],
                                  pairs.dist[rows], pairs.box_target[rows])
        return Worlds(self.step_index[rows], pos, self.vel[rows], pairs)


@dataclass
class WorldsStep:
    """What step_worlds returns; row k belongs to world k."""

    worlds: Worlds  # the next states
    rewards: np.ndarray  # (K, n)
    terms: np.ndarray  # (5, K, n): the reward terms, in RewardBreakdown order
    contacts: ContactReport
    goal: np.ndarray  # (K,) bool
    done: np.ndarray  # (K,) bool: goal or timeout

    def state(self, k: int) -> WorldState:
        """World k's next state, as step would return it."""
        w = self.worlds
        pos, vel = w.pos[k], w.vel[k]
        n = pos.shape[0] - 1
        state = WorldState(int(w.step_index[k]), pos[:n], vel[:n], pos[n],
                           vel[n])
        if self.done[k]:
            state.done = True
            state.done_reason = "goal" if self.goal[k] else "timeout"
        return state


def _movable(agents: np.ndarray, box: np.ndarray) -> np.ndarray:
    """(n + 1, 2): the agents' rows, then the box's."""
    return np.concatenate((agents, box[None]))


def _box_target_dist(box_pos: np.ndarray, target: np.ndarray) -> np.ndarray:
    d = box_pos - target
    return np.hypot(d[..., 0], d[..., 1])


def _pair_geometry(pos: np.ndarray, geo: _Geometry) -> _PairGeometry:
    k, movable = pos.shape[:2]
    bodies = np.empty((k, movable + geo.statics.shape[0], 2))
    bodies[:, :movable] = pos
    bodies[:, movable:] = geo.statics
    delta = pos[:, None] - bodies[:, :, None]
    return _PairGeometry(geo, delta,
                         np.hypot(delta[..., 0], delta[..., 1]),
                         _box_target_dist(pos[:, movable - 1], geo.target))


def _body_forces(pairs: _PairGeometry, config: ScenarioConfig) -> np.ndarray:
    """Contact forces on the movable bodies (K, n + 1, 2): agents, then box.

    Each pair gets a soft repulsion along its center line, ~linear in the
    penetration depth. A body's total is summed from +0 over its partners in
    stacking order (agents, box, obstacles), along the partner axis alone;
    that order is part of the byte-identical rerun contract. The self pair
    adds an exact +0: its delta is zero.
    """
    dist = pairs.dist
    margin = config.contact_margin
    penetration = margin * np.logaddexp(
        0.0, (pairs.geo.radius_sums - dist) / margin)
    direction = pairs.delta / np.maximum(dist, 1e-9)[..., None]
    pair = (config.stiffness * penetration)[..., None] * direction
    return np.add.reduce(pair, axis=1, initial=0.0)


def _detect_contacts(pairs: _PairGeometry, vel: np.ndarray,
                     out_of_bounds: np.ndarray) -> ContactReport:
    """Contacts at the positions of `pairs`, under the velocities `vel`."""
    n = vel.shape[1] - 1
    overlap = pairs.dist < pairs.geo.radius_sums
    pushes = np.zeros(out_of_bounds.shape, dtype=bool)
    for k, i in zip(*overlap[:, n, :n].nonzero()):
        # np.dot of velocity and box - agent, as a product sum rounds
        # differently and can flip the sign
        pushes[k, i] = float(np.dot(vel[k, i], pairs.delta[k, i, n])) > 0.0
    return ContactReport(
        pushes=pushes,
        # every agent overlaps itself, so a collision is a second overlap
        agent_collisions=overlap[:, :n, :n].sum(axis=1) > 1,
        box_obstacle_collision=overlap[:, n + 1:, n].any(axis=1),
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
    d_prev, d_now = _box_target_dist(np.stack((prev_state.box_pos,
                                               state.box_pos)),
                                     config._geometry.target)[:, None]
    one = ContactReport(*(np.asarray(f)[None] for f in (
        contacts.pushes, contacts.agent_collisions,
        contacts.box_obstacle_collision, contacts.out_of_bounds)))
    return RewardBreakdown(*_reward_terms(
        d_prev, d_now, d_now < config.goal_distance, one)[:, 0])


# what a push, the goal, a collision and leaving the arena are worth
_EVENT_UNITS = np.array([50.0, 1000.0, -50.0, -50.0])[:, None, None]
_EVENT_UNITS.setflags(write=False)


def _reward_terms(d_prev: np.ndarray, d_now: np.ndarray, goal: np.ndarray,
                  contacts: ContactReport) -> np.ndarray:
    """The five terms of K worlds as a (5, K, n) array, in RewardBreakdown
    order; d_prev, d_now and goal are (K,). A term that does not fire is
    +0."""
    events = np.empty((4,) + contacts.pushes.shape, dtype=bool)
    events[0] = contacts.pushes
    events[1] = goal[:, None]
    np.logical_or(contacts.agent_collisions,
                  contacts.box_obstacle_collision[:, None], out=events[2])
    events[3] = contacts.out_of_bounds
    terms = np.zeros((5,) + contacts.pushes.shape)
    terms[0] = ((d_prev - d_now) * 50.0)[:, None]
    np.copyto(terms[1:], _EVENT_UNITS, where=events)
    return terms


def step_worlds(worlds: Worlds, indices: np.ndarray,
                config: ScenarioConfig) -> WorldsStep:
    """Advance K running worlds one time step together.

    indices (K, n) holds each world's joint action as action indices. In
    each world, agents and box move as one (n + 1, 2) stack, and the next
    worlds carry the pair geometry of their positions, which serves as
    their contacts here and as the force geometry of the step after it.
    World k's results equal those of stepping it alone, bit for bit: every
    operation acts elementwise or within one world, and partner sums run
    along their own axis.
    """
    geo = config._geometry
    n = config.n_agents
    now = worlds.pairs
    if now is None or now.geo is not geo:
        now = _pair_geometry(worlds.pos, geo)
    forces = _body_forces(now, config)
    forces[:, :n] += geo.push[indices]

    vel = worlds.vel * (1.0 - config.damping) \
        + (forces / geo.mass) * config.dt
    pos = worlds.pos + vel * config.dt
    pos.setflags(write=False)
    nxt = _pair_geometry(pos, geo)

    # the boundary is soft: bodies may leave the arena square, agents that
    # do are penalized through r_bound each step they stay outside
    out_of_bounds = (np.abs(pos[:, :n]) > config.world_bound).any(axis=2)
    contacts = _detect_contacts(nxt, vel, out_of_bounds)
    goal = nxt.box_target < config.goal_distance
    step_index = worlds.step_index + 1
    terms = _reward_terms(now.box_target, nxt.box_target, goal, contacts)
    return WorldsStep(
        worlds=Worlds(step_index, pos, vel, nxt),
        rewards=np.add.reduce(terms, axis=0),
        terms=terms,
        contacts=contacts,
        goal=goal,
        done=goal | (step_index >= config.max_steps),
    )


def step(state: WorldState, joint_action: Sequence[Sequence[float]] | np.ndarray,
         config: ScenarioConfig) -> StepOutcome:
    """Advance one time step under a joint one-hot action: the one-world
    case of step_worlds."""
    if state.done:
        raise RuntimeError("cannot step a finished episode; call reset first")
    n = config.n_agents
    actions = np.asarray(joint_action, dtype=float)
    if actions.shape != (n, N_ACTIONS):
        raise ValueError(f"joint_action must have shape ({n}, {N_ACTIONS}), "
                         f"got {actions.shape}")
    indices = actions.argmax(axis=1)
    # a row is one-hot exactly when it equals the one-hot of its argmax
    valid = actions == ACTION_ONE_HOTS[indices]
    if not valid.all():
        decode_action(actions[np.argmin(valid.all(axis=1))])  # raises

    out = step_worlds(Worlds.of([state]), indices[None], config)
    next_state = out.state(0)
    c = out.contacts
    return StepOutcome(
        next_state=next_state,
        rewards=out.rewards[0],
        breakdown=RewardBreakdown(*out.terms[:, 0]),
        contacts=ContactReport(c.pushes[0], c.agent_collisions[0],
                               bool(c.box_obstacle_collision[0]),
                               c.out_of_bounds[0]),
        done=next_state.done,
    )


def _observation_gather(config: ScenarioConfig
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Index tables (a, b), each (n_agents, obs_dim).

    Agent i's observation is source[a[i]] - source[b[i]], where source is
    one world's flat vector [movable positions, movable velocities,
    obstacle positions, target position, 0.0], the movable bodies being the
    agents, then the box. Copied slots subtract the trailing +0.0, which
    leaves every value, signed zeros included, unchanged.
    """
    n_agents, n_obstacles = config.n_agents, config.n_obstacles
    box = 2 * n_agents
    vel = box + 2
    statics = 2 * vel
    target = statics + 2 * n_obstacles
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
        put(i, layout.self_vel, vel + own)
        for k in range(n_obstacles):
            put(i, layout.obstacle_rel(k), statics + 2 * k, own)
        put(i, layout.self_to_target, target, own)
        put(i, layout.box_to_target, target, box)
        for j in layout.teammates:
            put(i, layout.teammate_pos(j), 2 * j)
            put(i, layout.teammate_vel(j), vel + 2 * j)
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def observe_worlds(worlds: Worlds, config: ScenarioConfig) -> np.ndarray:
    """Every agent's observation in every world, (K, n_agents, obs_dim)."""
    a, b = config._gather
    k, width = len(worlds), worlds.pos[0].size
    tail = config._geometry.tail
    source = np.empty((k, 2 * width + tail.size))
    source[:, :width] = worlds.pos.reshape(k, width)
    source[:, width:2 * width] = worlds.vel.reshape(k, width)
    source[:, 2 * width:] = tail
    # take along axis 1 is the quicker gather for the few worlds a block
    # keeps after learning starts
    return source.take(a, axis=1) - source.take(b, axis=1)


def observe_all(state: WorldState, config: ScenarioConfig) -> np.ndarray:
    """Every agent's observation, (n_agents, obs_dim): observe_worlds of
    the state's one world.

    Row i holds the same values as observe(state, i, config).
    """
    return observe_worlds(Worlds.of([state]), config)[0]


def observe(state: WorldState, agent_index: int, config: ScenarioConfig) -> np.ndarray:
    """Agent's local observation vector, laid out per ObservationLayout."""
    n = config.n_agents
    if not 0 <= agent_index < n:
        raise ValueError(f"agent_index {agent_index} out of range for {n} agents")
    return observe_all(state, config)[operator.index(agent_index)]


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


def write_trajectory_csv(path, scenario_id: str, pos: np.ndarray,
                         vel: np.ndarray, actions: np.ndarray,
                         rewards: np.ndarray, done: np.ndarray) -> None:
    """pos and vel are the post-step stacks (T, n + 1, 2) in Worlds' body
    order; actions and rewards are (T, n), done is (T,)."""
    t_steps, n = np.shape(rewards)
    agents = np.concatenate((pos[:, :n], vel[:, :n]), axis=2)
    floats = np.concatenate((agents.reshape(t_steps, 4 * n), pos[:, n],
                             rewards), axis=1)
    with open(path, "w", newline="") as fp:
        fp.write(f"# {TRAJECTORY_MAGIC} scenario={scenario_id} agents={n}\n")
        writer = csv.writer(fp)
        writer.writerow(trajectory_columns(n))
        for k, (row, d, acts) in enumerate(zip(
                floats.tolist(), np.asarray(done, dtype=np.int64).tolist(),
                np.asarray(actions, dtype=np.int64).tolist())):
            writer.writerow([k, *map(repr, row), d, *acts])


@dataclass
class TrajectoryLog:
    scenario_id: str
    n_agents: int
    table: np.ndarray  # (T, columns), in trajectory_columns order


def read_trajectory_csv(path) -> TrajectoryLog:
    """Parse a trajectory log and check that it is well formed.

    Raises ValueError naming the header field or the step at fault: a
    header other than the magic's, or without scenario= or agents=,
    columns off the schema, a row of the wrong length or with a cell that
    does not parse, row k not labelled step k, a done flag other than 0 or
    1, a row after the episode's end, a log without rows or whose last row
    does not end the episode, or an action outside 0..4; also a line the
    csv module cannot read.
    """
    with open(path, newline="") as fp:
        first = fp.readline().split()
        if first[:3] != ["#", *TRAJECTORY_MAGIC.split()]:
            raise ValueError("not an hlab trajectory file (missing header comment)")
        meta = dict(tok.partition("=")[::2] for tok in first[3:])
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
            header, *lines = list(reader) or [None]
        except csv.Error as exc:
            raise ValueError(f"trajectory line {reader.line_num + 1}: "
                             f"{exc}") from None
    expected = trajectory_columns(n)
    if header != expected:
        raise ValueError(f"trajectory columns {header} do not match "
                         f"the schema for {n} agents")
    parsers = [int if key == "step" or key == "done"
               or key.startswith("action_") else float for key in expected]
    done = expected.index("done")  # the actions follow it
    rows: list[list] = []
    for raw in lines:
        if not raw:
            continue  # a blank line
        k = len(rows)
        if len(raw) != len(expected):
            raise ValueError(f"step {k}: row has {len(raw)} fields, "
                             f"expected {len(expected)}")
        row = []
        for key, parse, cell in zip(expected, parsers, raw):
            try:
                row.append(parse(cell))
            except ValueError:
                kind = "an integer" if parse is int else "a number"
                raise ValueError(f"step {k}: {key} = {cell!r} is not "
                                 f"{kind}") from None
        if row[0] != k:
            raise ValueError(f"step {k}: row is labelled step {row[0]}")
        if rows and rows[-1][done]:
            raise ValueError(f"step {k}: row follows the episode's end "
                             f"at step {k - 1}")
        if row[done] not in (0, 1):
            raise ValueError(f"step {k}: done = {row[done]}, not 0 or 1")
        for i, a in enumerate(row[done + 1:], start=1):
            if not 0 <= a < N_ACTIONS:
                raise ValueError(f"step {k}: agent {i} logged action {a}, "
                                 f"not an index in 0..{N_ACTIONS - 1}")
        rows.append(row)
    if not rows:
        raise ValueError("trajectory has no steps")
    if not rows[-1][done]:
        raise ValueError(f"step {len(rows) - 1}: log ends before the "
                         f"episode does (done = 0)")
    table = np.array(rows, dtype=float)
    return TrajectoryLog(scenario_id=meta["scenario"], n_agents=n, table=table)


@dataclass
class ReplayResult:
    ok: bool
    first_bad_step: int | None = None
    message: str = ""


def replay_trajectory(path, tol: float = 1e-9) -> ReplayResult:
    """Re-simulate a logged trajectory in the scenario its header names and
    verify positions/rewards match.

    The whole log is validated first (see read_trajectory_csv), then
    re-simulated, then compared at every step at once. The result names the
    first step that differs, checking agent positions, agent velocities, box
    position, rewards and the done flag in that order; an error that is not
    <= tol, NaN included, differs.
    """
    log = read_trajectory_csv(path)
    config = build_scenario(log.scenario_id)
    if config.n_agents != log.n_agents:
        raise ValueError(f"log has {log.n_agents} agents, scenario has "
                         f"{config.n_agents}")
    n = log.n_agents
    # the trajectory_columns blocks: step, n x (x, y, vx, vy), box x/y,
    # n rewards, done, n actions
    _step, agents, box, rewards, done, actions = np.split(
        log.table, np.cumsum([1, 4 * n, 2, n, 1]), axis=1)
    agents = agents.reshape(-1, n, 4)
    done = done[:, 0] == 1.0

    # the log's one world, stepped by step_worlds
    worlds = Worlds.of([reset(config)])
    stepped = []
    for joint in actions.astype(np.intp)[:, None]:
        out = step_worlds(worlds, joint, config)
        worlds = out.worlds
        stepped.append(out)
        if out.done[0]:
            break  # a longer log has done = 0 here, which fails below
    t = len(stepped)
    pos = np.concatenate([s.worlds.pos for s in stepped])
    vel = np.concatenate([s.worlds.vel for s in stepped])
    errors = np.stack([
        np.abs(pos[:, :n] - agents[:t, :, :2]).max(axis=(1, 2)),
        np.abs(vel[:, :n] - agents[:t, :, 2:]).max(axis=(1, 2)),
        np.abs(pos[:, n] - box[:t]).max(axis=1),
        np.abs(np.concatenate([s.rewards for s in stepped])
               - rewards[:t]).max(axis=1),
    ])
    failed = ~(errors <= tol)
    bad = failed.any(axis=0) | (np.concatenate([s.done for s in stepped])
                                != done[:t])
    if not bad.any():
        return ReplayResult(True)
    k = int(bad.argmax())
    labels = ("agent positions", "agent velocities", "box position", "rewards")
    for label, err, wrong in zip(labels, errors[:, k], failed[:, k]):
        if wrong:
            return ReplayResult(False, k,
                                f"{label} diverge at step {k} (|err|={err:.3e})")
    return ReplayResult(False, k, f"done flag diverges at step {k}")
