"""Who depends on whom: Jacobian sensitivities, net dependency, phases.

The directed sensitivity of agent i to teammate j is the Frobenius norm of
the 5x4 block of the actor's input Jacobian over the four observation slots
that carry teammate j's position and velocity. Net dependency folds the
directed sensitivities into one signed score per agent,

    D_i = sum_{j != i} (|grad_ji| - |grad_ij|),

so D_i > 0 means the others react to agent i more than it reacts to them.
The per-agent sums are accumulated with math.fsum: each D_i is the correctly
rounded sum of its raw signed entries, and the team total cancels to zero at
machine precision.

A rollout yields one sensitivity matrix and one D vector per step, with
each agent's Jacobians taken at every step in one stacked pass; runs of a
common per-step argmax leader become phase segments, and a single segment
spanning the whole episode is persistent dominance (otherwise alternating).
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hlab.maddpg import AgentNets, Trajectory, _team_actors
from hlab.nn import MlpParams, input_jacobian, input_jacobians
from hlab.world import ObservationLayout, ScenarioConfig

TIE_TOL = 1e-12

PATTERN_PERSISTENT = "persistent_dominance"
PATTERN_ALTERNATING = "alternating_dominance"


def _block_norm(jac: np.ndarray, block: np.ndarray) -> float:
    """|grad_ij| from agent i's input Jacobian and j's teammate_block."""
    return float(np.linalg.norm(jac[:, block]))


def _block_norms(jacs: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Frobenius norm of each column block, a row of blocks (k, 4), of
    every Jacobian in jacs (T, out, in_dim): shape (T, k).

    Each block is summed in column-major order by one dot product, a row
    times a column in matmul. That is the order and the dot in which
    np.linalg.norm reads the fancy-indexed jac[:, block], so every norm
    equals _block_norm's bit for bit; row-major order or np.add.reduce
    differ in the last bit. (np.vecdot would need numpy 2.)
    """
    x = np.moveaxis(jacs[:, :, blocks], 1, -1)  # (T, k, 4, out)
    x = x.reshape(*x.shape[:2], 1, -1)
    return np.sqrt(np.matmul(x, np.swapaxes(x, -1, -2)))[..., 0, 0]


def pairwise_sensitivity(actor: MlpParams, obs: np.ndarray,
                         layout: ObservationLayout, j: int) -> float:
    """|grad_ij|: Frobenius norm of d(actor output)/d(teammate j slots),
    which treats action and state components symmetrically."""
    if j == layout.observer:
        raise ValueError("sensitivity to the agent's own state is undefined")
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (layout.total_dim,):
        raise ValueError(f"observation shape {obs.shape} does not match "
                         f"layout dim {layout.total_dim}")
    return _block_norm(input_jacobian(actor, obs), layout.teammate_block(j))


def sensitivity_matrix(actors: Sequence[MlpParams], joint_obs: np.ndarray,
                       scenario: ScenarioConfig) -> np.ndarray:
    """All n(n-1) directed sensitivities at one recorded step, one
    input_jacobian per agent: entry (i, j) = |grad_ij|, zero diagonal."""
    actors = _team_actors(actors, scenario)
    n = scenario.n_agents
    entries = np.zeros((n, n))
    for i in range(n):
        layout = scenario.layout(i)
        jac = input_jacobian(actors[i], np.asarray(joint_obs[i], dtype=float))
        for j in range(n):
            if j != i:
                entries[i, j] = _block_norm(jac, layout.teammate_block(j))
    return entries


def dependency_values(entries: np.ndarray) -> np.ndarray:
    """Net dependency D from sensitivity matrices: (..., n, n) -> (..., n).

    Each D_i is fsum'ed over the raw signed entries (column i in, row i
    out), one rounding per agent; this keeps hand-checkable inputs exact and
    the total within one ulp of zero.
    """
    entries = np.asarray(entries, dtype=float)
    n = entries.shape[-1]
    off = ~np.eye(n, dtype=bool)
    rows = (*entries.shape[:-2], n, n - 1)
    terms = np.concatenate([
        np.swapaxes(entries, -1, -2)[..., off].reshape(rows),
        -entries[..., off].reshape(rows)], axis=-1)
    flat = terms.reshape(math.prod(rows[:-1]), 2 * n - 2).tolist()
    return np.array([math.fsum(t) for t in flat]).reshape(rows[:-1])


@dataclass
class HierarchyCall:
    """Outcome of reading a single D vector."""

    leader: int | None  # None when no hierarchy exists
    followers: tuple[int, ...]
    tie: bool  # top value shared within tolerance (and not the no-hierarchy case)


def _leaders_and_ties(deps: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leader, tie flag and flat flag of every row of a (T, n) D array.

    A row's leader is its strict max, the lowest index among values within
    TIE_TOL of it, and a tie when there are several. A row whose values all
    lie within TIE_TOL is flat: no hierarchy, leader 0, no tie.
    """
    if deps.ndim != 2 or deps.shape[1] < 2:
        raise ValueError("need rows of at least two dependency values")
    if not np.isfinite(deps).all():
        raise ValueError("dependency values must be finite")
    top = deps.max(axis=1)
    flat = top - deps.min(axis=1) <= TIE_TOL
    at_top = deps >= (top - TIE_TOL)[:, None]
    leaders = np.where(flat, 0, at_top.argmax(axis=1))
    ties = ~flat & (at_top.sum(axis=1) > 1)
    return leaders, ties, flat


def identify_hierarchy(dependencies: np.ndarray) -> HierarchyCall:
    """Pick the leader: strict max of D, lowest index on ties within
    TIE_TOL. All values equal within TIE_TOL means no hierarchy at all
    (flat team)."""
    d = np.asarray(dependencies, dtype=float)
    if d.ndim != 1:
        raise ValueError("need a vector of at least two dependency values")
    leaders, ties, flat = _leaders_and_ties(d[None])
    if flat[0]:
        return HierarchyCall(leader=None, followers=tuple(range(d.size)),
                             tie=False)
    leader = int(leaders[0])
    followers = tuple(i for i in range(d.size) if i != leader)
    return HierarchyCall(leader=leader, followers=followers,
                         tie=bool(ties[0]))


@dataclass
class DependencyTrace:
    """Per-step sensitivities and dependency values of one rollout."""

    scenario_id: str
    dependencies: np.ndarray  # (T, n)
    sensitivities: np.ndarray  # (T, n, n)
    leaders: np.ndarray  # (T,) identify_hierarchy's leader, 0 if flat
    ties: np.ndarray  # (T,) bool
    seed: int | None = None
    checkpoint: str | None = None

    @property
    def n_steps(self) -> int:
        return self.dependencies.shape[0]

    @property
    def n_agents(self) -> int:
        return self.dependencies.shape[1]


def analyze_rollout(trajectory: Trajectory,
                    actors: Sequence[AgentNets] | Sequence[MlpParams],
                    scenario: ScenarioConfig,
                    seed: int | None = None,
                    checkpoint: str | None = None) -> DependencyTrace:
    """Sensitivities and D at every recorded step of a rollout."""
    actor_params = _team_actors(actors, scenario)
    n = scenario.n_agents
    if trajectory.n_agents != n:
        raise ValueError(f"trajectory has {trajectory.n_agents} agents, "
                         f"scenario has {n}")
    # row i of every step's matrix from one stacked pass over agent i's
    # observations; each step's Jacobian is input_jacobian's, bit for bit
    sens = np.zeros((trajectory.n_steps, n, n))
    for i, actor in enumerate(actor_params):
        layout = scenario.layout(i)
        others = [j for j in range(n) if j != i]
        blocks = np.array([layout.teammate_block(j) for j in others])
        jacs = input_jacobians(actor, trajectory.observations[:, i])
        sens[:, i, others] = _block_norms(jacs, blocks)
    deps = dependency_values(sens)
    leaders, ties, _flat = _leaders_and_ties(deps)
    return DependencyTrace(
        scenario_id=scenario.scenario_id,
        dependencies=deps,
        sensitivities=sens,
        leaders=leaders,
        ties=ties,
        seed=seed,
        checkpoint=checkpoint,
    )


@dataclass
class PhaseSegment:
    start: int  # first step of the phase
    end: int  # one past the last step (half-open)
    leader: int
    mean_dependency: np.ndarray  # (n,) mean D over the phase


@dataclass
class HierarchyReport:
    scenario_id: str
    n_steps: int
    min_segment_length: int
    segments: list[PhaseSegment]
    pattern: str  # persistent_dominance | alternating_dominance
    tie_steps: list[int]
    seed: int | None = None
    checkpoint: str | None = None

    @property
    def leader_sequence(self) -> list[int]:
        return [s.leader for s in self.segments]


def _run_lengths(leaders: np.ndarray) -> list[list[int]]:
    """Run-length encode: [[start, end, leader], ...]."""
    runs: list[list[int]] = []
    for t, leader in enumerate(leaders):
        if runs and runs[-1][2] == leader:
            runs[-1][1] = t + 1
        else:
            runs.append([t, t + 1, int(leader)])
    return runs


def segment_phases(trace: DependencyTrace,
                   min_segment_length: int = 3) -> HierarchyReport:
    """Merge short leader runs into stable phases and classify the pattern.

    Runs shorter than min_segment_length are absorbed by the preceding
    segment; a short opening run (nothing precedes it) folds into the
    following one. A lone run is kept whatever its length.
    """
    if trace.n_steps == 0:
        raise ValueError("cannot segment an empty trace")
    if min_segment_length < 0:
        raise ValueError("min_segment_length must be nonnegative")
    runs = _run_lengths(trace.leaders)
    while len(runs) > 1 and runs[0][1] - runs[0][0] < min_segment_length:
        runs[1][0] = runs[0][0]
        runs.pop(0)
    # a run is appended only under a leader other than the last segment's,
    # and an absorption moves only an end, so neighbours always differ
    segments = [runs[0]]
    for start, end, leader in runs[1:]:
        if end - start < min_segment_length or leader == segments[-1][2]:
            segments[-1][1] = end
        else:
            segments.append([start, end, leader])

    out = [
        PhaseSegment(
            start=start, end=end, leader=leader,
            mean_dependency=trace.dependencies[start:end].mean(axis=0),
        )
        for start, end, leader in segments
    ]
    pattern = PATTERN_PERSISTENT if len(out) == 1 else PATTERN_ALTERNATING
    return HierarchyReport(
        scenario_id=trace.scenario_id,
        n_steps=trace.n_steps,
        min_segment_length=min_segment_length,
        segments=out,
        pattern=pattern,
        tie_steps=[int(t) for t in np.flatnonzero(trace.ties)],
        seed=trace.seed,
        checkpoint=trace.checkpoint,
    )


# ---------------------------------------------------------------------------
# File formats. Agent labels are 1-based in files, 0-based in the API.

def trace_columns(n_agents: int) -> list[str]:
    cols = ["step"]
    cols += [f"D_{i}" for i in range(1, n_agents + 1)]
    for i in range(1, n_agents + 1):
        for j in range(1, n_agents + 1):
            if i != j:
                cols.append(f"grad_{i}_{j}")
    return cols


def write_trace_csv(trace: DependencyTrace, path) -> None:
    off = ~np.eye(trace.n_agents, dtype=bool)  # grad_i_j in row-major order
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(trace_columns(trace.n_agents))
        for t, (deps, grads) in enumerate(zip(
                trace.dependencies.tolist(),
                trace.sensitivities[:, off].tolist())):
            writer.writerow([t, *map(repr, deps), *map(repr, grads)])


def report_to_json_dict(report: HierarchyReport) -> dict:
    return {
        "scenario_id": report.scenario_id,
        "seed": report.seed,
        "checkpoint": report.checkpoint,
        "n_steps": report.n_steps,
        "min_segment_length": report.min_segment_length,
        "pattern": report.pattern,
        "segments": [
            {
                "start": s.start,
                "end": s.end,
                "leader": s.leader + 1,
                "mean_dependency": [float(v) for v in s.mean_dependency],
            }
            for s in report.segments
        ],
        "leader_sequence": [s.leader + 1 for s in report.segments],
        "tie_steps": report.tie_steps,
    }


def write_report_json(report: HierarchyReport, path) -> None:
    with open(path, "w") as fp:
        json.dump(report_to_json_dict(report), fp, indent=2)
