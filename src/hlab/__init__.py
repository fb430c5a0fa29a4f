"""Multi-agent box-pushing lab.

A numpy implementation of cooperative box-pushing with MADDPG training and
Jacobian-based analysis of which agent the others depend on over an episode.

Modules:
    world      scenarios, particle dynamics, rewards, observations, replay
    nn         small dense networks with exact gradients and Jacobians
    maddpg     replay buffer, per-agent actor/critic updates, training loop
    hierarchy  pairwise sensitivities, net dependency values, phase segments
    charts     deterministic SVG charts of dependency and sensitivity traces
    cli        `hlab train | analyze | sweep | replay` entry points
"""
from hlab.world import (
    ScenarioConfig,
    WorldState,
    StepOutcome,
    ContactReport,
    RewardBreakdown,
    ObservationLayout,
    build_scenario,
    reset,
    step,
    observe,
    observe_all,
    reward_components,
    decode_action,
    action_one_hot,
    replay_trajectory,
)
from hlab.nn import (
    MlpParams,
    OptimizerState,
    TrainingDiverged,
    init_params,
    forward,
    backward_params,
    input_gradient,
    input_jacobian,
    clip_and_apply,
    soft_update,
)
from hlab.maddpg import (
    AgentNets,
    ReplayBuffer,
    Transition,
    TrainConfig,
    TrainResult,
    Trajectory,
    select_action,
    td_target,
    critic_update,
    actor_update,
    sync_targets,
    train,
    rollout,
)
from hlab.hierarchy import (
    DependencyTrace,
    HierarchyReport,
    PhaseSegment,
    pairwise_sensitivity,
    dependency_values,
    identify_hierarchy,
    analyze_rollout,
    segment_phases,
)

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig", "WorldState", "StepOutcome", "ContactReport",
    "RewardBreakdown", "ObservationLayout", "build_scenario", "reset", "step",
    "observe", "observe_all", "reward_components", "decode_action", "action_one_hot",
    "replay_trajectory",
    "MlpParams", "OptimizerState", "TrainingDiverged", "init_params",
    "forward", "backward_params", "input_gradient", "input_jacobian",
    "clip_and_apply", "soft_update",
    "AgentNets", "ReplayBuffer", "Transition", "TrainConfig", "TrainResult",
    "Trajectory", "select_action", "td_target", "critic_update",
    "actor_update", "sync_targets", "train", "rollout",
    "DependencyTrace", "HierarchyReport", "PhaseSegment",
    "pairwise_sensitivity", "dependency_values", "identify_hierarchy",
    "analyze_rollout", "segment_phases",
    "__version__",
]
