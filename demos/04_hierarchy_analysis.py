"""From a trained team to a leadership report.

Differentiates each actor's softmax output with respect to the observation
slots that describe its teammates, folds the directed sensitivities into
one net dependency value per agent and step, then segments the rollout
into leadership phases.

Run:  python3 demos/04_hierarchy_analysis.py
"""
import numpy as np

from hlab import charts, hierarchy, maddpg

# A quick little training run to get non-arbitrary actors.
cfg = maddpg.TrainConfig(scenario_id="a", max_episodes=80,
                         max_episode_length=25, learning_start_step=300,
                         learning_frequency=25, batch_size=32,
                         memory_size=2000, hidden=(16, 8), seed=2)
result = maddpg.train(cfg)
traj = maddpg.rollout(result.nets, result.scenario)
print(f"greedy rollout: {traj.n_steps} steps")

# The worked arithmetic first: a hand-sized sensitivity matrix.
m = np.array([
    [0.0, 0.2, 0.1],
    [0.5, 0.0, 0.3],
    [0.4, 0.6, 0.0],
])
print("\nhand matrix D =", hierarchy.dependency_values(m),
      "(sums to zero, strict max picks the leader)")

# Now the real thing: one sensitivity matrix and one D vector per step.
trace = hierarchy.analyze_rollout(traj, result.nets, result.scenario,
                                  seed=cfg.seed, checkpoint="demo")
print("\nper-step dependencies (first 6 steps):")
for t in range(min(6, trace.n_steps)):
    d = trace.dependencies[t]
    print(f"  step {t}: D = [{d[0]:+.4f} {d[1]:+.4f} {d[2]:+.4f}] "
          f"leader agent {trace.leaders[t] + 1} "
          f"(sum {d.sum():+.1e})")

report = hierarchy.segment_phases(trace, min_segment_length=3)
print(f"\npattern: {report.pattern}")
for s in report.segments:
    print(f"  steps [{s.start:2d}, {s.end:2d}): leader agent {s.leader + 1}, "
          f"mean D of leader {s.mean_dependency[s.leader]:+.4f}")

dep_svg = "hlab_demo_dependency.svg"
with open(dep_svg, "w") as fp:
    fp.write(charts.dependency_chart(trace.dependencies,
                                     result.scenario.scenario_id,
                                     result.scenario.max_steps))
sen_svg = "hlab_demo_sensitivity.svg"
with open(sen_svg, "w") as fp:
    fp.write(charts.sensitivity_chart(trace.sensitivities,
                                      result.scenario.scenario_id,
                                      result.scenario.max_steps))
print(f"\ncharts written to {dep_svg} and {sen_svg}")
