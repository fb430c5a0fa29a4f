"""Tour of the box-pushing world: geometry, stepping, rewards, logging.

Run:  python3 demos/01_world_tour.py
"""
import sys

import numpy as np

from hlab import world

# Three fixed scenarios. 'a' pushes the box to the top-left corner around
# two obstacles, 'b' mirrors it to the right, 'c' has a single center
# obstacle in front of a top-center target.
for sid in world.SCENARIO_IDS:
    sc = world.build_scenario(sid)
    print(f"scenario {sid}: target {sc.target[0]}, "
          f"{len(sc.obstacles)} obstacle(s), "
          f"obs dims {[sc.layout(i).total_dim for i in range(sc.n_agents)]}")

sc = world.build_scenario("a")
state = world.reset(sc)
print("\nagents start at", [tuple(p) for p in state.agent_pos.tolist()])
print("box starts at", tuple(state.box_pos.tolist()))

# Everyone pushes up. Agents reach the box, the box picks up speed, and the
# shared distance-shaping term turns positive.
up = world.action_one_hot(3)
for step in range(12):
    out = world.step(state, [up, up, up], sc)
    state = out.next_state
    if step % 3 == 2:
        d = np.linalg.norm(state.box_pos - np.array(sc.target[0]))
        print(f"step {step + 1}: box y={state.box_pos[1]:+.3f} "
              f"dist-to-target={d:.3f} "
              f"team reward={out.rewards.sum():+.2f}")

# Per-agent rewards decompose into five named parts.
print("\nreward breakdown at the last step:")
b = out.breakdown
for i in range(sc.n_agents):
    print(f"  agent {i + 1}: distance={b.r_dis[i]:+.3f} "
          f"push={b.r_push[i]:+.0f} goal={b.r_goal[i]:+.0f} "
          f"collision={b.r_col[i]:+.0f} boundary={b.r_bound[i]:+.0f}")

# Trajectories round-trip through CSV and re-simulate exactly.
states = [world.reset(sc)]
actions, rewards = [], []
rng = np.random.default_rng(7)
while not states[-1].done:
    idx = [int(rng.integers(5)) for _ in range(3)]
    acts = [world.action_one_hot(k) for k in idx]
    out = world.step(states[-1], acts, sc)
    states.append(out.next_state)
    actions.append(idx)
    rewards.append(out.rewards)

# The log takes the stepped states as (T, n + 1, 2) stacks: agents, then box.
path = "hlab_demo_trajectory.csv"
stepped = world.Worlds.of(states[1:])
world.write_trajectory_csv(path, sc.scenario_id, stepped.pos, stepped.vel,
                           np.array(actions), np.array(rewards),
                           np.array([s.done for s in states[1:]]))
print(f"\nwrote {len(actions)}-step random trajectory to {path}")
replayed = world.replay_trajectory(path)
print("replay says:", replayed.ok)
if not replayed.ok:
    sys.exit(f"replay failed: {replayed.message}")
