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

Callers import these modules; the package itself defines only __version__.
"""
__version__ = "0.2.0"
