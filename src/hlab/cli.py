"""Command-line front end: train runs, rollout analysis, seed sweeps, replay.

Run layout (one directory per run under --out):

    <out>/<run-id>/
        manifest.json          run metadata, config snapshot, artifact paths
        scenario.json          full geometry snapshot
        rewards.csv            episode, total_reward, smoothed_reward_w100
        checkpoints/ep_<k>/    periodic network snapshots (agent_<i>.json)
        checkpoints/final/     networks at termination
        trajectory.csv         greedy rollout log (analyze/sweep)
        trace.csv              per-step dependency values and sensitivities
        report.json            phase segments and dominance pattern
        charts/*.svg           optional, with --svg

Exit codes: 0 success, 2 usage/config errors, 3 checkpoint/scenario
incompatibility, 4 training divergence, 5 replay/validation failure,
6 sweep finished with per-seed failures. HLAB_THREADS > 1 runs sweep seeds
in a process pool. A run is deterministic for a given build and BLAS thread
count: numpy's BLAS may use every core, and checkpoint bytes can change with
the thread count, so pin OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS) when
comparing runs. manifest.json records both, with the Python and numpy
versions and numpy's BLAS library, under "environment".
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

import numpy as np

import hlab.charts as charts
import hlab.hierarchy as hierarchy
import hlab.maddpg as maddpg
import hlab.world as world
from hlab.nn import TrainingDiverged

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPATIBLE = 3
EXIT_DIVERGED = 4
EXIT_VALIDATION = 5
EXIT_PARTIAL = 6


class IncompatibilityError(RuntimeError):
    """Checkpoint and scenario do not describe the same team/geometry."""


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _blas() -> dict:
    """The BLAS numpy was built against, from numpy's own build record."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 keeps no such record
        blas = {}
    return {key: blas.get(key)
            for key in ("name", "version", "openblas configuration")}


def _environment() -> dict:
    """Build and BLAS settings that byte-identical reruns depend on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _tool_version() -> str:
    from hlab import __version__

    return __version__


# flag name (underscored) -> TrainConfig field, for every field without a
# flag of its own; three flags keep a shorter name than their field
_SHORT_FLAGS = {"max_episodes": "episodes",
                "learning_start_step": "learning_start",
                "actor_logit_reg": "logit_reg"}
CONFIG_FLAGS = {_SHORT_FLAGS.get(f.name, f.name): f
                for f in dataclasses.fields(maddpg.TrainConfig)
                if f.name not in ("scenario_id", "seed", "hidden")}


def _add_config_flags(p: argparse.ArgumentParser, with_seed: bool) -> None:
    p.add_argument("--scenario", choices=world.SCENARIO_IDS, default=None,
                   help="scenario id (default a)")
    if with_seed:
        p.add_argument("--seed", type=int, default=None,
                       help="training seed (default 0)")
    p.add_argument("--config", metavar="JSON",
                   help="training config file; explicit flags override it")
    for flag, f in CONFIG_FLAGS.items():
        p.add_argument(f"--{flag.replace('_', '-')}", type=type(f.default),
                       default=None, dest=flag)
    p.add_argument("--hidden", default=None,
                   help="hidden layer widths, comma separated (default 128,64)")


def _resolve_config(args: argparse.Namespace) -> maddpg.TrainConfig:
    doc = maddpg.TrainConfig().to_json_dict()
    if getattr(args, "config", None):
        with open(args.config) as fp:
            loaded = json.load(fp)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON "
                             f"object, got {type(loaded).__name__}")
        doc.update(loaded)
    if args.scenario is not None:
        doc["scenario_id"] = args.scenario
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    for flag, f in CONFIG_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            doc[f.name] = value
    if getattr(args, "hidden", None) is not None:
        doc["hidden"] = [int(tok) for tok in str(args.hidden).split(",") if tok]
    return maddpg.TrainConfig.from_json_dict(doc)


def _check_compatibility(nets: list[maddpg.ActorCritic],
                         scenario: world.ScenarioConfig) -> None:
    n = scenario.n_agents
    if len(nets) != n:
        raise IncompatibilityError(
            f"checkpoint holds {len(nets)} agents, scenario "
            f"{scenario.scenario_id!r} has {n}")
    for i, a in enumerate(nets):
        if a.actor.in_dim != scenario.obs_dim:
            raise IncompatibilityError(
                f"agent {i + 1} actor expects {a.actor.in_dim}-dim input, "
                f"scenario {scenario.scenario_id!r} observations are "
                f"{scenario.obs_dim}-dim")
        if a.critic_in_dim != scenario.joint_dim:
            raise IncompatibilityError(
                f"agent {i + 1} critic expects {a.critic_in_dim}-dim input, "
                f"scenario joint input is {scenario.joint_dim}-dim")


def _train_run(config: maddpg.TrainConfig, out: str, run_id: str,
               checkpoint_every: int, quiet: bool
               ) -> tuple[str, maddpg.TrainResult, dict]:
    run_dir = os.path.join(out, run_id)
    os.makedirs(os.path.join(run_dir, "checkpoints"), exist_ok=True)
    started = _now()
    environment = _environment()
    progress_every = max(1, config.max_episodes // 20)
    recent_goal: list[bool] = []
    checkpoint_dirs: list[str] = []

    def on_episode(ep: int, rewards: np.ndarray, goal: bool,
                   nets: list[maddpg.AgentNets]) -> None:
        recent_goal.append(goal)
        if len(recent_goal) > 100:
            recent_goal.pop(0)
        if not quiet and (ep + 1) % progress_every == 0:
            rate = sum(recent_goal) / len(recent_goal)
            print(f"[{run_id}] episode {ep + 1}/{config.max_episodes} "
                  f"reward={float(rewards.sum()):.1f} goal_rate={rate:.2f}",
                  file=sys.stderr)
        if checkpoint_every > 0 and (ep + 1) % checkpoint_every == 0 \
                and ep + 1 < config.max_episodes:
            rel = os.path.join("checkpoints", f"ep_{ep + 1}")
            maddpg.save_checkpoint(nets, os.path.join(run_dir, rel))
            checkpoint_dirs.append(rel)

    result = maddpg.train(config, on_episode=on_episode)
    final_rel = os.path.join("checkpoints", "final")
    maddpg.save_checkpoint(result.nets, os.path.join(run_dir, final_rel))
    checkpoint_dirs.append(final_rel)

    totals = result.episode_rewards.sum(axis=1)
    maddpg.write_rewards_csv(os.path.join(run_dir, "rewards.csv"), totals)
    with open(os.path.join(run_dir, "scenario.json"), "w") as fp:
        result.scenario.to_json(fp)

    manifest = {
        "run_id": run_id,
        "kind": "train",
        "tool": {"name": "hlab", "version": _tool_version()},
        "scenario_id": config.scenario_id,
        "seed": config.seed,
        "config": config.to_json_dict(),
        "artifacts": {
            "scenario": "scenario.json",
            "rewards": "rewards.csv",
            "checkpoints": checkpoint_dirs,
        },
        "counts": {
            "episodes": int(config.max_episodes),
            "env_steps": int(result.total_env_steps),
            "update_rounds": int(result.update_rounds),
            "goal_episodes": int(result.episode_goal.sum()),
        },
        "environment": environment,
        "timestamps": {"started": started, "finished": _now()},
    }
    _write_manifest(run_dir, manifest)
    return run_dir, result, manifest


def _write_manifest(run_dir: str, manifest: dict) -> None:
    with open(os.path.join(run_dir, "manifest.json"), "w") as fp:
        json.dump(manifest, fp, indent=2)


def _analyze_into(run_dir: str, nets: list[maddpg.ActorCritic],
                  scenario: world.ScenarioConfig, *, seed: int | None,
                  svg: bool, rollouts: int, min_segment_length: int,
                  checkpoint_ref: str | None) -> dict:
    _check_compatibility(nets, scenario)
    os.makedirs(run_dir, exist_ok=True)
    artifacts: dict = {"trajectories": [], "traces": [], "reports": []}
    summary: dict = {}
    for k in range(1, rollouts + 1):
        suffix = "" if k == 1 else f"_{k}"
        traj = maddpg.rollout(nets, scenario)
        traj_rel = f"trajectory{suffix}.csv"
        traj.write_csv(os.path.join(run_dir, traj_rel))
        trace = hierarchy.analyze_rollout(traj, nets, scenario, seed=seed,
                                          checkpoint=checkpoint_ref)
        trace_rel = f"trace{suffix}.csv"
        hierarchy.write_trace_csv(trace, os.path.join(run_dir, trace_rel))
        report = hierarchy.segment_phases(trace, min_segment_length)
        report_rel = f"report{suffix}.json"
        hierarchy.write_report_json(report,
                                    os.path.join(run_dir, report_rel))
        artifacts["trajectories"].append(traj_rel)
        artifacts["traces"].append(trace_rel)
        artifacts["reports"].append(report_rel)
        if k == 1:
            summary = {
                "pattern": report.pattern,
                "leader_sequence": [s.leader + 1 for s in report.segments],
                "segments": [(s.start, s.end, s.leader + 1)
                             for s in report.segments],
                "goal": traj.reached_goal(),
                "steps": traj.n_steps,
            }
            if svg:
                chart_dir = os.path.join(run_dir, "charts")
                os.makedirs(chart_dir, exist_ok=True)
                dep = charts.dependency_chart(trace.dependencies,
                                              scenario.scenario_id,
                                              scenario.max_steps)
                sen = charts.sensitivity_chart(trace.sensitivities,
                                               scenario.scenario_id,
                                               scenario.max_steps)
                with open(os.path.join(chart_dir, "dependency.svg"), "w") as fp:
                    fp.write(dep)
                with open(os.path.join(chart_dir, "sensitivity.svg"), "w") as fp:
                    fp.write(sen)
                artifacts["charts"] = ["charts/dependency.svg",
                                       "charts/sensitivity.svg"]
    summary["artifacts"] = artifacts
    return summary


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    run_id = args.run_id or f"train-{config.scenario_id}-seed{config.seed}"
    run_dir, result, _manifest = _train_run(
        config, args.out, run_id, args.checkpoint_every, args.quiet)
    totals = result.episode_rewards.sum(axis=1)
    smoothed = maddpg.trailing_mean(totals)
    print(f"run dir: {run_dir}")
    print(f"episodes: {config.max_episodes}  env steps: "
          f"{result.total_env_steps}  update rounds: {result.update_rounds}")
    print(f"goal episodes: {int(result.episode_goal.sum())}  "
          f"final smoothed reward: {smoothed[-1]:.2f}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.rollouts < 1:
        raise ValueError("--rollouts must be at least 1")
    if args.min_segment_length < 0:
        raise ValueError("--min-segment-length must be nonnegative")
    nets = maddpg.load_actor_critics(args.checkpoint)
    scenario = world.build_scenario(args.scenario)
    run_id = args.run_id or f"analyze-{scenario.scenario_id}"
    run_dir = os.path.join(args.out, run_id)
    started = _now()
    environment = _environment()
    summary = _analyze_into(
        run_dir, nets, scenario, seed=args.seed, svg=args.svg,
        rollouts=args.rollouts, min_segment_length=args.min_segment_length,
        checkpoint_ref=os.path.abspath(args.checkpoint))
    manifest = {
        "run_id": run_id,
        "kind": "analyze",
        "tool": {"name": "hlab", "version": _tool_version()},
        "scenario_id": scenario.scenario_id,
        "seed": args.seed,
        "checkpoint": os.path.abspath(args.checkpoint),
        "artifacts": summary["artifacts"],
        "environment": environment,
        "timestamps": {"started": started, "finished": _now()},
    }
    _write_manifest(run_dir, manifest)
    seq = ">".join(str(x) for x in summary["leader_sequence"])
    print(f"run dir: {run_dir}")
    print(f"rollout: {summary['steps']} steps, "
          f"goal={'yes' if summary['goal'] else 'no'}")
    print(f"pattern: {summary['pattern']}  leaders: {seq}")
    return EXIT_OK


def _sweep_worker(payload: dict) -> dict:
    """Train + analyze one seed; never raises (failures become row fields)."""
    seed = payload["seed"]
    row = {"seed": seed, "pattern": "", "leader_sequence": "",
           "final_smoothed_reward": "", "success": 0, "error": ""}
    try:
        config = maddpg.TrainConfig.from_json_dict(payload["config"])
        run_dir, result, manifest = _train_run(
            config, payload["out"], payload["run_id"],
            payload["checkpoint_every"], quiet=True)
        pairs = [maddpg.ActorCritic(a.actor, a.critic.in_dim)
                 for a in result.nets]
        summary = _analyze_into(
            run_dir, pairs, result.scenario, seed=config.seed,
            svg=payload["svg"], rollouts=1,
            min_segment_length=payload["min_segment_length"],
            checkpoint_ref=os.path.join("checkpoints", "final"))
        manifest["artifacts"].update(summary["artifacts"])
        manifest["timestamps"]["finished"] = _now()
        _write_manifest(run_dir, manifest)
        totals = result.episode_rewards.sum(axis=1)
        row["pattern"] = summary["pattern"]
        row["leader_sequence"] = "|".join(
            str(x) for x in summary["leader_sequence"])
        row["final_smoothed_reward"] = repr(
            float(maddpg.trailing_mean(totals)[-1]))
        row["success"] = int(summary["goal"])
    except Exception as exc:  # recorded, sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--seeds must be comma-separated integers, "
                         f"got {args.seeds!r}")
    if not seeds:
        raise ValueError("--seeds must name at least one seed")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        # one run directory and one summary row per seed
        raise ValueError(f"--seeds names seed(s) {repeated} more than once")
    if args.min_segment_length < 0:
        raise ValueError("--min-segment-length must be nonnegative")
    base = _resolve_config(args)
    payloads = []
    for seed in seeds:
        doc = base.to_json_dict()
        doc["seed"] = seed
        payloads.append({
            "seed": seed,
            "config": doc,
            "out": args.out,
            "run_id": f"sweep-{base.scenario_id}-seed{seed}",
            "checkpoint_every": args.checkpoint_every,
            "svg": args.svg,
            "min_segment_length": args.min_segment_length,
        })
    threads = max(1, int(os.environ.get("HLAB_THREADS", "1") or "1"))
    if threads > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(payloads))) as ex:
            rows = list(ex.map(_sweep_worker, payloads))
    else:
        rows = []
        for payload in payloads:
            print(f"[sweep] seed {payload['seed']} ...", file=sys.stderr)
            rows.append(_sweep_worker(payload))

    os.makedirs(args.out, exist_ok=True)
    summary_path = os.path.join(
        args.out, f"sweep-{base.scenario_id}-summary.csv")
    fields = ["seed", "pattern", "leader_sequence", "final_smoothed_reward",
              "success", "error"]
    with open(summary_path, "w", newline="") as fp:
        writer = csv.DictWriter(fp, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)

    print(f"summary: {summary_path}")
    for row in rows:
        status = row["error"] or (f"pattern={row['pattern']} "
                                  f"leaders={row['leader_sequence']} "
                                  f"goal={row['success']}")
        print(f"  seed {row['seed']}: {status}")
    return EXIT_PARTIAL if any(r["error"] for r in rows) else EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    scenario = world.build_scenario(args.scenario) if args.scenario else None
    try:
        result = world.replay_trajectory(args.trajectory, config=scenario,
                                         tol=args.tol)
    except ValueError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if not result.ok:
        print(f"replay failed: {result.message}", file=sys.stderr)
        return EXIT_VALIDATION
    print("replay OK: log matches re-simulation")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlab",
        description="box-pushing experiments: training, dependency analysis, "
                    "seed sweeps, trajectory replay")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment")
    _add_config_flags(p_train, with_seed=True)
    p_train.add_argument("--out", default="runs", help="output root directory")
    p_train.add_argument("--run-id", default=None)
    p_train.add_argument("--checkpoint-every", type=int, default=1000,
                         help="episodes between checkpoints (0 = final only)")
    p_train.add_argument("--quiet", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_an = sub.add_parser("analyze",
                          help="greedy rollout + dependency analysis of a "
                               "checkpoint")
    p_an.add_argument("--checkpoint", required=True,
                      help="directory holding agent_<k>.json files")
    p_an.add_argument("--scenario", choices=world.SCENARIO_IDS, default="a")
    p_an.add_argument("--seed", type=int, default=None,
                      help="seed recorded in outputs (provenance only)")
    p_an.add_argument("--out", default="runs")
    p_an.add_argument("--run-id", default=None)
    p_an.add_argument("--svg", action="store_true",
                      help="also write dependency/sensitivity charts")
    p_an.add_argument("--rollouts", type=int, default=1,
                      help="number of greedy evaluation rollouts")
    p_an.add_argument("--min-segment-length", type=int, default=3)
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="train + analyze a list of seeds")
    _add_config_flags(p_sw, with_seed=False)
    p_sw.add_argument("--seeds", required=True,
                      help="comma-separated seed list, e.g. 5,10,15,20,25,30")
    p_sw.add_argument("--out", default="runs")
    p_sw.add_argument("--checkpoint-every", type=int, default=1000)
    p_sw.add_argument("--svg", action="store_true")
    p_sw.add_argument("--min-segment-length", type=int, default=3)
    p_sw.set_defaults(func=cmd_sweep)

    p_rp = sub.add_parser("replay",
                          help="re-simulate a trajectory log and verify it")
    p_rp.add_argument("trajectory", help="trajectory CSV path")
    p_rp.add_argument("--scenario", choices=world.SCENARIO_IDS, default=None,
                      help="override the scenario named in the log header")
    p_rp.add_argument("--tol", type=float, default=1e-9)
    p_rp.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args) or EXIT_OK)
    except IncompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
