"""Command-line front end: train runs, rollout analysis, seed sweeps, replay.

Run layout (one directory per run under --out):

    <out>/<run-id>/
        manifest.json          run metadata, config snapshot, artifact paths
        scenario.json          full geometry snapshot
        rewards.csv            episode, total_reward, smoothed_reward_w100
        checkpoints/ep_<k>/    periodic network snapshots (agent_<i>.json
                               headers, agent_<i>.f64 payloads)
        checkpoints/final/     networks at termination
        trajectory.csv         greedy rollout log (analyze/sweep)
        trace.csv              per-step dependency values and sensitivities
        report.json            phase segments and dominance pattern
        charts/*.svg           optional, with --svg

analyze reads a checkpoint through maddpg.load_checkpoint, whose section
in maddpg describes the format; a checkpoint it rejects, and one whose
actors hold a NaN or infinite parameter, exit 2 before anything is written.
A checkpoint that does not fit the scenario exits 3, also before anything
is written: the wrong number of agents, an actor or critic of the wrong
input width, an actor that is not a softmax over the 5 actions, or actors
whose layer widths differ. analyze computes its whole analysis before it
makes the run directory, so a failed analysis leaves none. replay rebuilds
the scenario its log's header names and takes one option, --tol.

Exit codes: 0 success, 2 usage/config errors (an unusable path or an
undecodable checkpoint too), 3 checkpoint/scenario incompatibility,
4 training divergence, 5 replay/validation failure, 6 sweep finished with
per-seed failures. HLAB_THREADS > 1 runs sweep seeds
in a process pool. A run is deterministic for a given build and BLAS thread
count: numpy's BLAS may use every core, and checkpoint bytes can change with
the thread count, so pin OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS) when
comparing runs. manifest.json records both, with the Python and numpy
versions and numpy's BLAS library, under "environment". A train or sweep
run's manifest also records "resources": "peak_rss_mb", the process's
peak resident set so far in MiB (ru_maxrss), which in a sweep without a
process pool covers the seeds before it too.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import resource
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

import numpy as np

import hlab.charts as charts
import hlab.hierarchy as hierarchy
import hlab.maddpg as maddpg
import hlab.world as world
from hlab import __version__
from hlab.nn import TrainingDiverged

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPATIBLE = 3
EXIT_DIVERGED = 4
EXIT_VALIDATION = 5
EXIT_PARTIAL = 6


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


def _peak_rss_mb() -> float:
    """The process's peak resident set so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux counts kibibytes, macOS bytes
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10),
                 2)


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
        fp.write(json.dumps(result.scenario.to_json_dict(), indent=2))

    manifest = {
        "run_id": run_id,
        "kind": "train",
        "tool": {"name": "hlab", "version": __version__},
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
        "resources": {"peak_rss_mb": _peak_rss_mb()},
        "timestamps": {"started": started, "finished": _now()},
    }
    _write_manifest(run_dir, manifest)
    return run_dir, result, manifest


def _write_manifest(run_dir: str, manifest: dict) -> None:
    with open(os.path.join(run_dir, "manifest.json"), "w") as fp:
        json.dump(manifest, fp, indent=2)


def _analyze_into(run_dir: str, nets: list[maddpg.AgentNets],
                  scenario: world.ScenarioConfig, *, seed: int | None,
                  svg: bool, min_segment_length: int,
                  checkpoint_ref: str | None
                  ) -> tuple[maddpg.Trajectory, hierarchy.HierarchyReport,
                             dict]:
    """One greedy rollout and its analysis; a failure writes nothing."""
    traj = maddpg.rollout(nets, scenario)
    trace = hierarchy.analyze_rollout(traj, nets, scenario, seed=seed,
                                      checkpoint=checkpoint_ref)
    report = hierarchy.segment_phases(trace, min_segment_length)
    charts_svg = {}
    if svg:
        charts_svg = {
            "charts/dependency.svg": charts.dependency_chart(
                trace.dependencies, scenario.scenario_id, scenario.max_steps),
            "charts/sensitivity.svg": charts.sensitivity_chart(
                trace.sensitivities, scenario.scenario_id,
                scenario.max_steps),
        }

    os.makedirs(run_dir, exist_ok=True)
    traj.write_csv(os.path.join(run_dir, "trajectory.csv"))
    hierarchy.write_trace_csv(trace, os.path.join(run_dir, "trace.csv"))
    hierarchy.write_report_json(report, os.path.join(run_dir, "report.json"))
    artifacts: dict = {"trajectories": ["trajectory.csv"],
                       "traces": ["trace.csv"], "reports": ["report.json"]}
    if charts_svg:
        os.makedirs(os.path.join(run_dir, "charts"), exist_ok=True)
        for rel, text in charts_svg.items():
            with open(os.path.join(run_dir, rel), "w") as fp:
                fp.write(text)
        artifacts["charts"] = list(charts_svg)
    return traj, report, artifacts


def cmd_train(args: argparse.Namespace) -> int:
    if args.checkpoint_every < 0:
        raise ValueError("--checkpoint-every must be >= 0")
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
    if args.min_segment_length < 0:
        raise ValueError("--min-segment-length must be nonnegative")
    nets = maddpg.load_checkpoint(args.checkpoint)
    for k, a in enumerate(nets, start=1):
        if not np.isfinite(a.actor.flatten()).all():
            raise ValueError(f"agent {k} actor has non-finite parameters")
    scenario = world.build_scenario(args.scenario)
    run_id = args.run_id or f"analyze-{scenario.scenario_id}"
    run_dir = os.path.join(args.out, run_id)
    started = _now()
    environment = _environment()
    traj, report, artifacts = _analyze_into(
        run_dir, nets, scenario, seed=args.seed, svg=args.svg,
        min_segment_length=args.min_segment_length,
        checkpoint_ref=os.path.abspath(args.checkpoint))
    manifest = {
        "run_id": run_id,
        "kind": "analyze",
        "tool": {"name": "hlab", "version": __version__},
        "scenario_id": scenario.scenario_id,
        "seed": args.seed,
        "checkpoint": os.path.abspath(args.checkpoint),
        "artifacts": artifacts,
        "environment": environment,
        "timestamps": {"started": started, "finished": _now()},
    }
    _write_manifest(run_dir, manifest)
    seq = ">".join(str(k + 1) for k in report.leader_sequence)
    print(f"run dir: {run_dir}")
    print(f"rollout: {traj.n_steps} steps, "
          f"goal={'yes' if traj.reached_goal() else 'no'}")
    print(f"pattern: {report.pattern}  leaders: {seq}")
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
        # the scenario that analyze and replay rebuild from its id, so the
        # log replays whatever episode length the seed trained at
        traj, report, artifacts = _analyze_into(
            run_dir, result.nets, world.build_scenario(config.scenario_id),
            seed=config.seed, svg=payload["svg"],
            min_segment_length=payload["min_segment_length"],
            checkpoint_ref=os.path.join("checkpoints", "final"))
        manifest["artifacts"].update(artifacts)
        manifest["resources"]["peak_rss_mb"] = _peak_rss_mb()
        manifest["timestamps"]["finished"] = _now()
        _write_manifest(run_dir, manifest)
        totals = result.episode_rewards.sum(axis=1)
        row["pattern"] = report.pattern
        row["leader_sequence"] = "|".join(
            str(k + 1) for k in report.leader_sequence)
        row["final_smoothed_reward"] = repr(
            float(maddpg.trailing_mean(totals)[-1]))
        row["success"] = int(traj.reached_goal())
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
    if args.checkpoint_every < 0:
        raise ValueError("--checkpoint-every must be >= 0")
    base = _resolve_config(args)
    payloads = []
    for seed in seeds:
        doc = base.to_json_dict()
        doc["seed"] = seed
        # every seed's config is checked before any seed trains
        maddpg.TrainConfig.from_json_dict(doc)
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
    if not args.tol >= 0:  # NaN too: no error would compare <= NaN
        raise ValueError(f"--tol must be a number >= 0, got {args.tol}")
    try:
        result = world.replay_trajectory(args.trajectory, tol=args.tol)
    except ValueError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if not result.ok:
        print(f"replay failed: {result.message}", file=sys.stderr)
        return EXIT_VALIDATION
    print("replay OK: log matches re-simulation")
    return EXIT_OK


def _train_args(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p, with_seed=True)
    p.add_argument("--out", default="runs", help="output root directory")
    p.add_argument("--run-id", default=None)
    p.add_argument("--checkpoint-every", type=int, default=1000,
                   help="episodes between checkpoints (0 = final only)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)


def _analyze_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True,
                   help="directory holding agent_<k>.json headers and "
                        "their agent_<k>.f64 payloads")
    p.add_argument("--scenario", choices=world.SCENARIO_IDS, default="a")
    p.add_argument("--seed", type=int, default=None,
                   help="seed recorded in outputs (provenance only)")
    p.add_argument("--out", default="runs")
    p.add_argument("--run-id", default=None)
    p.add_argument("--svg", action="store_true",
                   help="also write dependency/sensitivity charts")
    p.add_argument("--min-segment-length", type=int, default=3)
    p.set_defaults(func=cmd_analyze)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p, with_seed=False)
    p.add_argument("--seeds", required=True,
                   help="comma-separated seed list, e.g. 5,10,15,20,25,30")
    p.add_argument("--out", default="runs")
    p.add_argument("--checkpoint-every", type=int, default=1000)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--min-segment-length", type=int, default=3)
    p.set_defaults(func=cmd_sweep)


def _replay_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("trajectory", help="trajectory CSV path")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest absolute error allowed (>= 0)")
    p.set_defaults(func=cmd_replay)


# subcommand -> (help, the function adding its arguments)
_COMMANDS = {
    "train": ("run one training experiment", _train_args),
    "analyze": ("greedy rollout + dependency analysis of a checkpoint",
                _analyze_args),
    "sweep": ("train + analyze a list of seeds", _sweep_args),
    "replay": ("re-simulate a trajectory log and verify it", _replay_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand, with only command's arguments (all if it is none)."""
    parser = argparse.ArgumentParser(
        prog="hlab",
        description="box-pushing experiments: training, dependency analysis, "
                    "seed sweeps, trajectory replay")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if command not in _COMMANDS or command == name:
            add_args(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return int(args.func(args) or EXIT_OK)
    except maddpg.IncompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        # an unusable path; other OS errors (a full disk, EIO) propagate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
