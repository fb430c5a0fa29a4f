"""End-to-end command tests through main(argv), plus chart rendering."""
import argparse
import csv
import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import MISFITS, misfit_team
import hlab
from hlab import charts, cli, hierarchy, maddpg, world


TINY = ["--episodes", "2", "--max-episode-length", "8",
        "--learning-start", "8", "--learning-frequency", "4",
        "--batch-size", "4", "--memory-size", "32", "--hidden", "8"]


def run_train(tmp_path, run_id="r1", seed="3", extra=()):
    rc = cli.main(["train", "--scenario", "a", "--seed", seed,
                   "--out", str(tmp_path), "--run-id", run_id, "--quiet",
                   *TINY, *extra])
    assert rc == cli.EXIT_OK
    return tmp_path / run_id


class TestConfigResolution:
    def _args(self, argv):
        return cli.build_parser().parse_args(argv)

    def test_defaults_when_nothing_given(self):
        cfg = cli._resolve_config(self._args(["train"]))
        assert cfg == maddpg.TrainConfig()

    def test_flag_overrides_default(self):
        cfg = cli._resolve_config(self._args(
            ["train", "--gamma", "0.5", "--batch-size", "32",
             "--hidden", "16,8", "--logit-reg", "0.002"]))
        assert cfg.gamma == 0.5
        assert cfg.batch_size == 32
        assert cfg.hidden == (16, 8)
        assert cfg.actor_logit_reg == 0.002

    def test_config_file_then_flag_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gamma": 0.9, "tau": 0.5}))
        cfg = cli._resolve_config(self._args(
            ["train", "--config", str(path), "--gamma", "0.8"]))
        assert cfg.gamma == 0.8  # flag beats file
        assert cfg.tau == 0.5  # file beats default
        assert cfg.batch_size == 1256  # default untouched

    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gama": 0.9}))
        with pytest.raises(ValueError, match="unknown"):
            cli._resolve_config(self._args(["train", "--config", str(path)]))

    def test_scenario_and_seed_flags(self):
        cfg = cli._resolve_config(self._args(
            ["train", "--scenario", "c", "--seed", "99"]))
        assert cfg.scenario_id == "c" and cfg.seed == 99

    @pytest.mark.parametrize("text", ["3", "[]", '{"hidden": 5}',
                                      '{"hidden": ["a"]}'])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc = cli.main(["train", "--config", str(path), "--out",
                       str(tmp_path), "--quiet", *TINY[:2]])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "train-a-seed0").exists()

    @pytest.mark.parametrize("key, value", [
        ("gamma", "x"), ("max_episodes", 2.5), ("seed", True),
        ("scenario_id", 3), ("hidden", [True])])
    def test_wrongly_typed_config_value_exits_2(self, tmp_path, capsys, key,
                                                value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"max_episodes": 2, key: value}))
        rc = cli.main(["train", "--config", str(path), "--out",
                       str(tmp_path), "--quiet", *TINY[2:-2]])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "train-a-seed0").exists()

    def test_int_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gamma": 1, "tau": 1}))
        cfg = cli._resolve_config(self._args(
            ["train", "--config", str(path)]))
        assert cfg.gamma == 1.0 and cfg.tau == 1.0

    @pytest.mark.parametrize("flag, value", [("--hidden", "0"),
                                             ("--hidden", "16,-2"),
                                             ("--learning-frequency", "0")])
    def test_bad_width_or_frequency_exits_2(self, tmp_path, capsys, flag,
                                            value):
        rc = cli.main(["train", "--out", str(tmp_path), "--quiet",
                       *TINY, flag, value])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "train-a-seed0").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lr-critic", "-0.5"), ("--max-grad-norm", "nan"),
        ("--epsilon-fraction", "-1"), ("--lr-actor", "nan"),
        ("--lr-actor", "inf"), ("--seed", "-1")])
    def test_bad_hyperparameter_exits_2(self, tmp_path, capsys, flag, value):
        rc = cli.main(["train", "--out", str(tmp_path), "--quiet",
                       *TINY, flag, value])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("config, flags, message", [
        ({"scenario_id": "z"}, [], "unknown scenario 'z'"),
        ({}, ["--checkpoint-every", "-1"], "--checkpoint-every must be >= 0"),
    ], ids=["config-scenario", "checkpoint-every"])
    def test_rejected_before_any_seed_trains(self, tmp_path, capsys,
                                             monkeypatch, command, config,
                                             flags, message):
        def no_train(*args, **kwargs):
            raise AssertionError("a seed was trained")

        monkeypatch.setattr(maddpg, "train", no_train)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = [command, "--config", str(path), "--out", str(out), *TINY,
                *flags]
        argv += ["--seeds", "1,2"] if command == "sweep" else ["--quiet"]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_flags_and_types(self):
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        train = commands.choices["train"]
        kinds = {a.dest: a.type for a in train._actions
                 if a.dest in cli.CONFIG_FLAGS}
        ints = ["episodes", "max_episode_length", "learning_start",
                "learning_frequency", "batch_size", "memory_size"]
        floats = ["gamma", "tau", "lr_actor", "lr_critic", "max_grad_norm",
                  "logit_reg", "epsilon_start", "epsilon_final",
                  "epsilon_fraction"]
        assert kinds == {**dict.fromkeys(ints, int),
                         **dict.fromkeys(floats, float)}


class TestTrainCommand:
    def test_run_layout(self, tmp_path, capsys):
        run_dir = run_train(tmp_path, extra=["--checkpoint-every", "1"])
        for rel in ("manifest.json", "scenario.json", "rewards.csv",
                    "checkpoints/final/agent_1.json",
                    "checkpoints/ep_1/agent_1.json"):
            assert (run_dir / rel).exists(), rel
        out = capsys.readouterr().out
        assert "run dir:" in out and "episodes: 2" in out

        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["kind"] == "train"
        assert manifest["scenario_id"] == "a"
        assert manifest["config"]["batch_size"] == 4
        for rel in manifest["artifacts"]["checkpoints"]:
            assert (run_dir / rel).is_dir()

        totals, smoothed = maddpg.read_rewards_csv(run_dir / "rewards.csv")
        assert totals.shape == (2,) and smoothed.shape == (2,)

    def test_byte_identical_repeat(self, tmp_path):
        d1 = run_train(tmp_path / "x", run_id="a1")
        d2 = run_train(tmp_path / "y", run_id="a2")
        assert (d1 / "rewards.csv").read_bytes() == \
            (d2 / "rewards.csv").read_bytes()
        files = sorted(str(p.relative_to(d1))
                       for p in (d1 / "checkpoints").rglob("*") if p.is_file())
        assert files == sorted(str(p.relative_to(d2))
                               for p in (d2 / "checkpoints").rglob("*")
                               if p.is_file())
        assert [f for f in files if f.endswith(".f64")] == [
            f"checkpoints/final/agent_{k}.f64" for k in (1, 2, 3)]
        for rel in files:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    def test_divergent_seed_changes_nothing_else(self, tmp_path):
        d1 = run_train(tmp_path, run_id="s3", seed="3")
        d2 = run_train(tmp_path, run_id="s4", seed="4")
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        assert m1["seed"] == 3 and m2["seed"] == 4


class TestAnalyzeCommand:
    def test_analyze_and_replay_round_trip(self, tmp_path, capsys):
        run_dir = run_train(tmp_path)
        rc = cli.main(["analyze",
                       "--checkpoint", str(run_dir / "checkpoints/final"),
                       "--scenario", "a", "--out", str(tmp_path),
                       "--run-id", "an1", "--svg"])
        assert rc == cli.EXIT_OK
        an = tmp_path / "an1"
        for rel in ("trajectory.csv", "trace.csv", "report.json",
                    "charts/dependency.svg", "charts/sensitivity.svg",
                    "manifest.json"):
            assert (an / rel).exists(), rel
        assert not (an / "trajectory_2.csv").exists()
        manifest = json.loads((an / "manifest.json").read_text())
        assert manifest["artifacts"] == {
            "trajectories": ["trajectory.csv"], "traces": ["trace.csv"],
            "reports": ["report.json"],
            "charts": ["charts/dependency.svg", "charts/sensitivity.svg"]}
        report = json.loads((an / "report.json").read_text())
        assert report["pattern"] in ("persistent_dominance",
                                     "alternating_dominance")
        assert all(s["leader"] in (1, 2, 3) for s in report["segments"])
        out = capsys.readouterr().out
        assert "pattern:" in out

        rc = cli.main(["replay", str(an / "trajectory.csv")])
        assert rc == cli.EXIT_OK

    def test_printed_pattern_and_leaders_match_report(self, tmp_path,
                                                      capsys):
        run_dir = run_train(tmp_path)
        capsys.readouterr()
        rc = cli.main(["analyze",
                       "--checkpoint", str(run_dir / "checkpoints/final"),
                       "--out", str(tmp_path), "--run-id", "an1"])
        assert rc == cli.EXIT_OK
        report = json.loads((tmp_path / "an1/report.json").read_text())
        last = capsys.readouterr().out.splitlines()[-1]
        pattern, leaders = last.split("  ")
        assert pattern == f"pattern: {report['pattern']}"
        assert leaders == "leaders: " + ">".join(
            str(k) for k in report["leader_sequence"])

    def test_failed_analysis_writes_nothing(self, tmp_path, capsys,
                                            monkeypatch):
        run_dir = run_train(tmp_path)

        def broken(*args, **kwargs):
            raise ValueError("injected segmentation failure")

        monkeypatch.setattr(hierarchy, "segment_phases", broken)
        rc = cli.main(["analyze",
                       "--checkpoint", str(run_dir / "checkpoints/final"),
                       "--out", str(tmp_path), "--run-id", "an1", "--svg"])
        assert rc == cli.EXIT_USAGE
        assert "injected segmentation failure" in capsys.readouterr().err
        assert not (tmp_path / "an1").exists()

    def test_started_is_taken_before_the_work(self, tmp_path, monkeypatch):
        run_dir = run_train(tmp_path)
        events = []

        def fake_now():
            events.append("now")
            return f"t{len(events)}"

        real_rollout = maddpg.rollout

        def logged_rollout(*args, **kwargs):
            events.append("rollout")
            return real_rollout(*args, **kwargs)

        monkeypatch.setattr(cli, "_now", fake_now)
        monkeypatch.setattr(maddpg, "rollout", logged_rollout)
        rc = cli.main(["analyze",
                       "--checkpoint", str(run_dir / "checkpoints/final"),
                       "--out", str(tmp_path), "--run-id", "an1"])
        assert rc == cli.EXIT_OK
        assert events == ["now", "rollout", "now"]
        manifest = json.loads((tmp_path / "an1/manifest.json").read_text())
        assert manifest["timestamps"] == {"started": "t1", "finished": "t3"}

    def test_incompatible_scenario_exits_3(self, tmp_path, capsys):
        run_dir = run_train(tmp_path)
        rc = cli.main(["analyze",
                       "--checkpoint", str(run_dir / "checkpoints/final"),
                       "--scenario", "c", "--out", str(tmp_path)])
        assert rc == cli.EXIT_INCOMPATIBLE
        assert "actor expects" in capsys.readouterr().err

    def test_wrong_critic_width_exits_3(self, tmp_path, capsys):
        run_dir = run_train(tmp_path)
        final = run_dir / "checkpoints/final"
        nets = maddpg.load_checkpoint(final)
        critic = nets[1].critic
        w = critic.weights[0]
        critic.weights[0] = np.hstack([w, np.zeros((w.shape[0], 1))])
        maddpg.save_checkpoint(nets, final)
        doc = json.loads((final / "agent_2.json").read_text())
        assert doc["critic"]["dims"][0] == w.shape[1] + 1
        rc = cli.main(["analyze",
                       "--checkpoint", str(run_dir / "checkpoints/final"),
                       "--out", str(tmp_path)])
        assert rc == cli.EXIT_INCOMPATIBLE
        err = capsys.readouterr().err
        assert "agent 2 critic expects" in err
        assert "actor expects" not in err

    @pytest.mark.parametrize("case, agent", MISFITS)
    def test_misfit_team_exits_3_writing_nothing(self, tmp_path, capsys,
                                                 case, agent):
        ckpt = tmp_path / "ckpt"
        maddpg.save_checkpoint(misfit_team(case, world.build_scenario("a")),
                               ckpt)
        rc = cli.main(["analyze", "--checkpoint", str(ckpt),
                       "--out", str(tmp_path), "--run-id", "an1"])
        assert rc == cli.EXIT_INCOMPATIBLE
        assert f"error: agent {agent} actor" in capsys.readouterr().err
        assert not (tmp_path / "an1").exists()

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        rc = cli.main(["analyze", "--checkpoint",
                       str(tmp_path / "nope"), "--out", str(tmp_path)])
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_actor_exits_2_writing_nothing(self, tmp_path, capsys,
                                                      bad):
        run_dir = run_train(tmp_path)
        final = run_dir / "checkpoints/final"
        nets = maddpg.load_checkpoint(final)
        nets[1].actor.weights[0][0, 0] = bad
        maddpg.save_checkpoint(nets, final)
        rc = cli.main(["analyze", "--checkpoint", str(final),
                       "--out", str(tmp_path), "--run-id", "an1"])
        assert rc == cli.EXIT_USAGE
        assert "agent 2 actor has non-finite parameters" \
            in capsys.readouterr().err
        assert not (tmp_path / "an1").exists()

    @pytest.mark.parametrize("flag, value", [("--min-segment-length", "-1")])
    def test_bad_argument_exits_2_writing_nothing(self, tmp_path, capsys,
                                                  monkeypatch, flag, value):
        run_dir = run_train(tmp_path)

        def no_load(path):
            raise AssertionError("checkpoint loaded")

        monkeypatch.setattr(maddpg, "load_checkpoint", no_load)
        rc = cli.main(["analyze",
                       "--checkpoint", str(run_dir / "checkpoints/final"),
                       "--out", str(tmp_path), "--run-id", "an1",
                       flag, value])
        assert rc == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "an1").exists()


class TestManifestEnvironment:
    def test_train_and_analyze_record_environment(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        run_dir = run_train(tmp_path)
        cli.main(["analyze", "--checkpoint",
                  str(run_dir / "checkpoints/final"), "--out", str(tmp_path),
                  "--run-id", "an1"])
        for d in (run_dir, tmp_path / "an1"):
            env = json.loads((d / "manifest.json").read_text())["environment"]
            assert set(env) == {"python", "numpy", "blas",
                                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
            assert env["numpy"] == np.__version__
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            assert env["blas"] == {
                key: blas.get(key)
                for key in ("name", "version", "openblas configuration")}
            assert env["blas"]["name"]
            assert env["OPENBLAS_NUM_THREADS"] == "1"
            assert env["OMP_NUM_THREADS"] is None

    def test_manifest_version_is_the_package_version(self, tmp_path):
        # pyproject's [project] version, read as text: tomllib is missing
        # on Python 3.10
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
        lines = [line for line in project.splitlines()
                 if line.startswith("version = ")]
        assert lines == [f'version = "{hlab.__version__}"']
        manifest = json.loads((run_train(tmp_path) / "manifest.json")
                              .read_text())
        assert manifest["tool"] == {"name": "hlab",
                                    "version": hlab.__version__}

    def test_train_and_sweep_record_peak_rss(self, tmp_path):
        run_dirs = [run_train(tmp_path)]
        rc = cli.main(["sweep", "--scenario", "a", "--seeds", "3", "--out",
                       str(tmp_path), *TINY, "--checkpoint-every", "0"])
        assert rc == cli.EXIT_OK
        run_dirs.append(tmp_path / "sweep-a-seed3")
        for d in run_dirs:
            manifest = json.loads((d / "manifest.json").read_text())
            peak = manifest["resources"]["peak_rss_mb"]
            # at least the interpreter with numpy loaded, in MiB
            assert isinstance(peak, float) and 10.0 < peak < 1 << 16


class TestReplayCommand:
    def test_tampered_log_exits_5(self, tmp_path, capsys):
        run_dir = run_train(tmp_path)
        cli.main(["analyze", "--checkpoint",
                  str(run_dir / "checkpoints/final"), "--out", str(tmp_path),
                  "--run-id", "an2"])
        path = tmp_path / "an2" / "trajectory.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = repr(float(cells[1]) + 0.25)
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        rc = cli.main(["replay", str(path)])
        assert rc == cli.EXIT_VALIDATION
        assert "replay failed" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["7", "-1"])
    def test_action_outside_range_exits_5(self, tmp_path, capsys, action):
        run_dir = run_train(tmp_path)
        cli.main(["analyze", "--checkpoint",
                  str(run_dir / "checkpoints/final"), "--out", str(tmp_path),
                  "--run-id", "an3"])
        path = tmp_path / "an3" / "trajectory.csv"
        lines = path.read_text().splitlines()
        col = lines[1].split(",").index("action_1")
        cells = lines[3].split(",")
        cells[col] = action
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay", str(path)]) == cli.EXIT_VALIDATION
        assert f"agent 1 logged action {action}" in capsys.readouterr().err

    @staticmethod
    def _after_end(lines):
        # one more row after the greedy episode's done=1 row
        lines.append(",".join([str(len(lines) - 2)]
                              + lines[-1].split(",")[1:]))
        return f"step {len(lines) - 3}: row follows the episode's end"

    @staticmethod
    def _no_scenario(lines):
        lines[0] = lines[0].replace(" scenario=a", "")
        return "trajectory header has no scenario= field"

    @staticmethod
    def _short_row(lines):
        lines[3] = lines[3].rsplit(",", 1)[0]
        return "step 1: row has 21 fields, expected 22"

    @staticmethod
    def _relabelled(lines):
        lines[4] = "99," + lines[4].split(",", 1)[1]
        return "step 2: row is labelled step 99"

    @staticmethod
    def _huge_field(lines):
        lines[3] = "1" * 200_000 + lines[3][lines[3].index(","):]
        return "trajectory line 4: field larger than field limit"

    @staticmethod
    def _cut_after_step_9(lines):
        assert len(lines) > 12  # the episode goes on past step 9
        del lines[12:]
        return "step 9: log ends before the episode does (done = 0)"

    @staticmethod
    def _header_only(lines):
        del lines[2:]
        return "trajectory has no steps"

    @pytest.mark.parametrize("edit", ["_after_end", "_no_scenario",
                                      "_short_row", "_relabelled",
                                      "_huge_field", "_cut_after_step_9",
                                      "_header_only"])
    def test_malformed_log_exits_5(self, tmp_path, capsys, edit):
        run_dir = run_train(tmp_path)
        cli.main(["analyze", "--checkpoint",
                  str(run_dir / "checkpoints/final"), "--out", str(tmp_path),
                  "--run-id", "an4"])
        path = tmp_path / "an4" / "trajectory.csv"
        lines = path.read_text().splitlines()
        assert lines[-1].split(",")[-4] == "1"  # the log ends the episode
        message = getattr(self, edit)(lines)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["replay", str(path)]) == cli.EXIT_VALIDATION
        assert f"replay failed: {message}" in capsys.readouterr().err

    def test_foreign_csv_exits_5(self, tmp_path, capsys):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        assert cli.main(["replay", str(path)]) == cli.EXIT_VALIDATION

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["replay", str(tmp_path / "none.csv")]) \
            == cli.EXIT_USAGE

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, tol):
        run_dir = run_train(tmp_path)
        cli.main(["analyze", "--checkpoint",
                  str(run_dir / "checkpoints/final"), "--out", str(tmp_path),
                  "--run-id", "an5"])
        path = str(tmp_path / "an5" / "trajectory.csv")
        assert cli.main(["replay", path]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["replay", path, "--tol", tol]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --tol must be a number >= 0")
        assert "replay failed" not in err


class TestSweepCommand:
    def test_two_seed_sweep(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--scenario", "a", "--seeds", "3,4",
                       "--out", str(tmp_path), *TINY,
                       "--checkpoint-every", "0"])
        assert rc == cli.EXIT_OK
        summary = tmp_path / "sweep-a-summary.csv"
        assert summary.exists()
        rows = summary.read_text().splitlines()
        assert rows[0] == ("seed,pattern,leader_sequence,"
                           "final_smoothed_reward,success,error")
        assert len(rows) == 3
        assert rows[1].startswith("3,") and rows[2].startswith("4,")
        for seed in (3, 4):
            d = tmp_path / f"sweep-a-seed{seed}"
            manifest = json.loads((d / "manifest.json").read_text())
            assert manifest["kind"] == "train"
            assert "reports" in manifest["artifacts"]
            assert (d / "report.json").exists()
            assert (d / "trajectory.csv").exists()

    def test_summary_row_matches_the_seed_files(self, tmp_path):
        assert cli.main(["sweep", "--scenario", "a", "--seeds", "3,4",
                         "--out", str(tmp_path), *TINY,
                         "--checkpoint-every", "0"]) == cli.EXIT_OK
        with open(tmp_path / "sweep-a-summary.csv", newline="") as fp:
            rows = list(csv.DictReader(fp))
        scenario = world.build_scenario("a")
        for row in rows:
            d = tmp_path / f"sweep-a-seed{row['seed']}"
            report = json.loads((d / "report.json").read_text())
            assert row["pattern"] == report["pattern"]
            assert row["leader_sequence"] == "|".join(
                str(k) for k in report["leader_sequence"])
            log = world.read_trajectory_csv(d / "trajectory.csv")
            cols = world.trajectory_columns(log.n_agents)
            box = log.table[-1, [cols.index("box_x"), cols.index("box_y")]]
            goal = np.linalg.norm(box - scenario.target[0]) \
                < scenario.goal_distance
            assert row["success"] == str(int(goal))
            assert row["error"] == ""

    def test_every_log_the_cli_writes_replays(self, tmp_path):
        # 8-step training episodes; analyze and sweep roll out at the
        # scenario's own horizon, which replay rebuilds from the header
        run_dir = run_train(tmp_path)
        assert cli.main(["analyze", "--checkpoint",
                         str(run_dir / "checkpoints/final"),
                         "--out", str(tmp_path), "--run-id", "an1"]) \
            == cli.EXIT_OK
        assert cli.main(["sweep", "--scenario", "a", "--seeds", "3",
                         "--out", str(tmp_path / "sw"), *TINY,
                         "--checkpoint-every", "0"]) == cli.EXIT_OK
        sweep_dir = tmp_path / "sw/sweep-a-seed3"
        assert cli.main(["analyze", "--checkpoint",
                         str(sweep_dir / "checkpoints/final"),
                         "--out", str(tmp_path), "--run-id", "an2"]) \
            == cli.EXIT_OK
        assert (sweep_dir / "trajectory.csv").read_bytes() == \
            (tmp_path / "an2/trajectory.csv").read_bytes()
        for log in (tmp_path / "an1", sweep_dir):
            assert cli.main(["replay", str(log / "trajectory.csv")]) \
                == cli.EXIT_OK

    def test_sweep_matches_train_plus_analyze(self, tmp_path):
        cli.main(["sweep", "--scenario", "a", "--seeds", "3", "--out",
                  str(tmp_path / "sw"), *TINY, "--checkpoint-every", "0"])
        run_train(tmp_path / "tr", run_id="sweep-a-seed3")
        a = (tmp_path / "sw/sweep-a-seed3/rewards.csv").read_bytes()
        b = (tmp_path / "tr/sweep-a-seed3/rewards.csv").read_bytes()
        assert a == b

    def test_process_pool_path_same_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HLAB_THREADS", "2")
        rc = cli.main(["sweep", "--scenario", "a", "--seeds", "3,4",
                       "--out", str(tmp_path), *TINY,
                       "--checkpoint-every", "0"])
        assert rc == cli.EXIT_OK
        rows = (tmp_path / "sweep-a-summary.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_bad_seed_list_exits_2(self, tmp_path):
        rc = cli.main(["sweep", "--seeds", "3,x", "--out", str(tmp_path)])
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize("seeds", ["5,5", "3,5,05"])
    def test_repeated_seed_exits_2_training_nothing(self, tmp_path, capsys,
                                                    monkeypatch, seeds):
        def no_train(*args, **kwargs):
            raise AssertionError("a seed was trained")

        monkeypatch.setattr(maddpg, "train", no_train)
        rc = cli.main(["sweep", "--scenario", "a", "--seeds", seeds,
                       "--out", str(tmp_path / "out"), *TINY])
        assert rc == cli.EXIT_USAGE
        assert "[5] more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_min_segment_length_exits_2_training_nothing(
            self, tmp_path, capsys, monkeypatch):
        def no_train(*args, **kwargs):
            raise AssertionError("a seed was trained")

        monkeypatch.setattr(maddpg, "train", no_train)
        rc = cli.main(["sweep", "--scenario", "a", "--seeds", "3",
                       "--out", str(tmp_path / "out"), *TINY,
                       "--min-segment-length", "-1"])
        assert rc == cli.EXIT_USAGE
        assert "--min-segment-length" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_seed_exits_2_training_nothing(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_train(*args, **kwargs):
            raise AssertionError("a seed was trained")

        monkeypatch.setattr(maddpg, "train", no_train)
        rc = cli.main(["sweep", "--scenario", "a", "--seeds", "5,-1",
                       "--out", str(tmp_path / "out"), *TINY])
        assert rc == cli.EXIT_USAGE
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestParser:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--scenario", "b", "--seed", "4", "--hidden", "16,8",
         "--episodes", "3", "--gamma", "0.9", "--quiet"],
        ["analyze", "--checkpoint", "ck", "--scenario", "c", "--svg",
         "--min-segment-length", "0"],
        ["sweep", "--seeds", "1,2", "--batch-size", "8", "--svg"],
        ["replay", "log.csv", "--tol", "0.5"],
    ])
    def test_one_command_parser_parses_as_the_full_one(self, argv):
        assert cli.build_parser(argv[0]).parse_args(argv) == \
            cli.build_parser().parse_args(argv)

    def test_command_help_lists_its_arguments(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["analyze", "--help"])
        assert err.value.code == 0
        assert "--checkpoint" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["bogus"], ["--checkpoint", "x"]])
    def test_unknown_command_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "{train,analyze,sweep,replay}" in capsys.readouterr().err

    def test_unknown_scenario_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["train", "--scenario", "z"])

    def test_replay_takes_no_scenario(self, capsys):
        # a log names its scenario in its header, and replay rebuilds that
        with pytest.raises(SystemExit) as err:
            cli.main(["replay", "log.csv", "--scenario", "a"])
        assert err.value.code == 2
        assert "unrecognized arguments: --scenario" in capsys.readouterr().err

    def test_installed_entry_point(self):
        """`hlab --help` works as the declared console script.

        The `hlab` entry of `[project.scripts]` is started in a child
        process the way an installed wrapper starts it (PyPA entry-points
        specification), against the same package this suite imported, so
        the check needs no install. An `hlab` script found on PATH is run
        as well.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["hlab"]
        module, attr = entry.split(":")
        wrapper = (f"import sys\nfrom {module} import {attr}\n"
                   f"sys.argv[0] = 'hlab'\nsys.exit({attr}())\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runs = [([sys.executable, "-c", wrapper, "--help"], env)]
        exe = shutil.which("hlab")
        if exe:
            runs.append(([exe, "--help"], None))  # as installed, env as is
        for cmd, run_env in runs:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=run_env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert "train" in proc.stdout and "replay" in proc.stdout


@pytest.mark.parametrize("case", ["checkpoint_is_a_file",
                                  "replay_of_a_directory",
                                  "config_is_a_directory",
                                  "out_is_a_file"])
def test_path_of_the_wrong_type_exits_2(tmp_path, capsys, case):
    run_dir = run_train(tmp_path)
    agent = str(run_dir / "checkpoints/final/agent_1.json")
    final = str(run_dir / "checkpoints/final")
    argv, path = {
        "checkpoint_is_a_file": (["analyze", "--checkpoint", agent,
                                  "--out", str(tmp_path)], agent),
        "replay_of_a_directory": (["replay", final], final),
        "config_is_a_directory": (["train", "--config", final,
                                   "--out", str(tmp_path)], final),
        "out_is_a_file": (["analyze", "--checkpoint", final,
                           "--out", agent], agent),
    }[case]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err


def test_other_os_errors_are_not_usage_errors(tmp_path, monkeypatch):
    def disk_full(args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "cmd_replay", disk_full)
    with pytest.raises(OSError) as info:
        cli.main(["replay", str(tmp_path)])
    assert info.value.errno == errno.ENOSPC


class TestCharts:
    def test_deterministic_svg(self, rng):
        deps = rng.normal(size=(30, 3))
        a = charts.dependency_chart(deps, "a", 50)
        b = charts.dependency_chart(deps.copy(), "a", 50)
        assert a == b
        assert a.startswith("<svg") and a.rstrip().endswith("</svg>")

    def test_series_and_labels_present(self, rng):
        deps = rng.normal(size=(10, 3))
        svg = charts.dependency_chart(deps, "b", 50)
        for label in ("D_1", "D_2", "D_3"):
            assert label in svg
        sens = rng.random(size=(10, 3, 3))
        svg2 = charts.sensitivity_chart(sens, "b", 50)
        for label in ("grad_1_2", "grad_2_1", "grad_3_2"):
            assert label in svg2

    def test_values_clamped_to_fixed_range(self):
        deps = np.full((5, 3), 1e9)
        svg = charts.dependency_chart(deps, "a", 50)
        assert "1e+09" not in svg
