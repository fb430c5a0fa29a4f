"""Smoke test: every demo script runs to completion."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
# the files each demo writes into its working directory
WRITES = {"01": ["hlab_demo_trajectory.csv"], "02": [], "03": [],
          "04": ["hlab_demo_dependency.svg", "hlab_demo_sensitivity.svg"]}


def test_all_four_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert sorted(p.name for p in tmp_path.iterdir()) == WRITES[demo.name[:2]]
