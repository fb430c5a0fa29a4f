"""Module layering: importing one hlab module loads only what it needs.

`world`, `nn` and `charts` import no other hlab module, `maddpg` builds on
`world` and `nn`, and `hierarchy` on `maddpg`. The package itself imports
nothing, so `import hlab.world` does not load the trainer.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hlab

SRC = str(Path(hlab.__file__).resolve().parents[1])

MADDPG = {"hlab", "hlab.maddpg", "hlab.nn", "hlab.world"}


@pytest.mark.parametrize("module, loaded", [
    ("world", {"hlab", "hlab.world"}),
    ("nn", {"hlab", "hlab.nn"}),
    ("charts", {"hlab", "hlab.charts"}),
    ("maddpg", MADDPG),
    ("hierarchy", MADDPG | {"hlab.hierarchy"}),
])
def test_import_loads_only_its_layers(module, loaded):
    code = (f"import sys, hlab.{module}; print(*(m for m in sys.modules"
            f" if m.split('.')[0] == 'hlab'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert set(proc.stdout.split()) == loaded
