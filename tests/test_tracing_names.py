"""The benchmark's span tracer names hlab functions by string; each must
resolve, or `perfbench/run.py --trace 1` fails where nothing else does."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_an_hlab_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name in tracing.TRACED:
        mod_name, *attrs = name.split(".")
        obj = importlib.import_module(f"hlab.{mod_name}")
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        assert callable(obj), name
