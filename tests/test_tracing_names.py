"""The benchmark names hlab functions by string and by attribute; each must
resolve, or `perfbench/run.py` fails where nothing else does."""
import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _lookup(dotted: str):
    """The object "<module>.<attr>..." names in hlab.<module>; raises
    AttributeError if there is none."""
    mod_name, *attrs = dotted.split(".")
    obj = importlib.import_module(f"hlab.{mod_name}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _resolves(dotted: str) -> bool:
    try:
        _lookup(dotted)
    except AttributeError:
        return False
    return True


def _hlab_attribute_uses(path: Path) -> set[str]:
    """Every `m.x.y` in the file whose root `m` is an hlab module it
    imports by `from hlab import m` or `import hlab.m`, as "m.x.y"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hlab":
            roots |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            roots |= {"hlab" for a in node.names
                      if a.name.startswith("hlab.") and a.asname is None}
    uses = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            # `hlab.cli.main` is named "cli.main", as TRACED names it
            head = [] if node.id == "hlab" else [node.id]
            uses.add(".".join(head + chain[::-1]))
    return uses


def test_every_traced_name_is_an_hlab_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name in tracing.TRACED:
        assert _resolves(name) and callable(_lookup(name)), name


def test_every_hlab_attribute_the_benchmark_uses_resolves():
    uses = {(path.name, dotted) for path in sorted(PERFBENCH.glob("*.py"))
            for dotted in _hlab_attribute_uses(path)}
    # the walk sees the modules the checks and the set-up import
    assert ("checks.py", "world.observe") in uses
    assert ("workloads.py", "maddpg.save_checkpoint") in uses
    assert ("call.py", "cli.main") in uses
    missing = sorted(u for u in uses if not _resolves(u[1]))
    assert not missing, missing
