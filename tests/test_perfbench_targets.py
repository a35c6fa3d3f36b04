import ast
import importlib
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets():
    """TARGETS from the benchmark's layer tracer, read from its source so
    that nothing is imported from (or written into) the benchmark directory."""
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in perfbench/layers.py")


def test_traced_names_exist():
    # the traced run looks each name up in its diagrel module and fails on a missing one
    targets = _targets()
    assert targets
    for modname, names in targets.items():
        mod = importlib.import_module("diagrel." + modname)
        for name in names:
            assert callable(getattr(mod, name, None)), f"diagrel.{modname}.{name}"
