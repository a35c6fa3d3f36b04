import ast
import functools
import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "diagrel"


def test_source_lines_fit_99_columns():
    """The convention the axiom table keeps too, in the program and in its
    tests, checked without a linter."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    long = [f"{path.relative_to(ROOT)}:{n}" for path in paths
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 99]
    assert long == []


def test_source_imports_only_the_standard_library():
    """The zero-runtime-dependency rule: every import names diagrel itself or a
    standard module, so an import of an installed package such as numpy fails."""
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"diagrel"}]
    assert foreign == []


def test_readme_names_resolve():
    """Every `module.name` of diagrel that the README names in backticks, call
    arguments aside, exists, so a rename or a removal cannot leave it stale."""
    modules = {name: importlib.import_module(f"diagrel.{name}")
               for name in ("terms", "finrel", "rewrite", "theory", "doctrine", "cli")}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(rf"`((?:{'|'.join(modules)})\.[\w.]+)", text))
    assert names
    stale = []
    for name in sorted(names):
        module, *path = name.split(".")
        try:
            functools.reduce(getattr, path, modules[module])
        except AttributeError:
            stale.append(name)
    assert stale == []
