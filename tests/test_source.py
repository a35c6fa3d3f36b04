import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "diagrel"


def test_source_lines_fit_99_columns():
    """The convention the axiom table keeps too, checked without a linter."""
    long = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 99]
    assert long == []
