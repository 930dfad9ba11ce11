"""``tools/code_lines.py``, the code-line count of the package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"
PACKAGE = ROOT / "src" / "chartflow"


def _table(root: Path) -> dict[str, list[int]]:
    """The tool's rows on ``root``: module -> code, docstring, comment,
    blank and total line counts."""
    done = subprocess.run([sys.executable, str(TOOL), str(root)],
                          capture_output=True, text=True, check=True)
    header, *lines = done.stdout.splitlines()
    assert header.split() == ["module", "code", "docstring", "comment",
                              "blank", "total"]
    return {name: [int(cell.replace(",", "")) for cell in cells]
            for name, *cells in (line.split() for line in lines)}


def test_rows_and_totals_add_up():
    table = _table(PACKAGE)
    totals = table.pop("total")
    modules = sorted(PACKAGE.glob("*.py"))
    assert list(table) == [path.stem for path in modules]
    for path in modules:
        *kinds, total = table[path.stem]
        assert sum(kinds) == total
        assert total == len(path.read_text(encoding="utf-8").splitlines())
    assert totals == [sum(column) for column in zip(*table.values())]


def test_each_kind_of_line(tmp_path):
    (tmp_path / "sample.py").write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "def f():\n"
        '    """A one-line docstring."""\n'
        '    return """not a\n'
        '    docstring"""  # code with a comment\n',
        encoding="utf-8")
    assert _table(tmp_path) == {"sample": [3, 3, 1, 1, 8],
                                "total": [3, 3, 1, 1, 8]}
