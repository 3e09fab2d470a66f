"""``tools/code_lines.py``, the counter behind the package's code-line figures."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = b'''"""A module docstring,
over two lines."""

# a comment line
x = 1
"""a lone string statement mid-file"""
y = max(
    x, 2
)
'''


def test_counts_only_the_lines_of_statements():
    # x = 1 is one line and the call three; the docstring, comment, blank line and
    # lone string count for nothing
    assert code_lines.code_lines(SNIPPET) == 4


def test_total_is_the_sum_of_the_rows(capsys):
    assert code_lines.main([str(ROOT / "src" / "wsnloc")]) == 0
    *rows, total = capsys.readouterr().out.splitlines()
    counts = [int(row.split()[0].replace(",", "")) for row in rows]
    assert len(rows) == len(list((ROOT / "src" / "wsnloc").glob("*.py")))
    assert total.split()[1] == "total"
    assert int(total.split()[0].replace(",", "")) == sum(counts)
