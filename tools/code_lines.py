"""Count the lines of code in each module of ``src/wsnloc``.

A line of code is a source line that holds part of a statement: blank lines,
comment lines and docstrings (a statement that is one string and nothing else) do
not count, and a statement spread over several lines counts each of them. Each
module is read in one tokenizer pass.

Usage: ``python tools/code_lines.py [directory]`` (default: the package beside
this script). It prints one ``<lines> <module>`` row per module, then the total.
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
}


def code_lines(source: bytes) -> int:
    """The number of source lines that hold part of a statement other than a lone string."""
    lines, statement = set(), []
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if statement and not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "wsnloc"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_bytes())
        total += count
        print(f"{count:6,} {path.name}")
    print(f"{total:6,} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
