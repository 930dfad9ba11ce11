"""Count a package's lines by kind: code, docstring, comment and blank.

Usage: ``python3 tools/code_lines.py src/chartflow``

A line is a docstring line when a module, class or function docstring
spans it; else a code line when a token other than a comment starts,
ends or runs through it; else a comment line when it holds a comment;
else blank. Prints one row per module, sorted by name, then the totals.
"""

import ast
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
DEFINES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> list[int]:
    """The line counts of one module, in the order of ``KINDS``."""
    text = path.read_text(encoding="utf-8")
    docs, code, comments = set(), set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DEFINES) and ast.get_docstring(node) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            spanned = range(token.start[0], token.end[0] + 1)
            if token.type == tokenize.COMMENT:
                comments.update(spanned)
            elif token.type not in LAYOUT:
                code.update(spanned)
    kinds = dict.fromkeys(KINDS, 0)
    for line in range(1, len(text.splitlines()) + 1):
        kinds["docstring" if line in docs else "code" if line in code
              else "comment" if line in comments else "blank"] += 1
    return list(kinds.values())


def row(name: str, cells) -> None:
    print(f"{name:<16}" + "".join(f"{cell:>10}" for cell in cells))


def main(root: str) -> None:
    row("module", (*KINDS, "total"))
    totals = [0] * len(KINDS)
    for path in sorted(Path(root).glob("*.py")):
        kinds = count(path)
        totals = [t + k for t, k in zip(totals, kinds)]
        row(path.stem, [f"{k:,}" for k in (*kinds, sum(kinds))])
    row("total", [f"{k:,}" for k in (*totals, sum(totals))])


if __name__ == "__main__":
    main(sys.argv[1])
