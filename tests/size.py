"""Size of a tree's compiler: lines and code lines per module of `src/slc`,
their totals, and the totals of `tests/`.

    python tests/size.py [TREE]

TREE is a checkout with `src/slc`, this one by default. "lines" counts as
`wc -l` does; "code" counts the lines that hold code, leaving out blank
lines, comment lines and docstrings. pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The lines of `text` that hold a token other than a comment and lie in
    no docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def sizes(paths) -> dict[str, tuple[int, int]]:
    """File name -> (lines, code lines)."""
    out = {}
    for path in paths:
        text = path.read_text(encoding="utf-8")
        out[path.name] = text.count("\n"), code_lines(text)
    return out


def main(argv: list[str]) -> int:
    tree = Path(argv[0]) if argv else ROOT
    if len(argv) > 1 or not (tree / "src" / "slc").is_dir():
        sys.stderr.write("usage: python tests/size.py [TREE] (a checkout with src/slc)\n")
        return 2
    src = sizes(sorted((tree / "src" / "slc").glob("*.py")))
    tests = sizes(sorted((tree / "tests").glob("*.py")))
    print(f"{'module':<20} {'lines':>7} {'code':>7}")
    for name, (lines, code) in src.items():
        print(f"{name:<20} {lines:>7,} {code:>7,}")
    for label, table in (("src/slc", src), ("tests", tests)):
        lines, code = (sum(column) for column in zip(*table.values()))
        print(f"{label + ' total':<20} {lines:>7,} {code:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
