"""Line counts of two checkouts' ``bluefish`` package, module by module.

Usage, from anywhere:

    python3 tests/src_lines.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is the ``src`` directory of a checkout. For each module of
``bluefish`` on either side, and in total, it prints the total lines and
the code lines on each side and the change between them. Code lines are
the lines that hold a token other than a comment, counting neither blank
lines nor docstrings (the string that opens a module, class or
function). A module only one side has counts 0 lines on the other. The
net change of the total and code columns is what a change to the package
reports.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def counts(src: str) -> dict[str, tuple[int, int]]:
    """Each module of ``src/bluefish`` by its path below the package -> (total, code)."""
    package = Path(src) / "bluefish"
    return {path.relative_to(package).as_posix(): count(path.read_text(encoding="utf-8"))
            for path in sorted(package.rglob("*.py"))}


def main(parent_src: str, change_src: str) -> int:
    parent, change = counts(parent_src), counts(change_src)
    rows = [(name, parent.get(name, (0, 0)), change.get(name, (0, 0)))
            for name in sorted(parent.keys() | change.keys())]
    rows.append(("total", tuple(map(sum, zip(*parent.values()))), tuple(map(sum, zip(*change.values())))))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'total':>19}  {'code':>19}")
    for name, (old_total, old_code), (new_total, new_code) in rows:
        print(f"{name:<{width}}  {old_total:>5} -> {new_total:>5} {new_total - old_total:>+5}"
              f"  {old_code:>5} -> {new_code:>5} {new_code - old_code:>+5}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
