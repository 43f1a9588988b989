#!/usr/bin/env python
"""Count *code* lines: docstrings, comments and blank lines excluded.

A physical line counts when it carries at least one token that is not
a comment, and is not part of a docstring (a bare string expression
opening a module, class or function body).  A docstring trim therefore
never shows up as a reduction, and a simplification cannot be faked by
deleting comments — the rule ROADMAP item 3's "fewer lines" target is
measured by.

``python tools/loc.py`` prints the table for ``src/repro`` (one row
per package, plus the rows CHANGES.md tracks, plus the physical line
count of the one C source — the Python rule has nothing to say about
it); ``python tools/loc.py PATH...`` prints one row per given file or
directory.  CI's ``tests`` job prints the table so every PR's log
carries its own count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: The rows CHANGES.md records before/after: the three front-door
#: files, and ROADMAP 3's "runtime + service + scenarios (+ the CLI)" —
#: with ``config.py``, the config layer the service and the scenarios
#: share, so moving code between them never reads as a reduction.
TRACKED = (
    ("front door (session+sharding+ingest)", (
        "runtime/session.py", "runtime/sharding.py", "runtime/ingest.py",
    )),
    ("runtime+service+scenarios", (
        "runtime", "service", "scenarios", "config.py",
    )),
    ("bench/cli.py", ("bench/cli.py",)),
)
C_SOURCE = "_kernels/reprokernels.c"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> "set[int]":
    lines: "set[int]" = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of physical lines of ``source`` that carry code."""
    skip = _docstring_lines(ast.parse(source))
    lines: "set[int]" = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def count(path: Path) -> int:
    """Code lines of one file, or of every ``*.py`` under a directory."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(file.read_text()) for file in files)


def main(argv: "list[str]") -> int:
    missing = [arg for arg in argv if not Path(arg).exists()]
    if missing:
        print(
            f"usage: python tools/loc.py [PATH...] (no such path: {missing[0]})",
            file=sys.stderr,
        )
        return 2
    if argv:
        rows = [(arg, count(Path(arg))) for arg in argv]
    else:
        rows = [
            (f"src/repro/{entry.name}", count(entry))
            for entry in sorted(SRC.iterdir())
            if entry.is_dir() and entry.name != "__pycache__"
        ]
        rows.append(("src/repro (all)", count(SRC)))
        rows += [
            (label, sum(count(SRC / part) for part in parts))
            for label, parts in TRACKED
        ]
        rows.append(
            (
                f"{C_SOURCE} (all lines)",
                len((SRC / C_SOURCE).read_text().splitlines()),
            )
        )
    width = max(len(label) for label, _ in rows)
    for label, lines in rows:
        print(f"{label:<{width}}  {lines:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
