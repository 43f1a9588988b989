#!/usr/bin/env python
"""Docs lint: every intra-repo link resolves, every snippet runs.

Checked files: ``README.md``, ``DESIGN.md``, ``ROADMAP.md``, and
everything under ``docs/``.

* **Links** — every relative markdown link target
  (``[text](path)`` / ``[text](path#anchor)``) must exist in the
  repository.  External schemes (``http(s)://``, ``mailto:``) and
  pure in-page anchors are skipped.
* **Snippets** — every fenced ```` ```python ```` block is executed
  in a fresh namespace with ``src/`` importable, exactly as a reader
  would run it.  Blocks that are illustrative rather than runnable
  should use a different info string (``pycon``, ``text``, ``bash``).
* **YAML** — every fenced ```` ```yaml ```` block must load through
  the dialect it documents: blocks with scenario sections go through
  the scenario loader (:func:`repro.scenarios.load_scenario`),
  everything else through the service's tenants-config loader
  (:func:`repro.service.load_tenants_config`) — so a documented
  example can always be pasted into ``session run`` / ``--config``
  unchanged.

Run from anywhere: ``python tools/check_docs.py``.  Exits non-zero on
the first category of failure, printing every offender.  CI runs this
as the ``docs-lint`` job; ``tests/test_docs.py`` runs it in tier-1.
"""

from __future__ import annotations

import re
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO / "README.md", REPO / "DESIGN.md", REPO / "ROADMAP.md"]
    + list((REPO / "docs").glob("*.md"))
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```(\w*)\s*$")
_EXTERNAL = ("http://", "https://", "mailto:")


def iter_links(text: str):
    for match in _LINK.finditer(text):
        yield match.group(1)


def iter_fenced_blocks(text: str, language: str):
    """Yield (first_line_number, source) for each ```<language> fence."""
    lines = text.splitlines()
    block: "list[str] | None" = None
    start = 0
    for i, line in enumerate(lines, start=1):
        fence = _FENCE.match(line.strip())
        if block is None:
            if fence and fence.group(1) == language:
                block, start = [], i + 1
        elif fence:
            yield start, "\n".join(block)
            block = None
        else:
            block.append(line)


def iter_python_blocks(text: str):
    """Yield (first_line_number, source) for each ```python fence."""
    yield from iter_fenced_blocks(text, "python")


def check_links() -> list[str]:
    problems = []
    for doc in DOC_FILES:
        text = doc.read_text()
        for target in iter_links(text):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO)}: broken link -> {target}"
                )
    return problems


def check_snippets() -> list[str]:
    problems = []
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for doc in DOC_FILES:
        for line, source in iter_python_blocks(doc.read_text()):
            where = f"{doc.relative_to(REPO)}:{line}"
            started = time.perf_counter()
            try:
                exec(  # noqa: S102 - the point of the lint
                    compile(source, where, "exec"), {"__name__": "__docs__"}
                )
            except BaseException as exc:  # noqa: BLE001 - reported
                problems.append(f"{where}: snippet failed: {exc!r}")
            else:
                print(
                    f"ok {where} "
                    f"({time.perf_counter() - started:.2f}s)"
                )
    return problems


def check_yaml_blocks() -> list[str]:
    """Every ```yaml block must load through the dialect it documents:
    scenario files (top-level scenario sections) through the scenario
    loader, everything else through the service's tenants-config
    loader — so any documented YAML can be pasted into the matching
    command unchanged."""
    problems = []
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from dataclasses import fields

    from repro.config import parse_simple_yaml
    from repro.scenarios import Scenario, load_scenario
    from repro.service import load_tenants_config

    scenario_keys = {f.name for f in fields(Scenario)}
    for doc in DOC_FILES:
        for line, source in iter_fenced_blocks(doc.read_text(), "yaml"):
            where = f"{doc.relative_to(REPO)}:{line}"
            try:
                data = parse_simple_yaml(source)
                if isinstance(data, dict) and data.keys() & scenario_keys:
                    load_scenario(dict(data))
                    dialect = "scenario"
                else:
                    load_tenants_config(source)
                    dialect = "tenants config"
            except Exception as exc:  # noqa: BLE001 - reported
                problems.append(f"{where}: yaml block failed: {exc}")
            else:
                print(f"ok {where} ({dialect})")
    return problems


def main() -> int:
    missing = [d for d in DOC_FILES if not d.exists()]
    if missing:
        print("missing doc files:", ", ".join(map(str, missing)))
        return 1
    problems = check_links()
    problems += check_snippets()
    problems += check_yaml_blocks()
    for problem in problems:
        print(problem)
    if problems:
        print(f"\ndocs lint: {len(problems)} problem(s)")
        return 1
    print(f"docs lint: {len(DOC_FILES)} files clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
