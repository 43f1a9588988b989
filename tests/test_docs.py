"""Tier-1 wrapper around the docs lint (``tools/check_docs.py``).

The docs surface (README, DESIGN, docs/) advertises runnable snippets
and intra-repo links; this keeps both true on every test run, not just
in the CI ``docs-lint`` job.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_docs_links_resolve_and_snippets_execute():
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"docs lint failed:\n{proc.stdout}\n{proc.stderr}"
    )


# ----------------------------------------------------------------------
# The documented config blocks list every declared field
# ----------------------------------------------------------------------
def _yaml_block(doc: str, marker: str) -> str:
    """The one ```yaml block of ``doc`` that contains ``marker``."""
    sys.path.insert(0, str(REPO / "tools"))
    try:
        from check_docs import iter_fenced_blocks
    finally:
        sys.path.pop(0)
    (block,) = [
        source
        for _, source in iter_fenced_blocks((REPO / doc).read_text(), "yaml")
        if marker in source
    ]
    return block


def _declared(spec, section: str = ""):
    """Every ``section.field`` path of a spec, nested specs included."""
    from dataclasses import fields

    from repro.config import Spec

    for f in fields(spec):
        path = f"{section}.{f.name}" if section else f.name
        yield path
        kind = f.metadata.get("kind")
        while hasattr(kind, "inner"):
            kind = kind.inner
        if isinstance(kind, type) and issubclass(kind, Spec):
            yield from _declared(kind, path)


def _documented(block: str) -> "set[str]":
    """Every ``section.field`` path of a docs block (a commented-out
    ``# knob:`` line counts: that is how a block shows a knob that
    excludes one it already sets)."""
    import re

    from repro.config import parse_simple_yaml

    def walk(data, section):
        for key, value in data.items():
            path = f"{section}.{key}" if section else key
            yield path
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, dict):
                    yield from walk(item, path)

    uncommented = re.sub(r"^(\s*)# (\w+:)", r"\1\2", block, flags=re.M)
    return set(walk(parse_simple_yaml(uncommented), ""))


def test_scenario_docs_list_every_declared_knob():
    from repro.scenarios import Scenario

    block = _yaml_block("docs/scenarios.md", "every knob the schema")
    missing = sorted(set(_declared(Scenario)) - _documented(block))
    assert not missing, f"docs/scenarios.md block lacks {missing}"


def test_service_docs_list_every_tenant_config_field():
    from dataclasses import fields

    from repro.service import TenantConfig

    data = _documented(_yaml_block("docs/service.md", "defaults:"))
    documented = {path.rsplit(".", 1)[-1] for path in data if "." in path}
    missing = sorted({f.name for f in fields(TenantConfig)} - documented)
    assert not missing, f"docs/service.md config block lacks {missing}"
