"""Per-tenant admission control: token buckets, byte budgets, config.

The service's overload story (DESIGN.md §10) is *shed, never queue
unboundedly*: every tenant request passes two gates before it may touch
the tenant's session, and a request that fails either gate is answered
immediately with a structured ``overloaded`` reply carrying a
``retry_after`` hint — the client knows exactly when to come back, and
the server's memory stays bounded no matter how hard one tenant floods.

* :class:`TokenBucket` — the *rate* gate: a classic token bucket
  (``rate`` events/second refill, ``burst`` capacity) that never
  sleeps; it either admits atomically or quotes the wait.
* the *byte budget* gate lives in the manager: admitted-but-unapplied
  events are weighed at :data:`~repro.engine.events.EVENT_BYTES` per
  event against ``queue_budget_bytes``, bounding how much co-tenant
  traffic can pile up behind one slow session.

Both gates are deterministic given an injectable ``clock``, which is
what makes the soak and chaos suites assert *exact* admission counters
instead of sleeping and hoping.

Configuration is a ``tenants.yaml``-shaped file parsed by
:func:`load_tenants_config` — a dependency-free reader for the tiny
indentation-based subset the repo's config files need (the container
bakes in no YAML library, and neither a quota file nor a scenario
file needs one): nested mappings of scalars, block sequences,
comments, and blank lines.  JSON input is accepted too (any text
whose first non-space character is ``{``).  The scenario loader
(:mod:`repro.scenarios.schema`) reuses :func:`parse_simple_yaml`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

from ..errors import ExecutionError

__all__ = [
    "ServiceConfig",
    "TenantConfig",
    "TokenBucket",
    "load_tenants_config",
    "parse_simple_yaml",
]


class TokenBucket:
    """A never-sleeping token bucket: admit atomically or quote a wait.

    ``rate`` tokens/second refill toward a ``burst`` capacity.
    :meth:`acquire` either deducts ``n`` tokens and returns ``None``
    (admitted) or — leaving the bucket untouched — returns the seconds
    until ``n`` tokens will exist: the ``retry_after`` the caller puts
    in its overloaded reply.  The bucket never blocks and holds no
    lock; the manager serializes calls under its per-tenant admission
    lock.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        if rate <= 0:
            raise ExecutionError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ExecutionError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        self._stamp = now
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    @property
    def tokens(self) -> float:
        """Current token balance (refilled to now)."""
        self._refill()
        return self._tokens

    def acquire(self, n: int = 1) -> "float | None":
        """Try to take ``n`` tokens: ``None`` on success, else the
        seconds until ``n`` tokens will be available (``retry_after``).

        ``n`` may exceed ``burst``: such a request can *never* be
        admitted whole, so the quote is the time to fill the whole
        bucket — the client's cue to split the batch (the reply's
        ``retry_after`` is still finite and honest).
        """
        if n < 0:
            raise ExecutionError(f"cannot acquire {n} tokens")
        self._refill()
        if n <= self._tokens:
            self._tokens -= n
            return None
        deficit = min(float(n), self.burst) - self._tokens
        return max(deficit / self.rate, 1e-9)

    def drain(self) -> float:
        """Empty the bucket (the ``flood_tenant`` fault: a traffic
        burst compressed into an instant); returns the tokens taken."""
        self._refill()
        taken, self._tokens = self._tokens, 0.0
        return taken


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's quota and session shape.

    Quota knobs (the admission gates):

    * ``rate`` / ``burst`` — token-bucket refill (events/second) and
      capacity (events).
    * ``queue_budget_bytes`` — cap on admitted-but-unapplied bytes
      (events weigh :data:`~repro.engine.events.EVENT_BYTES` each);
      admissions beyond it shed with ``reason="queue_budget"``.

    Session knobs (what the manager builds on first touch):

    * ``num_keys`` / ``max_lateness`` / ``chunk_ticks`` — the stream
      shape, as in :class:`~repro.runtime.ShardedSession`.
    * ``num_shards`` / ``backend`` — the session's shard count and
      where its cores run (:func:`~repro.runtime.open_session`: one
      shard runs in-process).
    * ``checkpoint_every`` — auto-checkpoint cadence in ticks
      (``None`` inherits the manager's default); the cadence also
      bounds the supervisor's replay tail.
    """

    rate: float = 10_000.0
    burst: int = 4_096
    queue_budget_bytes: int = 1 << 20
    num_keys: int = 1
    max_lateness: int = 0
    chunk_ticks: "int | None" = None
    num_shards: int = 1
    backend: str = "serial"
    checkpoint_every: "int | None" = None

    def merged(self, overrides: "dict | None") -> "TenantConfig":
        """This config with ``overrides`` applied field-wise (unknown
        keys raise — a typo'd quota silently defaulting would be a
        production incident, not a convenience)."""
        if not overrides:
            return self
        known = {f.name for f in fields(TenantConfig)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ExecutionError(
                f"unknown tenant config key(s) {unknown}; expected a "
                f"subset of {sorted(known)}"
            )
        return replace(self, **overrides)


@dataclass(frozen=True)
class ServiceConfig:
    """Parsed ``tenants.yaml``: defaults plus per-tenant overrides."""

    defaults: TenantConfig
    tenants: "dict[str, TenantConfig]"

    def config_for(self, tenant: str) -> TenantConfig:
        """The effective config for one tenant (declared overrides on
        top of the defaults; undeclared tenants get the defaults)."""
        return self.tenants.get(tenant, self.defaults)


def _parse_scalar(text: str):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    if len(text) >= 2 and text[0] == "[" and text[-1] == "]":
        inner = text[1:-1].strip()
        if not inner:
            return []
        items = _split_flow_items(inner)
        if items is not None:
            return [_parse_scalar(item) for item in items]
        return text
    lowered = text.lower()
    if lowered in ("null", "none", "~"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _split_flow_items(inner: str) -> "list[str] | None":
    """Split a flow-sequence body on top-level commas, honoring
    quotes; ``None`` when the body nests (``[``/``{``) or leaves a
    quote open — callers keep the raw text rather than guess."""
    items, start, i, n = [], 0, 0, len(inner)
    while i < n:
        ch = inner[i]
        if ch in "'\"":
            end = inner.find(ch, i + 1)
            if end < 0:
                return None
            i = end + 1
            continue
        if ch in "[{":
            return None
        if ch == ",":
            items.append(inner[start:i])
            start = i + 1
        i += 1
    items.append(inner[start:])
    return items


def parse_simple_yaml(text: str) -> dict:
    """Parse the tiny YAML subset the repo's config files need.

    Supported: arbitrarily nested mappings with scalar leaves, block
    sequences (``- item`` lines holding scalars or ``key: value``
    mappings — what a scenario file's query list needs), flat flow
    sequences of scalars (``["300/50", "120"]``), ``#`` comments
    (full-line or trailing), blank lines, single- or double-quoted
    strings, ints/floats/bools/null.  Not supported (raises, never
    guesses): flow mappings, nested flow sequences, anchors,
    multi-line scalars, tabs.  JSON is accepted as a fast path when
    the first non-space character is ``{``.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    root: dict = {}
    # Stack of (indent, container) — a line's indent selects its
    # parent; containers are mappings or (for '- ' blocks) lists.
    stack: "list[tuple[int, dict | list]]" = [(-1, root)]
    pending: "tuple[int, str] | None" = None  # key awaiting its block
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw:
            raise ExecutionError(
                f"config line {lineno}: tabs are not allowed "
                "(indent with spaces)"
            )
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        body = line.strip()
        if body == "-" or body.startswith("- "):
            pending, stack = _resolve_pending(
                pending, stack, indent, as_list=True
            )
            # A dash pops everything deeper, and mappings at its own
            # indent, but never the list it appends to (which was
            # pushed at the dash column).
            while stack[-1][0] > indent or (
                stack[-1][0] == indent
                and not isinstance(stack[-1][1], list)
            ):
                stack.pop()
            target = stack[-1][1]
            if not isinstance(target, list) or stack[-1][0] != indent:
                raise ExecutionError(
                    f"config line {lineno}: misindented sequence item "
                    f"{body!r} (a '- ' block must open under a bare "
                    "'key:' line and keep one dash column)"
                )
            rest = body[1:].strip()
            if not rest:
                raise ExecutionError(
                    f"config line {lineno}: empty sequence item "
                    "(write the value on the dash line: '- value' or "
                    "'- key: value')"
                )
            if ":" in rest and not (
                rest[0] in "'\"" and rest[0] == rest[-1] and len(rest) >= 2
            ):
                # '- key: value' opens a mapping item; its remaining
                # keys sit two columns right of the dash, so the item
                # is pushed just past the dash column.
                item: dict = {}
                target.append(item)
                stack.append((indent + 1, item))
                key, _, value = rest.partition(":")
                if not value.strip():
                    pending = (indent + 2, key.strip())
                else:
                    item[key.strip()] = _parse_scalar(value)
            else:
                target.append(_parse_scalar(rest))
            continue
        if ":" not in body:
            raise ExecutionError(
                f"config line {lineno}: expected 'key: value' "
                f"or 'key:', got {body!r}"
            )
        key, _, value = body.partition(":")
        key = key.strip()
        pending, stack = _resolve_pending(pending, stack, indent)
        while indent <= stack[-1][0]:
            stack.pop()
        if isinstance(stack[-1][1], list):
            raise ExecutionError(
                f"config line {lineno}: mapping key {key!r} inside a "
                "sequence must belong to a '- key: value' item"
            )
        if not value.strip():
            pending = (indent, key)
        else:
            stack[-1][1][key] = _parse_scalar(value)
    if pending is not None:
        stack[-1][1][pending[1]] = {}
    return root


def _resolve_pending(pending, stack, indent, as_list: bool = False):
    """Close out a ``key:`` line once its first follower arrives: a
    deeper follower opens the key's block (mapping, or list when the
    follower is a ``- `` item), a same-or-shallower one leaves ``{}``.
    The stack records the *opening key's* indent for mappings (so
    siblings of the key pop it and deeper lines don't) and the *dash
    column* for lists (so every later dash finds its list)."""
    if pending is None:
        return None, stack
    pending_indent, pending_key = pending
    if indent > pending_indent:
        child: "dict | list" = [] if as_list else {}
        stack[-1][1][pending_key] = child
        stack.append((indent if as_list else pending_indent, child))
    else:
        stack[-1][1][pending_key] = {}
    return None, stack


def load_tenants_config(source: "str | Path | dict") -> ServiceConfig:
    """Load a ``tenants.yaml``-shaped quota config.

    ``source`` may be a path, raw text, or an already-parsed dict::

        defaults:
          rate: 5000          # events/second refill
          burst: 8192         # bucket capacity, in events
          queue_budget_bytes: 1048576
          num_keys: 64
        tenants:
          alice:
            rate: 1000        # overrides the default, field-wise
          bob:
            num_shards: 2

    Unknown top-level or tenant-level keys raise.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if isinstance(source, Path) or (
            "\n" not in text and (text.endswith((".yaml", ".yml", ".json")))
        ):
            text = Path(source).read_text()
        data = parse_simple_yaml(text)
    unknown = sorted(set(data) - {"defaults", "tenants"})
    if unknown:
        raise ExecutionError(
            f"unknown tenants config section(s) {unknown}; expected "
            "'defaults' and/or 'tenants'"
        )
    defaults = TenantConfig().merged(data.get("defaults") or {})
    tenants = {}
    for name, overrides in (data.get("tenants") or {}).items():
        if overrides is not None and not isinstance(overrides, dict):
            raise ExecutionError(
                f"tenant {name!r}: expected a mapping of overrides, "
                f"got {overrides!r}"
            )
        tenants[str(name)] = defaults.merged(overrides or {})
    return ServiceConfig(defaults=defaults, tenants=tenants)
