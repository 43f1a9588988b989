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

Configuration is a ``tenants.yaml``-shaped file (or its JSON, or a
dict) loaded by :func:`load_tenants_config`: a ``defaults`` section
plus per-tenant overrides, merged field-wise into
:class:`TenantConfig`, a declared spec of :mod:`repro.config` — the
same file format and the same field check the scenario files use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from ..config import (
    INT,
    NUMBER,
    STR,
    Spec,
    above,
    at_least,
    build_spec,
    one_of,
    optional,
    read_source,
    reject_unknown,
    setting,
)
from ..errors import ExecutionError
from ..runtime.sharding import SHARD_BACKENDS

__all__ = [
    "ServiceConfig",
    "TenantConfig",
    "TokenBucket",
    "load_tenants_config",
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
class TenantConfig(Spec):
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

    Every field is declared (:mod:`repro.config`): a config the
    service could not run — ``rate: 0``, ``rate: fast``, ``backend:
    nope`` — is refused when it is built, not when a request hits it.
    """

    section = "tenant config"
    prefix = ""

    rate: float = setting(NUMBER, 10_000.0, above(0))
    burst: float = setting(NUMBER, 4_096, at_least(1))
    queue_budget_bytes: int = setting(INT, 1 << 20, at_least(1))
    num_keys: int = setting(INT, 1, at_least(1))
    max_lateness: int = setting(INT, 0, at_least(0))
    chunk_ticks: "int | None" = setting(optional(INT), None, at_least(1))
    num_shards: int = setting(INT, 1, at_least(1))
    backend: str = setting(STR, "serial", one_of(SHARD_BACKENDS))
    checkpoint_every: "int | None" = setting(
        optional(INT), None, at_least(1)
    )

    def merged(self, overrides: "dict | None") -> "TenantConfig":
        """This config with ``overrides`` applied field-wise (checked
        like any other construction: unknown keys and bad values
        raise)."""
        if not overrides:
            return self
        return build_spec(TenantConfig, overrides, base=self)


@dataclass(frozen=True)
class ServiceConfig:
    """Parsed ``tenants.yaml``: defaults plus per-tenant overrides."""

    defaults: TenantConfig
    tenants: "dict[str, TenantConfig]"

    def config_for(self, tenant: str) -> TenantConfig:
        """The effective config for one tenant (declared overrides on
        top of the defaults; undeclared tenants get the defaults)."""
        return self.tenants.get(tenant, self.defaults)


def _merged(where: str, base: TenantConfig, overrides) -> TenantConfig:
    try:
        return base.merged(overrides)
    except ExecutionError as exc:
        raise ExecutionError(f"{where}: {exc}") from None


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

    Unknown sections or keys, and values of the wrong type or out of
    range, raise naming ``defaults`` or the tenant.
    """
    data, _ = read_source(source)
    reject_unknown(data, ("defaults", "tenants"), "tenants config", "section")
    defaults = _merged("defaults", TenantConfig(), data.get("defaults"))
    tenants = data.get("tenants") or {}
    if not isinstance(tenants, dict):
        raise ExecutionError(
            f"tenants must map tenant names to overrides, got {tenants!r}"
        )
    return ServiceConfig(
        defaults=defaults,
        tenants={
            str(name): _merged(f"tenant {name!r}", defaults, overrides)
            for name, overrides in tenants.items()
        },
    )
