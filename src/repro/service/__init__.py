"""The supervised multi-tenant session service (DESIGN.md §10).

This package turns the runtime's sessions into a *service*: a
:class:`SessionManager` owning many named tenant sessions behind
per-tenant admission control (token-bucket rate quotas, byte-weighed
queue budgets, circuit breakers) and supervision (checkpoint + tail
replay restore), fronted by a dependency-free thread-per-connection
JSON-lines TCP server (:class:`ServiceServer`) and a blocking client
(:class:`ServiceClient`) with bounded, overload-aware retries.

The robustness contract, end to end:

* overload is **shed explicitly** (a structured ``overloaded`` reply
  with an honest ``retry_after``) — never silently dropped, never
  queued without bound;
* a dead tenant session is **restored** from its newest checkpoint
  plus a replayed op tail while every other tenant keeps streaming
  untouched (invariant 13, held bit-identically under seeded chaos);
* every retry anywhere is **bounded** — attempts, backoff cap, and
  wall deadline (:class:`RetryPolicy`), with seeded jitter.

See ``docs/service.md`` for the operator's tour and
``tests/service/`` for the contract as executable checks.
"""

from .client import ServiceClient
from .manager import (
    DEFAULT_CHECKPOINT_EVERY,
    SessionManager,
    TenantStats,
)
from .protocol import (
    BadRequest,
    Overloaded,
    decode_line,
    deserialize_results,
    encode_line,
    serialize_results,
)
from .quotas import (
    ServiceConfig,
    TenantConfig,
    TokenBucket,
    load_tenants_config,
)
from .server import ServiceServer, serve_in_thread
from .supervise import CircuitBreaker, RetryPolicy

__all__ = [
    "BadRequest",
    "CircuitBreaker",
    "DEFAULT_CHECKPOINT_EVERY",
    "Overloaded",
    "RetryPolicy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceServer",
    "SessionManager",
    "TenantConfig",
    "TenantStats",
    "TokenBucket",
    "decode_line",
    "deserialize_results",
    "encode_line",
    "load_tenants_config",
    "serialize_results",
    "serve_in_thread",
]
