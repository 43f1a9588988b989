"""Admission-control primitives: token bucket, breaker, retry policy,
and the tenants.yaml config loader (DESIGN.md §10).

Everything here runs on injected fake clocks — the contract is exact
arithmetic (token balances, retry quotes, breaker transitions at
deadlines), not sleep-and-hope timing.
"""

import pytest

from repro.config import parse_simple_yaml
from repro.errors import ExecutionError
from repro.service import (
    CircuitBreaker,
    RetryPolicy,
    ServiceConfig,
    TenantConfig,
    TokenBucket,
    load_tenants_config,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_admits_up_to_burst_then_quotes(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5, clock=clock)
        assert bucket.acquire(5) is None
        retry = bucket.acquire(1)
        assert retry == pytest.approx(0.1)  # 1 token at 10/s

    def test_refills_at_rate_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5, clock=clock)
        assert bucket.acquire(5) is None
        clock.advance(0.25)
        assert bucket.tokens == pytest.approx(2.5)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(5.0)  # capped

    def test_rejection_leaves_bucket_untouched(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=4, clock=clock)
        assert bucket.acquire(3) is None
        before = bucket.tokens
        assert bucket.acquire(2) is not None
        assert bucket.tokens == before

    def test_oversized_request_quotes_finite_wait(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=4, clock=clock)
        bucket.drain()
        retry = bucket.acquire(1_000_000)
        # Can never be admitted whole; the quote is time-to-full-burst.
        assert retry == pytest.approx(0.4)

    def test_drain_empties_and_reports(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=8, clock=clock)
        assert bucket.drain() == pytest.approx(8.0)
        assert bucket.acquire(1) is not None

    def test_retry_quote_is_honest(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=4, clock=clock)
        bucket.drain()
        retry = bucket.acquire(2)
        clock.advance(retry)
        assert bucket.acquire(2) is None  # exactly enough after waiting

    def test_validation(self):
        with pytest.raises(ExecutionError):
            TokenBucket(rate=0.0, burst=4)
        with pytest.raises(ExecutionError):
            TokenBucket(rate=1.0, burst=0)
        with pytest.raises(ExecutionError):
            TokenBucket(rate=1.0, burst=4).acquire(-1)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(3, reset_after=2.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_the_count(self):
        clock = FakeClock()
        breaker = CircuitBreaker(2, reset_after=1.0, clock=clock)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, reset_after=2.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(2.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # concurrent caller sheds

    def test_probe_outcome_closes_or_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, reset_after=2.0, clock=clock)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_success()  # probe succeeded
        assert breaker.state == "closed"

    def test_retry_after_counts_down(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, reset_after=4.0, clock=clock)
        breaker.record_failure()
        assert breaker.retry_after == pytest.approx(4.0)
        clock.advance(3.0)
        assert breaker.retry_after == pytest.approx(1.0)
        clock.advance(1.0)
        assert breaker.retry_after == 0.0  # half-open: probe welcome


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_yields_attempts_minus_one_bounded_delays(self, repro_rng):
        import random

        policy = RetryPolicy(
            attempts=5, base=0.1, factor=2.0, cap=0.5,
            rng=random.Random(int(repro_rng.integers(1 << 30))),
        )
        delays = list(policy.delays())
        assert len(delays) == 4
        for k, delay in enumerate(delays):
            assert 0.0 <= delay <= min(0.5, 0.1 * 2.0**k)

    def test_deadline_truncates_and_stops(self):
        import random

        clock = FakeClock()
        policy = RetryPolicy(
            attempts=100, base=10.0, factor=1.0, cap=10.0,
            deadline=5.0, rng=random.Random(7), clock=clock,
        )
        total = 0.0
        for delay in policy.delays():
            total += delay
            clock.advance(delay)
        assert total <= 5.0 + 1e-9

    def test_seeded_jitter_is_reproducible(self):
        import random

        a = RetryPolicy(attempts=6, rng=random.Random(42))
        b = RetryPolicy(attempts=6, rng=random.Random(42))
        assert list(a.delays()) == list(b.delays())

    def test_validation(self):
        with pytest.raises(ExecutionError):
            RetryPolicy(attempts=0)
        with pytest.raises(ExecutionError):
            RetryPolicy(base=0.0)
        with pytest.raises(ExecutionError):
            RetryPolicy(base=1.0, cap=0.5)


# ----------------------------------------------------------------------
# tenants.yaml loader
# ----------------------------------------------------------------------
YAML = """
# service quotas
defaults:
  rate: 5000          # events/second
  burst: 8192
  queue_budget_bytes: 1048576
  num_keys: 64
tenants:
  alice:
    rate: 1000.5
    checkpoint_every: 256
  bob:
    num_shards: 2
    backend: "process"
  carol:              # all defaults
"""


class TestConfigLoader:
    def test_parse_simple_yaml_nesting_and_scalars(self):
        data = parse_simple_yaml(YAML)
        assert data["defaults"]["rate"] == 5000
        assert data["tenants"]["alice"]["rate"] == 1000.5
        assert data["tenants"]["bob"]["backend"] == "process"
        assert data["tenants"]["carol"] == {}

    def test_scalar_types(self):
        data = parse_simple_yaml(
            "a:\n  i: 3\n  f: 1.5\n  t: true\n  n: null\n  s: 'x y'\n"
        )["a"]
        assert data == {"i": 3, "f": 1.5, "t": True, "n": None, "s": "x y"}

    def test_json_fast_path(self):
        cfg = load_tenants_config('{"defaults": {"rate": 7}}')
        assert cfg.defaults.rate == 7

    def test_tabs_raise(self):
        with pytest.raises(ExecutionError, match="tabs"):
            parse_simple_yaml("a:\n\tb: 1\n")

    def test_load_merges_defaults_fieldwise(self):
        cfg = load_tenants_config(YAML)
        assert cfg.config_for("alice").rate == 1000.5
        assert cfg.config_for("alice").num_keys == 64  # inherited
        assert cfg.config_for("bob").num_shards == 2
        assert cfg.config_for("carol") == cfg.defaults
        assert cfg.config_for("undeclared") == cfg.defaults

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "tenants.yaml"
        path.write_text(YAML)
        cfg = load_tenants_config(path)
        assert cfg.config_for("bob").backend == "process"

    def test_unknown_keys_raise(self):
        with pytest.raises(ExecutionError, match="unknown tenant config"):
            load_tenants_config("tenants:\n  a:\n    rtae: 5\n")
        with pytest.raises(ExecutionError, match="section"):
            load_tenants_config("defautls:\n  rate: 5\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("defaults:\n  rate: 0\n", "defaults: rate must be > 0, got 0"),
            (
                "defaults:\n  rate: fast\n",
                "defaults: rate must be a number, got 'fast'",
            ),
            (
                "tenants:\n  a:\n    backend: nope\n",
                "tenant 'a': backend must be one of ('serial', 'process', "
                "'shm'), got 'nope'",
            ),
            (
                "tenants:\n  a:\n    num_keys: 0\n",
                "tenant 'a': num_keys must be >= 1, got 0",
            ),
            (
                "defaults:\n  burst: true\n",
                "defaults: burst must be a number, got True",
            ),
            (
                "tenants:\n  a:\n    chunk_ticks: 2.5\n",
                "tenant 'a': chunk_ticks must be an integer, got 2.5",
            ),
        ],
    )
    def test_unrunnable_configs_are_refused_at_load(self, text, message):
        """Each of these used to load and then fail every request (or,
        for ``backend``, be silently ignored by a one-shard session)."""
        with pytest.raises(ExecutionError) as excinfo:
            load_tenants_config(text)
        assert str(excinfo.value) == message

    def test_every_construction_runs_the_check(self):
        from dataclasses import replace

        with pytest.raises(ExecutionError, match="num_keys must be >= 1"):
            TenantConfig(num_keys=0)
        with pytest.raises(ExecutionError, match="rate must be > 0"):
            replace(TenantConfig(), rate=-1.0)
        with pytest.raises(ExecutionError, match="max_lateness"):
            TenantConfig().merged({"max_lateness": -1})

    def test_lifted_quotas_still_load(self):
        """The shapes the benchmark and the service tests send: float
        rates and bursts, integer byte budgets."""
        cfg = load_tenants_config(
            {
                "defaults": {
                    "num_keys": 8,
                    "max_lateness": 4,
                    "rate": 1e9,
                    "burst": 10**9,
                    "queue_budget_bytes": 1 << 30,
                }
            }
        )
        assert cfg.defaults.burst == 10**9
        text = "defaults:\n  burst: 1e9\n"
        assert load_tenants_config(text).defaults.burst == 1e9

    def test_config_is_immutable_and_mergeable(self):
        base = TenantConfig()
        merged = base.merged({"rate": 1.0})
        assert base.rate != 1.0 and merged.rate == 1.0
        assert isinstance(
            ServiceConfig(base, {}).config_for("x"), TenantConfig
        )
