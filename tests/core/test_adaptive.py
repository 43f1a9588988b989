"""Tests for rate-aware adaptive re-optimization."""

import pytest

from repro.aggregates.registry import MIN
from repro.core.adaptive import (
    AdaptiveOptimizer,
    RateEstimator,
    plan_cost_at_rate,
    simulate_adaptive,
)
from repro.core.optimizer import optimize
from repro.errors import CostModelError
from repro.windows.window import Window, WindowSet


@pytest.fixture
def windows(example7_windows):
    return example7_windows


class TestRateEstimator:
    def test_first_observation_initializes(self):
        estimator = RateEstimator(alpha=0.5)
        assert estimator.observe(100, 10) == pytest.approx(10.0)

    def test_ewma_smoothing(self):
        estimator = RateEstimator(alpha=0.5)
        estimator.observe(100, 10)  # 10
        estimator.observe(200, 10)  # 0.5*20 + 0.5*10 = 15
        assert estimator.rate == pytest.approx(15.0)

    def test_integer_rate_floor(self):
        estimator = RateEstimator(alpha=1.0)
        estimator.observe(1, 10)
        assert estimator.integer_rate == 1

    def test_validation(self):
        with pytest.raises(CostModelError):
            RateEstimator(alpha=0.0)
        estimator = RateEstimator()
        with pytest.raises(CostModelError):
            estimator.observe(10, 0)
        with pytest.raises(CostModelError):
            estimator.observe(-1, 10)
        with pytest.raises(CostModelError):
            estimator.rate  # no observations yet


class TestPlanCostAtRate:
    def test_raw_costs_scale_subaggregates_dont(self, windows):
        result = optimize(windows, MIN, event_rate=1)
        at_one = plan_cost_at_rate(result, 1)
        at_five = plan_cost_at_rate(result, 5)
        assert at_one == result.best_cost
        # Raw reads scale by 5; sub-aggregate reads stay: total less
        # than 5x but more than 1x.
        assert at_one < at_five < 5 * at_one

    def test_holistic_plan_scales_linearly(self, windows):
        from repro.aggregates.registry import MEDIAN

        result = optimize(windows, MEDIAN)
        assert plan_cost_at_rate(result, 3) == 3 * plan_cost_at_rate(result, 1)


class TestAdaptiveOptimizer:
    def test_first_observation_plans(self, windows):
        adaptive = AdaptiveOptimizer(windows, MIN)
        changed = adaptive.observe(120, 120, epoch=0)
        assert changed
        assert adaptive.current.best_cost > 0

    def test_hysteresis_suppresses_replanning(self, windows):
        adaptive = AdaptiveOptimizer(windows, MIN, hysteresis=0.5, alpha=1.0)
        adaptive.observe(1200, 120, epoch=0)  # rate 10
        assert not adaptive.observe(1320, 120, epoch=1)  # rate 11: +10%
        assert len(adaptive.switches) == 1

    def test_large_drift_replans(self, windows):
        adaptive = AdaptiveOptimizer(windows, MIN, hysteresis=0.25, alpha=1.0)
        adaptive.observe(120, 120, epoch=0)  # rate 1
        adaptive.observe(12_000, 120, epoch=1)  # rate 100
        assert adaptive.estimator.integer_rate == 100

    def test_plan_cache_reused(self, windows):
        adaptive = AdaptiveOptimizer(windows, MIN, hysteresis=0.0, alpha=1.0)
        adaptive.observe(120, 120, epoch=0)
        first = adaptive.current
        adaptive.observe(2400, 120, epoch=1)
        adaptive.observe(120, 120, epoch=2)
        # back to rate ~1; direct estimate since alpha=1
        assert adaptive.current is first

    def test_current_before_observe_raises(self, windows):
        with pytest.raises(CostModelError):
            AdaptiveOptimizer(windows, MIN).current


class TestSimulateAdaptive:
    @pytest.mark.parametrize(
        "trace",
        [
            [1] * 4 + [50] * 8 + [1] * 4,
            [1] * 6 + [120] * 4 + [1] * 6,
            [1, 2, 4, 8, 16, 32, 64, 128, 64, 32, 16, 8, 4, 2, 1, 1],
        ],
        ids=["step", "burst", "ramp"],
    )
    def test_adaptive_between_oracle_and_static(self, trace):
        # A window set whose best plan flips with the rate: the W(2,1)
        # factor window's benefit is 36η − 70, negative at η = 1 and
        # positive from η = 2 on.
        windows = WindowSet([Window(6, 3), Window(8, 4)])
        outcome = simulate_adaptive(
            windows, MIN, trace, hysteresis=0.2, alpha=1.0
        )
        assert outcome.oracle_cost <= outcome.adaptive_cost
        # The static η=1 plan misses the factor window at high rate.
        assert outcome.adaptive_cost < outcome.static_cost

    def test_plan_flips_with_rate(self):
        windows = WindowSet([Window(6, 3), Window(8, 4)])
        low = optimize(windows, MIN, event_rate=1)
        high = optimize(windows, MIN, event_rate=5)
        assert not low.with_factors.factor_windows
        assert high.with_factors.factor_windows == (Window(2, 1),)
        assert high.best is high.with_factors

    def test_constant_trace_never_switches_twice(self, windows):
        outcome = simulate_adaptive(windows, MIN, [5] * 10, alpha=1.0)
        assert len(outcome.switches) == 1
        assert outcome.regret == pytest.approx(1.0)

    def test_savings_metric(self, windows):
        outcome = simulate_adaptive(
            windows, MIN, [1] * 3 + [80] * 10, hysteresis=0.2, alpha=1.0
        )
        assert 0.0 <= outcome.savings_vs_static <= 1.0

    def test_empty_trace_rejected(self, windows):
        with pytest.raises(CostModelError):
            simulate_adaptive(windows, MIN, [])

    def test_epoch_rates_recorded(self, windows):
        outcome = simulate_adaptive(windows, MIN, [2, 3, 4], alpha=1.0)
        assert outcome.epoch_rates == [2, 3, 4]
