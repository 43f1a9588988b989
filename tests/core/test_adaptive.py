"""Tests for the rate estimator and the hysteresis replan gate."""

import pytest

from repro.aggregates.registry import MEDIAN, MIN
from repro.core.adaptive import RateController, RateEstimator
from repro.core.cost import CostModel
from repro.core.optimizer import optimize
from repro.errors import CostModelError
from repro.windows.window import VIRTUAL_ROOT, Window, WindowSet


def cost_at_rate(result, rate):
    """Re-price an already-chosen plan at another event rate: the
    providers stay fixed and only raw-read instance costs scale with η."""
    model = CostModel(event_rate=rate)
    best = result.best
    if best is None:
        return model.baseline_cost(result.windows)
    return sum(
        model.recurrence_count(window, best.period)
        * model.instance_cost(window, best.provider[window])
        for window in best.graph.nodes
        if window is not VIRTUAL_ROOT
    )


def replay(windows, trace, hysteresis, alpha):
    """Feed one epoch per trace rate to a :class:`RateController`,
    re-optimizing whenever it asks to, and total what three policies
    pay: the controller's plan, the plan for the first rate kept
    throughout, and the best plan for each epoch's true rate."""
    period = CostModel().hyper_period(windows)
    controller = RateController(hysteresis=hysteresis, alpha=alpha)
    static = optimize(windows, MIN, event_rate=trace[0])
    current, replans = None, []
    adaptive = static_cost = oracle = 0
    for rate in trace:
        new_rate = controller.observe(rate * period, period)
        if new_rate is not None:
            current = optimize(windows, MIN, event_rate=new_rate)
            replans.append(new_rate)
        adaptive += cost_at_rate(current, rate)
        static_cost += cost_at_rate(static, rate)
        oracle += optimize(windows, MIN, event_rate=rate).best_cost
    return adaptive, static_cost, oracle, replans


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
    def test_raw_costs_scale_subaggregates_dont(self, example7_windows):
        result = optimize(example7_windows, MIN, event_rate=1)
        at_one = cost_at_rate(result, 1)
        at_five = cost_at_rate(result, 5)
        assert at_one == result.best_cost
        # Raw reads scale by 5; sub-aggregate reads stay: total less
        # than 5x but more than 1x.
        assert at_one < at_five < 5 * at_one

    def test_holistic_plan_scales_linearly(self, example7_windows):
        result = optimize(example7_windows, MEDIAN)
        assert cost_at_rate(result, 3) == 3 * cost_at_rate(result, 1)


class TestRateController:
    @pytest.mark.parametrize("hysteresis", [-0.1, float("nan")])
    def test_rejects_negative_and_nan_hysteresis(self, hysteresis):
        with pytest.raises(CostModelError, match="hysteresis must be >= 0"):
            RateController(hysteresis=hysteresis)

    def test_zero_drift_never_replans(self):
        controller = RateController(hysteresis=0.25, initial_rate=100)
        assert [controller.observe(100, 1) for _ in range(4)] == [None] * 4
        assert controller.planned_rate == 100

    def test_drift_inside_the_band_returns_none(self):
        controller = RateController(
            hysteresis=0.25, alpha=1.0, initial_rate=100
        )
        assert controller.observe(125, 1) is None  # +25 %: on the band
        assert controller.observe(76, 1) is None  # −24 %
        assert controller.planned_rate == 100

    def test_drift_past_the_band_replans_and_reanchors(self):
        controller = RateController(
            hysteresis=0.25, alpha=1.0, initial_rate=100
        )
        assert controller.observe(130, 1) == 130
        assert controller.planned_rate == 130
        # Drift is now measured against 130, not the initial 100.
        assert controller.observe(150, 1) is None
        assert controller.observe(90, 1) == 90
        assert controller.planned_rate == 90

    def test_first_observation_plans_without_an_initial_rate(self):
        controller = RateController(alpha=1.0)
        assert controller.planned_rate is None
        assert controller.observe(50, 10) == 5
        assert controller.planned_rate == 5


def test_plan_flips_with_rate():
    """Why the gate exists: the W(2,1) factor window's benefit is
    36η − 70, negative at η = 1 and positive from η = 2 on."""
    windows = WindowSet([Window(6, 3), Window(8, 4)])
    low = optimize(windows, MIN, event_rate=1)
    high = optimize(windows, MIN, event_rate=5)
    assert not low.with_factors.factor_windows
    assert high.with_factors.factor_windows == (Window(2, 1),)
    assert high.best is high.with_factors


class TestReplanningOverRateTraces:
    @pytest.mark.parametrize(
        "trace",
        [
            [1] * 4 + [50] * 8 + [1] * 4,
            [1] * 6 + [120] * 4 + [1] * 6,
            [1, 2, 4, 8, 16, 32, 64, 128, 64, 32, 16, 8, 4, 2, 1, 1],
        ],
        ids=["step", "burst", "ramp"],
    )
    def test_controller_plans_between_oracle_and_static(self, trace):
        # The window set of test_plan_flips_with_rate: its best plan
        # gains the W(2,1) factor window from η = 2 on.
        windows = WindowSet([Window(6, 3), Window(8, 4)])
        adaptive, static, oracle, _ = replay(
            windows, trace, hysteresis=0.2, alpha=1.0
        )
        assert oracle <= adaptive
        # The static η=1 plan misses the factor window at high rate.
        assert adaptive < static

    def test_constant_trace_plans_once_and_optimally(self, example7_windows):
        adaptive, static, oracle, replans = replay(
            example7_windows, [5] * 10, hysteresis=0.25, alpha=1.0
        )
        assert replans == [5]
        assert adaptive == static == oracle
