"""Rate-aware re-costing (the paper's §VI future work).

The paper's cost model is static: it prices plans for one assumed event
rate η.  Section VI calls out "how to dynamically adjust cost estimates
at runtime by keeping track of the input event rates" as future work.
This module provides the two pieces the live runtime uses:

* :class:`RateEstimator` — an exponentially-weighted estimate of the
  stream's events-per-tick rate, fed from observed batches;
* :class:`RateController` — estimator + hysteresis replan gate: the
  policy object a *live* :class:`~repro.runtime.QuerySession` feeds
  from real chunk boundaries (rate drift there triggers a watermark-
  safe plan switch, DESIGN.md §6).

Why rate matters at all: raw-event reads cost ``η·r`` per instance
while sub-aggregate reads cost ``M`` independent of η (Observation 1).
A factor window's benefit is therefore ``η·(Σ nj·rj − nf·rf) −
Σ nj·Mjf``-shaped — negative at low rates (the factor's own raw pass
dominates) and positive at high ones, so the *optimal plan changes with
the rate*, which is what makes adaptivity worth having.
"""

from __future__ import annotations

from ..errors import CostModelError


class RateEstimator:
    """EWMA estimator of the stream's event rate (events per tick).

    ``alpha`` close to 1 adapts quickly but jitters; close to 0 smooths
    but lags.  The first observation initializes the estimate directly.
    """

    def __init__(self, alpha: float = 0.3, initial_rate: "float | None" = None):
        if not 0.0 < alpha <= 1.0:
            raise CostModelError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._estimate: float | None = initial_rate
        self.observations = 0

    def observe(self, events: int, ticks: int) -> float:
        """Feed one observation window and return the new estimate."""
        if ticks <= 0:
            raise CostModelError(f"observation ticks must be > 0, got {ticks}")
        if events < 0:
            raise CostModelError(f"events must be >= 0, got {events}")
        rate = events / ticks
        if self._estimate is None:
            self._estimate = rate
        else:
            self._estimate = (
                self.alpha * rate + (1.0 - self.alpha) * self._estimate
            )
        self.observations += 1
        return self._estimate

    @property
    def rate(self) -> float:
        if self._estimate is None:
            raise CostModelError("rate estimator has no observations yet")
        return self._estimate

    @property
    def integer_rate(self) -> int:
        """The cost model needs an integer η >= 1."""
        return max(1, round(self.rate))


class RateController:
    """EWMA rate estimator behind a hysteresis replan gate.

    :meth:`observe` feeds one observation window and returns the new
    integer rate when the drift against the currently-planned rate
    exceeds ``hysteresis`` (meaning: re-plan now), else ``None``.  The
    caller decides what re-planning means — the live session re-prices
    every shared group.
    """

    def __init__(
        self,
        hysteresis: float = 0.25,
        alpha: float = 0.3,
        initial_rate: "float | None" = None,
    ):
        if not hysteresis >= 0:  # NaN fails every comparison
            raise CostModelError("hysteresis must be >= 0")
        self.hysteresis = hysteresis
        self.estimator = RateEstimator(alpha=alpha, initial_rate=initial_rate)
        self.planned_rate: "int | None" = (
            None if initial_rate is None else max(1, round(initial_rate))
        )

    def observe(self, events: int, ticks: int) -> "int | None":
        """Feed one observation; return the new rate iff a replan is due."""
        self.estimator.observe(events, ticks)
        rate = self.estimator.integer_rate
        if self.planned_rate is not None:
            drift = abs(rate - self.planned_rate) / self.planned_rate
            if drift <= self.hysteresis:
                return None
        self.planned_rate = rate
        return rate
