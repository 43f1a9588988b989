"""A DEBS-2012-like manufacturing sensor stream — Section V-A-2.

The paper's *Real-32M* dataset pairs the DEBS 2012 Grand Challenge
timestamps with the ``mf01`` column ("electrical power main-phase 1"
sensor readings from manufacturing equipment, sampled at a fixed rate).
The trace itself is not redistributable/offline-available, so this
module synthesizes a stream with the same relevant structure:

* fixed sampling rate (one reading per tick — aggregation *cost* in
  every engine depends only on event timing, which this preserves);
* a realistic value process for ``mf01``: a base power level with slow
  drift, a periodic machine-cycle component, Gaussian measurement
  noise, and occasional load bursts (power spikes while a tool
  engages).

See DESIGN.md §2 for the substitution rationale.
"""

from __future__ import annotations

import numpy as np

from ..engine.events import EventBatch
from ..errors import ExecutionError
from .rng import seeded_rng

#: Rough level of the mf01 sensor in the original trace (raw ADC-like units).
MF01_BASE_LEVEL = 10_000.0


def debs_like_stream(
    num_events: int,
    num_keys: int = 1,
    seed: int = 7,
    burst_probability: float = 0.001,
    burst_magnitude: float = 2_500.0,
) -> EventBatch:
    """Synthesize a *Real-32M*-shaped stream (scaled to ``num_events``).

    ``num_keys`` models multiple monitored machines; the original trace
    has one, but the IoT-dashboard scenario of Section I groups by
    device, so multi-key streams are useful in examples.
    """
    if num_events < 1:
        raise ExecutionError(f"num_events must be >= 1, got {num_events}")
    rng = seeded_rng(seed)
    indices = np.arange(num_events, dtype=np.int64)
    timestamps = indices.copy()
    keys = (indices % num_keys).astype(np.int64)

    ticks = indices.astype(np.float64)
    drift = 500.0 * np.sin(2.0 * np.pi * ticks / max(num_events, 2))
    machine_cycle = 300.0 * np.sin(2.0 * np.pi * ticks / 360.0)
    noise = rng.normal(0.0, 50.0, num_events)
    bursts = np.where(
        rng.random(num_events) < burst_probability,
        rng.exponential(burst_magnitude, num_events),
        0.0,
    )
    values = MF01_BASE_LEVEL + drift + machine_cycle + noise + bursts

    return EventBatch(
        timestamps=timestamps,
        keys=keys,
        values=values,
        horizon=num_events,
        num_keys=num_keys,
    )
