"""Synthetic event streams — Section V-A-2.

The paper's synthetic datasets (*Synthetic-1M*, *Synthetic-10M*) are
streams whose "events arrive at a constant pace", matching the cost
model's steady-rate assumption ``η``.  ``constant_rate_stream``
reproduces that: ``rate`` events per tick, Gaussian sensor-like values,
optional multiple device keys.

Benchmark presets default to scaled-down sizes so the suite finishes in
CI time; pass larger ``num_events`` to approach the paper's sizes.
"""

from __future__ import annotations

import numpy as np

from ..engine.events import EventBatch
from ..errors import ExecutionError
from .rng import seeded_rng


def constant_rate_stream(
    num_events: int,
    num_keys: int = 1,
    rate: int = 1,
    seed: int = 1,
    mean: float = 20.0,
    stddev: float = 5.0,
) -> EventBatch:
    """A constant-pace stream: ``rate`` events per tick.

    Values are i.i.d. Gaussian (temperature-like); keys round-robin
    through devices so every device sees the same rate.
    """
    if num_events < 1:
        raise ExecutionError(f"num_events must be >= 1, got {num_events}")
    if rate < 1:
        raise ExecutionError(f"rate must be >= 1, got {rate}")
    rng = seeded_rng(seed)
    indices = np.arange(num_events, dtype=np.int64)
    timestamps = indices // rate
    keys = (indices % num_keys).astype(np.int64)
    values = rng.normal(mean, stddev, num_events)
    horizon = int(timestamps[-1]) + 1
    return EventBatch(
        timestamps=timestamps,
        keys=keys,
        values=values,
        horizon=horizon,
        num_keys=num_keys,
    )


def zipf_stream(
    num_events: int,
    num_keys: int,
    s: float = 1.2,
    rate: int = 1,
    seed: int = 1,
    mean: float = 20.0,
    stddev: float = 5.0,
    integer_values: bool = False,
) -> EventBatch:
    """A constant-pace stream with Zipf-skewed key popularity.

    Key ``rank r`` (1-based) receives a ``1 / r**s`` share of the
    events; ranks are shuffled over the key-id space so hot keys land
    on arbitrary slots of the hash partition, the regime the elastic
    runtime's hot-slot migration exists for (DESIGN.md §12).  ``s=0``
    degenerates to uniform; larger ``s`` concentrates the stream on
    fewer devices.

    ``integer_values`` rounds the Gaussian values to whole numbers, so
    every partial-sum merge is exact float64 arithmetic and results
    stay bit-identical under *any* re-association — including the
    extra flush boundaries hot-slot migration inserts mid-chunk.
    """
    if num_events < 1:
        raise ExecutionError(f"num_events must be >= 1, got {num_events}")
    if num_keys < 1:
        raise ExecutionError(f"num_keys must be >= 1, got {num_keys}")
    if rate < 1:
        raise ExecutionError(f"rate must be >= 1, got {rate}")
    if s < 0:
        raise ExecutionError(f"Zipf exponent must be >= 0, got {s}")
    rng = seeded_rng(seed)
    weights = 1.0 / np.arange(1, num_keys + 1, dtype=np.float64) ** s
    weights /= weights.sum()
    rank_to_key = rng.permutation(num_keys).astype(np.int64)
    indices = np.arange(num_events, dtype=np.int64)
    timestamps = indices // rate
    keys = rank_to_key[rng.choice(num_keys, size=num_events, p=weights)]
    values = rng.normal(mean, stddev, num_events)
    if integer_values:
        values = np.round(values)
    horizon = int(timestamps[-1]) + 1
    return EventBatch(
        timestamps=timestamps,
        keys=keys,
        values=values,
        horizon=horizon,
        num_keys=num_keys,
    )
