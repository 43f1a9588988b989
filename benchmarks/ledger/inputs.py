"""Seeded inputs for the layer ledger — NumPy only, no ``repro`` import.

Two kinds of randomness, kept apart on purpose:

* **shape** (``SHAPE_SEED``, a constant): the window sets drawn with
  the paper's RandomGen / SequentialGen (Section V-A-3) and the Zipf
  rank → key placement.  These decide *how much work* a workload is —
  plan cost moves 3× between window-set draws and the hot-shard share
  moves with key placement — so they are part of the workload's
  definition, like its event count.
* **sample** (``--seed``): every event's key, value and arrival jitter.
  A different seed gives different arrays with the same distribution,
  so a metric's spread across seeds measures the host, not the draw.

The program under test receives only the arrays / lists built here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SHAPE_SEED = 7
DEFAULT_SEED = 1

#: Paper defaults (Section V-B): seed slides / ranges, multiplier bound.
SEED_SLIDES = (5, 10, 20)
SEED_RANGES = (2, 5, 10)
MULTIPLIER = 50

#: Events per tick on every workload (the cost model's steady rate η).
RATE = 8


def random_gen(rng, size: int, tumbling: bool) -> "list[tuple[int, int]]":
    """Algorithm 6: ``size`` distinct ``(range, slide)`` windows, each
    drawn independently."""
    out: "set[tuple[int, int]]" = set()
    while len(out) < size:
        multiplier = int(rng.integers(2, MULTIPLIER + 1))
        if tumbling:
            r = multiplier * int(rng.choice(SEED_RANGES))
            out.add((r, r))
        else:
            s = multiplier * int(rng.choice(SEED_SLIDES))
            out.add((2 * s, s))
    return sorted(out)


def sequential_gen(rng, size: int, tumbling: bool) -> "list[tuple[int, int]]":
    """SequentialGen: multipliers ``2 .. size + 1`` on one drawn seed."""
    if tumbling:
        r0 = int(rng.choice(SEED_RANGES))
        return [(m * r0, m * r0) for m in range(2, size + 2)]
    s0 = int(rng.choice(SEED_SLIDES))
    return [(2 * m * s0, m * s0) for m in range(2, size + 2)]


def paper_window_sets(size: int = 10) -> "dict[str, list[tuple[int, int]]]":
    """The four window sets of ``plan_batch``:
    {RandomGen, SequentialGen} × {tumbling, hopping}."""
    rng = np.random.default_rng(SHAPE_SEED)
    return {
        "random_tumbling": random_gen(rng, size, True),
        "random_hopping": random_gen(rng, size, False),
        "sequential_tumbling": sequential_gen(rng, size, True),
        "sequential_hopping": sequential_gen(rng, size, False),
    }


@dataclass
class Stream:
    """One generated stream: timestamp-sorted columns plus the arrival
    order the program sees them in (``None`` = in order)."""

    ts: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    num_keys: int
    horizon: int
    max_lateness: int = 0
    arrival: "np.ndarray | None" = field(default=None, repr=False)

    @property
    def num_events(self) -> int:
        return int(self.ts.size)

    def arrival_columns(self):
        """``(ts, keys, values)`` in arrival order."""
        if self.arrival is None:
            return self.ts, self.keys, self.values
        order = self.arrival
        return self.ts[order], self.keys[order], self.values[order]

    def prefix(self, num_events: int) -> "Stream":
        """The stream cut at a tick boundary near ``num_events`` events
        (arrival order restricted to the kept events, so the disorder
        bound still holds)."""
        if num_events >= self.num_events:
            return self
        horizon = max(1, int(self.ts[num_events]))
        cut = int(np.searchsorted(self.ts, horizon, side="left"))
        arrival = None
        if self.arrival is not None:
            arrival = self.arrival[self.arrival < cut]
        return Stream(
            ts=self.ts[:cut],
            keys=self.keys[:cut],
            values=self.values[:cut],
            num_keys=self.num_keys,
            horizon=horizon,
            max_lateness=self.max_lateness,
            arrival=arrival,
        )


def constant_rate_stream(
    seed: int, num_events: int, num_keys: int
) -> Stream:
    """``RATE`` events per tick, uniform keys, Gaussian values."""
    rng = np.random.default_rng([seed, 1])
    ts = np.arange(num_events, dtype=np.int64) // RATE
    keys = rng.integers(0, num_keys, num_events, dtype=np.int64)
    values = rng.normal(20.0, 5.0, num_events)
    return Stream(ts, keys, values, num_keys, int(ts[-1]) + 1)


def jittered_stream(
    seed: int, num_events: int, num_keys: int, max_lateness: int
) -> Stream:
    """A constant-rate stream arriving out of order: each event's
    arrival slot is its timestamp plus uniform jitter in
    ``[0, max_lateness]`` ticks, so a reorder buffer with that bound
    absorbs the disorder with zero late drops."""
    stream = constant_rate_stream(seed, num_events, num_keys)
    rng = np.random.default_rng([seed, 2])
    jitter = rng.integers(0, max_lateness + 1, num_events)
    stream.arrival = np.argsort(stream.ts + jitter, kind="stable")
    stream.max_lateness = max_lateness
    return stream


def zipf_stream(
    seed: int, num_events: int, num_keys: int, exponent: float
) -> Stream:
    """Zipf-skewed key popularity with whole-number values.  Which key
    holds which rank is *shape* (it decides the hot shard); which key
    each event draws is *sample*."""
    weights = 1.0 / np.arange(1, num_keys + 1, dtype=np.float64) ** exponent
    weights /= weights.sum()
    rank_to_key = np.random.default_rng(SHAPE_SEED).permutation(num_keys)
    rng = np.random.default_rng([seed, 3])
    ts = np.arange(num_events, dtype=np.int64) // RATE
    ranks = rng.choice(num_keys, size=num_events, p=weights)
    keys = rank_to_key[ranks].astype(np.int64)
    values = np.round(rng.normal(20.0, 5.0, num_events))
    return Stream(ts, keys, values, num_keys, int(ts[-1]) + 1)


def _rows(ts, keys, values, batch_events: int) -> "list[list[tuple]]":
    rows = list(zip(ts.tolist(), keys.tolist(), values.tolist()))
    return [
        rows[lo : lo + batch_events]
        for lo in range(0, len(rows), batch_events)
    ]


def row_batches(stream: Stream, batch_events: int) -> "list[list[tuple]]":
    """The stream in arrival order as Python ``(ts, key, value)`` rows,
    cut into ``batch_events``-sized lists — what a per-event caller or
    a JSON client hands in."""
    return _rows(*stream.arrival_columns(), batch_events)


class StreamFeed:
    """An endless in-order, whole-valued constant-rate stream handed
    out as row batches on demand.  How much of it a service client gets
    through depends on how fast the server is, so it is drawn a segment
    at a time, between timed regions; the feed remembers what it handed
    out, for the reference and the oracle."""

    def __init__(self, seed: int, tenant: int, num_keys: int,
                 batch_events: int) -> None:
        self._rng = np.random.default_rng([seed, 5, tenant])
        self.num_keys = num_keys
        self.batch_events = batch_events
        self.batches_out = 0
        self._columns: "list[tuple]" = []

    def take(self, batches: int) -> "list[list[tuple]]":
        n = batches * self.batch_events
        first = self.batches_out * self.batch_events
        ts = (first + np.arange(n, dtype=np.int64)) // RATE
        keys = self._rng.integers(0, self.num_keys, n, dtype=np.int64)
        values = np.round(self._rng.normal(20.0, 5.0, n))
        self._columns.append((ts, keys, values))
        self.batches_out += batches
        return _rows(ts, keys, values, self.batch_events)

    def stream(self) -> Stream:
        """Everything handed out so far."""
        ts, keys, values = (np.concatenate(c) for c in zip(*self._columns))
        return Stream(ts, keys, values, self.num_keys, int(ts[-1]) + 1)


def column_batches(stream: Stream, batch_events: int) -> "list[tuple]":
    """The sorted stream as ``(ts, keys, values)`` column slices."""
    return [
        (
            stream.ts[lo : lo + batch_events],
            stream.keys[lo : lo + batch_events],
            stream.values[lo : lo + batch_events],
        )
        for lo in range(0, stream.num_events, batch_events)
    ]
