"""Independent brute-force oracle: one result cell straight from the
sorted events, sharing no code with ``src/`` — a change that breaks
every engine path identically still fails here."""

import numpy as np

_EMPTY = {"min": np.nan, "sum": 0.0, "avg": np.nan, "median": np.nan}
_REDUCE = {"min": np.min, "sum": np.sum, "avg": np.mean, "median": np.median}


def cell_value(stream, aggregate, window, instance, key) -> float:
    """``aggregate`` over events of ``key`` inside instance
    ``[instance * slide, instance * slide + range)`` of ``window``."""
    rng_ticks, slide = window
    lo = np.searchsorted(stream.ts, instance * slide, side="left")
    hi = np.searchsorted(stream.ts, instance * slide + rng_ticks, side="left")
    values = stream.values[lo:hi][stream.keys[lo:hi] == key]
    if values.size == 0:
        return _EMPTY[aggregate]
    return float(_REDUCE[aggregate](values))


def spot_check(stream, cells, seed, count=200, rtol=1e-9):
    """Sample ``count`` cells and compare them with :func:`cell_value`.

    ``cells`` lists ``(label, aggregate, (range, slide), start_instance,
    values)`` blocks, ``values[key, i]`` being instance
    ``start_instance + i``.  Returns ``(checked, mismatches)`` where
    each mismatch is ``(label, window, instance, key, got, expected)``.
    """
    blocks = [block for block in cells if block[4].size]
    if not blocks:
        return 0, [("no result cells to check", None, 0, 0, 0.0, 0.0)]
    rng = np.random.default_rng([seed, 4])
    mismatches = []
    for _ in range(count):
        label, aggregate, window, start, values = blocks[
            int(rng.integers(len(blocks)))
        ]
        key = int(rng.integers(values.shape[0]))
        column = int(rng.integers(values.shape[1]))
        got = float(values[key, column])
        expected = cell_value(stream, aggregate, window, start + column, key)
        if not np.isclose(got, expected, rtol=rtol, atol=0.0, equal_nan=True):
            mismatches.append(
                (label, window, start + column, key, got, expected)
            )
    return count, mismatches
