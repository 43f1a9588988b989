"""Result identity between runs, rungs and the oracle.

Every run's output is normalised to *blocks*:
``{(label, (range, slide)): (aggregate, start_instance, values)}`` with
``values[key, i]`` the result of instance ``start_instance + i``.
"""

from __future__ import annotations

import numpy as np


def session_blocks(parts, aggregates) -> dict:
    """Blocks from session results.  ``parts`` is a list of
    ``{query: {Window: WindowResults}}`` dicts in emission order (the
    ``drain_results()`` polls, then ``finish()``); consecutive blocks
    of one subscription are stitched along the instance axis."""
    pieces: dict = {}
    for part in parts:
        for name, by_window in part.items():
            for window, block in by_window.items():
                pieces.setdefault(
                    (name, (window.range, window.slide)), []
                ).append(block)
    out = {}
    for key, blocks in pieces.items():
        for before, after in zip(blocks, blocks[1:]):
            if after.start_instance != before.frontier:
                raise AssertionError(
                    f"{key}: drained blocks are not contiguous "
                    f"({before.frontier} then {after.start_instance})"
                )
        values = np.concatenate([b.values for b in blocks], axis=1)
        out[key] = (aggregates[key[0]], blocks[0].start_instance, values)
    return out


def engine_blocks(label: str, aggregate: str, results) -> dict:
    """Blocks from one ``ExecutionResult.results`` mapping."""
    return {
        (label, (window.range, window.slide)): (aggregate, 0, values)
        for window, values in results.items()
    }


def mismatched_cells(got: dict, want: dict, rtol: float = 0.0) -> int:
    """How many result cells of ``got`` differ from ``want``.

    ``rtol=0`` demands bit-identity (NaN == NaN).  The two must hold the
    same subscriptions over exactly the same instances: a block that is
    missing, extra, or starts or ends elsewhere counts whole, so lost
    results fail like wrong ones.
    """
    bad = 0
    for key in set(got) | set(want):
        if key not in got or key not in want:
            present = got.get(key) or want.get(key)
            bad += max(1, int(present[2].size))
            continue
        _, start, values = got[key]
        _, ref_start, ref = want[key]
        if start != ref_start or values.shape != ref.shape:
            bad += max(1, int(values.size), int(ref.size))
            continue
        if rtol:
            same = np.isclose(values, ref, rtol=rtol, atol=rtol, equal_nan=True)
        else:
            same = (values == ref) | (np.isnan(values) & np.isnan(ref))
        bad += int(values.size - np.count_nonzero(same))
    return bad


def cut_to_lifetime(blocks: dict, lifetimes: dict) -> dict:
    """Blocks of whole-stream results cut to the instances a live
    subscription owns.  ``lifetimes[label] = (born, died)`` are the
    watermarks at which the query was registered and deregistered
    (``died`` ``None``: live to the end): the subscription starts at the
    first instance opening at or after ``born`` and ends with the last
    one closed by ``died`` (DESIGN.md section 6, invariant 9)."""
    out = {}
    for (label, (rng_ticks, slide)), (agg, start, values) in blocks.items():
        born, died = lifetimes.get(label, (0, None))
        lo = max(0, -(-born // slide) - start)
        hi = values.shape[1]
        if died is not None:
            hi = min(hi, max(lo, (died - rng_ticks) // slide + 1 - start))
        out[label, (rng_ticks, slide)] = (agg, start + lo, values[:, lo:hi])
    return out


def oracle_cells(blocks: dict) -> list:
    """Blocks in the shape :func:`oracle.spot_check` samples from."""
    return [
        (label, aggregate, window, start, values)
        for (label, window), (aggregate, start, values) in sorted(
            blocks.items()
        )
    ]


def total_cells(blocks: dict) -> int:
    return sum(int(values.size) for _, _, values in blocks.values())
