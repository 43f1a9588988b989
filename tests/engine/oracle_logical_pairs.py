"""Reference pair accounting: the per-event formula.

This is ``engine.panes.logical_raw_pairs`` as it shipped before it
became two binary searches over instance boundaries, kept verbatim as
the oracle of ``test_panes.py``: one covering-instance interval per
event, clipped to the owned range, summed.  Five O(N) array passes and
obviously right; tests only.
"""

from __future__ import annotations

import numpy as np

from repro.windows.window import Window


def logical_raw_pairs(
    timestamps: np.ndarray,
    window: Window,
    num_instances: "int | None",
    start_instance: int = 0,
) -> int:
    """Event at ``ts`` joins instances ``ts//s - j`` for ``j in [0, k)``
    intersected with ``[start_instance, num_instances)``."""
    if timestamps.size == 0:
        return 0
    if num_instances is not None and num_instances <= start_instance:
        return 0
    k = window.instances_per_event
    base = timestamps // window.slide
    hi = base if num_instances is None else np.minimum(base, num_instances - 1)
    lo = np.maximum(base - (k - 1), start_instance)
    return int(np.maximum(hi - lo + 1, 0).sum())
