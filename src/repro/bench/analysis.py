"""Statistical helpers for the evaluation: correlation and summaries.

Self-contained (NumPy only) so the benchmark harness has no SciPy
dependency; tests cross-check :func:`pearson_r` against
``scipy.stats.pearsonr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length samples."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("pearson_r needs two equal samples of size >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return float("nan")
    return float(xc @ yc) / denom


@dataclass
class SampleStats:
    """Mean and (population) standard deviation of a sample."""

    mean: float
    std: float
    count: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "SampleStats":
        array = np.asarray(list(values), dtype=np.float64)
        if array.size == 0:
            return cls(mean=0.0, std=0.0, count=0)
        return cls(
            mean=float(array.mean()),
            std=float(array.std()),
            count=int(array.size),
        )
