"""The benchmark's tail rule and an empty-safe mean, on top of :mod:`statistics`."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float]:
    """``(pct, value)`` of the highest whole percentile with at least
    ``beyond`` samples above it (linear interpolation); the maximum
    (pct 100) when there are too few samples for any percentile to
    qualify."""
    count = len(values)
    if count <= beyond:
        return 100.0, max(values)
    pct = math.floor(100.0 * (1.0 - beyond / count))
    return float(pct), statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def mean(values: Sequence[float], empty: float = 0.0) -> float:
    """:func:`statistics.fmean`, but ``empty`` for no samples, so a run in
    which nothing settled still reports."""
    return statistics.fmean(values) if values else empty
