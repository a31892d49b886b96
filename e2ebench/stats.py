"""Order statistics with the sample-count rule the benchmark reports by.

A percentile is quoted only when at least :data:`MIN_BEYOND` samples lie
beyond it, so a p90 needs 100 samples and a median needs 20.  Every
quoted figure carries its sample count.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Samples that must lie strictly beyond a quoted percentile.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    if n <= 0:
        return 0
    rank = max(1, math.ceil(q * n))
    return n - rank


def percentile(values: Sequence[float], q: float) -> Dict[str, Optional[float]]:
    """Nearest-rank ``q`` percentile of ``values`` with its sample count.

    Returns ``{"value": v, "n": n}``; ``value`` is ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond the percentile, so a thin sample
    is never quoted as if it supported the tail.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND:
        return {"value": None, "n": n}
    ordered = sorted(values)
    return {"value": float(ordered[max(1, math.ceil(q * n)) - 1]), "n": n}


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile (``statistics.quantiles`` rule).

    Used for run-to-run spreads, which the bounds in ``BENCHMARK.json``
    are checked with; a single value is its own quartiles.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}
