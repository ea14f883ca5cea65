"""Pure statistics of the benchmark: percentiles and summaries.

Everything here is a function of plain numbers so it can be tested on
synthetic inputs (see ``perfbench/tests``).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond its rank.
MIN_BEYOND = 10
#: The latency limit: a reply slower than this does not count as goodput.
LATENCY_LIMIT_MS = 25.0


def percentile(samples: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Nearest-rank ``q`` percentile, or None without enough tail support.

    The value is the sample at rank ``ceil(q * n)`` (1-based); it is
    reported only when ``n - rank >= min_beyond`` samples lie beyond it,
    so a p99 needs at least 1,000 samples.
    """
    n = len(samples)
    if n == 0 or not 0.0 < q <= 1.0:
        return None
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < min_beyond:
        return None
    return float(sorted(samples)[rank - 1])


def summary(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, quartiles and sample count of one metric's samples."""
    values = [float(v) for v in samples]
    out: Dict[str, Optional[float]] = {"n": len(values), "median": None,
                                       "q1": None, "q3": None}
    if values:
        out["median"] = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            out["q1"], out["q3"] = q1, q3
        else:
            out["q1"] = out["q3"] = values[0]
    return out

