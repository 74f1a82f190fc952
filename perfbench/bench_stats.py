"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
from typing import Sequence


class TooFewSamples(ValueError):
    """The percentile has fewer than ten samples beyond it."""


def beyond(n: int, p: float) -> float:
    """Expected number of samples above the p-th percentile of n samples."""
    return n * (100.0 - p) / 100.0


def percentile(samples: Sequence[float], p: float) -> float:
    """p-th percentile, linear between closest ranks (numpy's default).

    Refuses (TooFewSamples) unless at least ten samples lie beyond it, so a
    reported tail is never a single slow sample.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    n = len(samples)
    if beyond(n, p) < 10:
        raise TooFewSamples(f"p{p:g} needs at least ten samples beyond it; have {n} samples")
    ordered = sorted(samples)
    rank = (n - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)

