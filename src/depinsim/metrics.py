"""Macro indicators: efficiency, inclusion, and stability.

Computed over simulated trajectories or external price series.  Undefined
metrics (no nodes, too-short series) are reported as None, never as zero.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    from .engine import Trajectory

# The three macro indicators, in report order: each is a MetricReport field and a compare.csv column pair.
INDICATORS = ("efficiency", "inclusion", "stability")


@dataclass(frozen=True)
class MetricReport:
    efficiency: float
    inclusion: Optional[float]
    stability: Optional[float]
    n_init: Optional[int]
    n_total: Optional[int]
    n_ext: Optional[int]
    window: Tuple[int, int]  # month range, inclusive

    def to_dict(self) -> dict:
        return {**asdict(self), "window": list(self.window)}


def efficiency(circulating: float, price: float) -> float:
    """Market capitalization: circulating tokens times token price."""
    if not (circulating >= 0 and price >= 0 and math.isfinite(circulating * price)):
        raise ValueError(f"efficiency inputs must be non-negative with a finite product, got {circulating}, {price}")
    return circulating * price


def inclusion(n_total: int, n_init: int) -> Optional[float]:
    """Fraction of all participating nodes run by external providers.

    None when there are no nodes at all (undefined, not zero).
    """
    if n_total == 0:
        return None
    if n_init < 0 or n_total < n_init:
        raise ValueError(f"need n_total >= n_init >= 0, got n_total={n_total}, n_init={n_init}")
    return (n_total - n_init) / n_total


def stability(prices: Sequence[float]) -> Optional[float]:
    """Sample standard deviation (N-1 denominator) of log price returns.

    Returns None for series too short to yield two returns.  Streaming
    (Welford) accumulation keeps constant-return series at exactly zero.
    """
    series = np.asarray(prices, dtype=float)
    if series.ndim != 1:
        raise ValueError("price series must be one-dimensional")
    if series.size < 3:
        return None
    bad = np.nonzero(~((series > 0) & (series < np.inf)))[0]
    if bad.size:
        raise ValueError(f"price not positive and finite at index {bad[0]}: {series[bad[0]]}")
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        returns = np.log(series[1:] / series[:-1])
    wide = np.abs(returns) > 708.0  # the ratio reached the ends of the float range: difference the logs
    returns[wide] = np.log(series[1:][wide]) - np.log(series[:-1][wide])
    mean = 0.0
    m2 = 0.0
    for i, r in enumerate(returns.tolist(), start=1):  # Python floats: the same IEEE steps, faster
        delta = r - mean
        mean += delta / i
        m2 += delta * (r - mean)
    return math.sqrt(m2 / (returns.size - 1))


def report(trajectory: "Trajectory") -> MetricReport:
    """Score a finished trajectory.

    Efficiency comes from the final month's state; inclusion counts every
    node that ever entered (cumulative, so healthy churn is not penalized);
    stability spans the config's `stability_window`, or the full price
    series when it is None.
    """
    rows = trajectory.month_rows
    if not rows:
        raise ValueError("trajectory has no recorded months")
    index = trajectory.row_fields.index
    month, entries, price = index("month"), index("entries"), index("token_price")
    start, end = rows[0][month], rows[-1][month]
    window = trajectory.config.stability_window or (start, end)
    first, last = int(window[0]), int(window[1])
    n_ext, windowed = 0, []
    for row in rows:  # one pass, indexing each row: faster than reading whole columns
        n_ext += row[entries]
        if first <= row[month] <= last:
            windowed.append(row[price])
    if not windowed:
        raise ValueError(f"stability window {window} selects no months (run covers {start}..{end})")
    n_init = trajectory.config.initial_nodes
    n_total = n_init + n_ext

    return MetricReport(
        efficiency=efficiency(rows[-1][index("circulating_supply")], rows[-1][price]),
        inclusion=inclusion(n_total, n_init),
        stability=stability(windowed),
        n_init=n_init,
        n_total=n_total,
        n_ext=n_ext,
        window=(first, last),
    )


def score_series(prices: Sequence[float], circulating: float, price: float) -> MetricReport:
    """Score an external price series; node metrics are unavailable."""
    return MetricReport(
        efficiency=efficiency(circulating, price),
        inclusion=None,
        stability=stability(prices),
        n_init=None,
        n_total=None,
        n_ext=None,
        window=(1, len(prices)),
    )


def read_price_series(path: Union[str, Path]) -> list:
    """Read one price per line; an optional single header line is skipped.

    Raises ValueError naming the offending row for unparseable or
    non-positive entries.
    """
    prices = []
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is not part of the first line
        for row, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                if row == 1 and not prices:  # header line
                    continue
                raise ValueError(f"row {row}: not a number: {text!r}") from None
            if not 0 < value < math.inf:
                raise ValueError(f"row {row}: price not positive and finite: {text}")
            prices.append(value)
    if not prices:
        raise ValueError(f"no prices found in {path}")
    return prices
