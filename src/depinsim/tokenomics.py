"""Token release schedules: cliff-linear vesting and halving emissions.

Token quantities are real-valued (double precision). Months are 1-based;
month 0 is the pre-launch state with zero circulating supply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Dict, Tuple, Union

import numpy as np

from .bounds import check_ranges


class ScheduleKind(Enum):
    CLIFF_LINEAR = "cliff_linear"
    HALVING_EMISSION = "halving_emission"


@dataclass(frozen=True)
class TokenAllocation:
    """Fixed total supply split between the three stakeholder classes."""

    total_supply: float = field(default=1_000_000_000.0, metadata={"range": "(0, inf)"})
    team_fraction: float = field(default=0.20, metadata={"range": "[0, 1]"})
    vc_fraction: float = field(default=0.20, metadata={"range": "[0, 1]"})
    node_fraction: float = field(default=0.60, metadata={"range": "[0, 1]"})

    def __post_init__(self):
        check_ranges(self)
        total = self.team_fraction + self.vc_fraction + self.node_fraction
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"allocation fractions sum to {total}, expected 1.0")

    @property
    def team_tokens(self) -> float:
        return self.team_fraction * self.total_supply

    @property
    def vc_tokens(self) -> float:
        return self.vc_fraction * self.total_supply

    @property
    def node_tokens(self) -> float:
        return self.node_fraction * self.total_supply


@dataclass(frozen=True)
class VestingSchedule:
    """Release rule for one stakeholder class.

    CLIFF_LINEAR: nothing for `cliff_months`, a lump `unlock_at_cliff`
    fraction the month after, then the rest in equal monthly tranches over
    `linear_months`.  HALVING_EMISSION: equal monthly payouts whose rate
    halves every `halving_period_months` (per-period fractions 1/2, 1/4, ...
    sum to 1 in the limit).
    """

    # The fields each kind reads: all a config section writes or accepts besides `kind`.
    FIELDS_BY_KIND: ClassVar[Dict[ScheduleKind, Tuple[str, ...]]] = {
        ScheduleKind.CLIFF_LINEAR: ("cliff_months", "unlock_at_cliff", "linear_months"),
        ScheduleKind.HALVING_EMISSION: ("halving_period_months",),
    }

    kind: ScheduleKind
    cliff_months: int = field(default=0, metadata={"range": "[0, inf)"})
    unlock_at_cliff: float = field(default=0.0, metadata={"range": "[0, 1]"})
    # A release divides by these lengths, so each must convert to a float.
    linear_months: int = field(default=1, metadata={"range": "[1, 1e300]"})
    halving_period_months: int = field(default=48, metadata={"range": "[1, 1e300]"})

    def __post_init__(self):
        if self.kind not in self.FIELDS_BY_KIND:
            raise ValueError(f"unknown schedule kind: {self.kind!r}")
        check_ranges(self)

    @classmethod
    def cliff_linear(cls, cliff_months: int, unlock_at_cliff: float, linear_months: int) -> "VestingSchedule":
        return cls(
            kind=ScheduleKind.CLIFF_LINEAR,
            cliff_months=cliff_months,
            unlock_at_cliff=unlock_at_cliff,
            linear_months=linear_months,
        )

    @classmethod
    def halving(cls, period_months: int) -> "VestingSchedule":
        return cls(kind=ScheduleKind.HALVING_EMISSION, halving_period_months=period_months)


# Default schedules: team 4y vesting with 1y cliff (25% lump), VC 2y vesting
# with 1y cliff (50% lump), node emission halving every 48 months.
TEAM_SCHEDULE = VestingSchedule.cliff_linear(cliff_months=11, unlock_at_cliff=0.25, linear_months=36)
VC_SCHEDULE = VestingSchedule.cliff_linear(cliff_months=11, unlock_at_cliff=0.50, linear_months=12)
NODE_SCHEDULE = VestingSchedule.halving(period_months=48)


Months = Union[int, np.ndarray]  # a month, or an integer array of months
Tokens = Union[float, np.ndarray]  # a float per month


def _check_month(month, minimum: int = 1) -> Months:
    """`month` as an int, or an integer array of months as int64; each must be at least `minimum`."""
    if isinstance(month, np.ndarray):
        months = month.astype(np.int64, copy=False) if month.dtype.kind in "iu" else None
        if months is None or (months.size and months.min() < minimum):
            raise ValueError(f"month must be an integer >= {minimum}, got {month!r}")
        return months
    m = int(month)
    if m != month or m < minimum:
        raise ValueError(f"month must be an integer >= {minimum}, got {month!r}")
    return m


def release(month: Months, total: float, schedule: VestingSchedule) -> Tokens:
    """Tokens released in `month` out of `total` under `schedule`.

    Like `heuristic_entry`, it broadcasts: over an integer array of months it
    returns one value per month, each equal to that month's scalar call.
    """
    month = _check_month(month)
    if schedule.kind is ScheduleKind.CLIFF_LINEAR:
        cliff, unlock, linear = schedule.cliff_months, schedule.unlock_at_cliff, schedule.linear_months
        # Each month's phase: 0 up to the cliff, 1 the month after it, 2 over the tranches, 3 after them.
        phase = 0 + (month > cliff) + (month > cliff + 1) + (month > cliff + 1 + linear)
        tokens = (0.0, unlock * total, (1.0 - unlock) * total / linear, 0.0)
        return np.array(tokens)[phase] if isinstance(month, np.ndarray) else tokens[phase]
    # Halving emission: period p covers months [p*L+1, (p+1)*L] and pays
    # total * 2^-(p+1) spread equally over its L months.  An int64 month lies
    # in period 0 of any period at least the largest int64, so an array of
    # months is divided by at most that.
    length = schedule.halving_period_months
    period = (month - 1) // (length if isinstance(month, int) else min(length, np.iinfo(np.int64).max))
    return total * 0.5 ** (period + 1) / length


def cumulative_release(month: int, total: float, schedule: VestingSchedule) -> float:
    """Closed-form sum of release() over months 1..month (month 0 -> 0)."""
    month = _check_month(month, minimum=0)
    if month == 0:
        return 0.0
    if schedule.kind is ScheduleKind.CLIFF_LINEAR:
        if month <= schedule.cliff_months:
            return 0.0
        tranche = (1.0 - schedule.unlock_at_cliff) * total / schedule.linear_months
        vested = min(month - schedule.cliff_months - 1, schedule.linear_months)
        return schedule.unlock_at_cliff * total + vested * tranche
    length = schedule.halving_period_months
    full_periods = month // length
    remainder = month - full_periods * length
    completed = total * (1.0 - 0.5**full_periods)
    return completed + remainder * (total * 0.5 ** (full_periods + 1) / length)


def team_release(month: Months, alloc: TokenAllocation, schedule: VestingSchedule = TEAM_SCHEDULE) -> Tokens:
    """Core-team tokens released in `month` (one value per month of an array)."""
    return release(month, alloc.team_tokens, schedule)


def vc_release(month: Months, alloc: TokenAllocation, schedule: VestingSchedule = VC_SCHEDULE) -> Tokens:
    """Venture-capital tokens released in `month` (one value per month of an array)."""
    return release(month, alloc.vc_tokens, schedule)


def node_emission(month: Months, alloc: TokenAllocation, schedule: VestingSchedule = NODE_SCHEDULE) -> Tokens:
    """Node-provider tokens emitted in `month` (one value per month of an array)."""
    return release(month, alloc.node_tokens, schedule)


def circulating_supply(
    month: int,
    alloc: TokenAllocation,
    team_schedule: VestingSchedule = TEAM_SCHEDULE,
    vc_schedule: VestingSchedule = VC_SCHEDULE,
    node_schedule: VestingSchedule = NODE_SCHEDULE,
) -> float:
    """Cumulative tokens released by all three schedules through `month`."""
    month = _check_month(month, minimum=0)
    return (
        cumulative_release(month, alloc.team_tokens, team_schedule)
        + cumulative_release(month, alloc.vc_tokens, vc_schedule)
        + cumulative_release(month, alloc.node_tokens, node_schedule)
    )


def vesting_table(
    horizon: int, alloc: TokenAllocation, team: VestingSchedule, vc: VestingSchedule, node: VestingSchedule
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Months 1..horizon's team, VC and node releases, one broadcasting `release` call per class, and
    the circulating supply after each month: their running sum, which adds left to right, so each
    month's supply is the month before's plus its releases.  It may differ from the closed form
    `circulating_supply` in the last bits; month 1's is the same float."""
    months = np.arange(1, horizon + 1)
    releases = (release(months, alloc.team_tokens, team), release(months, alloc.vc_tokens, vc),
                release(months, alloc.node_tokens, node))
    with np.errstate(over="ignore"):  # a supply beyond the float range is inf
        return (*releases, np.cumsum(releases[0] + releases[1] + releases[2]))
