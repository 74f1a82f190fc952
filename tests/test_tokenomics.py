"""Vesting schedule tests: frozen examples, conservation, halving law."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from depinsim.engine import MAX_HORIZON
from depinsim.tokenomics import (
    NODE_SCHEDULE,
    TEAM_SCHEDULE,
    VC_SCHEDULE,
    ScheduleKind,
    TokenAllocation,
    VestingSchedule,
    circulating_supply,
    cumulative_release,
    node_emission,
    release,
    team_release,
    vc_release,
)

ALLOC = TokenAllocation()
TOTAL = ALLOC.total_supply


def brute_force_supply(month: int, alloc: TokenAllocation = ALLOC) -> float:
    """Independent oracle: naive month-by-month accumulation."""
    total = 0.0
    for m in range(1, month + 1):
        total += team_release(m, alloc) + vc_release(m, alloc) + node_emission(m, alloc)
    return total


class TestTeamRelease:
    def test_cliff_period_pays_nothing(self):
        for month in range(1, 12):
            assert team_release(month, ALLOC) == 0.0

    def test_cliff_unlock_at_month_12(self):
        assert team_release(12, ALLOC) == 50_000_000.0  # 0.25 * 0.20 * 1e9

    def test_linear_tranche(self):
        assert team_release(30, ALLOC) == pytest.approx(4_166_666.67, abs=1.0)

    def test_complete_after_month_48(self):
        assert team_release(49, ALLOC) == 0.0
        assert team_release(200, ALLOC) == 0.0

    @pytest.mark.parametrize("month", [0, -1, -7])
    def test_invalid_month(self, month):
        with pytest.raises(ValueError):
            team_release(month, ALLOC)

    def test_fractional_month_rejected(self):
        with pytest.raises(ValueError):
            team_release(2.5, ALLOC)


class TestVcRelease:
    def test_cliff_unlock(self):
        assert vc_release(12, ALLOC) == 100_000_000.0

    def test_linear_tranche(self):
        assert vc_release(18, ALLOC) == pytest.approx(8_333_333.33, abs=1.0)

    def test_complete_after_month_24(self):
        assert vc_release(25, ALLOC) == 0.0

    def test_invalid_month(self):
        with pytest.raises(ValueError):
            vc_release(0, ALLOC)


class TestNodeEmission:
    def test_first_period_rate(self):
        assert node_emission(1, ALLOC) == 6_250_000.0  # 0.5 * 6e8 / 48

    def test_halved_second_period(self):
        assert node_emission(49, ALLOC) == 3_125_000.0

    def test_constant_within_period(self):
        assert node_emission(96, ALLOC) == node_emission(49, ALLOC)

    def test_halving_law_exact(self):
        for month in range(1, 97):
            assert node_emission(month + 48, ALLOC) == node_emission(month, ALLOC) / 2

    def test_invalid_month(self):
        with pytest.raises(ValueError):
            node_emission(-3, ALLOC)


class TestCirculatingSupply:
    def test_prelaunch_is_zero(self):
        assert circulating_supply(0, ALLOC) == 0.0

    def test_month_24_matches_brute_force(self):
        # 100M team (50M cliff + 12 tranches) + 200M vc + 24 * 6.25M node.
        expected = brute_force_supply(24)
        assert expected == pytest.approx(450_000_000.0, abs=1.0)
        assert circulating_supply(24, ALLOC) == pytest.approx(expected, rel=1e-12)

    def test_long_run_limit_is_total_supply(self):
        # Two cliff schedules complete; the halving tail sums to 1.
        assert circulating_supply(4800, ALLOC) == pytest.approx(TOTAL, rel=1e-9)

    def test_equals_brute_force_over_40_years(self):
        running = 0.0
        for month in range(0, 481):
            if month > 0:
                running += (
                    team_release(month, ALLOC)
                    + vc_release(month, ALLOC)
                    + node_emission(month, ALLOC)
                )
            assert circulating_supply(month, ALLOC) == pytest.approx(running, abs=1e-6 * TOTAL)

    def test_monotone_and_bounded(self):
        previous = 0.0
        for month in range(0, 200):
            supply = circulating_supply(month, ALLOC)
            assert supply >= previous
            assert supply <= TOTAL * (1 + 1e-12)
            previous = supply


class TestConservation:
    def test_team_fully_vested_at_48(self):
        total = sum(team_release(m, ALLOC) for m in range(1, 49))
        assert total == pytest.approx(200_000_000.0, rel=1e-6)

    def test_vc_fully_vested_at_24(self):
        total = sum(vc_release(m, ALLOC) for m in range(1, 25))
        assert total == pytest.approx(200_000_000.0, rel=1e-6)

    def test_node_emissions_over_96_months(self):
        total = sum(node_emission(m, ALLOC) for m in range(1, 97))
        assert total == pytest.approx(450_000_000.0, rel=1e-6)

    def test_every_release_non_negative(self):
        for month in range(1, 481):
            assert team_release(month, ALLOC) >= 0.0
            assert vc_release(month, ALLOC) >= 0.0
            assert node_emission(month, ALLOC) >= 0.0


class TestCustomSchedules:
    def test_generic_release_respects_custom_cliff(self):
        sched = VestingSchedule.cliff_linear(cliff_months=5, unlock_at_cliff=0.5, linear_months=10)
        assert release(5, 1000.0, sched) == 0.0
        assert release(6, 1000.0, sched) == 500.0
        assert release(7, 1000.0, sched) == 50.0
        assert release(16, 1000.0, sched) == 50.0
        assert release(17, 1000.0, sched) == 0.0

    def test_cumulative_matches_sum_for_custom_halving(self):
        sched = VestingSchedule.halving(period_months=6)
        for month in range(0, 40):
            summed = sum(release(m, 960.0, sched) for m in range(1, month + 1))
            assert cumulative_release(month, 960.0, sched) == pytest.approx(summed, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": ScheduleKind.CLIFF_LINEAR, "cliff_months": -1},
            {"kind": ScheduleKind.CLIFF_LINEAR, "unlock_at_cliff": 1.5},
            {"kind": ScheduleKind.CLIFF_LINEAR, "linear_months": 0},
            {"kind": ScheduleKind.HALVING_EMISSION, "halving_period_months": 0},
        ],
    )
    def test_schedule_validation(self, kwargs):
        with pytest.raises(ValueError):
            VestingSchedule(**kwargs)

    def test_default_schedules_shape(self):
        assert TEAM_SCHEDULE.cliff_months == 11
        assert VC_SCHEDULE.unlock_at_cliff == 0.5
        assert NODE_SCHEDULE.halving_period_months == 48


class TestAllocationValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TokenAllocation(team_fraction=0.3, vc_fraction=0.3, node_fraction=0.3)

    def test_total_supply_positive(self):
        with pytest.raises(ValueError):
            TokenAllocation(total_supply=0.0)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError):
            TokenAllocation(team_fraction=-0.2, vc_fraction=0.6, node_fraction=0.6)

    def test_class_totals(self):
        assert ALLOC.team_tokens == 200_000_000.0
        assert ALLOC.vc_tokens == 200_000_000.0
        assert ALLOC.node_tokens == 600_000_000.0


MONTHS = np.arange(1, MAX_HORIZON + 1)
# Both kinds of schedule, with lengths out to the longest run; short halving periods
# reach the periods whose rate underflows (2**-1022 and below) within it.
SCHEDULES = st.one_of(
    st.builds(VestingSchedule.cliff_linear, cliff_months=st.integers(0, MAX_HORIZON),
              unlock_at_cliff=st.floats(0.0, 1.0), linear_months=st.integers(1, MAX_HORIZON)),
    st.builds(VestingSchedule.halving, period_months=st.integers(1, 100) | st.integers(1, MAX_HORIZON)),
)


def boundary_months(schedule: VestingSchedule):
    """The months where `schedule`'s rate changes, and their neighbours."""
    if schedule.kind is ScheduleKind.CLIFF_LINEAR:
        edges = (schedule.cliff_months, schedule.cliff_months + 1 + schedule.linear_months)
    else:  # period starts, up to those whose rate is subnormal or zero
        edges = [p * schedule.halving_period_months for p in (1, 2, 1020, 1021, 1022, 1023, 1073, 1074, 1075)]
    return [edge + step for edge in edges for step in (0, 1, 2)]


class TestBroadcastRelease:
    @settings(max_examples=60, deadline=None)
    @given(schedule=SCHEDULES, total=st.floats(1e-300, 1e300) | st.just(1e9),
           months=st.lists(st.integers(1, MAX_HORIZON), max_size=10))
    @example(schedule=VestingSchedule.halving(1), total=1e300, months=list(range(1000, 1100)))
    @example(schedule=VestingSchedule.halving(1), total=1e-300, months=list(range(1, 60)))
    def test_array_call_equals_the_scalar_calls(self, schedule, total, months):
        tokens = release(MONTHS, total, schedule)
        assert tokens.dtype == np.float64 and tokens.shape == MONTHS.shape
        for month in {m for m in (*boundary_months(schedule), *months, 1, MAX_HORIZON) if 1 <= m <= MAX_HORIZON}:
            scalar = release(month, total, schedule)
            assert type(scalar) is float
            assert tokens[month - 1].tobytes() == np.float64(scalar).tobytes(), month

    def test_class_releases_broadcast(self):
        months = np.arange(1, 121)
        for fn in (team_release, vc_release, node_emission):
            assert fn(months, ALLOC).tolist() == [fn(int(m), ALLOC) for m in months]

    def test_scalar_calls_return_floats_and_keep_their_errors(self):
        for month in (1, 12, np.int64(13), 14.0):
            assert type(release(month, TOTAL, TEAM_SCHEDULE)) is float
            assert type(release(month, TOTAL, NODE_SCHEDULE)) is float
        for month in (2.5, -1, 0, np.float64(1.5)):
            with pytest.raises(ValueError, match=re.escape(f"month must be an integer >= 1, got {month!r}")):
                release(month, TOTAL, TEAM_SCHEDULE)
        for months in (np.array([1, 0]), np.array([1.0, 2.0]), np.array([True])):
            with pytest.raises(ValueError, match="month must be an integer >= 1"):
                release(months, TOTAL, NODE_SCHEDULE)

    def test_lengths_must_convert_to_floats(self):
        # A release divides by them: beyond the float range, every release past the cliff would raise.
        for kwargs in ({"linear_months": 10**400}, {"halving_period_months": 10**400}):
            with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must lie in"):
                VestingSchedule(kind=ScheduleKind.CLIFF_LINEAR, **kwargs)
