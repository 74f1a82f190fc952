"""Metric tests: frozen oracles, invariances, trajectory reports."""

import math
import warnings
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from depinsim.engine import MonthEvents, SimulationConfig, Trajectory, run
from depinsim.market import MarketState
from depinsim.metrics import (
    MetricReport,
    efficiency,
    inclusion,
    read_price_series,
    report,
    score_series,
    stability,
)
from conftest import month_rows

# Top DePIN tokens by market cap (May 2024 snapshot): (name, price, cap).
TOP_TOKENS = [
    ("ICP", 12.13, 5_631_971_226.0),
    ("RNDR", 10.24, 3_980_572_572.0),
    ("FIL", 5.94, 3_310_041_671.0),
    ("TAO", 416.51, 2_850_998_994.0),
    ("AR", 37.98, 2_486_050_282.0),
    ("THETA", 2.27, 2_274_255_874.0),
    ("AKT", 5.23, 1_247_039_844.0),
    ("BTT", 1.19e-6, 1_152_552_225.0),
    ("EGLD", 39.96, 1_078_774_444.0),
    ("AIOZ", 0.7824, 858_001_031.0),
]


def naive_two_pass_std(prices):
    """Independent oracle for stability: plain two-pass sample std."""
    returns = [math.log(b / a) for a, b in zip(prices, prices[1:])]
    mean = sum(returns) / len(returns)
    return math.sqrt(sum((r - mean) ** 2 for r in returns) / (len(returns) - 1))


class TestStability:
    def test_constant_series_is_exactly_zero(self):
        assert stability([5.0, 5.0, 5.0, 5.0]) == 0.0

    def test_geometric_series_is_exactly_zero(self):
        assert stability([1.0, 2.0, 4.0, 8.0]) == 0.0

    def test_alternating_series_oracle(self):
        expected = 2 * math.log(2) / math.sqrt(3)
        assert stability([1.0, 2.0, 1.0, 2.0]) == pytest.approx(expected, abs=1e-9)

    def test_too_short_series_is_undefined(self):
        assert stability([1.0, 2.0]) is None
        assert stability([1.0]) is None

    def test_non_positive_price_rejected(self):
        with pytest.raises(ValueError, match="index 2"):
            stability([1.0, 2.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            stability([1.0, -1.0, 2.0])

    def test_infinite_price_rejected(self):
        with pytest.raises(ValueError, match="index 1"):
            stability([1.0, math.inf, 2.0])

    def test_ratios_beyond_the_float_range_are_finite(self):
        """Steps whose price ratio overflows or underflows are the differences of the logs."""
        prices = [5e-324, 1.0, 1e300, 1e-300]
        logs = [math.log(p) for p in prices]
        steps = [b - a for a, b in zip(logs, logs[1:])]
        mean = sum(steps) / 3
        expected = math.sqrt(sum((r - mean) ** 2 for r in steps) / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stability(prices) == pytest.approx(expected, rel=1e-12)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=3, max_size=60),
        st.floats(min_value=0.001, max_value=1000.0),
    )
    def test_scale_invariance(self, prices, scale):
        base = stability(prices)
        scaled = stability([scale * p for p in prices])
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=3, max_size=60))
    def test_matches_naive_two_pass(self, prices):
        assert stability(prices) == pytest.approx(naive_two_pass_std(prices), rel=1e-12, abs=1e-15)

    def test_constant_return_subwindows_stay_zero(self):
        series = [2.0 * 3.0**k for k in range(12)]
        assert stability(series) == 0.0
        assert stability(series[::2]) == 0.0
        assert stability(series[::3]) == 0.0


class TestInclusion:
    @pytest.mark.parametrize(
        "n_total,n_init,expected",
        [(50, 50, 0.0), (100, 50, 0.5), (50_000, 50, 0.999), (10, 0, 1.0)],
    )
    def test_known_values(self, n_total, n_init, expected):
        assert inclusion(n_total, n_init) == expected

    def test_no_nodes_is_undefined_not_zero(self):
        assert inclusion(0, 0) is None

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            inclusion(10, 20)
        with pytest.raises(ValueError):
            inclusion(10, -1)


class TestEfficiency:
    @pytest.mark.parametrize("name,price,cap", TOP_TOKENS)
    def test_reproduces_market_caps(self, name, price, cap):
        implied_supply = cap / price
        assert efficiency(implied_supply, price) == pytest.approx(cap, rel=1e-4)

    def test_zero_price(self):
        assert efficiency(1e9, 0.0) == 0.0

    def test_identity_scale(self):
        assert efficiency(1e9, 1.0) == 1e9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            efficiency(-1.0, 1.0)

    @pytest.mark.parametrize("circulating,price", [(math.nan, 1.0), (1.0, math.inf), (math.inf, 0.0), (1e200, 1e200)])
    def test_non_finite_rejected(self, circulating, price):
        with pytest.raises(ValueError, match="finite"):
            efficiency(circulating, price)


def build_trajectory(prices, entries, n_init=50):
    """Hand-built trajectory: flat node roster, chosen price path."""
    states = []
    events = []
    nodes = n_init
    for month, price in enumerate(prices, start=1):
        added = entries[month - 1] if month - 1 < len(entries) else 0
        nodes += added
        states.append(
            MarketState(
                month=month,
                active_nodes=nodes,
                users=100.0,
                token_price=price,
                tokens_on_sale=1e5,
                circulating_supply=1e6 * month,
                total_gc_endowment=0.0,
                global_revenue=0.0,
                market_cap=price * 1e6 * month,
                diluted_market_cap=price * 1e9,
            )
        )
        events.append(MonthEvents(month=month, entries=added))
    return Trajectory(month_rows(states, events), SimulationConfig(initial_nodes=n_init))


class TestReport:
    def test_composes_the_three_oracles(self):
        prices = [1.0, 2.0, 1.0, 2.0, 2.0]
        trajectory = build_trajectory(prices, entries=[0, 10, 0, 40, 0])
        result = report(trajectory)
        assert result.n_init == 50
        assert result.n_ext == 50
        assert result.n_total == 100
        assert result.inclusion == 0.5
        assert result.stability == pytest.approx(stability(prices), abs=0.0)
        assert result.efficiency == efficiency(5e6, 2.0)
        assert result.window == (1, 5)

    def test_efficiency_is_final_market_cap_exactly(self):
        trajectory = run(SimulationConfig(horizon_months=36, seed=9))
        assert trajectory.metrics.efficiency == trajectory.states[-1].market_cap

    def test_inclusion_monotone_over_prefixes(self):
        trajectory = run(SimulationConfig(horizon_months=48, seed=10))
        n_init = 50
        seen = 0
        previous = 0.0
        for event in trajectory.events:
            seen += event.entries
            value = inclusion(n_init + seen, n_init)
            assert value >= previous
            previous = value

    def test_default_run_has_all_fields(self):
        result = run(SimulationConfig(seed=42)).metrics
        assert math.isfinite(result.efficiency)
        assert result.inclusion is not None and 0.0 <= result.inclusion <= 1.0
        assert result.stability is not None and result.stability >= 0.0

    def test_stability_window_override(self):
        prices = [1.0, 1.0, 1.0, 1.0, 5.0, 1.0, 5.0]
        trajectory = build_trajectory(prices, entries=[])
        full = report(trajectory)
        trajectory.config = replace(trajectory.config, stability_window=(1, 4))
        calm = report(trajectory)
        assert calm.stability == 0.0
        assert full.stability > 0.0
        assert calm.window == (1, 4)

    def test_to_dict_keys_in_field_order_with_window_a_list(self):
        result = report(build_trajectory([1.0, 2.0, 1.5], entries=[2]))
        data = result.to_dict()
        assert list(data) == [f.name for f in fields(MetricReport)]
        assert data == {**{f.name: getattr(result, f.name) for f in fields(MetricReport)}, "window": [1, 3]}
        assert type(data["window"]) is list

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            report(Trajectory([], SimulationConfig()))


class TestScoreSeries:
    def test_inclusion_absent_for_external_data(self):
        result = score_series([1.0, 1.1, 1.2], circulating=1e6, price=2.0)
        assert result.inclusion is None
        assert result.n_total is None
        assert result.efficiency == 2e6
        assert result.window == (1, 3)


class TestReadPriceSeries:
    def test_plain_column(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        assert read_price_series(path) == [1.0, 2.0, 3.0]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("price\n1.5\n2.5\n")
        assert read_price_series(path) == [1.5, 2.5]

    def test_byte_order_mark_is_not_part_of_the_first_price(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("1.0\n2.0\n3.0\n4.0\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_price_series(path) == [1.0, 2.0, 3.0, 4.0]
        path.write_text("price\n1.0\n", encoding="utf-8-sig")
        assert read_price_series(path) == [1.0]

    def test_non_positive_names_row(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("1.0\n0.0\n")
        with pytest.raises(ValueError, match="row 2"):
            read_price_series(path)

    def test_infinite_names_row(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("1.0\ninf\n")
        with pytest.raises(ValueError, match="row 2"):
            read_price_series(path)

    def test_garbage_names_row(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("1.0\nbananas\n")
        with pytest.raises(ValueError, match="row 2"):
            read_price_series(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no prices"):
            read_price_series(path)
