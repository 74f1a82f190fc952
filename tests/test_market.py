"""Market formula tests: frozen examples plus algebraic identities."""

import pytest
from hypothesis import given, strategies as st

from depinsim.market import (
    diluted_market_cap,
    global_revenue,
    market_cap,
    node_profit,
    token_price,
    user_count,
)

K = 10.0  # user_revenue_factor, currency per user per month


class TestUserCount:
    @pytest.mark.parametrize("n,expected", [(0, 0.0), (1, 0.0), (2, 100.0), (50, 3500.0)])
    def test_known_values(self, n, expected):
        assert user_count(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            user_count(-1)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            user_count(2.5)

    def test_monotone(self):
        values = [user_count(n) for n in range(0, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @given(st.integers(min_value=0, max_value=10**6))
    def test_square_identity(self, n):
        assert user_count(n) ** 2 == pytest.approx(1e4 * n * (n - 1) / 2, rel=1e-12, abs=1e-9)


class TestGlobalRevenue:
    def test_vanishes_without_price_or_users(self):
        assert global_revenue(0.0, 6_250_000.0, 50, 0.0, K) == 0.0

    def test_token_term_alone(self):
        assert global_revenue(1.0, 6_250_000.0, 50, 0.0, 0.0) == 125_000.0

    def test_both_terms(self):
        assert global_revenue(1.0, 6_250_000.0, 50, 3500.0, K) == 160_000.0

    def test_zero_nodes_degenerates_to_user_term(self):
        # Nobody shared the emission, so only user revenue remains.
        assert global_revenue(2.0, 6_250_000.0, 0, 3500.0, K) == 35_000.0

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            global_revenue(-1.0, 1.0, 1, 1.0, K)

    def test_negative_user_revenue_factor_rejected(self):
        with pytest.raises(ValueError):
            global_revenue(1.0, 1.0, 1, 1.0, -1.0)

    @given(
        price=st.floats(min_value=0, max_value=1e6),
        emission=st.floats(min_value=0, max_value=1e8),
        nodes=st.integers(min_value=1, max_value=10**5),
        users=st.floats(min_value=0, max_value=1e7),
    )
    def test_additive_decomposition(self, price, emission, nodes, users):
        token_term = global_revenue(price, emission, nodes, 0.0, 0.0)
        user_term = global_revenue(0.0, 0.0, nodes, users, K)
        combined = global_revenue(price, emission, nodes, users, K)
        assert combined == pytest.approx(token_term + user_term, rel=1e-12, abs=1e-9)

    def test_strictly_increasing_in_each_operand(self):
        base = global_revenue(1.0, 6_250_000.0, 50, 3500.0, K)
        assert global_revenue(1.5, 6_250_000.0, 50, 3500.0, K) > base
        assert global_revenue(1.0, 7_000_000.0, 50, 3500.0, K) > base
        assert global_revenue(1.0, 6_250_000.0, 50, 4000.0, K) > base


class TestNodeProfit:
    def test_example(self):
        assert node_profit(160_000.0, 50, 1000.0) == 2200.0

    def test_pure_cost(self):
        assert node_profit(0.0, 1, 1000.0) == -1000.0

    def test_break_even(self):
        assert node_profit(50 * 1000.0, 50, 1000.0) == 0.0

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            node_profit(1000.0, 0, 10.0)


class TestTokenPrice:
    @pytest.mark.parametrize(
        "endowment,sale,expected",
        [(1_000_000.0, 1_000_000.0, 1.0), (2_000_000.0, 1_000_000.0, 2.0), (0.0, 1_000.0, 0.0)],
    )
    def test_known_ratios(self, endowment, sale, expected):
        assert token_price(endowment, sale) == expected

    def test_no_sale_is_an_error(self):
        with pytest.raises(ValueError):
            token_price(1000.0, 0.0)

    def test_negative_endowment_rejected(self):
        with pytest.raises(ValueError):
            token_price(-1.0, 10.0)

    @given(
        endowment=st.floats(min_value=0, max_value=1e12),
        sale=st.floats(min_value=1e-6, max_value=1e12),
    )
    def test_round_trip_identity(self, endowment, sale):
        assert token_price(endowment, sale) * sale == pytest.approx(endowment, rel=1e-12, abs=1e-9)

    def test_homogeneous_in_endowment(self):
        assert token_price(3e6, 1.5e6) == 3 * token_price(1e6, 1.5e6)


class TestMarketCaps:
    def test_reproduces_top_token_cap(self):
        # Internet Computer row: price 12.13, independently sourced supply.
        cap = market_cap(12.13, 464_300_191)
        assert cap == pytest.approx(5_631_971_226.0, rel=1e-4)

    def test_zero_price(self):
        assert market_cap(0.0, 1e9) == 0.0
        assert diluted_market_cap(0.0, 1e9) == 0.0

    def test_unit_price_identity(self):
        assert diluted_market_cap(1.0, 1e9) == 1e9

    @given(
        price=st.floats(min_value=0, max_value=1e6),
        circulating=st.floats(min_value=0, max_value=1e9),
    )
    def test_diluted_dominates(self, price, circulating):
        total = 1e9
        assert market_cap(price, circulating) <= diluted_market_cap(price, total)

