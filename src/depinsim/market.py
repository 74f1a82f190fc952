"""Stateless market formulas: user growth, revenue, profitability, and price.

All functions are pure and reentrant; the engine composes them month by
month.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class MarketState:
    """Committed per-month snapshot of the simulated market."""

    month: int
    active_nodes: int
    users: float
    token_price: float
    tokens_on_sale: float
    circulating_supply: float
    total_gc_endowment: float
    global_revenue: float
    market_cap: float
    diluted_market_cap: float


def user_count(n: int) -> float:
    """Users served by a network of `n` nodes: 100 * sqrt(n*(n-1)/2)."""
    m = int(n)
    if m != n or m < 0:
        raise ValueError(f"node count must be a non-negative integer, got {n!r}")
    pairs = m * (m - 1) // 2
    return 100.0 * math.sqrt(pairs)


def global_revenue(
    prev_price: float,
    node_emission_t: float,
    prev_nodes: int,
    users: float,
    user_revenue_factor: float,
) -> float:
    """Network-wide monthly revenue: emission value per node plus user fees.

    The token-side term is the previous month's price times this month's
    node emission, spread over the previous month's node count.  With zero
    nodes there is nobody to share the emission, so only the user term
    remains and a collapsed network can still re-seed.  The user term is
    `user_revenue_factor` (currency per user per month) times `users`.
    """
    if prev_price < 0 or node_emission_t < 0 or prev_nodes < 0 or users < 0 or user_revenue_factor < 0:
        raise ValueError("global_revenue inputs must be non-negative")
    token_term = prev_price * node_emission_t / prev_nodes if prev_nodes > 0 else 0.0
    return token_term + user_revenue_factor * users


def node_profit(revenue: float, n: int, cost: float) -> float:
    """Per-node monthly profit: revenue/n - cost.  May be negative."""
    if n <= 0:
        raise ValueError(f"node count must be >= 1 to attribute profit, got {n}")
    return revenue / n - cost


def token_price(total_endowment: float, tokens_on_sale: float) -> float:
    """Price as the ratio of growth-capital endowment to tokens on sale."""
    if total_endowment < 0:
        raise ValueError(f"total_endowment must be >= 0, got {total_endowment}")
    if tokens_on_sale <= 0:
        raise ValueError("no tokens on sale: price is undefined for this month")
    return total_endowment / tokens_on_sale


def market_cap(price: float, circulating_supply: float) -> float:
    """Token price times circulating supply."""
    return price * circulating_supply


def diluted_market_cap(price: float, total_supply: float) -> float:
    """Token price times the entire (fully diluted) token supply."""
    return price * total_supply
