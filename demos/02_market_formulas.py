#!/usr/bin/env python3
"""The market formulas, one at a time, with the launch-state numbers.

A project raises $10M, spends half on 50 seed nodes, and serves users in
proportion to the pairwise connectivity of its fleet.  Revenue has a
token side (emission value shared across nodes) and a user side (fees).
"""

from depinsim import (
    TokenAllocation,
    diluted_market_cap,
    global_revenue,
    market_cap,
    node_emission,
    node_profit,
    token_price,
    user_count,
)
from depinsim.metrics import efficiency, score_series, stability

alloc = TokenAllocation()
k = 10.0  # user_revenue_factor: currency of monthly revenue per user

print("-- user growth --")
for n in (0, 1, 2, 10, 50, 500):
    print(f"  {n:>4} nodes -> {user_count(n):>12,.1f} users")

print("\n-- launch month --")
nodes = 50
users = user_count(nodes)
emission = node_emission(1, alloc)
revenue = global_revenue(prev_price=1.0, node_emission_t=emission, prev_nodes=nodes, users=users, user_revenue_factor=k)
print(f"  emission month 1        : {emission:,.0f} tokens")
print(f"  users from {nodes} nodes     : {users:,.0f}")
print(f"  global revenue          : {revenue:,.0f}  (token side {emission / nodes:,.0f} + user side {k * users:,.0f})")
print(f"  per-node profit         : {node_profit(revenue, nodes, 1000.0):,.0f}")

print("\n-- price formation --")
endowment = 5_000_000.0
sale = 312_500.0
price = token_price(endowment, sale)
print(f"  endowment {endowment:,.0f} / on sale {sale:,.0f} -> price {price:.2f}")
print(f"  market cap at month 1   : {market_cap(price, emission):,.0f}")
print(f"  fully diluted           : {diluted_market_cap(price, alloc.total_supply):,.0f}")

print("\n-- scoring real tokens (May 2024 snapshot) --")
top = [("ICP", 12.13, 5_631_971_226.0), ("RNDR", 10.24, 3_980_572_572.0), ("FIL", 5.94, 3_310_041_671.0)]
for name, token_px, cap in top:
    implied_supply = cap / token_px
    print(f"  {name:<5} price {token_px:>7.2f}  implied supply {implied_supply:>16,.0f}  efficiency {efficiency(implied_supply, token_px):>16,.0f}")

print("\n-- stability over toy series --")
print(f"  constant [5,5,5,5]      : {stability([5, 5, 5, 5])}")
print(f"  geometric [1,2,4,8]     : {stability([1, 2, 4, 8])}")
print(f"  alternating [1,2,1,2]   : {stability([1, 2, 1, 2]):.4f}")
report = score_series([1.0, 1.05, 0.95, 1.1], circulating=4.643e8, price=12.13)
print(f"  external series report  : stability {report.stability:.4f}, efficiency {report.efficiency:,.0f}")
