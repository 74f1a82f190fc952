#!/usr/bin/env python3
"""Walk through the three token release schedules.

The fixed 1e9 supply is split 20/20/60 between the core team, VCs, and
node providers.  Team and VC tokens cliff-vest (nothing for 11 months, a
lump at month 12, then equal monthly tranches); node tokens stream every
month at a rate that halves every 48 months.
"""

from pathlib import Path

import numpy as np

from depinsim import (
    NODE_SCHEDULE, TEAM_SCHEDULE, VC_SCHEDULE, TokenAllocation, node_emission, team_release, vc_release,
)
from depinsim.charts import line_chart
from depinsim.tokenomics import vesting_table

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

alloc = TokenAllocation()
print(f"total supply        : {alloc.total_supply:,.0f}")
print(f"team / vc / node    : {alloc.team_tokens:,.0f} / {alloc.vc_tokens:,.0f} / {alloc.node_tokens:,.0f}")
print()

print("key months (tokens released that month):")
for month in (1, 11, 12, 13, 24, 25, 48, 49, 96, 97):
    print(
        f"  month {month:>3}: team {team_release(month, alloc):>14,.2f}"
        f"  vc {vc_release(month, alloc):>14,.2f}"
        f"  node {node_emission(month, alloc):>13,.2f}"
    )

print()
print("conservation checks:")
team_total = sum(team_release(m, alloc) for m in range(1, 49))
vc_total = sum(vc_release(m, alloc) for m in range(1, 25))
node_total = sum(node_emission(m, alloc) for m in range(1, 97))
print(f"  team  months 1-48 : {team_total:,.2f}  (target 200,000,000)")
print(f"  vc    months 1-24 : {vc_total:,.2f}  (target 200,000,000)")
print(f"  node  months 1-96 : {node_total:,.2f}  (target 450,000,000)")
print(f"  halving: emission(49) / emission(1) = {node_emission(49, alloc) / node_emission(1, alloc):.3f}")

# The releases and circulating supply a run reads, as `depin-sim vesting` writes them, and each class's running sum.
months = list(range(1, 97))
*releases, circulating = vesting_table(len(months), alloc, TEAM_SCHEDULE, VC_SCHEDULE, NODE_SCHEDULE)
team_cum, vc_cum, node_cum = (np.cumsum(tokens).tolist() for tokens in releases)

svg = line_chart(
    months,
    {"team": team_cum, "vc": vc_cum, "node": node_cum},
    title="Cumulative token releases over 96 months",
    x_label="month",
    y_label="tokens",
)
(OUT / "vesting.svg").write_text(svg)
print(f"\nchart -> {OUT / 'vesting.svg'}")
print(f"circulating supply at month 96: {circulating[-1]:,.0f}")
