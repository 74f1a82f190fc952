#!/usr/bin/env python3
"""One full 96-month run with the heuristic policy, charted.

Fifty seed nodes, ten entry candidates per month, Poisson growth-capital
arrivals.  The trajectory is deterministic for a fixed seed.
"""

from pathlib import Path

from depinsim import SimulationConfig, run
from depinsim.charts import line_chart

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

config = SimulationConfig(seed=42)
trajectory = run(config)

print(f"{'month':>5} {'nodes':>6} {'users':>10} {'price':>10} {'market cap':>16} {'on sale':>14}")
for state in trajectory.states:
    if state.month % 12 == 0 or state.month == 1:
        print(
            f"{state.month:>5} {state.active_nodes:>6} {state.users:>10,.0f} "
            f"{state.token_price:>10.3f} {state.market_cap:>16,.0f} {state.tokens_on_sale:>14,.0f}"
        )

m = trajectory.metrics
print("\nmacro indicators:")
print(f"  efficiency : {m.efficiency:,.0f}  (final market cap)")
print(f"  inclusion  : {m.inclusion:.4f}   ({m.n_ext} external nodes of {m.n_total} ever active)")
print(f"  stability  : {m.stability:.4f}   (std of log price returns; lower is steadier)")

entries = sum(e.entries for e in trajectory.events)
exits = sum(e.exits for e in trajectory.events)
arrivals = sum(e.gc_arrivals for e in trajectory.events)
print(f"  events     : {entries} entries, {exits} exits, {arrivals} GC arrivals")

months = [s.month for s in trajectory.states]
(OUT / "run_price.svg").write_text(
    line_chart(months, {"price": trajectory.column("token_price")}, title="Token price", x_label="month")
)
(OUT / "run_nodes.svg").write_text(
    line_chart(months, {"nodes": [float(s.active_nodes) for s in trajectory.states]},
               title="Active nodes", x_label="month")
)
(OUT / "run_market_cap.svg").write_text(
    line_chart(months, {"market cap": [s.market_cap for s in trajectory.states]},
               title="Market capitalization", x_label="month")
)
trajectory.write_csv(OUT / "run_trajectory.csv")
print(f"\nartifacts -> {OUT}/run_*.svg, {OUT / 'run_trajectory.csv'}")
