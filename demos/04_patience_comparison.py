#!/usr/bin/env python3
"""Patience sweep: how slower exits shape participation.

Patience is the number of consecutive exit signals a node must see before
it actually leaves.  The sweep runs in a stressed regime (no user-side
revenue, expensive nodes, sparse growth capital) so nodes actually face
exit signals; in the default regime revenue never drops low enough.

Price in this model forms from growth-capital flows alone, so patience
moves participation (exits, node-months, inclusion) rather than the price
path itself.  The LLM cells run behind a scripted backend that answers
prompts with the heuristic rules; swap in an HTTP backend to test a live
model.
"""

import numpy as np

from depinsim import LlmPolicy, ScriptedBackend, SimulationConfig, compare, heuristic_prompt_reply

STRESSED = SimulationConfig(patience=1, user_revenue_factor=0.0, node_cost=5000.0, gc_arrival_rate=0.5)

print(f"{'cell':<12} {'exits':>14} {'node-months':>18} {'inclusion':>18}")
kept = {}  # per cell, each seed's exits, node-months and inclusion: all the demo keeps of a run
for cell, _, t in compare(STRESSED, [1, 3, 5], range(5), LlmPolicy(ScriptedBackend(heuristic_prompt_reply))):
    kept.setdefault(cell, []).append(  # this config fails no seed
        (sum(e.exits for e in t.events), sum(s.active_nodes for s in t.states), t.metrics.inclusion))
for cell, numbers in kept.items():
    exits, node_months, inclusions = zip(*numbers)
    print(
        f"{cell.label:<12} {np.mean(exits):>8.0f} ±{np.std(exits, ddof=1):>4.0f}"
        f" {np.mean(node_months):>12,.0f} ±{np.std(node_months, ddof=1):>5,.0f}"
        f" {np.mean(inclusions):>12.4f} ±{np.std(inclusions, ddof=1):.4f}"
    )

print(
    "\nHigher patience means fewer exits and more cumulative node-months: nodes"
    "\nride out bad months instead of leaving at the first signal.  The llm p=1"
    "\ncell reproduces the heuristic benchmark exactly (same rules, prompted)."
    "\nCLI equivalent: depin-sim compare --config cfg.json --patience 1,3,5"
)
