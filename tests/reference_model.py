"""The run as the README's model paragraph states it, in plain Python.

An executable specification for the engine's tests.  The roster is per-node
lists in roster order, every decision is one policy call, a node's run of
exit signals is `streak = (streak + 1) * signal`, growth capitalists are
`[endowment, expiry, tokens_held]` lists, every total is added left to right
from the int 0, and each month's random streams are built afresh from
`np.random.default_rng(np.random.SeedSequence((seed, month, channel)))`.
`ReferenceLlm` is the LLM policy one decision at a time.  Only the model's
formulas (`market`, `tokenomics`, the heuristic rules, the prompts and the
yes/no parser) are shared with the engine.  It is written for reading, not
for speed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from depinsim.agents import (
    DecisionContext, heuristic_entry, heuristic_exit, render_entry_prompt, render_exit_prompt,
)
from depinsim.llm_gateway import DEFAULT_MODEL, CompletionBatch, parse_yes_no
from depinsim.market import diluted_market_cap, global_revenue, market_cap, token_price, user_count
from depinsim.tokenomics import circulating_supply, node_emission, team_release, vc_release

INITIAL_NODES, CANDIDATES, GROWTH_CAPITAL = 0, 1, 2  # stream channels, one per randomized sub-step

HEADER = (
    "month", "nodes", "users", "price", "circ_supply", "market_cap",
    "diluted_cap", "E_total", "tokens_on_sale", "entries", "exits", "fallbacks",
)


@dataclass
class ReferenceRun:
    """The committed months' CSV rows and events, and the month that failed, if one did."""

    rows: List[tuple] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    failed_month: Optional[int] = None

    def csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(self.rows)
        return buf.getvalue()


def stream(seed: int, month: int, channel: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, month, channel)))


def draw_nodes(config, rng: np.random.Generator, count: int):
    """`count` nodes' costs, then their tolerances, each uniform over its configured range."""
    costs = [config.node_cost * u for u in rng.uniform(*config.cost_spread, count).tolist()]
    tolerances = rng.uniform(*config.tolerance_range, count).tolist()
    return costs, tolerances


def total(values) -> float:
    result = 0
    for value in values:
        result += value
    return result


class ReferenceLlm:
    """An LLM policy at its default settings that sends each decision's prompt to `backend`
    as a batch of one.  A reply with no standalone yes or no leaves the heuristic's verdict,
    counted in `fallback_count`.  `exchanges` holds each exchange as the audit log writes it,
    less its latency."""

    def __init__(self, backend):
        self.backend = backend
        self.fallback_count = 0
        self.exchanges: List[dict] = []

    def decide_entry(self, ctx: DecisionContext) -> bool:
        return self._ask(render_entry_prompt(ctx), heuristic_entry(ctx))

    def decide_exit(self, ctx: DecisionContext) -> bool:
        return self._ask(render_exit_prompt(ctx), heuristic_exit(ctx))

    def _ask(self, prompt: str, heuristic: bool) -> bool:
        replies = self.backend.complete_batch(CompletionBatch([prompt]))
        (text,) = replies.texts
        self.exchanges.append({"prompt": prompt, "model": DEFAULT_MODEL, "response": text, "backend": replies.backend})
        verdict = parse_yes_no(text)
        if verdict is None:
            self.fallback_count += 1
            return bool(heuristic)
        return verdict


def reference_run(config, policy) -> ReferenceRun:
    """Run `config` month by month with `policy`'s `decide_entry` and `decide_exit`.

    A month that raises, whose revenue is not finite (checked before any
    decision is asked) or whose record holds a number that is not finite,
    fails: it is not committed and the run stops there.
    """
    alloc = config.allocation()
    schedules = (config.team_schedule, config.vc_schedule, config.node_schedule)
    costs, tolerances = draw_nodes(config, stream(config.seed, 0, INITIAL_NODES), config.initial_nodes)
    streaks = [0] * config.initial_nodes
    gcs = []
    nodes = config.initial_nodes
    price = config.initial_price
    sale = config.tokens_on_sale_fraction * circulating_supply(1, alloc, *schedules)
    circulating = 0.0
    result = ReferenceRun()

    for month in range(1, config.horizon_months + 1):
        try:
            emission = node_emission(month, alloc, config.node_schedule)
            circulating_now = circulating + (
                team_release(month, alloc, config.team_schedule) + vc_release(month, alloc, config.vc_schedule)
                + emission)
            users = user_count(nodes)
            revenue = global_revenue(price, emission, nodes, users, config.user_revenue_factor)
            if not math.isfinite(revenue):
                raise ArithmeticError(f"month {month} revenue is not finite")

            # Candidates decide to enter, then incumbents to exit, all on this revenue.
            fallbacks_before = getattr(policy, "fallback_count", 0)
            candidate_costs, candidate_tolerances = draw_nodes(
                config, stream(config.seed, month, CANDIDATES), config.entry_pool_size)
            entrants = [
                (cost, tolerance) for cost, tolerance in zip(candidate_costs, candidate_tolerances)
                if policy.decide_entry(DecisionContext(revenue, cost, tolerance, month))
            ]
            stayers = []
            for cost, tolerance, streak in zip(costs, tolerances, streaks):
                signal = bool(policy.decide_exit(DecisionContext(revenue, cost, tolerance, month)))
                streak = (streak + 1) * signal
                if streak < config.patience:
                    stayers.append((cost, tolerance, streak))
            exits = len(costs) - len(stayers)

            # Growth capitalists: expiring holdings go on sale, then arrivals join.
            rng = stream(config.seed, month, GROWTH_CAPITAL)
            arrivals = []
            count = int(rng.poisson(config.gc_arrival_rate))
            if count:
                endowments = rng.lognormal(config.gc_endowment_mu, config.gc_endowment_sigma, count).tolist()
                lifespans = rng.lognormal(config.gc_lifespan_mu, config.gc_lifespan_sigma, count).tolist()
                arrivals = [[e, month + max(round(n), 1), 0.0] for e, n in zip(endowments, lifespans)]
            expiring = [gc for gc in gcs if gc[1] <= month]
            residents = [gc for gc in gcs if gc[1] > month] + arrivals
            sale_now = sale + total(gc[2] for gc in expiring)
            endowment = total(gc[0] for gc in residents)

            price_now = token_price(endowment, sale_now) if sale_now > 0 and endowment > 0 else price
            for gc in arrivals:
                gc[2] = gc[0] / price_now if price_now > 0 else 0.0

            nodes_now = len(stayers) + len(entrants)
            row = (
                month, nodes_now, users, price_now, circulating_now, market_cap(price_now, circulating_now),
                diluted_market_cap(price_now, alloc.total_supply), endowment, sale_now,
                len(entrants), exits, getattr(policy, "fallback_count", 0) - fallbacks_before,
            )
            if not all(math.isfinite(value) for value in row):
                raise ArithmeticError(f"month {month} is not finite")
        except Exception:
            result.failed_month = month
            return result

        result.rows.append(row)
        result.events.append({"month": month, "entries": len(entrants), "exits": exits,
                              "gc_arrivals": len(arrivals), "gc_expiries": len(expiring), "fallbacks": row[-1]})
        costs = [cost for cost, _, _ in stayers] + [cost for cost, _ in entrants]
        tolerances = [tolerance for _, tolerance, _ in stayers] + [tolerance for _, tolerance in entrants]
        streaks = [streak for _, _, streak in stayers] + [0] * len(entrants)
        gcs = residents
        nodes, price, sale, circulating = nodes_now, price_now, sale_now, circulating_now
    return result
