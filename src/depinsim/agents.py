"""Agent records and decision policies.

Node providers enter and exit on profitability signals, either through
fixed heuristic rules or through a completion backend prompted in natural
language.  Growth capitalists arrive with log-normal endowments and
lifespans and sell their holdings back to the market when they leave.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import List, Optional, Protocol

import numpy as np

from .llm_gateway import DEFAULT_MODEL, AuditLog, CompletionRequest, parse_yes_no


@dataclass
class NodeProvider:
    """One node operator; exits only after `patience` consecutive signals.

    The engine keeps its roster as arrays; this record carries one node's
    signal run through `apply_patience` on the per-decision route.
    """

    id: int
    cost: float  # currency per month
    tolerance: float  # risk tolerance in (0, 1]
    patience: int = 1
    consecutive_exit_signals: int = 0
    active: bool = True

    def __post_init__(self):
        if self.cost <= 0:
            raise ValueError(f"cost must be positive, got {self.cost}")
        if not 0.0 < self.tolerance <= 1.0:
            raise ValueError(f"tolerance must be in (0, 1], got {self.tolerance}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not 0 <= self.consecutive_exit_signals <= self.patience:
            raise ValueError("consecutive_exit_signals out of range")


@dataclass
class GrowthCapitalist:
    """Token buyer active for [entry_month, entry_month + lifespan)."""

    id: int
    endowment: float  # currency committed at entry
    entry_month: int
    lifespan: int  # whole months
    tokens_held: float = 0.0  # set by the engine at entry pricing

    def __post_init__(self):
        if self.endowment <= 0:
            raise ValueError(f"endowment must be positive, got {self.endowment}")
        if self.lifespan < 1:
            raise ValueError(f"lifespan must be >= 1, got {self.lifespan}")

    def is_active(self, month: int) -> bool:
        return self.entry_month <= month < self.entry_month + self.lifespan


@dataclass(frozen=True, slots=True)
class DecisionContext:
    """Everything a policy is allowed to see when deciding."""

    global_revenue: float
    node_cost: float
    tolerance: float
    month: int


class DecisionPolicy(Protocol):
    """What the engine asks of a node policy.

    The engine evaluates `HeuristicPolicy` itself (exactly, not a subclass)
    over the whole roster as arrays, with `heuristic_entry`/`heuristic_exit`
    reading array-valued contexts.  Any other policy is called once per
    decision: `decide_entry` for each candidate of the month's pool, then
    `decide_exit` for each incumbent in roster order.
    """

    def decide_entry(self, ctx: DecisionContext) -> bool: ...

    def decide_exit(self, ctx: DecisionContext) -> bool: ...


def heuristic_entry(ctx: DecisionContext) -> bool:
    """Enter iff global revenue strictly exceeds the node's cost.

    Like `heuristic_exit`, it broadcasts: given array costs and tolerances
    it returns one verdict per node.
    """
    return ctx.global_revenue > ctx.node_cost


def heuristic_exit(ctx: DecisionContext) -> bool:
    """Exit signal iff global revenue falls strictly below tolerance * cost."""
    return ctx.global_revenue < ctx.tolerance * ctx.node_cost


class HeuristicPolicy:
    """Rule-based benchmark policy."""

    def decide_entry(self, ctx: DecisionContext) -> bool:
        return heuristic_entry(ctx)

    def decide_exit(self, ctx: DecisionContext) -> bool:
        return heuristic_exit(ctx)


ENTRY_PROMPT = (
    "The global estimated revenue is {revenue}. A node has a cost of {cost}. "
    "Should the node enter the system? Please answer 'yes' or 'no'."
)
EXIT_PROMPT = (
    "The global estimated revenue is {revenue}. A node has a cost of {cost} "
    "and a tolerance of {tolerance}. "
    "Should the node exit the system? Please answer 'yes' or 'no'."
)


def _decimal(x: float) -> str:
    """Full-precision decimal literal: '160000' not '160000.0', repr otherwise."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"prompt quantities must be finite, got {x!r}")
    if x.is_integer():
        return str(int(x))
    return repr(x)


def render_entry_prompt(ctx: DecisionContext) -> str:
    return ENTRY_PROMPT.format(revenue=_decimal(ctx.global_revenue), cost=_decimal(ctx.node_cost))


def render_exit_prompt(ctx: DecisionContext) -> str:
    return EXIT_PROMPT.format(
        revenue=_decimal(ctx.global_revenue),
        cost=_decimal(ctx.node_cost),
        tolerance=_decimal(ctx.tolerance),
    )


_ENTRY_RE = re.compile(
    r"The global estimated revenue is (\S+)\. A node has a cost of (\S+)\. Should the node enter"
)
_EXIT_RE = re.compile(
    r"The global estimated revenue is (\S+)\. A node has a cost of (\S+) "
    r"and a tolerance of (\S+)\. Should the node exit"
)


def heuristic_prompt_reply(prompt: str) -> str:
    """Scripted-backend callable answering prompts by the heuristic rules.

    Recovers the decimal literals from the rendered prompt (they round-trip
    exactly) and applies the same strict inequalities as HeuristicPolicy,
    which makes an LLM policy behind it trajectory-equivalent to the
    heuristic one.
    """
    match = _EXIT_RE.search(prompt)
    if match is not None:
        revenue, cost, tolerance = (float(g) for g in match.groups())
        return "yes" if revenue < tolerance * cost else "no"
    match = _ENTRY_RE.search(prompt)
    if match is not None:
        revenue, cost = (float(g) for g in match.groups())
        return "yes" if revenue > cost else "no"
    return ""


class LlmPolicy:
    """Policy that prompts a completion backend and parses yes/no replies.

    Unparseable replies fall back to the heuristic verdict for that decision
    and are counted in `fallback_count` so flakiness stays observable.
    Transport errors are not swallowed; they propagate to the engine.
    """

    def __init__(
        self,
        backend,
        model_name: str = DEFAULT_MODEL,
        max_tokens: int = CompletionRequest.max_tokens,
        temperature: float = CompletionRequest.temperature,
        audit_log: Optional[AuditLog] = None,
    ):
        self.backend = backend
        self.model_name = model_name
        self.max_tokens = max_tokens
        self.temperature = temperature
        self.audit_log = audit_log
        self.fallback_count = 0
        self._lock = threading.Lock()

    def _ask(self, prompt: str, fallback: bool) -> bool:
        request = CompletionRequest(
            prompt=prompt,
            max_tokens=self.max_tokens,
            temperature=self.temperature,
            model_name=self.model_name,
        )
        response = self.backend.complete(request)
        if self.audit_log is not None:
            self.audit_log.record(request, response)
        verdict = parse_yes_no(response.text)
        if verdict is None:
            with self._lock:
                self.fallback_count += 1
            return fallback
        return verdict

    def decide_entry(self, ctx: DecisionContext) -> bool:
        return self._ask(render_entry_prompt(ctx), heuristic_entry(ctx))

    def decide_exit(self, ctx: DecisionContext) -> bool:
        return self._ask(render_exit_prompt(ctx), heuristic_exit(ctx))


def apply_patience(node: NodeProvider, exit_signal: bool) -> bool:
    """Advance the node's exit counter; True means the node leaves now.

    A yes-signal increments the counter and triggers exit once it reaches
    the node's patience; any no-signal resets it to zero.
    """
    if not node.active:
        raise ValueError(f"node {node.id} is inactive; no exit decision to apply")
    if exit_signal:
        node.consecutive_exit_signals += 1
        if node.consecutive_exit_signals >= node.patience:
            return True
    else:
        node.consecutive_exit_signals = 0
    return False


@dataclass(frozen=True)
class GcParams:
    """Arrival and endowment/lifespan distribution parameters."""

    arrival_rate: float = 1.0  # Poisson mean, arrivals per month
    endowment_mu: float = 13.0  # log-scale; median endowment exp(13) ~ 4.4e5
    endowment_sigma: float = 1.0
    lifespan_mu: float = 2.5  # log-scale; median lifespan exp(2.5) ~ 12.2 months
    lifespan_sigma: float = 0.5

    def __post_init__(self):
        if self.arrival_rate < 0:
            raise ValueError(f"arrival_rate must be >= 0, got {self.arrival_rate}")
        if self.endowment_sigma < 0 or self.lifespan_sigma < 0:
            raise ValueError("distribution sigmas must be >= 0")


def sample_lifespans(rng: np.random.Generator, mu: float, sigma: float, size: int) -> np.ndarray:
    """Log-normal lifespans rounded to whole months, clamped to >= 1."""
    draws = np.rint(rng.lognormal(mu, sigma, size))
    return np.maximum(draws, 1.0).astype(int)


def spawn_growth_capitalists(
    month: int,
    params: GcParams,
    rng: np.random.Generator,
    id_start: int = 0,
) -> List[GrowthCapitalist]:
    """Draw this month's entrants: Poisson count, log-normal endowment/lifespan."""
    count = int(rng.poisson(params.arrival_rate))
    if count == 0:
        return []
    endowments = rng.lognormal(params.endowment_mu, params.endowment_sigma, count)
    lifespans = sample_lifespans(rng, params.lifespan_mu, params.lifespan_sigma, count)
    return [
        GrowthCapitalist(
            id=id_start + i,
            endowment=float(endowments[i]),
            entry_month=month,
            lifespan=int(lifespans[i]),
        )
        for i in range(count)
    ]


def total_endowment(gcs: List[GrowthCapitalist], month: int) -> float:
    """Sum of endowments over growth capitalists active at `month`."""
    return sum(gc.endowment for gc in gcs if gc.is_active(month))
