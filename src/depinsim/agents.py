"""Decision policies, the patience rule and growth-capitalist records.

Node providers, held by the engine as roster arrays, enter and exit on
profitability signals judged by fixed heuristic rules or by a completion
backend prompted in natural language.  Growth capitalists arrive with
log-normal endowments and lifespans and sell their holdings when they leave.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .llm_gateway import (
    DEFAULT_MODEL, AuditLog, BatchReplies, CompletionBatch, CompletionRequest, GatewayError, parse_yes_no,
)


@dataclass(slots=True)
class GrowthCapitalist:
    """Token buyer resident in the months before `expiry`, when it sells `tokens_held`."""

    endowment: float  # currency committed at entry
    expiry: int  # entry month plus log-normal lifespan
    tokens_held: float = 0.0  # set by the engine at entry pricing


@dataclass(frozen=True, slots=True)
class DecisionContext:
    """Everything a policy is allowed to see when deciding."""

    global_revenue: float
    node_cost: float
    tolerance: float
    month: int


class DecisionPolicy(Protocol):
    """What the engine asks of a node policy.

    A policy whose class provides its own batch methods (see
    `decides_in_batches`) decides each month in two calls:
    `decide_entries` over the candidate pool, then `decide_exits` over the
    roster, each given the month's revenue and the nodes' cost and tolerance
    arrays and returning one verdict per node.  `decide_exits` is also given
    each node's exit threshold, `tolerance * cost`, which the engine stores
    for every node when the run is built.  Every array is a read-only view of the
    engine's node table, valid only during the call: the month's candidate
    pool for `decide_entries` and the roster for `decide_exits`.  The commit
    may write entrants over the pool and compacts the roster, so a policy
    that keeps candidate or roster values past the call copies them.
    Any other policy is called once per decision: `decide_entry` for each
    candidate of the month's pool, then `decide_exit` for each incumbent in
    roster order.
    """

    def decide_entry(self, ctx: DecisionContext) -> bool: ...

    def decide_exit(self, ctx: DecisionContext) -> bool: ...

    def decide_entries(self, revenue: float, costs: np.ndarray, tolerances: np.ndarray, month: int) -> np.ndarray: ...

    def decide_exits(self, revenue: float, costs: np.ndarray, tolerances: np.ndarray, thresholds: np.ndarray,
                     month: int) -> np.ndarray: ...


_BATCH_METHODS = (("decide_entries", "decide_entry"), ("decide_exits", "decide_exit"))


def decides_in_batches(cls: type) -> bool:
    """Whether policy class `cls` provides its own batch methods.

    Each batch method must be defined on the class, or on an ancestor no
    further up than the one defining the scalar method it stands for.  A
    subclass that overrides only `decide_entry` or `decide_exit` therefore
    takes the per-decision route, and its override is honoured.
    """
    mro = cls.__mro__

    def owner(name: str) -> int:  # MRO position of the class defining `name`, past the end if none
        return next((i for i, base in enumerate(mro) if name in vars(base)), len(mro))

    return all(owner(batch) < len(mro) and owner(batch) <= owner(scalar) for batch, scalar in _BATCH_METHODS)


def heuristic_entry(ctx: DecisionContext) -> bool:
    """Enter iff global revenue strictly exceeds the node's cost.

    `HeuristicPolicy`'s batch methods apply this rule and `heuristic_exit`'s
    to whole arrays: `revenue > costs`, and `revenue < thresholds` against
    each node's stored `tolerance * cost`, the same product bit for bit.
    """
    return ctx.global_revenue > ctx.node_cost


def heuristic_exit(ctx: DecisionContext) -> bool:
    """Exit signal iff global revenue falls strictly below tolerance * cost."""
    return ctx.global_revenue < ctx.tolerance * ctx.node_cost


class HeuristicPolicy:
    """Rule-based benchmark policy; its batch methods are one array comparison each."""

    def decide_entry(self, ctx: DecisionContext) -> bool:
        return heuristic_entry(ctx)

    def decide_exit(self, ctx: DecisionContext) -> bool:
        return heuristic_exit(ctx)

    def decide_entries(self, revenue, costs, tolerances, month) -> np.ndarray:
        return revenue > costs

    def decide_exits(self, revenue, costs, tolerances, thresholds, month) -> np.ndarray:
        return revenue < thresholds


# Every prompt is the month's head, which names the revenue, then one node's tail.
_HEAD = "The global estimated revenue is {revenue}. A node has a cost of "
_ENTRY_END = ". Should the node enter the system? Please answer 'yes' or 'no'."
_TOLERANCE = " and a tolerance of "
_EXIT_END = ". Should the node exit the system? Please answer 'yes' or 'no'."


def _literal(x: float) -> str:
    return str(int(x)) if x.is_integer() else repr(x)


def _decimal(x: float) -> str:
    """Full-precision decimal literal: '160000' not '160000.0', repr otherwise."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"prompt quantities must be finite, got {x!r}")
    return _literal(x)


def _check_finite(*columns: np.ndarray) -> None:
    """Raise as `_decimal` does for the first non-finite value a row-by-row render would meet.

    One `np.isfinite` per equal-length column; a finite value's literal is
    then `_literal`'s.
    """
    finite = np.logical_and.reduce([np.isfinite(column) for column in columns])
    if not finite.all():
        row = int(np.argmin(finite))
        for column in columns:
            _decimal(column[row])


def render_entry_prompt(ctx: DecisionContext) -> str:
    return _HEAD.format(revenue=_decimal(ctx.global_revenue)) + _decimal(ctx.node_cost) + _ENTRY_END


def render_exit_prompt(ctx: DecisionContext) -> str:
    head = _HEAD.format(revenue=_decimal(ctx.global_revenue))
    return head + _decimal(ctx.node_cost) + _TOLERANCE + _decimal(ctx.tolerance) + _EXIT_END


_NODE_RE = r"The global estimated revenue is (\S+)\. A node has a cost of (\S+)"
_EXIT_END_RE = r" and a tolerance of (\S+)\. Should the node exit"
# One search answers a prompt.  An exit sentence anywhere in the prompt takes
# precedence, so an entry sentence counts only when no exit sentence follows it.
_PROMPT_RE = re.compile(
    rf"{_NODE_RE}(?:{_EXIT_END_RE}|\. Should the node enter(?!.*{_NODE_RE}{_EXIT_END_RE}))", re.DOTALL
)


def heuristic_prompt_reply(prompt: str) -> str:
    """Scripted-backend callable answering prompts by the heuristic rules.

    Recovers the decimal literals from the rendered prompt (they round-trip
    exactly) and applies the same strict inequalities as HeuristicPolicy,
    which makes an LLM policy behind it trajectory-equivalent to the
    heuristic one.
    """
    match = _PROMPT_RE.search(prompt)
    if match is None:
        return ""
    revenue, cost, tolerance = match.group(1, 2, 3)
    if tolerance is not None:
        return "yes" if float(revenue) < float(tolerance) * float(cost) else "no"
    return "yes" if float(revenue) > float(cost) else "no"


class LlmPolicy:
    """Policy that prompts a completion backend and parses yes/no replies.

    Every ask goes through `_ask`: it sends one `CompletionBatch`, audits
    the replies (also those received before a failed request), parses each
    distinct reply once and lets the heuristic verdict stand in for an
    unparseable one, counted in `fallback_count` so flakiness stays
    observable.  The batch methods ask a month's prompts, the month's head
    with the revenue rendered once plus each node's tail, in one
    `complete_batch` per kind.  `decide_exits` keeps the last roster and
    its exit tails: the prefix of rows equal to the last roster's carries
    its tails, and only the rows after it are rendered, so a month with no
    exit renders only its entrants' tails.  The scalar
    methods ask one prompt through `complete`.  Both give the same prompts,
    verdicts and audit-log lines.  Transport errors are not swallowed; they
    propagate to the engine.
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
        # The last roster: copies of its costs and tolerances, and its exit tails.  `_literal`
        # is a function of the float value alone (0.0 and -0.0 both give "0"), so a row
        # equal to the last roster's in both columns has its tail.
        self._last_roster: Tuple[np.ndarray, np.ndarray, List[str]] = (np.zeros(0), np.zeros(0), [])

    def _ask(self, prompts: List[str], fallback: Callable[[], Sequence[bool]],
             send: Callable[[CompletionBatch], BatchReplies]) -> np.ndarray:
        """One verdict per prompt; `fallback()` gives the heuristic verdicts that stand in."""
        batch = CompletionBatch(prompts, self.max_tokens, self.temperature, self.model_name)
        try:
            replies = send(batch)
        except GatewayError as err:  # audit the exchanges before the failure
            if self.audit_log is not None and err.answered is not None:
                self.audit_log.record_batch(batch, err.answered)
            raise
        if self.audit_log is not None:
            self.audit_log.record_batch(batch, replies)
        texts = replies.texts
        parsed = {text: parse_yes_no(text) for text in set(texts)}  # replies repeat a few texts
        verdicts = list(map(parsed.__getitem__, texts))
        if None in parsed.values():
            misses = [i for i, verdict in enumerate(verdicts) if verdict is None]
            self.fallback_count += len(misses)
            heuristic = fallback()
            for i in misses:
                verdicts[i] = bool(heuristic[i])
        return np.array(verdicts, dtype=bool)

    def _complete_one(self, batch: CompletionBatch) -> BatchReplies:
        # The scalar methods' send.  It goes once perfbench's TracedBackend, which
        # forwards only `complete`, forwards `complete_batch` (ROADMAP item 17).
        (prompt,) = batch.prompts
        request = CompletionRequest(prompt, batch.max_tokens, batch.temperature, batch.model_name)
        response = self.backend.complete(request)
        return BatchReplies([response.text], [response.latency], response.backend)

    def decide_entry(self, ctx: DecisionContext) -> bool:
        return bool(self._ask([render_entry_prompt(ctx)], lambda: [heuristic_entry(ctx)], self._complete_one)[0])

    def decide_exit(self, ctx: DecisionContext) -> bool:
        return bool(self._ask([render_exit_prompt(ctx)], lambda: [heuristic_exit(ctx)], self._complete_one)[0])

    def decide_entries(self, revenue, costs, tolerances, month) -> np.ndarray:
        if not len(costs):
            return np.zeros(0, dtype=bool)
        head = _HEAD.format(revenue=_decimal(revenue))
        _check_finite(costs)
        prompts = [head + _literal(cost) + _ENTRY_END for cost in costs.tolist()]
        return self._ask(prompts, lambda: revenue > costs, self.backend.complete_batch)

    def decide_exits(self, revenue, costs, tolerances, thresholds, month) -> np.ndarray:
        if not len(costs):
            return np.zeros(0, dtype=bool)
        head = _HEAD.format(revenue=_decimal(revenue))
        last_costs, last_tolerances, last_tails = self._last_roster
        # k: the length of the prefix equal to the last roster's in both columns
        n = min(len(costs), len(last_costs))
        same = (costs[:n] == last_costs[:n]) & (tolerances[:n] == last_tolerances[:n])
        k = n if same.all() else int(same.argmin())
        _check_finite(costs[k:], tolerances[k:])  # the carried rows were checked when rendered
        tails = last_tails[:k]
        tails += [_literal(cost) + _TOLERANCE + _literal(tolerance) + _EXIT_END
                  for cost, tolerance in zip(costs[k:].tolist(), tolerances[k:].tolist())]
        self._last_roster = costs.copy(), tolerances.copy(), tails
        prompts = [head + tail for tail in tails]
        return self._ask(prompts, lambda: revenue < thresholds, self.backend.complete_batch)


def apply_patience(streak: int, exit_signal: bool, patience: int) -> bool:
    """Whether a node whose run of consecutive exit signals stood at `streak`
    leaves on `exit_signal`: a signal extends the run, and the node leaves
    once the run reaches `patience`."""
    return bool(exit_signal) and streak + 1 >= patience


def total_endowment(gcs: List[GrowthCapitalist]) -> float:
    """Sum of the endowments of growth capitalists `gcs`, added left to right from the int 0.

    Not the builtin `sum`, which from Python 3.12 compensates float rounding
    (Neumaier), nor `math.fsum` or NumPy's pairwise sum, which round differently
    again: any of them would make the trajectory bytes depend on the interpreter.
    The start is the int 0, so a month with no growth capitalists writes its
    `E_total` as `0`.  The engine adds the expiring holdings the same way.
    """
    total = 0
    for gc in gcs:
        total += gc.endowment
    return total
