"""Discrete-time simulation engine.

Each month runs a fixed sub-step order against the previous month's
committed values: vest tokens, compute revenue, run node entry then exit
decisions, process growth-capital arrivals and expiries, form the price, and
commit one row (`ROW_FIELDS`).  Partial months are never committed.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import metrics as metrics_mod
from .agents import (
    DecisionContext,
    GrowthCapitalist,
    HeuristicPolicy,
    LlmPolicy,
    apply_patience,
    decides_in_batches,
    total_endowment,
)
from .bounds import check_ranges, config_field, mirrored
from .llm_gateway import AuditLog, LlmSettings, build_backend
from .market import (
    MarketState,
    diluted_market_cap,
    global_revenue,
    market_cap,
    token_price,
    user_count,
)
from .streams import draw_run
from .tokenomics import NODE_SCHEDULE, TEAM_SCHEDULE, VC_SCHEDULE, TokenAllocation, VestingSchedule, vesting_table
# Unused here: perfbench's tracer patches these names until ROADMAP item 17 lands.  No call goes through
# `engine.spawn_growth_capitalists` (`streams` calls its own), so a traced `agents.gc.calls` counts only
# `total_endowment`.
from .streams import spawn_growth_capitalists  # noqa: F401
from .tokenomics import circulating_supply, node_emission, team_release, vc_release  # noqa: F401

# The most nodes a run may hold: initial_nodes + horizon_months * entry_pool_size, which
# keeps the run's node table, every node it may hold at 33 bytes a slot, allocatable.
MAX_ROSTER = 1_000_000
# The longest run: a run keeps its month records, and seeds every month's streams and
# draws every month's candidates at construction, so a horizon beyond this could pass
# load and never finish.
MAX_HORIZON = 100_000
POLICIES = ("heuristic", "llm")  # the values of policy


@functools.cache
def type_hints(cls) -> dict:
    """`typing.get_type_hints(cls)`, read once per class.  The dict is shared: a caller reads it only."""
    return get_type_hints(cls)


# The MarketState fields a month must record as finite numbers, in field order.
_STATE_FLOATS = tuple(name for name, hint in type_hints(MarketState).items() if hint is float)


class SimulationError(Exception):
    """A sub-step failed; carries the month and sub-step for diagnosis."""

    def __init__(self, month: int, substep: str, message: str):
        super().__init__(f"month {month}, sub-step '{substep}': {message}")
        self.month = month
        self.substep = substep


def _fits(value, hint) -> bool:
    """Whether a JSON-decoded `value` fits the field annotation `hint`; a float must be finite."""
    origin = get_origin(hint)
    if origin is Union:
        return any(_fits(value, arg) for arg in get_args(hint))
    if origin is tuple:
        args = get_args(hint)
        return isinstance(value, (list, tuple)) and len(value) == len(args) and all(map(_fits, value, args))
    if origin is dict:
        key_hint, value_hint = get_args(hint)
        return isinstance(value, dict) and all(_fits(k, key_hint) and _fits(v, value_hint) for k, v in value.items())
    if is_dataclass(hint):
        return isinstance(value, dict)  # a section, decoded key by key
    if isinstance(hint, type) and issubclass(hint, Enum):
        return any(value == member.value for member in hint)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # NaN fails the comparison, as do infinities and ints beyond the float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _config_keys(obj) -> Tuple[str, ...]:
    """Dataclass `obj`'s fields, or a tagged one's `kind` plus the fields its kind uses."""
    by_kind = getattr(obj, "FIELDS_BY_KIND", None)
    return ("kind",) + by_kind[obj.kind] if by_kind else tuple(f.name for f in fields(obj))


def _decode_value(current, value, hint, key: str):
    """JSON `value` read for the field annotated `hint` at dotted `key`, whose value is `current`."""
    if not _fits(value, hint):
        expected = hint.__name__ if isinstance(hint, type) else re.sub(r"[\w.]+\.", "", str(hint))
        raise ValueError(f"config key {key} must be {expected}, got {value!r}")
    if value is None:
        return None
    if get_origin(hint) is Union:  # Optional[X] and a value: read an X
        hint = get_args(hint)[0]
    if is_dataclass(hint):
        return decode(hint() if current is None else current, value, key + ".")
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(value)
    if get_origin(hint) is tuple:
        return tuple(map(_number, value, get_args(hint)))
    return _number(value, hint)


def _number(value, hint):
    """`value` as a float if `hint` is float (JSON's `1` and `1.0` read alike), else as it is."""
    return float(value) if hint is float else value


def decode(base, data, prefix: str = ""):
    """Dataclass `base` with the config section `data` applied over it.

    A dataclass field is a nested section, an Enum is read by value and a tuple
    from a list.  A tagged dataclass reads `kind` first; a kind other than
    `base`'s starts from that kind's defaults.  Errors are ValueErrors naming the
    dotted key; a section's own checks name their field first.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config section {prefix[:-1] or '(top level)'} must be an object, got {data!r}")
    hints = type_hints(type(base))
    tagged = hasattr(base, "FIELDS_BY_KIND")
    if tagged and "kind" in data:
        kind = _decode_value(base.kind, data["kind"], hints["kind"], prefix + "kind")
        if kind is not base.kind:
            base = type(base)(kind=kind)
    keys = _config_keys(base)
    unknown = [prefix + key for key in data if key not in keys]
    if unknown:
        where = f" for kind {base.kind.value}" if tagged else ""
        raise ValueError(f"unknown config keys{where}: {', '.join(unknown)}")
    changes = {key: _decode_value(getattr(base, key), value, hints[key], prefix + key) for key, value in data.items()}
    try:
        return replace(base, **changes)
    except ValueError as err:
        raise ValueError(f"{prefix}{err}") from None


def encode(obj):
    """The JSON value of config value `obj`; `decode` reads it back to an equal value."""
    if is_dataclass(obj):
        return {key: encode(getattr(obj, key)) for key in _config_keys(obj)}
    if isinstance(obj, Enum):
        return obj.value
    return list(obj) if isinstance(obj, tuple) else obj


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a run needs; a fixed seed makes the run fully reproducible.

    Each field's `doc` metadata is its line in `depin-sim config-reference`.
    """

    horizon_months: int = config_field(96, "number of simulated months", f"[1, {MAX_HORIZON}]")
    initial_nodes: int = config_field(50, "nodes deployed by the core team before month 1", "[0, inf)")
    initial_price: float = config_field(1.0, "token price carried until the first traded month", "(0, inf)")
    user_revenue_factor: float = config_field(10.0, "currency of monthly revenue per user (k)", "[0, inf)")
    # node_cost times the top of cost_spread stays below the float maximum (1.8e308).
    node_cost: float = config_field(1000.0, "baseline node operating cost per month", "(0, 1e300]")
    cost_spread: Tuple[float, float] = config_field((0.8, 1.2), "uniform per-node cost multiplier range", "(0, 1e8]")
    tolerance_range: Tuple[float, float] = config_field((0.3, 0.9), "uniform per-node risk tolerance range", "(0, 1]")
    patience: int = config_field(1, "consecutive exit signals required before a node leaves", "[1, inf)")
    entry_pool_size: int = config_field(10, "candidate nodes evaluated for entry each month", "[0, inf)")
    # The growth-capital ranges keep every month's draws allocatable and finite.  NumPy's normal
    # draws z satisfy |z| < 12.3 (its ziggurat tail is fed 53-bit uniforms), so a log-normal
    # draw lies within exp(mu +- 13 sigma) = exp(mu +- 32.5): an endowment within [7e-15, 4e57],
    # so a price (endowments over a finite sale pool) stays above zero, and a lifespan below
    # 2.9e18 months.  A Poisson mean of at most 1000 keeps a month's arrivals to
    # about a thousand objects.  The default medians are exp(13) ~ 4.4e5 and exp(2.5) ~ 12.2 months.
    gc_arrival_rate: float = config_field(1.0, "Poisson mean of growth-capitalist arrivals per month", "[0, 1000]")
    gc_endowment_mu: float = config_field(13.0, "log-normal log-mean of GC endowments", "[0, 100]")
    gc_endowment_sigma: float = config_field(1.0, "log-normal sigma of GC endowments", "[0, 2.5]")
    gc_lifespan_mu: float = config_field(2.5, "log-normal log-mean of GC lifespans (months)", "[0, 10]")
    gc_lifespan_sigma: float = config_field(0.5, "log-normal sigma of GC lifespans", "[0, 2.5]")
    tokens_on_sale_fraction: float = config_field(0.05, "initial sale pool as a fraction of month-1 supply", "[0, inf)")
    policy: str = config_field("heuristic", f"decision policy: {' | '.join(POLICIES)}")
    seed: int = config_field(42, "root RNG seed; fixes the whole run", "[0, inf)")
    stability_window: Optional[Tuple[int, int]] = config_field(
        None, "[first, last] months scored for stability (default: full run)")
    total_supply: float = mirrored(TokenAllocation, "total_supply", "fixed token supply")
    team_fraction: float = mirrored(TokenAllocation, "team_fraction", "share of supply vested to the core team")
    vc_fraction: float = mirrored(TokenAllocation, "vc_fraction", "share of supply vested to VCs")
    node_fraction: float = mirrored(TokenAllocation, "node_fraction", "share of supply emitted to node providers")
    team_schedule: VestingSchedule = config_field(TEAM_SCHEDULE, "team vesting rule")
    vc_schedule: VestingSchedule = config_field(VC_SCHEDULE, "VC vesting rule")
    node_schedule: VestingSchedule = config_field(NODE_SCHEDULE, "node emission rule")
    llm: Optional[LlmSettings] = None  # documented key by key as llm.* (see LlmSettings)

    def __post_init__(self):
        """Check every declared range, then the rules that join fields, as the config is built."""
        check_ranges(self)
        for key in ("cost_spread", "tolerance_range"):
            lo, hi = getattr(self, key)
            if lo > hi:
                raise ValueError(f"{key} must satisfy lo <= hi, got {getattr(self, key)}")
        roster = self.initial_nodes + self.horizon_months * self.entry_pool_size
        if roster > MAX_ROSTER:
            raise ValueError(f"initial_nodes + horizon_months * entry_pool_size must be <= {MAX_ROSTER}, got {roster}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be {' or '.join(map(repr, POLICIES))}, got {self.policy!r}")
        if self.policy == "llm" and self.llm is None:
            raise ValueError("policy 'llm' requires an llm config section")
        first, last = self.stability_window or (1, self.horizon_months)
        if not 1 <= first <= last <= self.horizon_months:
            raise ValueError(f"stability_window must satisfy 1 <= first <= last <= horizon_months "
                             f"({self.horizon_months}), got {self.stability_window}")
        self.allocation()  # raises on bad fractions

    def allocation(self) -> TokenAllocation:
        return TokenAllocation(**{f.name: getattr(self, f.name) for f in fields(TokenAllocation)})

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Build a config from decoded JSON; any bad input raises ValueError."""
        return decode(cls(), data)


@dataclass(slots=True)
class MonthEvents:
    """What happened during one committed month."""

    month: int
    entries: int = 0
    exits: int = 0
    gc_arrivals: int = 0
    gc_expiries: int = 0
    fallbacks: int = 0  # LLM replies that fell back to the heuristic


# A committed month is one plain tuple: MarketState's fields, then MonthEvents' after `month`.
# Its records are built from it only when read.
_STATE_WIDTH = len(fields(MarketState))
ROW_FIELDS = tuple(f.name for f in fields(MarketState)) + tuple(f.name for f in fields(MonthEvents))[1:]
# The _STATE_FLOATS fields of a row, which are contiguous (a test pins it).
_FLOATS = slice(ROW_FIELDS.index(_STATE_FLOATS[0]), ROW_FIELDS.index(_STATE_FLOATS[-1]) + 1)

CSV_COLUMNS = (
    "month", "nodes", "users", "price", "circ_supply", "market_cap",
    "diluted_cap", "E_total", "tokens_on_sale", "entries", "exits", "fallbacks",
)


def csv_text(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """`header` then `rows` as CSV text with "\n" line ends, in one template pass.

    Each field is written as its `str` (a float's is its repr) and none is quoted, so the text
    is what `csv.writer(lineterminator="\n")` writes for fields that need no quoting.  A field
    that would need quoting, one holding a comma, a quote, a "\n" or a "\r", or an empty field
    alone on its line, raises ValueError, as does a row whose length differs from the header's.
    """
    header = tuple(header)
    line = ",".join(["%s"] * len(header)) + "\n"
    try:
        lines = [line % header, *map(line.__mod__, map(tuple, rows))]
    except TypeError as err:  # a row of more or fewer fields than the header
        raise ValueError(f"a CSV row must hold {len(header)} fields: {err}") from None
    text = "".join(lines)
    if (text.count(",") != (len(header) - 1) * len(lines) or text.count("\n") != len(lines)
            or '"' in text or "\r" in text or "\n\n" in text or text.startswith("\n")):
        raise ValueError('a CSV field needs quoting: it holds a comma, a quote, a "\\n" or a "\\r", '
                         "or is empty and alone on its line")
    return text


@dataclass
class Trajectory:
    """The committed months, one tuple each in `ROW_FIELDS` order, plus the config that ran.

    A `Simulation` commits each month it steps into its `trajectory`, which
    `run()` returns with `metrics` attached.  `states` and `events` build the
    month records from the rows on every read, each call a fresh list;
    `rows()`, `column()` and the CSV read the rows themselves.
    """

    month_rows: List[tuple]
    config: SimulationConfig
    metrics: Optional[metrics_mod.MetricReport] = None
    row_fields = ROW_FIELDS  # a class attribute, not a field: where `metrics` finds a field's index in a row

    @property
    def states(self) -> List[MarketState]:
        return [MarketState(*row[:_STATE_WIDTH]) for row in self.month_rows]

    @property
    def events(self) -> List[MonthEvents]:
        return [MonthEvents(row[0], *row[_STATE_WIDTH:]) for row in self.month_rows]

    def column(self, name: str) -> list:
        """Field `name` of `ROW_FIELDS`, one value per month."""
        return list(map(itemgetter(ROW_FIELDS.index(name)), self.month_rows))

    def rows(self) -> Iterator[tuple]:
        """The run table: one row per month, in CSV_COLUMNS order."""
        for (month, nodes, users, price, sale, circ, e_total, _revenue, cap, diluted_cap,
             entries, exits, _arrivals, _expiries, fallbacks) in self.month_rows:  # unpacking beats an itemgetter
            yield month, nodes, users, price, circ, cap, diluted_cap, e_total, sale, entries, exits, fallbacks

    def to_csv_string(self) -> str:
        return csv_text(CSV_COLUMNS, self.rows())

    def write_csv(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_csv_string(), encoding="utf-8")

    def to_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "config": self.config.to_dict(),
            "states": [asdict(s) for s in self.states],
            "events": [asdict(e) for e in self.events],
            "metrics": self.metrics.to_dict() if self.metrics else None,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def build_policy(config: SimulationConfig, audit_log: Optional[AuditLog] = None):
    """Construct the decision policy of `config`; an LLM policy appends its exchanges to `audit_log`."""
    if config.policy == "heuristic":
        return HeuristicPolicy()
    return LlmPolicy(
        build_backend(config.llm),
        model_name=config.llm.model_name,
        max_tokens=config.llm.max_tokens,
        temperature=config.llm.temperature,
        audit_log=audit_log,
    )


_NO_NODES = np.empty(0, dtype=np.intp)  # the roster indices that signalled, in a month where none did


def _verdicts(values, count: int) -> np.ndarray:
    """A batch method's answer as a boolean mask, which must hold one verdict per node."""
    mask = np.asarray(values, dtype=bool)
    if mask.shape != (count,):
        raise ValueError(f"a batch decision gave verdicts of shape {mask.shape} for {count} nodes")
    return mask


class Simulation:
    """Mutable run state: node table, growth capitalists, committed months.

    `step(month)` runs one month and commits it as one row (`ROW_FIELDS`) to
    the run's one `trajectory`, built with the simulation; it returns None,
    so a caller reads the month from `state`, which builds the last month's
    record (before month 1, the month-0 seed).  The trajectory holds no
    reference back to the simulation.

    Every node a run may hold has a slot in one table, allocated and filled
    when the run is built (`initial_nodes + horizon_months * entry_pool_size`
    slots, 33 B each with the commit's stay mask): `_nodes` holds float64
    rows of cost and tolerance, drawn by `streams.draw_run`, and exit
    threshold `tolerance * cost`, set from them here; `_runs` int32 rows of
    the last month a node signalled exit (-1 if never, as every slot
    starts) and its run of consecutive signals up to then.  The roster is
    the first `n` slots; month m's pool is the `entry_pool_size` slots from
    `initial_nodes + (m - 1) * entry_pool_size`, which the roster never
    reaches before month m.  A month reads and writes only the run slots of
    the nodes that signalled (a run continues if the node also signalled
    the month before, and restarts at 1 otherwise); nodes whose run reaches
    `patience` leave.  The commit compacts exits through a scratch mask of
    stayers.  While no node has left and every pool entered whole,
    entrants sit in their own slots; else the commit copies them behind the
    stayers, marked never signalled.  A month past the horizon, outgrowing
    the table, is rejected.  `cost` and `tolerance` are read-only views of
    the live slots; `streak` is computed from the run slots.

    Every month's node emission and circulating supply are read from
    `tokenomics.vesting_table` (the table `depin-sim vesting` writes) when
    the run is built.  A month's growth-capital arrivals come from the one
    source `draw_run` returns.  The month-1 sale pool is
    `tokens_on_sale_fraction` of the table's month-1 supply.

    Within a month every decision reads the same frozen start-of-month
    context, so agent evaluation order cannot change the outcome.  A policy
    whose class provides its own batch methods (`HeuristicPolicy`,
    `LlmPolicy`) decides the candidate pool and the roster in one call each;
    any other policy is called once per decision, in roster order; the
    route is chosen once, at construction, from the policy's class.  The
    arrays a batch method receives are read-only views of the node table,
    valid only during that call: the commit may write entrants over the
    month's pool and compacts the roster.
    """

    def __init__(self, config: SimulationConfig, policy=None):
        self.config = config
        self.policy = policy if policy is not None else build_policy(config)
        # The route as a plain function: a bound method kept here would make each simulation a reference cycle.
        self._decide = Simulation._decide_roster if decides_in_batches(type(self.policy)) else Simulation._decide_each

        # Only the run lengths (read once a signal writes them) and the stay mask are left unbacked by
        # memory, by np.zeros and np.empty; every other slot is written here.
        capacity = config.initial_nodes + config.horizon_months * config.entry_pool_size
        self._nodes = np.empty((3, capacity))  # cost, tolerance, and the heuristic exit rule's bar tolerance * cost
        self._arrivals = draw_run(config, self._nodes[:2])  # month -> that month's growth-capital arrivals
        np.multiply(self._nodes[1], self._nodes[0], out=self._nodes[2])
        self._runs = np.zeros((2, capacity), dtype=np.int32)  # the month each node last signalled, its run then
        self._runs[0] = -1  # never
        self._stay = np.empty(capacity, dtype=bool)  # in an exit month, the nodes that stay
        # The five rows as 1-D views, for the commit: a month's writes are row by row, and taking
        # a row out of its table each month would cost about as much as a small month's writes.
        self._rows = (*self._nodes, *self._runs)
        self._frozen = tuple(row.view() for row in self._nodes)  # read-only rows for the month's five slices
        for row in self._frozen:
            row.flags.writeable = False
        self._n = config.initial_nodes
        self.gcs: List[GrowthCapitalist] = []

        # One entry a month from month 1: the vesting table's node emission and circulating supply (a supply
        # beyond the float range fails its month's record).
        self._emission, self._circulating = (column.tolist() for column in vesting_table(
            config.horizon_months, config.allocation(), config.team_schedule, config.vc_schedule,
            config.node_schedule)[2:])

        # Seed the sale-side of the price ratio from month 1's supply, so month 1 has a market
        # even before any growth capitalist exits.
        self._seed = MarketState(
            month=0,
            active_nodes=config.initial_nodes,
            users=user_count(config.initial_nodes),
            token_price=config.initial_price,
            tokens_on_sale=config.tokens_on_sale_fraction * self._circulating[0],
            circulating_supply=0.0,
            total_gc_endowment=0.0,
            global_revenue=0.0,
            market_cap=0.0,
            diluted_market_cap=0.0,
        )
        # The last committed month, and the price and sale pool the next month starts from
        # (its node count is `_n`).
        self._month, self._price, self._sale = 0, self._seed.token_price, self._seed.tokens_on_sale
        self._trajectory = Trajectory([], config)

    @property
    def trajectory(self) -> Trajectory:
        """The committed months; `run()` returns it with its metrics."""
        return self._trajectory

    @property
    def state(self) -> MarketState:
        """The last committed month's record, or the month-0 seed before month 1."""
        rows = self._trajectory.month_rows
        return MarketState(*rows[-1][:_STATE_WIDTH]) if rows else self._seed

    @property
    def cost(self) -> np.ndarray:
        """Each active node's monthly cost, in roster order (read-only, valid until the next commit)."""
        return self._frozen[0][:self._n]

    @property
    def tolerance(self) -> np.ndarray:
        """Each active node's risk tolerance, in roster order (read-only, valid until the next commit)."""
        return self._frozen[1][:self._n]

    @property
    def streak(self) -> np.ndarray:
        """Each active node's run of consecutive exit signals up to the last committed month,
        in roster order: its run if it signalled that month, else 0 (a read-only copy)."""
        n = self._n
        streak = np.where(self._runs[0, :n] == self._month, self._runs[1, :n], 0)
        streak.flags.writeable = False
        return streak

    def _decide_roster(self, revenue, costs, tolerances, month) -> Tuple[np.ndarray, np.ndarray]:
        """The policy's batch methods over the whole candidate pool, then the
        roster; returns the entry mask and the roster indices that signalled exit."""
        enters = _verdicts(self.policy.decide_entries(revenue, costs, tolerances, month), len(costs))
        n = self._n
        if not n:
            return enters, _NO_NODES
        cost, tolerance, threshold = self._frozen
        signals = _verdicts(self.policy.decide_exits(revenue, cost[:n], tolerance[:n], threshold[:n], month), n)
        return enters, np.flatnonzero(signals) if np.count_nonzero(signals) else _NO_NODES

    def _decide_each(self, revenue, costs, tolerances, month) -> Tuple[np.ndarray, np.ndarray]:
        """A policy without batch methods, called once per candidate, then once per node in
        roster order; returns the entry mask and the roster indices that signalled exit."""
        policy = self.policy
        enters = [
            bool(policy.decide_entry(DecisionContext(revenue, cost, tolerance, month)))
            for cost, tolerance in zip(costs.tolist(), tolerances.tolist())
        ]
        signals = []
        for streak, cost, tolerance in zip(self.streak.tolist(), self.cost.tolist(), self.tolerance.tolist()):
            signal = policy.decide_exit(DecisionContext(revenue, cost, tolerance, month))
            apply_patience(streak, signal, self.config.patience)  # for traces; step() applies it to the run slots
            signals.append(bool(signal))
        return np.array(enters, dtype=bool), np.flatnonzero(np.array(signals, dtype=bool))

    def step(self, month: int) -> None:
        """Advance one month and commit its row; read it back from `state`."""
        if month != self._month + 1:
            raise SimulationError(month, "ordering", f"expected month {self._month + 1}")
        if month > self.config.horizon_months:
            raise SimulationError(month, "ordering", f"the horizon is {self.config.horizon_months} months")
        cfg = self.config
        n = self._n
        substep = "vesting"
        try:
            # 1. Token releases and circulating supply, as built with the run.
            emission = self._emission[month - 1]
            circ = self._circulating[month - 1]

            # 2. Users and global revenue from last month's nodes and price.
            substep = "revenue"
            users = user_count(n)
            revenue = global_revenue(self._price, emission, n, users, cfg.user_revenue_factor)
            if not math.isfinite(revenue):  # before any policy reads it, so every policy fails here
                raise ValueError(f"global_revenue is not finite: {revenue!r}")

            # 3. Node entries over the candidate pool, then exits with
            # patience; this month's entrants face exit conditions from
            # next month on.
            substep = "node-decisions"
            fallbacks_before = getattr(self.policy, "fallback_count", 0)
            start = cfg.initial_nodes + (month - 1) * cfg.entry_pool_size  # this month's candidate pool
            stop = start + cfg.entry_pool_size
            costs, tolerances = self._frozen[0][start:stop], self._frozen[1][start:stop]
            enters, signalled = self._decide(self, revenue, costs, tolerances, month)
            leavers = signalled
            cost, tolerance, threshold, last, run_slots = self._rows
            if len(signalled):  # a run that did not include last month restarts at 1
                run = run_slots[signalled] + 1
                run[last[signalled] != month - 1] = 1
                leavers = signalled[run >= cfg.patience]
            exits = len(leavers)
            entries = int(np.count_nonzero(enters))
            n_now = n - exits + entries

            # 4. Growth capitalists stay until their expiry month, when their
            # holdings go on sale; then this month's arrivals join.
            substep = "growth-capital"
            arrivals = self._arrivals(month)
            gcs, expiring = [], 0  # expiring holdings add left to right from the int 0, then join the pool at once
            for gc in self.gcs:
                if gc.expiry > month:
                    gcs.append(gc)
                else:
                    expiring += gc.tokens_held
            expiries = len(self.gcs) - len(gcs)
            sale = self._sale + expiring
            gcs += arrivals
            endowment = total_endowment(gcs)

            # 5. Price; a month with no buyers or no sellers has no trade,
            # so the last price stands.
            substep = "pricing"
            if sale > 0 and endowment > 0:
                price = token_price(endowment, sale)
            else:
                price = self._price
            for gc in arrivals:
                gc.tokens_held = gc.endowment / price if price > 0 else 0.0

            # 6. Market caps; the month's row.
            substep = "record"
            month_row = (
                month, n_now, users, price, sale, circ, endowment, revenue,
                market_cap(price, circ), diluted_market_cap(price, cfg.total_supply),
                entries, exits, len(arrivals), expiries, getattr(self.policy, "fallback_count", 0) - fallbacks_before,
            )
            floats = month_row[_FLOATS]
            if not all(map(math.isfinite, floats)):  # name the first, in field order
                for name, value in zip(_STATE_FLOATS, floats):
                    if not math.isfinite(value):
                        raise ValueError(f"{name} is not finite: {value!r}")
        except SimulationError:
            raise
        except Exception as err:
            raise SimulationError(month, substep, str(err)) from err

        # Commit.  A month that failed above wrote no buffer, so it left the
        # simulation as it was.
        if len(signalled):
            last[signalled] = month
            run_slots[signalled] = run
        kept = n - exits
        if exits:
            stay = self._stay[:n]
            stay.fill(True)
            stay[leavers] = False
            for row in self._rows:  # row by row: a 2-D mask over the columns is several times slower
                row[:kept] = row[:n][stay]
        if entries and (kept != start or entries != cfg.entry_pool_size):  # else they sit in their own slots
            # Out of their pool, which they may overlap: a whole pool by slice, which NumPy copies through a
            # buffer where the two overlap, else by a gather, which is a copy.
            entrants = slice(None) if entries == cfg.entry_pool_size else enters
            for row in (cost, tolerance, threshold):
                row[kept:n_now] = row[start:stop][entrants]
            last[kept:n_now] = -1
        self._n = n_now
        self.gcs = gcs
        self._month, self._price, self._sale = month, price, sale
        self._trajectory.month_rows.append(month_row)


def run(config: SimulationConfig, policy=None) -> Trajectory:
    """Run the full horizon and attach the metric summary."""
    sim = Simulation(config, policy=policy)
    for month in range(1, config.horizon_months + 1):
        sim.step(month)
    trajectory = sim.trajectory
    trajectory.metrics = metrics_mod.report(trajectory)
    return trajectory


@dataclass(eq=False)
class Cell:
    """A comparison cell: `policy` ("heuristic" or "llm") at `patience`.  `policy`, not a trajectory's
    `config.policy`, names the policy that ran.  Cells compare by identity, so a repeated level is a cell of its own."""

    policy: str
    patience: int

    @property
    def label(self) -> str:
        return "heuristic" if self.policy == "heuristic" else f"llm p={self.patience}"


def compare(config: SimulationConfig, patience_levels, seeds, llm_policy) -> Iterator[tuple]:
    """Yield `(cell, seed, Trajectory or SimulationError)` as each run ends, keeping none: the heuristic
    benchmark at `config.patience`, then `llm_policy` at each of `patience_levels`, in order, each run on
    every seed; a seed that fails yields its error.  The one `llm_policy`, and so its audit log, serves
    every LLM cell and seed, in order."""
    for cell in [Cell("heuristic", config.patience), *(Cell("llm", patience) for patience in patience_levels)]:
        policy = HeuristicPolicy() if cell.policy == "heuristic" else llm_policy
        for seed in seeds:
            try:
                yield cell, seed, run(replace(config, patience=cell.patience, seed=seed), policy=policy)
            except SimulationError as err:
                yield cell, seed, err
