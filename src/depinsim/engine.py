"""Discrete-time simulation engine.

Each month runs a fixed sub-step order against the frozen previous-month
snapshot: vest tokens, compute revenue, run node entry then exit decisions,
process growth-capital arrivals and expiries, form the price, and commit
one MarketState record.  Partial months are never committed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import metrics as metrics_mod
from .agents import (
    DecisionContext,
    GcParams,
    GrowthCapitalist,
    HeuristicPolicy,
    LlmPolicy,
    apply_patience,
    decides_in_batches,
    spawn_growth_capitalists,
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
from .tokenomics import (
    NODE_SCHEDULE,
    TEAM_SCHEDULE,
    VC_SCHEDULE,
    TokenAllocation,
    VestingSchedule,
    circulating_supply,
    node_emission,
    team_release,
    vc_release,
)

# RNG stream channels, one per randomized sub-step.  A month's stream on a
# channel is NumPy's `SeedSequence((seed, month, channel))` stream, so adding
# draws to one sub-step never perturbs another's.  `_Streams` computes those
# seeding words itself and hands them to NumPy's own PCG64 seeding; a property
# test pins the result to `default_rng(SeedSequence(...))`.  Trajectory bytes
# therefore depend on NumPy's PCG64 and distribution code.
_STREAM_INIT_NODES = 0
_STREAM_CANDIDATES = 1
_STREAM_GROWTH_CAPITAL = 2
_STREAM_CHANNELS = 3

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

# The most nodes a run may hold: initial_nodes + horizon_months * entry_pool_size,
# which keeps every month's roster arrays allocatable.
MAX_ROSTER = 1_000_000
# The longest run: a run keeps its month records and seeds every month's streams
# at construction, so a horizon beyond this could pass load and never finish.
MAX_HORIZON = 100_000

# The MarketState fields a month must record as finite numbers.
_STATE_FLOATS = tuple(name for name, hint in get_type_hints(MarketState).items() if hint is float)


def _words(value: int) -> List[int]:
    """`value`'s little-endian 32-bit words, as `SeedSequence` splits an int (0 is one word)."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """`init` and its next `count` multiples by `mult` (mod 2**32), as a uint32 column."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, dtype=np.uint32)[:, None]


def _seed_state(entropy: Sequence[np.ndarray]) -> np.ndarray:
    """`SeedSequence(column).generate_state(4, np.uint64)` for each column of `entropy`.

    `entropy` is a sequence of `uint32` rows, one per entropy word, each of
    length 1 (a word every column shares) or `columns`; the result is
    `(columns, 4)`.  This is SeedSequence's mix of the entropy into a 4-word
    pool and its expansion of the pool, run over all columns at once; a shared
    word is hashed once and broadcast, so memory does not grow with the number
    of shared words.  SeedSequence steps its hash constant once per hashed word;
    the copies of one word hashed for several pool words are hashed in one
    operation, a row and a constant each.
    """
    words, columns = len(entropy), max(map(len, entropy))
    hash_a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(words, _POOL_SIZE))
    used = 0

    def hashmix(values, rows):  # `values` hashed with each of the next `rows` constants
        nonlocal used
        out = values ^ hash_a[used:used + rows]
        out *= hash_a[used + 1:used + rows + 1]
        out ^= out >> _XSHIFT
        used += rows
        return out

    def mix(x, y):
        out = x * _MIX_MULT_L - y * _MIX_MULT_R  # x or y may be a shared, one-column row
        out ^= out >> _XSHIFT
        return out

    padding = [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - words)  # short entropy is padded with zeros
    pool = hashmix(np.stack(np.broadcast_arrays(*entropy[:_POOL_SIZE], *padding)), _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], len(dst)))
    for src in range(_POOL_SIZE, words):
        pool = mix(pool, hashmix(entropy[src], _POOL_SIZE))

    hash_b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = np.concatenate((pool, pool)) ^ hash_b[:-1]
    state *= hash_b[1:]
    state ^= state >> _XSHIFT
    state = np.broadcast_to(state, (2 * _POOL_SIZE, columns))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)  # native order


class _Words(ISeedSequence):
    """Seeds PCG64 with `words`, a `SeedSequence`'s `generate_state(4, np.uint64)` computed
    elsewhere; PCG64 reads the array's memory, so it is contiguous and in native order."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class _Streams:
    """The stream of `SeedSequence((seed, month, channel))`, a new generator per call.

    The seeding words of months `0 .. months` on every channel are computed in
    one vectorised pass, at construction; each call hands its words to NumPy's
    own PCG64 seeding, as `default_rng(SeedSequence(...))` does after hashing
    the entropy.  A month is at most MAX_HORIZON, so it is one entropy word.
    """

    def __init__(self, seed: int, months: int):
        seed_words = np.array(_words(seed), dtype=np.uint32)[:, None]  # one shared row per word
        month = np.repeat(np.arange(months + 1, dtype=np.uint32), _STREAM_CHANNELS)
        channel = np.tile(np.arange(_STREAM_CHANNELS, dtype=np.uint32), months + 1)
        self._state_words = _seed_state([*seed_words, month, channel]).reshape(months + 1, _STREAM_CHANNELS, 4)

    def __call__(self, month: int, channel: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(_Words(self._state_words[month, channel])))


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
    return tuple(value) if get_origin(hint) is tuple else value


def decode(base, data, prefix: str = ""):
    """Dataclass `base` with the config section `data` applied over it.

    A dataclass field is a nested section, an Enum is read by value and a tuple
    from a list.  A tagged dataclass reads `kind` first; a kind other than
    `base`'s starts from that kind's defaults.  Errors are ValueErrors naming the
    dotted key; a section's own checks name their field first.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config section {prefix[:-1] or '(top level)'} must be an object, got {data!r}")
    hints = get_type_hints(type(base))
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
    gc_arrival_rate: float = mirrored(GcParams, "arrival_rate", "Poisson mean of growth-capitalist arrivals per month")
    gc_endowment_mu: float = mirrored(GcParams, "endowment_mu", "log-normal log-mean of GC endowments")
    gc_endowment_sigma: float = mirrored(GcParams, "endowment_sigma", "log-normal sigma of GC endowments")
    gc_lifespan_mu: float = mirrored(GcParams, "lifespan_mu", "log-normal log-mean of GC lifespans (months)")
    gc_lifespan_sigma: float = mirrored(GcParams, "lifespan_sigma", "log-normal sigma of GC lifespans")
    tokens_on_sale_fraction: float = config_field(0.05, "initial sale pool as a fraction of month-1 supply", "[0, inf)")
    policy: str = config_field("heuristic", "decision policy: heuristic | llm")
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
        if self.policy not in ("heuristic", "llm"):
            raise ValueError(f"policy must be 'heuristic' or 'llm', got {self.policy!r}")
        if self.policy == "llm" and self.llm is None:
            raise ValueError("policy 'llm' requires an llm config section")
        first, last = self.stability_window or (1, self.horizon_months)
        if not 1 <= first <= last <= self.horizon_months:
            raise ValueError(f"stability_window must satisfy 1 <= first <= last <= horizon_months "
                             f"({self.horizon_months}), got {self.stability_window}")
        self.allocation()  # raises on bad fractions

    def allocation(self) -> TokenAllocation:
        return TokenAllocation(**{f.name: getattr(self, f.name) for f in fields(TokenAllocation)})

    def gc_params(self) -> GcParams:
        return GcParams(**{f.name: getattr(self, "gc_" + f.name) for f in fields(GcParams)})

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Build a config from decoded JSON; any bad input raises ValueError."""
        return decode(cls(), data)


@dataclass
class MonthEvents:
    """What happened during one committed month."""

    month: int
    entries: int = 0
    exits: int = 0
    gc_arrivals: int = 0
    gc_expiries: int = 0
    fallbacks: int = 0  # LLM replies that fell back to the heuristic


CSV_COLUMNS = (
    "month", "nodes", "users", "price", "circ_supply", "market_cap",
    "diluted_cap", "E_total", "tokens_on_sale", "entries", "exits", "fallbacks",
)


def csv_text(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """`header` then `rows` as CSV text with "\n" line ends; floats are written with repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass
class Trajectory:
    """Ordered month records plus the event log and the config that ran."""

    states: List[MarketState]
    events: List[MonthEvents]
    config: SimulationConfig
    metrics: Optional[metrics_mod.MetricReport] = None

    def price_series(self) -> List[float]:
        return [s.token_price for s in self.states]

    def rows(self) -> Iterator[tuple]:
        """The run table: one row per month, in CSV_COLUMNS order."""
        for s, e in zip(self.states, self.events):
            yield (s.month, s.active_nodes, s.users, s.token_price, s.circulating_supply, s.market_cap,
                   s.diluted_market_cap, s.total_gc_endowment, s.tokens_on_sale, e.entries, e.exits, e.fallbacks)

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
    """Mutable run state: node roster, growth capitalists, last snapshot.

    The roster is each active node's `cost`, `tolerance` and run of exit
    signals, in roster order.  They live in the first `n` slots of buffers
    allocated once, at the run's largest possible roster (`initial_nodes +
    horizon_months * entry_pool_size`), so a month allocates no roster
    arrays.  A node's run is two slots: the last month it signalled (-1
    for a node that never has) and the length of its run of consecutive
    signals up to that month.  A month therefore reads and writes only the
    slots of the nodes that signalled: a run continues if the node also
    signalled the month before and restarts at 1 otherwise, and nodes
    whose run reaches `patience` leave.  The commit writes those slots,
    compacts exits within the buffers through a scratch mask of stayers and
    writes entrants into the tail.  A month past `horizon_months` is
    rejected, so the roster never outgrows the buffers.  `cost` and
    `tolerance` are read-only views of the live slots; `streak` is
    computed from the run slots.

    Within a month every decision reads the same frozen start-of-month
    context, so agent evaluation order cannot change the outcome.  A policy
    whose class provides its own batch methods (`HeuristicPolicy`,
    `LlmPolicy`) decides the candidate pool and the roster in one call each;
    any other policy is called once per decision, in roster order; the
    route is chosen once, at construction, from the policy's class.  The
    arrays a batch method receives are read-only and valid only during that
    call: the commit reuses their memory.
    """

    def __init__(self, config: SimulationConfig, policy=None):
        self.config = config
        self.policy = policy if policy is not None else build_policy(config)
        # The route as a plain function: a bound method kept here would make each simulation a reference cycle.
        self._decide = Simulation._decide_roster if decides_in_batches(type(self.policy)) else Simulation._decide_each
        self.alloc = config.allocation()
        self.gc_params = config.gc_params()
        self._stream = _Streams(config.seed, config.horizon_months)

        # np.empty and np.zeros leave the slots no month reaches unbacked by memory;
        # np.full writes all of `_last`, 8 bytes a slot.
        capacity = config.initial_nodes + config.horizon_months * config.entry_pool_size
        self._cost = np.empty(capacity)
        self._tolerance = np.empty(capacity)
        self._last = np.full(capacity, -1, dtype=np.int64)  # the month each node last signalled exit
        self._run = np.zeros(capacity, dtype=np.int64)  # its run of consecutive signals up to that month
        self._stay = np.empty(capacity, dtype=bool)  # in an exit month, the nodes that stay
        self._cost_view, self._tolerance_view = self._cost.view(), self._tolerance.view()
        self._cost_view.flags.writeable = self._tolerance_view.flags.writeable = False
        self._n = config.initial_nodes
        rng = self._stream(0, _STREAM_INIT_NODES)
        self._cost[:self._n], self._tolerance[:self._n] = self._draw_node_params(rng, self._n)
        self.gcs: List[GrowthCapitalist] = []

        # Seed the sale-side of the price ratio so month 1 has a market
        # even before any growth capitalist exits.
        month1_supply = circulating_supply(
            1, self.alloc, config.team_schedule, config.vc_schedule, config.node_schedule
        )
        self.state = MarketState(
            month=0,
            active_nodes=config.initial_nodes,
            users=user_count(config.initial_nodes),
            token_price=config.initial_price,
            tokens_on_sale=config.tokens_on_sale_fraction * month1_supply,
            circulating_supply=0.0,
            total_gc_endowment=0.0,
            global_revenue=0.0,
            market_cap=0.0,
            diluted_market_cap=0.0,
        )
        self.states: List[MarketState] = []
        self.events: List[MonthEvents] = []

    @property
    def cost(self) -> np.ndarray:
        """Each active node's monthly cost, in roster order (read-only, valid until the next commit)."""
        return self._cost_view[:self._n]

    @property
    def tolerance(self) -> np.ndarray:
        """Each active node's risk tolerance, in roster order (read-only, valid until the next commit)."""
        return self._tolerance_view[:self._n]

    @property
    def streak(self) -> np.ndarray:
        """Each active node's run of consecutive exit signals up to the last committed month,
        in roster order: its run if it signalled that month, else 0 (a read-only copy)."""
        n = self._n
        streak = np.where(self._last[:n] == self.state.month, self._run[:n], 0)
        streak.flags.writeable = False
        return streak

    def _draw_node_params(self, rng: np.random.Generator, count: int):
        lo, hi = self.config.cost_spread
        tlo, thi = self.config.tolerance_range
        costs = self.config.node_cost * rng.uniform(lo, hi, count)
        tolerances = rng.uniform(tlo, thi, count)
        return costs, tolerances

    def _decide_roster(self, revenue, costs, tolerances, month) -> Tuple[np.ndarray, np.ndarray]:
        """The policy's batch methods over the whole candidate pool, then the
        roster; returns the entry mask and the roster indices that signalled exit."""
        enters = _verdicts(self.policy.decide_entries(revenue, costs, tolerances, month), len(costs))
        n = self._n
        if not n:
            return enters, _NO_NODES
        signals = _verdicts(self.policy.decide_exits(revenue, self.cost, self.tolerance, month), n)
        return enters, np.flatnonzero(signals) if signals.any() else _NO_NODES

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

    def step(self, month: int) -> MarketState:
        """Advance one month and commit its record."""
        if month != self.state.month + 1:
            raise SimulationError(month, "ordering", f"expected month {self.state.month + 1}")
        if month > self.config.horizon_months:
            raise SimulationError(month, "ordering", f"the horizon is {self.config.horizon_months} months")
        prev = self.state
        cfg = self.config
        substep = "vesting"
        try:
            # 1. Token releases and circulating supply.
            emission = node_emission(month, self.alloc, cfg.node_schedule)
            released = (
                team_release(month, self.alloc, cfg.team_schedule)
                + vc_release(month, self.alloc, cfg.vc_schedule)
                + emission
            )
            circ = prev.circulating_supply + released

            # 2. Users and global revenue from the frozen snapshot.
            substep = "revenue"
            users = user_count(prev.active_nodes)
            revenue = global_revenue(
                prev.token_price, emission, prev.active_nodes, users, cfg.user_revenue_factor
            )
            if not math.isfinite(revenue):  # before any policy reads it, so every policy fails here
                raise ValueError(f"global_revenue is not finite: {revenue!r}")

            # 3. Node entries over the candidate pool, then exits with
            # patience; this month's entrants face exit conditions from
            # next month on.
            substep = "node-decisions"
            fallbacks_before = getattr(self.policy, "fallback_count", 0)
            rng = self._stream(month, _STREAM_CANDIDATES)
            costs, tolerances = self._draw_node_params(rng, cfg.entry_pool_size)
            enters, signalled = self._decide(self, revenue, costs, tolerances, month)
            leavers = signalled
            if len(signalled):  # a run that did not include last month restarts at 1
                run = self._run[signalled] + 1
                run[self._last[signalled] != month - 1] = 1
                leavers = signalled[run >= cfg.patience]
            n = self._n
            exits = len(leavers)
            entries = int(np.count_nonzero(enters))
            n_now = n - exits + entries

            # 4. Growth capitalists stay until their expiry month, when their
            # holdings go on sale; then this month's arrivals join.
            substep = "growth-capital"
            rng_gc = self._stream(month, _STREAM_GROWTH_CAPITAL)
            arrivals = spawn_growth_capitalists(month, self.gc_params, rng_gc)
            gcs, expiring = [], 0  # expiring holdings add left to right from the int 0, then join the pool at once
            for gc in self.gcs:
                if gc.expiry > month:
                    gcs.append(gc)
                else:
                    expiring += gc.tokens_held
            expiries = len(self.gcs) - len(gcs)
            sale = prev.tokens_on_sale + expiring
            gcs += arrivals
            endowment = total_endowment(gcs)

            # 5. Price; a month with no buyers or no sellers has no trade,
            # so the last price stands.
            substep = "pricing"
            if sale > 0 and endowment > 0:
                price = token_price(endowment, sale)
            else:
                price = prev.token_price
            for gc in arrivals:
                gc.tokens_held = gc.endowment / price if price > 0 else 0.0

            # 6. Market caps; commit the month.
            substep = "record"
            state = MarketState(
                month=month,
                active_nodes=n_now,
                users=users,
                token_price=price,
                tokens_on_sale=sale,
                circulating_supply=circ,
                total_gc_endowment=endowment,
                global_revenue=revenue,
                market_cap=market_cap(price, circ),
                diluted_market_cap=diluted_market_cap(price, self.alloc.total_supply),
            )
            for name in _STATE_FLOATS:
                if not math.isfinite(getattr(state, name)):
                    raise ValueError(f"{name} is not finite: {getattr(state, name)!r}")
            events = MonthEvents(
                month=month,
                entries=entries,
                exits=exits,
                gc_arrivals=len(arrivals),
                gc_expiries=expiries,
                fallbacks=getattr(self.policy, "fallback_count", 0) - fallbacks_before,
            )
        except SimulationError:
            raise
        except Exception as err:
            raise SimulationError(month, substep, str(err)) from err

        # Commit.  A month that failed above wrote no buffer, so it left the
        # simulation as it was.
        if len(signalled):
            self._last[signalled] = month
            self._run[signalled] = run
        kept = n - exits
        if exits:
            stay = self._stay[:n]
            stay.fill(True)
            stay[leavers] = False
            for buffer in (self._cost, self._tolerance, self._last, self._run):
                buffer[:kept] = buffer[:n][stay]
        if entries:
            self._cost[kept:n_now] = costs[enters]
            self._tolerance[kept:n_now] = tolerances[enters]
            self._last[kept:n_now] = -1
        self._n = n_now
        self.gcs = gcs
        self.state = state
        self.states.append(state)
        self.events.append(events)
        return state


def run(config: SimulationConfig, policy=None) -> Trajectory:
    """Run the full horizon and attach the metric summary."""
    sim = Simulation(config, policy=policy)
    for month in range(1, config.horizon_months + 1):
        sim.step(month)
    trajectory = Trajectory(states=sim.states, events=sim.events, config=config)
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
