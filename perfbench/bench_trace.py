"""Timing shims placed around calls into depinsim's layers, from outside.

Nothing here edits depinsim's source.  A traced run swaps, for the length of
a ``with`` block, the names depinsim modules call through (functions that
``engine`` and ``agents`` imported by name, ``Simulation`` methods, the
chart ``depin-sim run`` draws and the ``run`` that ``cli`` imported) for wrappers
that time each call, and wraps the decision policy and completion backend
that the benchmark passes in through the public ``policy=`` argument.

Each wrapped call is a span: name, start, end and the span open when it
began.  Per name the tracer keeps the call count, busy time (inclusive) and
self time (busy minus the time of spans nested directly inside).  Spans of
the coarse layers listed in ``RECORDED`` are also kept in memory for the
span log; the hot per-decision layers (millions of calls) are aggregated
only, so memory stays flat.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import depinsim.agents as agents_mod
import depinsim.charts as charts_mod
import depinsim.cli as cli_mod
import depinsim.engine as engine_mod
import depinsim.metrics as metrics_mod

# Span names whose individual spans are written to the span log.
RECORDED = frozenset({
    "cli", "engine.run", "engine.init", "engine.step", "engine.to_csv", "metrics.report",
    "charts.line_chart",
})

# Functions `engine` imported by name, grouped into the layer they belong to.
ENGINE_IMPORTS = {
    "tokenomics.release": ("team_release", "vc_release", "node_emission", "circulating_supply"),
    "market.formulas": ("user_count", "global_revenue", "token_price", "market_cap", "diluted_market_cap"),
    "agents.gc": ("spawn_growth_capitalists", "total_endowment"),
}


class Tracer:
    """In-memory span recorder; single-threaded by design."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter, recorded=RECORDED):
        self.clock = clock
        self.recorded = recorded
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, busy_s, child_s]
        self.tallies: Dict[str, int] = {}  # outcome counters, e.g. exit signals
        self.samples: Dict[str, array] = {}  # name -> per-call durations, when asked for
        self.spans: List[tuple] = []  # (id, name, start, end, parent id or -1)
        self._stack: List[list] = []  # open spans: [child_s, id]
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, tally: Optional[Callable] = None, keep_samples: bool = False) -> Callable:
        """Return fn timed as span `name`; tally(result) runs after each call."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.setdefault(name, array("d")) if keep_samples else None
        record = name in self.recorded
        clock = self.clock
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            frame = [0.0, self._next_id]
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += frame[0]
                if stack:
                    stack[-1][0] += duration
                if samples is not None:
                    samples.append(duration)
                if record:
                    spans.append((frame[1], name, start, end, parent))
            if tally is not None:
                tally(result)
            return result

        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + n

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def busy(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_time(self, name: str) -> float:
        _, busy, child = self.stats.get(name, (0, 0.0, 0.0))
        return busy - child

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


class TracedPolicy:
    """Decision policy wrapper: times each decision and tallies verdicts."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.decide_entry = tracer.wrap(
            "agents.decide_entry", inner.decide_entry, tally=lambda v: v and tracer.count("entry_accepts"))
        self.decide_exit = tracer.wrap(
            "agents.decide_exit", inner.decide_exit, tally=lambda v: v and tracer.count("exit_signals"))

    @property
    def fallback_count(self) -> int:
        # The engine reads this to fill the CSV's fallbacks column.
        return getattr(self._inner, "fallback_count", 0)


class TracedBackend:
    """Completion backend wrapper: times each completion, counts failures."""

    def __init__(self, inner, tracer: Tracer):
        complete = tracer.wrap("llm_gateway.complete", inner.complete, keep_samples=True)

        def counted(request):
            try:
                return complete(request)
            except Exception:
                tracer.count("complete_errors")
                raise

        self.complete = counted


@contextlib.contextmanager
def _patched(patches) -> Iterator[None]:
    """Set each (owner, attribute, value) for the block, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_shims(tracer: Tracer):
    """Context manager installing every module-level shim of a traced run."""
    sim, traj = engine_mod.Simulation, engine_mod.Trajectory
    build_policy = engine_mod.build_policy

    def svg_bytes(svg):
        tracer.count("svg_bytes", len(svg.encode()))

    patches = [
        (sim, "__init__", tracer.wrap("engine.init", sim.__init__)),
        (sim, "step", tracer.wrap("engine.step", sim.step)),
        (traj, "to_csv_string", tracer.wrap(
            "engine.to_csv", traj.to_csv_string, tally=lambda text: tracer.count("csv_bytes", len(text.encode())))),
        (engine_mod, "apply_patience", tracer.wrap(
            "agents.apply_patience", engine_mod.apply_patience, tally=lambda out: out and tracer.count("exits"))),
        # Policies the engine builds itself (the CLI path) get the same wrapper.
        (engine_mod, "build_policy", lambda *a, **k: TracedPolicy(build_policy(*a, **k), tracer)),
        (agents_mod, "render_entry_prompt", tracer.wrap("agents.prompt_render", agents_mod.render_entry_prompt)),
        (agents_mod, "render_exit_prompt", tracer.wrap("agents.prompt_render", agents_mod.render_exit_prompt)),
        (agents_mod, "parse_yes_no", tracer.wrap(
            "llm_gateway.parse", agents_mod.parse_yes_no, tally=lambda v: v is None and tracer.count("fallbacks"))),
        (metrics_mod, "report", tracer.wrap("metrics.report", metrics_mod.report)),
        (charts_mod, "line_chart", tracer.wrap("charts.line_chart", charts_mod.line_chart, tally=svg_bytes)),
        (cli_mod, "run", tracer.wrap("engine.run", cli_mod.run)),
    ]
    for layer, names in ENGINE_IMPORTS.items():
        patches += [(engine_mod, name, tracer.wrap(layer, getattr(engine_mod, name))) for name in names]
    return _patched(patches)


@contextlib.contextmanager
def step_timer(durations: List[float], clock) -> Iterator[None]:
    """Append the time of every Simulation.step call, by `clock` (a
    bench_clock.RefClock), to `durations`.

    The untraced run's only shim: one clock pair per simulated month, and
    between months a speed probe when the last one is stale.
    """
    step = engine_mod.Simulation.step

    def timed_step(self, month):
        clock.sample()
        start = clock.now()
        try:
            return step(self, month)
        finally:
            durations.append(clock.now() - start)

    with _patched([(engine_mod.Simulation, "step", timed_step)]):
        yield
