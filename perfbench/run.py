#!/usr/bin/env python3
"""depinsim benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload roster-growth --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in a fresh process

``--trace 0`` measures the end-to-end metrics (setup_s, months_per_s,
month_ms_p50, month_ms_p95, peak_rss_mb) with no shim but a clock around
each ``Simulation.step``.  ``--trace 1`` instead runs the same unit of work
untraced and traced, in pairs, and reports the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.  A
fuller record, with provenance, goes to perfbench/out/.

Exit status: 0 when every run passed its checks, 1 when any failed or
depinsim could not be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import bench_workloads as bw  # first: it puts the checkout's src/ on sys.path
import bench_stub
from bench_checks import CheckFailed, check_digest, check_invariants, sha256
from bench_clock import RefClock
from bench_stats import TooFewSamples, beyond, percentile
from bench_trace import Tracer, TracedBackend, TracedPolicy, layer_shims, step_timer
from depinsim import heuristic_prompt_reply

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DIGESTS = HERE / "reference_digests.json"

SETUP_REPEATS = 5  # fresh processes per run; setup_s is their median
MIN_MONTHS = 300  # month samples per run, so p95 has 15 beyond it
MAX_SECONDS = 150  # hard stop for the measuring loop

# name -> (unit, better) for the --trace 1 metrics, in report order.
LAYER_METRICS = {
    "engine.step.calls": ("count", "lower"),
    "engine.step.self_s": ("s", "lower"),
    "engine.init_s": ("s", "lower"),
    "agents.decide_entry.calls": ("count", "lower"),
    "agents.decide_exit.calls": ("count", "lower"),
    "agents.decide.busy_s": ("s", "lower"),
    "agents.apply_patience.calls": ("count", "lower"),
    "agents.apply_patience.busy_s": ("s", "lower"),
    "agents.entry_accept_ratio": ("ratio", "higher"),
    "agents.exit_signal_ratio": ("ratio", "higher"),
    "agents.exits_per_signal": ("ratio", "higher"),
    "agents.prompt_render.busy_s": ("s", "lower"),
    "llm_gateway.parse.busy_s": ("s", "lower"),
    "llm_gateway.complete.calls": ("count", "lower"),
    "llm_gateway.complete.busy_s": ("s", "lower"),
    "llm_gateway.complete_ms_p50": ("ms", "lower"),
    "llm_gateway.complete_ms_p99": ("ms", "lower"),
    "llm_gateway.requests": ("count", "lower"),
    "llm_gateway.connections": ("count", "lower"),
    "llm_gateway.errors": ("count", "lower"),
    "llm_gateway.fallback_ratio": ("ratio", "lower"),
    "agents.gc.calls": ("count", "lower"),
    "agents.gc.busy_s": ("s", "lower"),
    "tokenomics.release.calls": ("count", "lower"),
    "tokenomics.release.busy_s": ("s", "lower"),
    "market.formulas.calls": ("count", "lower"),
    "market.formulas.busy_s": ("s", "lower"),
    "engine.to_csv.busy_s": ("s", "lower"),
    "engine.to_csv.bytes": ("B", "lower"),
    "metrics.report.busy_s": ("s", "lower"),
    "charts.line_chart.calls": ("count", "lower"),
    "charts.busy_s": ("s", "lower"),
    "charts.svg_bytes": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.months_per_s_untraced": ("1/s", "higher"),
    "trace.months_per_s_traced": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}
# Per-layer metrics that are times; the rest are exact counts or ratios.
TIMED = {name for name, (unit, _) in LAYER_METRICS.items() if unit in ("s", "ms", "1/s", "%")}


@dataclass
class Tally:
    """Runs attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, label: str, err: BaseException) -> None:
        self.failures.append(f"{label}: {type(err).__name__}: {err}")


@dataclass
class Timing:
    months: int = 0
    seconds: float = 0.0  # reference seconds (bench_clock)
    host_seconds: float = 0.0

    @property
    def months_per_s(self) -> float:
        return self.months / self.seconds


def run_unit(unit: bw.Unit, tally: Tally, timing: Timing, clock: RefClock, around=contextlib.nullcontext,
             digests: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Run each job, timing only its execute call (inside `around()`), then
    check its CSV; a job that raises or fails a check counts as failed.
    Returns the CSVs that passed, by job label."""
    csvs = {}
    for job in unit.jobs:
        tally.attempted += 1
        try:
            with around():
                clock.sample()
                start, host_start = clock.now(), clock.host_now()
                output = job.execute()
                elapsed, host_elapsed = clock.now() - start, clock.host_now() - host_start
            text = job.collect(output)
            check_invariants(job.label, text, job.config)
            if digests is not None:
                if job.label not in digests:
                    raise CheckFailed(f"{job.label}: no reference digest recorded")
                check_digest(job.label, text, digests[job.label])
            csvs[job.label] = text
            timing.months += job.config.horizon_months
            timing.seconds += elapsed
            timing.host_seconds += host_elapsed
        except Exception as err:  # every failure is counted and reported; the run goes on
            tally.fail(job.label, err)
        finally:
            job.after()
    if len(csvs) == len(unit.jobs):
        try:
            unit.cross_check(csvs)
        except CheckFailed as err:
            tally.fail("cross-check", err)
    return csvs


def warm_up(workload: bw.Workload, env: bw.Env, tally: Tally) -> None:
    """One untimed unit at the reference seed, checked against its digests."""
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name, {})
    run_unit(workload.make_unit(bw.REFERENCE_SEED, env), tally, Timing(), RefClock(), digests=digests)


def measure(workload: bw.Workload, env: bw.Env, seed: int, seconds: float, tally: Tally,
            min_months: int = MIN_MONTHS) -> dict:
    """Untraced timed section: units with fresh seeds until `seconds` have
    passed and at least `min_months` months were stepped."""
    steps: List[float] = []
    timing = Timing()
    clock = RefClock()
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds or len(steps) < min_months:
        if time.perf_counter() - start > MAX_SECONDS:
            break
        run_unit(workload.make_unit(bw.unit_seed(seed, index), env), tally, timing, clock,
                 lambda: step_timer(steps, clock))
        index += 1
    return {
        "timing": timing,
        "units": index,
        "seeds": [bw.unit_seed(seed, i) for i in range(index)],
        "month_ms": [s * 1000.0 for s in steps],
        "speed_samples": clock.samples,
    }


def stub_stats(stub) -> dict:
    return stub.stats() if stub is not None else {"requests": 0, "connections": 0, "errors": 0}


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(tracer: Tracer, stub: dict, untraced: Timing, traced: Timing) -> dict:
    """Per-layer metrics of one traced unit."""
    t = tracer
    entry, exit_ = t.calls("agents.decide_entry"), t.calls("agents.decide_exit")
    signals = t.tallies.get("exit_signals", 0)
    return {
        "engine.step.calls": t.calls("engine.step"),
        "engine.step.self_s": t.self_time("engine.step"),
        "engine.init_s": _ratio(t.busy("engine.init"), t.calls("engine.init")),
        "agents.decide_entry.calls": entry,
        "agents.decide_exit.calls": exit_,
        "agents.decide.busy_s": t.busy("agents.decide_entry") + t.busy("agents.decide_exit"),
        "agents.apply_patience.calls": t.calls("agents.apply_patience"),
        "agents.apply_patience.busy_s": t.busy("agents.apply_patience"),
        "agents.entry_accept_ratio": _ratio(t.tallies.get("entry_accepts", 0), entry),
        "agents.exit_signal_ratio": _ratio(signals, exit_),
        "agents.exits_per_signal": _ratio(t.tallies.get("exits", 0), signals),
        "agents.prompt_render.busy_s": t.busy("agents.prompt_render"),
        "llm_gateway.parse.busy_s": t.busy("llm_gateway.parse"),
        "llm_gateway.complete.calls": t.calls("llm_gateway.complete"),
        "llm_gateway.complete.busy_s": t.busy("llm_gateway.complete"),
        "llm_gateway.requests": stub["requests"],
        "llm_gateway.connections": stub["connections"],
        "llm_gateway.errors": t.tallies.get("complete_errors", 0) + stub["errors"],
        "llm_gateway.fallback_ratio": _ratio(t.tallies.get("fallbacks", 0), t.calls("llm_gateway.parse")),
        "agents.gc.calls": t.calls("agents.gc"),
        "agents.gc.busy_s": t.busy("agents.gc"),
        "tokenomics.release.calls": t.calls("tokenomics.release"),
        "tokenomics.release.busy_s": t.busy("tokenomics.release"),
        "market.formulas.calls": t.calls("market.formulas"),
        "market.formulas.busy_s": t.busy("market.formulas"),
        "engine.to_csv.busy_s": t.busy("engine.to_csv"),
        "engine.to_csv.bytes": t.tallies.get("csv_bytes", 0),
        "metrics.report.busy_s": t.busy("metrics.report"),
        "charts.line_chart.calls": t.calls("charts.line_chart"),
        "charts.busy_s": t.busy("charts.line_chart"),
        "charts.svg_bytes": t.tallies.get("svg_bytes", 0),
        "cli.self_s": t.self_time("cli"),
        "cli.bytes_written": t.tallies.get("cli_bytes", 0),
        "trace.months_per_s_untraced": untraced.months_per_s,
        "trace.months_per_s_traced": traced.months_per_s,
    }


def traced_env(env: bw.Env, tracer: Tracer) -> bw.Env:
    def wrap_cli(main):
        spanned = tracer.wrap("cli", main)

        def call(argv):
            code = spanned(argv)
            out_dir = Path(argv[argv.index("--out-dir") + 1])
            tracer.count("cli_bytes", sum(f.stat().st_size for f in out_dir.iterdir()))
            return code

        return call

    return replace(
        env,
        wrap_policy=lambda policy: TracedPolicy(policy, tracer),
        wrap_backend=lambda backend: TracedBackend(backend, tracer),
        wrap_cli=wrap_cli,
    )


def trace(workload: bw.Workload, env: bw.Env, seed: int, seconds: float, tally: Tally, spans_path: Path,
          stub: Optional[bench_stub.CompletionStub] = None) -> dict:
    """Pairs of (untraced, traced) runs of one unit until `seconds` pass.

    Counts and ratios must repeat exactly across pairs; times are the median
    over pairs; completion latencies pool every traced call.
    """
    unit_seed = bw.unit_seed(seed, 0)
    passes = []
    latencies: List[float] = []
    clock = RefClock()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > MAX_SECONDS:
            break
        untraced = Timing()
        run_unit(workload.make_unit(unit_seed, env), tally, untraced, clock)
        tracer = Tracer()
        before = stub_stats(stub)
        traced = Timing()
        run_unit(workload.make_unit(unit_seed, traced_env(env, tracer)), tally, traced, clock,
                 lambda: layer_shims(tracer))
        after = stub_stats(stub)
        if not (untraced.months and traced.months):
            break  # the failure is already counted
        passes.append(layer_metrics(tracer, {k: after[k] - before[k] for k in after}, untraced, traced))
        latencies.extend(d * 1000.0 for d in tracer.samples.get("llm_gateway.complete", ()))
        tracer.write_spans(spans_path)
    if not passes:
        return {"passes": 0}
    for later in passes[1:]:
        for name, value in later.items():
            if name not in TIMED and value != passes[0][name]:
                tally.fail("trace", CheckFailed(f"{name} changed between identical passes: {passes[0][name]} != {value}"))
    metrics = {
        name: statistics.median(p[name] for p in passes) if name in TIMED else passes[0][name]
        for name in passes[0]
    }
    metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.months_per_s_untraced"] / metrics["trace.months_per_s_traced"] - 1.0)
    notes = {}
    for name, p in (("llm_gateway.complete_ms_p50", 50), ("llm_gateway.complete_ms_p99", 99)):
        try:
            metrics[name] = percentile(latencies, p) if latencies else 0.0
        except TooFewSamples:
            metrics[name] = max(latencies)
            notes[name] = f"maximum of {len(latencies)} samples: too few for p{p}"
    return {"passes": len(passes), "seed": unit_seed, "metrics": metrics, "latency_samples": len(latencies), "notes": notes}


def setup_seconds(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> List[tuple]:
    """(host, reference) set-up seconds of `repeats` fresh processes (see setup_probe.py)."""
    times = []
    for i in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(bw.unit_seed(seed, i))],
            capture_output=True, text=True, timeout=60, check=True,
        )
        host, ref = proc.stdout.split()
        times.append((float(host), float(ref)))
    return times


def provenance() -> dict:
    import numpy
    import requests

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (bw.ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bw.ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": requests.__version__,
        "git_commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(setup: List[tuple], measured: dict) -> tuple[dict, List[str]]:
    timing, ms = measured["timing"], measured["month_ms"]
    n = len(ms)
    host_setup = statistics.median(host for host, _ in setup)
    values = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s",
                    f"median of {len(setup)} fresh processes; host {host_setup:.4f} s"),
        "months_per_s": (timing.months_per_s, "1/s",
                         f"{timing.months} months in {timing.seconds:.3f} s, {measured['units']} units "
                         f"(seeds {measured['seeds'][0]}..{measured['seeds'][-1]}); "
                         f"host {timing.months / timing.host_seconds:.6g}/s"),
        "month_ms_p50": (percentile(ms, 50), "ms", f"n={n}, {beyond(n, 50):.0f} beyond"),
        "month_ms_p95": (percentile(ms, 95), "ms", f"n={n}, {beyond(n, 95):.0f} beyond"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "this process"),
    }
    lines = [f"  {name:<14} {value:>14.6g} {unit:<4} ({note})" for name, (value, unit, note) in values.items()]
    lines.append(f"  times are in reference seconds (bench_clock.py): this host ran at "
                 f"{timing.seconds / timing.host_seconds:.3f}x the reference speed ({measured['speed_samples']} probes)")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()}, lines


def run_workload(args) -> int:
    workload = bw.WORKLOADS[args.workload]
    tally = Tally()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance()}
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else setup_seconds(workload.name, args.seed)
    with contextlib.ExitStack() as stack:
        stub = stack.enter_context(bench_stub.serving(heuristic_prompt_reply)) if workload.needs_stub else None
        env = bw.Env(workdir=Path(stack.enter_context(tempfile.TemporaryDirectory(dir=OUT))),
                     url=stub.url if stub else None)
        warm_up(workload, env, tally)
        if args.trace:
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
            result = trace(workload, env, args.seed, args.seconds, tally, spans_path, stub)
        else:
            result = measure(workload, env, args.seed, args.seconds, tally)
    record["provenance"]["loadavg_end"] = os.getloadavg()

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    metrics: dict = {}
    try:
        if args.trace:
            metrics, lines = layer_report(result)
            record.update(seed_used=result.get("seed"), passes=result["passes"], notes=result.get("notes"))
        else:
            metrics, lines = end_to_end(setup, result)
            record.update(unit_seeds=result["seeds"], setup_samples=setup, month_samples=len(result["month_ms"]))
        print("\n".join(lines))
    except (KeyError, ZeroDivisionError, TooFewSamples) as err:
        tally.fail("metrics", err)
    failed = min(len(tally.failures), max(tally.attempted, 1))
    print(f"  {'fail_rate':<14} {failed / max(tally.attempted, 1):>14.6g}      ({failed} failed of {tally.attempted} runs)")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    prov = record["provenance"]
    print(f"  provenance: nproc={prov['nproc']} cpu={prov['cpu_model']!r} python={prov['python']} "
          f"numpy={prov['numpy']} requests={prov['requests']} commit={prov['git_commit']} "
          f"load={prov['loadavg_start'][0]:.2f}->{prov['loadavg_end'][0]:.2f}")
    summary = {"correct": not tally.failures, "attempted": max(tally.attempted, 1), "failed": failed, "metrics": metrics}
    record.update(summary, failures=tally.failures)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def layer_report(result: dict) -> tuple[dict, List[str]]:
    m = result["metrics"]
    lines = [f"  traced unit: seed {result['seed']}, {result['passes']} untraced/traced pairs; "
             f"completion latencies pooled over {result['latency_samples']} calls"]
    for name, (unit, _) in LAYER_METRICS.items():
        note = result["notes"].get(name, "")
        lines.append(f"  {name:<32} {m[name]:>16.6g} {unit:<5} {note}")
    lines.append(f"  tracing overhead: untraced {m['trace.months_per_s_untraced']:.6g} vs traced "
                 f"{m['trace.months_per_s_traced']:.6g} months/s ({m['trace.overhead_pct']:.1f}%)")
    return {name: {"value": m[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}, lines


def run_all(args) -> int:
    """Every workload in its own fresh process; one summary table."""
    summaries = {}
    for name in bw.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        summaries[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    names = sorted({k for s in summaries.values() for k in s["metrics"]}, key=list(LAYER_METRICS).index
                   if args.trace else None)
    print(f"\n{'metric':<32}" + "".join(f"{w:>16}" for w in summaries))
    for k in names:
        cells = (s["metrics"].get(k, {}).get("value") for s in summaries.values())
        print(f"{k:<32}" + "".join(f"{v:>16.6g}" if v is not None else f"{'-':>16}" for v in cells))
    print(f"{'fail_rate':<32}" + "".join(f"{s['failed'] / s['attempted']:>16.6g}" for s in summaries.values()))
    combined = {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{w}/{k}": v for w, s in summaries.items() for k, v in s["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def record_digests() -> int:
    """Write reference_digests.json from the reference unit of every workload."""
    OUT.mkdir(exist_ok=True)
    digests = {}
    tally = Tally()
    for workload in bw.WORKLOADS.values():
        with contextlib.ExitStack() as stack:
            stub = stack.enter_context(bench_stub.serving(heuristic_prompt_reply)) if workload.needs_stub else None
            env = bw.Env(workdir=Path(stack.enter_context(tempfile.TemporaryDirectory(dir=OUT))),
                         url=stub.url if stub else None)
            csvs = run_unit(workload.make_unit(bw.REFERENCE_SEED, env), tally, Timing(), RefClock())
        digests[workload.name] = {label: sha256(text) for label, text in csvs.items()}
    if tally.failures:
        print("\n".join(tally.failures), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*bw.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the measured section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite reference_digests.json from this checkout and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record_digests:
        return record_digests()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
