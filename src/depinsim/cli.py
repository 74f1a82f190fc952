"""Command-line front door: runs, sweeps, vesting tables, and metric scoring.

Exit codes are stable for CI scripting: 0 success, 2 usage/config error,
3 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, get_args, get_type_hints

import numpy as np

from . import charts, metrics
from .bounds import config_field
from .engine import CSV_COLUMNS, SimulationConfig, SimulationError, csv_text, decode, encode, run
from .llm_gateway import AuditLog, GatewayError, build_backend
from .tokenomics import (
    NODE_SCHEDULE, TEAM_SCHEDULE, VC_SCHEDULE, TokenAllocation, circulating_supply, cumulative_release, release,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


@dataclass
class FileOptions:
    """Keys a run-config file may carry on top of SimulationConfig."""

    out_dir: str = config_field("out", "directory for emitted artifacts")
    charts: bool = config_field(True, "emit SVG charts next to the CSVs")
    audit_log: Optional[str] = config_field(None, "JSON-lines file recording every LLM exchange")


def _write_text(path: Path, text: str) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(args) -> Tuple[SimulationConfig, FileOptions]:
    """Build the simulation config from file plus CLI overrides."""
    data = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    flags = {key: getattr(args, key, None) for key in ("seed", "policy", "patience", "out_dir", "audit_log")}
    flags["charts"] = None if args.charts is None else args.charts == "on"
    data.update((key, value) for key, value in flags.items() if value is not None)
    opts = decode(FileOptions(), {f.name: data.pop(f.name) for f in fields(FileOptions) if f.name in data})
    config = SimulationConfig.from_dict(data)
    out_dir = Path(opts.out_dir)
    nearest = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not nearest.is_dir():
        raise ValueError(f"out_dir {opts.out_dir}: {nearest} is not a directory")
    if opts.audit_log:
        audit_log = Path(opts.audit_log)
        if not audit_log.parent.is_dir():
            raise ValueError(f"audit_log {opts.audit_log}: directory {audit_log.parent} does not exist")
        if audit_log.is_dir():
            raise ValueError(f"audit_log {opts.audit_log} is a directory")
    return config, opts


def _trajectory_charts(columns: dict) -> dict:
    months = columns["month"]
    return {
        "price.svg": charts.line_chart(months, {"price": columns["price"]},
                                       title="Token price", x_label="month", y_label="currency/token"),
        "market_cap.svg": charts.line_chart(months, {"market cap": columns["market_cap"]},
                                            title="Market capitalization", x_label="month", y_label="currency"),
        "diluted_market_cap.svg": charts.line_chart(months, {"diluted cap": columns["diluted_cap"]},
                                                    title="Fully diluted market cap", x_label="month", y_label="currency"),
        "nodes.svg": charts.line_chart(months, {"nodes": columns["nodes"]},
                                       title="Active nodes", x_label="month", y_label="count"),
        "users.svg": charts.line_chart(months, {"users": columns["users"]},
                                       title="Users", x_label="month", y_label="count"),
    }


def cmd_run(args) -> int:
    config, opts = _load_config(args)
    audit = AuditLog(opts.audit_log) if opts.audit_log else None
    trajectory = run(config, audit_log=audit)

    out_dir = Path(opts.out_dir)
    csv_path = out_dir / "trajectory.csv"
    _write_text(csv_path, trajectory.to_csv_string())
    _write_text(out_dir / "metrics.json", json.dumps(trajectory.metrics.to_dict(), indent=2) + "\n")
    if opts.charts:  # charts are views of the table the CSV holds
        columns = dict(zip(CSV_COLUMNS, zip(*trajectory.rows())))
        for name, svg in _trajectory_charts(columns).items():
            _write_text(out_dir / name, svg)
    m = trajectory.metrics
    print(f"wrote {csv_path} ({len(trajectory.states)} months)")
    print(
        f"efficiency={m.efficiency:.6g} inclusion={m.inclusion if m.inclusion is None else round(m.inclusion, 6)} "
        f"stability={m.stability if m.stability is None else round(m.stability, 6)}"
    )
    return EXIT_OK


def _cell_label(policy: str, patience: int) -> str:
    return "heuristic" if policy == "heuristic" else f"llm p={patience}"


def cmd_compare(args) -> int:
    config, opts = _load_config(args)
    patience_values = args.patience_list
    if config.llm is None:
        raise ValueError("compare needs an llm config section (scripted or http backend)")
    build_backend(config.llm)  # a missing script_file or endpoint fails here, before the heuristic cell runs
    seeds = [config.seed + i for i in range(args.seeds)]
    audit = AuditLog(opts.audit_log) if opts.audit_log else None  # one log, appended cell by cell, seed by seed

    def agg(values: List[Optional[float]]) -> Tuple[float, float]:
        clean = [v for v in values if v is not None]
        if not clean:
            return float("nan"), float("nan")
        arr = np.asarray(clean)
        return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0

    cells = [("heuristic", config.patience)] + [("llm", p) for p in patience_values]
    rows = []
    failures = []
    for policy, patience in cells:
        cell_metrics = []
        for seed in seeds:
            cell_config = replace(config, policy=policy, patience=patience, seed=seed)
            try:
                cell_metrics.append(run(cell_config, audit_log=audit).metrics)
            except (SimulationError, GatewayError) as err:
                failures.append((policy, patience, seed, str(err)))
        if not cell_metrics:
            continue
        row = {"policy": policy, "patience": patience, "seeds": len(cell_metrics)}
        for name in metrics.INDICATORS:
            row[f"{name}_mean"], row[f"{name}_std"] = agg([getattr(m, name) for m in cell_metrics])
        rows.append(row)

    for policy, patience, seed, message in failures:
        print(f"cell ({policy}, patience={patience}, seed={seed}) failed: {message}", file=sys.stderr)
    if not rows:
        print("all comparison cells failed", file=sys.stderr)
        return EXIT_RUNTIME

    out_dir = Path(opts.out_dir)
    _write_text(out_dir / "compare.csv", csv_text(rows[0].keys(), (row.values() for row in rows)))

    if opts.charts:
        labels = [_cell_label(r["policy"], r["patience"]) for r in rows]
        panels = [
            {"title": name.capitalize(), "groups": labels,
             "values": [r[f"{name}_mean"] for r in rows], "errors": [r[f"{name}_std"] for r in rows]}
            for name in metrics.INDICATORS
        ]
        _write_text(out_dir / "compare.svg", charts.grouped_bar_panels(panels))

    print(f"wrote {out_dir / 'compare.csv'} ({len(rows)} cells, {args.seeds} seeds each)")
    return EXIT_OK


def cmd_vesting(args) -> int:
    alloc = TokenAllocation(**{f.name: getattr(args, f.name) for f in fields(TokenAllocation)})
    header = ("month", "team_release", "vc_release", "node_release",
              "team_cumulative", "vc_cumulative", "node_cumulative", "circulating_supply")
    classes = ((alloc.team_tokens, TEAM_SCHEDULE), (alloc.vc_tokens, VC_SCHEDULE), (alloc.node_tokens, NODE_SCHEDULE))
    rows = [
        (month, *(release(month, tokens, schedule) for tokens, schedule in classes),
         *(cumulative_release(month, tokens, schedule) for tokens, schedule in classes),
         circulating_supply(month, alloc))
        for month in range(1, args.horizon + 1)
    ]
    out_dir = Path(args.out_dir)
    _write_text(out_dir / "vesting.csv", csv_text(header, rows))
    if args.charts != "off":
        columns = dict(zip(header, zip(*rows)))
        svg = charts.line_chart(
            columns["month"],
            {"team": columns["team_cumulative"], "vc": columns["vc_cumulative"], "node": columns["node_cumulative"]},
            title="Cumulative token releases",
            x_label="month",
            y_label="tokens",
        )
        _write_text(out_dir / "vesting.svg", svg)
    print(f"wrote {out_dir / 'vesting.csv'} ({args.horizon} months)")
    return EXIT_OK


def cmd_score(args) -> int:
    prices = metrics.read_price_series(args.prices)
    report = metrics.score_series(prices, circulating=args.circulating, price=args.price)
    text = json.dumps(report.to_dict(), indent=2)
    if args.out:
        _write_text(Path(args.out), text + "\n")
    print(text)
    return EXIT_OK


def _reference_rows(obj, prefix: str = "") -> List[tuple]:
    """(key, default, range, doc) for each field of config dataclass `obj`; a
    field without a `doc` is an optional section, listed key by key."""
    rows = []
    for f in fields(obj):
        if "doc" in f.metadata:
            rows.append((prefix + f.name, encode(getattr(obj, f.name)), f.metadata.get("range"), f.metadata["doc"]))
        else:
            section = get_args(get_type_hints(type(obj))[f.name])[0]  # Optional[section]
            rows += _reference_rows(section(), f"{prefix}{f.name}.")
    return rows


def cmd_config_reference(_args) -> int:
    """Print every config key with its default and declared range, read from the config dataclasses.

    A `|` inside a cell is written `\\|`, so a description listing choices keeps the row at four cells.
    """
    print("| key | default | range | description |")
    print("| --- | --- | --- | --- |")
    for key, default, bounds, description in _reference_rows(SimulationConfig()) + _reference_rows(FileOptions()):
        cells = (f"`{key}`", f"`{json.dumps(default)}`", f"`{bounds}`" if bounds else "", description)
        print("| " + " | ".join(cell.replace("|", r"\|") for cell in cells) + " |")
    return EXIT_OK


def _count(text: str) -> int:
    """A command-line integer that must be at least 1: a seed count, a patience level or a horizon."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _patience_list(text: str) -> List[int]:
    try:
        values = [_count(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"patience list must be comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("patience list must not be empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depin-sim",
        description="Simulate a DePIN token economy and score it on efficiency, inclusion, and stability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run-config file (defaults apply when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out-dir", help="output directory (default: out)")
        p.add_argument("--charts", choices=("on", "off"), help="toggle SVG chart emission")

    p_run = sub.add_parser("run", help="run one simulation and write trajectory.csv + metrics.json")
    add_common(p_run)
    p_run.add_argument("--policy", choices=("heuristic", "llm"), help="override the config policy")
    p_run.add_argument("--patience", type=int, help="override the config patience")
    p_run.add_argument("--audit-log", help="append every LLM exchange to this JSON-lines file")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="heuristic benchmark vs LLM policy across patience levels")
    add_common(p_cmp)
    p_cmp.add_argument("--patience", dest="patience_list", type=_patience_list, required=True,
                       help="comma-separated patience levels for the LLM cells, e.g. 1,3,5")
    p_cmp.add_argument("--seeds", type=_count, default=5, help="seeds per cell (default: 5)")
    p_cmp.set_defaults(func=cmd_compare)

    p_vest = sub.add_parser("vesting", help="emit the per-month release schedule table")
    p_vest.add_argument("--horizon", type=_count, default=96, help="months to tabulate (default: 96)")
    for f in fields(TokenAllocation):  # --total-supply, --team-fraction, --vc-fraction, --node-fraction
        p_vest.add_argument("--" + f.name.replace("_", "-"), type=float, default=f.default)
    p_vest.add_argument("--out-dir", default="out")
    p_vest.add_argument("--charts", choices=("on", "off"), default="on")
    p_vest.set_defaults(func=cmd_vesting)

    p_score = sub.add_parser("score", help="score an external price series (one price per line)")
    p_score.add_argument("prices", help="CSV/TXT file, one price per line, optional header")
    p_score.add_argument("--circulating", type=float, required=True, help="circulating token count")
    p_score.add_argument("--price", type=float, required=True, help="current token price")
    p_score.add_argument("--out", help="also write the metric report JSON here")
    p_score.set_defaults(func=cmd_score)

    p_ref = sub.add_parser("config-reference", help="print the generated config key reference")
    p_ref.set_defaults(func=cmd_config_reference)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # json.JSONDecodeError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, GatewayError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
