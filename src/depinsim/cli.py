"""Command-line front door: runs, sweeps, vesting tables, and metric scoring.

Exit codes are stable for CI scripting: 0 success, 2 usage/config error,
3 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, get_args

import numpy as np

from . import charts, metrics
from .bounds import check_range, config_field, read_json
from .agents import LlmPolicy
from .engine import (
    CSV_COLUMNS, MAX_HORIZON, POLICIES, SimulationConfig, SimulationError, build_policy, compare, csv_text, decode,
    encode, run, type_hints,
)
from .llm_gateway import AuditLog, GatewayError
from .tokenomics import NODE_SCHEDULE, TEAM_SCHEDULE, VC_SCHEDULE, TokenAllocation, vesting_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


@dataclass(frozen=True)
class FileOptions:
    """Keys a run-config file may carry on top of SimulationConfig."""

    out_dir: str = config_field("out", "directory for emitted artifacts")
    charts: bool = config_field(True, "emit SVG charts next to the CSVs")
    audit_log: Optional[str] = config_field(None, "JSON-lines file recording every LLM exchange")


def _write_text(path: Path, text: str) -> None:
    """Atomic write: a new file in the target directory, then rename.  The file's mode is 0666
    less the umask, as `open(path, "w")` would give a new file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_dir(option: str, value: str, directory: Path) -> None:
    """Raise a ValueError naming `option`, set to `value`, unless `directory` is a directory or can be made one."""
    nearest = next(path for path in (directory, *directory.parents) if path.exists())
    if not nearest.is_dir():
        raise ValueError(f"{option} {value}: {nearest} is not a directory")


# A file the command reads or writes: (option, path, path resolved, its `os.stat` or None if none).
_Named = Tuple[str, str, str, Optional[os.stat_result]]


def _named(option: str, path: str) -> _Named:
    try:
        info = os.stat(path)
    except OSError:  # missing, or a dangling symlink
        info = None
    return option, path, os.path.realpath(path), info


def _check_no_overwrite(output: _Named, others: Iterable[_Named]) -> None:
    """Raise a ValueError naming both paths if `output` names one of `others`, the other files
    the command reads or writes: they resolve alike, or both exist and are one file, as
    `os.path.samefile` tests it (through a symlink or a hard link)."""
    option, path, real, info = output
    for other, other_path, other_real, other_info in others:
        if real == other_real or (info is not None and other_info is not None and os.path.samestat(info, other_info)):
            raise ValueError(f"{option} {path} and {other} {other_path} name the same file")


def _load_config(args, artifacts: Sequence[str]) -> Tuple[SimulationConfig, FileOptions, Optional[LlmPolicy]]:
    """Build the simulation config from file plus CLI overrides, and the one
    LLM policy every LLM run of the command uses (None without an `llm` section).

    `artifacts` are the files the command writes or deletes in its output
    directory; none of them may name the config or the script file, and the
    audit log may name none of the three.
    """
    data = {}
    if args.config is not None:
        data = read_json(args.config)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    flags = {key: getattr(args, key, None) for key in ("seed", "policy", "patience", "out_dir", "audit_log")}
    flags["charts"] = None if args.charts is None else args.charts == "on"
    data.update((key, value) for key, value in flags.items() if value is not None)
    opts = decode(FileOptions(), {f.name: data.pop(f.name) for f in fields(FileOptions) if f.name in data})
    config = SimulationConfig.from_dict(data)
    _check_dir("out_dir", opts.out_dir, Path(opts.out_dir))
    inputs = [_named(option, path) for option, path in (
        ("--config", args.config), ("llm.script_file", config.llm.script_file if config.llm else None))
        if path is not None]
    outputs = [_named(f"the {args.command} artifact", os.path.join(opts.out_dir, name)) for name in artifacts
               if inputs or opts.audit_log]  # with neither, nothing to compare them with
    for output in outputs:
        _check_no_overwrite(output, inputs)
    if opts.audit_log:
        _check_no_overwrite(_named("audit_log", opts.audit_log), inputs + outputs)
    audit_log = AuditLog(opts.audit_log) if opts.audit_log else None  # checks its path under either policy
    llm_policy = None
    if config.llm is not None:  # a missing script_file or endpoint fails here, under either policy, before any month
        llm_policy = build_policy(replace(config, policy="llm"), audit_log)
    return config, opts, llm_policy


_TRAJECTORY_CHARTS = (  # `depin-sim run`'s charts: file, CSV column, title, y label
    ("price.svg", "price", "Token price", "currency/token"),
    ("market_cap.svg", "market_cap", "Market capitalization", "currency"),
    ("diluted_market_cap.svg", "diluted_cap", "Fully diluted market cap", "currency"),
    ("nodes.svg", "nodes", "Active nodes", "count"),
    ("users.svg", "users", "Users", "count"),
)


_RUN_ARTIFACTS = ("trajectory.csv", "metrics.json", *(name for name, *_ in _TRAJECTORY_CHARTS))
_COMPARE_ARTIFACTS = ("compare.csv", "compare.svg")


def _trajectory_charts(columns: dict) -> dict:
    """`depin-sim run`'s charts by file name, one CSV column each; one series draws no legend."""
    return {
        name: charts.line_chart(columns["month"], {column: columns[column]},
                                title=title, x_label="month", y_label=y_label)
        for name, column, title, y_label in _TRAJECTORY_CHARTS
    }


def cmd_run(args) -> int:
    config, opts, llm_policy = _load_config(args, _RUN_ARTIFACTS)
    trajectory = run(config, policy=llm_policy if config.policy == "llm" else None)

    out_dir = Path(opts.out_dir)
    csv_path = out_dir / "trajectory.csv"
    _write_text(csv_path, trajectory.to_csv_string())
    if opts.charts:  # charts are views of the table the CSV holds
        columns = dict(zip(CSV_COLUMNS, zip(*trajectory.rows())))
        for name, svg in _trajectory_charts(columns).items():
            _write_text(out_dir / name, svg)
    else:  # no chart of an earlier run is left beside this run's CSV; no other file is touched
        for name, *_ in _TRAJECTORY_CHARTS:
            (out_dir / name).unlink(missing_ok=True)
    # Last: a metrics.json older than trajectory.csv marks a run that stopped while writing.
    _write_text(out_dir / "metrics.json", json.dumps(trajectory.metrics.to_dict(), indent=2) + "\n")
    m = trajectory.metrics
    print(f"wrote {csv_path} ({len(trajectory.month_rows)} months)")
    print(
        f"efficiency={m.efficiency:.6g} inclusion={m.inclusion if m.inclusion is None else round(m.inclusion, 6)} "
        f"stability={m.stability if m.stability is None else round(m.stability, 6)}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    config, opts, llm_policy = _load_config(args, _COMPARE_ARTIFACTS)
    if llm_policy is None:
        raise ValueError("compare needs an llm config section (scripted or http backend)")
    seeds = range(config.seed, config.seed + args.seeds)

    def mean_std(arr: np.ndarray) -> Tuple[float, float]:
        return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0

    def agg(values: List[Optional[float]]) -> Tuple[float, float]:
        clean = [v for v in values if v is not None]
        if not clean:
            return float("nan"), float("nan")
        arr = np.asarray(clean)
        if not np.isfinite(arr).all():
            return mean_std(arr)
        with np.errstate(over="ignore", invalid="ignore"):
            result = mean_std(arr)
            if not np.isfinite(result).all():
                # Finite values whose sums left the float range: redone on values scaled by a power of two to
                # below 1 in magnitude, and scaled back, so a mean or std within the float range is finite.
                exponent = int(np.frexp(np.abs(arr).max())[1])
                result = tuple(float(np.ldexp(v, exponent)) for v in mean_std(np.ldexp(arr, -exponent)))
        return result

    reports = {}  # per cell, the metrics of each seed it scored: all the command keeps of a run
    for cell, seed, outcome in compare(config, args.patience_list, seeds, llm_policy):
        if isinstance(outcome, SimulationError):
            print(f"cell ({cell.policy}, patience={cell.patience}, seed={seed}) failed: {outcome}", file=sys.stderr)
        else:
            reports.setdefault(cell, []).append(outcome.metrics)
    rows = []
    for cell, cell_metrics in reports.items():
        row = {"policy": cell.policy, "patience": cell.patience, "seeds": len(cell_metrics)}
        for name in metrics.INDICATORS:
            row[f"{name}_mean"], row[f"{name}_std"] = agg([getattr(m, name) for m in cell_metrics])
        rows.append(row)

    if not rows:
        print("all comparison cells failed", file=sys.stderr)
        return EXIT_RUNTIME

    out_dir = Path(opts.out_dir)
    _write_text(out_dir / "compare.csv", csv_text(rows[0].keys(), (row.values() for row in rows)))

    if opts.charts:
        panels = [
            {"title": name.capitalize(), "groups": [cell.label for cell in reports],
             "values": [r[f"{name}_mean"] for r in rows], "errors": [r[f"{name}_std"] for r in rows]}
            for name in metrics.INDICATORS
        ]
        _write_text(out_dir / "compare.svg", charts.grouped_bar_panels(panels))
    else:
        (out_dir / "compare.svg").unlink(missing_ok=True)

    scored = ", ".join(str(row["seeds"]) for row in rows)  # failed seeds are not scored
    print(f"wrote {out_dir / 'compare.csv'} ({len(rows)} cells, seeds scored per cell: {scored})")
    return EXIT_OK


def cmd_vesting(args) -> int:
    _check_dir("--out-dir", args.out_dir, Path(args.out_dir))
    alloc = TokenAllocation(**{f.name: getattr(args, f.name) for f in fields(TokenAllocation)})
    header = ("month", "team_release", "vc_release", "node_release",
              "team_cumulative", "vc_cumulative", "node_cumulative", "circulating_supply")
    # The run's own arrays: the releases and circulating supply a run reads, and each class's running sum.
    *releases, circulating = vesting_table(args.horizon, alloc, TEAM_SCHEDULE, VC_SCHEDULE, NODE_SCHEDULE)
    with np.errstate(over="ignore"):
        cumulative = [np.cumsum(tokens) for tokens in releases]
    table = np.stack((*releases, *cumulative, circulating))
    bad = np.argwhere(~np.isfinite(table.T))  # (month, column) pairs in month order
    if len(bad):  # a supply beyond the float range fails here, before any file is written, as a run fails it
        month, column = bad[0].tolist()
        raise SimulationError(month + 1, "vesting", f"{header[column + 1]} is not finite: {table[column, month]}")
    columns = dict(zip(header, (list(range(1, args.horizon + 1)), *table.tolist())))
    out_dir = Path(args.out_dir)
    _write_text(out_dir / "vesting.csv", csv_text(header, zip(*columns.values())))
    if args.charts != "off":
        svg = charts.line_chart(
            columns["month"],
            {"team": columns["team_cumulative"], "vc": columns["vc_cumulative"], "node": columns["node_cumulative"]},
            title="Cumulative token releases",
            x_label="month",
            y_label="tokens",
        )
        _write_text(out_dir / "vesting.svg", svg)
    else:
        (out_dir / "vesting.svg").unlink(missing_ok=True)
    print(f"wrote {out_dir / 'vesting.csv'} ({args.horizon} months)")
    return EXIT_OK


def cmd_score(args) -> int:
    if args.out:
        out = Path(args.out)
        if out.is_dir():
            raise ValueError(f"--out {args.out} is a directory")
        _check_dir("--out", args.out, out.parent)
        _check_no_overwrite(_named("--out", args.out), [_named("prices", args.prices)])
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
            section = get_args(type_hints(type(obj))[f.name])[0]  # Optional[section]
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
    """A command-line integer that must be at least 1: a seed count or a patience level."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _horizon(text: str) -> int:
    """A command-line month count, checked against the declared range of `horizon_months`."""
    value = int(text)
    try:
        check_range(SimulationConfig, "horizon_months", value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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
    p_run.add_argument("--policy", choices=POLICIES, help="override the config policy")
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
    p_vest.add_argument("--horizon", type=_horizon, default=96,
                        help=f"months to tabulate, 1 to {MAX_HORIZON} (default: 96)")
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
