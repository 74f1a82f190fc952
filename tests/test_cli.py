"""CLI tests: exit codes, artifacts, round trips, chart regeneration."""

import builtins
import csv
import hashlib
import json
import math
import os
import re
import reprlib
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest

import depinsim
from depinsim import cli
from depinsim.charts import grouped_bar_panels, line_chart
from depinsim.cli import _trajectory_charts, main
from depinsim.engine import CSV_COLUMNS, Simulation, SimulationConfig, build_policy, encode, run
from depinsim.llm_gateway import ENDPOINT_ENV, AuditLog, LlmSettings, ScriptedBackend
from depinsim.metrics import stability
from depinsim.tokenomics import NODE_SCHEDULE, TEAM_SCHEDULE, VC_SCHEDULE, TokenAllocation, cumulative_release


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return str(path)


class TestRun:
    def test_default_run_emits_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--seed", "42", "--out-dir", str(out)])
        assert code == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 97  # header + 96 months
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"efficiency", "inclusion", "stability", "n_init", "n_total", "n_ext", "window"}
        for name in ("price.svg", "market_cap.svg", "diluted_market_cap.svg", "nodes.svg", "users.svg"):
            assert (out / name).exists()

    def test_config_file_respected(self, tmp_path):
        config = write_config(tmp_path, horizon_months=12, seed=7)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out-dir", str(out), "--charts", "off"]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 13
        assert not (out / "price.svg").exists()

    def test_scripted_llm_run(self, tmp_path):
        config = write_config(
            tmp_path,
            horizon_months=6,
            policy="llm",
            llm={"backend": "scripted", "script": {"*enter*": "yes", "*exit*": "no"}},
        )
        out = tmp_path / "out"
        audit = tmp_path / "audit.jsonl"
        code = main(["run", "--config", config, "--out-dir", str(out), "--charts", "off",
                     "--audit-log", str(audit)])
        assert code == 0
        entries = [json.loads(line) for line in audit.read_text().splitlines()]
        assert entries and all(e["backend"] == "scripted" for e in entries)

    def test_seed_override_changes_output(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--seed", "1", "--out-dir", str(out_a), "--charts", "off"])
        main(["run", "--seed", "2", "--out-dir", str(out_b), "--charts", "off"])
        assert (out_a / "trajectory.csv").read_text() != (out_b / "trajectory.csv").read_text()

    def test_run_charts_keep_their_bytes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--seed", "1", "--out-dir", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("price.svg", "market_cap.svg", "diluted_market_cap.svg", "nodes.svg", "users.svg")}
        assert digests == {
            "price.svg": "ac092613ce97694ef329fc16ffcfc3f282ce8f191d410ab569bdc4750b76d568",
            "market_cap.svg": "8919cec117827b43f6de3d2b5ef747852ab10bd8b80a5c7617d911f9385540dd",
            "diluted_market_cap.svg": "bc454a60954d21df30f48b91623a30c95ab2b807d39820304f101cd15204ab06",
            "nodes.svg": "6193010316d06dd21be5972aa43f62a48610593b937fa0d388940cf86786be3a",
            "users.svg": "b3741f3ac8e02f922761634f72a1325382afb7dbe0bb2c0e07821358ec16787b",
        }

    def test_one_series_chart_draws_no_legend(self):
        # So `run`'s charts may name their one series after its CSV column.
        months, values = [1, 2, 3], [1.0, 4.0, 2.0]
        assert line_chart(months, {"price": values}) == line_chart(months, {"token price": values})
        both = line_chart(months, {"price": values, "token price": values[::-1]})
        assert ">price</text>" in both and ">token price</text>" in both

    def test_metrics_json_is_written_last(self, tmp_path, monkeypatch):
        written = []
        write_text = cli._write_text

        def recorded(path, text):
            written.append(path.name)
            write_text(path, text)

        monkeypatch.setattr(cli, "_write_text", recorded)
        assert main(["run", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
        assert written == ["trajectory.csv", *RUN_CHARTS, "metrics.json"]

    def test_repeat_run_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--seed", "5", "--out-dir", str(out_a)])
        main(["run", "--seed", "5", "--out-dir", str(out_b)])
        for name in ("trajectory.csv", "metrics.json", "price.svg", "nodes.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestRoundTrips:
    def test_rescoring_price_column_reproduces_stability(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--seed", "42", "--out-dir", str(out), "--charts", "off"])
        with open(out / "trajectory.csv", newline="") as fh:
            prices = [float(row["price"]) for row in csv.DictReader(fh)]
        reported = json.loads((out / "metrics.json").read_text())["stability"]
        assert stability(prices) == pytest.approx(reported, abs=1e-9)

    def test_charts_regenerate_from_csv_alone(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--seed", "3", "--out-dir", str(out)])
        with open(out / "trajectory.csv", newline="") as fh:
            table = list(csv.reader(fh))
        # Integer columns hold digits only; repr writes every float with '.', 'e', 'inf' or 'nan'.
        columns = {name: [int(v) if v.isdigit() else float(v) for v in values] for name, *values in zip(*table)}
        assert set(columns) == set(CSV_COLUMNS)
        for name, svg in _trajectory_charts(columns).items():
            assert (out / name).read_text() == svg


class TestCompare:
    def test_cells_and_shape(self, tmp_path):
        config = write_config(
            tmp_path,
            horizon_months=12,
            llm={"backend": "scripted", "script": {"*enter*": "yes", "*exit*": "no"}},
        )
        out = tmp_path / "out"
        code = main(["compare", "--config", config, "--patience", "1,3,5",
                     "--seeds", "2", "--out-dir", str(out)])
        assert code == 0
        assert (out / "compare.csv").read_text().splitlines()[0] == (
            "policy,patience,seeds,efficiency_mean,efficiency_std,"
            "inclusion_mean,inclusion_std,stability_mean,stability_std")
        rows = list(csv.DictReader(open(out / "compare.csv")))
        assert len(rows) == 4  # heuristic + three llm cells
        assert rows[0]["policy"] == "heuristic"
        assert [r["patience"] for r in rows[1:]] == ["1", "3", "5"]
        assert (out / "compare.svg").exists()

    def test_single_cell_matches_cmd_run(self, tmp_path):
        config = write_config(
            tmp_path,
            horizon_months=12,
            seed=31,
            llm={"backend": "scripted", "script": {"*": "no"}},
        )
        out_cmp = tmp_path / "cmp"
        out_run = tmp_path / "run"
        main(["compare", "--config", config, "--patience", "2", "--seeds", "1",
              "--out-dir", str(out_cmp), "--charts", "off"])
        main(["run", "--config", config, "--out-dir", str(out_run), "--charts", "off"])
        rows = {r["policy"]: r for r in csv.DictReader(open(out_cmp / "compare.csv"))}
        metrics = json.loads((out_run / "metrics.json").read_text())
        assert float(rows["heuristic"]["efficiency_mean"]) == pytest.approx(metrics["efficiency"])
        assert float(rows["heuristic"]["stability_mean"]) == pytest.approx(metrics["stability"])

    def test_audit_log_key_logs_every_llm_cell_in_order(self, tmp_path):
        llm = {"backend": "scripted", "script": {"*enter*": "yes", "*exit*": "no"}}
        log = tmp_path / "compare.jsonl"
        config = write_config(tmp_path, horizon_months=3, seed=5, llm=llm, audit_log=str(log))
        assert main(["compare", "--config", config, "--patience", "1,3", "--seeds", "2",
                     "--out-dir", str(tmp_path / "out"), "--charts", "off"]) == 0
        # The same exchanges from separate runs: llm cells in patience order, seeds in order; the
        # heuristic cell writes nothing.  Latencies are measured, so they are left out.
        expected = tmp_path / "expected.jsonl"
        for patience in (1, 3):
            for seed in (5, 6):
                cell = SimulationConfig(horizon_months=3, seed=seed, patience=patience, policy="llm",
                                        llm=LlmSettings(script=llm["script"]))
                run(cell, policy=build_policy(cell, AuditLog(expected)))

        def exchanges(path):
            return [{k: v for k, v in json.loads(line).items() if k != "latency_s"}
                    for line in path.read_text(encoding="utf-8").splitlines()]

        assert exchanges(log) == exchanges(expected) != []

    def test_script_file_is_read_once_per_command(self, tmp_path, monkeypatch):
        # Every cell and seed uses the backend built at load, so the file checked there is the file used.
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"*enter*": "yes", "*exit*": "no"}))
        config = write_config(tmp_path, horizon_months=2, llm={"backend": "scripted", "script_file": str(script)})
        opened, built = [], []
        real_open, real_init = builtins.open, ScriptedBackend.__init__

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(ScriptedBackend, "__init__", counting_init)
        assert main(["compare", "--config", config, "--patience", "1,3,5", "--seeds", "5",
                     "--out-dir", str(tmp_path / "out"), "--charts", "off"]) == 0
        assert len(built) == 1
        assert opened.count(str(script)) == 1

    def test_summary_counts_the_seeds_each_cell_scored(self, tmp_path, capsys):
        # Four of the five seeds price the token at infinity in every cell, so each cell scores one seed.
        config = write_config(tmp_path, horizon_months=3, tokens_on_sale_fraction=1e-300, gc_arrival_rate=0.3,
                              gc_endowment_mu=100, llm=SCRIPTED)
        out = tmp_path / "out"
        assert main(["compare", "--config", config, "--patience", "1,3", "--seeds", "5",
                     "--out-dir", str(out), "--charts", "off"]) == 0
        assert [row["seeds"] for row in csv.DictReader(open(out / "compare.csv"))] == ["1", "1", "1"]
        assert capsys.readouterr().out.endswith("(3 cells, seeds scored per cell: 1, 1, 1)\n")

    def test_undefined_indicator_is_drawn_as_n_a(self, tmp_path):
        # No node ever runs, so no seed defines inclusion: compare.csv holds nan, the chart no nan.
        config = write_config(tmp_path, horizon_months=3, initial_nodes=0, entry_pool_size=0,
                              llm={"backend": "scripted", "script": {"*": "no"}})
        out = tmp_path / "out"
        assert main(["compare", "--config", config, "--patience", "1", "--seeds", "2", "--out-dir", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "compare.csv")))
        assert [math.isnan(float(r["inclusion_mean"])) for r in rows] == [True, True]
        svg = (out / "compare.svg").read_text()
        assert "nan" not in svg
        assert svg.count(">n/a</text>") == 2

    def test_bar_range_ignores_non_finite_values(self):
        def ticks(values, errors):
            svg = grouped_bar_panels([{"title": "t", "groups": [str(i) for i in range(len(values))],
                                       "values": values, "errors": errors}])
            return re.findall(r'text-anchor="end">([^<]*)<', svg), svg.count("<rect"), svg.count("n/a")

        assert ticks([2.0, math.nan], [0.5, math.nan]) == (ticks([2.0], [0.5])[0], 2, 1)  # frame + one bar
        assert ticks([math.nan, math.nan], [math.nan, math.nan]) == (["0", "0.25", "0.5", "0.75", "1"], 1, 2)


class TestVesting:
    def test_full_horizon_table(self, tmp_path):
        out = tmp_path / "out"
        assert main(["vesting", "--horizon", "96", "--out-dir", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "vesting.csv")))
        assert len(rows) == 96
        team_total = sum(float(r["team_release"]) for r in rows)
        assert team_total == pytest.approx(2e8, rel=1e-3)
        month48 = float(rows[47]["node_release"])
        month49 = float(rows[48]["node_release"])
        assert month49 == month48 / 2
        assert (out / "vesting.svg").exists()

    def test_cumulative_columns_are_the_closed_form(self, tmp_path):
        out = tmp_path / "out"
        assert main(["vesting", "--out-dir", str(out), "--charts", "off"]) == 0
        alloc = TokenAllocation()
        classes = (("team", alloc.team_tokens, TEAM_SCHEDULE), ("vc", alloc.vc_tokens, VC_SCHEDULE),
                   ("node", alloc.node_tokens, NODE_SCHEDULE))
        for row in csv.DictReader(open(out / "vesting.csv")):
            cumulative = [float(row[f"{name}_cumulative"]) for name, _, _ in classes]
            month = int(row["month"])
            assert cumulative == [cumulative_release(month, tokens, schedule) for _, tokens, schedule in classes]
            assert cumulative[0] + cumulative[1] + cumulative[2] == float(row["circulating_supply"]), month

    def test_single_month(self, tmp_path):
        out = tmp_path / "out"
        assert main(["vesting", "--horizon", "1", "--out-dir", str(out), "--charts", "off"]) == 0
        rows = list(csv.DictReader(open(out / "vesting.csv")))
        assert len(rows) == 1


class TestScore:
    def test_constant_series(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("3.0\n3.0\n3.0\n3.0\n")
        assert main(["score", str(path), "--circulating", "1000", "--price", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stability"] == 0.0
        assert payload["efficiency"] == 2000.0
        assert payload["inclusion"] is None

    def test_top_token_row(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("12.0\n12.3\n12.13\n")
        implied_supply = 5_631_971_226.0 / 12.13
        assert main(["score", str(path), "--circulating", str(implied_supply), "--price", "12.13"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["efficiency"] == pytest.approx(5.631971226e9, rel=1e-4)

    def test_out_file_written(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("1.0\n2.0\n4.0\n")
        out = tmp_path / "report.json"
        assert main(["score", str(path), "--circulating", "10", "--price", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["efficiency"] == 30.0


class TestConfigReference:
    def test_lists_every_simulation_key(self, capsys):
        assert main(["config-reference"]) == 0
        text = capsys.readouterr().out
        from dataclasses import fields
        for f in fields(SimulationConfig):
            assert f"`{f.name}`" in text or f"`{f.name}." in text, f.name
        for key in ("out_dir", "charts", "audit_log", "llm.endpoint"):
            assert f"`{key}`" in text

    def test_defaults_match_the_dataclasses(self, capsys):
        assert main(["config-reference"]) == 0
        rows = re.findall(r"^\| `([^`]+)` \| `(.*?)` \|", capsys.readouterr().out, re.MULTILINE)
        expected = SimulationConfig().to_dict()
        del expected["llm"]
        expected.update({f"llm.{key}": value for key, value in encode(LlmSettings()).items()})
        expected.update(out_dir="out", charts=True, audit_log=None)
        assert [key for key, _ in rows] == list(expected)
        assert {key: json.loads(default) for key, default in rows} == expected

    def test_range_column_reads_the_declarations(self, capsys):
        assert main(["config-reference"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "| key | default | range | description |"
        ranges = dict(re.findall(r"^\| `([^`]+)` \| `.*?` \| `?([^`|]*)`? \|", "\n".join(lines), re.MULTILINE))
        assert ranges["gc_arrival_rate"] == "[0, 1000]"
        assert ranges["llm.timeout"] == "(0, 86400]"
        assert ranges["policy"] == ranges["out_dir"] == ""

    def test_every_row_has_four_cells(self, capsys):
        assert main(["config-reference"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cells = [re.split(r"(?<!\\)\|", line)[1:-1] for line in lines]  # split on unescaped pipes
        assert len(lines) > 2 and all(len(row) == 4 for row in cells)
        descriptions = {row[0].strip(): row[3].strip() for row in cells[2:]}
        assert descriptions["`policy`"].endswith(r"heuristic \| llm")
        assert descriptions["`llm.backend`"].endswith(r"scripted \| http")


# Exit codes: every console case that must end in a given exit code, in one table.

SCRIPTED = {"backend": "scripted", "script": {"*": "no"}}
RUN_CHARTS = ("price.svg", "market_cap.svg", "diluted_market_cap.svg", "nodes.svg", "users.svg")
# Every command's charts, as an earlier run left them, beside a file no command writes.
STALE = {**{name: "stale" for name in (*RUN_CHARTS, "compare.svg", "vesting.svg")}, "notes.txt": "kept"}
OVERFLOW = {"horizon_months": 2, "initial_price": 1e305, "llm": SCRIPTED}  # revenue beyond the float range

REJECTED_VALUES = [  # (key, value): `run` exits 2 naming the key
    ("horizon_months", "3"),
    ("horizon_months", 100001),
    ("cost_spread", 1.0),
    ("llm", "scripted"),
    ("team_schedule", [1, 2]),
    ("team_schedule", None),
    ("out_dir", 5),
    ("parallel_decisions", True),  # removed key: decisions always run in order
    ("initial_price", float("nan")),  # json.load reads NaN and Infinity
    ("node_cost", float("inf")),
    ("total_supply", float("inf")),
    ("cost_spread", [1.0, float("inf")]),
    ("node_cost", 10**400),  # beyond the float range
    ("gc_endowment_sigma", -1.0),
    ("gc_lifespan_sigma", -1.0),
    # Out of the declared ranges: each would fail or stall at run time.
    ("initial_nodes", 10**30),
    ("entry_pool_size", 10**30),  # beyond the roster cap
    ("gc_arrival_rate", 1e300),
    ("gc_arrival_rate", 1e7),
    ("gc_lifespan_mu", 1e300),
    ("gc_lifespan_sigma", 800.0),
    ("gc_endowment_mu", -1e300),
    ("gc_endowment_mu", 1e300),
    # Keys of a section, under the LLM policy.
    ("llm.max_tokens", 0),
    ("llm.temperature", -1),
    ("llm.retries", -1),
    ("llm.timeout", -1),
    ("llm.timeout", 1e10),  # beyond a socket timeout's range: every request would raise OverflowError
    ("llm.script", {"*": 1}),
    ("team_schedule.kind", "weekly"),
    ("vc_schedule.linear_months", 0),
    ("node_schedule.cliff_months", 5),  # the default node schedule is a halving emission
    ("llm.retries", 11),
    ("llm.backend", "magic"),
    ("llm.default_reply", "no"),  # removed key: a last "*" pattern answers unmatched prompts
]


def _config_setting(key, value):
    """The config data that sets one key, a dotted key in its section under the LLM policy."""
    if "." not in key:
        return {key: value}
    section, name = key.split(".")
    return {"policy": "llm", section: {name: value}}


@dataclass(frozen=True)
class Case:
    """One console invocation and how it must end.

    `files` are written to the working directory, each after its parent directory,
    and `config`, when set, to config.json, which is passed as `--config`.  Each of
    `err` must appear in stderr and none of `not_err`; `wrote` maps an output file
    to text it must contain.  Of `files`, the command deletes those in `gone` and
    leaves every other one as it was.
    """

    id: str
    argv: str  # split as a shell would
    code: int
    err: Tuple[str, ...] = ()
    config: Optional[dict] = None
    files: Dict[str, str] = field(default_factory=dict)
    not_err: Tuple[str, ...] = ()
    wrote: Dict[str, str] = field(default_factory=dict)
    gone: Tuple[str, ...] = ()


CASES = [
    # run: a config that cannot be honoured exits 2, naming what is wrong.
    Case("run malformed json", "run --config bad.json", 2, ("error",), files={"bad.json": "{not json"}),
    Case("run unknown key", "run", 2, ("horizon_month",), config={"horizon_month": 12}),
    *(Case(f"run {key}={reprlib.repr(value)}", "run", 2, (key,), config=_config_setting(key, value))
      for key, value in REJECTED_VALUES),
    Case("run unknown llm backend under heuristic", "run", 2, ("llm.backend",),
         config={"policy": "heuristic", "llm": {"backend": "magic"}}),
    Case("run schedule key its kind does not use", "run", 2, ("team_schedule.cliff_months",),
         config={"team_schedule": {"kind": "halving_emission", "cliff_months": 5}}),
    *(Case(f"run script_file {content}", "run --out-dir out", 2, ("llm.script_file",),
           config={"policy": "llm", "llm": {"backend": "scripted", "script_file": "script.json"}},
           files={"script.json": content}, not_err=("month",))
      for content in ('{"*": 5}', '["a"]', '{"*": null}')),
    Case("run missing script_file under heuristic", "run --policy heuristic --out-dir out", 2,
         ("No such file", "missing.json"),
         config={"horizon_months": 2, "llm": {"backend": "scripted", "script_file": "missing.json"}}),
    Case("run script_file not a map under heuristic", "run --policy heuristic --out-dir out", 2, ("llm.script_file",),
         config={"horizon_months": 2, "llm": {"backend": "scripted", "script_file": "script.json"}},
         files={"script.json": '{"*": 5}'}),
    Case("run script with script_file", "run --policy llm --out-dir out", 2, ("llm.script", "script_file"),
         config={"horizon_months": 2, "llm": {**SCRIPTED, "script_file": "script.json"}},
         files={"script.json": '{"*": 5}'}),
    Case("run llm policy without llm section", "run --policy llm --out-dir o", 2, ("requires an llm config section",)),
    Case("run one node over the roster cap", "run --out-dir over-cap", 2,
         ("initial_nodes + horizon_months * entry_pool_size must be <= 1000000",),
         config={"horizon_months": 2, "entry_pool_size": 499976}),
    Case("run one month over the horizon cap", "run --out-dir over-cap", 2,
         ("horizon_months must lie in [1, 100000], got 100001",),
         config={"horizon_months": 100001, "entry_pool_size": 0}),
    *(Case(f"run --audit-log {path} under {policy}", f"run --policy {policy} --out-dir out --audit-log {path}", 2,
           ("audit_log",), config={"horizon_months": 2, "llm": SCRIPTED})
      for policy in ("heuristic", "llm") for path in ("missing/audit.jsonl", ".")),
    *(Case(f"{command} --out-dir {path}", f"{command} --out-dir {path} {extra}", 2, ("out_dir",),
           config={"horizon_months": 2, "llm": SCRIPTED}, files={"afile": "kept"})
      for command, extra in (("run", ""), ("compare", "--patience 1 --seeds 1")) for path in ("afile", "afile/sub")),
    *(Case(f"vesting --out-dir {path}", f"vesting --out-dir {path}", 2,
           (f"--out-dir {path}: afile is not a directory",), files={"afile": "kept"})
      for path in ("afile", "afile/sub")),
    *(Case(f"score --out {path}", f"score prices.csv --circulating 1 --price 1 --out {path}", 2,
           (f"--out {path}", error), files={"prices.csv": "1.0\n2.0\n", "afile": "kept", "adir/kept": "kept"})
      for path, error in (("adir", "is a directory"), ("afile/report.json", "afile is not a directory"))),
    # run: the roster cap itself fits, 50 + 2 * 499,975 = 1,000,000 nodes in month 2.
    Case("run at the roster cap", "run --charts off --out-dir at-cap", 0,
         config={"horizon_months": 2, "entry_pool_size": 499975}, wrote={"at-cap/trajectory.csv": "\n2,1000000,"}),
    # --charts off: a rerun deletes the command's own charts from an earlier run, and no other file.
    Case("run --charts off deletes its charts", "run --charts off --out-dir .", 0,
         config={"horizon_months": 2}, files=STALE, gone=RUN_CHARTS),
    Case("compare --charts off deletes its chart", "compare --patience 1 --seeds 1 --charts off --out-dir .", 0,
         config={"horizon_months": 2, "llm": SCRIPTED}, files=STALE, gone=("compare.svg",)),
    Case("vesting --charts off deletes its chart", "vesting --horizon 2 --charts off --out-dir .", 0,
         files=STALE, gone=("vesting.svg",)),
    # run: a month that cannot be computed exits 3, naming the month and sub-step.
    Case("run infinite price", "run --out-dir out", 3, ("month 1", "'record'", "token_price is not finite"),
         config={"horizon_months": 2, "tokens_on_sale_fraction": 2.2250738585e-313}),
    *(Case(f"run revenue overflow under {policy}", f"run --policy {policy} --out-dir out", 3,
           ("month 1", "'revenue'", "global_revenue is not finite"), config=OVERFLOW)
      for policy in ("heuristic", "llm")),
    *(Case(f"{command} malformed llm endpoint", f"{command} --out-dir o", 2, ("endpoint", "'localhost:8000'"),
           config={"horizon_months": 2, "policy": "llm",
                   "llm": {"backend": "http", "endpoint": "localhost:8000", "timeout": 0.2, "retries": 0}})
      for command in ("run", "compare --patience 1 --seeds 1")),
    Case("run unreachable llm endpoint", "run --out-dir o", 3, ("month 1", "node-decisions"),
         config={"horizon_months": 3, "policy": "llm",
                 "llm": {"backend": "http", "endpoint": "http://127.0.0.1:1", "timeout": 0.2, "retries": 0}}),
    # compare: the llm section and the flags are checked before the heuristic cell runs.
    Case("compare without llm section", "compare --patience 1 --out-dir o", 2, ("compare needs an llm config section",)),
    Case("compare missing script_file", "compare --patience 1 --out-dir out", 2, ("No such file", "missing.json"),
         config={"llm": {"backend": "scripted", "script_file": "missing.json"}}),
    Case("compare script_file not a map", "compare --patience 1 --out-dir out", 2, ("llm.script_file",),
         config={"llm": {"backend": "scripted", "script_file": "script.json"}}, files={"script.json": '{"*": 5}'}),
    Case("compare http backend without endpoint", "compare --patience 1 --out-dir out", 2, ("needs an endpoint",),
         config={"llm": {"backend": "http"}}),
    *(Case(f"compare audit_log {path}", "compare --patience 1 --seeds 1 --out-dir out", 2, ("audit_log",),
           config={"horizon_months": 2, "audit_log": path, "llm": SCRIPTED})
      for path in ("missing/audit.jsonl", ".")),
    Case("compare empty --patience", "compare --patience '' --out-dir .", 2, ("patience list must not be empty",),
         config={"llm": SCRIPTED}),
    *(Case(f"compare --seeds {seeds}", f"compare --patience 1 --seeds {seeds} --out-dir .", 2, ("--seeds",),
           config={"llm": SCRIPTED})
      for seeds in ("0", "-2")),
    # vesting and score check their flags and inputs.
    *(Case(f"vesting --horizon {horizon}", f"vesting --horizon {horizon} --out-dir o", 2, ("--horizon",))
      for horizon in ("0", "-3", "100001")),
    *(Case(f"vesting {flag} {value}", f"vesting {flag} {value} --out-dir o", 2, (flag[2:].replace("-", "_"),))
      for flag, value in (("--team-fraction", "nan"), ("--total-supply", "nan"), ("--total-supply", "inf"))),
    Case("score empty file", "score prices.csv --circulating 1 --price 1", 2, ("no prices",),
         files={"prices.csv": ""}),
    Case("score non-positive row", "score prices.csv --circulating 1 --price 1", 2, ("row 3",),
         files={"prices.csv": "1.0\n2.0\n-3.0\n"}),
    *(Case(f"score --circulating {circulating} --price {price}",
           f"score prices.csv --circulating {circulating} --price {price}", 2, ("efficiency",),
           files={"prices.csv": "1.0\n2.0\n4.0\n"})
      for circulating, price in (("nan", "1"), ("1", "inf"), ("1e200", "1e200"))),
]
CASE = {case.id: case for case in CASES}


def run_case(case: Case, root: Path, invoke) -> str:
    """Run `case` in directory `root` through `invoke(argv) -> (code, stdout, stderr)`; return stderr.

    Beyond the row's own checks, a command that fails prints nothing to stdout and leaves
    `root` as it found it: no path created, no file changed.
    """
    for name, text in case.files.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)
    argv = shlex.split(case.argv)
    if case.config is not None:
        (root / "config.json").write_text(json.dumps(case.config))
        argv += ["--config", "config.json"]
    before = sorted(root.rglob("*"))
    code, out, err = invoke(argv)
    assert code == case.code, err
    assert all(text in err for text in case.err), err
    assert not any(text in err for text in case.not_err), err
    for name, text in case.wrote.items():
        assert text in (root / name).read_text()
    assert [name for name in case.gone if (root / name).exists()] == []
    assert all((root / name).read_text() == text for name, text in case.files.items() if name not in case.gone)
    if case.code != 0:
        assert out == ""
        assert sorted(root.rglob("*")) == before
    return err


def in_process(capsys):
    """An `invoke` that calls `cli.main`, reading an argparse rejection's SystemExit as its code."""
    def invoke(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def no_month(self, month):
    raise AssertionError("a config error must stop the command before any month")


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_exit_code(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    if case.code == 2:  # rejected at load: no month may be stepped
        monkeypatch.setattr(Simulation, "step", no_month)
    run_case(case, tmp_path, in_process(capsys))


def test_revenue_overflow_fails_alike_under_either_policy(tmp_path, monkeypatch, capsys):
    # The overflow precedes any policy's decision, so both policies stop with the same message.
    errors = []
    for policy in ("heuristic", "llm"):
        root = tmp_path / policy
        root.mkdir()
        monkeypatch.chdir(root)
        errors.append(run_case(CASE[f"run revenue overflow under {policy}"], root, in_process(capsys)))
    assert errors[0] == errors[1]


def in_a_process(root: Path, umask: int = -1):
    """An `invoke` that runs `python -m depinsim.cli` in `root` under `umask` (-1 keeps this process's);
    a process costs about 0.3 s."""
    package_root = str(Path(depinsim.__file__).parents[1])
    env = {key: value for key, value in os.environ.items() if key != ENDPOINT_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))

    def invoke(argv):
        proc = subprocess.run([sys.executable, "-m", "depinsim.cli", *argv], cwd=root, env=env, umask=umask,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr
    return invoke


@pytest.mark.parametrize(
    "case_id", ["run at the roster cap", "run gc_arrival_rate=10000000.0", "run revenue overflow under heuristic"])
def test_exit_code_of_the_process(case_id, tmp_path):
    # One row per exit code through the process, not every row.
    run_case(CASE[case_id], tmp_path, in_a_process(tmp_path))


def test_artifacts_follow_the_umask(tmp_path):
    # Each artifact is created as `open(path, "w")` creates a file, 0666 less the umask, and a rewrite
    # under another umask takes the new mode.
    artifacts = {"trajectory.csv", "metrics.json", *RUN_CHARTS}
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        code, _, err = in_a_process(tmp_path, umask)(["run", "--seed", "1", "--out-dir", "out"])
        assert code == 0, err
        modes = {path.name: oct(path.stat().st_mode & 0o777) for path in (tmp_path / "out").iterdir()}
        assert modes == dict.fromkeys(artifacts, oct(mode))
