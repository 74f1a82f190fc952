"""CLI tests: exit codes, artifacts, round trips, chart regeneration."""

import csv
import json
import math
import re

import pytest

from depinsim.charts import grouped_bar_panels
from depinsim.cli import _trajectory_charts, main
from depinsim.engine import CSV_COLUMNS, SimulationConfig, encode, run
from depinsim.llm_gateway import AuditLog, LlmSettings
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

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, horizon_month=12)
        assert main(["run", "--config", config]) == 2
        assert "horizon_month" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("horizon_months", "3"),
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
            pytest.param("node_cost", 10**400, id="node_cost-beyond-float-range"),
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
        ],
    )
    def test_rejected_config_value_exits_2(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, **{key: value})
        assert main(["run", "--config", config]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("llm.max_tokens", 0),
            ("llm.temperature", -1),
            ("llm.retries", -1),
            ("llm.timeout", -1),
            ("llm.script", {"*": 1}),
            ("team_schedule.kind", "weekly"),
            ("vc_schedule.linear_months", 0),
            ("node_schedule.cliff_months", 5),  # the default node schedule is a halving emission
            ("llm.retries", 11),
            ("llm.backend", "magic"),
            ("llm.default_reply", "no"),  # removed key: a last "*" pattern answers unmatched prompts
        ],
    )
    def test_rejected_section_value_exits_2(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.chdir(tmp_path)
        section, name = key.split(".")
        config = write_config(tmp_path, policy="llm", **{section: {name: value}})
        assert main(["run", "--config", config]) == 2
        assert key in capsys.readouterr().err

    def test_unknown_llm_backend_exits_2_under_heuristic_policy(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, policy="heuristic", llm={"backend": "magic"})
        assert main(["run", "--config", config]) == 2
        assert "llm.backend" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ['{"*": 5}', '["a"]', '{"*": null}'])
    def test_script_file_that_is_not_a_string_map_exits_2_before_any_month(self, tmp_path, capsys, content):
        script = tmp_path / "script.json"
        script.write_text(content)
        config = write_config(tmp_path, policy="llm", llm={"backend": "scripted", "script_file": str(script)})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "llm.script_file" in err and "month" not in err
        assert not out.exists()

    def test_key_the_schedule_kind_does_not_use_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, team_schedule={"kind": "halving_emission", "cliff_months": 5})
        assert main(["run", "--config", config]) == 2
        assert "team_schedule.cliff_months" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("tokens_on_sale_fraction", 2.2250738585e-313)])
    def test_non_finite_month_exits_3_and_writes_nothing(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, horizon_months=2, **{key: value})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "month 1" in err and "'record'" in err and "token_price is not finite" in err
        assert not out.exists()

    def test_non_finite_revenue_exits_3_alike_under_either_policy(self, tmp_path, capsys):
        # 1e305 times month 1's node emission overflows the revenue before any policy reads it.
        errors = []
        for policy in ("heuristic", "llm"):
            config = write_config(tmp_path, horizon_months=2, initial_price=1e305,
                                  llm={"backend": "scripted", "script": {"*": "no"}})
            out = tmp_path / policy
            assert main(["run", "--config", config, "--policy", policy, "--out-dir", str(out)]) == 3
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "month 1" in errors[0] and "'revenue'" in errors[0] and "global_revenue is not finite" in errors[0]

    def test_llm_policy_without_backend_exits_2(self, tmp_path):
        assert main(["run", "--policy", "llm", "--out-dir", str(tmp_path / "o")]) == 2

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

    @pytest.mark.parametrize("policy", ["heuristic", "llm"])
    def test_audit_log_in_a_missing_directory_exits_2(self, tmp_path, capsys, policy):
        config = write_config(tmp_path, horizon_months=2, llm={"backend": "scripted", "script": {"*": "no"}})
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--policy", policy, "--out-dir", str(out),
                     "--audit-log", str(tmp_path / "missing" / "audit.jsonl")])
        assert code == 2
        assert "audit_log" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "missing").exists()
        # An audit log that names a directory is rejected alike, before any month.
        code = main(["run", "--config", config, "--policy", policy, "--out-dir", str(out),
                     "--audit-log", str(tmp_path)])
        assert code == 2
        assert "audit_log" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("under", ["afile", "afile/sub"])
    def test_out_dir_under_a_file_exits_2_before_any_month(self, tmp_path, capsys, monkeypatch, command, under):
        def never(*args, **kwargs):
            raise AssertionError("no month may run")

        monkeypatch.setattr("depinsim.cli.run", never)
        (tmp_path / "afile").write_text("kept")
        config = write_config(tmp_path, horizon_months=2, llm={"backend": "scripted", "script": {"*": "no"}})
        extra = ["--patience", "1", "--seeds", "1"] if command == "compare" else []
        assert main([command, "--config", config, "--out-dir", str(tmp_path / under), *extra]) == 2
        assert "out_dir" in capsys.readouterr().err
        assert (tmp_path / "afile").read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]

    def test_unreachable_llm_endpoint_exits_3_with_location(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            horizon_months=3,
            policy="llm",
            llm={"backend": "http", "endpoint": "http://127.0.0.1:1", "timeout": 0.2, "retries": 0},
        )
        assert main(["run", "--config", config, "--out-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "month 1" in err and "node-decisions" in err

    def test_seed_override_changes_output(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--seed", "1", "--out-dir", str(out_a), "--charts", "off"])
        main(["run", "--seed", "2", "--out-dir", str(out_b), "--charts", "off"])
        assert (out_a / "trajectory.csv").read_text() != (out_b / "trajectory.csv").read_text()

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
                run(cell, audit_log=AuditLog(expected))

        def exchanges(path):
            return [{k: v for k, v in json.loads(line).items() if k != "latency_s"}
                    for line in path.read_text(encoding="utf-8").splitlines()]

        assert exchanges(log) == exchanges(expected) != []

    def test_audit_log_key_in_a_missing_directory_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, horizon_months=2, audit_log=str(tmp_path / "missing" / "audit.jsonl"),
                              llm={"backend": "scripted", "script": {"*": "no"}})
        out = tmp_path / "out"
        assert main(["compare", "--config", config, "--patience", "1", "--seeds", "1", "--out-dir", str(out)]) == 2
        assert "audit_log" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "missing").exists()
        # An audit_log key that names a directory is rejected alike, before any cell runs.
        config = write_config(tmp_path, horizon_months=2, audit_log=str(tmp_path),
                              llm={"backend": "scripted", "script": {"*": "no"}})
        assert main(["compare", "--config", config, "--patience", "1", "--seeds", "1", "--out-dir", str(out)]) == 2
        assert "audit_log" in capsys.readouterr().err
        assert not out.exists()

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

    def test_empty_patience_list_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, llm={"backend": "scripted", "script": {}})
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", config, "--patience", "", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_compare_without_llm_section_exits_2(self, tmp_path):
        assert main(["compare", "--patience", "1", "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seed_count_below_one_exits_2(self, tmp_path, capsys, seeds):
        config = write_config(tmp_path, llm={"backend": "scripted", "script": {}})
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", config, "--patience", "1", "--seeds", seeds, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err


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

    def test_zero_horizon_exits_2(self, tmp_path):
        assert main(["vesting", "--horizon", "0", "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "flag,value", [("--team-fraction", "nan"), ("--total-supply", "nan"), ("--total-supply", "inf")])
    def test_non_finite_allocation_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        assert main(["vesting", flag, value, "--out-dir", str(out)]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()


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

    def test_empty_file_exits_2(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("")
        assert main(["score", str(path), "--circulating", "1", "--price", "1"]) == 2

    def test_non_positive_row_reported(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("1.0\n2.0\n-3.0\n")
        assert main(["score", str(path), "--circulating", "1", "--price", "1"]) == 2
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("circulating,price", [("nan", "1"), ("1", "inf"), ("1e200", "1e200")])
    def test_non_finite_efficiency_exits_2(self, tmp_path, capsys, circulating, price):
        path = tmp_path / "prices.csv"
        path.write_text("1.0\n2.0\n4.0\n")
        assert main(["score", str(path), "--circulating", circulating, "--price", price]) == 2
        captured = capsys.readouterr()
        assert "efficiency" in captured.err and captured.out == ""

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
        assert ranges["llm.timeout"] == "(0, inf)"
        assert ranges["policy"] == ranges["out_dir"] == ""

    def test_every_row_has_four_cells(self, capsys):
        assert main(["config-reference"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cells = [re.split(r"(?<!\\)\|", line)[1:-1] for line in lines]  # split on unescaped pipes
        assert len(lines) > 2 and all(len(row) == 4 for row in cells)
        descriptions = {row[0].strip(): row[3].strip() for row in cells[2:]}
        assert descriptions["`policy`"].endswith(r"heuristic \| llm")
        assert descriptions["`llm.backend`"].endswith(r"scripted \| http")
