"""The benchmark's workloads: what each runs, and what its outputs must satisfy.

A workload turns a seed into a *unit*: a few jobs, each one timed call into
depinsim (``run()`` or ``cli.main``) that yields a trajectory CSV, plus a
cross-check over the unit's CSVs.  The program only ever sees the generated
``SimulationConfig`` (or the CLI config file built from one).

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
imports depinsim from there; it refuses to run against any other copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "depinsim" / "__init__.py").is_file():
    raise ImportError(f"no depinsim package under {SRC}; run the benchmark from a depinsim checkout")
sys.path.insert(0, str(SRC))

import depinsim  # noqa: E402
from depinsim import (  # noqa: E402
    HttpBackend,
    LlmPolicy,
    ScriptedBackend,
    Simulation,
    SimulationConfig,
    heuristic_prompt_reply,
    run,
)

from bench_checks import CheckFailed, check_same  # noqa: E402

if Path(depinsim.__file__).resolve().parent != SRC / "depinsim":
    raise ImportError(f"imported depinsim from {depinsim.__file__}, not from {SRC}")

# Demo 04's stressed regime: no user-side revenue, expensive nodes, sparse
# growth capital, so nodes see exit signals and churn.
STRESSED = {"user_revenue_factor": 0.0, "node_cost": 5000.0, "gc_arrival_rate": 0.5}

# Seed of the warm-up unit, whose CSVs must match reference_digests.json.
REFERENCE_SEED = 0

# Files `depin-sim run --charts on` writes into its output directory.
CLI_ARTIFACTS = (
    "trajectory.csv", "metrics.json",
    "price.svg", "market_cap.svg", "diluted_market_cap.svg", "nodes.svg", "users.svg",
)


def unit_seed(seed: int, index: int) -> int:
    """Simulation seed of the index-th unit of a benchmark run."""
    return 1000 * seed + index


@dataclass
class Env:
    """What jobs need from the harness: a scratch directory, the stub URL,
    and the wrappers a traced run puts around policies, backends and the
    CLI entry point (identity when untraced)."""

    workdir: Path
    url: Optional[str] = None
    max_months: Optional[int] = None  # horizon cap for smoke runs
    wrap_policy: Callable = lambda policy: policy
    wrap_backend: Callable = lambda backend: backend
    wrap_cli: Callable = lambda main: main


@dataclass
class Job:
    label: str
    config: SimulationConfig
    execute: Callable[[], object]  # the timed call
    collect: Callable[[object], str]  # untimed: the trajectory CSV it produced
    after: Callable[[], None] = lambda: None  # untimed clean-up


@dataclass
class Unit:
    jobs: List[Job]
    cross_check: Callable[[Dict[str, str]], None] = lambda csvs: None


def _config(env: Env, **data) -> dict:
    """Config keys for one job; smoke runs cap the horizon."""
    if env.max_months is not None:
        data["horizon_months"] = min(data["horizon_months"], env.max_months)
    return data


def _csv(trajectory) -> str:
    return trajectory.to_csv_string()


def _scripted_llm(env: Env) -> LlmPolicy:
    return env.wrap_policy(LlmPolicy(env.wrap_backend(ScriptedBackend(heuristic_prompt_reply))))


@dataclass
class Workload:
    """Rationale and layer predictions for each are in perfbench/README.md."""

    name: str
    make_unit: Callable[[int, Env], Unit]
    construct: Callable[[int, Env], Simulation]  # set-up path, timed as setup_s
    needs_stub: bool = False


# --- roster-growth ---------------------------------------------------------

def _roster_config(seed: int, env: Env) -> SimulationConfig:
    return SimulationConfig(**_config(env, seed=seed, horizon_months=240, entry_pool_size=100))


def _roster_unit(seed: int, env: Env) -> Unit:
    config = _roster_config(seed, env)
    return Unit([Job("heuristic", config, lambda: run(config), _csv)])


# --- patience-sweep --------------------------------------------------------

PATIENCE_LEVELS = (1, 3, 5)


def _sweep_config(seed: int, patience: int, env: Env) -> SimulationConfig:
    return SimulationConfig(**_config(
        env, seed=seed, patience=patience, horizon_months=96, initial_nodes=20, entry_pool_size=4, **STRESSED))


def _sweep_unit(seed: int, env: Env) -> Unit:
    heuristic = _sweep_config(seed, 1, env)
    jobs = [Job("heuristic", heuristic, lambda: run(heuristic), _csv)]
    for patience in PATIENCE_LEVELS:
        config = _sweep_config(seed, patience, env)
        jobs.append(Job(f"llm-p{patience}", config, lambda c=config: run(c, policy=_scripted_llm(env)), _csv))

    def cross_check(csvs):
        check_same("llm-p1 vs heuristic", csvs["llm-p1"], csvs["heuristic"])

    return Unit(jobs, cross_check)


def _sweep_construct(seed: int, env: Env) -> Simulation:
    return Simulation(_sweep_config(seed, 1, env), policy=_scripted_llm(env))


# --- cli-artifacts ---------------------------------------------------------

def _cli_config(seed: int, env: Env) -> dict:
    return _config(env, seed=seed, horizon_months=1200, entry_pool_size=1, **STRESSED)


def _cli_unit(seed: int, env: Env) -> Unit:
    from depinsim import cli  # the CLI layer is only this workload's

    data = _cli_config(seed, env)
    config = SimulationConfig.from_dict(data)
    run_dir = env.workdir / f"cli-{seed}"
    out_dir = run_dir / "out"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(data), encoding="utf-8")
    argv = ["run", "--config", str(config_path), "--out-dir", str(out_dir), "--charts", "on"]

    def execute():
        main = env.wrap_cli(cli.main)
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)

    def collect(code) -> str:
        if code != 0:
            raise CheckFailed(f"depin-sim run exited {code}")
        missing = [name for name in CLI_ARTIFACTS if not (out_dir / name).is_file()]
        if missing:
            raise CheckFailed(f"depin-sim run did not write {', '.join(missing)}")
        try:
            json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        except ValueError as err:
            raise CheckFailed(f"metrics.json is not JSON: {err}") from err
        return (out_dir / "trajectory.csv").read_text(encoding="utf-8")

    return Unit([Job("cli", config, execute, collect, after=lambda: shutil.rmtree(run_dir))])


def _cli_construct(seed: int, env: Env) -> Simulation:
    from depinsim import cli  # noqa: F401  (part of the CLI's set-up)

    return Simulation(SimulationConfig.from_dict(_cli_config(seed, env)))


# --- llm-http --------------------------------------------------------------

def _http_config(seed: int, env: Env) -> SimulationConfig:
    return SimulationConfig(
        **_config(env, seed=seed, horizon_months=24, initial_nodes=4, entry_pool_size=1, **STRESSED))


def _http_policy(env: Env) -> LlmPolicy:
    return env.wrap_policy(LlmPolicy(env.wrap_backend(HttpBackend(env.url))))


def _http_unit(seed: int, env: Env) -> Unit:
    config = _http_config(seed, env)

    def cross_check(csvs):
        check_same("llm-http vs heuristic", csvs["llm-http"], run(config).to_csv_string())

    return Unit([Job("llm-http", config, lambda: run(config, policy=_http_policy(env)), _csv)], cross_check)


def _http_construct(seed: int, env: Env) -> Simulation:
    return Simulation(_http_config(seed, env), policy=_http_policy(env))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("roster-growth", _roster_unit, lambda seed, env: Simulation(_roster_config(seed, env))),
        Workload("patience-sweep", _sweep_unit, _sweep_construct),
        Workload("cli-artifacts", _cli_unit, _cli_construct),
        Workload("llm-http", _http_unit, _http_construct, needs_stub=True),
    )
}
