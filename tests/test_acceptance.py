"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from conftest import YES_NO_CORPUS, assert_same_csv
from depinsim.agents import (
    LlmPolicy,
    apply_patience,
    heuristic_prompt_reply,
)
from depinsim.engine import Simulation, SimulationConfig, run
from depinsim.agents import GrowthCapitalist
from depinsim.llm_gateway import ScriptedBackend, parse_yes_no
from depinsim.market import user_count
from depinsim.metrics import efficiency, inclusion, stability
from depinsim.tokenomics import TokenAllocation, node_emission, team_release, vc_release

ALLOC = TokenAllocation()

TOP_TOKENS = [
    ("ICP", 12.13, 5_631_971_226.0),
    ("RNDR", 10.24, 3_980_572_572.0),
    ("FIL", 5.94, 3_310_041_671.0),
    ("TAO", 416.51, 2_850_998_994.0),
    ("AR", 37.98, 2_486_050_282.0),
    ("THETA", 2.27, 2_274_255_874.0),
    ("AKT", 5.23, 1_247_039_844.0),
    ("BTT", 1.19e-6, 1_152_552_225.0),
    ("EGLD", 39.96, 1_078_774_444.0),
    ("AIOZ", 0.7824, 858_001_031.0),
]


def verdict(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_vesting_conservation():
    start = time.perf_counter()
    team_total = sum(team_release(m, ALLOC) for m in range(1, 49))
    vc_total = sum(vc_release(m, ALLOC) for m in range(1, 25))
    node_total = sum(node_emission(m, ALLOC) for m in range(1, 97))
    assert team_total == pytest.approx(200_000_000.0, rel=1e-6)
    assert vc_total == pytest.approx(200_000_000.0, rel=1e-6)
    assert node_total == pytest.approx(450_000_000.0, rel=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"vesting conservation took {elapsed:.3f}s"
    verdict(1, "vesting conservation")


def test_criterion_2_halving_law_exact():
    for month in range(1, 97):
        assert node_emission(month + 48, ALLOC) == node_emission(month, ALLOC) / 2
    verdict(2, "halving law")


def test_criterion_3_formula_oracles():
    assert user_count(50) == 3500.0

    # One hand-computed month against the engine, field by field.  Fixed
    # inputs: 50 seed nodes, initial price 1, one resident growth
    # capitalist with a 5e6 endowment, no entries, no arrivals.
    config = SimulationConfig(entry_pool_size=0, gc_arrival_rate=0.0)
    sim = Simulation(config)
    sim.gcs.append(GrowthCapitalist(endowment=5e6, expiry=100))
    assert sim.step(1) is None  # step commits; the month is read back from sim.state
    state = sim.state

    emission = 0.60 * 1e9 * 0.5 / 48  # 6.25e6
    supply = emission  # no team or VC tranches in month 1
    users = 100.0 * math.sqrt(50 * 49 / 2)  # 3500
    revenue = 1.0 * emission / 50 + 10.0 * users  # 160000
    sale = 0.05 * supply  # 312500
    price = 5e6 / sale  # 16.0

    expected = {
        "active_nodes": 50,
        "users": users,
        "token_price": price,
        "tokens_on_sale": sale,
        "circulating_supply": supply,
        "total_gc_endowment": 5e6,
        "global_revenue": revenue,
        "market_cap": price * supply,
        "diluted_market_cap": price * 1e9,
    }
    for name, value in expected.items():
        assert getattr(state, name) == pytest.approx(value, rel=1e-9), name
    verdict(3, "formula oracles")


def test_criterion_4_metric_oracles():
    assert stability([1.0, 2.0, 1.0, 2.0]) == pytest.approx(2 * math.log(2) / math.sqrt(3), abs=1e-9)
    assert stability([7.5, 7.5, 7.5, 7.5, 7.5]) == 0.0
    assert stability([1.0, 2.0, 4.0, 8.0, 16.0]) == 0.0
    assert inclusion(100, 50) == 0.5
    for name, price, cap in TOP_TOKENS:
        implied_supply = cap / price
        assert efficiency(implied_supply, price) == pytest.approx(cap, rel=1e-4), name
    verdict(4, "metric oracles")


def test_criterion_5_policy_equivalence_bridge():
    start = time.perf_counter()
    backend = ScriptedBackend(heuristic_prompt_reply)
    for seed in range(10):
        heuristic = run(SimulationConfig(seed=seed))
        bridged = run(SimulationConfig(seed=seed), policy=LlmPolicy(backend))
        assert_same_csv(bridged.to_csv_string(), heuristic.to_csv_string(), f"seed {seed}: ")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"bridge took {elapsed:.2f}s"
    verdict(5, "policy-equivalence bridge")


def _exit_month(signals, patience):
    streak = 0
    for month, signal in enumerate(signals, start=1):
        if apply_patience(streak, signal, patience):
            return month
        streak = (streak + 1) * signal
    return None


def test_criterion_6_patience_monotonicity():
    rng = np.random.default_rng(2024)
    for case in range(1000):
        length = int(rng.integers(1, 30))
        signals = rng.random(length) < rng.uniform(0.2, 0.9)
        patience = int(rng.integers(1, 6))
        impatient = _exit_month(signals, patience)
        patient = _exit_month(signals, patience + 1)
        if impatient is None:
            assert patient is None, case
        else:
            # Later (or never) exit under higher patience, hence at least
            # as many cumulative node-months.
            months_impatient = impatient
            months_patient = patient if patient is not None else length
            assert months_patient >= months_impatient, case
    verdict(6, "patience monotonicity")


def test_criterion_7_determinism_and_totality():
    config = SimulationConfig(seed=42)
    assert_same_csv(run(config).to_csv_string(), run(config).to_csv_string())

    seeds = np.random.default_rng(7).integers(0, 2**31 - 1, size=100)
    for seed in seeds:
        trajectory = run(SimulationConfig(seed=int(seed)))
        assert len(trajectory.states) == 96
        for state in trajectory.states:
            for name in (
                "users", "token_price", "tokens_on_sale", "circulating_supply",
                "total_gc_endowment", "global_revenue", "market_cap", "diluted_market_cap",
            ):
                value = getattr(state, name)
                assert math.isfinite(value), (int(seed), state.month, name)
    verdict(7, "determinism and totality")


def test_criterion_8_parse_robustness():
    for text, expected in YES_NO_CORPUS:
        assert parse_yes_no(text) is expected, text

    policy = LlmPolicy(ScriptedBackend({"*": "unintelligible"}))
    from depinsim.agents import DecisionContext

    ctx = DecisionContext(global_revenue=2000.0, node_cost=1000.0, tolerance=0.5, month=1)
    assert policy.decide_entry(ctx) is True  # heuristic fallback: 2000 > 1000
    assert policy.fallback_count == 1
    assert policy.decide_exit(ctx) is False  # heuristic fallback: 2000 >= 500
    assert policy.fallback_count == 2
    verdict(8, "parse robustness")
