"""Agent tests: heuristic rules, prompts, patience, growth-capital draws."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depinsim.agents import (
    DecisionContext,
    GrowthCapitalist,
    HeuristicPolicy,
    LlmPolicy,
    apply_patience,
    heuristic_entry,
    heuristic_exit,
    heuristic_prompt_reply,
    render_entry_prompt,
    render_exit_prompt,
    spawn_growth_capitalists,
    total_endowment,
)
from depinsim.engine import Simulation, SimulationConfig
from depinsim import agents, llm_gateway
from depinsim.llm_gateway import AuditLog, ScriptedBackend


def ctx(revenue=160_000.0, cost=1000.0, tolerance=0.5, month=1):
    return DecisionContext(global_revenue=revenue, node_cost=cost, tolerance=tolerance, month=month)


class TestHeuristicRules:
    def test_entry_strictly_above_cost(self):
        assert heuristic_entry(ctx(revenue=1001.0, cost=1000.0))
        assert not heuristic_entry(ctx(revenue=1000.0, cost=1000.0))
        assert not heuristic_entry(ctx(revenue=0.0, cost=1000.0))

    def test_exit_strictly_below_threshold(self):
        assert heuristic_exit(ctx(revenue=499.0, cost=1000.0, tolerance=0.5))
        assert not heuristic_exit(ctx(revenue=500.0, cost=1000.0, tolerance=0.5))
        assert not heuristic_exit(ctx(revenue=1000.0, cost=1000.0, tolerance=1.0))

    def test_policy_object_matches_functions(self):
        policy = HeuristicPolicy()
        c = ctx(revenue=900.0)
        assert policy.decide_entry(c) == heuristic_entry(c)
        assert policy.decide_exit(c) == heuristic_exit(c)

    def test_batch_methods_equal_the_rules_node_by_node(self):
        # Subnormal products (one rounds to 0), the product 1e308 * 1, and revenues at, just
        # below and just above each threshold.
        costs = np.array([1000.0, 1e-300, 5e-324, 1e308, 3.0, 0.1])
        tolerances = np.array([0.5, 1e-10, 0.5, 1.0, 1 / 3, 0.7])
        thresholds = tolerances * costs
        assert thresholds[1] < 2.2250738585072014e-308 and thresholds[2] == 0.0 and thresholds[3] == 1e308
        policy = HeuristicPolicy()
        revenues = [0.0, 5e-324, 1e308, *thresholds.tolist(), *np.nextafter(thresholds, 0.0).tolist(),
                    *np.nextafter(thresholds, np.inf).tolist()]
        for revenue in revenues:
            contexts = [ctx(revenue, c, t) for c, t in zip(costs.tolist(), tolerances.tolist())]
            entries = policy.decide_entries(revenue, costs, tolerances, 1)
            exits = policy.decide_exits(revenue, costs, tolerances, thresholds, 1)
            assert entries.tolist() == [heuristic_entry(c) for c in contexts]
            assert exits.tolist() == [heuristic_exit(c) for c in contexts]
        for i, threshold in enumerate(thresholds.tolist()):  # a revenue equal to a threshold gives no signal
            assert not policy.decide_exits(threshold, costs, tolerances, thresholds, 1)[i]


class TestPromptRendering:
    def test_entry_prompt_exact(self):
        assert render_entry_prompt(ctx(revenue=160_000.0, cost=1000.0)) == (
            "The global estimated revenue is 160000. A node has a cost of 1000. "
            "Should the node enter the system? Please answer 'yes' or 'no'."
        )

    def test_exit_prompt_carries_all_three_values(self):
        prompt = render_exit_prompt(ctx(revenue=100.0, cost=1000.0, tolerance=0.5))
        assert prompt == (
            "The global estimated revenue is 100. A node has a cost of 1000 "
            "and a tolerance of 0.5. "
            "Should the node exit the system? Please answer 'yes' or 'no'."
        )

    def test_fractional_values_render_full_precision(self):
        prompt = render_entry_prompt(ctx(revenue=4166666.666666667, cost=1013.25))
        assert "4166666.666666667" in prompt
        assert "1013.25" in prompt

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            render_entry_prompt(ctx(revenue=float("nan")))
        with pytest.raises(ValueError):
            render_exit_prompt(ctx(cost=float("inf")))


class TestHeuristicPromptReply:
    @given(
        revenue=st.floats(min_value=0, max_value=1e12, allow_nan=False),
        cost=st.floats(min_value=1e-3, max_value=1e6),
        tolerance=st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_round_trips_the_heuristic_verdicts(self, revenue, cost, tolerance):
        c = ctx(revenue=revenue, cost=cost, tolerance=tolerance)
        entry_reply = heuristic_prompt_reply(render_entry_prompt(c))
        exit_reply = heuristic_prompt_reply(render_exit_prompt(c))
        assert (entry_reply == "yes") == heuristic_entry(c)
        assert (exit_reply == "yes") == heuristic_exit(c)

    def test_unknown_prompt_gets_empty_reply(self):
        assert heuristic_prompt_reply("What is the weather?") == ""

    @pytest.mark.parametrize("prompt", [
        render_entry_prompt(ctx(revenue=2.5e-07, cost=3e20)),
        render_exit_prompt(ctx(revenue=3e20, cost=2.5e-07, tolerance=0.5)),
        render_entry_prompt(ctx(revenue=160_000.0, cost=1000.0)),
        render_exit_prompt(ctx(revenue=160_000.0, cost=1000.0, tolerance=1.0)),
        "Context first. " + render_entry_prompt(ctx(revenue=999.0, cost=1000.0)),
        "Context first.\n" + render_exit_prompt(ctx(revenue=100.0, cost=1000.0, tolerance=0.5)),
        "The global estimated revenue is 3e+20. A node has a cost of 2.5e-07 and a tolerance of 1e+300. "
        "Should the node exit the system?",
        # Both sentences, with opposite verdicts: the exit sentence answers, whichever comes first.
        render_entry_prompt(ctx(revenue=2000.0, cost=1000.0)) + " "
        + render_exit_prompt(ctx(revenue=2000.0, cost=1000.0, tolerance=0.5)),
        render_exit_prompt(ctx(revenue=2000.0, cost=1000.0, tolerance=0.5)) + "\n"
        + render_entry_prompt(ctx(revenue=2000.0, cost=1000.0)),
        "The global estimated revenue is 5. A node has a cost of 4. Should the node leave?",
        "What is the weather?",
        "",
    ])
    def test_one_search_answers_as_the_exit_then_entry_pair(self, prompt):
        exit_re = re.compile(r"The global estimated revenue is (\S+)\. A node has a cost of (\S+) "
                             r"and a tolerance of (\S+)\. Should the node exit")
        entry_re = re.compile(r"The global estimated revenue is (\S+)\. A node has a cost of (\S+)\. "
                              r"Should the node enter")

        def pair_reply(text):  # the reference: an exit search, then an entry search
            match = exit_re.search(text)
            if match is not None:
                revenue, cost, tolerance = map(float, match.groups())
                return "yes" if revenue < tolerance * cost else "no"
            match = entry_re.search(text)
            if match is not None:
                revenue, cost = map(float, match.groups())
                return "yes" if revenue > cost else "no"
            return ""

        assert heuristic_prompt_reply(prompt) == pair_reply(prompt)
        if prompt.count("Should the node") == 2:
            assert heuristic_prompt_reply(prompt) == "no"  # the entry sentence alone says yes


def patience_verdicts(signals, patience):
    """`apply_patience` over one node's signals, its run kept as `streak = (streak + 1) * signal`."""
    streak, verdicts = 0, []
    for signal in signals:
        verdicts.append(apply_patience(streak, signal, patience))
        streak = (streak + 1) * signal
    return verdicts


class TestApplyPatience:
    def test_degenerate_patience_exits_immediately(self):
        assert apply_patience(0, True, 1)
        assert patience_verdicts([True], 1) == [True]

    def test_counter_resets_on_calm_month(self):
        outcomes = patience_verdicts([True, True, False, True, True, True], 3)
        assert outcomes == [False, False, False, False, False, True]

    def test_never_exits_without_signals(self):
        assert not any(patience_verdicts([False] * 50, 3))

    @staticmethod
    def exit_month(signals, patience):
        verdicts = patience_verdicts(signals, patience)
        return verdicts.index(True) + 1 if True in verdicts else None

    @given(st.lists(st.booleans(), max_size=40), st.integers(min_value=1, max_value=6))
    def test_patience_monotonicity(self, signals, patience):
        impatient = self.exit_month(signals, patience)
        patient = self.exit_month(signals, patience + 1)
        if impatient is None:
            assert patient is None
        elif patient is not None:
            assert patient >= impatient


class TestPseudocodeBoxOracle:
    """Patience 1 must reproduce the bare add/remove rule box on any trace."""

    @staticmethod
    def transcribed_exits(revenues, roster):
        # Direct transcription: each month, remove any active node whose
        # revenue fell strictly below tolerance * cost.
        exits = {}
        active = set(range(len(roster)))
        for month, revenue in enumerate(revenues, start=1):
            removed = set()
            for i in sorted(active):
                cost, tolerance = roster[i]
                if revenue < tolerance * cost:
                    exits[i] = month
                    removed.add(i)
            active -= removed
        return exits

    def test_patience_one_matches_transcription(self):
        rng = np.random.default_rng(5)
        policy = HeuristicPolicy()
        for _ in range(20):
            revenues = rng.uniform(0.0, 3000.0, 24)
            roster = [
                (float(rng.uniform(500, 1500)), float(rng.uniform(0.1, 1.0)))
                for _ in range(8)
            ]
            streaks = dict.fromkeys(range(len(roster)), 0)  # each active node's run of exit signals
            exits = {}
            for month, revenue in enumerate(revenues, start=1):
                for i in list(streaks):
                    cost, tolerance = roster[i]
                    signal = policy.decide_exit(DecisionContext(float(revenue), cost, tolerance, month))
                    if apply_patience(streaks[i], signal, 1):
                        del streaks[i]
                        exits[i] = month
                    else:
                        streaks[i] = (streaks[i] + 1) * signal
            assert exits == self.transcribed_exits(revenues, roster)

    def test_entry_verdicts_match_add_rule(self):
        rng = np.random.default_rng(6)
        policy = HeuristicPolicy()
        for _ in range(200):
            revenue = float(rng.uniform(0.0, 3000.0))
            cost = float(rng.uniform(500, 1500))
            c = ctx(revenue=revenue, cost=cost)
            assert policy.decide_entry(c) == (revenue > cost)


class TestGrowthCapital:
    def test_zero_arrival_rate_spawns_nobody(self):
        rng = np.random.default_rng(7)
        assert spawn_growth_capitalists(1, SimulationConfig(gc_arrival_rate=0.0), rng) == []

    def test_fixed_seed_is_reproducible(self):
        config = SimulationConfig(gc_arrival_rate=2.0)
        first = spawn_growth_capitalists(3, config, np.random.default_rng(11))
        second = spawn_growth_capitalists(3, config, np.random.default_rng(11))
        assert first == second

    def test_records_carry_the_draws_in_order(self):
        config = SimulationConfig(gc_arrival_rate=4.0)
        gcs = spawn_growth_capitalists(7, config, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        count = int(rng.poisson(config.gc_arrival_rate))
        endowments = rng.lognormal(config.gc_endowment_mu, config.gc_endowment_sigma, count).tolist()
        lifespans = rng.lognormal(config.gc_lifespan_mu, config.gc_lifespan_sigma, count).tolist()
        expiries = [7 + max(round(n), 1) for n in lifespans]
        assert count > 0
        assert gcs == [GrowthCapitalist(e, x) for e, x in zip(endowments, expiries)]

    def test_lifespan_median_matches_lognormal(self):
        config = SimulationConfig(gc_arrival_rate=1000.0, gc_lifespan_mu=2.5, gc_lifespan_sigma=0.5)
        rng = np.random.default_rng(123)
        lifespans = [gc.expiry - month for month in range(1, 101)
                     for gc in spawn_growth_capitalists(month, config, rng)]
        assert len(lifespans) > 90_000
        assert min(lifespans) >= 1
        median = float(np.median(lifespans))
        assert median == pytest.approx(math.exp(2.5), rel=0.02)

    def test_lifespans_round_half_to_even_and_last_a_month(self):
        # Exact ties, which random draws do not hit, and 2.9e18: a lifespan rounds half to even,
        # is at least one month, and is an exact int.
        draws = [0.2, 0.5, 1.5, 2.5, 3.5, 2.9e18]

        class Stub:
            lognormals = iter([[1.0] * len(draws), draws])

            def poisson(self, lam):
                return len(draws)

            def lognormal(self, mean, sigma, size):
                return np.array(next(self.lognormals))

        gcs = spawn_growth_capitalists(5, SimulationConfig(), Stub())
        assert [gc.expiry - 5 for gc in gcs] == [1, 1, 2, 2, 4, 2_900_000_000_000_000_000]
        assert all(type(gc.expiry) is int for gc in gcs)

    def test_endowment_median_matches_lognormal(self):
        rng = np.random.default_rng(123)
        draws = rng.lognormal(13.0, 1.0, 100_000)
        assert float(np.median(draws)) == pytest.approx(math.exp(13.0), rel=0.02)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(gc_arrival_rate=-1.0)


class TestTotalEndowment:
    def test_empty(self):
        assert total_endowment([]) == 0.0

    def test_single_active(self):
        assert total_endowment([GrowthCapitalist(endowment=5e6, expiry=12)]) == 5e6

    def test_expiry_month_excluded(self):
        # Residency is the engine's rule: an endowment counts in every month before its expiry.
        sim = Simulation(SimulationConfig(horizon_months=12, entry_pool_size=0, gc_arrival_rate=0.0))
        sim.gcs.append(GrowthCapitalist(endowment=5e6, expiry=12))
        for month in range(1, 13):
            sim.step(month)
        endowments = [state.total_gc_endowment for state in sim.trajectory.states]
        assert endowments == [5e6] * 11 + [0.0]

    def test_permutation_invariant(self):
        gcs = [GrowthCapitalist(endowment=e, expiry=20) for e in (1e5, 2e5, 7e5)]
        assert total_endowment(gcs) == total_endowment(list(reversed(gcs)))


class TestLlmPolicy:
    def test_scripted_yes_no(self):
        backend = ScriptedBackend({"*enter the system*": "yes", "*exit the system*": "No."})
        policy = LlmPolicy(backend)
        assert policy.decide_entry(ctx()) is True
        assert policy.decide_exit(ctx()) is False
        assert policy.fallback_count == 0

    def test_unparseable_reply_falls_back_to_heuristic(self):
        backend = ScriptedBackend({"*": "hmm, unclear"})
        policy = LlmPolicy(backend)
        enters = policy.decide_entry(ctx(revenue=2000.0, cost=1000.0))
        exits = policy.decide_exit(ctx(revenue=2000.0, cost=1000.0, tolerance=0.5))
        assert enters is True  # heuristic verdict: 2000 > 1000
        assert exits is False  # 2000 >= 500
        assert policy.fallback_count == 2

    def test_bridge_backend_equals_heuristic_decisions(self):
        policy = LlmPolicy(ScriptedBackend(heuristic_prompt_reply))
        heuristic = HeuristicPolicy()
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = ctx(
                revenue=float(rng.uniform(0, 5000)),
                cost=float(rng.uniform(500, 1500)),
                tolerance=float(rng.uniform(0.1, 1.0)),
            )
            assert policy.decide_entry(c) == heuristic.decide_entry(c)
            assert policy.decide_exit(c) == heuristic.decide_exit(c)
        assert policy.fallback_count == 0


class Recording(ScriptedBackend):
    """Scripted backend that keeps every prompt it answers and every batch size."""

    def __init__(self, script):
        super().__init__(script)
        self.prompts, self.batches = [], []

    def complete(self, request):
        self.prompts.append(request.prompt)
        return super().complete(request)

    def complete_batch(self, batch):
        self.prompts += batch.prompts
        self.batches.append(len(batch.prompts))
        return super().complete_batch(batch)


def batch_methods(policy):
    """`policy`'s batch methods by name, each called as `(revenue, costs, tolerances, month)`;
    `decide_exits` is given the thresholds `tolerances * costs`."""
    def decide_exits(revenue, costs, tolerances, month):
        return policy.decide_exits(revenue, costs, tolerances, tolerances * costs, month)

    return {"decide_entries": policy.decide_entries, "decide_exits": decide_exits}


# Nodes from a small pool, so rosters repeat pairs, share a cost across tolerances and hold
# both -0.0 and 0.0.
NODES = st.tuples(st.sampled_from([0.0, -0.0, 1000.0, 2.5e-7, 1234.5, 3e20]),
                  st.sampled_from([0.25, 0.5, 0.3333333333333333, 1.0]))


@st.composite
def roster_months(draw):
    """A run's rosters month by month: each keeps a random subset of the last in order, then
    appends entrants."""
    roster = draw(st.lists(NODES, max_size=8))
    months = [roster]
    for _ in range(draw(st.integers(1, 6))):
        kept = draw(st.lists(st.booleans(), min_size=len(roster), max_size=len(roster)))
        roster = [node for node, keep in zip(roster, kept) if keep] + draw(st.lists(NODES, max_size=4))
        months.append(roster)
    return months


class TestLlmPolicyBatch:
    REVENUES = (1234.0, 0.0, 2.5e-7, 9.87e21)

    @pytest.mark.parametrize("revenue", REVENUES)
    def test_batch_methods_equal_scalar_methods(self, revenue):
        # Integral and fractional literals, both fallbacks and parsed replies.
        costs = np.array([1000.0, 1234.5, 3e20, 0.1, 77.0, 2.5e-7])
        tolerances = np.array([0.5, 1.0, 0.3333333333333333, 0.9, 0.25, 0.75])
        script = {"*cost of 1000*": "yes", "*cost of 1234.5*": "no", "*tolerance of 0.9*": "Yes."}

        batched, single = LlmPolicy(Recording(script)), LlmPolicy(Recording(script))
        enters = batched.decide_entries(revenue, costs, tolerances, 3)
        exits = batched.decide_exits(revenue, costs, tolerances, tolerances * costs, 3)
        contexts = [ctx(revenue, c, t, 3) for c, t in zip(costs.tolist(), tolerances.tolist())]
        assert enters.tolist() == [single.decide_entry(c) for c in contexts]
        assert exits.tolist() == [single.decide_exit(c) for c in contexts]
        assert batched.backend.prompts == single.backend.prompts
        assert batched.backend.batches == [6, 6]
        assert batched.fallback_count == single.fallback_count > 0

    @pytest.mark.parametrize("method", ["decide_entries", "decide_exits"])
    def test_non_finite_quantity_raises_as_a_scalar_render_does(self, method):
        policy = LlmPolicy(Recording({}))
        tolerances = np.full(3, 0.5)
        with pytest.raises(ValueError, match="prompt quantities must be finite, got inf"):
            batch_methods(policy)[method](math.inf, np.ones(3), tolerances, 1)
        with pytest.raises(ValueError, match="got nan"):
            batch_methods(policy)[method](1.0, np.array([1.0, math.nan, math.inf]), tolerances, 1)
        assert policy.backend.batches == []

    def test_consecutive_months_equal_the_scalar_route(self, tmp_path):
        # Month 2 keeps three of month 1's nodes (exit-tail hits) and adds two (misses), one
        # with a kept cost but a new tolerance; -0.0 renders, and is keyed, as month 1's 0.0.
        months = [
            (1500.0, [(1000.0, 0.5), (2.5e-7, 0.75), (3e20, 1.0), (0.0, 0.25)]),
            (2.5e-7, [(2.5e-7, 0.75), (-0.0, 0.25), (3e20, 1.0), (1000.0, 0.9), (1234.5, 0.3333333333333333)]),
        ]
        script = {"*cost of 1000 *": "yes", "*cost of 0 *": "no", "*tolerance of 0.9*": "Yes."}
        routes = {}
        for route in ("batch", "scalar"):
            policy = LlmPolicy(Recording(script), audit_log=AuditLog(tmp_path / f"{route}.jsonl"))
            verdicts = []
            for month, (revenue, roster) in enumerate(months, start=1):
                if route == "batch":
                    costs, tolerances = (np.array(column) for column in zip(*roster))
                    verdicts += policy.decide_entries(revenue, costs, tolerances, month).tolist()
                    verdicts += policy.decide_exits(revenue, costs, tolerances, tolerances * costs, month).tolist()
                else:
                    contexts = [ctx(revenue, cost, tolerance, month) for cost, tolerance in roster]
                    verdicts += [policy.decide_entry(c) for c in contexts] + [policy.decide_exit(c) for c in contexts]
            lines = [{key: value for key, value in json.loads(line).items() if key != "latency_s"}
                     for line in policy.audit_log.path.read_text(encoding="utf-8").splitlines()]
            routes[route] = policy.backend.prompts, verdicts, policy.fallback_count, lines
        assert routes["batch"] == routes["scalar"]
        prompts, _, fallbacks, lines = routes["batch"]
        assert len(prompts) == len(lines) == 18 and 0 < fallbacks < 18
        assert "A node has a cost of 0 and a tolerance of 0.25." in prompts[-4]

    def test_exit_tails_hold_only_the_last_roster(self):
        policy = LlmPolicy(Recording({}))
        decide_exits = batch_methods(policy)["decide_exits"]
        tolerances = np.full(3, 0.5)
        decide_exits(1.0, np.array([1.0, 2.0, 3.0]), tolerances, 1)
        decide_exits(1.0, np.array([3.0, -0.0, 0.0]), tolerances, 2)
        costs, kept_tolerances, tails = policy._last_roster
        assert costs.tolist() == [3.0, -0.0, 0.0] and kept_tolerances.tolist() == [0.5] * 3
        assert tails == [prompt.split(" cost of ", 1)[1] for prompt in policy.backend.prompts[-3:]]
        for bad in (math.nan, math.inf):  # a non-finite value raises as the scalar render does
            with pytest.raises(ValueError) as batched:
                decide_exits(1.0, np.array([3.0, bad]), np.full(2, 0.5), 3)
            with pytest.raises(ValueError) as single:
                render_exit_prompt(ctx(1.0, bad, 0.5, 3))
            assert str(batched.value) == str(single.value)
            assert policy._last_roster[2] is tails  # a refused roster replaces nothing
        assert policy.backend.batches == [3, 3]

    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(roster_months(), min_size=2, max_size=2), data=st.data())
    def test_carried_tails_render_as_the_scalar_route(self, runs, data):
        # One policy across two runs.  Each month's roster is written over the last one's rows
        # of a shared table, as the engine's commit compacts its roster, and passed as views.
        policy = LlmPolicy(Recording({}))
        table = np.empty((2, 64))
        for run in runs:
            for month, roster in enumerate(run, start=1):
                table[:, :len(roster)] = np.array(roster).reshape(-1, 2).T
                costs, tolerances = table[0, :len(roster)], table[1, :len(roster)]
                del policy.backend.prompts[:]
                policy.decide_exits(month / 3, costs, tolerances, tolerances * costs, month)
                assert policy.backend.prompts == [render_exit_prompt(ctx(month / 3, cost, tolerance, month))
                                                  for cost, tolerance in roster]
        # A non-finite value after the carried prefix raises as the scalar render does.
        entrants = data.draw(st.lists(NODES, max_size=3))
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        node = data.draw(st.sampled_from([(bad, 0.5), (1000.0, bad), (bad, bad)]))
        entrants.insert(data.draw(st.integers(0, len(entrants))), node)
        costs, tolerances = np.array(roster + entrants).reshape(-1, 2).T
        batches = list(policy.backend.batches)
        with pytest.raises(ValueError) as batched:
            policy.decide_exits(1.0, costs, tolerances, tolerances * costs, 9)
        with pytest.raises(ValueError) as single:
            render_exit_prompt(ctx(1.0, *node, 9))
        assert str(batched.value) == str(single.value)
        assert policy.backend.batches == batches

    def test_a_month_that_only_appends_renders_only_its_entrants(self, monkeypatch):
        rendered = []
        monkeypatch.setattr(agents, "_literal", lambda x, _literal=agents._literal: rendered.append(x) or _literal(x))
        policy = LlmPolicy(Recording({}))
        decide_exits = batch_methods(policy)["decide_exits"]
        costs, tolerances = np.array([1000.0, 2.5e-7, 3e20, 0.0, 1234.5]), np.array([0.5, 0.75, 1.0, 0.25, 0.3])
        decide_exits(1500.0, costs[:3], tolerances[:3], 1)
        rendered.clear()
        decide_exits(1500.0, costs, tolerances, 2)
        assert rendered == [1500.0, 0.0, 0.25, 1234.5, 0.3]  # the head's revenue, then each entrant's tail
        assert policy.backend.prompts[3:] == [render_exit_prompt(ctx(1500.0, cost, tolerance, 2))
                                              for cost, tolerance in zip(costs.tolist(), tolerances.tolist())]

    def test_a_batch_builds_one_request_and_one_reply_record(self, monkeypatch):
        built = []
        for name in ("CompletionRequest", "CompletionResponse", "CompletionBatch", "BatchReplies"):
            cls = getattr(llm_gateway, name)
            monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=cls.__init__, **k: (
                built.append(type(self).__name__), _init(self, *a, **k))[1])
        policy = LlmPolicy(ScriptedBackend(heuristic_prompt_reply))
        rng = np.random.default_rng(1)
        costs, tolerances = rng.uniform(500, 1500, 1000), rng.uniform(0.1, 1.0, 1000)
        for method in batch_methods(policy).values():
            built.clear()
            method(1000.0, costs, tolerances, 1)
            assert built == ["CompletionBatch", "BatchReplies"]

    def test_scalar_methods_send_only_complete_and_batch_methods_only_complete_batch(self):
        def refusing(name):
            backend = ScriptedBackend(heuristic_prompt_reply)
            setattr(backend, name, lambda _: pytest.fail(f"{name} called"))
            return LlmPolicy(backend)

        scalar = refusing("complete_batch")
        assert scalar.decide_entry(ctx(2000.0, 1000.0, 0.5)) is True
        assert scalar.decide_exit(ctx(400.0, 1000.0, 0.5)) is True
        batched = refusing("complete")
        costs, tolerances = np.array([1000.0, 3000.0]), np.array([0.5, 0.5])
        assert batched.decide_entries(2000.0, costs, tolerances, 1).tolist() == [True, False]
        assert batched.decide_exits(1000.0, costs, tolerances, tolerances * costs, 1).tolist() == [False, True]

    def test_empty_pool_or_roster_sends_nothing(self):
        policy = LlmPolicy(Recording({}))
        for method in batch_methods(policy).values():
            assert method(math.nan, np.zeros(0), np.zeros(0), 1).tolist() == []
        assert policy.backend.batches == []
