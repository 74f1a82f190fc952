"""Tests of the benchmark harness itself (not of depinsim).

    python -m pytest -q perfbench
"""

import contextlib
import statistics

import pytest

import bench_workloads as bw
import run as bench
from bench_checks import CheckFailed, check_digest, check_invariants, sha256
from bench_clock import REFERENCE_PROBE_S, RefClock
from bench_stats import TooFewSamples, percentile
from bench_stub import serving
from bench_trace import Tracer
from depinsim import (
    CompletionRequest,
    DecisionContext,
    HttpBackend,
    SimulationConfig,
    heuristic_prompt_reply,
    render_entry_prompt,
    render_exit_prompt,
    run,
)


class TestPercentile:
    @pytest.mark.parametrize("p,enough", [(50, 20), (95, 200), (99, 1000)])
    def test_refuses_fewer_than_ten_beyond(self, p, enough):
        with pytest.raises(TooFewSamples):
            percentile(list(range(enough - 1)), p)
        percentile(list(range(enough)), p)

    def test_matches_inclusive_quantiles(self):
        samples = [((i * 7919) % 211) / 3.0 for i in range(400)]
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        assert percentile(samples, 50) == pytest.approx(cuts[49])
        assert percentile(samples, 95) == pytest.approx(cuts[94])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, recorded={"outer", "mid", "leaf"})

        def advance(dt):
            clock.now += dt

        leaf = tracer.wrap("leaf", advance)

        def mid_body():
            advance(1.0)
            leaf(0.5)
            advance(1.0)

        mid = tracer.wrap("mid", mid_body)

        def outer_body():
            advance(2.0)
            mid()
            leaf(0.25)
            mid()
            advance(3.0)

        tracer.wrap("outer", outer_body)()
        # outer: 2 + 2.5 + 0.25 + 2.5 + 3 = 10.25, of which 5.25 in children.
        assert tracer.busy("outer") == pytest.approx(10.25)
        assert tracer.self_time("outer") == pytest.approx(5.0)
        assert tracer.calls("mid") == 2
        assert tracer.busy("mid") == pytest.approx(5.0)
        assert tracer.self_time("mid") == pytest.approx(4.0)
        assert tracer.calls("leaf") == 3
        assert tracer.self_time("leaf") == pytest.approx(tracer.busy("leaf")) == pytest.approx(1.25)
        # Every recorded span names the span open when it began.
        by_id = {span[0]: span for span in tracer.spans}
        parent_names = [(name, by_id[p][1] if p >= 0 else None) for _, name, _, _, p in tracer.spans]
        assert parent_names == [
            ("leaf", "mid"), ("mid", "outer"), ("leaf", "outer"), ("leaf", "mid"), ("mid", "outer"), ("outer", None),
        ]

    def test_exception_still_closes_span(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def boom():
            clock.now += 1.0
            raise RuntimeError("x")

        outer = tracer.wrap("outer", lambda: wrapped())
        wrapped = tracer.wrap("boom", boom)
        with pytest.raises(RuntimeError):
            outer()
        assert tracer.calls("boom") == 1
        assert tracer.self_time("outer") == pytest.approx(0.0)


class TestRefClock:
    def test_rescales_host_time_by_probe_speed_and_skips_probe_time(self):
        clock = FakeClock()
        probes = iter([REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S])

        def speed_probe():
            clock.now += 5.0  # probe time must never be counted
            return next(probes)

        ref = RefClock(every=1.0, wall=clock, speed_probe=speed_probe)
        clock.now += 2.0
        assert ref.now() == pytest.approx(2.0)  # at the reference speed
        ref.sample()  # median of the last three probes is still the reference
        clock.now += 2.0
        assert ref.now() == pytest.approx(4.0)
        ref.sample()  # two slow probes out of three: half speed from here on
        ref.sample()  # under `every` seconds since the last probe: no probe
        clock.now += 2.0
        assert ref.now() == pytest.approx(5.0)
        assert ref.host_now() == pytest.approx(6.0)
        assert ref.samples == 2


class TestChecks:
    @pytest.fixture(scope="class")
    def trajectory(self):
        config = SimulationConfig(horizon_months=36, user_revenue_factor=0.0, node_cost=5000.0, gc_arrival_rate=0.5)
        return config, run(config).to_csv_string()

    def test_clean_csv_passes(self, trajectory):
        config, text = trajectory
        check_invariants("clean", text, config)
        check_digest("clean", text, sha256(text))

    def test_perturbed_row_fails_digest(self, trajectory):
        config, text = trajectory
        lines = text.splitlines(keepends=True)
        fields = lines[10].split(",")
        fields[3] = repr(float(fields[3]) * (1 + 1e-15))  # price, last digit
        perturbed = "".join(lines[:10] + [",".join(fields)] + lines[11:])
        assert perturbed != text
        with pytest.raises(CheckFailed, match="sha256"):
            check_digest("perturbed", perturbed, sha256(text))

    def test_broken_node_count_fails_invariant(self, trajectory):
        config, text = trajectory
        lines = text.splitlines(keepends=True)
        fields = lines[5].split(",")
        fields[1] = str(int(fields[1]) + 1)  # nodes
        broken = "".join(lines[:5] + [",".join(fields)] + lines[6:])
        with pytest.raises(CheckFailed, match="entries - exits"):
            check_invariants("broken", broken, config)

    def test_falling_sale_pool_and_wrong_supply_fail(self, trajectory):
        config, text = trajectory
        lines = text.splitlines(keepends=True)
        for column, match in ((8, "tokens_on_sale"), (4, "circulating_supply")):
            fields = lines[20].split(",")
            fields[column] = repr(float(fields[column]) * 0.5)
            with pytest.raises(CheckFailed, match=match):
                check_invariants("broken", "".join(lines[:20] + [",".join(fields)] + lines[21:]), config)


class TestStub:
    PROMPTS = [
        render_entry_prompt(DecisionContext(5000.0, 4200.5, 0.5, 1)),
        render_entry_prompt(DecisionContext(4000.0, 4200.5, 0.5, 1)),
        render_exit_prompt(DecisionContext(1000.0, 4000.0, 0.3, 2)),
        render_exit_prompt(DecisionContext(1300.0, 4000.0, 0.3, 2)),
        "not a decision prompt",
    ]

    def test_answers_as_heuristic_prompt_reply(self):
        with serving(heuristic_prompt_reply) as server:
            backend = HttpBackend(server.url)
            for prompt in self.PROMPTS:
                assert backend.complete(CompletionRequest(prompt=prompt)).text == heuristic_prompt_reply(prompt)
            assert server.stats() == {"requests": len(self.PROMPTS), "connections": len(self.PROMPTS), "errors": 0}

    def test_batched_prompts_answer_by_index(self):
        import requests

        with serving(heuristic_prompt_reply) as server:
            body = requests.post(server.url + "/v1/completions", json={"prompt": self.PROMPTS}, timeout=10).json()
        assert [c["index"] for c in body["choices"]] == list(range(len(self.PROMPTS)))
        assert [c["text"] for c in body["choices"]] == [heuristic_prompt_reply(p) for p in self.PROMPTS]


@pytest.mark.parametrize("name", list(bw.WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    workload = bw.WORKLOADS[name]
    with contextlib.ExitStack() as stack:
        stub = stack.enter_context(serving(heuristic_prompt_reply)) if workload.needs_stub else None
        env = bw.Env(workdir=tmp_path, url=stub.url if stub else None, max_months=12)
        tally = bench.Tally()
        measured = bench.measure(workload, env, seed=2, seconds=0, tally=tally, min_months=1)
        traced = bench.trace(workload, env, seed=2, seconds=0, tally=tally, spans_path=tmp_path / "spans.jsonl",
                             stub=stub)
    assert tally.failures == []
    assert measured["timing"].months == 12 * len(workload.make_unit(0, env).jobs)
    layers = traced["metrics"]
    assert set(bench.LAYER_METRICS) <= set(layers)
    assert layers["engine.step.calls"] == measured["timing"].months
    assert layers["agents.decide_exit.calls"] == layers["agents.apply_patience.calls"]
    if workload.needs_stub:
        decisions = layers["agents.decide_entry.calls"] + layers["agents.decide_exit.calls"]
        assert layers["llm_gateway.requests"] == layers["llm_gateway.connections"] == decisions
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
