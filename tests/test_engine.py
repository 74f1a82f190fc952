"""Engine tests: config codec, determinism, event conservation, GC lifecycle, policies."""

import builtins
import copy
import gc
import hashlib
import json
import math
import re
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from dataclasses import FrozenInstanceError, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
from numpy.random.bit_generator import ISeedSequence

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from depinsim.agents import (
    DecisionContext,
    GrowthCapitalist,
    HeuristicPolicy,
    LlmPolicy,
    heuristic_entry,
    heuristic_exit,
    heuristic_prompt_reply,
)
from depinsim import engine, streams
from depinsim.bounds import check_range, check_ranges, declared_ranges
from depinsim.cli import FileOptions
from depinsim.engine import (
    MAX_HORIZON, MAX_ROSTER, Simulation, SimulationConfig, SimulationError, Trajectory, compare, encode, run,
)
from depinsim.llm_gateway import AuditLog, LlmSettings, ScriptedBackend
from depinsim.market import MarketState
from depinsim.streams import _Words, _stream_words, spawn_growth_capitalists
from depinsim.tokenomics import (
    TEAM_SCHEDULE,
    ScheduleKind,
    TokenAllocation,
    VestingSchedule,
    circulating_supply,
)
from conftest import assert_same_csv, month_rows
from reference_model import ReferenceLlm, reference_run

# A valid config with every section present.
VALID_CONFIG = SimulationConfig(stability_window=(1, 96), llm=LlmSettings(script={"*": "no"})).to_dict()


class TestConfig:
    def test_defaults_are_a_valid_config(self):
        SimulationConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon_months": 0},
            {"initial_nodes": -1},
            {"initial_price": 0.0},
            {"node_cost": 0.0},
            {"patience": 0},
            {"cost_spread": (0.0, 1.0)},
            {"tolerance_range": (0.5, 1.5)},
            {"seed": -1},
            {"policy": "oracle"},
            {"stability_window": (0, 5)},
            {"team_fraction": 0.5},
            {"horizon_months": 12, "stability_window": (5, 500)},
            {"gc_endowment_sigma": -1.0},
            {"gc_lifespan_sigma": -1.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    def test_dict_round_trip(self):
        config = SimulationConfig(horizon_months=12, patience=3, seed=7)
        clone = SimulationConfig.from_dict(config.to_dict())
        assert clone == config

    @pytest.mark.parametrize(
        "sections",
        [
            {},
            {"team_schedule": VestingSchedule.halving(12), "node_schedule": VestingSchedule.cliff_linear(3, 0.5, 24)},
            {"llm": LlmSettings(backend="http", endpoint="http://127.0.0.1:1", script={"*": "no"}, timeout=2.5)},
            {"cost_spread": (1, 2), "stability_window": (2, 6), "horizon_months": 6},
        ],
    )
    def test_dict_round_trip_with_any_section(self, sections):
        config = SimulationConfig(**sections)
        assert SimulationConfig.from_dict(config.to_dict()) == config

    def test_a_json_integer_for_a_float_key_is_read_as_a_float(self):
        def whole_floats(cls) -> dict:
            """Each float key of `cls`, each element of a float pair too, as the least integer in its range."""
            ranges = {name: (math.ceil(r[1]), r[2]) for name, r in declared_ranges(cls).items()}
            keys = {}
            for name, hint in get_type_hints(cls).items():
                if hint is float or get_args(hint) == (float, float):
                    lo, above = ranges[name]
                    least = lo if above(lo, lo) else lo + 1
                    keys[name] = least if hint is float else [least, least]
            return keys

        schedules = ("team_schedule", "vc_schedule", "node_schedule")
        schedule = {"kind": "cliff_linear", **whole_floats(VestingSchedule)}
        data = {**whole_floats(SimulationConfig), "team_fraction": 1, "vc_fraction": 0, "node_fraction": 0,
                "stability_window": [1, 2], "llm": whole_floats(LlmSettings), **dict.fromkeys(schedules, schedule)}
        config = SimulationConfig.from_dict(data)
        sections = [(config, SimulationConfig), (config.llm, LlmSettings)]
        sections += [(getattr(config, key), VestingSchedule) for key in schedules]
        read = [(name, getattr(section, name)) for section, cls in sections for name in whole_floats(cls)]
        assert len(read) == 15 + 2 + 3  # the top level's 13 floats and 2 pairs, llm's 2, each schedule's 1
        for name, value in read:
            assert all(type(x) is float for x in (value if isinstance(value, tuple) else (value,))), (name, value)
        assert [type(month) for month in config.stability_window] == [int, int]  # an int pair stays ints

        ints = {"horizon_months": 3, "initial_price": 1, "total_supply": 1000000000, "gc_arrival_rate": 0}
        floats = {**ints, "initial_price": 1.0, "total_supply": 1000000000.0, "gc_arrival_rate": 0.0}
        spelled_int, spelled_float = (run(SimulationConfig.from_dict(data)) for data in (ints, floats))
        assert_same_csv(spelled_int.to_csv_string(), spelled_float.to_csv_string())
        assert spelled_int.to_json() == spelled_float.to_json()
        built = SimulationConfig(initial_price=1, cost_spread=(1, 2))  # a config built in Python keeps its values
        assert type(built.initial_price) is int and [type(x) for x in built.cost_spread] == [int, int]

    def test_schedule_section_merges_or_starts_fresh_by_kind(self):
        def team(section):
            return SimulationConfig.from_dict({"team_schedule": section}).team_schedule

        assert team({"cliff_months": 5}) == replace(TEAM_SCHEDULE, cliff_months=5)
        assert team({"kind": "cliff_linear", "linear_months": 6}) == replace(TEAM_SCHEDULE, linear_months=6)
        assert team({"kind": "halving_emission"}) == VestingSchedule(ScheduleKind.HALVING_EMISSION)
        node = SimulationConfig.from_dict({"node_schedule": {"kind": "cliff_linear", "linear_months": 6}})
        assert node.node_schedule == VestingSchedule.cliff_linear(0, 0.0, 6)

    def test_schedule_writes_and_accepts_only_its_kinds_fields(self):
        data = SimulationConfig(team_schedule=VestingSchedule.halving(12)).to_dict()
        assert data["team_schedule"] == {"kind": "halving_emission", "halving_period_months": 12}
        assert data["vc_schedule"] == {"kind": "cliff_linear", "cliff_months": 11, "unlock_at_cliff": 0.5,
                                       "linear_months": 12}
        with pytest.raises(ValueError, match="team_schedule.cliff_months"):
            SimulationConfig.from_dict({"team_schedule": {"kind": "halving_emission", "cliff_months": 5}})
        with pytest.raises(ValueError, match="node_schedule.linear_months"):
            SimulationConfig.from_dict({"node_schedule": {"linear_months": 5}})

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ValueError, match="horizon_monthss"):
            SimulationConfig.from_dict({"horizon_monthss": 96})

    def test_custom_schedules_from_config_drive_the_run(self):
        config = SimulationConfig.from_dict(
            {
                "horizon_months": 6,
                "entry_pool_size": 0,
                "gc_arrival_rate": 0.0,
                "team_schedule": {"kind": "cliff_linear", "cliff_months": 2,
                                  "unlock_at_cliff": 0.1, "linear_months": 12},
                "node_schedule": {"kind": "halving_emission", "halving_period_months": 24},
            }
        )
        assert config.team_schedule.cliff_months == 2
        assert config.node_schedule.halving_period_months == 24
        trajectory = run(config)
        expected = circulating_supply(
            6, TokenAllocation(), config.team_schedule, config.vc_schedule, config.node_schedule
        )
        assert trajectory.states[-1].circulating_supply == pytest.approx(expected, rel=1e-9)

    def test_unknown_schedule_key_rejected(self):
        with pytest.raises(ValueError, match="cliff_month"):
            SimulationConfig.from_dict({"team_schedule": {"cliff_month": 3}})

    def test_llm_policy_requires_llm_section(self):
        # A config built in code is checked as one read from a file is, before build_policy reads its llm section.
        for build in (lambda: SimulationConfig.from_dict({"policy": "llm"}), lambda: SimulationConfig(policy="llm")):
            with pytest.raises(ValueError, match="policy 'llm' requires an llm config section"):
                build()

    @pytest.mark.parametrize("config,key", [(SimulationConfig(), "patience"), (LlmSettings(), "timeout"),
                                            (FileOptions(), "out_dir")])
    def test_a_config_is_never_changed_after_its_checks(self, config, key):
        # Frozen: a config is checked once, when it is built, so no later assignment can make it invalid.
        with pytest.raises(FrozenInstanceError):
            setattr(config, key, getattr(config, key))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy must be 'heuristic' or 'llm', got 'random'"):
            SimulationConfig.from_dict({"policy": "random"})

    @pytest.mark.parametrize("cls", [SimulationConfig, LlmSettings, VestingSchedule, TokenAllocation])
    def test_every_numeric_field_declares_its_range(self, cls):
        # stability_window is Optional; its range is the cross-field rule 1 <= first <= last <= horizon.
        numeric = {name for name, hint in get_type_hints(cls).items()
                   if hint in (int, float) or get_origin(hint) is tuple}
        assert set(declared_ranges(cls)) == numeric

    def test_roster_cap_is_checked_at_load(self):
        pool = (MAX_ROSTER - 50) // 96
        SimulationConfig(entry_pool_size=pool)  # built, never run
        for kwargs in ({"entry_pool_size": pool + 1}, {"initial_nodes": MAX_ROSTER + 1, "entry_pool_size": 0}):
            with pytest.raises(ValueError, match="initial_nodes \\+ horizon_months \\* entry_pool_size"):
                SimulationConfig(**kwargs)

    def test_horizon_cap_is_checked_at_load(self):
        SimulationConfig(horizon_months=MAX_HORIZON, entry_pool_size=0)  # built, never run
        with pytest.raises(ValueError, match=re.escape("horizon_months must lie in [1, 100000], got 100001")):
            SimulationConfig(horizon_months=MAX_HORIZON + 1, entry_pool_size=0)

    @pytest.mark.parametrize(
        "bounds,inside,outside",
        [("[0, 1]", [0, 0.5, 1], [-1e-300, 1.0000000000000002, float("nan")]),
         ("(0, inf)", [5e-324, sys.float_info.max], [0.0, float("inf"), float("nan")])],
    )
    def test_check_ranges_honours_open_and_closed_ends(self, bounds, inside, outside):
        @dataclass
        class Probe:
            value: float = field(default=0.0, metadata={"range": bounds})

        for value in inside:
            check_ranges(Probe(value))
            check_range(Probe, "value", value)
        for value in outside:
            with pytest.raises(ValueError, match=f"value must lie in {re.escape(bounds)}"):
                check_ranges(Probe(value))
            with pytest.raises(ValueError, match=f"value must lie in {re.escape(bounds)}"):
                check_range(Probe, "value", value)

    def test_check_range_names_a_field_without_a_range(self):
        check_range(SimulationConfig, "cost_spread", (0.5, 1e8))  # a tuple's range holds for each element
        with pytest.raises(ValueError, match=re.escape("cost_spread must lie in (0, 1e8], got (0.5, 200000000.0)")):
            check_range(SimulationConfig, "cost_spread", (0.5, 2e8))
        for name in ("nope", "model_name"):  # undeclared, and a field that declares no range
            with pytest.raises(KeyError, match=f"^'{name}'$"):
                check_range(LlmSettings, name, 1)


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's builtin `sum`: floats are added with Neumaier compensation."""
    total, compensation = start, 0.0
    for item in iterable:
        if type(total) is float and type(item) is float:
            t = total + item
            compensation += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
            total = t
        else:
            total = total + item
    if type(total) is float and compensation and math.isfinite(compensation):
        total += compensation
    return total


@st.composite
def stream_calls(draw):
    """One to four (month, channel) calls on one stream source.  The months lie within
    1,000 in nine examples of ten and up to MAX_HORIZON in the tenth: a source built to
    the bound hashes 300,003 columns, about 30 ms, so every example going there would
    multiply the test's runtime."""
    top = draw(st.sampled_from([1000] * 9 + [MAX_HORIZON]))
    return draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, 2)), min_size=1, max_size=4))


class TestDeterminism:
    def test_trajectory_does_not_depend_on_builtin_sum(self, monkeypatch):
        config = SimulationConfig(seed=0)
        expected = run(config).to_csv_string()
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert_same_csv(run(config).to_csv_string(), expected)

    def test_same_seed_same_bytes(self, small_config):
        first = run(small_config)
        second = run(small_config)
        assert_same_csv(second.to_csv_string(), first.to_csv_string())
        assert first.to_json() == second.to_json()

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**70) | st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**200]),
        calls=stream_calls(),
    )
    @example(seed=2**200, calls=[(0, 0), (1, 1), (MAX_HORIZON, 2)])
    def test_stream_words_equal_the_tuple_entropy(self, seed, calls):
        # One source seeded up to the latest month called.  This pins NumPy's
        # seeding: a NumPy that seeds PCG64 differently fails here.
        words = _stream_words(seed, max(month for month, _ in calls))
        for month, channel in calls:
            expected = np.random.default_rng(np.random.SeedSequence((seed, month, channel)))
            rng = np.random.Generator(np.random.PCG64(_Words(words[month, channel])))
            assert rng.bit_generator.state == expected.bit_generator.state
            assert rng.uniform() == expected.uniform()
            assert rng.poisson(3.0) == expected.poisson(3.0)
            assert rng.lognormal(0.5, 1.5) == expected.lognormal(0.5, 1.5)

    def test_months_seed_one_generator_per_stream_without_hashing(self, monkeypatch):
        # The run's build takes the initial roster's candidates from one PCG64 and, at the
        # default pool of 10, every month's from one vectorised pass (`_pcg_outputs`); it draws
        # every month's growth capital in one vectorised pass too (`_gc_draws`), after reading
        # NumPy's ziggurat tables through one probe PCG64 in one Generator, once per process
        # (`_ziggurat`).  Each month the pass marks is drawn there as well, by one PCG64 in one
        # Generator; a month builds nothing while it steps.  All of it is `streams.draw_run`'s.  Every
        # PCG64 is seeded from words, hashed in one pass when the run is built or zeros for the probe,
        # never through a SeedSequence.
        hashed = []
        seed_state = streams._seed_state

        def counted_seed_state(entropy):
            hashed.append([len(row) for row in entropy])
            return seed_state(entropy)

        monkeypatch.setattr(streams, "_seed_state", counted_seed_state)
        spawned = []
        spawn = streams.spawn_growth_capitalists

        def counted_spawn(month, config, rng):
            spawned.append(month)
            return spawn(month, config, rng)

        monkeypatch.setattr(streams, "spawn_growth_capitalists", counted_spawn)
        built = []
        hashing = (int, np.random.SeedSequence)  # seeds PCG64 would hash itself

        def counted(name):
            real = getattr(np.random, name)

            def build(*args, **kwargs):
                built.append(name)
                if name == "PCG64":
                    assert isinstance(args[0], ISeedSequence) and not isinstance(args[0], hashing)
                return real(*args, **kwargs)

            return build

        for name in ("SeedSequence", "PCG64", "Generator", "default_rng"):
            monkeypatch.setattr(np.random, name, counted(name))
        config = SimulationConfig(horizon_months=600, seed=3)
        streams._ziggurat.cache_clear()
        Simulation(config)
        marked = list(spawned)
        # The roster's, then the probe's, then one per marked month's.
        assert built == ["PCG64", "PCG64", "Generator"] + ["PCG64", "Generator"] * len(marked)
        built.clear()
        spawned.clear()
        sim = Simulation(config)
        assert built == ["PCG64"] + ["PCG64", "Generator"] * len(marked)  # the probe's tables are cached
        assert spawned == marked
        spawned.clear()
        for month in range(1, 601):
            built.clear()
            sim.step(month)
            assert not built
        assert not spawned
        monkeypatch.undo()
        # Every month's arrival count is its own stream's Poisson draw.  The months the build drew one by
        # one are those the vectorised pass marks: a Poisson run that outlasts the uniforms computed, or a
        # normal off the ziggurat's certified fast path.  Every month without an arrival is drawn by the pass.
        draws = [np.random.default_rng(np.random.SeedSequence((3, month, 2))).poisson(config.gc_arrival_rate)
                 for month in range(1, 601)]
        assert [len(sim._arrivals(month)) for month in range(1, 601)] == draws
        uniforms = streams._poisson_uniforms(config.gc_arrival_rate)
        words = _stream_words(3, 600)[:, 2]

        def marks(month, count):
            raw = np.random.PCG64(_Words(words[month])).random_raw(3 * count + 1)[count + 1:]
            return count >= uniforms or not streams._normals(raw, *streams._ziggurat())[1].all()

        assert marked == [month for month, count in enumerate(draws, start=1) if marks(month, count)]
        assert set(marked).isdisjoint(month for month, count in enumerate(draws, start=1) if count == 0)
        assert 0 < len(marked) < sum(count > 0 for count in draws) < 600
        assert sim._arrivals.func is streams._taken  # slices of the build's arrays: the run keeps no stream words
        # Words (seed, month, channel); the seed's one row is shared by every column,
        # one column per month and channel.
        assert hashed == [[1, 601 * 3, 601 * 3]] * 2

    @pytest.mark.parametrize("pool, builds", [(streams._VECTOR_POOL_MAX, 1), (streams._VECTOR_POOL_MAX + 1, 1 + 24)])
    def test_only_pools_beyond_the_switch_build_a_generator_a_month(self, monkeypatch, pool, builds):
        # Up to the switch every month's pool is computed in one pass and only the initial
        # roster builds a PCG64; beyond it each month's pool builds its own.  Growth capital's
        # months that its vectorised pass marks build one each, whatever the pool.
        built, spawned = [], []
        real, spawn = np.random.PCG64, streams.spawn_growth_capitalists

        def counted(*args, **kwargs):
            built.append("PCG64")
            return real(*args, **kwargs)

        def counted_spawn(month, config, rng):
            spawned.append(month)
            return spawn(month, config, rng)

        monkeypatch.setattr(np.random, "PCG64", counted)
        monkeypatch.setattr(streams, "spawn_growth_capitalists", counted_spawn)
        streams._ziggurat()  # the probe's tables, once per process
        built.clear()
        Simulation(SimulationConfig(horizon_months=24, entry_pool_size=pool))
        assert spawned == [5]  # at the default seed, the one month of 24 the pass marks
        assert built == ["PCG64"] * (builds + len(spawned))

    @pytest.mark.parametrize("pool, digest", [
        (16, "349b5433b9cc634a687a90b2f9f0fb8c76426ac5c3eee22ce67050ba7921ce44"),
        (17, "117f27d4679f7c37de9d92c23aebd4459859c9e6875930b9609371cd3d01e55e"),
        (32, "d0e8b3d473a6ad5d74094f29a9515dca7b72c62d464bd4fd065048ecd579b7ca"),
        (33, "5c210fb2cff5ee8c8f30e92c514132fcfc729fb3a15d80a2c7839cafdca98c8b"),
    ])
    def test_runs_either_side_of_the_pool_switch_keep_their_bytes(self, pool, digest):
        # Digests taken with every month's pool drawn by its own PCG64.  Nodes enter and leave,
        # so the draws reach the bytes; pools 16, 17 and 32 are each computed in two or three chunks.
        config = SimulationConfig(seed=7, horizon_months=300, entry_pool_size=pool, user_revenue_factor=0.0,
                                  node_cost=5000.0, gc_arrival_rate=0.5)
        assert hashlib.sha256(run(config).to_csv_string().encode()).hexdigest() == digest

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**200) | st.sampled_from([0, 2**64, 2**200]),
        calls=stream_calls(),
        count=st.integers(1, 2 * streams._VECTOR_POOL_MAX + 1),
    )
    @example(seed=2**200, calls=[(0, 0), (1, 2), (MAX_HORIZON, 1)], count=2 * streams._VECTOR_POOL_MAX + 1)
    def test_pcg_outputs_equal_numpys_raw_words(self, seed, calls, count):
        # Row i is the first `count` raw words of the stream seeded by row i, bit for bit.
        words = _stream_words(seed, max(month for month, _ in calls))
        rows = np.array([words[month, channel] for month, channel in calls])
        outputs = streams._pcg_outputs(rows, count)
        assert outputs.dtype == np.uint64 and outputs.shape == (len(calls), count)
        for row, output in zip(rows, outputs):
            assert output.tolist() == np.random.PCG64(_Words(row)).random_raw(count).tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**200) | st.sampled_from([0, 2**64, 2**200]),
        calls=stream_calls(),
    )
    @example(seed=2**200, calls=[(0, 0), (1, 2), (MAX_HORIZON, 2)])
    def test_arrival_counts_equal_numpys_poisson_draws(self, seed, calls):
        # Below a mean of 10, where NumPy multiplies uniforms, a stream's count is its
        # `poisson(rate)` unless its Poisson run outlasts the uniforms computed, when it is
        # marked; a count of 0 is exactly a draw of 0, even from the first uniform alone.
        # From 10 on, where NumPy samples by PTRS, every month draws from its own generator.
        words = _stream_words(seed, max(month for month, _ in calls))
        rows = np.array([words[month, channel] for month, channel in calls])

        def rng(month, channel):
            return np.random.default_rng(np.random.SeedSequence((seed, month, channel)))

        for rate in (0.0, 5e-324, 0.5, 1.0, math.nextafter(10, 0)):
            draws = [int(rng(*call).poisson(rate)) for call in calls]
            for uniforms in {1, streams._poisson_uniforms(rate)}:
                counts, outlasted = streams._arrival_counts(streams._pcg_outputs(rows, uniforms), rate)
                assert counts.dtype.kind in "iu" and outlasted.dtype == bool
                for count, marked, draw in zip(counts.tolist(), outlasted.tolist(), draws):
                    assert draw >= uniforms if marked else count == draw
                    assert (count == 0) == (draw == 0)
        every_month = words[:, 2]  # at 10 some months' first uniforms lie below exp(-10)
        for rate in (10.0, 1000.0):
            config = SimulationConfig(seed=seed, horizon_months=max(len(every_month) - 1, 1), initial_nodes=0,
                                      entry_pool_size=0, gc_arrival_rate=rate)
            arrivals = streams.draw_run(config, np.empty((3, 0)))
            assert arrivals.func is streams._spawned
            assert arrivals.args[0][:len(every_month)].tobytes() == every_month.tobytes()

    @pytest.mark.parametrize("rate, digest", [
        (0.0, "d7f1cf512551aa1c996a4145d9842ab409cc239ec18080198a12430e69f4d4b0"),
        (0.5, "5d979808f2e9af763490dedae070defa245f429d1cc750913cb8caa49e49e48f"),
        (math.nextafter(10, 0), "49b43368d143e7ea67534da5b65ec5be12f3ba02e09c57fd2958c95f81aea2d3"),
        (10.0, "b05348f164c3e73bbe7013609599737ae2c78db94e378ad69e9fc9c9fb0287d6"),
        (40.0, "0b5afb925184f50e61eac8456d0c13e329179dda9e6e4e6343a5f45e253c682b"),
    ])
    def test_runs_either_side_of_the_poisson_switch_keep_their_bytes(self, rate, digest):
        # Digests taken with every month building its growth-capital generator: skipping the
        # months with no arrival, below a mean of 10 only, writes the same bytes.
        config = SimulationConfig(seed=7, horizon_months=120, gc_arrival_rate=rate)
        assert hashlib.sha256(run(config).to_csv_string().encode()).hexdigest() == digest

    @pytest.mark.parametrize("kwargs, kind, digest", [
        ({"seed": 32}, "outlasts", "b5805c7dacb046348b901fa2aa965d7d686454cf113381c1a3acb46138b099da"),
        ({"seed": 11, "gc_arrival_rate": 3.0, "gc_endowment_sigma": 2.5}, "slow normal",
         "d19aa89e70c72418bf510ddf596476b48d0b91d262b896cefe89c8cf40efed1b"),
    ])
    def test_runs_with_fallback_months_keep_their_bytes(self, monkeypatch, kwargs, kind, digest):
        # Digests taken with every month building its growth-capital generator.  Each run holds
        # months that the build's vectorised pass marks, and then draws from their own generators:
        # at seed 32, month 105, whose Poisson run outlasts the 7 uniforms computed at the default
        # rate; at seed 11, months with a normal off the ziggurat's certified fast path.
        config = SimulationConfig(horizon_months=120, **kwargs)
        marked = []
        spawn = streams.spawn_growth_capitalists

        def counted_spawn(month, config, rng):
            marked.append(month)
            return spawn(month, config, rng)

        monkeypatch.setattr(streams, "spawn_growth_capitalists", counted_spawn)
        assert Simulation(config)._arrivals.func is streams._taken  # every month drawn at build
        monkeypatch.undo()
        uniforms = streams._poisson_uniforms(config.gc_arrival_rate)
        kinds = {"outlasts" if rng.poisson(config.gc_arrival_rate) >= uniforms else "slow normal"
                 for rng in (np.random.default_rng(np.random.SeedSequence((config.seed, month, 2)))
                             for month in marked)}
        assert kind in kinds
        assert hashlib.sha256(run(config).to_csv_string().encode()).hexdigest() == digest

    def test_seed_words_are_shared_not_copied_per_month(self):
        # 10**4299 has the most digits `int` parses, 447 words; at the bound its streams
        # peak as a one-word seed's do, not at 447 rows of 300,003 columns (537 MB).
        peaks = []
        for seed in (0, 10**4299):
            tracemalloc.start()
            _stream_words(seed, MAX_HORIZON)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20

    def test_multi_word_seed_over_600_months_keeps_its_bytes(self):
        # A 3-word seed over 600 months; the digest was taken from streams built
        # with default_rng(SeedSequence((seed, month, channel))).
        config = SimulationConfig(seed=2**70 + 1, horizon_months=600, entry_pool_size=1,
                                  user_revenue_factor=0.0, node_cost=5000.0, gc_arrival_rate=0.5)
        digest = hashlib.sha256(run(config).to_csv_string().encode()).hexdigest()
        assert digest == "ea7d2334f79ddd0b3d72dd2dd930a444be21ca5a3fba1410c8472f330873cbce"

    def test_different_seed_different_trajectory(self):
        a = run(SimulationConfig(horizon_months=24, seed=1))
        b = run(SimulationConfig(horizon_months=24, seed=2))
        assert a.to_csv_string() != b.to_csv_string()


class Recording(HeuristicPolicy):
    """The heuristic policy, keeping a copy of each month's candidate pool and whether it could be written."""

    def __init__(self):
        self.pools = []

    def decide_entries(self, revenue, costs, tolerances, month):
        self.pools.append((costs.copy(), tolerances.copy(), costs.flags.writeable or tolerances.flags.writeable))
        return super().decide_entries(revenue, costs, tolerances, month)


def spreads(top):
    """A (lo, hi) range within (0, top], its ends sometimes equal and sometimes at the top."""
    ends = st.floats(0.0, top, exclude_min=True) | st.just(top)
    return st.lists(ends, min_size=1, max_size=2).map(lambda xs: (min(xs), max(xs)))


class TestCandidateTable:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70) | st.sampled_from([2**64, 2**200]),
        pool=st.sampled_from([0, 1, 7, 16, 17, 32, 33, 100]) | st.integers(0, 15),
        initial=st.sampled_from([0, 1, 9, 100]),
        horizon=st.integers(1, 4),
        node_cost=st.floats(1e-300, 1e300) | st.just(1e300),
        cost_spread=spreads(1e8),
        tolerance_range=spreads(1.0),
    )
    @example(seed=2**200, pool=100, initial=100, horizon=2, node_cost=1e300, cost_spread=(1e8, 1e8),
             tolerance_range=(1.0, 1.0))
    # Pools computed in one pass over three chunks of words, the last one partial.
    @example(seed=2**64, pool=streams._VECTOR_POOL_MAX, initial=9,
             horizon=2 * streams._CHUNK_OUTPUTS // (2 * streams._VECTOR_POOL_MAX) + 3, node_cost=1000.0,
             cost_spread=(0.8, 1.2), tolerance_range=(0.3, 0.9))
    def test_pools_and_initial_roster_equal_numpys_uniform_draws(
            self, seed, pool, initial, horizon, node_cost, cost_spread, tolerance_range):
        # Bit for bit, each stream's draws are `node_cost * rng.uniform(lo, hi, n)`, then
        # `rng.uniform(tlo, thi, n)`: this pins the table's conversion to NumPy's own.
        config = SimulationConfig(seed=seed, entry_pool_size=pool, initial_nodes=initial, horizon_months=horizon,
                                  node_cost=node_cost, cost_spread=cost_spread, tolerance_range=tolerance_range)

        def drawn(month, channel, count):
            rng = np.random.default_rng(np.random.SeedSequence((seed, month, channel)))
            return node_cost * rng.uniform(*cost_spread, count), rng.uniform(*tolerance_range, count)

        policy = Recording()
        sim = Simulation(config, policy=policy)
        expected_cost, expected_tolerance = drawn(0, 0, initial)
        assert sim.cost.tobytes() == expected_cost.tobytes()
        assert sim.tolerance.tobytes() == expected_tolerance.tobytes()
        for month in range(1, horizon + 1):
            sim.step(month)
        assert len(policy.pools) == horizon
        for month, (costs, tolerances, writeable) in enumerate(policy.pools, start=1):
            expected_cost, expected_tolerance = drawn(month, 1, pool)
            assert costs.tobytes() == expected_cost.tobytes() and tolerances.tobytes() == expected_tolerance.tobytes()
            assert not writeable

    def test_build_converts_the_largest_table_in_place(self):
        # The largest admitted roster: 1,000,000 slots, all of them candidates.  The run keeps
        # its node table (33 B a slot: cost, tolerance and exit threshold at 8 B each, the two
        # int32 run slots at 4 B each and the stay mask at 1 B), its arrivals drawn at the default
        # rate (about 100,000 at 12 B each, and a 4 B offset a month) and its releases and supply
        # (about 64 B a month): 41.0 MB (39.1 MiB).  No month draws while it steps, so the run keeps
        # no stream words.
        # A separate candidate table (16 B a slot) would add 16 MB to what the run holds,
        # converting the table's raw words through a copy 16 MB to the build's peak, and
        # keeping every channel's stream words (96 B a month) 9.6 MB to what the run holds.
        config = SimulationConfig(initial_nodes=0, horizon_months=MAX_HORIZON, entry_pool_size=10)
        tracemalloc.start()
        try:
            sim = Simulation(config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 70 * 2**20
        assert held < 42 * 2**20
        assert sim._arrivals.func is streams._taken
        # From a rate of 10 every month draws while it steps: the run keeps growth capital's words alone.
        assert Simulation(replace(config, gc_arrival_rate=10.0))._arrivals.args[0].nbytes == (MAX_HORIZON + 1) * 32

    def test_growth_capital_draws_hold_their_temporaries_to_chunks(self):
        # The longest run at the highest rate the build draws.  Computed at once, its 7,000,000 raw
        # outputs (70 a month) would take 56 MB a row, and the pass's 128-bit temporaries several
        # times that: the build then peaks at 537 MiB.  In chunks of _CHUNK_OUTPUTS outputs the pass
        # peaks at about 22 MiB: the arrivals, about 1,000,000 at 12 B each (a float64 endowment, a
        # uint32 expiry, each chunk's expiries narrowed before they are joined), and a copy of the
        # endowments while their chunks are joined.  That lies below the 25 MiB at which the build
        # hashes every stream's words.  The run holds 18.0 MiB, a uint32 offset a month among it.  About
        # 26% of months are marked by the pass and drawn one by one after it; the build takes about
        # 0.9 s (shared 2-vCPU Xeon, NumPy 2.4.6).
        config = SimulationConfig(initial_nodes=0, horizon_months=MAX_HORIZON, entry_pool_size=0,
                                  gc_arrival_rate=math.nextafter(10, 0))
        streams._ziggurat()  # the probe's tables, once per process
        tracemalloc.start()
        try:
            sim = Simulation(config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sim._arrivals.func is streams._taken
        offsets, endowments, expiries = sim._arrivals.args
        assert abs(len(endowments) - config.gc_arrival_rate * MAX_HORIZON) < 5_000  # 5 standard deviations
        assert offsets[-1] == len(endowments) == len(expiries)
        assert endowments.obj.dtype == np.float64 and expiries.obj.dtype == offsets.obj.dtype == np.uint32
        assert held < 19 * 2**20
        assert peak < 28 * 2**20


class TestGrowthCapitalDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**200),
        rate=st.floats(0.0, 1000.0),
        endowment=st.tuples(st.sampled_from([0.0, 100.0]), st.sampled_from([0.0, 2.5])),
        lifespan=st.tuples(st.sampled_from([0.0, 10.0]), st.sampled_from([0.0, 2.5])),
        horizon=st.integers(1, 40),
    )
    @example(seed=7, rate=0.0, endowment=(100.0, 2.5), lifespan=(10.0, 2.5), horizon=40)
    @example(seed=2**200, rate=5e-324, endowment=(0.0, 0.0), lifespan=(0.0, 0.0), horizon=40)
    @example(seed=0, rate=0.5, endowment=(100.0, 2.5), lifespan=(10.0, 2.5), horizon=40)
    @example(seed=1, rate=1.0, endowment=(0.0, 2.5), lifespan=(10.0, 0.0), horizon=40)
    @example(seed=2**64, rate=math.nextafter(10, 0), endowment=(100.0, 2.5), lifespan=(0.0, 2.5), horizon=40)
    @example(seed=2**64, rate=10.0, endowment=(100.0, 2.5), lifespan=(0.0, 2.5), horizon=40)
    @example(seed=5, rate=1000.0, endowment=(0.0, 2.5), lifespan=(10.0, 2.5), horizon=12)
    # Every lifespan exp(log(2.5)) = 2.5, which rounds half to even, to 2 months.
    @example(seed=3, rate=5.0, endowment=(13.0, 1.0), lifespan=(math.log(2.5), 0.0), horizon=12)
    def test_each_months_arrivals_equal_numpys_draws(self, seed, rate, endowment, lifespan, horizon):
        # Bit for bit, at every rate, each month's arrivals are those `spawn_growth_capitalists` draws
        # from that month's own stream, its endowments and expiries in order.  Below a rate of 10 the
        # build draws them all into flat arrays, which hold no arrival of any other month.
        config = SimulationConfig(seed=seed, horizon_months=horizon, entry_pool_size=0, gc_arrival_rate=rate,
                                  gc_endowment_mu=endowment[0], gc_endowment_sigma=endowment[1],
                                  gc_lifespan_mu=lifespan[0], gc_lifespan_sigma=lifespan[1])
        sim = Simulation(config)
        for month in range(1, horizon + 1):
            rng = np.random.default_rng(np.random.SeedSequence((seed, month, 2)))
            expected = [(gc.endowment, gc.expiry) for gc in spawn_growth_capitalists(month, config, rng)]
            assert [(gc.endowment, gc.expiry) for gc in sim._arrivals(month)] == expected
        if 0 < rate < 10:
            assert sim._arrivals.func is streams._taken
            offsets, endowments, expiries = sim._arrivals.args
            assert offsets[horizon] == len(endowments) == len(expiries)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        rate=st.floats(0.0, 10.0, exclude_max=True),
        sigmas=st.tuples(st.floats(0.0, 2.5), st.floats(0.0, 2.5)),
        horizon=st.integers(1, 60),
    )
    @example(seed=11, rate=math.nextafter(10, 0), sigmas=(2.5, 2.5), horizon=60)
    @example(seed=0, rate=9.99, sigmas=(2.5, 2.5), horizon=60)
    def test_no_month_draws_while_it_steps(self, seed, rate, sigmas, horizon):
        # Below a rate of 10 the build draws every month's growth capital, so stepping builds
        # no generator, draws no arrival, and the run keeps no stream words.
        config = SimulationConfig(seed=seed, horizon_months=horizon, gc_arrival_rate=rate,
                                  gc_endowment_sigma=sigmas[0], gc_lifespan_sigma=sigmas[1])
        sim = Simulation(config)
        assert getattr(sim._arrivals, "func", None) is not streams._spawned  # which keeps the stream words
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("PCG64", "Generator"):
                patch.setattr(np.random, name, lambda *args, name=name: calls.append(name))
            patch.setattr(streams, "spawn_growth_capitalists", lambda *args: calls.append("spawn"))
            for month in range(1, horizon + 1):
                sim.step(month)
        assert calls == []

    def test_a_month_padded_to_300_arrivals_is_drawn_at_build(self, monkeypatch):
        # No rate below 10 draws so many, so the draw is padded here: month 5, the one month of 24 the
        # pass marks at the default seed, draws its own arrivals then 300 more.  It is drawn at build as
        # any marked month is, its count held in the offsets, which widen to 16 bits; every other month
        # is unchanged, and stepping builds no generator.
        spawn = streams.spawn_growth_capitalists

        def padded(month, config, rng):
            return spawn(month, config, rng) + [GrowthCapitalist(1.0, month + 1) for _ in range(300)]

        config = SimulationConfig(horizon_months=24)
        expected = Simulation(config)
        monkeypatch.setattr(streams, "spawn_growth_capitalists", padded)
        sim = Simulation(config)
        assert sim._arrivals.args[0].obj.dtype == np.uint16
        for month in range(1, 25):
            extra = [GrowthCapitalist(1.0, 6)] * 300 * (month == 5)
            assert sim._arrivals(month) == expected._arrivals(month) + extra
        calls = []
        for name in ("PCG64", "Generator"):
            monkeypatch.setattr(np.random, name, lambda *args, name=name: calls.append(name))
        for month in range(1, 25):
            sim.step(month)
            assert sim.trajectory.events[-1].gc_arrivals == len(expected._arrivals(month)) + 300 * (month == 5)
        assert calls == []

    def test_the_probed_tables_certify_under_the_installed_numpy(self):
        # Every strip but strip 1, which never takes the fast path, has a certified limit, so the
        # fast path is on: about 98.5% of raw words take it.  At each strip's edges, a word certified
        # fast gives NumPy's normal from that word alone, and a word at the limit is not certified.
        wi, ki = streams._ziggurat()
        assert ki[1] == 0 and np.count_nonzero(ki) == 255 and np.all(wi > 0)
        assert not wi.flags.writeable and not ki.flags.writeable
        raw = np.random.PCG64(_Words(np.arange(4, dtype=np.uint64))).random_raw(100_000)
        assert 0.98 < streams._normals(raw, wi, ki)[1].mean() < 0.99

        probe = np.random.PCG64(_Words(np.zeros(4, dtype=np.uint64)))
        state = probe.state
        words = [rabs << 9 | sign << 8 | strip for strip, limit in enumerate(ki.tolist())
                 for rabs in {1, max(limit - 1, 1), max(limit, 1)} for sign in (0, 1)]
        z, fast = streams._normals(np.array(words, dtype=np.uint64), wi, ki)
        for word, value, certified in zip(words, z.tolist(), fast.tolist()):
            assert certified == (word >> 9 < ki[word & 0xFF])
            if certified:  # the word is the next raw output: the state before it steps to it
                state["state"] = {"state": (word - 1) * streams._PCG_MULT_INV % 2**128, "inc": 1}
                probe.state = state
                assert np.random.Generator(probe).standard_normal() == value
                assert probe.state["state"]["state"] == word  # one word read


class TestRecords:
    def test_a_long_runs_rows_take_under_350_bytes_a_month(self):
        # A month commits one 15-field tuple and the numbers only it holds: about 320 B a month.
        # One MarketState and one MonthEvents a month took about 360 B.
        months = 20_000
        sim = Simulation(SimulationConfig(horizon_months=months, entry_pool_size=0, gc_arrival_rate=0))
        tracemalloc.start()
        try:
            built = tracemalloc.get_traced_memory()[0]
            for month in range(1, months + 1):
                sim.step(month)
            held = tracemalloc.get_traced_memory()[0] - built
        finally:
            tracemalloc.stop()
        assert sim.state.month == months
        assert held / months < 350

    def test_a_long_runs_records_take_under_400_bytes_a_month(self):
        # The records `states` and `events` build when read: one MarketState and one MonthEvents
        # a month, both slotted, and the floats they hold, about 380 B a month.  As
        # `__dict__`-backed dataclasses they took 480 B.
        months = 5000
        config = SimulationConfig(initial_nodes=0, horizon_months=months, entry_pool_size=10,
                                  node_cost=1e300, gc_arrival_rate=0)
        tracemalloc.start()
        try:
            sim = Simulation(config)
            for month in range(1, months + 1):
                sim.step(month)
            records = sim.trajectory.states, sim.trajectory.events
            del sim
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(records[0]) == len(records[1]) == months
        assert held / months < 400

    def test_records_are_slotted_and_still_replace_and_serialise(self, small_config):
        trajectory = run(small_config)
        state, events = trajectory.states[0], trajectory.events[0]
        assert not hasattr(state, "__dict__") and not hasattr(events, "__dict__")
        assert replace(state, month=7).month == 7 and replace(events, exits=3).exits == 3
        assert json.loads(trajectory.to_json())["states"][0] == asdict(state)

    @pytest.mark.parametrize("config,digest", [
        (SimulationConfig(), "701cb8a6fdec7b8396a232900f3505ac47b8ee0ca58889827c9059347e865d3d"),
        # No growth capital: every month's E_total is the int 0, written as 0, not 0.0.
        (SimulationConfig(horizon_months=24, gc_arrival_rate=0.0),
         "c29564d314a297b42d8cf2c28e62df77ffc267fa9e3a7ee65fe0acb4aa6f1a57"),
    ], ids=["defaults", "no-growth-capital"])
    def test_to_json_keeps_its_bytes(self, config, digest):
        assert hashlib.sha256(run(config).to_json().encode()).hexdigest() == digest

    def test_a_row_holds_the_states_fields_then_the_events_after_month(self, small_config):
        assert engine.ROW_FIELDS == (*(f.name for f in fields(MarketState)), "entries", "exits", "gc_arrivals",
                                     "gc_expiries", "fallbacks")
        assert engine.ROW_FIELDS[engine._FLOATS] == engine._STATE_FLOATS  # the floats step() checks, in order
        sim = Simulation(small_config)
        assert sim.step(1) is None
        rows = sim.trajectory.month_rows
        assert Trajectory(month_rows(sim.trajectory.states, sim.trajectory.events), small_config).month_rows == rows

    def test_record_reads_are_copies(self):
        config = SimulationConfig(horizon_months=12, seed=3, patience=2, **CHURN)
        sim, twin = Simulation(config), Simulation(config)
        for month in range(1, 7):
            sim.step(month)
            twin.step(month)
        trajectory = run(config)
        csv = trajectory.to_csv_string()
        stepped = sim.trajectory
        for records in (stepped.states, stepped.events, trajectory.states, trajectory.events):
            records.append(records[0])
            records.clear()
        for record in (sim.state, stepped.states[0], stepped.events[0], trajectory.states[-1], trajectory.events[-1]):
            replace(record, month=0)
        assert len(stepped.states) == len(stepped.events) == 6 and len(trajectory.states) == 12
        assert_same_csv(trajectory.to_csv_string(), csv)
        sim.step(7)
        twin.step(7)
        assert [asdict(state) for state in stepped.states] == [asdict(state) for state in twin.trajectory.states]
        assert [asdict(event) for event in stepped.events] == [asdict(event) for event in twin.trajectory.events]
        for name in ("state", "trajectory"):
            with pytest.raises(AttributeError):
                setattr(sim, name, [])
        with pytest.raises(AttributeError):
            trajectory.states = []

    def test_state_before_month_one_is_the_month_zero_seed(self):
        config = SimulationConfig(initial_nodes=7, initial_price=2.5, tokens_on_sale_fraction=0.1)
        sim = Simulation(config)
        supply = circulating_supply(1, config.allocation(), config.team_schedule, config.vc_schedule,
                                    config.node_schedule)
        assert asdict(sim.state) == {
            "month": 0, "active_nodes": 7, "users": 100.0 * math.sqrt(21), "token_price": 2.5,
            "tokens_on_sale": pytest.approx(0.1 * supply, rel=1e-12), "circulating_supply": 0.0,
            "total_gc_endowment": 0.0, "global_revenue": 0.0, "market_cap": 0.0, "diluted_market_cap": 0.0,
        }
        assert sim.trajectory.states == [] and sim.trajectory.events == []


class TestNullDynamics:
    def test_price_carries_and_nodes_hold(self, null_dynamics_config):
        trajectory = run(null_dynamics_config)
        for state in trajectory.states:
            assert state.token_price == null_dynamics_config.initial_price
            assert state.active_nodes == 50
            assert state.users == 3500.0
        assert trajectory.metrics.inclusion == 0.0
        assert trajectory.metrics.stability == 0.0

    def test_supply_follows_schedules(self, null_dynamics_config):
        trajectory = run(null_dynamics_config)
        alloc = TokenAllocation()
        for state in trajectory.states:
            assert state.circulating_supply == pytest.approx(
                circulating_supply(state.month, alloc), rel=1e-9
            )


class TestTrajectoryShape:
    def test_months_strictly_increasing(self, small_config):
        trajectory = run(small_config)
        months = [s.month for s in trajectory.states]
        assert months == list(range(1, small_config.horizon_months + 1))
        assert [e.month for e in trajectory.events] == months

    def test_event_conservation(self):
        trajectory = run(SimulationConfig(horizon_months=48, seed=3))
        nodes = 50
        for state, event in zip(trajectory.states, trajectory.events):
            nodes = nodes + event.entries - event.exits
            assert state.active_nodes == nodes

    def test_all_fields_finite_and_sane(self):
        for seed in (0, 1, 2):
            trajectory = run(SimulationConfig(horizon_months=96, seed=seed))
            previous_supply = 0.0
            for state in trajectory.states:
                for name in (
                    "users", "token_price", "tokens_on_sale", "circulating_supply",
                    "total_gc_endowment", "global_revenue", "market_cap", "diluted_market_cap",
                ):
                    value = getattr(state, name)
                    assert math.isfinite(value), (seed, state.month, name)
                    assert value >= 0.0, (seed, state.month, name)
                assert state.active_nodes >= 0
                assert state.circulating_supply >= previous_supply
                previous_supply = state.circulating_supply

    def test_csv_has_expected_columns(self, small_config):
        text = run(small_config).to_csv_string()
        header = text.splitlines()[0]
        assert header == (
            "month,nodes,users,price,circ_supply,market_cap,diluted_cap,"
            "E_total,tokens_on_sale,entries,exits,fallbacks"
        )
        assert len(text.splitlines()) == small_config.horizon_months + 1


class TestGrowthCapitalLifecycle:
    def test_expiry_moves_holdings_to_sale_once(self):
        config = SimulationConfig(horizon_months=10, entry_pool_size=0, gc_arrival_rate=0.0)
        sim = Simulation(config)
        gc = GrowthCapitalist(endowment=5e6, expiry=4, tokens_held=0.0)
        sim.gcs.append(gc)
        for month in range(1, 11):
            sim.step(month)
        states = sim.trajectory.states
        # Active through month 3: endowment counted, price = E / sale.
        assert states[0].total_gc_endowment == 5e6
        assert states[2].total_gc_endowment == 5e6
        assert states[3].total_gc_endowment == 0.0  # expires at month 4
        sale_before = states[2].tokens_on_sale
        sale_after = states[3].tokens_on_sale
        assert sale_after == sale_before  # injected GC held no tokens
        # Price carries forward once the market empties.
        assert states[3].token_price == states[2].token_price

    def test_engine_priced_holdings_feed_sale(self):
        config = SimulationConfig(
            horizon_months=12, entry_pool_size=0, gc_arrival_rate=0.0, seed=5
        )
        sim = Simulation(config)
        sim.step(1)
        price_1 = sim.state.token_price
        arrival = GrowthCapitalist(endowment=1e6, expiry=5)
        # Mimic an arrival at month 2 by injecting before the step.
        sim.gcs.append(arrival)
        sim.step(2)
        price_2 = sim.state.token_price
        arrival.tokens_held = arrival.endowment / price_2
        for month in (3, 4):
            sim.step(month)
        sale_4 = sim.trajectory.states[3].tokens_on_sale
        sale_3 = sim.trajectory.states[2].tokens_on_sale
        # Expiry at month 5 = entry 2 + lifespan 3.
        sim.step(5)
        assert sim.trajectory.states[4].tokens_on_sale == pytest.approx(sale_4 + arrival.tokens_held)
        assert sale_4 == sale_3
        assert price_1 > 0

    def test_arrivals_expiries_counted(self):
        trajectory = run(SimulationConfig(horizon_months=96, seed=11))
        arrivals = sum(e.gc_arrivals for e in trajectory.events)
        expiries = sum(e.gc_expiries for e in trajectory.events)
        assert arrivals > 0
        assert 0 < expiries <= arrivals
        sales = [s.tokens_on_sale for s in trajectory.states]
        assert all(b >= a for a, b in zip(sales, sales[1:]))  # sale pool only grows


class TestPolicyBridge:
    def test_build_policy_hands_on_the_llm_section(self, tmp_path):
        section = LlmSettings(backend="scripted", script={"*": "no"}, model_name="m-1",
                            max_tokens=7, temperature=0.25)
        log = AuditLog(tmp_path / "audit.jsonl")
        policy = engine.build_policy(SimulationConfig(policy="llm", llm=section), log)
        assert isinstance(policy, LlmPolicy) and isinstance(policy.backend, ScriptedBackend)
        assert (policy.model_name, policy.max_tokens, policy.temperature) == ("m-1", 7, 0.25)
        assert policy.audit_log is log
        assert isinstance(engine.build_policy(SimulationConfig(llm=section)), HeuristicPolicy)

    def test_one_policy_across_runs_equals_a_fresh_policy_per_run(self, tmp_path):
        # The CLI gives every LLM run of a command one policy.  The engine reads its
        # fallback count per month as a difference, and its exit tails hit only on
        # exact (cost, tolerance) keys, so sharing it changes no run.
        script = {"*enter*": "yes", "*exit*": "unclear"}  # every exit reply falls back to the heuristic
        configs = [SimulationConfig(horizon_months=24, seed=seed, patience=patience, **CHURN)
                   for seed, patience in ((7, 1), (7, 3), (7, 5), (8, 3))]
        shared = LlmPolicy(ScriptedBackend(script), audit_log=AuditLog(tmp_path / "shared.jsonl"))
        fresh_log = AuditLog(tmp_path / "fresh.jsonl")
        for config in configs:
            once = run(config, policy=shared)
            fresh = run(config, policy=LlmPolicy(ScriptedBackend(script), audit_log=fresh_log))
            assert_same_csv(once.to_csv_string(), fresh.to_csv_string())
            fallbacks = [e.fallbacks for e in once.events]
            assert fallbacks == [e.fallbacks for e in fresh.events] and sum(fallbacks) > 0
        assert exchanges(shared.audit_log) == exchanges(fresh_log) != []

    def test_unparseable_backend_falls_back_and_counts(self):
        backend = ScriptedBackend({"*": "shrug"})
        trajectory = run(
            SimulationConfig(horizon_months=12, policy="llm",
                             llm=LlmSettings(backend="scripted", script={})),
            policy=LlmPolicy(backend),
        )
        fallbacks = sum(e.fallbacks for e in trajectory.events)
        assert fallbacks > 0
        # Fallback means the heuristic stood in, so the states match; only
        # the fallback counter column differs.
        heuristic = run(SimulationConfig(horizon_months=12))
        assert trajectory.states == heuristic.states


# Demo 04's stressed regime, and a costlier variant where nodes see exit
# signals within 24 months.
STRESSED = {"user_revenue_factor": 0.0, "node_cost": 5000.0, "gc_arrival_rate": 0.5}
CHURN = {**STRESSED, "node_cost": 250_000.0}


class Forwarding:
    """Has no batch methods, so the engine calls it once per decision."""

    def decide_entry(self, ctx):
        return heuristic_entry(ctx)

    def decide_exit(self, ctx):
        return heuristic_exit(ctx)


class TestDecisionRoutes:
    """A policy whose class provides batch methods decides the pool and the
    roster as arrays; every other policy is called once per decision.
    `TestReferenceRun` checks both routes against one per-decision reference
    run; these tests and `TestPatienceRule` check what it cannot see: which
    route a policy takes, the order of its calls and the run slots."""

    def test_churn_regime_has_exits(self):
        # The reference run means something only if a regime reaches the
        # patience and compaction code.
        events = run(SimulationConfig(horizon_months=24, patience=2, **CHURN)).events
        assert sum(e.exits for e in events) > 0
        assert sum(e.entries for e in events) > 0

    def test_overriding_subclass_is_honoured(self):
        class NeverExit(HeuristicPolicy):
            def decide_exit(self, ctx):
                return False

        config = SimulationConfig(horizon_months=24, **CHURN)
        assert sum(e.exits for e in run(config).events) > 0
        assert sum(e.exits for e in run(config, policy=NeverExit()).events) == 0

    def test_overriding_llm_subclass_is_honoured(self):
        class NeverExit(LlmPolicy):
            def decide_exit(self, ctx):
                return False

        config = SimulationConfig(horizon_months=24, **CHURN)
        backend = ScriptedBackend(heuristic_prompt_reply)
        assert sum(e.exits for e in run(config, policy=LlmPolicy(backend)).events) > 0
        assert sum(e.exits for e in run(config, policy=NeverExit(backend)).events) == 0

    def test_batch_only_policy_takes_the_batch_route(self):
        class Batches:
            def decide_entries(self, revenue, costs, tolerances, month):
                return heuristic_entry(DecisionContext(revenue, costs, tolerances, month))

            def decide_exits(self, revenue, costs, tolerances, thresholds, month):  # recomputes tolerance * cost
                return heuristic_exit(DecisionContext(revenue, costs, tolerances, month))

        config = SimulationConfig(horizon_months=24, patience=2, **CHURN)
        assert_same_csv(run(config, policy=Batches()).to_csv_string(), run(config).to_csv_string())

    def test_batch_verdicts_must_cover_every_node(self, null_dynamics_config):
        class Short(HeuristicPolicy):
            def decide_exits(self, revenue, costs, tolerances, thresholds, month):
                return super().decide_exits(revenue, costs, tolerances, thresholds, month)[1:]

        with pytest.raises(SimulationError, match="node-decisions.*shape \\(49,\\) for 50 nodes"):
            Simulation(null_dynamics_config, policy=Short()).step(1)

    @pytest.mark.parametrize("make_policy", [HeuristicPolicy, Forwarding])
    def test_route_is_chosen_once_per_run(self, monkeypatch, make_policy):
        asked = []
        choose = engine.decides_in_batches
        monkeypatch.setattr(engine, "decides_in_batches", lambda cls: asked.append(cls) or choose(cls))
        assert len(run(SimulationConfig(horizon_months=12), policy=make_policy()).states) == 12
        assert asked == [make_policy]

    @pytest.mark.parametrize("make_policy", [HeuristicPolicy, Forwarding])
    def test_a_dropped_simulation_is_freed_without_the_cycle_collector(self, monkeypatch, make_policy):
        # Its trajectory, kept, holds no reference back to it, stepped by hand or inside run().
        config = SimulationConfig(horizon_months=12, patience=2, **CHURN)
        inside_run = []

        class Watched(Simulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                inside_run.append(weakref.ref(self))

        monkeypatch.setattr(engine, "Simulation", Watched)
        gc.disable()
        try:
            sim = Simulation(config, policy=make_policy())
            for month in range(1, config.horizon_months + 1):
                sim.step(month)
            stepped, ref = sim.trajectory, weakref.ref(sim)
            del sim
            assert ref() is None  # its roster buffers go with it
            ran = run(config, policy=make_policy())
            assert len(inside_run) == 1 and inside_run[0]() is None
        finally:
            gc.enable()
        assert_same_csv(stepped.to_csv_string(), ran.to_csv_string())
        assert stepped.metrics is None and ran.metrics == engine.metrics_mod.report(stepped)

    def test_per_decision_calls_in_roster_order(self):
        class Counting(Forwarding):
            def __init__(self):
                self.calls = []

            def decide_entry(self, ctx):
                self.calls.append(("entry", ctx.node_cost, ctx.tolerance))
                return super().decide_entry(ctx)

            def decide_exit(self, ctx):
                self.calls.append(("exit", ctx.node_cost, ctx.tolerance))
                return super().decide_exit(ctx)

        config = SimulationConfig(horizon_months=24, entry_pool_size=3, patience=2, **CHURN)
        policy = Counting()
        sim = Simulation(config, policy=policy)
        for month in range(1, config.horizon_months + 1):
            roster = [("exit", c, t) for c, t in zip(sim.cost.tolist(), sim.tolerance.tolist())]
            policy.calls.clear()
            sim.step(month)
            kinds = [call[0] for call in policy.calls]
            assert kinds == ["entry"] * config.entry_pool_size + ["exit"] * len(roster)
            assert policy.calls[config.entry_pool_size:] == roster


PATIENCE = st.sampled_from([2**63, 10**30]) | st.integers(1, 5)


@st.composite
def replayed_runs(draw):
    """A small config and, for each month, an entry mask over the pool and an exit mask over the largest roster."""
    config = SimulationConfig(
        horizon_months=draw(st.integers(1, 10)), initial_nodes=draw(st.integers(0, 6)),
        entry_pool_size=draw(st.integers(0, 3)), patience=draw(PATIENCE), seed=draw(st.integers(0, 2**31 - 1)))
    capacity = config.initial_nodes + config.horizon_months * config.entry_pool_size

    def masks(size):
        mask = st.lists(st.booleans(), min_size=size, max_size=size)
        return draw(st.lists(mask, min_size=config.horizon_months, max_size=config.horizon_months))

    return config, masks(config.entry_pool_size), masks(capacity)


class Replay:
    """A batch policy that answers month m with the first verdicts of `entries[m - 1]` and
    `exits[m - 1]`; `pool` is the costs of the last candidate pool it was asked about."""

    def __init__(self, entries, exits):
        self.entries, self.exits = entries, exits
        self.pool = []

    def decide_entries(self, revenue, costs, tolerances, month):
        self.pool = costs.tolist()
        return self.entries[month - 1][:len(costs)]

    def decide_exits(self, revenue, costs, tolerances, thresholds, month):
        return self.exits[month - 1][:len(costs)]


class ReplayEach:
    """`Replay`'s verdicts, asked once per decision: the pool, then the roster, in order."""

    def __init__(self, entries, exits):
        self.entries, self.exits = entries, exits
        self.pool, self.month, self.asked = [], None, 0

    def _start(self, month):
        if month != self.month:
            self.pool, self.month, self.asked = [], month, 0

    def decide_entry(self, ctx):
        self._start(ctx.month)
        self.pool.append(ctx.node_cost)
        return self.entries[ctx.month - 1][len(self.pool) - 1]

    def decide_exit(self, ctx):
        self._start(ctx.month)
        self.asked += 1
        return self.exits[ctx.month - 1][self.asked - 1]


class TestPatienceRule:
    """The engine's exit bookkeeping against a plain-Python model of the paper's rule:
    `streak = (streak + 1) * signal`, and a node leaves once `streak >= patience`."""

    @settings(max_examples=200, deadline=None)
    @given(drawn=replayed_runs(), batches=st.booleans())
    def test_engine_follows_the_rule(self, drawn, batches):
        config, entries, exits = drawn
        policy = (Replay if batches else ReplayEach)(entries, exits)
        sim = Simulation(config, policy=policy)
        roster = [(cost, 0) for cost in sim.cost.tolist()]  # (cost, streak) in roster order
        for month in range(1, config.horizon_months + 1):
            sim.step(month)
            roster = [(cost, (streak + 1) * signal) for (cost, streak), signal in zip(roster, exits[month - 1])]
            stay = [(cost, streak) for cost, streak in roster if streak < config.patience]
            assert sim.trajectory.events[-1].exits == len(roster) - len(stay)
            roster = stay + [(cost, 0) for cost, enter in zip(policy.pool, entries[month - 1]) if enter]
            assert sim.cost.tolist() == [cost for cost, _ in roster]
            assert sim.streak.tolist() == [streak for _, streak in roster]

    def test_a_broken_run_restarts_at_one(self):
        signals = [True, True, False, True, True, True]
        config = SimulationConfig(horizon_months=len(signals), initial_nodes=1, entry_pool_size=0, patience=3)
        sim = Simulation(config, policy=Replay([[]] * len(signals), [[s] for s in signals]))
        streaks = []
        for month in range(1, config.horizon_months + 1):
            sim.step(month)
            streaks.append(sim.streak.tolist())
        assert streaks == [[1], [2], [0], [1], [2], []]
        assert [e.exits for e in sim.trajectory.events] == [0, 0, 0, 0, 0, 1]

    @pytest.mark.parametrize("entry_month", [2, 3])
    def test_an_entrant_in_a_vacated_slot_starts_at_zero(self, entry_month):
        # The second node signals every month and leaves in month 2, its run of 2 still in its slot;
        # the entrant takes that slot in month 2 or 3, then signals in the month after.
        config = SimulationConfig(horizon_months=4, initial_nodes=2, entry_pool_size=1, patience=2)
        entries = [[month == entry_month] for month in range(1, 5)]
        sim = Simulation(config, policy=Replay(entries, [[False, True]] * 4))
        for month in range(1, entry_month + 1):
            sim.step(month)
        assert [e.exits for e in sim.trajectory.events] == [0, 1, 0][:entry_month]
        assert sim.streak.tolist() == [0, 0]
        sim.step(entry_month + 1)
        assert sim.trajectory.events[-1].exits == 0
        assert sim.streak.tolist() == [0, 1]

    def test_streak_is_read_only(self):
        config = SimulationConfig(horizon_months=1, initial_nodes=2, entry_pool_size=0, patience=3)
        sim = Simulation(config, policy=Replay([[]], [[True, False]]))
        sim.step(1)
        assert sim.streak.tolist() == [1, 0]
        with pytest.raises(ValueError, match="read-only"):
            sim.streak[0] = 0

    def test_a_month_without_signals_writes_no_run_slot(self):
        # Months 1 and 2 start runs; in month 3 no node signals, so the incumbents' run slots keep
        # their bytes, and only the entrants' slots are written.
        config = SimulationConfig(horizon_months=3, initial_nodes=4, entry_pool_size=2, patience=5)
        exits = [[True, False, True, False] + [False] * 4, [True, True] + [False] * 6, [False] * 8]
        sim = Simulation(config, policy=Replay([[True, True]] * 3, exits))
        sim.step(1)
        sim.step(2)
        n = len(sim.cost)
        before = sim._runs[:, :n].tobytes()
        sim.step(3)
        assert (sim.trajectory.events[-1].exits, sim.trajectory.events[-1].entries) == (0, 2)
        assert sim._runs[:, :n].tobytes() == before
        assert sim.streak.tolist() == [0] * (n + 2)


def assert_thresholds_stored(sim):
    """The roster's stored exit thresholds hold the bytes of `tolerance * cost` over the live slots."""
    assert sim._nodes[2, :len(sim.cost)].tobytes() == (sim.tolerance * sim.cost).tobytes()


class TestExitThresholds:
    # Month 1: the middle of three nodes leaves, so the third is compacted into its slot and the
    # entrant takes the third's; month 2: the first node leaves, and the next entrant joins.
    COMPACTED = (SimulationConfig(horizon_months=2, initial_nodes=3, entry_pool_size=1, patience=1),
                 [[True], [True]], [[False, True, False, False, False], [True, False, False, False, False]])

    @settings(max_examples=100, deadline=None)
    @given(drawn=replayed_runs(), batches=st.booleans())
    def test_every_step_keeps_the_product(self, drawn, batches):
        config, entries, exits = drawn
        sim = Simulation(config, policy=(Replay if batches else ReplayEach)(entries, exits))
        assert_thresholds_stored(sim)
        for month in range(1, config.horizon_months + 1):
            sim.step(month)
            assert_thresholds_stored(sim)

    @pytest.mark.parametrize("make_policy", [Replay, ReplayEach])
    def test_compaction_and_a_vacated_slot(self, make_policy):
        config, entries, exits = self.COMPACTED
        sim = Simulation(config, policy=make_policy(entries, exits))
        initial = sim.cost.tolist()
        for month in (1, 2):
            sim.step(month)
            assert_thresholds_stored(sim)
        assert [(e.exits, e.entries) for e in sim.trajectory.events] == [(1, 1), (1, 1)]
        assert sim.cost.tolist()[0] == initial[2]

    @pytest.mark.parametrize("initial, pool", [(7, 0), (0, streams._VECTOR_POOL_MAX), (3, streams._VECTOR_POOL_MAX + 1)])
    def test_the_draws_leave_the_threshold_row_to_the_engine(self, initial, pool):
        # The stream layer draws costs and tolerances only; the engine derives each exit threshold.
        config = SimulationConfig(horizon_months=5, initial_nodes=initial, entry_pool_size=pool)
        capacity = initial + 5 * pool
        table = np.full((3, capacity), -1.5)
        streams.draw_run(config, table[:2])
        assert table[2].tobytes() == np.full(capacity, -1.5).tobytes()
        sim = Simulation(config)
        assert sim._nodes[:2].tobytes() == table[:2].tobytes()
        assert_thresholds_stored(sim)
        assert sim._nodes[2].tobytes() == (table[1] * table[0]).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_churn_regime(self, seed):
        config = SimulationConfig(horizon_months=24, patience=2, seed=seed, **CHURN)
        sim = Simulation(config)
        for month in range(1, config.horizon_months + 1):
            sim.step(month)
            assert_thresholds_stored(sim)
        assert sum(e.exits for e in sim.trajectory.events) > 0 and sum(e.entries for e in sim.trajectory.events) > 0


def assert_unseen_pools_drawn(sim, fresh):
    """Every candidate pool of a month after `sim`'s last holds the bytes `fresh`, a newly built run, drew,
    its exit thresholds among them."""
    config = sim.config
    start = config.initial_nodes + sim.state.month * config.entry_pool_size
    assert sim._nodes[:, start:].tobytes() == fresh._nodes[:, start:].tobytes()


class TestNodeTable:
    """The roster and every month's candidate pool share one table; no month writes a later month's pool."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64), pool=st.integers(0, 15), initial=st.sampled_from([0, 1, 9, 50]),
           horizon=st.integers(1, 4), cost_spread=spreads(1e8), tolerance_range=spreads(1.0))
    def test_build_stores_every_slots_threshold(self, seed, pool, initial, horizon, cost_spread, tolerance_range):
        config = SimulationConfig(seed=seed, entry_pool_size=pool, initial_nodes=initial, horizon_months=horizon,
                                  cost_spread=cost_spread, tolerance_range=tolerance_range)
        sim = Simulation(config)
        assert sim._nodes[2].tobytes() == (sim._nodes[1] * sim._nodes[0]).tobytes()
        assert (sim._runs[0] == -1).all()

    @pytest.mark.parametrize("make_policy", [HeuristicPolicy, Forwarding])
    def test_whole_pools_entering_write_no_slot(self, make_policy):
        # roster-growth's shape: every candidate can pay its cost and no node signals exit, so each
        # month's pool enters where it was drawn and no month writes the node table or a run slot.
        config = SimulationConfig(horizon_months=12, initial_nodes=20, entry_pool_size=25, node_cost=1e-3)
        sim = Simulation(config, policy=make_policy())
        nodes, runs = sim._nodes.tobytes(), sim._runs.tobytes()
        for month in range(1, config.horizon_months + 1):
            sim.step(month)
            assert (sim.trajectory.events[-1].entries, sim.trajectory.events[-1].exits) == (config.entry_pool_size, 0)
            assert sim._nodes.tobytes() == nodes and sim._runs.tobytes() == runs
        assert len(sim.cost) == len(sim._nodes[0])

    @settings(max_examples=100, deadline=None)
    @given(drawn=replayed_runs(), batches=st.booleans())
    def test_no_step_writes_an_unseen_pool(self, drawn, batches):
        config, entries, exits = drawn
        sim, fresh = Simulation(config, policy=(Replay if batches else ReplayEach)(entries, exits)), Simulation(config)
        assert_unseen_pools_drawn(sim, fresh)
        for month in range(1, config.horizon_months + 1):
            sim.step(month)
            assert_unseen_pools_drawn(sim, fresh)

    @pytest.mark.parametrize("make_policy", [HeuristicPolicy, Forwarding])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_churn_regime(self, make_policy, seed):
        config = SimulationConfig(horizon_months=24, patience=2, seed=seed, **CHURN)
        sim, fresh = Simulation(config, policy=make_policy()), Simulation(config)
        for month in range(1, config.horizon_months + 1):
            sim.step(month)
            assert_unseen_pools_drawn(sim, fresh)
        assert sum(e.exits for e in sim.trajectory.events) > 0 and sum(e.entries for e in sim.trajectory.events) > 0


SCHEDULES = st.one_of(
    st.builds(VestingSchedule.cliff_linear, cliff_months=st.integers(0, 24),
              unlock_at_cliff=st.floats(0.0, 1.0), linear_months=st.integers(1, 36)),
    st.builds(VestingSchedule.halving, period_months=st.integers(1, 48)),
)


class EveryThirdMonth:
    """Has no batch methods, so the engine calls it once per decision.  It signals exit in
    two months of three, by cost, so runs of signals build up and break off."""

    def decide_entry(self, ctx):
        return heuristic_entry(ctx)

    def decide_exit(self, ctx):
        return (ctx.month + int(ctx.node_cost)) % 3 != 0


def mixed_reply(prompt):
    """Yes, no, or one of two unparseable replies, fixed by the prompt's text."""
    return ("yes", "No.", "unclear", "")[sum(map(ord, prompt)) % 4]


# The LLM policy's scripts: "maybe", "unclear" and "" parse to nothing, so the heuristic stands in.
REPLIES = ("yes", "no", "maybe")
SCRIPTS = [heuristic_prompt_reply, mixed_reply] + [
    {"*enter*": enter, "*exit*": leave} for enter in REPLIES for leave in REPLIES]
POLICIES = st.sampled_from([HeuristicPolicy, EveryThirdMonth]) | st.sampled_from(SCRIPTS)  # a class or a script


def exchanges(log):
    """An audit log's exchanges, less their measured latencies."""
    lines = log.path.read_text(encoding="utf-8").splitlines() if log.path.exists() else []
    return [{k: v for k, v in json.loads(line).items() if k != "latency_s"} for line in lines]


class TestReferenceRun:
    """The engine against the plain-Python reference run (tests/reference_model.py), which asks
    every decision on its own.  The batch route (`HeuristicPolicy`, `LlmPolicy`) and the
    per-decision route (`EveryThirdMonth`) are each checked against it."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        regime=st.sampled_from([{}, STRESSED, CHURN]),
        policy=POLICIES,
        horizon_months=st.integers(1, 36),
        initial_nodes=st.integers(0, 60),
        entry_pool_size=st.integers(0, 20),
        patience=st.integers(1, 6),
        gc_arrival_rate=st.floats(0.0, 3.0) | st.floats(0.0, 1000.0),
        gc_endowment_mu=st.floats(10.0, 15.0) | st.floats(0.0, 100.0),
        gc_endowment_sigma=st.floats(0.0, 2.5),
        gc_lifespan_mu=st.floats(0.5, 3.5) | st.floats(0.0, 10.0),
        gc_lifespan_sigma=st.floats(0.0, 2.5),
        tokens_on_sale_fraction=st.just(0.0) | st.floats(1e-3, 0.2),  # a subnormal pool prices a trade at inf
        team_schedule=SCHEDULES,
        vc_schedule=SCHEDULES,
        node_schedule=SCHEDULES,
        seed=st.integers(0, 2**70) | st.sampled_from([2**32 - 1, 2**32, 2**64]),
    )
    # A 3-word seed over 260 months, under a policy that signals exit every third month.
    @example(
        regime=STRESSED, policy=EveryThirdMonth, horizon_months=260, initial_nodes=3, entry_pool_size=1,
        patience=2, gc_arrival_rate=0.5, gc_endowment_mu=13.0, gc_endowment_sigma=1.0, gc_lifespan_mu=2.5,
        gc_lifespan_sigma=0.5, tokens_on_sale_fraction=0.05, team_schedule=VestingSchedule.halving(12),
        vc_schedule=VestingSchedule.cliff_linear(3, 0.5, 6), node_schedule=VestingSchedule.halving(48), seed=2**70,
    )
    # A subnormal node unlock leaves a month-1 sale pool of 1.7e-303, so the month-1 record is not finite.
    @example(
        regime={}, policy=HeuristicPolicy, horizon_months=3, initial_nodes=0, entry_pool_size=0, patience=1,
        gc_arrival_rate=1.0, gc_endowment_mu=10.0, gc_endowment_sigma=0.0, gc_lifespan_mu=1.0, gc_lifespan_sigma=0.0,
        tokens_on_sale_fraction=0.125, team_schedule=VestingSchedule.cliff_linear(0, 0.0, 1),
        vc_schedule=VestingSchedule.cliff_linear(0, 0.0, 1),
        node_schedule=VestingSchedule.cliff_linear(0, 2.225073858507e-311, 1), seed=0,
    )
    # A cliff of 0 and a halving period of 1 release in month 1, so the month-1 sale pool is not 0; the
    # reference seeds it from the closed form, the engine from its running sum.
    @example(
        regime=CHURN, policy=HeuristicPolicy, horizon_months=24, initial_nodes=10, entry_pool_size=3, patience=2,
        gc_arrival_rate=1.0, gc_endowment_mu=12.0, gc_endowment_sigma=1.0, gc_lifespan_mu=2.0, gc_lifespan_sigma=0.5,
        tokens_on_sale_fraction=0.05, team_schedule=VestingSchedule.cliff_linear(0, 0.3, 5),
        vc_schedule=VestingSchedule.halving(1), node_schedule=VestingSchedule.halving(1), seed=5,
    )
    def test_engine_matches_the_reference_run(self, regime, policy, **kwargs):
        """Every committed month conserves supply, keeps the sale pool from shrinking and
        counts its nodes; an aborted month names a MarketState field that is not finite, at
        sub-step 'revenue' for the revenue and 'record' otherwise.  Against the reference run:
        equal CSV bytes, MonthEvents and, for an LLM policy, audit-log exchanges on every
        committed month, and the same aborted month."""
        config = replace(SimulationConfig(**regime), **kwargs)
        llm = not isinstance(policy, type)
        with tempfile.TemporaryDirectory() as tmp:
            audit_log = AuditLog(Path(tmp) / "audit.jsonl")
            sim = Simulation(config, policy=LlmPolicy(ScriptedBackend(policy), audit_log=audit_log) if llm else policy())
            failure = None
            for month in range(1, config.horizon_months + 1):
                try:
                    sim.step(month)
                except SimulationError as err:
                    failure = err
                    break
            logged = exchanges(audit_log)

        schedules = (config.team_schedule, config.vc_schedule, config.node_schedule)
        alloc = config.allocation()
        sale = config.tokens_on_sale_fraction * circulating_supply(1, alloc, *schedules)
        nodes = config.initial_nodes
        for state, event in zip(sim.trajectory.states, sim.trajectory.events):
            assert state.circulating_supply == pytest.approx(
                circulating_supply(state.month, alloc, *schedules), rel=1e-12)
            assert state.tokens_on_sale >= sale
            sale = state.tokens_on_sale
            nodes += event.entries - event.exits
            assert state.active_nodes == nodes
        if failure is not None:
            name = re.search(r"(\w+) is not finite", str(failure))
            assert name and name.group(1) in get_type_hints(MarketState), failure
            assert failure.substep == ("revenue" if name.group(1) == "global_revenue" else "record"), failure

        reference = ReferenceLlm(ScriptedBackend(policy)) if llm else policy()
        expected = reference_run(config, reference)
        assert_same_csv(sim.trajectory.to_csv_string(), expected.csv())
        assert [asdict(event) for event in sim.trajectory.events] == expected.events
        assert logged == (reference.exchanges if llm else [])
        assert (failure.month if failure else None) == expected.failed_month

    @pytest.mark.parametrize("batches", [True, False])
    def test_a_whole_pool_copied_over_its_own_slots(self, batches):
        # Every pool of 4 enters whole.  In month 2 one node leaves, so the commit copies that month's
        # pool one slot down, over three of its own slots (`kept == start - 1`); in month 3 another
        # leaves, and the pool moves two slots down.  The rosters the policy is asked about, in order,
        # and the CSV match the reference run's.
        pool, horizon = 4, 4
        config = SimulationConfig(horizon_months=horizon, initial_nodes=3, entry_pool_size=pool, seed=9)
        entries = [[True] * pool] * horizon
        exits = [[False] * 20, [False, True] + [False] * 18, [True] + [False] * 19, [False] * 20]

        class Seen(Replay):
            def decide_exits(self, revenue, costs, tolerances, thresholds, month):
                self.rosters += zip(costs.tolist(), tolerances.tolist())
                return super().decide_exits(revenue, costs, tolerances, thresholds, month)

        class SeenEach(ReplayEach):
            def decide_exit(self, ctx):
                self.rosters.append((ctx.node_cost, ctx.tolerance))
                return super().decide_exit(ctx)

        policy, reference = (Seen if batches else SeenEach)(entries, exits), SeenEach(entries, exits)
        policy.rosters, reference.rosters = [], []
        sim = Simulation(config, policy=policy)
        for month in range(1, horizon + 1):
            sim.step(month)
        assert [(e.entries, e.exits) for e in sim.trajectory.events] == [(pool, 0), (pool, 1), (pool, 1), (pool, 0)]
        assert_same_csv(sim.trajectory.to_csv_string(), reference_run(config, reference).csv())
        assert policy.rosters == reference.rosters and len(reference.rosters) == 3 + 7 + 10 + 13

    def test_llm_draws_force_fallbacks_and_exits(self):
        # The LLM draws above check fallbacks, and the patience and compaction code, only if a
        # drawn script reaches them: on the churn regime one run must have both.
        config = SimulationConfig(horizon_months=24, patience=2, **CHURN)
        runs = [run(config, policy=LlmPolicy(ScriptedBackend(script))).events for script in SCRIPTS]
        assert any(sum(e.fallbacks for e in events) and sum(e.exits for e in events) for events in runs)

    def test_price_overflow_fails_both_at_month_one(self):
        # global_revenue overflows in month 1: prev price 1e305 times the month's emission.
        config = SimulationConfig(horizon_months=2, initial_price=1e305)
        assert reference_run(config, HeuristicPolicy()).failed_month == 1
        with pytest.raises(SimulationError, match="global_revenue") as err:
            run(config)
        assert err.value.month == 1


class TestCompare:
    """`compare()`: the heuristic benchmark at the config's patience, then one LLM cell per requested level."""

    @staticmethod
    def by_cell(runs) -> dict:
        """`compare()`'s runs as {cell: [(seed, outcome), ...]}, in order; cells key by identity."""
        cells = {}
        for cell, seed, outcome in runs:
            cells.setdefault(cell, []).append((seed, outcome))
        return cells

    @staticmethod
    def assert_price_metrics_agree(cells):
        # Price forms from growth capital alone, so on one seed every cell has the same efficiency and
        # stability (or fails alike), whatever its policy and patience.
        for runs in zip(*cells.values()):
            outcomes = [(outcome.metrics.efficiency, outcome.metrics.stability)
                        if isinstance(outcome, Trajectory) else str(outcome) for _, outcome in runs]
            assert outcomes == outcomes[:1] * len(cells), runs[0][0]

    def test_price_metrics_agree_across_the_demo_cells(self):
        config = SimulationConfig(patience=1, **STRESSED)
        cells = self.by_cell(compare(config, [1, 3, 5], range(2), LlmPolicy(ScriptedBackend(heuristic_prompt_reply))))
        assert [cell.label for cell in cells] == ["heuristic", "llm p=1", "llm p=3", "llm p=5"]
        self.assert_price_metrics_agree(cells)
        assert len({runs[0][1].metrics.inclusion for runs in cells.values()}) > 1  # the cells differ in participation

    @settings(max_examples=25, deadline=None)
    @given(
        regime=st.sampled_from([{}, STRESSED, CHURN]),
        script=st.sampled_from(SCRIPTS),
        levels=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        seed=st.integers(0, 2**32),
        horizon_months=st.integers(1, 24),
        patience=st.integers(1, 6),
    )
    def test_price_metrics_agree_across_cells(self, regime, script, levels, seed, **kwargs):
        config = replace(SimulationConfig(**regime), **kwargs)
        runs = compare(config, levels, [seed, seed + 1], LlmPolicy(ScriptedBackend(script)))
        self.assert_price_metrics_agree(self.by_cell(runs))

    def test_a_repeated_level_is_a_cell_of_its_own(self):
        # The config has no llm section and keeps its policy: compare() passes the policy that runs.
        config = SimulationConfig(horizon_months=12, patience=3, **CHURN)
        cells = self.by_cell(compare(config, [1, 1], [0], LlmPolicy(ScriptedBackend(heuristic_prompt_reply))))
        assert [(cell.policy, cell.patience, cell.label) for cell in cells] == [
            ("heuristic", 3, "heuristic"), ("llm", 1, "llm p=1"), ("llm", 1, "llm p=1")]
        assert [trajectory.config for runs in cells.values() for _, trajectory in runs] == [
            replace(config, patience=patience, seed=0) for patience in (3, 1, 1)]
        _, first, second = (runs[0][1] for runs in cells.values())
        assert_same_csv(second.to_csv_string(), first.to_csv_string())

    def test_a_failed_seed_is_kept_and_the_next_seed_runs(self):
        # Seeds 43 and 44 price the token at infinity in month 2 under every policy; seed 42 runs.
        config = SimulationConfig(horizon_months=3, tokens_on_sale_fraction=1e-300, gc_arrival_rate=0.3,
                                  gc_endowment_mu=100)
        cells = self.by_cell(compare(config, [1, 3], [43, 44, 42], LlmPolicy(ScriptedBackend({"*": "no"}))))
        for runs in cells.values():
            assert [seed for seed, _ in runs] == [43, 44, 42]
            assert [type(outcome) for _, outcome in runs] == [SimulationError, SimulationError, Trajectory]
            assert runs[0][1].month == 2

    def test_only_a_failed_month_is_caught(self):
        # A config the engine rejects is the caller's error, not a failed seed: patience 0 builds no config.
        runs = compare(SimulationConfig(horizon_months=2), [0], [0], LlmPolicy(ScriptedBackend({"*": "no"})))
        with pytest.raises(ValueError, match=re.escape("patience must lie in [1, inf), got 0")):
            list(runs)

    def test_no_run_is_kept_once_the_caller_drops_it(self):
        # compare() yields each run as it ends and holds none, so a comparison's memory is one run's.
        config = SimulationConfig(horizon_months=12, patience=3, **CHURN)
        refs = []
        for _, _, trajectory in compare(config, [1, 3], range(2), LlmPolicy(ScriptedBackend(heuristic_prompt_reply))):
            assert [ref() for ref in refs] == [None] * len(refs)  # every earlier run is freed
            refs.append(weakref.ref(trajectory))
        del trajectory
        assert len(refs) == 6 and refs[-1]() is None


# Arbitrary JSON, NaN and Infinity included.
JSON_SCALAR = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
)
JSON = st.recursive(
    JSON_SCALAR,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(list(VALID_CONFIG)) | st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
SCHEDULE_KEYS = ["kind"] + [f.name for f in fields(VestingSchedule)]
KEY_PATHS = (
    [(key,) for key in VALID_CONFIG]
    + [("llm", key) for key in VALID_CONFIG["llm"]]
    + [(section, key) for section in ("team_schedule", "vc_schedule", "node_schedule") for key in SCHEDULE_KEYS]
)


def near_bounds(cls, name):
    """Floats in `cls`'s declared range for field `name`, drawn at and next to its ends as often as inside it."""
    _, lo, above, hi, below = declared_ranges(cls)[name]
    top = min(hi, sys.float_info.max)
    ends = [lo, math.nextafter(lo, math.inf), top, math.nextafter(top, -math.inf)]
    inside = st.floats(lo, top, exclude_min=not above(lo, lo), exclude_max=not below(top, top))
    return st.sampled_from([x for x in ends if above(lo, x) and below(x, hi)]) | inside


@st.composite
def config_at_bounds(draw):
    """Config keys with each float left at its default or drawn at or near a declared bound."""
    keys = {name: draw(st.none() | near_bounds(SimulationConfig, name))
            for name, hint in get_type_hints(SimulationConfig).items()
            if hint is float and name not in ("team_fraction", "vc_fraction", "node_fraction")}
    keys = {name: value for name, value in keys.items() if value is not None}
    for name in ("cost_spread", "tolerance_range"):
        keys[name] = sorted(draw(st.lists(near_bounds(SimulationConfig, name), min_size=2, max_size=2)))
    team = draw(near_bounds(SimulationConfig, "team_fraction"))
    vc = draw(st.sampled_from([0.0, 1 - team]) | st.floats(0.0, 1 - team))
    keys.update(team_fraction=team, vc_fraction=vc, node_fraction=1 - team - vc)
    keys.update(
        horizon_months=draw(st.integers(1, 12)),
        initial_nodes=draw(st.integers(0, 60)),
        entry_pool_size=draw(st.integers(0, 15)),
        patience=draw(st.sampled_from([1, 2**63, 10**30]) | st.integers(1, 5)),
        seed=draw(st.sampled_from([0, 2**32, 10**30]) | st.integers(0, 2**31 - 1)),
    )
    for name in ("team_schedule", "vc_schedule", "node_schedule"):
        keys[name] = encode(draw(SCHEDULES))
    return keys


def assert_rejected_or_round_trips(data):
    try:
        config = SimulationConfig.from_dict(data)
    except ValueError:
        return
    circulating_supply(1, config.allocation(), config.team_schedule, config.vc_schedule, config.node_schedule)
    # Through JSON text, so a NaN read back is a new object and compares unequal.
    assert SimulationConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


class TestFromDictFuzz:
    """`from_dict` either raises ValueError or builds a config that survives a round trip."""

    @settings(max_examples=100, deadline=None)
    @given(data=JSON)
    def test_arbitrary_json(self, data):
        assert_rejected_or_round_trips(data)

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(KEY_PATHS), value=JSON_SCALAR | JSON)
    def test_valid_config_with_one_key_replaced(self, path, value):
        data = copy.deepcopy(VALID_CONFIG)
        section = data
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        assert_rejected_or_round_trips(data)

    def test_subnormal_initial_price_then_a_trade_scores_finitely(self):
        # No arrival in month 1 carries the initial price; month 2 trades near 1, a ratio beyond the float range.
        config = SimulationConfig(horizon_months=6, initial_price=5e-324, gc_arrival_rate=0.3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajectory = run(config)
        assert trajectory.states[0].token_price == 5e-324 < trajectory.states[-1].token_price
        assert math.isfinite(trajectory.metrics.stability)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(keys=config_at_bounds())
    @example(keys={"horizon_months": 2, "initial_price": 1e305})  # month 1's revenue overflows
    def test_config_at_its_bounds_runs_or_fails_alike(self, keys):
        """A config drawn at and near its declared bounds runs to the end, or stops on a month
        that is not finite: at sub-step 'revenue' naming `global_revenue`, or at 'record'.  No
        NumPy warning escapes and the metrics are valid JSON.  Roster sizes stay small: the
        cap, not a huge allocation, covers the rest.

        The scripted LLM route gives the same CSV, or the same failure: month, sub-step and
        message, since revenue is checked before any policy reads it."""
        config = SimulationConfig.from_dict(keys)
        outcomes = []
        for policy in (HeuristicPolicy(), LlmPolicy(ScriptedBackend(heuristic_prompt_reply))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    outcomes.append(run(config, policy=policy))
                except SimulationError as err:
                    outcomes.append(err)
        heuristic, llm = outcomes
        if isinstance(heuristic, SimulationError):
            assert heuristic.substep in ("revenue", "record"), heuristic
            assert heuristic.substep == "record" or "global_revenue is not finite" in str(heuristic), heuristic
            assert isinstance(llm, SimulationError), "the LLM route ran a config the heuristic route failed"
            assert (llm.month, llm.substep, str(llm)) == (heuristic.month, heuristic.substep, str(heuristic))
            return
        assert not isinstance(llm, SimulationError), llm
        assert_same_csv(llm.to_csv_string(), heuristic.to_csv_string())
        json.dumps(heuristic.metrics.to_dict(), allow_nan=False)


class TestStepErrors:
    def test_out_of_order_step_rejected(self, null_dynamics_config):
        sim = Simulation(null_dynamics_config)
        sim.step(1)
        with pytest.raises(SimulationError):
            sim.step(5)

    def test_month_past_the_horizon_rejected(self):
        config = SimulationConfig(horizon_months=2, entry_pool_size=5)
        sim = Simulation(config)
        for month in (1, 2):
            sim.step(month)
        before = (sim.cost.copy(), sim.tolerance.copy(), sim.streak.copy())
        with pytest.raises(SimulationError) as err:
            sim.step(3)
        assert err.value.substep == "ordering"
        assert len(sim.trajectory.states) == len(sim.trajectory.events) == 2
        assert [row[0] for row in sim.trajectory.month_rows] == [1, 2]
        for array, saved in zip((sim.cost, sim.tolerance, sim.streak), before):
            assert np.array_equal(array, saved)

    def test_policy_cannot_write_the_roster(self):
        class Scribbling(HeuristicPolicy):
            def __init__(self, column):
                self.column = column  # 0, 1 or 2: costs, tolerances or thresholds

            def decide_exits(self, revenue, costs, tolerances, thresholds, month):
                (costs, tolerances, thresholds)[self.column][0] = 0.0
                return super().decide_exits(revenue, costs, tolerances, thresholds, month)

        def roster(sim):
            return sim.cost, sim.tolerance, sim._nodes[2, :len(sim.cost)], sim.streak

        config = SimulationConfig(horizon_months=3)
        for column in range(3):
            sim = Simulation(config, policy=Scribbling(column))
            before = [array.copy() for array in roster(sim)]
            with pytest.raises(SimulationError, match="node-decisions.*read-only"):
                sim.step(1)
            for array, saved in zip(roster(sim), before):
                assert np.array_equal(array, saved)
            assert sim.trajectory.states == [] and sim.trajectory.month_rows == []
        with pytest.raises(ValueError, match="read-only"):
            sim.cost[0] = 0.0

    def test_substep_failures_are_located(self, null_dynamics_config):
        class Exploding:
            def decide_entry(self, ctx):
                raise RuntimeError("boom")

            def decide_exit(self, ctx):
                raise RuntimeError("boom")

        sim = Simulation(null_dynamics_config, policy=Exploding())
        with pytest.raises(SimulationError) as err:
            sim.step(1)
        assert err.value.month == 1
        assert err.value.substep == "node-decisions"
        assert sim.trajectory.states == [] and sim.trajectory.month_rows == []  # partial month never committed

    @pytest.mark.parametrize(
        "make_policy,patience",
        [
            (HeuristicPolicy, 3),
            (lambda: LlmPolicy(ScriptedBackend({"*": "shrug"})), 3),  # every reply falls back
            (HeuristicPolicy, 1),  # month 2 has leavers when it fails
            (lambda: LlmPolicy(ScriptedBackend({"*": "shrug"})), 1),
        ],
        ids=["heuristic", "llm-fallbacks", "heuristic-patience-1", "llm-fallbacks-patience-1"],
    )
    def test_failed_month_changes_nothing(self, make_policy, patience):
        config = SimulationConfig(horizon_months=6, node_cost=250_000.0, patience=patience, seed=1)
        sim = Simulation(config, policy=make_policy())
        sim.step(1)
        bad = object()
        sim.gcs.append(bad)
        n = len(sim.cost)

        def roster_bytes():
            return [a.tobytes() for a in (sim.cost, sim.tolerance, sim.streak, *sim._runs[:, :n])]

        before = (roster_bytes(), list(sim.gcs), list(sim.trajectory.month_rows))
        with pytest.raises(SimulationError) as err:
            sim.step(2)
        assert err.value.substep == "growth-capital"  # after the node decisions ran
        assert (roster_bytes(), sim.gcs, sim.trajectory.month_rows) == before
        assert [row[0] for row in sim.trajectory.month_rows] == [1]  # the months before the failing one
        assert len(sim.trajectory.states) == len(sim.trajectory.events) == 1
        assert asdict(sim.state) == asdict(sim.trajectory.states[0])

        sim.gcs.remove(bad)
        for month in range(2, config.horizon_months + 1):
            sim.step(month)
        if patience == 1:
            assert sim.trajectory.events[1].exits > 0
        assert_same_csv(sim.trajectory.to_csv_string(), run(config, policy=make_policy()).to_csv_string())
