"""Shared fixtures and frozen test data."""

from __future__ import annotations

from dataclasses import astuple
from itertools import zip_longest

import pytest

from depinsim import SimulationConfig


def assert_same_csv(actual: str, expected: str, context: str = "") -> None:
    """Fail unless two trajectory CSVs are equal, naming the first month where they differ.

    The texts are compared line by line, and the message shows only the first line pair that
    differs: `==` on the whole texts would have pytest diff every line after it.
    """
    __tracebackhide__ = True  # a failure points at the caller's line
    if actual == expected:
        return
    pairs = enumerate(zip_longest(actual.split("\n"), expected.split("\n")))
    line, (got, want) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
    where = "the header" if line == 0 else f"month {(got or want).split(',', 1)[0]}"
    pytest.fail(f"{context}trajectories first differ at {where}:\n  got:      {got}\n  expected: {want}")


def month_rows(states, events) -> list:
    """A `Trajectory`'s rows from month records: each MarketState's fields, then its
    MonthEvents' fields after `month`."""
    return [(*astuple(state), *astuple(event)[1:]) for state, event in zip(states, events, strict=True)]


# Fifty-string corpus for the yes/no parser: (text, expected verdict).
# Expected is True for yes, False for no, None for parse failure.  The
# substring traps (nothing, yesterday, 87no, ...) must never match.
YES_NO_CORPUS = [
    ("yes", True),
    ("Yes", True),
    ("YES", True),
    ("  yes  ", True),
    ("Yes, the node should enter.", True),
    ("yes.", True),
    ("'yes'", True),
    ('"Yes"', True),
    ("Answer: yes", True),
    ("yes!", True),
    ("The answer is yes", True),
    ("(yes)", True),
    ("[yes]", True),
    ("yes/no", True),
    ("definitely yes", True),
    ("Yes sir, proceed.", True),
    ("yes\n", True),
    ("no, but actually yes", False),
    ("no", False),
    ("No", False),
    ("NO", False),
    (" NO", False),
    ("No.", False),
    ("no way", False),
    ("Answer: no", False),
    ("'no'", False),
    ("no!", False),
    ("The answer is no", False),
    ("(no)", False),
    ("no\n", False),
    ("no, exit immediately", False),
    ("no-go", False),
    ("no/yes", False),
    ("Is it yes or no? It is no.", True),
    ("", None),
    ("maybe", None),
    ("Unknown -- cannot decide", None),
    ("nothing doing", None),
    ("yesterday", None),
    ("Yesterday it rained", None),
    ("nope", None),
    ("notion", None),
    ("I know nothing", None),
    ("canyon", None),
    ("Noble intentions", None),
    ("eyesore", None),
    ("yessir", None),
    ("87no", None),
    ("no9", None),
    ("yes_please", None),
]

assert len(YES_NO_CORPUS) == 50


@pytest.fixture
def null_dynamics_config() -> SimulationConfig:
    """Nothing moves: no entry candidates, no growth capitalists."""
    return SimulationConfig(entry_pool_size=0, gc_arrival_rate=0.0)


@pytest.fixture
def small_config() -> SimulationConfig:
    """Short default-shaped run for fast engine tests."""
    return SimulationConfig(horizon_months=24)
