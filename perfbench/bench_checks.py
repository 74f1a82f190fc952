"""Output checks run on every trajectory the benchmark produces.

They look at the program from outside, through its public API: the
trajectory CSV bytes, and the closed-form ``circulating_supply``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

from depinsim import SimulationConfig, circulating_supply
from depinsim.engine import CSV_COLUMNS


class CheckFailed(Exception):
    """A produced output is wrong."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_digest(label: str, text: str, expected: str) -> None:
    actual = sha256(text)
    if actual != expected:
        raise CheckFailed(f"{label}: trajectory CSV sha256 {actual[:12]} != reference {expected[:12]}")


def check_same(label: str, text: str, oracle: str) -> None:
    """Two trajectories that must be byte-identical."""
    if text != oracle:
        first = next(
            (i for i, (a, b) in enumerate(zip(text.splitlines(), oracle.splitlines())) if a != b),
            min(len(text.splitlines()), len(oracle.splitlines())),
        )
        raise CheckFailed(f"{label}: CSV differs from its oracle at line {first + 1}")


def check_invariants(label: str, text: str, config: SimulationConfig) -> None:
    """Bookkeeping that holds for every config and seed.

    - months run 1..horizon in order;
    - nodes[t] = nodes[t-1] + entries[t] - exits[t], from initial_nodes;
    - tokens_on_sale never decreases;
    - circ_supply equals circulating_supply(month) to float rounding.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise CheckFailed(f"{label}: CSV header is not {CSV_COLUMNS}")
    col = {name: i for i, name in enumerate(CSV_COLUMNS)}
    if len(rows) - 1 != config.horizon_months:
        raise CheckFailed(f"{label}: {len(rows) - 1} rows for a {config.horizon_months}-month horizon")
    alloc = config.allocation()
    schedules = (config.team_schedule, config.vc_schedule, config.node_schedule)
    nodes = config.initial_nodes
    on_sale = -math.inf
    for month, row in enumerate(rows[1:], start=1):
        if int(row[col["month"]]) != month:
            raise CheckFailed(f"{label}: row {month} holds month {row[col['month']]}")
        nodes += int(row[col["entries"]]) - int(row[col["exits"]])
        if int(row[col["nodes"]]) != nodes:
            raise CheckFailed(f"{label}: month {month}: nodes {row[col['nodes']]} != previous + entries - exits = {nodes}")
        sale = float(row[col["tokens_on_sale"]])
        if sale < on_sale:
            raise CheckFailed(f"{label}: month {month}: tokens_on_sale fell from {on_sale!r} to {sale!r}")
        on_sale = sale
        circ = float(row[col["circ_supply"]])
        expected = circulating_supply(month, alloc, *schedules)
        if not math.isclose(circ, expected, rel_tol=1e-12, abs_tol=1e-6):
            raise CheckFailed(f"{label}: month {month}: circ_supply {circ!r} != circulating_supply {expected!r}")
