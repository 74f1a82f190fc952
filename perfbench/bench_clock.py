"""A clock that runs at a reference machine speed, for timing on a shared host.

On a host whose cores are shared with other tenants, the same pure-Python
work runs up to about 1.7x slower while the neighbours are busy, in phases
lasting seconds to minutes.  Host seconds then say more about the
neighbours than about the program.  ``RefClock`` times against host
seconds rescaled by how fast this process runs a fixed probe loop right
now: a *reference second* is the time the host would take at the speed
at which the probe takes ``REFERENCE_PROBE_S``.

The probe runs only between timed calls, never inside one, and its own
time is never counted.  Between probes the speed is taken as constant: the
median of the last three probes, so one probe that an interrupt slowed
does not skew it.
This module uses only the standard library, so a fresh process can time
its own imports with it.
"""

from __future__ import annotations

import time
from itertools import repeat

# Probe duration that defines the reference speed; the median on the host
# this benchmark was tuned on (an Intel Xeon, 2 vCPUs), so that reference
# seconds read close to host seconds there.
REFERENCE_PROBE_S = 0.002


def probe() -> float:
    """Host seconds for a fixed interpreter loop.

    It allocates nothing (no loop counter, only cached small ints) and
    touches no memory beyond a few objects, so the program measured
    between probes cannot change how fast it runs: only the host can.
    """
    start = time.perf_counter()
    acc = 0
    for _ in repeat(None, 60000):
        acc = (acc + 3) & 127
    return time.perf_counter() - start


class RefClock:
    """Reference seconds since creation; ``sample()`` re-measures the speed."""

    def __init__(self, every: float = 0.1, wall=time.perf_counter, speed_probe=probe):
        self.every = every
        self.wall = wall
        self.speed_probe = speed_probe
        self.ref = 0.0
        self.host = 0.0  # host seconds covered, probes excluded
        self.samples = 0
        self._recent = [speed_probe()] * 3
        self.speed = REFERENCE_PROBE_S / self._recent[0]
        self.since = wall()

    def now(self) -> float:
        return self.ref + (self.wall() - self.since) * self.speed

    def host_now(self) -> float:
        return self.host + (self.wall() - self.since)

    def sample(self, force: bool = False) -> None:
        """Probe the speed, unless the last probe is under `every` seconds old."""
        t = self.wall()
        if not force and t - self.since < self.every:
            return
        self.ref += (t - self.since) * self.speed
        self.host += t - self.since
        self._recent = self._recent[1:] + [self.speed_probe()]
        self.speed = REFERENCE_PROBE_S / sorted(self._recent)[1]
        self.samples += 1
        self.since = self.wall()
