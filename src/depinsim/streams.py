"""The run's random draws, every stream's, made when the run is built and bit for bit NumPy's.

Each randomized sub-step has a channel of its own, and a month's stream on a channel is NumPy's
`SeedSequence((seed, month, channel))` stream, so adding draws to one sub-step never perturbs another's.
`_stream_words` computes those seeding words itself and hands them to NumPy's own PCG64 seeding; a property
test pins the result to `default_rng(SeedSequence(...))`.  Trajectory bytes therefore depend on NumPy's
PCG64, down to its step and output function (`_pcg_outputs`), and on its distribution code, down to its
Poisson sampler's switch of method at a mean of 10 (`_arrival_counts`), its ziggurat normal's word layout
and tables (`_ziggurat`), and `lognormal = exp(mean + sigma * z)` through libm's `exp` (`_gc_draws`).  This
module is the one coupled to NumPy's internals; the engine calls `draw_run` once, when it builds a run.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .agents import GrowthCapitalist

if TYPE_CHECKING:
    from .engine import SimulationConfig

_STREAM_INIT_NODES = 0
_STREAM_CANDIDATES = 1
_STREAM_GROWTH_CAPITAL = 2
_STREAM_CHANNELS = 3

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> List[int]:
    """`value`'s little-endian 32-bit words, as `SeedSequence` splits an int (0 is one word)."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """`init` and its next `count` multiples by `mult` (mod 2**32), as a uint32 column."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, dtype=np.uint32)[:, None]


def _seed_state(entropy: Sequence[np.ndarray]) -> np.ndarray:
    """`SeedSequence(column).generate_state(4, np.uint64)` for each column of `entropy`.

    `entropy` is a sequence of `uint32` rows, one per entropy word, each of
    length 1 (a word every column shares) or `columns`; the result is
    `(columns, 4)`.  This is SeedSequence's mix of the entropy into a 4-word
    pool and its expansion of the pool, run over all columns at once; a shared
    word is hashed once and broadcast, so memory does not grow with the number
    of shared words.  SeedSequence steps its hash constant once per hashed word;
    the copies of one word hashed for several pool words are hashed in one
    operation, a row and a constant each.
    """
    words, columns = len(entropy), max(map(len, entropy))
    hash_a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(words, _POOL_SIZE))
    used = 0

    def hashmix(values, rows):  # `values` hashed with each of the next `rows` constants
        nonlocal used
        out = values ^ hash_a[used:used + rows]
        out *= hash_a[used + 1:used + rows + 1]
        out ^= out >> _XSHIFT
        used += rows
        return out

    def mix(x, y):
        out = x * _MIX_MULT_L - y * _MIX_MULT_R  # x or y may be a shared, one-column row
        out ^= out >> _XSHIFT
        return out

    padding = [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - words)  # short entropy is padded with zeros
    pool = hashmix(np.stack(np.broadcast_arrays(*entropy[:_POOL_SIZE], *padding)), _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], len(dst)))
    for src in range(_POOL_SIZE, words):
        pool = mix(pool, hashmix(entropy[src], _POOL_SIZE))

    hash_b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = np.concatenate((pool, pool)) ^ hash_b[:-1]
    state *= hash_b[1:]
    state ^= state >> _XSHIFT
    state = np.broadcast_to(state, (2 * _POOL_SIZE, columns))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)  # native order


class _Words(ISeedSequence):
    """Seeds PCG64 with `words`, a `SeedSequence`'s `generate_state(4, np.uint64)` computed
    elsewhere; PCG64 reads the array's memory, so it is contiguous and in native order."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _stream_words(seed: int, months: int) -> np.ndarray:
    """The PCG64 seeding words of `SeedSequence((seed, month, channel))` for months `0 .. months`
    on every channel, of shape `(months + 1, channels, 4)`, computed in one vectorised pass.

    A stream's generator is `Generator(PCG64(_Words(row)))`: NumPy's own PCG64
    seeding, as `default_rng(SeedSequence(...))` does after hashing the entropy.
    A month is at most MAX_HORIZON, so it is one entropy word.
    """
    seed_words = np.array(_words(seed), dtype=np.uint32)[:, None]  # one shared row per word
    month = np.repeat(np.arange(months + 1, dtype=np.uint32), _STREAM_CHANNELS)
    channel = np.tile(np.arange(_STREAM_CHANNELS, dtype=np.uint32), months + 1)
    return _seed_state([*seed_words, month, channel]).reshape(months + 1, _STREAM_CHANNELS, 4)


def _node_draws(nodes: np.ndarray, words: np.ndarray, config: SimulationConfig) -> None:
    """Draw the run's nodes into `nodes`, the node table's cost and tolerance rows, in slot order: the
    initial roster from stream `words[0, _STREAM_INIT_NODES]`, then month m's candidate pool from stream
    `words[m, _STREAM_CANDIDATES]` (`words` as `_stream_words` returns them).

    A stream's draws are its first `2 * count` raw words: its costs, then its tolerances.  The
    initial roster's are taken by one PCG64.  Pools of at most `_VECTOR_POOL_MAX` nodes are
    computed for every month at once by `_pcg_outputs`, in chunks of at most `_CHUNK_OUTPUTS`
    words; a larger pool is taken by one PCG64 a month, as NumPy's C generator is then the faster.
    Each row is then converted in place by the formula of `Generator.uniform`:
    `lo + (hi - lo) * ((raw >> 11) * 2**-53)`.  A property test pins each stream to
    `node_cost * rng.uniform(lo, hi, count)`, then `rng.uniform(tlo, thi, count)`.
    """
    raw = nodes.view(np.uint64)
    start, pool = config.initial_nodes, config.entry_pool_size
    if start:
        raw[:, :start] = np.random.PCG64(_Words(words[0, _STREAM_INIT_NODES])).random_raw(2 * start).reshape(2, start)
    if 0 < pool <= _VECTOR_POOL_MAX:
        step = _CHUNK_OUTPUTS // (2 * pool)  # months a chunk
        for first in range(1, len(words), step):
            outputs = _pcg_outputs(words[first:first + step, _STREAM_CANDIDATES], 2 * pool)
            lo = start + (first - 1) * pool
            hi = lo + len(outputs) * pool
            # Row by row: a contiguous 1-D slice always reshapes to a view, so the writes land in the table.
            raw[0, lo:hi].reshape(-1, pool)[...] = outputs[:, :pool]
            raw[1, lo:hi].reshape(-1, pool)[...] = outputs[:, pool:]
    elif pool:
        for month_words in words[1:, _STREAM_CANDIDATES]:
            raw[:, start:start + pool] = np.random.PCG64(_Words(month_words)).random_raw(2 * pool).reshape(2, pool)
            start += pool
    for row, (lo, hi) in ((raw[0], config.cost_spread), (raw[1], config.tolerance_range)):
        row >>= _U11
        uniform = row.view(np.float64)
        uniform[...] = row  # exact below 2**53; one-dimensional, so NumPy casts in place, element by element
        uniform *= 2.0**-53
        uniform *= hi - lo
        uniform += lo
    nodes[0] *= config.node_cost


# PCG64's 128-bit multiplier M: a step is `state * M + inc`, modulo 2**128 (`_pcg_outputs`).
_PCG_MULT = 2549297995355413924 * 2**64 + 4865540595714422341
_MOD128 = 2**128
_PCG_MULT_INV = pow(_PCG_MULT, -1, _MOD128)
# Shifts and masks as uint64, so that no operand is a Python int (NumPy 1.24 casts those by value).
_U1, _U9, _U11, _U32, _U58, _U63 = (np.uint64(n) for n in (1, 9, 11, 32, 58, 63))
_LOW8, _BIT8, _LOW32, _LOW52 = (np.uint64(n) for n in (0xFF, 0x100, 0xFFFFFFFF, 2**52 - 1))
# The largest pool `_node_draws` computes by `_pcg_outputs`, and the most words it computes at once.  At
# 2 * pool words a stream, 128-bit arithmetic in NumPy outruns one PCG64 a month up to a pool of about
# 40, in chunks that keep its temporaries (64 KiB each) in cache.
_VECTOR_POOL_MAX = 32
_CHUNK_OUTPUTS = 8192
# NumPy's Poisson sampler multiplies uniforms below this mean and switches to PTRS at it.
_POISSON_PTRS_MEAN = 10.0
# How often at most a month's Poisson run outlasts the uniforms `_gc_draws` computes (`_poisson_uniforms`).
_POISSON_TAIL = 2.0**-12


def _halves(values: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The 128-bit `values` as uint64 rows of their high and low halves."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & (2**64 - 1) for v in values], dtype=np.uint64))


@functools.cache
def _output_constants(count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The halves of `A_j = M**(j + 2)` and `B_j = M**(j + 2) + ... + M + 1` mod 2**128 for
    `j < count`: a seeded stream's output j reads the state `s * A_j + inc * B_j` (`_pcg_outputs`)."""
    powers, sums = [_PCG_MULT**2 % _MOD128], [(_PCG_MULT**2 + _PCG_MULT + 1) % _MOD128]
    for _ in range(count - 1):
        powers.append(powers[-1] * _PCG_MULT % _MOD128)
        sums.append((sums[-1] + powers[-1]) % _MOD128)
    constants = (*_halves(powers), *_halves(sums))
    for row in constants:  # shared by every caller through the cache
        row.flags.writeable = False
    return constants


def _mul128(hi: np.ndarray, lo: np.ndarray, c_hi: np.ndarray, c_lo: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 128-bit numbers `hi * 2**64 + lo` times the constants `c_hi * 2**64 + c_lo`, mod 2**128,
    all as uint64 halves, elementwise; the constants broadcast against the numbers.

    The low product's high half is summed from 32-bit limbs, each partial product
    exact in uint64; every other sum wraps, as the modulus asks.
    """
    b0, b1 = c_lo & _LOW32, c_lo >> _U32
    a0, a1 = lo & _LOW32, lo >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    high = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)  # of lo * c_lo
    return high + lo * c_hi + hi * c_lo, lo * c_lo


def _pcg_outputs(words: np.ndarray, count: int) -> np.ndarray:
    """The first `count` raw outputs of each stream seeded by a row of `words` (`(streams, 4)` PCG64
    seeding words, as `PCG64(_Words(row))` takes them), of shape `(streams, count)`, in one vectorised
    pass: row i is `PCG64(_Words(words[i])).random_raw(count)`.

    PCG64 seeds with `s = w0 * 2**64 + w1` and `inc = 2 * (w2 * 2**64 + w3) + 1` by stepping twice,
    adding `s` between the steps, and steps before each output, so output j is XSL-RR of the state
    `s * A_j + inc * B_j` mod 2**128 (`_output_constants`): `rotr64(hi ^ lo, hi >> 58)`.  After
    O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good Algorithms for Random
    Number Generation" (2014).  A property test pins it to NumPy's.
    """
    w0, w1, w2, w3 = (column[:, None] for column in words.T)  # columns, against a row of constants
    a_hi, a_lo, b_hi, b_lo = _output_constants(count)
    seed_hi, seed_lo = _mul128(w0, w1, a_hi, a_lo)
    inc_hi, inc_lo = _mul128(w2 << _U1 | w3 >> _U63, w3 << _U1 | _U1, b_hi, b_lo)
    lo = seed_lo + inc_lo
    hi = seed_hi + inc_hi + (lo < seed_lo)  # the carry out of the low halves
    rotation = hi >> _U58
    hi ^= lo
    return hi >> rotation | hi << (-rotation & _U63)


def _poisson_uniforms(rate: float) -> int:
    """The uniforms `_gc_draws` computes a month at a `gc_arrival_rate` of `rate`, in (0, 10): the least
    `k` such that `poisson(rate) >= k`, a Poisson run longer than `k` uniforms, has probability at most
    `_POISSON_TAIL`."""
    term = cdf = math.exp(-rate)
    k = 1
    while 1 - cdf > _POISSON_TAIL:
        term *= rate / k
        cdf += term
        k += 1
    return k


def _arrival_counts(outputs: np.ndarray, rate: float) -> Tuple[np.ndarray, np.ndarray]:
    """Each stream's `Generator.poisson(rate)` for a `rate` below 10, from a row per stream of its first raw
    outputs (as `_pcg_outputs` returns them), and whether the stream's Poisson run outlasts its row; there
    the count is the row's length, and the draw is at least that.

    Below a mean of 10, NumPy multiplies uniforms `(raw >> 11) * 2**-53` while their product stays
    above `exp(-rate)`, and the count is the number of partial products above it (at 0 it draws
    nothing and returns 0, as no product exceeds `exp(0)`).  `np.multiply.accumulate` along a row
    multiplies left to right, as NumPy's C loop does, and the products never rise, so the ones above
    `exp(-rate)` are the leading ones.
    """
    products = (outputs >> _U11) * 2.0**-53
    np.multiply.accumulate(products, axis=1, out=products)
    above = products > math.exp(-rate)
    return np.count_nonzero(above, axis=1), above[:, -1]


@functools.cache
def _ziggurat() -> Tuple[np.ndarray, np.ndarray]:
    """NumPy's ziggurat strip widths `wi`, and for each strip a certified fast-path limit no larger
    than NumPy's `ki` (read-only, shared by every caller through the cache).

    NumPy's `standard_normal` (Marsaglia & Tsang, "The Ziggurat Method for Generating Random
    Variables", J. Stat. Softw. 5(8), 2000) reads one raw word `r`, strip `idx = r & 0xff`, its
    sign from bit 8 and `rabs = (r >> 9) & (2**52 - 1)`, and returns `+-rabs * wi[idx]` when
    `rabs < ki[idx]`; else it takes a slow path that reads more words.  Both tables are C constants
    NumPy does not expose, so they are read from NumPy itself, through a probe `PCG64` whose state
    is set so that its next raw words are a chosen word `o`, then 0.  At `rabs = 1` the normal is
    `wi[idx]`, whether it took the fast path (one word read, the state reads back `o`) or the slow
    path with a uniform of 0 (two words, the state reads back 0).  With `x = wi * 2**52`, the
    limit `floor(2**52 * x[idx - 1] / x[idx])`, and `x[255] / x[0]` for strip 0, is `ki` or one
    below it; one probe at `rabs` one below the limit certifies it, taking the fast path.  Strip 1
    takes the slow path even at `rabs = 1`, so its limit is 0.  If any probe reads otherwise, every
    limit is 0, and every month with an arrival is drawn by its own generator, at build.
    """
    probe = np.random.PCG64(_Words(np.zeros(4, dtype=np.uint64)))
    rng = np.random.Generator(probe)
    state = probe.state

    def normal(word: int) -> Tuple[float, int]:  # the normal drawn from `word`, then 0, and the state after it
        inc = -word * _PCG_MULT % _MOD128  # so that the word after `word` is XSL-RR(0) = 0
        state["state"] = {"state": (word - inc) * _PCG_MULT_INV % _MOD128, "inc": inc}
        probe.state = state
        return rng.standard_normal(), probe.state["state"]["state"]

    widths = [normal(1 << 9 | idx) for idx in range(256)]
    wi = [value for value, _ in widths]
    certified = all(after in (1 << 9 | idx, 0) and value > 0 for idx, (value, after) in enumerate(widths))
    ki = [0] * 256
    if certified:
        ratios = [width.as_integer_ratio() for width in wi]

        def limit(upper: int, lower: int) -> int:  # floor(2**52 * wi[upper] / wi[lower]), exactly
            (a, b), (c, d) = ratios[upper], ratios[lower]
            return (a * d << 52) // (b * c)

        ki = [limit(255, 0), 0] + [limit(idx - 1, idx) for idx in range(2, 256)]
        certified = all(normal(bound - 1 << 9 | idx) == ((bound - 1) * wi[idx], bound - 1 << 9 | idx)
                        for idx, bound in enumerate(ki) if bound)
    tables = np.array(wi), np.array(ki if certified else [0] * 256, dtype=np.uint64)
    for table in tables:
        table.flags.writeable = False
    return tables


def _normals(raw: np.ndarray, wi: np.ndarray, ki: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """NumPy's `standard_normal` on the ziggurat's fast path from each raw word of `raw`, and whether
    the word is certified to take that path (`_ziggurat`'s tables `wi` and `ki`)."""
    strip = (raw & _LOW8).astype(np.intp)
    rabs = raw >> _U9 & _LOW52
    z = rabs * wi[strip]  # rabs < 2**52 converts to float64 exactly, as in NumPy's C
    np.negative(z, out=z, where=(raw & _BIT8).astype(bool))
    return z, rabs < ki[strip]


def _exps(values: np.ndarray) -> np.ndarray:
    """`math.exp` of each value: libm's `exp`, which NumPy's C calls; `np.exp`'s SIMD loops may round otherwise."""
    return np.fromiter(map(math.exp, values.tolist()), dtype=np.float64, count=len(values))


def _gc_draws(words: np.ndarray, config: SimulationConfig) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every month's growth-capital arrivals at a `gc_arrival_rate` in (0, 10), from `words`, growth capital's
    stream words, a row per month from month 0: the offsets, each month's arrivals added up from month 0 in
    the smallest unsigned dtype that holds them, so that month m's are those from `offsets[m - 1]` to
    `offsets[m]` (month 0 draws none); then the endowments and expiries of every month's arrivals, in order.

    A month's arrivals are `_spawned(words, config, month)`, bit for bit.  A month of `c` arrivals reads
    `c + 1` uniforms (`_arrival_counts`), then `2 * c` normals, endowments first, one raw output each on
    the ziggurat's fast path (`_normals`): outputs `c + 1 ... 3 * c`.  So each month's first `3 * k - 2`
    outputs are computed by `_pcg_outputs`, `k = _poisson_uniforms(rate)`, for at most `_CHUNK_OUTPUTS`
    outputs at a time.  A log-normal draw is `exp(mu + sigma * z)`: `mu + sigma * z` in float64 arrays,
    as NumPy's C computes it, then `_exps`; an expiry is `month + max(round(n), 1)`, by `np.rint`, which
    rounds half to even as `round` does.  A month whose Poisson run outlasts the `k` uniforms, or one of
    whose normals is not certified on the fast path, is marked (a boolean a month) and drawn after its
    chunk's pass by `_spawned` itself, and its arrivals are spliced in among the chunk's in month order.
    """
    rate, months = config.gc_arrival_rate, len(words)
    uniforms = _poisson_uniforms(rate)
    width = 3 * uniforms - 2  # a count below `uniforms` reads at most 3 * count + 1 outputs
    wi, ki = _ziggurat()
    offsets = np.zeros(months, dtype=np.int64)  # each month's count, summed in place once the arrivals are joined
    endowments, expiries = [], []
    step = _CHUNK_OUTPUTS // width  # months a chunk
    for first in range(1, months, step):
        outputs = _pcg_outputs(words[first:first + step], width)
        count, marked = _arrival_counts(outputs[:, :uniforms], rate)
        each = np.where(marked, 0, count)
        row = np.repeat(np.arange(len(count)), each)  # each arrival's month, as a row of the chunk
        c = each[row]
        # Arrival a of a month of c reads output c + 1 + a for its endowment and 2 * c + 1 + a for its lifespan.
        column = np.arange(len(row)) - (np.cumsum(each) - each)[row] + c + 1
        z_endowment, fast = _normals(outputs[row, column], wi, ki)
        z_lifespan, fast_lifespan = _normals(outputs[row, column + c], wi, ki)
        marked[row[~(fast & fast_lifespan)]] = True
        keep = ~marked[row]
        row = row[keep]
        endowment = _exps(config.gc_endowment_mu + config.gc_endowment_sigma * z_endowment[keep])
        lifespans = _exps(config.gc_lifespan_mu + config.gc_lifespan_sigma * z_lifespan[keep])
        expiry = np.maximum(np.rint(lifespans), 1.0).astype(np.int64) + (row + first)
        offsets[first:first + step] = count
        marked = np.flatnonzero(marked)
        if len(marked):  # drawn by their own generators, each inserted before the next month's arrivals
            drawn = [_spawned(words, config, month) for month in (marked + first).tolist()]
            sizes = list(map(len, drawn))
            offsets[marked + first] = sizes
            at = np.repeat(np.searchsorted(row, marked), sizes)
            arrivals = [gc for gcs in drawn for gc in gcs]
            endowment = np.insert(endowment, at, [gc.endowment for gc in arrivals])
            expiry = np.insert(expiry, at, [gc.expiry for gc in arrivals])
        endowments.append(endowment)
        expiries.append(expiry.astype(np.min_scalar_type(expiry.max(initial=0))))  # joined, the widest of them
    endowments = np.concatenate(endowments)  # a list at a time, which keeps the other's chunks out of the peak
    expiries = np.concatenate(expiries)
    np.cumsum(offsets, out=offsets)
    return offsets.astype(np.min_scalar_type(offsets[-1])), endowments, expiries


def spawn_growth_capitalists(month: int, config: SimulationConfig, rng: np.random.Generator) -> List[GrowthCapitalist]:
    """Draw this month's entrants by `config`'s `gc_*` fields: Poisson count, log-normal endowment/lifespan,
    a lifespan rounded to whole months half to even and held to at least one month."""
    count = int(rng.poisson(config.gc_arrival_rate))
    if count == 0:
        return []
    endowments = rng.lognormal(config.gc_endowment_mu, config.gc_endowment_sigma, count).tolist()
    lifespans = rng.lognormal(config.gc_lifespan_mu, config.gc_lifespan_sigma, count).tolist()
    return [GrowthCapitalist(e, month + max(round(n), 1)) for e, n in zip(endowments, lifespans)]


def _spawned(words: np.ndarray, config: SimulationConfig, month: int) -> List[GrowthCapitalist]:
    """Month `month`'s arrivals drawn by its own generator, from `words`, growth capital's stream words, a row
    per month: `spawn_growth_capitalists` on `Generator(PCG64(_Words(words[month])))`."""
    return spawn_growth_capitalists(month, config, np.random.Generator(np.random.PCG64(_Words(words[month]))))


def _taken(offsets: memoryview, endowments: memoryview, expiries: memoryview, month: int) -> List[GrowthCapitalist]:
    """Month `month`'s arrivals from the arrays `_gc_draws` returns, as memoryviews, whose slices iterate as
    Python numbers; a month without one builds no slice."""
    first, last = offsets[month - 1], offsets[month]
    return list(map(GrowthCapitalist, endowments[first:last], expiries[first:last])) if first != last else []


def draw_run(config: SimulationConfig, nodes: np.ndarray) -> Callable[[int], List[GrowthCapitalist]]:
    """Make every draw of the run `config`: fill `nodes`, the node table's cost and tolerance rows
    (`_node_draws`), and return the source of its growth capital, `month -> arrivals`, a new list of what
    `_spawned` draws for the month.

    Every stream's words are hashed in one pass.  By `gc_arrival_rate`: at 0 no month draws, and growth
    capital's words are not kept; below 10 a month takes its slices of the arrays `_gc_draws` fills here;
    from 10, where NumPy's Poisson samples by PTRS, a month draws from its own generator (`_spawned`).
    """
    words = _stream_words(config.seed, config.horizon_months)
    _node_draws(nodes, words, config)
    if not config.gc_arrival_rate:
        return lambda month: []
    words = words[:, _STREAM_GROWTH_CAPITAL].copy()  # growth capital's alone, the rest dropped before its draws
    if config.gc_arrival_rate >= _POISSON_PTRS_MEAN:
        return functools.partial(_spawned, words, config)
    return functools.partial(_taken, *map(memoryview, _gc_draws(words, config)))
