"""Exact event-driven simulation of the spore/host population.

Hosts evolve independently (the branching property), so a population
started from counts z is the union of sum_k z_k independent families, each
founded by one host: it dies out when its last family does, and is alive at
time t when any family is.  The engine simulates single-host families and
reduces them per replicate: the extinction time is the maximum over the
replicate's families, the replicate is censored when any family passes the
horizon, and event counts add up.

Within a family, hosts with the same spore count are exchangeable, so its
state is a row of host counts n_k by type k plus the totals N = sum n_k
(hosts) and S = sum k*n_k (spores).  Every event is drawn exactly from the
embedded jump chain:

* next event after Exp(rho*N + beta*S),
* removal with probability rho*N / (rho*N + beta*S), the removed host's type
  chosen with probability n_k / N,
* otherwise a release, the releasing host's type chosen with probability
  k*n_k / S; the host becomes type k-1 (vanishing when k-1 = 0, hosts
  without spores are not tracked) and the released spore spawns a type-J
  host, J drawn from the offspring law by inverse CDF (nothing is created
  when J = 0).

Random numbers (tag ``philox4x32-u01/v4``): event e (from 0) of family f
in replicate r has two Philox4x32-10 blocks, with key (seed mod 2^32,
seed >> 32) and counters (2e + b, f, r mod 2^32, r >> 32) for b = 0, 1.
Each of the event's three uniforms has 53 bits, u = w * 2^-53, as in
numpy's ``Generator.random``.  Block 0, with output words (x0, x1, x2, x3),
holds the waiting-time word ((x1 << 32) | x0) >> 11 and the high 32 bits of
the type-choice word (x2) and of the offspring word (x3); the low 21 bits of
those two are x0 >> 11 and x1 >> 11 of block 1, whose other words are
spare.  :func:`event_uniforms` is the one definition of the three uniforms.

The engine computes block 1 only where it matters.  The kernel's decisions
are monotone in each uniform, because floating-point rounding is: the kind
and type come from x = u * total via ``x < removal rate`` and a count of
running sums <= x, the offspring count from the inverse CDF.  A 32-bit
prefix h places u in [h * 2^-32, h * 2^-32 + (2^21 - 1) * 2^-53], both ends
exact in float64.  Where the decision is the same at both ends it is the
decision at u; only where a boundary falls inside that cell (about one
event in 2^32 per boundary) does the engine read the event's uniforms in
full.  Its results are bit for bit those of the kernel fed
:func:`event_uniforms`.
No two draws share a counter: event budgets are capped at
:data:`MAX_EVENTS` = 2^31 - 1 and families per replicate at 2^32 - 1.
Every draw is a pure function of (seed, replicate, family, event):
results depend neither on how many families are advanced together nor on
any thread count.  (``v3`` read the three uniforms as whole 64-bit words,
two from block 0 and one from block 1; ``v2`` read one Philox4x64-10 block
per event.)

:func:`run_batch` advances a pool of families together, one event per
family per step, refilling freed slots in (replicate, family) order.  The
pool holds a row of host counts only for the types its families hold, in
ascending type order, so a law with a long tail costs the rows its families
reach, not the rows its range spans; a type without a row adds nothing to a
running sum, so the sums are those over every type.  It runs
``POOL_CELLS // (rows + LANE_ROWS)`` families, recomputed whenever the row
count changes: a family costs its cell in each row plus its own vectors.
Once no family is left to start the pool only shrinks, and the engine
computes each live family's block 0 several events ahead in one call, as
many events as fit in one full-pool step.  The last few families are
finished one at a time in Python floats, with the same arithmetic on the
same uniforms, read in full.  A batch's results are arrays, a
:class:`BatchOutcomes`; a :class:`SimOutcome` per replicate is built only
when the batch is iterated.  Replicate i of :func:`run_batch` draws
only at the counters above that carry i, so for a given model, start and
master seed it is the same in any batch that holds it.
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams

RNG_ALGORITHM = "philox4x32-u01/v4"

logger = logging.getLogger(__name__)

DEFAULT_MAX_EVENTS = 10**9

# the batch engine's budget: a pool over R type rows runs
# POOL_CELLS // (R + LANE_ROWS) families (at least one), recomputed when R
# changes.  A family costs its cell in each row (counts and running sums)
# plus its own vectors (_Rows._VECTORS, the sink row's cell, and its blocks
# computed ahead), which LANE_ROWS prices in rows.  The values keep the table
# law {0: 0.6, 2: 0.4} over 3 rows at its 10,922 families and hold every pool
# near the bytes that one takes: run_batch peaks measured by tracemalloc,
# numpy 2.4, were 2.5 MB for it (4 replicates from {1: 4000, 3: 2000}),
# 2.8 MB for Poisson(2) (10^4 from {3: 1}: up to 5,461 families, 1 to 10
# rows) and 1.8 MB for geometric(0.05) (5,000 from {1: 1}: up to 69 rows).
# Any values give the same results; they trade memory against per-step
# overhead
POOL_CELLS = 1 << 16
LANE_ROWS = 3

# families in the pool's first step: they meet the types the law reaches in
# a few events before the pool grows (at most doubling per step), so a pool
# started over one row does not overshoot its budget once the rows arrive
_FIRST_LANES = 1 << 10

# families left in the drain at which each is finished alone in Python
# floats: a numpy step costs ~110 us however few families it moves, an
# event alone 4-15 us
_ALONE = 8

# populations from which the type scan adds its running sums row by row
# instead of by numpy's cumsum down axis 0.  Measured (numpy 2.4, Python
# 3.11, 2-vCPU Xeon): at 3 rows the row loop is faster at every population
# count, at 11 rows cumsum is faster below ~120 populations, and at 115 rows
# and 16 populations cumsum takes ~7 us against the loop's ~66 us.  The cut
# keeps a wide law's drain, few populations over many rows, off the loop
_ROW_SUMS = 256
# type rows below which the scan counts the running sums <= x as a uint8 sum
# down the rows, 3-4x faster than count_nonzero; the count reaches the row
# count, so from 256 rows on it would wrap
_BYTE_ROWS = 256

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# event e reads the Philox counters 2e and 2e + 1, which must stay below 2^32
MAX_EVENTS = (1 << 31) - 1
# a uniform lies within this much above its 32-bit prefix h * 2^-32
_PREFIX_SLACK = ((1 << 21) - 1) * 2.0**-53

_PHILOX_M = np.array([0xD2511F53, 0xCD9E8D57], dtype=np.uint64)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
_SHIFT21 = np.uint64(21)
_SHIFT11 = np.uint64(11)


def _check_stream_id(seed: int, index: int) -> None:
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= index <= _MASK64:
        raise ValueError("stream index must fit in 64 bits")


class BudgetError(RuntimeError):
    """Event budget exhausted before extinction or horizon.

    Distinguishes runaway (effectively supercritical) inputs from engine
    bugs; carries the index of the replicate that ran out.
    """

    def __init__(self, message: str, replicate: int | None = None):
        super().__init__(message)
        self.replicate = replicate


@functools.lru_cache(maxsize=8)
def _round_keys(key: tuple[int, int], ndim: int) -> tuple[np.ndarray, ...]:
    """Philox4x32-10's ten round keys for ``key``, each a read-only pair
    shaped to broadcast over pairs of ``ndim``-dimensional words."""
    keys = np.array(
        [[(k + i * w) & _MASK32 for k, w in zip(key, _PHILOX_W)] for i in range(_PHILOX_ROUNDS)],
        dtype=np.uint64,
    ).reshape(_PHILOX_ROUNDS, 2, *(1,) * ndim)
    keys.setflags(write=False)
    return tuple(keys)


def philox4x32(counter, key: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Philox4x32-10 blocks (Salmon et al., SC'11), elementwise.

    ``counter`` holds four broadcastable arrays of 32-bit words and ``key``
    two 32-bit integers; returns the four output words as uint64 arrays.
    Each 32x32 -> 64 product is one exact uint64 multiply.
    """
    shape = np.broadcast_shapes(*map(np.shape, counter))
    # words 0 and 2, words 1 and 3, products; one allocation, not three
    even, odd, scratch = np.empty((3, 2, *shape), dtype=np.uint64)
    even[0], odd[0], even[1], odd[1] = counter
    m = _PHILOX_M.reshape(2, *(1,) * len(shape))
    for k in _round_keys(key, len(shape)):
        np.multiply(even, m, out=scratch)
        np.right_shift(scratch, _SHIFT32, out=even)  # high halves of both products
        scratch &= _LOW32  # low halves
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        odd ^= even[::-1]
        odd ^= k
        even, odd, scratch = odd, scratch[::-1], even
    return even[0], odd[0], even[1], odd[1]


def _u01(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) with 53 bits: (hi << 21 | lo >> 11) * 2^-53."""
    return ((hi << _SHIFT21) | (lo >> _SHIFT11)) * 2.0**-53


def _counters(event, family, replicate, blocks: int) -> tuple[np.ndarray, ...]:
    """The Philox counter words of block 0, or of blocks 0 and 1 stacked on
    a leading axis, of the given events; the family and replicate words are
    left unbroadcast."""
    e, f, r = (np.asarray(a, dtype=np.uint64) for a in (event, family, replicate))
    e = e * np.uint64(2)
    if blocks == 2:
        e = np.broadcast_to(e, np.broadcast_shapes(e.shape, f.shape, r.shape))
        e = np.stack((e, e + np.uint64(1)))
    return e, f, r & _LOW32, r >> _SHIFT32


def event_uniforms(seed: int, event, family, replicate) -> tuple[np.ndarray, ...]:
    """The waiting-time, type-choice and offspring uniforms of event(s)
    ``event`` of family ``family`` in replicate ``replicate`` (broadcastable
    integer arrays), under the engine's counter layout."""
    x0, x1, x2, x3 = philox4x32(
        _counters(event, family, replicate, 2), (seed & _MASK32, seed >> 32)
    )
    # block 1's x0 and x1 hold the low bits of the type-choice and offspring words
    return _u01(x0[0], x1[0]), _u01(x0[1], x2[0]), _u01(x1[1], x3[0])


def event_prefixes(seed: int, event, family, replicate) -> tuple[np.ndarray, ...]:
    """Block 0 alone: the waiting-time uniform of :func:`event_uniforms`,
    and its type-choice and offspring uniforms' 32-bit prefixes h * 2^-32
    (each uniform lies in [h * 2^-32, h * 2^-32 + (2^21 - 1) * 2^-53])."""
    x0, x1, x2, x3 = philox4x32(
        _counters(event, family, replicate, 1), (seed & _MASK32, seed >> 32)
    )
    return _u01(x0, x1), x2 * 2.0**-32, x3 * 2.0**-32


def _stream_uniforms(seed: int, index: int):
    """Family 0's uniforms of replicate ``index``, in the engine's order,
    computed 1,024 events at a time."""
    for start in range(0, MAX_EVENTS, 1024):
        events = np.arange(start, min(start + 1024, MAX_EVENTS), dtype=np.uint64)
        yield from np.stack(event_uniforms(seed, events, 0, index), axis=1).ravel().tolist()


class RandomStream:
    """Counter-based random stream fully determined by (version, seed, index).

    The engines key their draws on (``seed``, ``index``) directly, replicate
    ``index`` under master seed ``seed``; :meth:`uniform01` serves its family
    0's uniforms in the engine's order (waiting time, type choice, offspring,
    event after event; two Philox4x32 blocks per event, laid out as the
    module docstring says).  So the engine's transition kernel fed a fresh
    stream from a one-host start reproduces replicate ``index`` of
    ``run_batch(init, m, seed, ...)`` bit for bit.
    """

    __slots__ = ("seed", "index", "_draws")

    version = RNG_ALGORITHM

    def __init__(self, seed: int, index: int = 0):
        seed = int(seed)
        index = int(index)
        _check_stream_id(seed, index)
        self.seed = seed
        self.index = index
        self._draws = _stream_uniforms(seed, index)

    def uniform01(self) -> float:
        """Next uniform draw in [0, 1)."""
        return next(self._draws)


@dataclass
class PopulationState:
    """The initial population of a replicate: sparse per-type host counts
    and their totals.  Every replicate starts at time 0.

    Entries with zero hosts are never retained and type 0 never appears.
    The engines read a state and never mutate it.
    """

    counts: dict[int, int] = field(default_factory=dict)
    n_hosts: int = 0
    n_spores: int = 0

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "PopulationState":
        clean: dict[int, int] = {}
        for k, n in counts.items():
            k = int(k)
            n = int(n)
            if n < 0 or k < 1:
                raise ValueError("counts must map types >= 1 to nonnegative host counts")
            if n > 0:
                clean[k] = clean.get(k, 0) + n
        return cls(
            counts=clean,
            n_hosts=sum(clean.values()),
            n_spores=sum(k * n for k, n in clean.items()),
        )

    @property
    def extinct(self) -> bool:
        return self.n_hosts == 0


@dataclass(frozen=True, slots=True)
class SimOutcome:
    """Result of one replicate.

    ``extinction_time`` is None when the run was censored at ``horizon``
    (the population was still alive there); censoring doubles as the
    survival indicator.  ``event_count`` counts the events before extinction
    or the horizon.  ``peak_hosts`` sums the peak host counts of the
    single-host families the initial hosts found: an upper bound on the
    population's peak, equal to it for a one-host start.
    """

    extinction_time: float | None
    horizon: float | None
    event_count: int
    peak_hosts: int

    @property
    def censored(self) -> bool:
        return self.extinction_time is None

    def __post_init__(self) -> None:
        if self.extinction_time is None and self.horizon is None:
            raise ValueError("censored outcome requires a horizon")
        if self.extinction_time is not None and self.extinction_time < 0.0:
            raise ValueError("extinction time must be nonnegative")


class BatchOutcomes:
    """The outcomes of one batch as read-only arrays, in replicate order.

    ``extinction_times`` holds ``inf`` where the replicate was censored.
    Iterating the batch yields a :class:`SimOutcome` per replicate, built
    once, the first time it is iterated.  A batch equals another batch
    holding the same outcomes.
    """

    _ARRAYS = ("extinction_times", "censored", "event_counts", "peak_hosts")
    __slots__ = (*_ARRAYS, "horizon", "_outcomes")

    def __init__(
        self,
        extinction_times: np.ndarray,
        censored: np.ndarray,
        event_counts: np.ndarray,
        peak_hosts: np.ndarray,
        horizon: float | None,
    ):
        self.extinction_times = extinction_times
        self.censored = censored
        self.event_counts = event_counts
        self.peak_hosts = peak_hosts
        for a in (extinction_times, censored, event_counts, peak_hosts):
            a.setflags(write=False)
        self.horizon = horizon
        self._outcomes: list[SimOutcome] | None = None

    def __len__(self) -> int:
        return len(self.censored)

    def __iter__(self):
        if self._outcomes is None:
            self._outcomes = [
                SimOutcome(None if c else t, self.horizon, e, p)
                for t, c, e, p in zip(
                    self.extinction_times.tolist(),
                    self.censored.tolist(),
                    self.event_counts.tolist(),
                    self.peak_hosts.tolist(),
                )
            ]
        return iter(self._outcomes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BatchOutcomes):
            return NotImplemented
        return self.horizon == other.horizon and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in self._ARRAYS
        )

    def __repr__(self) -> str:
        return f"BatchOutcomes({len(self)} replicates, horizon={self.horizon})"


def _decide(m: ModelParams, counts, weight, removal_rate, total, u_pick, u_offspring):
    """The next event of the populations whose host counts are the columns
    of ``counts`` (all alive), with release weights ``weight`` (beta times
    each row's type), drawn from a type-choice and an offspring uniform
    each.  Returns (removal mask, removal rate subtracted from x, running
    sums, row of the host's type, offspring quantile: the offspring count of
    a release).  The row is the count of running sums <= x: a uint8 array
    below ``_BYTE_ROWS`` = 256 rows, where the count fits a byte, an intp
    array from there on."""
    # one uniform across the combined rate picks kind and type: the type is
    # the first whose cumulative weight (removal rho*n_k, release beta*k*n_k,
    # in ascending type order) exceeds x.  The running sums are one cumsum
    # down the rows; a type without a row, or a row holding no host, adds
    # 0.0 to the sums (s + 0.0 = s), so they are those over every type
    x = u_pick * total
    rows = len(counts)
    if m.rho:
        removal = x < removal_rate
        shift = np.where(removal, 0.0, removal_rate)
        x -= shift
        acc = np.where(removal, m.rho, weight)
        acc *= counts
    else:  # every event is a release: the same sums, without two costly np.where
        removal = np.zeros(len(x), dtype=bool)
        shift = 0.0
        acc = weight * counts
    if len(x) < _ROW_SUMS:
        np.cumsum(acc, axis=0, out=acc)
    else:  # same sums, faster when rows are long
        for k in range(1, rows):
            acc[k] += acc[k - 1]
    if rows < _BYTE_ROWS:
        row = (acc <= x).sum(axis=0, dtype=np.uint8)
    else:
        row = np.count_nonzero(acc <= x, axis=0)
    edge = row == rows
    if edge.any():  # x landed on the top edge by rounding: last occupied type
        occupied = counts[::-1, edge] > 0.0
        row[edge] = rows - 1 - np.argmax(occupied, axis=0)
    return removal, shift, acc, row, m.offspring.quantiles(u_offspring)


class _Rows:
    """Populations as columns of host counts, and the transition kernel that
    applies one exact event to every population at once.

    Row r of ``counts`` holds the hosts of type ``types[r]`` of each
    population; ``types`` ascend, and ``row_of[k]`` is the row of type k,
    -1 for type 0 and ``len(types)`` for a type without a row, up to
    ``row_of[-1]``, which no type has.  While ``dense`` (the types are
    1 .. R) the row of type k is k - 1.  A type gains a row when a host of it
    appears; a row no population holds any more stays, adding 0.0 to the
    sums, until the next :meth:`relayout` drops it.  Counts and totals are
    integers stored as floats (exact below 2^53).  ``undecided`` counts the
    events that the prefixes of their uniforms did not decide.

    ``counts`` is the C-contiguous view of rows 1 .. R of ``store``, whose
    row 0 is a sink for type 0.  The kernel scatters its count updates
    through a flat view of ``store``, where row r of ``counts`` is row r + 1,
    so type 0 (a host that releases its last spore, or no offspring) lands on
    the sink; it only ever gets 0.0 there and stays zero.  The sink keeps
    every scatter index non-negative: ``ufunc.at`` takes a slower path when
    any index is negative (numpy 2.4, ``add.at`` at 10,922 lanes, a third of
    them negative: 16.1 us against 10.8).

    The rest of a population's record is one entry in each vector of
    ``_VECTORS``: host and spore totals, clock, replicate index in the batch,
    Philox family and replicate words, events done, peak hosts, and its
    column in the blocks computed ahead.  Only :meth:`grow`, :meth:`found`
    and :meth:`keep` create, extend or filter them.
    """

    _VECTORS = (
        ("hosts", float), ("spores", float), ("clock", float), ("replicate", np.intp),
        ("family", np.uint64), ("key", np.uint64), ("done", np.uint64), ("peak", float),
        ("column", np.intp),
    )

    def __init__(self, m: ModelParams, types):
        self.m = m
        self.store = np.zeros((1, 0))
        self.counts = self.store[1:]
        self.types = np.zeros(0, dtype=np.intp)
        self.relayout(types)
        for name, dtype in self._VECTORS:
            setattr(self, name, np.zeros(0, dtype=dtype))
        self.lanes = np.arange(0)
        # an offspring prefix u decides the count j drawn at it when
        # u + slack stays below P(J <= j): below these bounds (rounded down),
        # and below 0 past the table's top
        bound = np.append(m.offspring.cumulative, 0.0) - _PREFIX_SLACK
        self.below = np.nextafter(bound, -np.inf)
        self.undecided = 0

    def relayout(self, add=()) -> None:
        """Rows for the types held and the types ``add`` (0 has none), in
        ascending order; the rows no population holds are dropped."""
        held = self.counts.any(axis=1)
        add = np.asarray(add, dtype=np.intp)
        top = max(self.types.max(initial=0), add.max(initial=0))
        present = np.zeros(top + 1, dtype=bool)  # np.unique would import numpy.ma
        present[self.types[held]] = True
        present[add] = True
        present[0] = False
        types = np.flatnonzero(present)
        store = np.zeros((len(types) + 1, self.counts.shape[1]))
        store[1 + np.searchsorted(types, self.types[held])] = self.counts[held]
        self._hold(store)
        self.types = types
        self.weight = self.m.beta * types.astype(float)[:, None]
        self.row_of = np.full(top + 2, len(types))
        self.row_of[0] = -1
        self.row_of[types] = np.arange(len(types))
        self.dense = types.max(initial=0) == len(types)  # types 1 .. R: row = type - 1

    def rows(self, types: np.ndarray) -> np.ndarray:
        """The rows of ``types``, adding the missing ones (type 0 maps to -1)."""
        rows = types - 1 if self.dense else self.row_of.take(types, mode="clip")
        if rows.max(initial=-1) < len(self.types):
            return rows
        self.relayout(types)
        return self.rows(types)

    def _hold(self, store: np.ndarray) -> None:
        """Hold ``store``, sink row included, and its view ``counts``."""
        self.store = store
        self.counts = store[1:]

    def grow(self, extra: int) -> None:
        """Append ``extra`` empty populations."""
        self._hold(np.concatenate((self.store, np.zeros((len(self.store), extra))), axis=1))
        for name, dtype in self._VECTORS:
            setattr(self, name, np.concatenate((getattr(self, name), np.zeros(extra, dtype))))
        self.lanes = np.arange(len(self.hosts))

    def found(self, slots: np.ndarray, types: np.ndarray, replicate, family, key) -> None:
        """Start population ``slots[i]`` from one host of type ``types[i]``,
        as family ``family[i]`` of replicate ``replicate[i]``, whose Philox
        replicate word is ``key[i]``.  Each slot is new (past the end: the
        pool grows to it) or held a population that has finished: one that
        died out left its column empty, one that left with hosts (censored,
        or past a failed replicate) is cleared here."""
        extra = int(slots.max(initial=-1)) + 1 - len(self.hosts)
        if extra > 0:
            self.grow(extra)
        rows = self.rows(types)
        left = slots[self.hosts[slots] != 0.0]
        if len(left):
            self.counts[:, left] = 0.0
        self.counts[rows, slots] = 1.0
        self.hosts[slots] = 1.0
        self.spores[slots] = types
        self.clock[slots] = 0.0
        self.replicate[slots] = replicate
        self.family[slots] = family
        self.key[slots] = key
        self.done[slots] = 0
        self.peak[slots] = 1.0

    def keep(self, mask: np.ndarray) -> None:
        """Keep the populations where ``mask`` is set, in order."""
        self._hold(np.compress(mask, self.store, axis=1))  # C-contiguous
        for name, _ in self._VECTORS:
            setattr(self, name, getattr(self, name)[mask])
        self.lanes = self.lanes[: len(self.hosts)]

    def event(self, u_wait, u_pick, u_offspring, full=None):
        """Apply one event to every population (all must be alive), drawn
        from three uniforms each.  Returns (removal mask, the host's type,
        offspring count; 0 for removals).

        With ``full``, ``u_pick`` and ``u_offspring`` are 32-bit prefixes
        (:func:`event_prefixes`), and ``full(lanes)`` returns the two
        uniforms in full for the populations ``lanes``.  It is called, before
        anything changes, only for the populations whose event the prefixes
        leave undecided.
        """
        m = self.m
        n = len(self.hosts)
        if m.rho:
            removal_rate = m.rho * self.hosts
            total = removal_rate + m.beta * self.spores
        else:  # 0.0 + x = x: the same totals
            removal_rate = 0.0
            total = m.beta * self.spores
        removal, shift, acc, row, j = _decide(
            m, self.counts, self.weight, removal_rate, total, u_pick, u_offspring
        )
        lanes = self.lanes
        here = np.multiply(row, n, dtype=np.intp)
        here += lanes
        if full is not None:
            # every step of _decide is monotone in each uniform, so the event
            # drawn at a prefix u is the event at any uniform in
            # [u, u + slack] unless it differs at u + slack: in kind when x
            # reaches the removal rate, in type when x reaches the next
            # running sum, in offspring count when the uniform reaches the
            # next cumulative probability.  An edge lane reads its own total
            # and so counts as undecided.
            x = u_pick + _PREFIX_SLACK
            x *= total
            if m.rho:
                x -= shift  # removals subtract 0
            undecided = acc.reshape(-1).take(here, mode="clip") <= x
            if m.rho:
                undecided |= removal & (x >= removal_rate)
            undecided |= self.below.take(j, mode="clip") <= u_offspring
            if undecided.any():
                redo = np.flatnonzero(undecided)
                removal[redo], _, _, row[redo], j[redo] = _decide(
                    m, self.counts[:, redo], self.weight,
                    removal_rate[redo] if m.rho else 0.0, total[redo], *full(redo),
                )
                here[redo] = np.multiply(row[redo], n, dtype=np.intp) + redo
                self.undecided += len(redo)

        del acc  # the scatter below needs no running sums
        wait = np.log1p(-u_wait)
        wait /= total
        self.clock -= wait
        # scatter updates on the flat store (ufunc.at on flat indices is the
        # fastest scatter numpy offers here): entry (r + 1)*n + i is the count
        # of type types[r] in population i, and entries 0 .. n - 1 the sink,
        # where type 0 adds 0
        np.subtract.at(self.store.reshape(-1), here + n, 1.0)
        k = row + 1 if self.dense else self.types.take(row)
        # a releasing host becomes type k - 1 and its spore founds a type-j
        # host: none for removals, k - 1 = 0 or j = 0
        moved = k > 1
        if m.rho:
            self.hosts -= removal | ~moved
            self.spores -= np.where(removal, k, 1)
            release = ~removal
            moved &= release
            j *= release
        else:  # every event is a release
            self.hosts -= ~moved
            self.spores -= 1.0
        born = j > 0
        if self.dense and j.max() <= len(self.types):  # no row to add: row = type - 1
            down, new = here, j
        else:
            rows = self.rows(np.concatenate(((k - 1) * moved, j)))
            rows += 1  # the store's rows
            down, new = rows[:n] * n + lanes, rows[n:]
        flat = self.store.reshape(-1)  # rows() may have laid the store out anew
        np.add.at(flat, down, moved.astype(float))
        if born.any():
            new = new * n
            new += lanes
            np.add.at(flat, new, born.astype(float))
            self.hosts += born
            self.spores += j
        return removal, k, j


def _run_alone(pool: _Rows, i: int, seed: int, end: float, max_events: int):
    """Population ``i`` of ``pool`` to its end alone, one event at a time in
    Python floats: the arithmetic of :meth:`_Rows.event`, with running sums
    over the types it holds in ascending order (the types it does not hold
    add 0.0), on its uniforms in full.  Returns (clock, censored, events
    done, peak hosts), the event past the budget included."""
    m = pool.m
    rho, beta = m.rho, m.beta
    held = {k: n for k, n in zip(pool.types.tolist(), pool.counts[:, i].tolist()) if n}
    order = sorted(held)
    hosts, spores, clock = float(pool.hosts[i]), float(pool.spores[i]), float(pool.clock[i])
    ids = int(pool.family[i]), int(pool.key[i])
    done, peak = int(pool.done[i]), float(pool.peak[i])

    def add(k: int) -> None:
        if k in held:
            held[k] += 1.0
        else:
            held[k] = 1.0
            bisect.insort(order, k)

    chunk = 64  # events per draw, growing: a family that is nearly done reads few
    while True:
        stop = min(done + chunk, max_events + 1)
        u = event_uniforms(seed, np.arange(done, stop, dtype=np.uint64), *ids)
        for log_wait, u_pick, u_offspring in zip(
            np.log1p(-u[0]).tolist(), u[1].tolist(), u[2].tolist()
        ):
            removal_rate = rho * hosts
            total = removal_rate + beta * spores
            x = u_pick * total
            removal = x < removal_rate
            if not removal:
                x -= removal_rate
            acc = 0.0
            for k in order:  # past the last sum by rounding: the last type held
                acc += (rho if removal else beta * k) * held[k]
                if acc > x:
                    break
            clock -= log_wait / total
            held[k] -= 1.0
            if not held[k]:
                del held[k]
                order.remove(k)
            if removal:
                hosts -= 1.0
                spores -= k
            else:
                spores -= 1.0
                if k > 1:
                    add(k - 1)
                else:
                    hosts -= 1.0
                j = m.offspring.quantile(u_offspring)
                if j:
                    add(j)
                    hosts += 1.0
                    spores += j
            if clock > end:
                return clock, True, done, peak
            done += 1
            peak = max(peak, hosts)
            if not hosts or done > max_events:
                return clock, False, done, peak
        chunk = min(4 * chunk, 1 << 12)


def _simulate(
    init: PopulationState,
    m: ModelParams,
    seed: int,
    first: int,
    replicates: int,
    horizon: float | None,
    max_events: int,
) -> BatchOutcomes:
    """The engine: replicates first .. first + replicates - 1 from ``init``.

    A pool of single-host families advances one event per family per step;
    slots freed by extinct or censored families are refilled with the next
    families in (replicate, family) order, where the families of a replicate
    are its initial hosts in ascending type order.  The pool holds
    ``POOL_CELLS // (rows + LANE_ROWS)`` families for its current rows: it
    starts from at most ``_FIRST_LANES``, at most doubles per step, and
    shrinks by not refilling.  Once every family has started and at most
    ``_ALONE`` are left, :func:`_run_alone` finishes each.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if not 1 <= max_events <= MAX_EVENTS:
        raise ValueError(f"max_events must lie in [1, {MAX_EVENTS}]")
    if sum(init.counts.values()) >= 1 << 32:
        raise ValueError("a replicate must start from fewer than 2**32 hosts")
    _check_stream_id(seed, first + replicates - 1)
    types = sorted(init.counts)
    founders = np.repeat(np.array(types, dtype=np.intp), [init.counts[k] for k in types])
    n_families = len(founders)
    times = np.zeros(replicates)
    censored = np.zeros(replicates, dtype=bool)
    events = np.zeros(replicates, dtype=np.uint64)
    peaks = np.zeros(replicates)
    failed = replicates  # smallest replicate over budget, if any
    steps = drain_steps = calls = computed = consumed = undecided = resizes = 0
    alone = alone_events = 0
    lanes_at_start = rows_at_start = most_rows = 0

    if n_families:
        pool = _Rows(m, types)

        def budget() -> int:
            # families the budget allows over the pool's rows; the pool grows
            # to it by starting families in new slots and shrinks by not
            # refilling
            return max(1, POOL_CELLS // (len(pool.types) + LANE_ROWS))

        size = budget()
        end = math.inf if horizon is None else horizon
        started = 0  # families started so far
        limit = replicates * n_families  # families to start
        # block 0 computed ahead: ahead[w][e, pool.column[i]] is the waiting
        # time (w = 0) or a prefix (w = 1, 2) of live family i's e-th event
        # after the buffer was computed; row is the next e to read, depth the
        # buffer's length (both 0: compute first)
        depth = row = 0

        def start(slots: np.ndarray) -> None:
            nonlocal started
            r, f = np.divmod(np.arange(started, started + len(slots)), n_families)
            started += len(slots)
            pool.found(slots, founders[f], r, f, r.astype(np.uint64) + np.uint64(first))

        def full(lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return event_uniforms(seed, pool.done[lanes], pool.family[lanes], pool.key[lanes])[1:]

        start(np.arange(min(size, limit, _FIRST_LANES)))
        lanes_at_start, rows_at_start = len(pool.hosts), len(pool.types)
        while live := len(pool.hosts):
            most_rows = max(most_rows, len(pool.types))
            if started >= limit and live <= _ALONE:  # the last few: one at a time
                for i, r in enumerate(pool.replicate.tolist()):
                    if r >= failed:
                        continue
                    e = int(pool.done[i])
                    clock, cut, done, family_peak = _run_alone(pool, i, seed, end, max_events)
                    alone += 1
                    alone_events += done - e
                    times[r] = max(times[r], clock)
                    censored[r] |= cut
                    events[r] += done
                    peaks[r] += family_peak
                    if events[r] > max_events:
                        failed = min(failed, r)
                break
            if row == depth:
                # as many events ahead as fit in one full-pool step: one
                # while families are still being started (slots refilled
                # after this step get fresh blocks), more as the drain
                # empties the pool
                depth = 1 if started < limit else max(1, size // live)
                # events past the budget are never read: clipping them keeps
                # every Philox counter below 2^32.  A family's events done
                # never exceed the steps taken, so none lies past the budget
                # before steps + depth does
                ahead_events = pool.done + np.arange(depth, dtype=np.uint64)[:, None]
                if steps + depth > max_events:
                    np.minimum(ahead_events, max_events, out=ahead_events)
                ahead = event_prefixes(seed, ahead_events, pool.family, pool.key)
                pool.column[:] = pool.lanes
                row = 0
                computed += depth * live
                calls += 1
            if live == ahead[0].shape[1]:  # no family has left since
                uniforms = [u[row] for u in ahead]
            else:
                uniforms = [u[row].take(pool.column) for u in ahead]
            row += 1
            steps += 1
            drain_steps += started >= limit
            consumed += live
            pool.event(*uniforms, full)
            if horizon is None:
                pool.done += 1
                np.maximum(pool.peak, pool.hosts, out=pool.peak)
                finished = pool.hosts == 0.0
            else:
                cut = pool.clock > end  # the event falls past the horizon
                inside = ~cut
                pool.done += inside
                np.maximum(pool.peak, pool.hosts, out=pool.peak, where=inside)
                finished = (pool.hosts == 0.0) | cut

            if steps > max_events:  # a family's events done never exceed the steps
                over = pool.done > max_events
                if over.any():
                    failed = min(failed, int(pool.replicate[over].min()))
            free = np.flatnonzero(finished)
            if len(free):
                r = pool.replicate[free]
                np.maximum.at(times, r, pool.clock[free])
                if horizon is not None:
                    np.logical_or.at(censored, r, cut[free])
                np.add.at(events, r, pool.done[free])
                np.add.at(peaks, r, pool.peak[free])
                over = events[r] > max_events
                if over.any():
                    failed = min(failed, int(r[over].min()))
            if failed < replicates:
                # only replicates below the first failure still matter
                limit = min(limit, failed * n_families)
                free = np.flatnonzero(finished | (pool.replicate >= failed))

            if started < limit:
                resizes += budget() != size
                size = budget()
                # refill freed slots, then add slots, up to the budget; the
                # pool at most doubles per step, so the row count its new
                # families bring shrinks the budget before it is spent
                refill = min(size - live, live) + len(free)
                refill = min(refill, limit - started)
                if refill > 0:
                    added = np.arange(live, live + refill - len(free))  # new slots, if any
                    start(np.concatenate((free, added))[:refill])
                    free = free[refill:]
            if len(free):
                keep = np.ones(live, dtype=bool)
                keep[free] = False
                pool.keep(keep)
        undecided = pool.undecided

    logger.debug(
        "batch of %d replicates, %d families: %d engine steps, %d in the drain; "
        "%d Philox blocks 0 computed in %d calls, %d consumed; %d events left undecided by "
        "their prefixes, refined from %d blocks; %d events, at most %d per replicate; peak "
        "hosts at most %d; pool of %d families over %d type rows at the start, at most %d "
        "rows, %d re-sizes; %d families finished alone in %d events",
        replicates, replicates * n_families, steps, drain_steps, computed, calls, consumed,
        undecided, 2 * undecided, int(events.sum()), int(events.max()), int(peaks.max()),
        lanes_at_start, rows_at_start, most_rows, resizes, alone, alone_events,
    )
    if failed < replicates:
        index = first + failed
        raise BudgetError(
            f"replicate {index}: event budget {max_events} exhausted; "
            "the model may be critical or supercritical",
            replicate=index,
        )
    times[censored] = math.inf
    return BatchOutcomes(
        times, censored, events.astype(np.int64), peaks.astype(np.int64), horizon
    )


def run_batch(
    init: PopulationState,
    m: ModelParams,
    master_seed: int,
    replicates: int,
    horizon: float | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    threads: int = 1,
) -> BatchOutcomes:
    """Independent replicates 0 .. ``replicates`` - 1 under ``master_seed``.

    Replicate i's draws are a pure function of (``master_seed``, i, family,
    event), as the module docstring lays out, so it is the same in any batch
    that holds it.

    Results come in replicate-index order, as a :class:`BatchOutcomes`:
    arrays of extinction times, censoring flags, event counts and peak host
    counts, which iterate as :class:`SimOutcome` objects.
    ``threads`` is accepted for compatibility and has no effect: the engine
    runs in the calling thread and its results depend on no schedule.  A
    :class:`BudgetError` names the smallest replicate index whose events
    exceed ``max_events``.
    """
    return _simulate(init, m, master_seed, 0, replicates, horizon, max_events)
