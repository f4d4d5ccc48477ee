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

Random numbers (tag ``philox4x64-u01/v2``): event e of family f in
replicate r reads the four 64-bit words of one Philox4x64-10 block with key
(seed << 64) | r and counter (e + 1, f, 0, 0): waiting time, type choice,
offspring, spare.  A word w becomes the uniform (w >> 11) * 2^-53, as in
numpy's ``Generator.random``, so family 0 of replicate r reads numpy's own
stream (seed, r) word for word.  Every draw is a pure function of
(seed, replicate, family, event): results depend neither on how many
families are advanced together nor on any thread count.

:func:`run_batch` advances a pool of families together, one event per
family per step, refilling freed slots in (replicate, family) order.  Once
no family is left to start the pool only shrinks, and the engine computes
each live family's Philox blocks several events ahead in one call, as many
as fit in one full-pool step.  A batch's results are arrays, a
:class:`BatchOutcomes`; a :class:`SimOutcome` per replicate is built only
when one is indexed or iterated.  :func:`run_to_extinction` is the same
engine on one replicate, and :func:`step` applies the same transition
kernel to one population.  A deliberately naive engine (one exponential
clock per host and per spore, no aggregation) lives in
:func:`run_to_extinction_reference` as a distributional oracle.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, sample_offspring

RNG_ALGORITHM = "philox4x64-u01/v2"

logger = logging.getLogger(__name__)

DEFAULT_MAX_EVENTS = 10**9

# families x type columns the batch engine holds at once; any value gives
# the same results, it only trades memory against per-step overhead
POOL_CELLS = 1 << 15

# populations from which the type scan adds its running sums row by row:
# numpy's cumsum down axis 0 walks one column at a time, ~5 ns per entry,
# while adding a row costs ~1.5 us however long it is
_ROW_SUMS = 256

# RandomStream materializes uniforms in growing blocks; the block schedule
# never changes the draw sequence, only how far ahead it is computed
_FIRST_BLOCK = 128
_MAX_BLOCK = 4096
_MASK64 = (1 << 64) - 1

_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
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


def _mulhilo(a, m: int, hi, lo, tmp) -> None:
    """hi, lo = high and low 64-bit words of a * m, from 32-bit halves;
    ``tmp`` holds four scratch arrays shaped like ``a``."""
    a_lo, a_hi, t, t2 = tmp
    m_lo = np.uint64(m & 0xFFFFFFFF)
    m_hi = np.uint64(m >> 32)
    np.bitwise_and(a, _LOW32, out=a_lo)
    np.right_shift(a, _SHIFT32, out=a_hi)
    np.multiply(a_lo, m_lo, out=t)
    t >>= _SHIFT32
    np.multiply(a_hi, m_lo, out=t2)
    t2 += t  # a_hi*m_lo + carry, below 2^64
    np.multiply(a_lo, m_hi, out=t)
    np.bitwise_and(t2, _LOW32, out=a_lo)
    t += a_lo  # a_lo*m_hi + low half of t2, below 2^64
    t2 >>= _SHIFT32
    t >>= _SHIFT32
    np.multiply(a_hi, m_hi, out=hi)
    hi += t2
    hi += t
    np.multiply(a, np.uint64(m), out=lo)


def philox4x64(counter, key) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 blocks (Salmon et al., SC'11), elementwise.

    ``counter`` holds four broadcastable uint64 arrays, ``key`` an array of
    low key words (numpy's 128-bit Philox key is (high << 64) | low) and one
    integer high word; returns the four output words.  Bit for bit what
    ``np.random.Philox`` produces for the same key and counter.
    """
    low, high = key
    words = np.broadcast_arrays(
        *(np.array(a, dtype=np.uint64, ndmin=1) for a in (*counter, low))
    )
    buf = np.empty((13, *words[0].shape), dtype=np.uint64)
    for dst, src in zip(buf, words):
        dst[...] = src
    c0, c1, c2, c3, k0, hi0, lo0, hi1, lo1, *tmp = buf
    for i in range(_PHILOX_ROUNDS):
        if i:
            k0 += np.uint64(_PHILOX_W[0])
        _mulhilo(c0, _PHILOX_M[0], hi0, lo0, tmp)
        _mulhilo(c2, _PHILOX_M[1], hi1, lo1, tmp)
        np.bitwise_xor(hi1, c1, out=c0)
        c0 ^= k0
        np.bitwise_xor(hi0, c3, out=c2)
        c2 ^= np.uint64((int(high) + i * _PHILOX_W[1]) & _MASK64)
        c1, lo1 = lo1, c1
        c3, lo0 = lo0, c3
    return c0, c1, c2, c3


def _u01(word: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from 64-bit words, as Generator.random makes them."""
    return (word >> _SHIFT11) * 2.0**-53


class RandomStream:
    """Counter-based random stream fully determined by (version, seed, index).

    Distinct stream indices under the same master seed give statistically
    independent streams.  The simulation engines key their draws on
    (``seed``, ``index``) directly; :meth:`uniform01` serves the stream's
    uniforms in order, for the naive engine and for single draws.
    """

    __slots__ = ("seed", "index", "_gen", "_buf", "_i", "_block")

    version = RNG_ALGORITHM

    def __init__(self, seed: int, index: int = 0):
        seed = int(seed)
        index = int(index)
        _check_stream_id(seed, index)
        self.seed = seed
        self.index = index
        self._gen = np.random.Generator(np.random.Philox(key=(seed << 64) | index))
        self._buf: list[float] = []
        self._i = 0
        self._block = _FIRST_BLOCK

    def uniform01(self) -> float:
        """Next uniform draw in [0, 1)."""
        if self._i == len(self._buf):
            n = self._block
            self._block = min(n * 8, _MAX_BLOCK)
            self._buf = self._gen.random(n).tolist()
            self._i = 0
        self._i += 1
        return self._buf[self._i - 1]

    def exponential(self, rate: float) -> float:
        """Exp(rate) via inverse CDF -ln(U)/rate with U in (0, 1]."""
        return -math.log1p(-self.uniform01()) / rate

    @property
    def generator(self) -> np.random.Generator:
        """Underlying numpy generator, for the naive engine's clock draws."""
        return self._gen


@dataclass
class PopulationState:
    """Sparse per-type host counts with cached totals and a clock.

    Entries with zero hosts are never retained and type 0 never appears.
    Single-owner: one replicate mutates one state, no sharing.
    """

    counts: dict[int, int] = field(default_factory=dict)
    n_hosts: int = 0
    n_spores: int = 0
    clock: float = 0.0

    @classmethod
    def from_counts(cls, counts: dict[int, int], clock: float = 0.0) -> "PopulationState":
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
            clock=float(clock),
        )

    def copy(self) -> "PopulationState":
        return PopulationState(
            counts=dict(self.counts),
            n_hosts=self.n_hosts,
            n_spores=self.n_spores,
            clock=self.clock,
        )

    @property
    def extinct(self) -> bool:
        return self.n_hosts == 0

    def total_rate(self, m: ModelParams) -> float:
        return m.rho * self.n_hosts + m.beta * self.n_spores

    def check_consistency(self) -> None:
        """Recompute the cached totals from the counts; exact match required."""
        assert all(k >= 1 and n > 0 for k, n in self.counts.items()), self.counts
        assert self.n_hosts == sum(self.counts.values()), (self.n_hosts, self.counts)
        assert self.n_spores == sum(k * n for k, n in self.counts.items()), (
            self.n_spores,
            self.counts,
        )


@dataclass(frozen=True)
class EventRecord:
    """One applied event: the new clock value, what happened, to which type,
    and the sampled offspring count (None for removals)."""

    time: float
    kind: str  # "removal" or "release"
    host_type: int
    offspring: int | None


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


class BatchOutcomes(Sequence):
    """The outcomes of one batch as read-only arrays, in replicate order;
    a ``Sequence[SimOutcome]``.

    ``extinction_times`` holds ``inf`` where the replicate was censored.
    The :class:`SimOutcome` objects are built once, the first time a
    replicate is indexed or the batch iterated.  A batch equals another
    batch, or a list, holding the same outcomes.
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

    def _list(self) -> list[SimOutcome]:
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
        return self._outcomes

    def __len__(self) -> int:
        return len(self.censored)

    def __getitem__(self, i):
        return self._list()[i]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other) -> bool:
        if isinstance(other, BatchOutcomes):
            return self.horizon == other.horizon and all(
                np.array_equal(getattr(self, a), getattr(other, a)) for a in self._ARRAYS
            )
        if isinstance(other, Sequence):
            return self._list() == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"BatchOutcomes({len(self)} replicates, horizon={self.horizon})"


class _Rows:
    """Populations as columns of host counts, and the transition kernel that
    applies one exact event to every population at once.

    Row k-1 of ``counts`` holds the type-k hosts of each population; counts
    and totals are integers stored as floats (exact below 2^53).  ``counts``
    stays C-contiguous: the kernel scatters its updates through a flat view.
    """

    def __init__(self, m: ModelParams, n: int, width: int):
        self.m = m
        self.counts = np.zeros((width, n))
        self.hosts = np.zeros(n)
        self.spores = np.zeros(n)
        self.clock = np.zeros(n)

    def widen(self, width: int) -> None:
        counts = np.zeros((width, len(self.hosts)))
        counts[: len(self.counts)] = self.counts
        self.counts = counts

    def keep(self, mask: np.ndarray) -> None:
        self.counts = np.ascontiguousarray(self.counts[:, mask])
        self.hosts = self.hosts[mask]
        self.spores = self.spores[mask]
        self.clock = self.clock[mask]

    def event(
        self, u_wait: np.ndarray, u_pick: np.ndarray, u_offspring: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply one event to every population (all must be alive), drawn
        from three uniforms each.  Returns (removal mask, host type,
        offspring count; 0 for removals)."""
        m = self.m
        n = len(self.hosts)
        removal_rate = m.rho * self.hosts
        total = removal_rate + m.beta * self.spores
        wait = np.log1p(-u_wait)
        wait /= total
        self.clock -= wait

        # one uniform across the combined rate picks kind and type: the type
        # is the first whose cumulative weight (removal rho*n_k, release
        # beta*k*n_k, in ascending type order) exceeds x.  The running sums
        # are one cumsum down the types, up to the highest type any
        # population holds.
        x = u_pick * total
        removal = x < removal_rate
        x -= np.where(removal, 0.0, removal_rate)
        top = int(np.flatnonzero(self.counts.any(axis=1))[-1]) + 1
        release_weight = m.beta * np.arange(1, top + 1, dtype=float)
        acc = np.where(removal, m.rho, release_weight[:, None])
        acc *= self.counts[:top]
        if n < _ROW_SUMS:
            np.cumsum(acc, axis=0, out=acc)
        else:  # same sums, faster when rows are long
            for k in range(1, top):
                acc[k] += acc[k - 1]
        col = np.count_nonzero(acc <= x, axis=0)
        edge = col == top
        if edge.any():  # x landed on the top edge by rounding: last occupied type
            occupied = self.counts[::-1, edge] > 0.0
            col[edge] = len(self.counts) - 1 - np.argmax(occupied, axis=0)

        # scatter updates on the flat counts (ufunc.at on flat indices is the
        # fastest scatter numpy offers here): entry (k-1)*n + i is n_k of
        # population i.  Offsets one type below 1 wrap around to the last
        # row and add 0 there.
        lanes = np.arange(n)
        here = col * n + lanes
        np.subtract.at(self.counts.reshape(-1), here, 1.0)
        release = ~removal
        np.add.at(self.counts.reshape(-1), here - n, (release & (col > 0)).astype(float))
        self.hosts -= removal | (col == 0)
        self.spores -= np.where(removal, col + 1, 1)

        j = np.where(release, m.offspring.quantiles(u_offspring), 0)
        born = j > 0
        if born.any():
            top = int(j.max())
            if top > len(self.counts):
                self.widen(top)
            np.add.at(self.counts.reshape(-1), (j - 1) * n + lanes, born.astype(float))
            self.hosts += born
            self.spores += j
        return removal, col + 1, j


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
    are its initial hosts in ascending type order.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if max_events < 1:
        raise ValueError("max_events must be >= 1")
    _check_stream_id(seed, first + replicates - 1)
    types = sorted(init.counts)
    founders = np.repeat(np.array(types, dtype=np.intp), [init.counts[k] for k in types])
    n_families = len(founders)
    times = np.full(replicates, init.clock)
    censored = np.zeros(replicates, dtype=bool)
    events = np.zeros(replicates, dtype=np.uint64)
    peaks = np.zeros(replicates)
    failed = replicates  # smallest replicate over budget, if any
    steps = drain_steps = calls = computed = consumed = 0

    if n_families:
        width = max(int(founders[-1]), m.offspring.quantile(1.0 - 2.0**-20), 1)
        size = min(replicates * n_families, max(1, POOL_CELLS // width))
        pool = _Rows(m, size, width)
        replicate = np.zeros(size, dtype=np.intp)
        key = np.zeros(size, dtype=np.uint64)
        family = np.zeros(size, dtype=np.uint64)
        done_events = np.zeros(size, dtype=np.uint64)
        peak = np.zeros(size)
        end = math.inf if horizon is None else horizon
        started = 0  # families started so far
        limit = replicates * n_families  # families to start
        # uniforms computed ahead: ahead[w][e, lane[i]] is word w of live
        # family i's e-th block after the buffer was computed; row is the
        # next e to read, depth the buffer's length (both 0: compute first)
        depth = row = 0

        def start(slots: np.ndarray) -> None:
            nonlocal started
            r, f = np.divmod(np.arange(started, started + len(slots)), n_families)
            started += len(slots)
            k = founders[f]
            pool.counts[:, slots] = 0.0
            pool.counts[k - 1, slots] = 1.0
            pool.hosts[slots] = 1.0
            pool.spores[slots] = k
            pool.clock[slots] = init.clock
            replicate[slots] = r
            key[slots] = r.astype(np.uint64) + np.uint64(first)
            family[slots] = f
            done_events[slots] = 0
            peak[slots] = 1.0

        start(np.arange(size))
        while len(replicate):
            live = len(replicate)
            if row == depth:
                # as many events ahead as fit in one full-pool step: one
                # while families are still being started (the pool is full,
                # so slots refilled after this step get fresh blocks), more
                # as the drain empties the pool
                depth = size // live
                ahead_counter = done_events + np.arange(1, depth + 1, dtype=np.uint64)[:, None]
                # waiting-time, type-choice and offspring words; the spare is unused
                words = philox4x64((ahead_counter, family, 0, 0), (key, seed))[:3]
                ahead = [_u01(w) for w in words]
                del words, ahead_counter  # frees the Philox buffers before the kernel allocates
                lane = np.arange(live)
                row = 0
                computed += depth * live
                calls += 1
            uniforms = [u[row, lane] for u in ahead]
            row += 1
            steps += 1
            drain_steps += live < size
            consumed += live
            pool.event(*uniforms)
            cut = pool.clock > end  # the event falls past the horizon
            done_events += ~cut
            np.maximum(peak, pool.hosts, out=peak, where=~cut)
            finished = (pool.hosts == 0.0) | cut

            over = done_events > max_events
            if over.any():
                failed = min(failed, int(replicate[over].min()))
            if finished.any():
                idx = np.flatnonzero(finished)
                r = replicate[idx]
                np.maximum.at(times, r, pool.clock[idx])
                np.logical_or.at(censored, r, cut[idx])
                np.add.at(events, r, done_events[idx])
                np.add.at(peaks, r, peak[idx])
                over = events[r] > max_events
                if over.any():
                    failed = min(failed, int(r[over].min()))
            if failed < replicates:
                # only replicates below the first failure still matter
                limit = min(limit, failed * n_families)
                finished |= replicate >= failed

            free = np.flatnonzero(finished)
            refill = min(len(free), limit - started)
            if refill > 0:
                start(free[:refill])
                free = free[refill:]
            if len(free):
                keep = np.ones(len(replicate), dtype=bool)
                keep[free] = False
                pool.keep(keep)
                replicate, key, family, done_events, peak, lane = (
                    a[keep] for a in (replicate, key, family, done_events, peak, lane)
                )

    logger.debug(
        "batch of %d replicates, %d families: %d engine steps, %d in the drain; "
        "%d Philox blocks computed in %d calls, %d consumed; %d events, at most %d per "
        "replicate; peak hosts at most %d", replicates, replicates * n_families, steps,
        drain_steps, computed, calls, consumed, int(events.sum()), int(events.max()),
        int(peaks.max()),
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


def step(state: PopulationState, m: ModelParams, rng: RandomStream) -> EventRecord:
    """Apply one exact event to ``state`` in place.

    The batch engine's transition kernel on one population, drawing exactly
    three uniforms from ``rng``: waiting time, type choice and offspring
    (drawn, and unused, for a removal too).  Fed a family's Philox words
    (skipping each block's spare), iterating it reproduces the engine bit
    for bit.
    """
    if state.n_hosts < 1:
        raise ValueError("step requires a non-extinct state")
    row = _Rows(m, 1, max(state.counts))
    for k, n in state.counts.items():
        row.counts[k - 1, 0] = n
    row.hosts[0] = state.n_hosts
    row.spores[0] = state.n_spores
    row.clock[0] = state.clock
    uniforms = np.array([[rng.uniform01()] for _ in range(3)])
    removal, host_type, offspring = row.event(*uniforms)
    state.counts.clear()
    state.counts.update(
        {k + 1: int(n) for k, n in enumerate(row.counts[:, 0].tolist()) if n}
    )
    state.n_hosts = int(row.hosts[0])
    state.n_spores = int(row.spores[0])
    state.clock = float(row.clock[0])
    if removal[0]:
        return EventRecord(state.clock, "removal", int(host_type[0]), None)
    return EventRecord(state.clock, "release", int(host_type[0]), int(offspring[0]))


def run_to_extinction(
    init: PopulationState,
    m: ModelParams,
    rng: RandomStream,
    horizon: float | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> SimOutcome:
    """Run one replicate until the population dies out or passes ``horizon``.

    The batch engine on the single replicate (``rng.seed``, ``rng.index``),
    always from the start of that stream; ``rng`` itself is not advanced.
    The input state is not mutated.  Raises :class:`BudgetError` when the
    replicate needs more than ``max_events`` events, which converts
    misconfigured (near- or supercritical) runs into a clean error instead
    of a hang.
    """
    return _simulate(init, m, rng.seed, rng.index, 1, horizon, max_events)[0]


def survival_indicator(
    k: int,
    t: float,
    m: ModelParams,
    rng: RandomStream,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> bool:
    """One replicate from a single type-k host; True iff alive at time t."""
    if k < 1:
        raise ValueError("type must be >= 1")
    if t < 0.0:
        raise ValueError("horizon must be nonnegative")
    init = PopulationState.from_counts({k: 1})
    outcome = run_to_extinction(init, m, rng, horizon=t, max_events=max_events)
    return outcome.censored


def run_batch(
    init: PopulationState,
    m: ModelParams,
    master_seed: int,
    replicates: int,
    horizon: float | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    threads: int = 1,
) -> BatchOutcomes:
    """Independent replicates; replicate i equals
    ``run_to_extinction(init, m, RandomStream(master_seed, i), ...)``.

    Results come in replicate-index order, as a :class:`BatchOutcomes`:
    arrays of extinction times, censoring flags, event counts and peak host
    counts that also read as a sequence of :class:`SimOutcome`.
    ``threads`` is accepted for compatibility and has no effect: the engine
    runs in the calling thread and its results depend on no schedule.  A :class:`BudgetError` names the
    smallest replicate index whose events exceed ``max_events``.
    """
    return _simulate(init, m, master_seed, 0, replicates, horizon, max_events)


def run_to_extinction_reference(
    init: PopulationState,
    m: ModelParams,
    rng: RandomStream,
    horizon: float | None = None,
    max_events: int = 10**6,
) -> SimOutcome:
    """Naive per-clock engine: an oracle for the aggregated one.

    Every host carries its own removal clock and every spore its own release
    clock; all clocks are redrawn after each event (memorylessness makes the
    resampling exact).  O(hosts + spores) work per event, intended only for
    small populations in tests.
    """
    hosts = []
    for k, n in init.counts.items():
        hosts.extend([k] * n)
    t = init.clock
    peak = len(hosts)
    events = 0
    gen = rng.generator

    while hosts:
        n = len(hosts)
        removal = gen.exponential(1.0 / m.rho, size=n) if m.rho > 0.0 else None
        best = math.inf
        best_host = -1
        is_removal = False
        if removal is not None:
            idx = int(np.argmin(removal))
            best = float(removal[idx])
            best_host = idx
            is_removal = True
        for i, k in enumerate(hosts):
            spore_clocks = gen.exponential(1.0 / m.beta, size=k)
            w = float(spore_clocks.min())
            if w < best:
                best = w
                best_host = i
                is_removal = False

        t_next = t + best
        if horizon is not None and t_next > horizon:
            return SimOutcome(
                extinction_time=None, horizon=horizon, event_count=events, peak_hosts=peak
            )
        t = t_next
        events += 1
        if events > max_events:
            raise BudgetError(f"reference engine budget {max_events} exhausted at t={t:g}")

        if is_removal:
            hosts.pop(best_host)
        else:
            k = hosts[best_host] - 1
            if k:
                hosts[best_host] = k
            else:
                hosts.pop(best_host)
            j = sample_offspring(m.offspring, rng)
            if j >= 1:
                hosts.append(j)
                if len(hosts) > peak:
                    peak = len(hosts)

    return SimOutcome(extinction_time=t, horizon=horizon, event_count=events, peak_hosts=peak)
