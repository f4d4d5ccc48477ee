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
family per step, refilling freed slots in (replicate, family) order.  Once
no family is left to start the pool only shrinks, and the engine computes
each live family's block 0 several events ahead in one call, as many events
as fit in one full-pool step.  A batch's results are arrays, a
:class:`BatchOutcomes`; a :class:`SimOutcome` per replicate is built only
when one is indexed or iterated.  :func:`run_to_extinction` is the same
engine on one replicate.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams

RNG_ALGORITHM = "philox4x32-u01/v4"

logger = logging.getLogger(__name__)

DEFAULT_MAX_EVENTS = 10**9

# families x type columns the batch engine holds at once; any value gives
# the same results, it only trades memory against per-step overhead
POOL_CELLS = 1 << 15

# populations from which the type scan adds its running sums row by row:
# numpy's cumsum down axis 0 walks one column at a time, ~5 ns per entry,
# while adding a row costs ~1.5 us however long it is
_ROW_SUMS = 256

# RandomStream computes its uniforms in growing blocks of events, so a
# fresh stream's first draw stays cheap; the block schedule never changes
# the draw sequence, only how far ahead it is computed
_FIRST_BLOCK = 43
_MAX_BLOCK = 1024
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


def philox4x32(counter, key: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Philox4x32-10 blocks (Salmon et al., SC'11), elementwise.

    ``counter`` holds four broadcastable arrays of 32-bit words and ``key``
    two 32-bit integers; returns the four output words as uint64 arrays.
    Each 32x32 -> 64 product is one exact uint64 multiply.
    """
    words = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in counter))
    # words 0 and 2, words 1 and 3, products; one allocation, not three
    even, odd, scratch = np.empty((3, 2, *words[0].shape), dtype=np.uint64)
    even[0], odd[0], even[1], odd[1] = words
    ones = (1,) * words[0].ndim
    m = _PHILOX_M.reshape(2, *ones)
    keys = np.array(
        [[(k + i * w) & _MASK32 for k, w in zip(key, _PHILOX_W)] for i in range(_PHILOX_ROUNDS)],
        dtype=np.uint64,
    ).reshape(_PHILOX_ROUNDS, 2, *ones)
    for k in keys:
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
    """Family 0's uniforms of replicate ``index``, in the engine's order."""
    start, n = 0, _FIRST_BLOCK
    while start < MAX_EVENTS:
        events = np.arange(start, min(start + n, MAX_EVENTS), dtype=np.uint64)
        yield from np.stack(event_uniforms(seed, events, 0, index), axis=1).ravel().tolist()
        start, n = start + n, min(n * 8, _MAX_BLOCK)


class RandomStream:
    """Counter-based random stream fully determined by (version, seed, index).

    The engines key their draws on (``seed``, ``index``) directly, replicate
    ``index`` under master seed ``seed``; :meth:`uniform01` serves its family
    0's uniforms in the engine's order (waiting time, type choice, offspring,
    event after event; two Philox4x32 blocks per event, laid out as the
    module docstring says), so the engine's transition kernel fed a fresh
    stream from a one-host start reproduces :func:`run_to_extinction` bit for
    bit.
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


def _decide(m: ModelParams, counts, removal_rate, total, u_pick, u_offspring):
    """The next event of the populations whose host counts are the columns
    of ``counts`` (all alive), drawn from a type-choice and an offspring
    uniform each.  Returns (removal mask, removal rate subtracted from x,
    running sums, row of the host's type, offspring quantile: the offspring
    count of a release)."""
    # one uniform across the combined rate picks kind and type: the type is
    # the first whose cumulative weight (removal rho*n_k, release beta*k*n_k,
    # in ascending type order) exceeds x.  The running sums are one cumsum
    # down the types, up to the highest type any population holds.
    x = u_pick * total
    top = int(np.flatnonzero(counts.any(axis=1))[-1]) + 1
    release_weight = m.beta * np.arange(1, top + 1, dtype=float)[:, None]
    if m.rho:
        removal = x < removal_rate
        shift = np.where(removal, 0.0, removal_rate)
        x -= shift
        acc = np.where(removal, m.rho, release_weight)
        acc *= counts[:top]
    else:  # every event is a release: the same sums, without two costly np.where
        removal = np.zeros(len(x), dtype=bool)
        shift = 0.0
        acc = release_weight * counts[:top]
    if len(x) < _ROW_SUMS:
        np.cumsum(acc, axis=0, out=acc)
    else:  # same sums, faster when rows are long
        for k in range(1, top):
            acc[k] += acc[k - 1]
    col = np.count_nonzero(acc <= x, axis=0)
    edge = col == top
    if edge.any():  # x landed on the top edge by rounding: last occupied type
        occupied = counts[::-1, edge] > 0.0
        col[edge] = len(counts) - 1 - np.argmax(occupied, axis=0)
    return removal, shift, acc, col, m.offspring.quantiles(u_offspring)


class _Rows:
    """Populations as columns of host counts, and the transition kernel that
    applies one exact event to every population at once.

    Row k-1 of ``counts`` holds the type-k hosts of each population; counts
    and totals are integers stored as floats (exact below 2^53).  ``counts``
    stays C-contiguous: the kernel scatters its updates through a flat view.
    ``undecided`` counts the events that the prefixes of their uniforms did
    not decide.
    """

    def __init__(self, m: ModelParams, n: int, width: int):
        self.m = m
        self.counts = np.zeros((width, n))
        self.hosts = np.zeros(n)
        self.spores = np.zeros(n)
        self.clock = np.zeros(n)
        self.lanes = np.arange(n)
        # an offspring prefix u decides the count j drawn at it when
        # u + slack stays below P(J <= j): below these bounds (rounded down),
        # and below 0 past the table's top
        bound = np.append(m.offspring.cumulative, 0.0) - _PREFIX_SLACK
        self.below = np.nextafter(bound, -np.inf)
        self.undecided = 0

    def widen(self, width: int) -> None:
        counts = np.zeros((width, len(self.hosts)))
        counts[: len(self.counts)] = self.counts
        self.counts = counts

    def keep(self, mask: np.ndarray) -> None:
        self.counts = np.ascontiguousarray(self.counts[:, mask])
        self.hosts = self.hosts[mask]
        self.spores = self.spores[mask]
        self.clock = self.clock[mask]
        self.lanes = self.lanes[: len(self.hosts)]

    def event(self, u_wait, u_pick, u_offspring, full=None):
        """Apply one event to every population (all must be alive), drawn
        from three uniforms each.  Returns (removal mask, row of the host's
        type, offspring count; 0 for removals).

        With ``full``, ``u_pick`` and ``u_offspring`` are 32-bit prefixes
        (:func:`event_prefixes`), and ``full(lanes)`` returns the two
        uniforms in full for the populations ``lanes``.  It is called, before
        anything changes, only for the populations whose event the prefixes
        leave undecided.
        """
        m = self.m
        n = len(self.hosts)
        removal_rate = m.rho * self.hosts
        total = removal_rate + m.beta * self.spores
        removal, shift, acc, col, j = _decide(
            m, self.counts, removal_rate, total, u_pick, u_offspring
        )
        lanes = self.lanes
        here = col * n + lanes
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
            x -= shift  # removals subtract 0
            undecided = acc.reshape(-1).take(here, mode="clip") <= x
            if m.rho:
                undecided |= removal & (x >= removal_rate)
            undecided |= self.below.take(j, mode="clip") <= u_offspring
            if undecided.any():
                redo = np.flatnonzero(undecided)
                removal[redo], _, _, col[redo], j[redo] = _decide(
                    m, self.counts[:, redo], removal_rate[redo], total[redo], *full(redo)
                )
                here[redo] = col[redo] * n + redo
                self.undecided += len(redo)

        wait = np.log1p(-u_wait)
        wait /= total
        self.clock -= wait
        # scatter updates on the flat counts (ufunc.at on flat indices is the
        # fastest scatter numpy offers here): entry (k-1)*n + i is n_k of
        # population i.  Offsets one type below 1 wrap around to the last
        # row and add 0 there.
        np.subtract.at(self.counts.reshape(-1), here, 1.0)
        release = ~removal
        np.add.at(self.counts.reshape(-1), here - n, (release & (col > 0)).astype(float))
        self.hosts -= removal | (col == 0)
        self.spores -= np.where(removal, col + 1, 1)

        j = np.where(release, j, 0)
        born = j > 0
        if born.any():
            top = int(j.max())
            if top > len(self.counts):
                self.widen(top)
            np.add.at(self.counts.reshape(-1), (j - 1) * n + lanes, born.astype(float))
            self.hosts += born
            self.spores += j
        return removal, col, j


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
    steps = drain_steps = calls = computed = consumed = undecided = 0

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
        # block 0 computed ahead: ahead[w][e, lane[i]] is the waiting time
        # (w = 0) or a prefix (w = 1, 2) of live family i's e-th event after
        # the buffer was computed; row is the next e to read, depth the
        # buffer's length (both 0: compute first)
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
            pool.clock[slots] = 0.0
            replicate[slots] = r
            key[slots] = r.astype(np.uint64) + np.uint64(first)
            family[slots] = f
            done_events[slots] = 0
            peak[slots] = 1.0

        def full(lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return event_uniforms(seed, done_events[lanes], family[lanes], key[lanes])[1:]

        start(np.arange(size))
        while len(replicate):
            live = len(replicate)
            if row == depth:
                # as many events ahead as fit in one full-pool step: one
                # while families are still being started (the pool is full,
                # so slots refilled after this step get fresh blocks), more
                # as the drain empties the pool
                depth = size // live
                # events past the budget are never read: clipping them keeps
                # every Philox counter below 2^32
                ahead_events = done_events + np.arange(depth, dtype=np.uint64)[:, None]
                np.minimum(ahead_events, max_events, out=ahead_events)
                ahead = event_prefixes(seed, ahead_events, family, key)
                lane = np.arange(live)
                row = 0
                computed += depth * live
                calls += 1
            if len(lane) == ahead[0].shape[1]:  # no family has left since
                uniforms = [u[row] for u in ahead]
            else:
                uniforms = [u[row].take(lane) for u in ahead]
            row += 1
            steps += 1
            drain_steps += live < size
            consumed += live
            pool.event(*uniforms, full)
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
        undecided = pool.undecided

    logger.debug(
        "batch of %d replicates, %d families: %d engine steps, %d in the drain; "
        "%d Philox blocks 0 computed in %d calls, %d consumed; %d events left undecided by "
        "their prefixes, refined from %d blocks; %d events, at most %d per replicate; peak "
        "hosts at most %d",
        replicates, replicates * n_families, steps, drain_steps, computed, calls, consumed,
        undecided, 2 * undecided, int(events.sum()), int(events.max()), int(peaks.max()),
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
    runs in the calling thread and its results depend on no schedule.  A
    :class:`BudgetError` names the smallest replicate index whose events
    exceed ``max_events``.
    """
    return _simulate(init, m, master_seed, 0, replicates, horizon, max_events)
