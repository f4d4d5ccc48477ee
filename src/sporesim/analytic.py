"""Deterministic survival probabilities: backward ODE system and leading constant.

Writing q_k(t) for the probability that the population started from one
type-k host is still alive at time t, the first event from that host happens
at rate rho + beta*k.  A removal ends everything; a release leaves two
independent families, one from the remaining type-(k-1) host (none when
k = 1) and one from the spawned type-J host (none when J = 0).  Survival of
the pair is 1 - (1 - q_{k-1})(1 - q_j), so with q_0 identically 0:

    q_k'(t) = -(rho + beta*k) q_k
              + beta*k * sum_j p_j (q_{k-1} + q_j - q_{k-1} q_j),
    q_k(0) = 1.

The infinite system is closed by truncation: offspring counts above a level K
map to 0, which bounds the true process from below, monotonically in K, and
adds delta_K = beta sum_{j>K} j p_j to the decay rate (:func:`truncation_level`).

Numerics: an adaptive Dormand-Prince 5(4) pair integrates the rescaled
u_k = e^{sigma*t} q_k, sigma = max(decay rate, 0), with a step end on every
grid point.  u_k stays O(k) for subcritical models, so absolute error control
on u gives *relative* accuracy on q deep into the tail (where q underflows
any absolute tolerance), and |q error| = e^{-sigma*t} |u error| <= tol.
:func:`_rhs_kernel` is the one right-hand side, in q (sigma = 0) or in u,
evaluated in place through preallocated buffers.  A pass keeps only its
current row: two passes at different tolerances advance together, compared
row by row, and the caller copies what it reads of each agreed row (h alone
for :func:`estimate_constant`, which stops both at t*).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .model import ModelParams, checked_int, tail_exponent

logger = logging.getLogger(__name__)

DEFAULT_SOLVER_TOL, DEFAULT_SETTLING_TOL = 1e-9, 1e-8


class SolverError(RuntimeError):
    """Step-size underflow or unattainable tolerance."""


class NonConvergenceError(RuntimeError):
    """Constant extraction did not settle before t_max; carries the tail of
    the tracked h(t) = e^{lambda t} q_1(t) values."""

    def __init__(self, message: str, tail: np.ndarray):
        super().__init__(message)
        self.tail = tail


@dataclass(frozen=True)
class TruncatedSystem:
    """Backward system of size K with offspring mass above K moved to 0."""

    params: ModelParams
    K: int

    def __post_init__(self) -> None:
        if checked_int(self.K, "truncation level K") < 1:
            raise ValueError("truncation level K must be >= 1")

    @cached_property
    def offspring_table(self) -> np.ndarray:
        """Truncated law (p~_0 .. p~_K): p~_j = p_j for 1 <= j <= K and all
        remaining mass (original p_0 plus everything above K) at 0."""
        table = self.params.offspring.pmf_table(self.K)
        table[0] = 1.0 - float(table[1:].sum())
        return table

    @cached_property
    def release_rates(self) -> np.ndarray:
        return self.params.beta * np.arange(1, self.K + 1, dtype=float)


@dataclass(frozen=True)
class SurvivalCurve:
    """q_k(t) on a time grid, with provenance and per-point error."""

    k: int
    ts: np.ndarray
    qs: np.ndarray
    err: np.ndarray
    source: str  # "ode" or "monte_carlo"


@dataclass(frozen=True)
class ConstantEstimate:
    """Leading constant lim e^{lambda t} q_1(t) with extraction diagnostics."""

    c_hat: float
    t_star: float
    K: int
    last_rel_change: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c_hat <= 1.0:
            raise ValueError(f"leading constant must lie in (0, 1], got {self.c_hat!r}")


def _rhs_kernel(sys: TruncatedSystem, sigma: float, q: np.ndarray, tmp: np.ndarray):
    """The backward system's right-hand side at the vector ``q`` as an
    in-place kernel ``f(out, t)``: writes the derivative of (q_1 .. q_K) at
    (t, q) to ``out``, through the scratch vector ``tmp``, and returns ``out``:

        (sigma - rho - beta k) q_k + beta k (q_{k-1} (1 - e^{-sigma t} w) + w),
        w = sum_j p~_j q_j.

    Index i of the vector holds type i+1; q_0 is identically 0.  Component 1
    reduces exactly to q_1' = -(rho + beta) q_1 + beta * sum_j p~_j q_j.
    With sigma > 0 ``q`` holds u = e^{sigma t} q at time t and the result is
    u', in which only e^{-sigma t} times the offspring sum can underflow.
    The per-solve constants (sigma - rho) - beta k and p~_1 .. p~_K, the
    shifted views, and the 0-d arrays through which the scalars w and c
    reach the ufuncs (numpy converts a Python float operand on every call)
    are made here once."""
    release = sys.release_rates
    linear = sigma - sys.params.rho - release
    ptail = sys.offspring_table[1:]
    q_below, tmp_above = q[:-1], tmp[1:]
    w0, c0 = np.zeros(()), np.zeros(())

    def f(out: np.ndarray, t: float) -> np.ndarray:
        w = float(ptail.dot(q))
        c = 1.0 - math.exp(-sigma * t) * w
        w0[()], c0[()] = w, c
        # tmp = q_{k-1} * c + w with q_0 = 0, then release * tmp
        np.multiply(q_below, c0, tmp_above)
        tmp[0] = 0.0 * c
        np.add(tmp, w0, tmp)
        np.multiply(release, tmp, tmp)
        np.multiply(linear, q, out)
        return np.add(out, tmp, out)

    return f


# Dormand-Prince 5(4): nodes, stage rows (the last is the fifth-order step, its
# derivative the next step's first stage), error weights (fifth minus fourth)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_REFINE = 32.0  # local tolerance ratio of the two passes compared


def _pass(
    sys: TruncatedSystem, ts: np.ndarray, tau: float, sigma: float, work: list[int]
) -> Iterator[np.ndarray]:
    """One adaptive Dormand-Prince pass for u from u(0) = 1, local error on u
    <= tau per step, a step end on every grid point.  It yields its one row
    buffer u at each grid row, its rows set by its arguments alone, and writes
    its counts to ``work`` (rows, accepted and rejected steps, RHS evaluations).

    Every stage is computed in place, in buffers allocated once per pass,
    with the operations of the allocating form u + step * (A_i @ ks[:i]) in
    the same order, so the rows are those of that form bit for bit."""
    K = sys.K
    u, y, comb, e = np.ones(K), np.ones(K), np.empty(K), np.empty(K)
    ks = np.empty((7, K))
    step0 = np.zeros(())  # the step as a 0-d operand, as in _rhs_kernel
    f = _rhs_kernel(sys, sigma, y, np.empty(K))  # every stage is evaluated at y
    stages = [(_DP_A[i - 1], ks[:i], ks[i], _DP_C[i]) for i in range(1, 7)]
    work[:] = 1, 0, 0, 0
    yield u
    f(ks[0], 0.0)
    rhs, h = 1, float(ts[1] - ts[0])
    t, accepted, rejected = 0.0, 0, 0
    for m in range(1, len(ts)):
        t_end = float(ts[m])
        while t < t_end:
            n = math.ceil((t_end - t) / h)
            step = (t_end - t) / n
            if step < 16.0 * math.ulp(t_end):
                raise SolverError(f"step-size underflow at t={t:g} for local tolerance {tau:g}")
            step0[()] = step
            for a, ks_before, k, c in stages:
                a.dot(ks_before, out=comb)
                np.multiply(comb, step0, comb)
                np.add(u, comb, y)
                f(k, t + c * step)
                rhs += 1
            _DP_E.dot(ks, out=e)
            err = step * float(np.maximum.reduce(np.abs(e, out=e))) / tau
            if err <= 1.0:
                accepted += 1
                t = t_end if n == 1 else t + step
                u[:] = y
                ks[0] = ks[6]
                h = step * (5.0 if err == 0.0 else min(5.0, 0.9 * err**-0.2))
            else:
                rejected += 1
                h = step * (max(0.2, 0.9 * err**-0.2) if math.isfinite(err) else 0.2)
        work[:] = m + 1, accepted, rejected, rhs
        yield u


def _solve_scaled(
    sys: TruncatedSystem,
    ts: np.ndarray,
    tol: float,
    row: Callable[[int, np.ndarray], bool | None],
) -> tuple[float, np.ndarray]:
    """Integrate u = e^{sigma t} q over the grid to absolute accuracy tol.

    Passes at local tolerances tau = tol/4 and tau/32 advance together, one
    grid row at a time, and must agree within tol at every row.  At the first
    row where they do not, both are dropped and a new pair starts from t = 0
    at the finer one's tolerance and 1/32 of it.  A coarser row with tau below
    ulp(max|u|), the largest |u| so far as ulp is monotone, is swamped by
    rounding and raises SolverError.  Each agreed row u of the finer pass goes
    to ``row(m, u)``, which copies what its caller reads (``u`` is the pass's
    own buffer) and, returning true, ends both passes there; after a restart
    the rows come again from m = 0.  Returns (sigma, err) over the rows
    solved: per row, max_k of the difference of the accepted pair.
    """
    sigma = max(sys.params.decay_rate, 0.0)
    work: list[list[int]] = []  # each pass's rows, accepted and rejected steps and RHS count

    def pair(tau: float) -> tuple[Iterator[np.ndarray], Iterator[np.ndarray]]:
        work.extend(([], []))
        return _pass(sys, ts, tau, sigma, work[-2]), _pass(sys, ts, tau / _REFINE, sigma, work[-1])

    tau = tol / 4.0
    coarse, fine = pair(tau)
    err, diff, m = np.empty(len(ts)), np.empty(sys.K), 0
    while True:
        u = next(coarse)
        if tau < math.ulp(u_max := float(np.abs(u, out=diff).max())):
            raise SolverError(f"tol={tol:g} is below double precision for |u| up to {u_max:.3g}")
        np.subtract(v := next(fine), u, out=diff)
        err[m] = np.abs(diff, out=diff).max()
        if err[m] > tol:
            del u, v  # the losing pair's rows: nothing holds it while the new pair runs
            tau /= _REFINE
            (coarse, fine), m = pair(tau), 0
        elif row(m, v) or m == len(ts) - 1:
            break
        else:
            m += 1
    rows, accepted, rejected, rhs = zip(*work)
    logger.debug(
        "backward solve, K=%d on %d grid points: %d passes, %d accepted and %d rejected steps, "
        "%d RHS evaluations, err %.3g; grid rows reached per pass %s",
        sys.K, len(ts), len(rows), sum(accepted), sum(rejected), sum(rhs), err[: m + 1].max(),
        list(rows),
    )
    return sigma, err[: m + 1]


# The memory rule: no size a run allocates by passes MAX_SIZE values: grid
# points; grid points times K in solve_survival (a pass keeps one row), or
# times the k of an MC-only survival run (an artifact row each); the largest
# host type (the engine indexes its rows by type); and replicates.  At this
# bound every experiment type runs within 2 GiB of address space.
MAX_SIZE = 1 << 22


def default_dt(t_max: float) -> float:
    """Output grid spacing used when none is given: t_max/400 clamped to [1e-3, 0.5]."""
    return min(0.5, max(t_max / 400.0, 1e-3))


def constant_dt(a: float) -> float:
    """Output grid spacing of :func:`estimate_constant`: (10/a)/100, at most 0.5."""
    return min(0.5, 10.0 / a / 100.0)


def grid_intervals(t_max: float, dt: float | None, span: str = "t_max") -> int:
    """Intervals of the output grid over [0, t_max] (``span`` in errors) at spacing dt (None:
    default_dt); ValueError unless both are finite and positive, within MAX_SIZE points."""
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if dt is None:
        dt = default_dt(t_max)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not t_max / dt <= MAX_SIZE - 1:
        raise ValueError(
            f"{span} = {t_max:g} at spacing {dt:g} gives over {MAX_SIZE} (2**22) grid points"
        )
    return max(1, math.ceil(t_max / dt))


def grid_cells(n: int, t_max: float, dt: float, what: str, span: str = "t_max") -> None:
    """ValueError unless n values at each point of the grid at spacing dt total <= MAX_SIZE."""
    points = grid_intervals(t_max, dt, span) + 1
    if n * points > MAX_SIZE:
        raise ValueError(f"{what} = {n} at {points} grid points is over {MAX_SIZE} (2**22) values")


def _grid(t_max: float, dt: float | None) -> np.ndarray:
    return np.linspace(0.0, t_max, grid_intervals(t_max, dt) + 1)


def solve_survival(
    sys: TruncatedSystem,
    t_max: float,
    tol: float = DEFAULT_SOLVER_TOL,
    dt: float | None = None,
) -> list[SurvivalCurve]:
    """Survival curves q_k(t), k = 1..K, from the truncated backward system.

    Per-component absolute accuracy <= tol at every grid point, validated by
    two adaptive passes at local tolerances tau and tau/32; output clamped to
    [0, 1].  Each curve's ``err`` is the measured difference
    e^{-sigma t} max_k |U_tau - U_tau/32| of the accepted pair per grid point.
    The curves' ``qs`` are read-only columns of one matrix and they share
    one read-only ``err``.
    """
    if not tol > 0.0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol!r}")
    ts = _grid(t_max, dt)
    Q = np.empty((len(ts), sys.K))
    sigma, err = _solve_scaled(sys, ts, tol, Q.__setitem__)  # each row m into Q[m]
    scale = np.exp(-sigma * ts)
    Q *= scale[:, None]  # the accepted pass's rows, scaled in place
    if Q.min() < 0.0:  # counted only then: the count's boolean matrix is a quarter of Q
        logger.warning("clamped %d negative survival values to 0", int((Q < 0.0).sum()))
    np.clip(Q, 0.0, 1.0, out=Q)
    err *= scale
    Q.setflags(write=False)
    err.setflags(write=False)
    return [
        SurvivalCurve(k=k, ts=ts, qs=Q[:, k - 1], err=err, source="ode")
        for k in range(1, sys.K + 1)
    ]


def linear_fractional_constant(m: ModelParams) -> float | None:
    """The leading constant's closed form 1 - p2/p0 when the model is linear fractional:
    rho = 0 and a table law on {0, 2} with p2 < p0.  None for every other model."""
    probs = m.offspring.probs  # empty for a Poisson or geometric law
    if m.rho != 0.0 or len(probs) < 3 or any(probs[1:2] + probs[3:]):
        return None
    return 1.0 - probs[2] / probs[0] if probs[2] < probs[0] else None


# The constant's default level leaves a tail rate of at most tol * _LEVEL_SHARE.  At tol 1e-8,
# on seven Poisson and geometric laws, C moved <= 1.5e-10 at 2K and came within 4.2e-10 of
# the rho = 0 quadrature; a share of 1/100 left geometric(0.6) 2.2e-9 from it.
_LEVEL_SHARE = 1e-3


def truncation_level(m: ModelParams, bound: float) -> int:
    """The smallest K >= 1 whose tail rate delta_K = beta sum_{j>K} j p_j is at most bound:
    at level K, h(t) = e^{lambda t} q_1(t) falls by delta_K per unit time or more.  Summed
    from the top of a table past the sampling table and 2K (a Poisson or geometric tail past
    2K is far below delta_K), not as the mean less a partial sum, which stops at rounding."""
    if not bound > 0.0:
        raise ValueError(f"the tail rate bound must be positive, got {bound!r}")
    n = len(m.offspring.cumulative)
    while True:
        terms = m.beta * np.arange(n + 1) * m.offspring.pmf_table(n)
        tail = np.append(np.cumsum(terms[:0:-1])[::-1], 0.0)  # delta_K for K = 0 .. n
        if (K := max(int(np.argmax(tail <= bound)), 1)) <= n // 2:
            return K
        if K > MAX_SIZE:  # the level, and a solve at it, would pass the memory rule
            raise ValueError(f"the tail rate stays above {bound:g} past K = {MAX_SIZE} (2**22)")
        n *= 2


def default_level(m: ModelParams, tol: float = DEFAULT_SETTLING_TOL) -> int:
    """The default level of the constant's estimate at tol: the law's at tol/1000, at least 2."""
    return max(truncation_level(m, tol * _LEVEL_SHARE), 2)


def check_settles(m: ModelParams, K: int, tol: float, a: float) -> None:
    """ValueError unless an estimate at level K can settle to tol: delta_K must be below tol, and
    K values per point of the grid to 10/a (the least it solves) must fit within MAX_SIZE."""
    if K < (level := truncation_level(m, tol)):
        raise ValueError(f"K = {K} cannot settle to tol = {tol:g}: K >= {level} can")
    end = "the settling time 10/a"
    grid_cells(K, 10.0 / a, constant_dt(a), f"to {end}, K", f"a = {a:g}: {end}")


def constant_t_max(a: float, t_max: float | None) -> float:
    """The span of :func:`estimate_constant` at tail exponent a: t_max (None: 30/a), ValueError
    unless it reaches the settling time 10/a and its grid keeps within MAX_SIZE points."""
    span = "t_max" if t_max is not None else f"a = {a:g}: the default span 30/a"
    t_max = 30.0 / a if t_max is None else t_max
    if not t_max >= 10.0 / a:
        raise ValueError(f"t_max = {t_max:g} ends before the settling time 10/a = {10.0 / a:g}")
    grid_intervals(t_max, constant_dt(a), span)
    return t_max


def estimate_constant(
    sys: TruncatedSystem,
    a: float | None = None,
    tol: float = DEFAULT_SETTLING_TOL,
    solver_tol: float = DEFAULT_SOLVER_TOL,
    t_max: float | None = None,
) -> ConstantEstimate:
    """Extract C = lim e^{lambda t} q_1(t) from the backward system at level sys.K.

    Tracks h(t) = e^{lambda t} q_1(t) (nonincreasing, positive) and stops at
    the first grid time t* >= 10/a where the relative change per unit time
    drops below tol; both solver passes stop there, so no row past t* is
    solved, and of a row only h.  One level is solved; a K-doubling check
    is a second call at 2K.

    Args:
        sys: Truncated backward system at level K; its model must be subcritical.
        a: Tail exponent in (0, min(lambda, beta)); default min(lambda, beta)/2.
        tol: Relative-settling threshold per unit time.
        solver_tol: Absolute tolerance handed to the ODE solver.
        t_max: Integration end, held to :func:`constant_t_max`'s rule; default 30/a.
            Grid spacing min(0.5, (10/a)/100).

    Raises:
        ValueError: tol or solver_tol <= 0, a, t_max, or a K that cannot settle
            (:func:`check_settles`), all before any solve.
        NonConvergenceError: h(t) not settled before t_max (carries the trailing h values).
        SolverError: the estimate exceeds 1 by more than 100 solver_tol.
    """
    if not (tol > 0.0 and solver_tol > 0.0):
        raise ValueError(f"tol and solver_tol must be positive, got {tol!r} and {solver_tol!r}")
    a = tail_exponent(sys.params, a)
    check_settles(sys.params, sys.K, tol, a)
    t_floor, t_max = 10.0 / a, constant_t_max(a, t_max)
    ts = _grid(t_max, constant_dt(a))
    h = np.empty(len(ts))  # e^{lambda t} q_1(t) exactly, since sigma = lambda here

    def rel_change(i: int) -> float:
        return abs(h[i] - h[i - 1]) / (h[i] * (ts[i] - ts[i - 1]))

    def settled(i: int) -> bool:
        return i > 0 and ts[i] >= t_floor and rel_change(i) < tol

    def keep(i: int, u: np.ndarray) -> bool:
        h[i] = u[0]
        return settled(i)

    _, err = _solve_scaled(sys, ts, solver_tol, keep)
    row = len(err) - 1
    if not settled(row):
        raise NonConvergenceError(
            f"e^(lambda t) q_1(t) did not settle to {tol:g}/unit time by t={t_max:g} at K={sys.K}",
            tail=h[: row + 1][-10:],
        )
    c_hat, t_star = float(h[row]), float(ts[row])
    logger.debug(
        "constant estimate, K=%d: t*=%.6g at grid row %d of %d", sys.K, t_star, row, len(ts)
    )

    # the solver can overshoot 1 by its own tolerance when C = 1 exactly
    if c_hat > 1.0:
        if c_hat > 1.0 + 100.0 * solver_tol:
            raise SolverError(f"constant estimate {c_hat!r} exceeds 1 beyond tolerance")
        c_hat = 1.0
    return ConstantEstimate(c_hat, t_star, sys.K, float(rel_change(row)))
