"""Deterministic survival probabilities: backward ODE system and closed forms.

Writing q_k(t) for the probability that the population started from one
type-k host is still alive at time t, the first event from that host happens
at rate rho + beta*k.  A removal ends everything; a release leaves two
independent families, one from the remaining type-(k-1) host (none when
k = 1) and one from the spawned type-J host (none when J = 0).  Survival of
the pair is 1 - (1 - q_{k-1})(1 - q_j), so with q_0 identically 0:

    q_k'(t) = -(rho + beta*k) q_k
              + beta*k * sum_j p_j (q_{k-1} + q_j - q_{k-1} q_j),
    q_k(0) = 1.

The infinite system is closed by truncation: offspring counts above a level
K are mapped to 0, which only removes reproduction and therefore bounds the
true process from below, monotonically in K.

Numerics: an adaptive Dormand-Prince 5(4) pair integrates the rescaled
u_k = e^{sigma*t} q_k, sigma = max(decay rate, 0), with a step end on every
grid point.  u_k stays O(k) for subcritical models, so absolute error control
on u gives *relative* accuracy on q deep into the tail (where q underflows
any absolute tolerance), and |q error| = e^{-sigma*t} |u error| <= tol.
:func:`_rhs_kernel` is the one right-hand side, in q (sigma = 0) or in u,
evaluated in place through preallocated buffers.  Each pass yields its grid
rows as it reaches them: two passes at different tolerances advance together
and are compared row by row, a pass that loses is dropped where it loses, and
a caller may stop both at a grid row (:func:`estimate_constant` stops at t*).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .model import ModelParams, tail_exponent

logger = logging.getLogger(__name__)

DEFAULT_SOLVER_TOL = 1e-9


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
        if self.K < 1:
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
    k_doubling_change: float

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
    The per-solve constants (sigma - rho) - beta k and p~_1 .. p~_K and the
    shifted views are made here once."""
    release = sys.release_rates
    linear = sigma - sys.params.rho - release
    ptail = sys.offspring_table[1:]
    q_below, tmp_above = q[:-1], tmp[1:]

    def f(out: np.ndarray, t: float) -> np.ndarray:
        w = float(ptail.dot(q))
        c = 1.0 - math.exp(-sigma * t) * w
        # tmp = q_{k-1} * c + w with q_0 = 0, then release * tmp
        np.multiply(q_below, c, out=tmp_above)
        tmp[0] = 0.0 * c
        np.add(tmp, w, out=tmp)
        np.multiply(release, tmp, out=tmp)
        np.multiply(linear, q, out=out)
        return np.add(out, tmp, out=out)

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


class _Pass:
    """One adaptive Dormand-Prince pass for u from u(0) = 1, local error on u
    <= tau per step, a step end on every grid point.  Iterating it solves one
    more grid row m into U[m] and yields m; ``rows``, ``accepted``,
    ``rejected`` and ``rhs`` (right-hand-side evaluations) count its work so
    far.

    Every stage is computed in place, in buffers allocated once per pass,
    with the operations of the allocating form u + step * (A_i @ ks[:i]) in
    the same order, so the rows are those of that form bit for bit."""

    def __init__(self, sys: TruncatedSystem, ts: np.ndarray, tau: float, sigma: float):
        self.tau = tau
        self.U = np.empty((len(ts), sys.K))
        self.rows = self.accepted = self.rejected = self.rhs = 0
        self._rows = self._integrate(sys, ts, sigma)

    def __iter__(self) -> Iterator[int]:
        return self._rows

    def __next__(self) -> int:
        return next(self._rows)

    def _integrate(self, sys: TruncatedSystem, ts: np.ndarray, sigma: float) -> Iterator[int]:
        tau, K = self.tau, sys.K
        u, y, comb, e = np.ones(K), np.ones(K), np.empty(K), np.empty(K)
        ks = np.empty((7, K))
        f = _rhs_kernel(sys, sigma, y, np.empty(K))  # every stage is evaluated at y
        stages = [(_DP_A[i - 1], ks[:i], ks[i], _DP_C[i]) for i in range(1, 7)]
        self.U[0] = u
        self.rows = 1
        yield 0
        f(ks[0], 0.0)
        rhs = 1
        h = float(ts[1] - ts[0])
        t, accepted, rejected = 0.0, 0, 0
        for m in range(1, len(ts)):
            t_end = float(ts[m])
            while t < t_end:
                n = math.ceil((t_end - t) / h)
                step = (t_end - t) / n
                if step < 16.0 * math.ulp(t_end):
                    raise SolverError(f"step-size underflow at t={t:g} for local tolerance {tau:g}")
                for a, ks_before, k, c in stages:
                    a.dot(ks_before, out=comb)
                    np.multiply(comb, step, out=comb)
                    np.add(u, comb, out=y)
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
            self.U[m] = u
            self.rows, self.accepted, self.rejected, self.rhs = m + 1, accepted, rejected, rhs
            yield m


def _solve_scaled(
    sys: TruncatedSystem,
    ts: np.ndarray,
    tol: float,
    stop: Callable[[np.ndarray, int], bool] | None = None,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Integrate u = e^{sigma t} q over the grid to absolute accuracy tol.

    Passes at local tolerances tau = tol/4 and tau/32 advance together, one
    grid row at a time, and must agree within tol at every row.  At the first
    row where they do not, the coarser pass is dropped there and the finer
    one is compared with a new pass at a 32 times tighter tolerance, started
    from t = 0.  A tolerance below ulp(max|u|) / 32, over the rows the coarser
    pass has solved, is swamped by rounding and raises SolverError.  After
    each agreed row m, ``stop(U, m)`` may end both passes there.  Returns
    (U, sigma, err) over the rows solved: the finer pass of the accepted pair
    and, per row, max_k of the difference of the pair.
    """
    sigma = max(sys.params.decay_rate, 0.0)
    passes: list[_Pass] = []

    def start(tau: float, u_max: float) -> _Pass:
        check_precision(tau, u_max)
        passes.append(_Pass(sys, ts, tau, sigma))
        return passes[-1]

    def check_precision(tau: float, u_max: float) -> None:
        if tau < math.ulp(u_max) / _REFINE:
            raise SolverError(f"tol={tol:g} is below double precision for |u| up to {u_max:.3g}")

    u_max = 1.0
    coarse = start(tol / 4.0, u_max)
    fine = start(coarse.tau / _REFINE, u_max)
    point_err, diff = np.empty(len(ts)), np.empty(sys.K)
    m = 0
    while True:
        if coarse.rows == m:
            next(coarse)
            u_max = max(u_max, float(np.abs(coarse.U[m]).max()))
            check_precision(fine.tau, u_max)
        next(fine)
        np.subtract(fine.U[m], coarse.U[m], out=diff)
        point_err[m] = np.abs(diff, out=diff).max()
        if point_err[m] > tol:
            coarse, u_max = fine, float(np.abs(fine.U[: m + 1]).max())
            fine, m = start(coarse.tau / _REFINE, u_max), 0
            continue
        if m == len(ts) - 1 or (stop is not None and stop(fine.U, m)):
            break
        m += 1
    logger.debug(
        "backward solve, K=%d on %d grid points: %d passes, %d accepted and %d rejected steps, "
        "%d RHS evaluations, err %.3g; grid rows reached per pass %s",
        sys.K, len(ts), len(passes), sum(p.accepted for p in passes),
        sum(p.rejected for p in passes), sum(p.rhs for p in passes), point_err[: m + 1].max(),
        [p.rows for p in passes],
    )
    return fine.U[: m + 1], sigma, point_err[: m + 1]


# the most points an output grid holds: each costs K values per solver pass
MAX_GRID_POINTS = 10**7


def default_dt(t_max: float) -> float:
    """Output grid spacing used when none is given: t_max/400 clamped to [1e-3, 0.5]."""
    return min(0.5, max(t_max / 400.0, 1e-3))


def constant_dt(a: float) -> float:
    """Output grid spacing of :func:`estimate_constant`: (10/a)/100, at most 0.5."""
    return min(0.5, 10.0 / a / 100.0)


def grid_intervals(t_max: float, dt: float | None) -> int:
    """Intervals of the output grid over [0, t_max] at spacing dt (None: default_dt);
    ValueError unless both are positive and it has at most MAX_GRID_POINTS points."""
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if dt is None:
        dt = default_dt(t_max)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not t_max / dt <= MAX_GRID_POINTS - 1:
        raise ValueError(f"t_max/dt = {t_max:g}/{dt:g} gives over {MAX_GRID_POINTS:g} grid points")
    return max(1, math.ceil(t_max / dt))


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
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    ts = _grid(t_max, dt)
    Q, sigma, err = _solve_scaled(sys, ts, tol)
    scale = np.exp(-sigma * ts)
    Q *= scale[:, None]  # the accepted pass's rows, scaled in place
    negatives = int((Q < 0.0).sum())
    if negatives:
        logger.warning("clamped %d negative survival values to 0", negatives)
    np.clip(Q, 0.0, 1.0, out=Q)
    err *= scale
    Q.setflags(write=False)
    err.setflags(write=False)
    return [
        SurvivalCurve(k=k, ts=ts, qs=Q[:, k - 1], err=err, source="ode")
        for k in range(1, sys.K + 1)
    ]


def closed_form_mu0(k: int, t: float, beta: float, rho: float) -> float:
    """Survival probability when offspring are always 0 (pure death):
    the initial host is still present and at least one spore remains."""
    if k < 1:
        raise ValueError("type must be >= 1")
    return math.exp(-rho * t) * (1.0 - (1.0 - math.exp(-beta * t)) ** k)


def closed_form_linear_fractional(t: float, beta: float, p0: float, p2: float) -> float:
    """Exact q_1 for the linear birth-death special case.

    Requires rho = 0 and an offspring law supported on {0, 2} with
    p0 + p2 = 1 and p0 != p2 (the balanced case is critical and excluded).
    """
    if abs(p0 + p2 - 1.0) > 1e-12:
        raise ValueError("p0 + p2 must equal 1")
    if p0 == p2:
        raise ValueError("p0 = p2 is the critical case; no exponential tail")
    d = p0 - p2
    e = math.exp(-beta * d * t)
    return d * e / (p0 - p2 * e)


def linear_fractional_constant(p0: float, p2: float) -> float:
    """Leading constant 1 - p2/p0 of the linear birth-death case (p2 < p0)."""
    if not 0.0 <= p2 < p0:
        raise ValueError("requires 0 <= p2 < p0 (subcritical)")
    return 1.0 - p2 / p0


def estimate_constant(
    sys: TruncatedSystem,
    a: float | None = None,
    tol: float = 1e-8,
    solver_tol: float = DEFAULT_SOLVER_TOL,
    t_max: float | None = None,
) -> ConstantEstimate:
    """Extract C = lim e^{lambda t} q_1(t) from the solved backward system.

    Tracks h(t) = e^{lambda t} q_1(t) (nonincreasing, positive) and stops at
    the first grid time t* >= 10/a where the relative change per unit time
    drops below tol; both solver passes stop there, so no row past t* is
    solved.  The system is re-solved at truncation 2K, stopped the same way,
    and the change in the estimate is reported as a convergence diagnostic.

    Args:
        sys: Truncated backward system; its model must be subcritical.
        a: Tail exponent in (0, min(lambda, beta)); default min(lambda, beta)/2.
        tol: Relative-settling threshold per unit time.
        solver_tol: Absolute tolerance handed to the ODE solver.
        t_max: Integration end; default 30/a.  The output grid spacing is
            min(0.5, (10/a)/100).

    Raises:
        NonConvergenceError: h(t) not settled before t_max (carries the
            trailing h values).
    """
    a = tail_exponent(sys.params, a)
    t_floor = 10.0 / a
    if t_max is None:
        t_max = 30.0 / a
    ts = _grid(t_max, constant_dt(a))

    def rel_change(h: np.ndarray, i: int) -> float:
        return abs(h[i] - h[i - 1]) / (h[i] * (ts[i] - ts[i - 1]))

    def settled(U: np.ndarray, i: int) -> bool:
        return i > 0 and ts[i] >= t_floor and rel_change(U[:, 0], i) < tol

    def extract(system: TruncatedSystem) -> tuple[float, int, float]:
        U, _, _ = _solve_scaled(system, ts, solver_tol, stop=settled)
        h = U[:, 0]  # e^{lambda t} q_1(t) exactly, since sigma = lambda here
        i = len(h) - 1
        if not settled(U, i):
            raise NonConvergenceError(
                f"e^(lambda t) q_1(t) did not settle to {tol:g}/unit time by t={t_max:g}",
                tail=h[-10:],
            )
        return float(h[i]), i, float(rel_change(h, i))

    c_hat, row, last_rel = extract(sys)
    c_double, row_double, _ = extract(TruncatedSystem(params=sys.params, K=2 * sys.K))
    change = abs(c_double - c_hat)
    t_star = float(ts[row])
    logger.debug(
        "constant estimate, K=%d and 2K=%d: t*=%.6g at grid row %d of %d; rows solved %d at K "
        "and %d at 2K", sys.K, 2 * sys.K, t_star, row, len(ts), row + 1, row_double + 1,
    )

    # the solver can overshoot 1 by its own tolerance when C = 1 exactly
    if c_hat > 1.0:
        if c_hat > 1.0 + 100.0 * solver_tol:
            raise SolverError(f"constant estimate {c_hat!r} exceeds 1 beyond tolerance")
        c_hat = 1.0
    return ConstantEstimate(
        c_hat=c_hat,
        t_star=t_star,
        K=sys.K,
        last_rel_change=last_rel,
        k_doubling_change=change,
    )

