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

Numerics: the solver integrates the rescaled variables u_k = e^{sigma*t} q_k
with sigma = max(decay rate, 0).  u_k stays O(k) for subcritical models, so
absolute step-halving control on u gives *relative* accuracy on q deep into
the tail (where q underflows any absolute tolerance), and |q error| =
e^{-sigma*t} |u error| never exceeds the requested tolerance.  The public
:func:`backward_rhs` stays in plain q coordinates and the two are tied
together by tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ModelParams, truncation_level

logger = logging.getLogger(__name__)

DEFAULT_SOLVER_TOL = 1e-9

_MAX_REFINEMENTS = 12
_MAX_SUBSTEPS = 1 << 22


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
    def truncated_mean(self) -> float:
        j = np.arange(self.K + 1)
        return float((j * self.offspring_table).sum())


@dataclass(frozen=True)
class SurvivalCurve:
    """q_k(t) on a time grid, with provenance and per-point error."""

    k: int
    ts: np.ndarray
    qs: np.ndarray
    err: np.ndarray
    source: str  # "ode", "closed_form" or "monte_carlo"

    def validate(self, tol: float = 1e-9) -> None:
        assert self.ts.shape == self.qs.shape == self.err.shape
        assert np.all(np.diff(self.ts) > 0.0), "time grid must be strictly increasing"
        assert np.all((self.qs >= 0.0) & (self.qs <= 1.0)), "q must lie in [0, 1]"
        assert np.all(np.diff(self.qs) <= tol), "q must be nonincreasing in t"
        if self.ts[0] == 0.0:
            assert self.qs[0] == 1.0, "q(0) must be 1"


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


def backward_rhs(q: np.ndarray, sys: TruncatedSystem) -> np.ndarray:
    """Derivative of (q_1 .. q_K) under the truncated backward system.

    Index i of the vector holds type i+1; q_0 is identically 0.  Component 1
    reduces exactly to q_1' = -(rho + beta) q_1 + beta * sum_j p~_j q_j.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (sys.K,):
        raise ValueError(f"expected shape ({sys.K},), got {q.shape}")
    beta = sys.params.beta
    rho = sys.params.rho
    ptail = sys.offspring_table[1:]
    k = np.arange(1, sys.K + 1, dtype=float)
    w = ptail @ q
    shift = np.empty_like(q)
    shift[0] = 0.0
    shift[1:] = q[:-1]
    return -(rho + beta * k) * q + beta * k * (shift + w - shift * w)


def _rk4(
    ts: np.ndarray,
    u0: np.ndarray,
    n_sub: int,
    coef_lin: np.ndarray,
    coef_rel: np.ndarray,
    ptail: np.ndarray,
    sigma: float,
) -> np.ndarray:
    """Classic fixed-step RK4 on the rescaled system over the output grid,
    n_sub internal steps per grid interval.  Returns shape (len(ts), K)."""
    exp = math.exp

    def f(t: float, u: np.ndarray) -> np.ndarray:
        w = ptail @ u
        shift = np.empty_like(u)
        shift[0] = 0.0
        shift[1:] = u[:-1]
        return coef_lin * u + coef_rel * (shift * (1.0 - exp(-sigma * t) * w) + w)

    out = np.empty((len(ts), len(u0)))
    u = u0.copy()
    out[0] = u
    for m in range(len(ts) - 1):
        t0 = ts[m]
        h = (ts[m + 1] - t0) / n_sub
        half = 0.5 * h
        sixth = h / 6.0
        for s in range(n_sub):
            t = t0 + s * h
            k1 = f(t, u)
            k2 = f(t + half, u + half * k1)
            k3 = f(t + half, u + half * k2)
            k4 = f(t + h, u + h * k3)
            u = u + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        out[m + 1] = u
    return out


def _solve_scaled(
    sys: TruncatedSystem, ts: np.ndarray, tol: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """Integrate u = e^{sigma t} q over the grid to absolute accuracy tol,
    validated by step-halving.  Returns (U, sigma, err): err holds, per grid
    point, max_k |U_n - U_2n| of the accepted step-halving pair."""
    beta = sys.params.beta
    rho = sys.params.rho
    lam = sys.params.decay_rate
    sigma = max(lam, 0.0)
    k = np.arange(1, sys.K + 1, dtype=float)
    coef_lin = sigma - rho - beta * k
    coef_rel = beta * k
    ptail = sys.offspring_table[1:]
    u0 = np.ones(sys.K)

    # start inside the RK4 stability region for the stiffest component
    rate_cap = rho + beta * sys.K + abs(sigma)
    dt_out = float(ts[1] - ts[0])
    n_sub = max(1, math.ceil(dt_out * rate_cap / 1.2))

    sol = _rk4(ts, u0, n_sub, coef_lin, coef_rel, ptail, sigma)
    for _ in range(_MAX_REFINEMENTS):
        sol2 = _rk4(ts, u0, 2 * n_sub, coef_lin, coef_rel, ptail, sigma)
        if np.isfinite(sol).all() and np.isfinite(sol2).all():
            point_err = np.max(np.abs(sol - sol2), axis=1)
            err = float(point_err.max())
        else:
            err = math.inf
        if err <= tol:
            return sol2, sigma, point_err
        # fourth-order error model: required h scales like (tol/err)^(1/4)
        if math.isfinite(err):
            factor = (err / tol) ** 0.25
            n_next = math.ceil(2 * n_sub * min(max(factor, 1.0), 8.0))
        else:
            n_next = 8 * n_sub
        if n_next > _MAX_SUBSTEPS:
            raise SolverError(
                f"step-size underflow: {n_next} substeps per interval needed for tol={tol:g}"
            )
        n_sub = n_next
        sol = _rk4(ts, u0, n_sub, coef_lin, coef_rel, ptail, sigma)
    raise SolverError(f"tolerance {tol:g} not reached after {_MAX_REFINEMENTS} refinements")


def default_dt(t_max: float) -> float:
    """Output grid spacing used when none is given: t_max/400 clamped to [1e-3, 0.5]."""
    return min(0.5, max(t_max / 400.0, 1e-3))


def _grid(t_max: float, dt: float | None) -> np.ndarray:
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if dt is None:
        dt = default_dt(t_max)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    n = max(1, math.ceil(t_max / dt))
    return np.linspace(0.0, t_max, n + 1)


def solve_survival(
    sys: TruncatedSystem,
    t_max: float,
    tol: float = DEFAULT_SOLVER_TOL,
    dt: float | None = None,
) -> list[SurvivalCurve]:
    """Survival curves q_k(t), k = 1..K, from the truncated backward system.

    Per-component absolute accuracy <= tol at every grid point, validated by
    step-halving; output clamped to [0, 1].  Each curve's ``err`` is the
    measured error e^{-sigma t} max_k |U_n - U_2n| of the accepted
    step-halving pair at each grid point.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    ts = _grid(t_max, dt)
    U, sigma, u_err = _solve_scaled(sys, ts, tol)
    scale = np.exp(-sigma * ts)
    Q = U * scale[:, None]
    negatives = int((Q < 0.0).sum())
    if negatives:
        logger.warning("clamped %d negative survival values to 0", negatives)
    np.clip(Q, 0.0, 1.0, out=Q)
    err = u_err * scale
    return [
        SurvivalCurve(k=k, ts=ts, qs=Q[:, k - 1].copy(), err=err.copy(), source="ode")
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
    window,
    tol: float = 1e-8,
    solver_tol: float = DEFAULT_SOLVER_TOL,
    t_max: float | None = None,
    dt: float | None = None,
) -> ConstantEstimate:
    """Extract C = lim e^{lambda t} q_1(t) from the solved backward system.

    Tracks h(t) = e^{lambda t} q_1(t) (nonincreasing, positive) and stops at
    the first grid time t* >= 10/a where the relative change per unit time
    drops below tol.  The system is re-solved at truncation 2K and the
    change in the estimate is reported as a convergence diagnostic.

    Args:
        sys: Truncated backward system; its model must be subcritical.
        window: DecayWindow supplying the tail exponent a.
        tol: Relative-settling threshold per unit time.
        solver_tol: Absolute tolerance handed to the ODE solver.
        t_max: Integration end; default 30/a.
        dt: Output grid spacing; default min(0.5, (10/a)/100).

    Raises:
        NonConvergenceError: h(t) not settled before t_max (carries the
            trailing h values).
    """
    lam = sys.params.decay_rate
    if lam <= 0.0:
        raise ValueError("constant extraction requires a subcritical model")
    a = window.a
    t_floor = 10.0 / a
    if t_max is None:
        t_max = 30.0 / a
    if dt is None:
        dt = min(0.5, t_floor / 100.0)

    def extract(system: TruncatedSystem) -> tuple[float, float, float]:
        ts = _grid(t_max, dt)
        U, _, _ = _solve_scaled(system, ts, solver_tol)
        h = U[:, 0]  # e^{lambda t} q_1(t) exactly, since sigma = lambda here
        rel = np.abs(np.diff(h)) / (h[1:] * np.diff(ts))
        for i in range(1, len(ts)):
            if ts[i] >= t_floor and rel[i - 1] < tol:
                return float(h[i]), float(ts[i]), float(rel[i - 1])
        raise NonConvergenceError(
            f"e^(lambda t) q_1(t) did not settle to {tol:g}/unit time by t={t_max:g}",
            tail=h[-10:],
        )

    c_hat, t_star, last_rel = extract(sys)
    c_double, _, _ = extract(TruncatedSystem(params=sys.params, K=2 * sys.K))
    change = abs(c_double - c_hat)

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


@dataclass(frozen=True)
class TruncationBoundReport:
    """Evidence that ln q_1(t) + (lambda + epsilon) t is bounded below."""

    epsilon: float
    decay_rate: float
    min_value: float
    t_at_min: float
    c1_implied: float
    stabilized: bool


def truncation_lower_bound_check(
    sys: TruncatedSystem,
    epsilon: float,
    t_max: float | None = None,
    solver_tol: float = DEFAULT_SOLVER_TOL,
    dt: float | None = None,
) -> TruncationBoundReport:
    """Check the crude lower bound q_1(t) >= c1 e^{-(lambda+epsilon) t}.

    The truncation level must keep enough offspring mean: the truncated mean
    has to exceed mean - epsilon/beta, which makes the truncated decay rate
    smaller than lambda + epsilon.  The implied constant c1 (not pinned by
    any formula) is reported as exp of the grid minimum of
    ln q_1(t) + (lambda + epsilon) t, together with whether that minimum has
    visibly stabilized inside the grid.
    """
    m = sys.params
    lam = m.decay_rate
    if lam <= 0.0:
        raise ValueError("lower-bound check requires a subcritical model")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    k0 = truncation_level(m.offspring, epsilon, m.beta)
    if sys.K < k0 or sys.truncated_mean <= m.offspring.mean - epsilon / m.beta:
        raise ValueError(
            f"truncation K={sys.K} keeps too little offspring mean for epsilon={epsilon:g}; "
            f"need K >= {k0}"
        )
    if t_max is None:
        t_max = max(20.0 / lam, 4.0 / epsilon)
    ts = _grid(t_max, dt)
    U, _, _ = _solve_scaled(sys, ts, solver_tol)
    margin = np.log(U[:, 0]) + epsilon * ts  # = ln q_1 + (lambda + epsilon) t
    i = int(np.argmin(margin))
    return TruncationBoundReport(
        epsilon=epsilon,
        decay_rate=lam,
        min_value=float(margin[i]),
        t_at_min=float(ts[i]),
        c1_implied=float(math.exp(margin[i])),
        stabilized=bool(ts[i] <= 0.5 * t_max),
    )


def survival_ratios(curves: list[SurvivalCurve]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Ratios r_k(t) = q_k(t) / (k q_1(t)) on the curves' common grid."""
    by_k = {c.k: c for c in curves}
    if 1 not in by_k:
        raise ValueError("needs the k=1 curve")
    base = by_k[1]
    q1 = base.qs
    if np.any(q1 <= 0.0):
        raise ValueError("k=1 curve hits zero inside the grid")
    ratios = {}
    for k, c in by_k.items():
        if c.ts.shape != base.ts.shape or not np.array_equal(c.ts, base.ts):
            raise ValueError("curves must share one time grid")
        ratios[k] = c.qs / (k * q1)
    return base.ts, ratios


@dataclass(frozen=True)
class TailRatioReport:
    """Shape diagnostics for q_k(t) / (k q_1(t)) over a tail window."""

    window: tuple[float, float]
    max_ratio_excess: float  # max over k, t of r_k(t) - 1
    contraction_ok: bool  # |r_k - 1| smaller at t + delta than at t
    slopes: dict[int, float]  # log-linear decay rate of |r_k - 1| per k


def tail_ratio_check(
    curves: list[SurvivalCurve],
    a: float,
    window: tuple[float, float] | None = None,
    delta: float = 5.0,
    k_max: int = 10,
) -> TailRatioReport:
    """Measure how fast the per-spore survival ratio approaches 1.

    Over the tail window (default [3/a, 6/a]): the worst excess of r_k above
    1 anywhere on the grid, whether |r_k(t) - 1| contracts from t to
    t + delta for every pair inside the window, and the fitted log-linear
    slope of |r_k(t) - 1| for each 2 <= k <= k_max.
    """
    ts, ratios = survival_ratios(curves)
    if window is None:
        window = (3.0 / a, 6.0 / a)
    lo, hi = window
    in_win = (ts >= lo) & (ts <= hi)
    if in_win.sum() < 4:
        raise ValueError("tail window covers fewer than 4 grid points")

    excess = max(float((r - 1.0).max()) for r in ratios.values())

    contraction_ok = True
    slopes: dict[int, float] = {}
    dt = float(ts[1] - ts[0])
    shift = round(delta / dt)
    for k in sorted(ratios):
        if k == 1 or k > k_max:
            continue
        dev = np.abs(ratios[k] - 1.0)
        idx = np.where(in_win)[0]
        for i in idx:
            j = i + shift
            if j < len(ts) and in_win[j] and dev[j] >= dev[i]:
                contraction_ok = False
        positive = in_win & (dev > 1e-13)
        if positive.sum() >= 4:
            slopes[k] = float(np.polyfit(ts[positive], np.log(dev[positive]), 1)[0])
    return TailRatioReport(
        window=(lo, hi),
        max_ratio_excess=excess,
        contraction_ok=contraction_ok,
        slopes=slopes,
    )
