"""Test-side checks of the paper's tail argument on solved survival curves.

The paper's exponential tail q_k(t) ~ k C e^{-lambda t} rests on a truncated
offspring law.  These diagnostics test that argument on the package's
solutions: the shape q_k / (k q_1) -> 1 (acceptance criterion 3), the crude
lower bound q_1(t) >= c1 e^{-(lambda + epsilon) t} under truncation, the
truncated mean, and the invariants every survival curve must satisfy.  No
experiment reports them, so they live with the tests.  At rho = 0 the
leading constant C also has a quadrature with no truncation, the reference
for the solver's estimate, and the least-squares slope of -ln q_1 is
acceptance criterion 2's check of lambda.  The two exactly solvable cases,
pure death and linear fractional, give the closed forms the solver and
simulator tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sporesim import analytic
from sporesim.analytic import (
    DEFAULT_SOLVER_TOL,
    SurvivalCurve,
    TruncatedSystem,
    _grid,
    _solve_scaled,
    truncation_level,
)
from sporesim.model import ModelParams, OffspringDistribution


def cut_constant_span(monkeypatch) -> None:
    """End the constant estimate's grid at 120, past LF's settling floor 10/a = 100: at tol
    1e-16 its h(t) has not settled by then.  Over the span 30/a = 300 it has, as on every law
    tried (h stops changing in floating point, so its relative change reads 0)."""
    monkeypatch.setattr(analytic, "_constant_grid", lambda m: (100.0, 120.0, 0.5))


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


def validate_curve(curve: SurvivalCurve, tol: float = 1e-9) -> None:
    """Assert that ``curve`` is a survival curve: a strictly increasing grid,
    q in [0, 1], nonincreasing in t up to ``tol``, and q(0) = 1."""
    assert curve.ts.shape == curve.qs.shape == curve.err.shape
    assert np.all(np.diff(curve.ts) > 0.0), "time grid must be strictly increasing"
    assert np.all((curve.qs >= 0.0) & (curve.qs <= 1.0)), "q must lie in [0, 1]"
    assert np.all(np.diff(curve.qs) <= tol), "q must be nonincreasing in t"
    if curve.ts[0] == 0.0:
        assert curve.qs[0] == 1.0, "q(0) must be 1"


def rho_zero_constant(m: ModelParams, cutoff: float = 1e-4) -> float:
    """C = exp int_0^1 (lambda/F(s) - 1/s) ds, with no truncation, at rho = 0.

    At rho = 0 the spores of a host found independent families, so
    q_k = 1 - (1 - q_1)^k and q_1' = -F(q_1) with
    F(s) = beta s - beta (1 - G(1 - s)), G the pgf of the offspring law;
    F(s) = lambda s + O(s^2), and integrating dt = -dq / F(q) gives C.  The
    integrand is smooth on [0, 1] but cancels near 0, so [0, cutoff] is one
    midpoint rule and scipy's quad takes the rest.
    """
    from scipy.integrate import quad

    if m.rho != 0.0:
        raise ValueError("the quadrature holds at rho = 0 only")
    d, beta, lam = m.offspring, m.beta, m.decay_rate

    def one_minus_pgf(s: float) -> float:  # 1 - G(1 - s)
        if d.kind == "table":
            return 1.0 - sum(p * (1.0 - s) ** j for j, p in enumerate(d.probs))
        if d.kind == "poisson":
            return -math.expm1(-d.param * s)
        return (1.0 - d.param) * s / (d.param + (1.0 - d.param) * s)

    def integrand(s: float) -> float:
        return lam / (beta * s - beta * one_minus_pgf(s)) - 1.0 / s

    body, _ = quad(integrand, cutoff, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return math.exp(cutoff * integrand(cutoff / 2.0) + body)


def pgf(d: OffspringDistribution):
    """The offspring law's pgf G(s) = sum_j p_j s^j, elementwise on arrays:
    a polynomial for a table, exp for Poisson, rational for geometric."""
    if d.kind == "table":
        return lambda s: np.polynomial.polynomial.polyval(s, d.probs)
    if d.kind == "poisson":
        return lambda s: np.exp(d.param * (s - 1.0))
    return lambda s: d.param / (1.0 - (1.0 - d.param) * s)


def _volterra_level(m: ModelParams, t_max: float, n: int, ks):
    """q_k(t) at t = i t_max / n, i = 0..n, k in ``ks``: the trapezoid rule on
    the equations of :func:`volterra_survival`, solved for w by Picard sweeps
    to their fixed point."""
    G = pgf(m.offspring)
    h = t_max / n
    t = np.arange(n + 1) * h
    inside = np.tri(n + 1, dtype=bool)  # s = t_j inside [0, t_i]: j <= i
    lag = np.where(inside, np.subtract.outer(np.arange(n + 1), np.arange(n + 1)), 0)
    release = m.beta * np.exp(-m.beta * t)  # density of a spore's release time
    removal = m.rho * np.exp(-m.rho * t)  # density of the host's removal time
    alive = np.exp(-m.rho * t)

    def trapezoid(f):  # trapezoid rule over s in [0, t_i], row i of f
        return h * (f.sum(axis=1) - 0.5 * f[:, 0] - 0.5 * np.diagonal(f))

    def released(w):  # b(t_i) and A(t_j, t_i), j <= i
        f = np.where(inside, release * w[lag], 0.0)
        A = h * (np.cumsum(f, axis=1) - 0.5 * f[:, :1] - 0.5 * f)
        return -np.expm1(-m.beta * t) - np.diagonal(A), A

    w = np.full(n + 1, 1.0 - G(0.0))
    for _ in range(200):  # 23-26 reach it for the laws tested, on t <= 5
        b, A = released(w)
        new = 1.0 - alive * G(b) - trapezoid(np.where(inside, removal * G(1.0 - A), 0.0))
        change = np.abs(new - w).max()
        w = new
        if change <= 1e-14:
            break
    else:
        raise RuntimeError("Picard sweeps did not converge")
    b, A = released(w)
    return {
        k: 1.0 - alive * b**k - trapezoid(np.where(inside, removal * (1.0 - A) ** k, 0.0))
        for k in ks
    }


def volterra_survival(m: ModelParams, t_max: float, n: int, ks) -> tuple[np.ndarray, dict]:
    """q_k(t) for k in ``ks`` at t = i t_max / n, i = 0..n, with no
    truncation of the offspring law, and an estimate of their error.

    Condition on the first host's removal time r ~ Exp(rho): its spores are
    released independently after Exp(beta) each, unless it is removed
    first, and a spore released at s founds a family that must die out by
    t.  With w(t) = sum_j p_j q_j(t) (q_0 = 0) and G the pgf,

        b(t) = int_0^t beta e^{-beta s} (1 - w(t - s)) ds,
        A(r, t) = int_0^r beta e^{-beta s} w(t - s) ds,
        1 - q_k(t) = e^{-rho t} b(t)^k + int_0^t rho e^{-rho r} (1 - A(r, t))^k dr,
        w(t) = 1 - e^{-rho t} G(b(t)) - int_0^t rho e^{-rho r} G(1 - A(r, t)) dr,

    a scalar Volterra equation for w.  The trapezoid rule solves it at steps
    t_max / n, / 2n and / 4n, each by Picard sweeps, and one Richardson step
    (4 q_{h/2} - q_h) / 3 removes the h^2 error term of each pair.  Returns
    the grid, and per k the finer pair's extrapolation with, as its error
    estimate, its distance to the coarser pair's.
    """
    coarse, mid, fine = (_volterra_level(m, t_max, n * 2**i, ks) for i in range(3))
    ts = np.linspace(0.0, t_max, n + 1)
    curves = {}
    for k in ks:
        rough = (4.0 * mid[k][::2] - coarse[k]) / 3.0
        best = (4.0 * fine[k][::4] - mid[k][::2]) / 3.0
        curves[k] = (best, np.abs(best - rough))
    return ts, curves


def truncated_mean(sys: TruncatedSystem) -> float:
    """Mean of the truncated offspring law p~_0 .. p~_K."""
    j = np.arange(sys.K + 1)
    return float((j * sys.offspring_table).sum())


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

    The truncation level must keep enough offspring mean: its tail rate
    beta sum_{j>K} j p_j (:func:`truncation_level`) must be at most epsilon,
    which keeps the truncated decay rate within lambda + epsilon.  The
    implied constant c1 (not pinned by any formula) is reported as exp of the
    grid minimum of ln q_1(t) + (lambda + epsilon) t, together with whether
    that minimum has visibly stabilized inside the grid.
    """
    m = sys.params
    lam = m.decay_rate
    if lam <= 0.0:
        raise ValueError("lower-bound check requires a subcritical model")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if sys.K < (k0 := truncation_level(m, epsilon)):
        raise ValueError(
            f"truncation K={sys.K} keeps too little offspring mean for epsilon={epsilon:g}; "
            f"need K >= {k0}"
        )
    if t_max is None:
        t_max = max(20.0 / lam, 4.0 / epsilon)
    ts = _grid(t_max, dt)
    u1 = np.empty(len(ts))  # e^{lambda t} q_1(t)

    def keep(m: int, u: np.ndarray) -> None:
        u1[m] = u[0]

    _solve_scaled(sys, ts, solver_tol, keep)
    margin = np.log(u1) + epsilon * ts  # = ln q_1 + (lambda + epsilon) t
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


class WindowError(ValueError):
    """Fit window contains unusable (nonpositive or too few) curve points."""


def fit_decay_rate(
    curve: SurvivalCurve, window: tuple[float, float]
) -> tuple[float, float]:
    """Least-squares slope of -ln q over a time window: (rate, stderr).

    Scaling the curve by a constant shifts the log without tilting it, so
    the fitted rate is scale-invariant.
    """
    lo, hi = window
    mask = (curve.ts >= lo) & (curve.ts <= hi)
    if mask.sum() < 3:
        raise WindowError(f"window [{lo:g}, {hi:g}] covers fewer than 3 grid points")
    q = curve.qs[mask]
    if np.any(q <= 0.0):
        raise WindowError(f"curve is not positive throughout [{lo:g}, {hi:g}]")
    x = curve.ts[mask]
    y = -np.log(q)
    n = len(x)
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    var = float((resid**2).sum()) / (n - 2) if n > 2 else 0.0
    stderr = math.sqrt(var / sxx)
    return float(slope), stderr
