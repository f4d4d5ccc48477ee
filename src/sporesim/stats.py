"""Monte Carlo estimation and distribution comparison.

Estimates of the survival probability come with Wilson score intervals so
that all-extinct and all-survived cells deep in the tail stay informative.
The extinction-time limit law is checked by centering lambda*T at
ln(C * sum_k k z_k), exactly the predicted location, and measuring the
Kolmogorov-Smirnov distance to the standard Gumbel CDF exp(-exp(-w)); C is
supplied analytically, never refit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import SurvivalCurve, _grid
from .model import ModelParams
from .simulator import DEFAULT_MAX_EVENTS, PopulationState, run_batch

WILSON_Z = 1.96  # 95% score interval


def wilson_interval(successes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Wilson 95% score intervals for binomial proportions, elementwise over
    ``successes`` (an integer or integer array) out of n; valid at 0 and n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not np.all((0 <= successes) & (successes <= n)):
        raise ValueError("successes must lie in [0, n]")
    phat = successes / n
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = WILSON_Z * np.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    # at s = 0 and s = n the bounds are 0 and 1 exactly, which rounding can
    # miss by an ulp; clamping to the estimate keeps low <= s/n <= high
    return np.clip(center - half, 0.0, phat), np.clip(center + half, phat, 1.0)


def survival_curve_mc(
    k: int,
    t_max: float,
    m: ModelParams,
    seed: int,
    n: int,
    dt: float | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> SurvivalCurve:
    """Whole Monte Carlo survival curve from one batch of extinction times.

    The grid is :func:`solve_survival`'s, over [0, t_max] at spacing dt
    (None: the default spacing).  Replicates are censored at t_max; q(t) is
    the fraction of extinction times beyond t and err holds the Wilson
    half-width per point.
    """
    ts = _grid(t_max, dt)
    init = PopulationState({k: 1})
    outcomes = run_batch(init, m, seed, replicates=n, horizon=t_max, max_events=max_events)
    # survivors at t: extinction times beyond t (censored ones are inf)
    alive = n - np.searchsorted(np.sort(outcomes.extinction_times), ts, side="right")
    low, high = wilson_interval(alive, n)
    return SurvivalCurve(k=k, ts=ts, qs=alive / n, err=(high - low) / 2.0, source="monte_carlo")


@dataclass(frozen=True)
class GrowthConditionReport:
    """Finite-n reading of the initial-condition growth requirement
    sum k^2 z_k = o((sum k z_k)^(1 + a/lambda)); advisory only."""

    spores: float  # sum k z_k
    second_moment: float  # sum k^2 z_k
    exponent: float  # 1 + a/lambda
    ratio: float


def check_growth_condition(z: dict[int, int], a: float, lam: float) -> GrowthConditionReport:
    """The growth ratio of the start z, held to :class:`PopulationState`'s rule."""
    counts = PopulationState(z).counts
    if not counts:
        raise ValueError("initial counts must contain at least one host")
    if a <= 0.0 or lam <= 0.0:
        raise ValueError("a and lambda must be positive")
    spores = float(sum(k * n for k, n in counts.items()))
    second = float(sum(k * k * n for k, n in counts.items()))
    exponent = 1.0 + a / lam
    return GrowthConditionReport(
        spores=spores,
        second_moment=second,
        exponent=exponent,
        ratio=second / spores**exponent,
    )


def gumbel_cdf(w: float) -> float:
    return math.exp(-math.exp(-w))


def gumbel_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return -math.log(-math.log(p))


GUMBEL_MEDIAN = gumbel_quantile(0.5)  # -ln ln 2


def ks_distance(sample, cdf: Callable[[float], float]) -> float:
    """Sup distance between the empirical CDF of the sample and ``cdf``."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("sample must be nonempty")
    d = 0.0
    for i, x in enumerate(xs):
        f = cdf(float(x))
        d = max(d, (i + 1) / n - f, f - i / n)
    return d


def sorted_quantile(xs: list[float], p: float) -> float:
    """``np.quantile(xs, p)`` of a sorted sample, bit for bit, without the
    import of numpy.ma that np.quantile makes: numpy's default rule puts the
    quantile at virtual index (n - 1) p, between xs[i] = a and xs[i + 1] = b,
    as a + d g for a fraction g < 1/2 and b - d (1 - g) above, d = b - a."""
    pos = (len(xs) - 1) * p
    i = math.floor(pos)
    if i >= len(xs) - 1:
        return xs[-1]
    a, b = xs[i], xs[i + 1]
    g = pos - i
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1.0 - g)


def sorted_median(xs: list[float]) -> float:
    """``np.median(xs)`` of a sorted sample, bit for bit: the middle element,
    or the mean of the middle two."""
    h = len(xs) // 2
    return xs[h] if len(xs) % 2 else (xs[h - 1] + xs[h]) / 2.0


@dataclass(frozen=True)
class GumbelReport:
    """Empirical extinction-time law against the predicted Gumbel limit."""

    location: float  # ln(C * sum k z_k) / lambda, on the T scale
    scale: float  # 1 / lambda
    n: int
    ks: float
    median_w: float  # empirical median of lambda*T - ln(C sum k z_k)
    quantiles: tuple[tuple[float, float, float], ...]  # (p, empirical, predicted)
    extinction_times: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 <= self.ks <= 1.0:
            raise ValueError("KS distance must lie in [0, 1]")


def gumbel_experiment(
    z: dict[int, int],
    m: ModelParams,
    C: float,
    seed: int,
    replicates: int,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> GumbelReport:
    """Extinction times of a large initial population against the Gumbel law.

    Simulates ``replicates`` full extinction times from initial counts ``z``,
    transforms them to w = lambda*T - ln(C * sum_k k z_k), and reports the
    KS distance to exp(-exp(-w)) plus a decile table.  C must come from a
    closed form or from the backward-system estimate, not from the sample.
    """
    lam = m.decay_rate
    if lam <= 0.0:
        raise ValueError("extinction-time experiment requires a subcritical model")
    if not 0.0 < C <= 1.0:
        raise ValueError("leading constant must lie in (0, 1]")
    init = PopulationState(z)
    if not init.counts:
        raise ValueError("initial counts must contain at least one host")

    outcomes = run_batch(init, m, seed, replicates, max_events=max_events)
    times = outcomes.extinction_times
    center = math.log(C * sum(k * n for k, n in init.counts.items()))
    w = lam * times - center
    ks = ks_distance(w, gumbel_cdf)
    xs = sorted(w.tolist())
    ps = [i / 10.0 for i in range(1, 10)]
    quantiles = tuple((p, sorted_quantile(xs, p), gumbel_quantile(p)) for p in ps)
    return GumbelReport(
        location=center / lam,
        scale=1.0 / lam,
        n=replicates,
        ks=ks,
        median_w=sorted_median(xs),
        quantiles=quantiles,
        extinction_times=times,
    )
