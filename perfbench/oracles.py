"""Reference values computed apart from sporesim.

Nothing here imports sporesim: every formula is derived again from the
model's definition (README of the repository, "Numerical notes"), so a
wrong answer in the package cannot also appear in its own check.  scipy is
used here and nowhere in the package.
"""

from __future__ import annotations

import numpy as np
from scipy import stats
from scipy.integrate import solve_ivp


def decay_rate(beta: float, rho: float, probs: np.ndarray) -> float:
    """lambda = rho + beta * (1 - sum_j j p_j)."""
    j = np.arange(len(probs))
    return rho + beta * (1.0 - float(j @ np.asarray(probs, dtype=float)))


def lf_q1(t, beta: float, p0: float, p2: float) -> np.ndarray:
    """Closed-form q_1(t) of the linear-fractional case (rho = 0, law on {0, 2}):
    q_1(t) = d e^{-beta d t} / (p0 - p2 e^{-beta d t}), d = p0 - p2."""
    d = p0 - p2
    e = np.exp(-beta * d * np.asarray(t, dtype=float))
    return d * e / (p0 - p2 * e)


def lf_constant(p0: float, p2: float) -> float:
    """C = lim e^{lambda t} q_1(t) = 1 - p2/p0 in the linear-fractional case."""
    return 1.0 - p2 / p0


def extinction_cdf_lf(t, spores: int, beta: float, p0: float, p2: float) -> np.ndarray:
    """Exact P(T <= t) for a population holding `spores` spores in total.

    With rho = 0 every spore founds an independent type-1 family, so
    q_k = 1 - (1 - q_1)^k and P(T <= t) = prod_k (1 - q_k)^{z_k}
    = (1 - q_1(t))^{sum_k k z_k}.
    """
    return np.exp(spores * np.log1p(-lf_q1(t, beta, p0, p2)))


def gumbel_cdf(w) -> np.ndarray:
    return np.exp(-np.exp(-np.asarray(w, dtype=float)))


def ks_statistic(sample, cdf) -> float:
    """sup_x |F_n(x) - F(x)| for a continuous CDF `cdf` (vectorised)."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = len(xs)
    f = cdf(xs)
    i = np.arange(n)
    return float(max(((i + 1) / n - f).max(), (f - i / n).max()))


def ks_pvalue(d: float, n: int) -> float:
    """Exact one-sample Kolmogorov-Smirnov p-value."""
    return float(stats.kstwo.sf(d, n))


def poisson_table(mean: float, K: int) -> np.ndarray:
    """(p_0 .. p_K) of Poisson(mean), from scipy."""
    return stats.poisson.pmf(np.arange(K + 1), mean)


def backward_reference(beta: float, rho: float, pmf: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """q_k(t), k = 1..K, of the truncated backward system by scipy Radau.

    Offspring counts above K = len(pmf) - 1 count as 0, so with
    w = sum_{j=1}^K p_j q_j the system is
    q_k' = -(rho + beta k) q_k + beta k (q_{k-1} + w - q_{k-1} w), q_0 = 0,
    q_k(0) = 1.  Returns shape (len(ts), K).
    """
    p = np.asarray(pmf, dtype=float)[1:]
    K = len(p)
    k = np.arange(1, K + 1, dtype=float)
    loss = rho + beta * k
    gain = beta * k

    def rhs(_t, q):
        w = p @ q
        prev = np.concatenate(([0.0], q[:-1]))
        return -loss * q + gain * (prev + w - prev * w)

    def jac(_t, q):
        w = p @ q
        prev = np.concatenate(([0.0], q[:-1]))
        J = (gain * (1.0 - prev))[:, None] * p[None, :]
        J[np.arange(K), np.arange(K)] -= loss
        J[np.arange(1, K), np.arange(K - 1)] += gain[1:] * (1.0 - w)
        return J

    sol = solve_ivp(
        rhs,
        (0.0, float(ts[-1])),
        np.ones(K),
        method="Radau",
        t_eval=ts,
        jac=jac,
        rtol=1e-12,
        atol=1e-15,
    )
    if not sol.success:
        raise RuntimeError(f"Radau reference failed: {sol.message}")
    return sol.y.T

