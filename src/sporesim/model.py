"""Offspring laws and process parameters, checked against the standing assumptions when built.

The population consists of hosts, each carrying k >= 1 spores.  A spore is
released at rate ``beta`` and spawns a new host whose spore count J is drawn
from an offspring law (p_j); a host (with all its spores) is removed at rate
``rho`` regardless of its spore count.  The survival probability of the
population decays at rate

    lambda = rho + beta * (1 - mean(J)),

and the process is subcritical exactly when lambda > 0.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Table probabilities may deviate from sum 1 by at most this much without
# correction; deviations below _RENORM_TOL are silently renormalized, larger
# ones are a hard error (bad config files should not drift quietly).
_EXACT_TOL = 1e-12
_RENORM_TOL = 1e-9
# a parametric law's sampling table ends where the tail mass is below
# _TABLE_TAIL, or at _TABLE_MAX entries
_TABLE_TAIL = 2.0**-32
_TABLE_MAX = 1 << 16
# tables up to this length are searched by one comparison per distinct
# value below their top, weighted by the entries holding it (one comparison
# for {0: 0.6, 2: 0.4}), a third of the time of searchsorted's binary search
# at 3 entries.  Longer ones look u up in a guide table of _GUIDE_CELLS
# equal cells of [0, 1) (Chen & Asau 1974; Devroye 1986, III.2.4), which
# holds the count drawn anywhere in the cell where no cumulative value falls
# inside it, and -1 where one does (9 of 4,096 cells for Poisson(2)) and in
# a last cell for u >= 1: only those go to searchsorted
_LINEAR_SEARCH = 4
_GUIDE_CELLS = 1 << 12
# largest Poisson mean whose pmf recursion starts from a normal float exp(-mean)
_POISSON_MAX_MEAN = 700.0
# smallest geometric success probability whose sampling table ends by the
# tail rule, below _TABLE_MAX entries (the cut starts near 3.39e-4); the
# mean stays below 2,000
_GEOMETRIC_MIN_SUCCESS = 5e-4

KINDS = ("table", "poisson", "geometric")


def checked_int(value, what: str) -> int:
    """``value`` as an int (numpy integers pass); a bool, float or string raises TypeError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class OffspringDistribution:
    """Law of the spore count J of a newly spawned host.

    Three kinds are supported:

    * ``table``: finite support, explicit probabilities ``probs = (p_0 .. p_J)``.
    * ``poisson``: mean ``param > 0``, support {0, 1, 2, ...}.
    * ``geometric``: success probability ``param in [5e-4, 1)``, support
      {0, 1, 2, ...} with P(J = j) = (1 - param)^j * param.

    All kinds have finite mean and second moment and are sampled by inverse
    CDF on one uniform; nothing is ever truncated at the sampling stage.
    """

    kind: str
    probs: tuple[float, ...] = ()
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown offspring kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "table":
            if len(self.probs) == 0:
                raise ValueError("table offspring law needs at least one probability")
            p = np.asarray(self.probs, dtype=float)
            if not np.all(np.isfinite(p)) or np.any(p < 0.0):
                raise ValueError("table probabilities must be finite and nonnegative")
            total = float(p.sum())
            if abs(total - 1.0) > _RENORM_TOL:
                raise ValueError(
                    f"table probabilities sum to {total!r}, more than {_RENORM_TOL:g} away from 1"
                )
            if abs(total - 1.0) > _EXACT_TOL:
                p = p / total
            object.__setattr__(self, "probs", tuple(float(x) for x in p))
        else:
            if self.probs:
                raise ValueError(f"{self.kind} offspring law takes no probability table")
            if not math.isfinite(self.param) or self.param <= 0.0:
                raise ValueError(f"{self.kind} offspring law needs a positive parameter")
            if self.kind == "geometric" and not _GEOMETRIC_MIN_SUCCESS <= self.param < 1.0:
                raise ValueError(
                    f"geometric success probability must lie in [{_GEOMETRIC_MIN_SUCCESS:g}, 1): "
                    "below it the sampling table is cut before its tail mass falls to 2^-32"
                )
            if self.kind == "poisson" and self.param > _POISSON_MAX_MEAN:
                raise ValueError(
                    f"poisson mean must be at most {_POISSON_MAX_MEAN:g}: exp(-mean) "
                    "underflows the pmf recursion"
                )

    @classmethod
    def table(cls, probs) -> "OffspringDistribution":
        return cls(kind="table", probs=tuple(float(x) for x in probs))

    @classmethod
    def poisson(cls, mean: float) -> "OffspringDistribution":
        return cls(kind="poisson", param=float(mean))

    @classmethod
    def geometric(cls, success: float) -> "OffspringDistribution":
        return cls(kind="geometric", param=float(success))

    @cached_property
    def mean(self) -> float:
        if self.kind == "table":
            return float(sum(j * p for j, p in enumerate(self.probs)))
        if self.kind == "poisson":
            return self.param
        return (1.0 - self.param) / self.param

    def pmf_table(self, kmax: int) -> np.ndarray:
        """Probabilities (p_0 .. p_kmax) as an array; entries above the table
        support are zero."""
        out = np.zeros(kmax + 1)
        if self.kind == "table":
            n = min(len(self.probs), kmax + 1)
            out[:n] = self.probs[:n]
        elif self.kind == "poisson":
            # stable recursion p_{j+1} = p_j * m / (j + 1)
            m = self.param
            out[0] = math.exp(-m)
            for j in range(kmax):
                out[j + 1] = out[j] * m / (j + 1)
        else:  # p_{j+1} = p_j * (1 - p), one product at a time as the recursion
            out[:] = 1.0 - self.param
            out[0] = self.param
            np.multiply.accumulate(out, out=out)
        return out

    @cached_property
    def cumulative(self) -> np.ndarray:
        """P(J <= j) for j = 0 .. top, the table inverse-CDF sampling searches.

        A table law covers its whole support (the top entry is set to 1
        against rounding shortfall).  A parametric law runs the
        :meth:`pmf_table` recursion up to the first j >= mean whose tail mass
        is below 2^-32 (at most 2^16 entries); :meth:`quantile` continues the
        recursion above it.
        """
        if self.kind == "table":
            cum = np.cumsum(self.probs)
            cum[-1] = 1.0
            return cum
        n = 16
        while True:
            cum = np.cumsum(self.pmf_table(n))
            done = (np.arange(n + 1) >= self.mean) & (1.0 - cum <= _TABLE_TAIL)
            if done.any():
                return cum[: int(np.argmax(done)) + 1]
            if n >= _TABLE_MAX:
                return cum
            n *= 2

    @cached_property
    def _cumulative_list(self) -> list[float]:
        return self.cumulative.tolist()

    def quantile(self, u: float) -> int:
        """Inverse CDF: the smallest j with u < P(J <= j), for u in [0, 1)."""
        cum = self._cumulative_list
        j = bisect_right(cum, u)
        if j < len(cum):
            return j
        return self._tail_quantile(u)

    @cached_property
    def _steps(self) -> tuple[tuple[float, int], ...]:
        """The distinct cumulative values below the top, each with the
        number of entries holding it."""
        cum = self._cumulative_list
        return tuple((c, cum.count(c)) for c in sorted(set(cum)) if c < cum[-1])

    @cached_property
    def _guide(self) -> np.ndarray:
        """The count drawn in each cell [i, i + 1) * 2^-12 of u, or -1: the
        count is monotone in u, so it is the count at the cell's start
        wherever that equals the count at the largest float below the
        cell's end.  A last cell, for u >= 1, holds -1."""
        edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
        start = np.searchsorted(self.cumulative, edges[:-1], side="right")
        top = np.searchsorted(self.cumulative, np.nextafter(edges[1:], 0.0), side="right")
        return np.append(np.where(start == top, start, -1), -1)

    def quantiles(self, u: np.ndarray) -> np.ndarray:
        """:meth:`quantile` of every entry of u, as an integer array."""
        cum = self.cumulative
        if len(cum) <= _LINEAR_SEARCH:
            # the number of entries <= u: below the top, one comparison per
            # distinct value; at the top or above, the recursion continues
            steps = self._steps
            j = (u >= steps[0][0]) * steps[0][1] if steps else np.zeros(np.shape(u), np.intp)
            for c, times in steps[1:]:
                j += (u >= c) * times
            above = u >= cum[-1]
        else:
            # the cell of each u, then its entry, in one integer array
            j = np.multiply(u, _GUIDE_CELLS, out=np.empty(np.shape(u), np.intp), casting="unsafe")
            self._guide.take(j, mode="clip", out=j)
            split = j < 0
            if split.any():
                j[split] = np.searchsorted(cum, u[split], side="right")
            above = j == len(cum)
        if above.any():
            j[above] = [self._tail_quantile(x) for x in u[above].tolist()]
        return j

    def _tail_quantile(self, u: float) -> int:
        """Continue the pmf_table recursion above the sampling table's top,
        doubling its length until the cumulative sum passes u (or stops
        growing in floating point)."""
        n = len(self.cumulative) - 1
        while True:
            cum = np.cumsum(self.pmf_table(2 * n))
            j = int(np.searchsorted(cum, u, side="right"))
            if j <= 2 * n or cum[-1] == cum[n]:
                # found, or the sum stopped growing: then the first j reaching it
                return min(j, int(np.argmax(cum == cum[-1])))
            n *= 2


@dataclass(frozen=True)
class ModelParams:
    """Process parameters: release rate per spore, removal rate per host,
    and the offspring law."""

    beta: float
    rho: float
    offspring: OffspringDistribution

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta) or self.beta <= 0.0:
            raise ValueError("beta must be positive and finite")
        if not math.isfinite(self.rho) or self.rho < 0.0:
            raise ValueError("rho must be nonnegative and finite")

    @property
    def decay_rate(self) -> float:
        return self.rho + self.beta * (1.0 - self.offspring.mean)

    @property
    def subcritical(self) -> bool:
        return self.decay_rate > 0.0


def tail_exponent(m: ModelParams, a: float | None = None) -> float:
    """The tail exponent ``a`` of the growth condition and of the settling
    time 10/a of the constant's estimate.  It must lie in (0, min(lambda, beta));
    the default is the midpoint min(lambda, beta)/2."""
    cap = min(m.decay_rate, m.beta)
    if cap <= 0.0:
        raise ValueError(
            f"a tail exponent requires a subcritical model, got decay rate {m.decay_rate:g}"
        )
    a = cap / 2.0 if a is None else float(a)
    if not 0.0 < a < cap:
        raise ValueError(f"a = {a!r} must lie in (0, {cap!r})")
    return a


def sample_offspring(d: OffspringDistribution, rng) -> int:
    """Draw one exact sample of J: inverse CDF on one uniform from rng."""
    return d.quantile(rng.uniform01())
