"""Naive per-clock engine: a distributional oracle for the aggregated one.

It shares no event or RNG code with the engine it checks: no host
aggregation, no transition kernel, no counter-based stream; every draw comes
from numpy's own Philox4x64 generator.  Only the offspring law's inverse CDF
and the outcome record are common to both.
"""

import math

import numpy as np

from sporesim.simulator import BudgetError, SimOutcome


def run_to_extinction_reference(init, m, seed, index, horizon=None, max_events=10**6):
    """One replicate of the population ``init`` under model ``m``.

    Every host carries its own removal clock and every spore its own release
    clock; all clocks are redrawn after each event (memorylessness makes the
    resampling exact).  Clocks and offspring come from numpy's Philox4x64
    generator keyed (seed << 64) | index; an offspring count is
    ``m.offspring.quantile(u)`` on one of its uniforms.  O(hosts + spores)
    work per event, for small populations only.
    """
    hosts = []
    for k, n in init.counts.items():
        hosts.extend([k] * n)
    t = 0.0
    peak = len(hosts)
    events = 0
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | index))

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
            j = m.offspring.quantile(gen.random())
            if j >= 1:
                hosts.append(j)
                if len(hosts) > peak:
                    peak = len(hosts)

    return SimOutcome(extinction_time=t, horizon=horizon, event_count=events, peak_hosts=peak)
