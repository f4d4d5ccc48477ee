"""Test-only reference: the allocating Dormand-Prince pass the in-place
`sporesim.analytic._pass` must reproduce bit for bit.

Each stage builds fresh arrays, u + step * (A_i @ ks[:i]), and calls
`backward_rhs`, the production right-hand side on fresh buffers; the
step-size control is the production one.  Returns the whole pass at once:
(U, accepted, rejected).
"""

from __future__ import annotations

import math

import numpy as np

from sporesim.analytic import _DP_A, _DP_C, _DP_E, SolverError, TruncatedSystem, _rhs_kernel


def backward_rhs(q, sys: TruncatedSystem, sigma: float = 0.0, t: float = 0.0) -> np.ndarray:
    """The derivative at (t, q) in a new array: `_rhs_kernel` on fresh buffers."""
    q = np.asarray(q, dtype=float)
    return _rhs_kernel(sys, sigma, q, np.empty_like(q))(np.empty_like(q), t)


def dopri5(
    sys: TruncatedSystem, ts: np.ndarray, tau: float, sigma: float
) -> tuple[np.ndarray, int, int]:
    """One adaptive Dormand-Prince pass for u from u(0) = 1, local error on u
    <= tau per step, a step end on every grid point: (U, accepted, rejected)."""
    u = np.ones(sys.K)
    out = np.empty((len(ts), sys.K))
    out[0] = u
    ks = np.empty((7, sys.K))
    ks[0] = backward_rhs(u, sys, sigma, 0.0)
    h = float(ts[1] - ts[0])
    t, accepted, rejected = 0.0, 0, 0
    for m in range(1, len(ts)):
        t_end = float(ts[m])
        while t < t_end:
            n = math.ceil((t_end - t) / h)
            step = (t_end - t) / n
            if step < 16.0 * math.ulp(t_end):
                raise SolverError(f"step-size underflow at t={t:g} for local tolerance {tau:g}")
            for i in range(1, 7):
                y = u + step * (_DP_A[i - 1] @ ks[:i])
                ks[i] = backward_rhs(y, sys, sigma, t + _DP_C[i] * step)
            err = step * float(np.abs(_DP_E @ ks).max()) / tau
            if err <= 1.0:
                accepted += 1
                t = t_end if n == 1 else t + step
                u = y
                ks[0] = ks[6]
                h = step * (5.0 if err == 0.0 else min(5.0, 0.9 * err**-0.2))
            else:
                rejected += 1
                h = step * (max(0.2, 0.9 * err**-0.2) if math.isfinite(err) else 0.2)
        out[m] = u
    return out, accepted, rejected
