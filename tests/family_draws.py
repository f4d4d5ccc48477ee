"""Family 0's uniforms of one replicate, for tests that feed the engine's
transition kernel or an offspring law by hand."""

import numpy as np

from sporesim.simulator import event_uniforms


def family_uniforms(seed: int, replicate: int, n: int = 3 * 1024) -> np.ndarray:
    """The first ``n`` uniforms of family 0 of replicate ``replicate`` under
    master seed ``seed``, in the engine's order: waiting time, type choice
    and offspring, event after event."""
    events = np.arange((n + 2) // 3, dtype=np.uint64)
    return np.stack(event_uniforms(seed, events, 0, replicate), axis=1).ravel()[:n]
