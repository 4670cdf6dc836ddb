"""``dot(t, g)``: the scalar ``sum(t * g)`` as one tape node.

A test takes its loss as ``dot(op(...), g)``, so ``backward`` hands the
chosen upstream array ``g`` to the op under test.
"""

import numpy as np

from lgrin import autodiff as ad


def dot(t, g):
    g = np.asarray(g, dtype=np.float64)
    if g.shape != t.shape:
        raise ValueError(f"upstream {g.shape} does not match tensor {t.shape}")
    return ad._emit((t,), np.asarray(np.sum(t.values * g)), lambda up: (float(up) * g,))
