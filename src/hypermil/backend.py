"""The NaN guard every autodiff node runs on its forward value.

`has_nan` is the only kernel. `active` (this module) and `name()` remain
because the benchmark harness in `hyperbench/` reads them: it wraps the
public callables of `backend.active` to count and time guard calls, and
records `backend.name()` in its environment record.
"""

import sys

import numpy as np


def has_nan(a):
    # one reduction that propagates NaN; skips numpy's Python-level any()
    # wrapper, and +-inf never compare unequal to themselves
    if a.size == 0:
        return False
    m = np.minimum.reduce(a, axis=None)
    return bool(m != m)


active = sys.modules[__name__]


def name():
    return "python"
