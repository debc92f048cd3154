"""How fast the host runs the benchmark's kind of code at the moment.

The benchmark shares its cores with other tenants, whose load switches a
core between about two speeds, often within a second. `reference_seconds`
times a fixed loop of the kind the program spends its time in: small numpy
arrays, elementwise kernels, reductions and Python objects. It does not
touch hypermil, so a change to the package cannot change it. Sampled
between operations, it tracks the speed the operations ran at; a figure
divided by the mean of its samples is free of the host's speed, and is
given back in ms by multiplying with `REFERENCE_S`.
"""

import gc
import statistics
import time

import numpy as np

# the loop's time on an idle core of the 2-core x86_64 virtual machine the
# benchmark was set up on (numpy 2.4.6, Python 3.11.7): the 5th percentile
# of 20000 samples. A fixed unit, never to be re-measured: changing it
# rescales every gated time.
REFERENCE_S = 1.09e-3

_ROUNDS = 300
_X = np.full((16, 8), 0.5)


class _Node:
    __slots__ = ("value", "parent")

    def __init__(self, value, parent):
        self.value = value
        self.parent = parent


def reference_seconds():
    """Seconds the fixed loop takes now. The cyclic garbage collector is off
    while it runs, so the program's heap does not change the loop's work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        node = None
        acc = 0.0
        for _ in range(_ROUNDS):
            y = _X * 1.0001 + 0.1
            z = np.tanh(y)
            node = _Node(z, node)
            acc += float(z.sum()) + len({"y": y, "z": z})
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples of the reference loop over one phase of a run."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(reference_seconds())

    def slowdown(self):
        """Mean loop time over the idle-core time: 1 on an idle core, about
        2 on a core busy with another tenant."""
        return statistics.fmean(self.samples) / REFERENCE_S
