"""In-memory span tracing of hypermil's public functions, from outside it.

A `Tracer` replaces chosen functions and methods with wrappers that record
one span per call: name, start, end, parent span, thread, fold id and the
thread CPU time the call used. Spans stay in memory until the run ends;
`self_times` then gives each span's duration minus the time its child spans
cover. Kernel calls of the autodiff backend are too frequent to keep one
span each, so they are only counted and timed per kernel name.

Wrappers are installed into every loaded `hypermil` module that holds a
reference to the target (modules import functions by name), and `installed()`
restores every original when it exits, also after an exception.
"""

import itertools
import math
import sys
import threading
import time
from collections import namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "sid name start end parent thread fold cpu")

_MARK = "_hyperbench_wrapper"


class Tracer:
    """Records spans of wrapped calls; one instance per traced phase."""

    def __init__(self, fold_root=None):
        # a top-level call of `fold_root` starts a new fold on its thread;
        # later spans on that thread carry the fold's id
        self.fold_root = fold_root
        self.spans = []
        self.nodes = []  # graph size at each backward call
        self._ids = itertools.count()
        self._folds = itertools.count()
        self._local = threading.local()
        self._kernel_tables = []
        self._lock = threading.Lock()

    # -- per-thread state ----------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.fold = None
            local.kernels = {}
            with self._lock:
                self._kernel_tables.append(local.kernels)
        return local

    # -- wrappers ------------------------------------------------------------

    def span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._thread_state()
            stack = state.stack
            if not stack and name == tracer.fold_root:
                state.fold = next(tracer._folds)
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                tracer.spans.append(
                    Span(sid, name, t0, t1, parent, threading.get_ident(),
                         state.fold, cpu1 - cpu0)
                )

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def kernel_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                dt = time.perf_counter() - t0
                table = tracer._thread_state().kernels
                calls, total = table.get(name, (0, 0.0))
                table[name] = (calls + 1, total + dt)

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def backward_wrapper(self, name, fn):
        """Span around Tensor.backward that first sizes the graph it walks."""
        spanned = self.span_wrapper(name, fn)
        nodes = self.nodes

        def wrapper(root):
            nodes.append(count_nodes(root))
            return spanned(root)

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def kernel_totals(self):
        """{kernel name: (calls, seconds)} summed over threads."""
        totals = {}
        with self._lock:
            tables = list(self._kernel_tables)
        for table in tables:
            for name, (calls, seconds) in table.items():
                c, s = totals.get(name, (0, 0.0))
                totals[name] = (c + calls, s + seconds)
        return totals

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self, targets, package="hypermil"):
        """Wrap every target for the duration of the block.

        `targets` holds (owner, attribute, span name, kind) with kind one of
        "span", "kernel" or "backward". A method is replaced on its class; a
        module-level function, kernels included, in every loaded module of
        `package` that references it.
        """
        makers = {
            "span": self.span_wrapper,
            "kernel": self.kernel_wrapper,
            "backward": self.backward_wrapper,
        }
        patches = []
        try:
            for owner, attr, name, kind in targets:
                original = getattr(owner, attr)
                wrapper = makers[kind](name, original)
                for holder in _holders(owner, package):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)


def _package_modules(package):
    return [
        (name, m) for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]


def _holders(owner, package):
    """Namespaces to patch: the class itself for a method, else every
    module of the package, since modules import functions by name."""
    if isinstance(owner, type):
        return [owner]
    modules = [m for _, m in _package_modules(package)]
    return modules if owner in modules else [owner] + modules


def leftover_wrappers(package="hypermil"):
    """(namespace, attribute) pairs in `package` still holding a wrapper."""
    found = []
    for name, module in _package_modules(package):
        namespaces = [module] + [
            v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == name
        ]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if hasattr(value, _MARK):
                    found.append((ns, key))
    return found


# -- span arithmetic -------------------------------------------------------------


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}.

    Children are the spans naming it as parent; parents are taken from the
    recording thread's own stack, so concurrent spans of another thread
    never count as cover.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(s.sid, ())):
            a = max(a, cursor)
            b = min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.sid] = (s.end - s.start) - covered
    return out


def fold_metrics(spans, jobs, wall):
    """(overlap, wait share) of the folds among `spans`.

    A fold is the set of top-level spans sharing a fold id. Overlap is the
    sum of fold extents over `jobs` x `wall`; wait share is one minus the
    folds' thread CPU time over their wall time. Both are 0 without folds.
    """
    folds = {}
    for s in spans:
        if s.parent is None and s.fold is not None:
            start, end, cpu, busy = folds.get(s.fold, (s.start, s.end, 0.0, 0.0))
            folds[s.fold] = (min(start, s.start), max(end, s.end),
                             cpu + s.cpu, busy + (s.end - s.start))
    if not folds or jobs < 1:
        return 0.0, 0.0
    extent = sum(end - start for start, end, _, _ in folds.values())
    cpu = sum(f[2] for f in folds.values())
    busy = sum(f[3] for f in folds.values())
    return extent / (jobs * wall), 1.0 - cpu / busy


def count_nodes(root):
    """Number of distinct tensors reachable from `root` through `_parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# -- percentiles -----------------------------------------------------------------


def nearest_rank(sorted_values, pct):
    """The pct-th percentile by the nearest-rank rule."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1]


def beyond(n, pct):
    """How many of n samples lie past the nearest-rank pct-th percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(samples, ladder=(99.9, 99.0, 90.0, 50.0), min_beyond=10):
    """(pct, value, n): the highest ladder percentile with at least
    `min_beyond` samples past it, or None when even the lowest has fewer."""
    values = sorted(samples)
    for pct in ladder:
        if beyond(len(values), pct) >= min_beyond:
            return pct, nearest_rank(values, pct), len(values)
    return None
