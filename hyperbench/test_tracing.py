"""Tests of the benchmark's own helpers: span arithmetic, the percentile
rule, the graph-node counter, the removal of tracing wrappers, the cutting
of inputs into parts and the host-speed correction.

    python3 -m pytest -q hyperbench
"""

import gc
import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import hypermil as hm  # noqa: E402
import layers  # noqa: E402
from reference import REFERENCE_S, HostSpeed, reference_seconds  # noqa: E402
from tracing import (  # noqa: E402
    Span,
    Tracer,
    count_nodes,
    fold_metrics,
    leftover_wrappers,
    self_times,
    tail_percentile,
)
from workloads import _stratified_parts  # noqa: E402


def span(sid, start, end, parent=None, thread=1, fold=None, cpu=0.0):
    return Span(sid, f"s{sid}", start, end, parent, thread, fold, cpu)


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),
        span(3, 6.0, 7.5, parent=0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5})


def test_self_time_ignores_concurrent_spans_of_another_thread():
    spans = [
        span(0, 0.0, 10.0, thread=1),
        span(1, 2.0, 5.0, parent=0, thread=1),
        span(2, 1.0, 9.0, thread=2),  # overlaps both, but is nobody's child
        span(3, 3.0, 4.0, parent=2, thread=2),
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 7.0, 1: 3.0, 2: 7.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 5.0, parent=0),
             span(2, 4.0, 6.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def _fake_package():
    """A throwaway package whose module-level functions call each other."""
    pkg = types.ModuleType("fakebench")
    mod = types.ModuleType("fakebench.work")

    def inner(barrier):
        barrier.wait(timeout=10)
        return 1

    def outer(barrier):
        return mod.inner(barrier) + 1

    mod.inner, mod.outer = inner, outer
    pkg.outer = outer  # re-exported by name, like hypermil/__init__.py does
    return pkg, mod


def test_recorded_spans_from_two_threads_keep_their_own_parents(monkeypatch):
    pkg, mod = _fake_package()
    monkeypatch.setitem(sys.modules, "fakebench", pkg)
    monkeypatch.setitem(sys.modules, "fakebench.work", mod)
    tracer = Tracer()
    barrier = threading.Barrier(2)
    targets = [(mod, "outer", "work.outer", "span"),
               (mod, "inner", "work.inner", "span")]
    with tracer.installed(targets, package="fakebench"):
        assert pkg.outer is mod.outer  # the re-export is wrapped as well
        workers = [threading.Thread(target=pkg.outer, args=(barrier,))
                   for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    by_id = {s.sid: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "work.inner"]
    outers = [s for s in tracer.spans if s.name == "work.outer"]
    assert len(inners) == len(outers) == 2
    assert {s.thread for s in outers} == {s.thread for s in inners}
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "work.outer" and parent.thread == s.thread
    selfs = self_times(tracer.spans)
    for s in outers:
        child = next(c for c in inners if c.parent == s.sid)
        expected = (s.end - s.start) - (child.end - child.start)
        assert selfs[s.sid] == pytest.approx(expected)


def test_fold_metrics_from_top_level_spans():
    spans = [
        span(0, 0.0, 4.0, thread=1, fold=0, cpu=2.0),
        span(1, 1.0, 2.0, parent=0, thread=1, fold=0, cpu=1.0),
        span(2, 4.0, 5.0, thread=1, fold=0, cpu=0.5),
        span(3, 0.0, 5.0, thread=2, fold=1, cpu=2.5),
    ]
    overlap, wait = fold_metrics(spans, jobs=2, wall=5.0)
    assert overlap == pytest.approx((5.0 + 5.0) / (2 * 5.0))
    assert wait == pytest.approx(1.0 - (2.0 + 0.5 + 2.5) / (4.0 + 1.0 + 5.0))
    assert fold_metrics(spans[:0], jobs=2, wall=5.0) == (0.0, 0.0)


# -- percentile rule -----------------------------------------------------------


def test_percentile_rule_needs_ten_samples_beyond():
    assert tail_percentile(range(1, 101)) == (90.0, 90, 100)
    assert tail_percentile(range(1, 1001)) == (99.0, 990, 1000)
    # 99 samples leave only 9 past the 90th percentile
    assert tail_percentile(range(1, 100)) == (50.0, 50, 99)
    assert tail_percentile(range(1, 10)) is None


def test_percentile_rule_sorts_its_input():
    samples = list(range(100, 0, -1))
    assert tail_percentile(samples, ladder=(90.0,)) == (90.0, 90, 100)


# -- node counter --------------------------------------------------------------


def test_node_counter_on_hand_built_graph():
    a = hm.autodiff.Tensor([1.0, 2.0], requires_grad=True)
    b = hm.autodiff.Tensor([3.0, 4.0])
    c = a * b          # mul(a, b)
    d = c + a          # add(c, a): a is reached twice, counted once
    e = (d * 2.0).sum()  # scalar_mul, sum
    assert count_nodes(e) == 6
    with hm.autodiff.no_grad():
        f = (a * b).sum()
    assert count_nodes(f) == 1


# -- wrapper removal -------------------------------------------------------------


def _tiny_bag():
    import numpy as np

    rng = np.random.default_rng(0)
    regions = [rng.standard_normal((3, 8)) for _ in range(2)]
    return hm.FeatureBag(slide_id="t", label=0, site="s", regions=regions)


def test_traced_predict_counts_and_wrappers_are_removed():
    originals = {
        "model.embed_slide": hm.model.embed_slide,
        "training.embed_slide": hm.training.embed_slide,
        "Tensor.backward": hm.autodiff.Tensor.backward,
        "kernel.has_nan": hm.backend.active.has_nan,
    }
    dims = hm.ModelDims(d_in=8, k=4, n_classes=2)
    params = hm.init_params(dims, 0)
    geom = hm.GeometryConfig(dim=4)
    bag = _tiny_bag()
    tracer = Tracer(fold_root=layers.FOLD_ROOT)
    with tracer.installed(layers.targets(hm)):
        assert hm.training.embed_slide is not originals["training.embed_slide"]
        assert leftover_wrappers()
        hm.predict(bag, params, geom)
    names = [s.name for s in tracer.spans]
    assert names.count("model.embed_slide") == 1
    assert names.count("model.aggregate") == len(bag.regions) + 1
    assert names.count("model.embed_text") == 1
    assert names.count("geometry.geodesic") == 1
    assert tracer.kernel_totals()["backend.has_nan"][0] > 0

    assert leftover_wrappers() == []
    assert hm.model.embed_slide is originals["model.embed_slide"]
    assert hm.training.embed_slide is originals["training.embed_slide"]
    assert hm.autodiff.Tensor.backward is originals["Tensor.backward"]
    assert hm.backend.active.has_nan is originals["kernel.has_nan"]


def test_wrappers_are_removed_after_an_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(layers.targets(hm)):
            raise RuntimeError("boom")
    assert leftover_wrappers() == []


# -- input parts and host speed --------------------------------------------------


def test_stratified_parts_hold_every_id_once_and_every_class():
    label_of = {i: i % 3 for i in range(18)}
    parts = _stratified_parts(range(18), label_of, 6)
    assert sorted(i for part in parts for i in part) == list(range(18))
    assert all(sorted(label_of[i] for i in part) == [0, 1, 2] for part in parts)


def test_host_slowdown_is_mean_sample_over_idle_core_time():
    speed = HostSpeed()
    speed.samples = [REFERENCE_S, 3.0 * REFERENCE_S]
    assert speed.slowdown() == pytest.approx(2.0)


def test_reference_loop_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert reference_seconds() > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        reference_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()
