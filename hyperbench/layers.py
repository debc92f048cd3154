"""What the traced run wraps in each hypermil layer, and the per-layer
metrics its spans give.

Times are self times: a span's duration minus the time of the wrapped calls
beneath it, so the layer metrics of one workload add up instead of counting
nested work twice. `training.train_s_per_fold` is the one whole-call
duration. Backend kernels are counted and timed without spans; their time
is also inside the self time of whichever function called into autodiff.

Normalisation:
  * `*_ms` of a traced operation: milliseconds per workload unit (slide
    step, protocol run or bag scored), the unit of the end-to-end
    figure;
  * data and checkpoint `*_ms`: milliseconds per set-up repetition;
  * `*_per_step`, `*_per_slide`, `*_per_bag`: calls per slide forward, that
    is per `embed_slide` call; `autodiff.nodes_per_step` is the mean size of
    the graph each `backward` walks.
"""

import statistics
from collections import Counter, defaultdict

from tracing import fold_metrics, self_times

GEOMETRY = ("exp_map_origin", "geodesic", "exterior_angle", "angle_distance",
            "half_aperture")
LOSSES = ("total_loss", "cls_loss", "ama_total", "shc_total")
SETUP_SPANS = ("data.generate", "data.write_bundle", "data.read_bundle",
               "data.make_splits", "model.save_checkpoint", "model.load_checkpoint")
FOLD_ROOT = "training.train"


def targets(hm):
    """(owner, attribute, span name, kind) for every wrapped call."""
    spans = [
        (hm.data, "generate"), (hm.data, "write_bundle"),
        (hm.data, "read_bundle"), (hm.data, "make_splits"),
        (hm.model, "embed_slide"), (hm.model, "embed_text"),
        (hm.model, "aggregate"), (hm.model, "save_checkpoint"),
        (hm.model, "load_checkpoint"),
        *((hm.geometry, fn) for fn in GEOMETRY),
        *((hm.losses, fn) for fn in LOSSES),
        (hm.training, "train"), (hm.training, "adam_step"),
        (hm.training, "select_top_k"),
        (hm.evaluation, "evaluate"), (hm.evaluation, "predict"),
    ]
    out = [(owner, fn, f"{owner.__name__.split('.')[-1]}.{fn}", "span")
           for owner, fn in spans]
    out += [
        (hm.model.Mlp, "__call__", "model.adaptor", "span"),
        (hm.model.ModelParams, "copy", "model.params_copy", "span"),
        (hm.autodiff.Tensor, "backward", "autodiff.backward", "backward"),
    ]
    kernels = hm.backend.active
    out += [(kernels, name, f"backend.{name}", "kernel")
            for name in dir(kernels)
            if not name.startswith("_") and callable(getattr(kernels, name))
            and not isinstance(getattr(kernels, name), type)]
    return out


def _by_name(spans):
    selfs = self_times(spans)
    seconds = defaultdict(float)
    calls = Counter()
    for s in spans:
        seconds[s.name] += selfs[s.sid]
        calls[s.name] += 1
    return seconds, calls


def metrics(setup_tracer, setup_reps, op_tracer, units, op_wall, jobs,
            overhead_share):
    """Every per-layer metric as {name: (value, unit)}."""
    setup_s, _ = _by_name(setup_tracer.spans)
    op_s, calls = _by_name(op_tracer.spans)
    kernels = op_tracer.kernel_totals()
    slides = calls["model.embed_slide"]

    def per_unit_ms(name):
        return (1000.0 * op_s[name] / units, "ms")

    def per_slide(count):
        return (count / slides if slides else 0.0, "count")

    out = {}
    for name in SETUP_SPANS:
        out[f"{name}_ms"] = (1000.0 * setup_s[name] / setup_reps, "ms")
    out["model.embed_slide_self_ms"] = per_unit_ms("model.embed_slide")
    out["model.adaptor_ms"] = per_unit_ms("model.adaptor")
    out["model.aggregate_ms"] = per_unit_ms("model.aggregate")
    out["model.aggregate_calls_per_slide"] = per_slide(calls["model.aggregate"])
    out["model.embed_text_calls_per_bag"] = per_slide(calls["model.embed_text"])
    out["model.params_copy_ms"] = per_unit_ms("model.params_copy")
    for fn in GEOMETRY:
        out[f"geometry.{fn}_ms"] = per_unit_ms(f"geometry.{fn}")
        out[f"geometry.{fn}_calls_per_step"] = per_slide(calls[f"geometry.{fn}"])
    for fn in LOSSES:
        out[f"losses.{fn}_ms"] = per_unit_ms(f"losses.{fn}")
    nodes = op_tracer.nodes
    out["autodiff.nodes_per_step"] = (statistics.fmean(nodes) if nodes else 0.0,
                                      "count")
    out["autodiff.backward_ms"] = per_unit_ms("autodiff.backward")
    kernel_calls = sum(c for c, _ in kernels.values())
    kernel_s = sum(s for _, s in kernels.values())
    out["backend.kernel_calls_per_step"] = per_slide(kernel_calls)
    out["backend.kernel_ms"] = (1000.0 * kernel_s / units, "ms")
    out["backend.has_nan_share"] = (
        kernels.get("backend.has_nan", (0, 0.0))[1] / op_wall, "share")
    out["training.adam_step_ms"] = per_unit_ms("training.adam_step")
    out["training.select_top_k_ms"] = per_unit_ms("training.select_top_k")
    trains = [s.end - s.start for s in op_tracer.spans if s.name == FOLD_ROOT]
    out["training.train_s_per_fold"] = (statistics.fmean(trains) if trains else 0.0,
                                        "s")
    out["evaluation.evaluate_ms"] = per_unit_ms("evaluation.evaluate")
    out["evaluation.predict_ms"] = per_unit_ms("evaluation.predict")
    overlap, wait = fold_metrics(op_tracer.spans, jobs, op_wall)
    out["evaluation.fold_overlap"] = (overlap, "share")
    out["evaluation.fold_wait_share"] = (wait, "share")
    out["trace.overhead_share"] = (overhead_share, "share")
    return out
