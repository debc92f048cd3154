"""Metrics, the nested evaluation protocol, ablations, and embedding export.

AUC is the rank statistic (probability that a random positive outscores a
random negative, ties counted half), macro one-vs-rest averaged beyond two
classes. F1 is the positive-class score for binary tasks and the macro
average otherwise. Both are computed directly here so they can be checked
against brute-force pair counting.

The protocol trains one model per (outer fold, inner split) pair on the
fold's in-domain sites and reports AUC/F1 on the in-domain test slides and
on the fold's held-out out-of-domain sites, using each run's best
validation checkpoint. The protocol and the ablation run their folds through
one runner, `_run_folds`: in this process, or on a pool of forked worker
processes that inherit the bundle and send back only each fold's row. The
rows are the same either way.

Scoring has one path, `_scores`, which `predict` runs on one bag and
`evaluate` on all of its bags: the class text is embedded once per call,
each bag runs its own adaptor and pooling graph (`model.slide_tangents`),
and the slide tangents of all bags are mapped in one call and their
distances to the class text taken in one stacked call, one one-row product
per slide. So an `evaluate` row equals `predict` on its bag bit for bit.

`export_embeddings` and `mean_origin_distances` read the same walk over
the embeddings (`_embeddings`): the class text level by level, then each
bag's slide, regions and patches, from one `model.embed_slide` map per
bag.
"""

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from . import training
from .data import make_splits
from .errors import ConfigError, MetricError, NumericalError, TrainingError
from .fileio import atomic_write_text
from .model import (HierarchyLevel, embed_slide, embed_text, slide_tangents,
                    text_level)


def _scores(bags, params, geom):
    """[B x C] class probabilities of B bags: each row the softmax over the
    negative geodesics from the bag's slide point to the slide-level class
    text.

    The one scoring path, of `predict` (B = 1) and `score_bags`. The class
    text is embedded once per call. Each bag runs its own `slide_tangents`
    graph (the adaptor and the two `aggregate` calls) and only its slide
    tangent is read, so no per-bag level is mapped. The B tangents are
    stacked and mapped in one `exp_map_origin` call, and the distances are
    one `geometry.geodesic_core` call over the slides as B stacked [1 x k]
    rows: numpy runs it as B one-row [1 x k] by [k x C] products, so a row
    of `evaluate` equals `predict` on its bag bit for bit (BLAS may round a
    several-row product differently from a one-row one in the last bit).
    The row statistics (`geometry.rows`) of the slides and of the anchors
    are computed once per call, row by row, so a slide's are the same
    whatever B is. The distances run outside any autodiff node, so they are
    checked here: a slide mapped to infinity can have NaN distances, or
    only infinite ones, whose softmax row is NaN; either is a
    NumericalError.
    """
    with ad.no_grad():
        text = embed_text(params, geom)
        tangents = np.concatenate([slide_tangents(bag, params)[0].data
                                   for bag in bags])
        slides = geo.rows(geo.exp_map_origin(tangents, geom).space.data, geom)
        anchors = geo.rows(text_level(text, HierarchyLevel.SLIDE).space.data, geom)
    stacked = geo.Rows(*(a[:, None] for a in slides))
    d = geo.geodesic_core(stacked, anchors, geom)[0][:, 0]
    nan = np.isnan(d).any()
    if nan or np.isinf(d).all(axis=1).any():
        what = "NaN" if nan else "only infinite distances"
        raise NumericalError(f"geodesic produced {what} in the forward pass")
    z = -d - np.max(-d, axis=1, keepdims=True)
    p = np.exp(z)
    return p / p.sum(axis=1, keepdims=True)


def predict(bag, params, geom):
    """Class probabilities of one bag: softmax over negative slide-to-text
    geodesics, the one-bag case of the scoring that `evaluate` runs.

    The class text and the slide point are mapped onto the manifold: the
    patch and region levels are never mapped and the NaN guard never runs
    on their maps.
    """
    return _scores([bag], params, geom)[0]


def score_bags(bags, params, geom):
    """One `predict` row per bag, all bags scored in one pass that shares one
    text embedding, one `exp_map_origin` call and one stacked distance call.
    No bags, or a bag whose label is not one of the model's classes, is a
    MetricError; a slide whose distances are NaN, or all infinite, is a
    NumericalError."""
    if not bags:
        raise MetricError("no bags to score")
    for bag in bags:
        if not 0 <= bag.label < params.dims.n_classes:
            raise MetricError(f"slide {bag.slide_id} has label {bag.label}, the "
                              f"model has {params.dims.n_classes} classes")
    scores = _scores(bags, params, geom)
    labels = np.array([bag.label for bag in bags])
    return scores, labels


def evaluate(bags, params, geom):
    """(AUC, F1, scores, labels) over a list of bags.

    The class text depends on the parameters alone, so it is embedded once
    per call. Each bag's adaptor and pooling run per bag, and the slide
    level of all bags is mapped and scored in one pass (`score_bags`): one
    map and one stacked distance call of one-row products. A one-bag pass
    is `predict`, so every row equals `predict` on that bag bit for bit.
    """
    scores, labels = score_bags(bags, params, geom)
    return (
        auc(scores, labels),
        f1(scores.argmax(axis=1), labels, n_classes=scores.shape[1]),
        scores,
        labels,
    )


# -- metrics -------------------------------------------------------------------


def _tie_average_ranks(scores):
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    ordered = scores[order]
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j] == ordered[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)
        i = j
    return ranks


def _binary_auc(scores, positive):
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs at least one sample of each class")
    ranks = _tie_average_ranks(np.asarray(scores, dtype=np.float64))
    return float(
        (ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    )


def _paired(what, values, labels):
    """`values` and `labels` as arrays; MetricError unless there is at least
    one row of values and one label per row."""
    values, labels = np.asarray(values), np.asarray(labels)
    if labels.ndim != 1 or labels.shape != values.shape[:1] or not labels.size:
        raise MetricError(f"{what} of shape {values.shape} and labels of shape "
                          f"{labels.shape}: need one label per row, one row or more")
    return values, labels


def auc(scores, labels):
    """Rank-statistic AUC; macro one-vs-rest for more than two classes.

    Scores and labels of different lengths, or none, or a NaN score, are a
    MetricError."""
    scores, labels = _paired("scores", np.asarray(scores, dtype=np.float64), labels)
    if np.isnan(scores).any():
        raise MetricError("scores hold NaN, which has no rank")
    if scores.ndim == 1:
        return _binary_auc(scores, labels == 1)
    if scores.shape[1] == 2:
        return _binary_auc(scores[:, 1], labels == 1)
    return float(
        np.mean([_binary_auc(scores[:, c], labels == c)
                 for c in range(scores.shape[1])])
    )


def f1(predictions, labels, n_classes=None):
    """Positive-class F1 on binary tasks, macro F1 otherwise.

    Predictions and labels of different lengths, or none, are a MetricError."""
    predictions, labels = _paired("predictions", predictions, labels)
    if n_classes is None:
        n_classes = int(max(predictions.max(), labels.max())) + 1
    # row c: which samples are predicted as, and which are labelled, class c
    classes = np.arange(n_classes)[:, None]
    predicted = predictions == classes
    actual = labels == classes
    counts = zip(np.count_nonzero(predicted & actual, axis=1).tolist(),
                 np.count_nonzero(predicted, axis=1).tolist(),
                 np.count_nonzero(actual, axis=1).tolist())
    scores = []
    for tp, n_predicted, n_actual in counts:
        precision = tp / n_predicted if n_predicted else 0.0
        recall = tp / n_actual if n_actual else 0.0
        scores.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    if n_classes == 2:
        return float(scores[1])
    return float(np.mean(scores))


# -- protocol -------------------------------------------------------------------


@dataclass(frozen=True)
class FoldMetrics:
    outer: int
    inner: int
    auc_ind: float
    f1_ind: float
    auc_ood: float
    f1_ood: float


@dataclass(frozen=True)
class MetricReport:
    rows: tuple

    def aggregate(self):
        cells = {}
        for name in ("auc_ind", "f1_ind", "auc_ood", "f1_ood"):
            values = np.array([getattr(r, name) for r in self.rows])
            cells[name] = (float(values.mean()), float(values.std()))
        return cells

    def to_text(self):
        lines = []
        for r in self.rows:
            for domain, a, f in (("IND", r.auc_ind, r.f1_ind),
                                 ("OOD", r.auc_ood, r.f1_ood)):
                lines.append(f"fold outer={r.outer} inner={r.inner} "
                             f"domain={domain} auc={a:.6f} f1={f:.6f}")
        agg = self.aggregate()
        lines.append(
            "summary "
            + " ".join(f"{k}={m:.6f}+-{s:.6f}" for k, (m, s) in agg.items())
        )
        return "\n".join(lines) + "\n"


# the (bundle, split plan) that a forked worker's initializer appends; it
# stays empty in the process that starts the pool
_worker_inputs = []


def _fold(task, inputs=None):
    """The FoldMetrics row of one (cfg, outer, inner) task: train on the
    inner split, then evaluate the best checkpoint in domain and on the outer
    fold's held-out sites. `inputs` is (bundle, split plan); None reads the
    copy a forked worker inherited."""
    cfg, outer, inner = task
    bundle, plan = inputs or _worker_inputs[0]
    by_id = {bag.slide_id: bag for bag in bundle.bags}
    geom = cfg.geometry()
    fold = plan.folds[outer]
    split = fold.inner[inner]
    fold_cfg = replace(cfg, seed=training._fold_seed(cfg.seed, outer, inner))
    params = training.train(bundle, split, fold_cfg).best_params
    auc_ind, f1_ind = evaluate([by_id[i] for i in split.test_ids], params, geom)[:2]
    # a single outer fold covers every site, leaving nothing held out
    auc_ood, f1_ood = (evaluate([by_id[i] for i in fold.ood_ids], params, geom)[:2]
                       if fold.ood_ids else (float("nan"), float("nan")))
    return FoldMetrics(outer, inner, auc_ind, f1_ind, auc_ood, f1_ood)


def _run_folds(bundle, cfgs, n_outer, n_inner, jobs):
    """One MetricReport per config, each over the same n_outer x n_inner
    split plan, drawn from the first config's seed.

    With `jobs` <= 1, or where the `fork` start method is missing, the folds
    run in this process. Otherwise they run on up to `jobs` forked worker
    processes, which inherit the bundle and the plan through fork: a task
    sends only its (cfg, outer, inner) and gets back only its FoldMetrics
    row. The first failed fold's error is raised here, once the folds not
    yet handed to a worker are cancelled and the pool has shut down; a
    worker process that ends abruptly (killed, say, by the out-of-memory
    killer) is a TrainingError.
    """
    if jobs < 0:
        raise ConfigError(f"jobs must not be negative, got {jobs}")
    inputs = bundle, make_splits(bundle.bags, n_outer, n_inner, seed=cfgs[0].seed)
    tasks = [(cfg, outer, inner) for cfg in cfgs
             for outer in range(n_outer) for inner in range(n_inner)]
    rows = None
    if jobs > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            try:
                with ProcessPoolExecutor(
                        max_workers=min(jobs, len(tasks)),
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=_worker_inputs.append,
                        initargs=(inputs,)) as pool:
                    rows = list(pool.map(_fold, tasks))
            except BrokenProcessPool as exc:
                raise TrainingError(
                    "a fold worker process ended abruptly before its fold "
                    f"finished: {exc}") from exc
    if rows is None:
        rows = [_fold(task, inputs) for task in tasks]
    n = n_outer * n_inner
    return [MetricReport(rows=tuple(rows[i:i + n])) for i in range(0, len(rows), n)]


def run_protocol(bundle, n_outer, n_inner, cfg, jobs=1):
    """Train and evaluate one model per (outer, inner) pair. The folds run in
    this process at `jobs` <= 1, else on up to `jobs` forked worker
    processes, with the same rows either way; ConfigError for a negative
    `jobs`."""
    return _run_folds(bundle, [cfg], n_outer, n_inner, jobs)[0]


def ablate(bundle, cfg, n_outer=3, n_inner=3, jobs=1):
    """The four-way objective ablation, in a fixed order.

    Returns [(name, lambda_a, lambda_s, MetricReport)] for
    (0, 0), (lambda_a, 0), (0, lambda_s), (lambda_a, lambda_s).
    All four variants' folds run in one pass over one split plan, in this
    process or on one pool of up to `jobs` forked workers, as in
    `run_protocol`; a negative `jobs` is a ConfigError before any training.
    """
    la, ls = cfg.loss.lambda_a, cfg.loss.lambda_s
    variants = [("cls-only", 0.0, 0.0), ("ama-only", la, 0.0),
                ("shc-only", 0.0, ls), ("full", la, ls)]
    cfgs = [replace(cfg, loss=replace(cfg.loss, lambda_a=a, lambda_s=s))
            for _, a, s in variants]
    reports = _run_folds(bundle, cfgs, n_outer, n_inner, jobs)
    return [(*variant, report) for variant, report in zip(variants, reports)]


def ablation_table(results):
    lines = ["name lambda_a lambda_s auc_ood f1_ood auc_ind f1_ind"]
    for name, la, ls, report in results:
        agg = report.aggregate()
        cells = (f"{agg[k][0]:.6f}+-{agg[k][1]:.6f}"
                 for k in ("auc_ood", "f1_ood", "auc_ind", "f1_ind"))
        lines.append(f"{name} {la:g} {ls:g} " + " ".join(cells))
    return "\n".join(lines) + "\n"


# -- embedding export ------------------------------------------------------------


def _origin_distances(points, geom):
    return geo.geodesic(geo.origin(geom, 1), points, geom).data[0]


def _embeddings(bags, params, geom):
    """(kind, classes, slide id, Points) of the class text, one level at a
    time from the slide level down, then of each bag's slide, regions and
    patches. `classes` gives each row's class; a text level has the level
    name as its slide id. The caller runs it under `autodiff.no_grad`."""
    text = embed_text(params, geom)
    for level in reversed(HierarchyLevel):
        points = text_level(text, level)
        yield "text", range(points.count), level.name.lower(), points
    for bag in bags:
        emb = embed_slide(bag, params, geom)
        label = itertools.repeat(bag.label)
        yield "slide", label, bag.slide_id, emb.slide
        yield "region", label, bag.slide_id, emb.regions
        yield "patch", label, bag.slide_id, emb.patches


def export_embeddings(bags, params, geom, path):
    """One row per embedding: level, class, slide id, distance from the
    origin, and a fixed two-coordinate Poincare-disk projection.

    Text rows appear once per (class, level) with the level name in the
    slide id column.
    """
    lines = ["level,class,slide_id,dist_origin,p1,p2"]
    with ad.no_grad():
        for kind, classes, slide_id, points in _embeddings(bags, params, geom):
            dists = _origin_distances(points, geom)
            disk = geo.to_poincare_disk(points, geom)
            for i, c in zip(range(points.count), classes):
                lines.append(
                    f"{kind},{c},{slide_id},{dists[i]:.12g},"
                    f"{disk[i, 0]:.12g},{disk[i, 1]:.12g}"
                )
    atomic_write_text(path, "\n".join(lines) + "\n")
    return len(lines) - 1


def mean_origin_distances(bags, params, geom):
    """Mean geodesic distance from the origin per hierarchy level.

    Text embeddings (all classes and levels pooled) plus the per-bag
    slide/region/patch embeddings pooled over the given bags. No bags is a
    MetricError.
    """
    if not bags:
        raise MetricError("no bags to measure distances over")
    dists = {"text": [], "slide": [], "region": [], "patch": []}
    with ad.no_grad():
        for kind, _, _, points in _embeddings(bags, params, geom):
            dists[kind].append(_origin_distances(points, geom))
    return {k: float(np.concatenate(v).mean()) for k, v in dists.items()}
