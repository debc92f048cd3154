"""Metrics, the nested evaluation protocol, ablations, and embedding export.

AUC is the rank statistic (probability that a random positive outscores a
random negative, ties counted half), macro one-vs-rest averaged beyond two
classes. F1 is the positive-class score for binary tasks and the macro
average otherwise. Both are computed directly here so they can be checked
against brute-force pair counting.

The protocol trains one model per (outer fold, inner split) pair on the
fold's in-domain sites and reports AUC/F1 on the in-domain test slides and
on the fold's held-out out-of-domain sites, using each run's best
validation checkpoint.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from . import training
from .data import make_splits
from .errors import ConfigError, MetricError
from .fileio import atomic_write_text
from .model import HierarchyLevel, embed_slide, embed_text, text_level


def predict(bag, params, geom, text=None):
    """Class probabilities: softmax over negative slide-to-text geodesics.

    `text` is `embed_text(params, geom)` when the caller already holds it;
    None embeds it here. Only the slide point is read, so the patch and
    region levels are never mapped onto the manifold and the NaN guard
    never runs on their maps.
    """
    with ad.no_grad():
        emb = embed_slide(bag, params, geom, text)
        slide_text = text_level(emb.text, HierarchyLevel.SLIDE)
        d = geo.geodesic(emb.slide, slide_text, geom).data[0]
    z = -d - np.max(-d)
    p = np.exp(z)
    return p / p.sum()


def score_bags(bags, params, geom):
    """One `predict` row per bag, all sharing one text embedding. No bags,
    or a bag whose label is not one of the model's classes, is a
    MetricError."""
    if not bags:
        raise MetricError("no bags to score")
    for bag in bags:
        if not 0 <= bag.label < params.dims.n_classes:
            raise MetricError(f"slide {bag.slide_id} has label {bag.label}, the "
                              f"model has {params.dims.n_classes} classes")
    with ad.no_grad():
        text = embed_text(params, geom)
    scores = np.stack([predict(bag, params, geom, text) for bag in bags])
    labels = np.array([bag.label for bag in bags])
    return scores, labels


def evaluate(bags, params, geom):
    """(AUC, F1, scores, labels) over a list of bags.

    The class text depends on the parameters alone, so it is embedded once
    per call and shared by every bag; each bag still runs through its own
    `predict` graph, so every row equals `predict` on that bag bit for bit.
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


def auc(scores, labels):
    """Rank-statistic AUC; macro one-vs-rest for more than two classes."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim == 1:
        return _binary_auc(scores, labels == 1)
    if scores.shape[1] == 2:
        return _binary_auc(scores[:, 1], labels == 1)
    return float(
        np.mean([_binary_auc(scores[:, c], labels == c)
                 for c in range(scores.shape[1])])
    )


def f1(predictions, labels, n_classes=None):
    """Positive-class F1 on binary tasks, macro F1 otherwise."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if n_classes is None:
        n_classes = int(max(predictions.max(), labels.max())) + 1
    scores = []
    for c in range(n_classes):
        tp = int(np.sum((predictions == c) & (labels == c)))
        fp = int(np.sum((predictions == c) & (labels != c)))
        fn = int(np.sum((predictions != c) & (labels == c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
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
            lines.append(
                f"fold outer={r.outer} inner={r.inner} domain=IND "
                f"auc={r.auc_ind:.6f} f1={r.f1_ind:.6f}"
            )
            lines.append(
                f"fold outer={r.outer} inner={r.inner} domain=OOD "
                f"auc={r.auc_ood:.6f} f1={r.f1_ood:.6f}"
            )
        agg = self.aggregate()
        lines.append(
            "summary "
            + " ".join(f"{k}={m:.6f}+-{s:.6f}" for k, (m, s) in agg.items())
        )
        return "\n".join(lines) + "\n"


def run_protocol(bundle, n_outer, n_inner, cfg, jobs=1):
    """Train and evaluate one model per (outer, inner) pair, on up to `jobs`
    threads; ConfigError for a negative `jobs`."""
    if jobs < 0:
        raise ConfigError(f"jobs must not be negative, got {jobs}")
    plan = make_splits(bundle.bags, n_outer, n_inner, seed=cfg.seed)
    by_id = {bag.slide_id: bag for bag in bundle.bags}
    geom = cfg.geometry()

    def run_one(task):
        outer, inner = task
        fold = plan.folds[outer]
        split = fold.inner[inner]
        fold_cfg = replace(cfg, seed=training._fold_seed(cfg.seed, outer, inner))
        result = training.train(bundle, split, fold_cfg)
        params = result.best_params
        ind_bags = [by_id[i] for i in split.test_ids]
        ood_bags = [by_id[i] for i in fold.ood_ids]
        auc_ind, f1_ind = evaluate(ind_bags, params, geom)[:2]
        if ood_bags:
            auc_ood, f1_ood = evaluate(ood_bags, params, geom)[:2]
        else:
            # a single outer fold covers every site, leaving nothing held out
            auc_ood, f1_ood = float("nan"), float("nan")
        return FoldMetrics(outer, inner, auc_ind, f1_ind, auc_ood, f1_ood)

    tasks = [(o, i) for o in range(n_outer) for i in range(n_inner)]
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = tuple(pool.map(run_one, tasks))
    else:
        rows = tuple(run_one(t) for t in tasks)
    return MetricReport(rows=rows)


_ABLATION_ORDER = ("cls-only", "ama-only", "shc-only", "full")


def ablate(bundle, cfg, n_outer=3, n_inner=3, jobs=1):
    """The four-way objective ablation, in a fixed order.

    Returns [(name, lambda_a, lambda_s, MetricReport)] for
    (0, 0), (lambda_a, 0), (0, lambda_s), (lambda_a, lambda_s).
    A negative `jobs` is a ConfigError from the first `run_protocol` call,
    before any training.
    """
    weights = {
        "cls-only": (0.0, 0.0),
        "ama-only": (cfg.loss.lambda_a, 0.0),
        "shc-only": (0.0, cfg.loss.lambda_s),
        "full": (cfg.loss.lambda_a, cfg.loss.lambda_s),
    }
    out = []
    for name in _ABLATION_ORDER:
        la, ls = weights[name]
        run_cfg = replace(cfg, loss=replace(cfg.loss, lambda_a=la, lambda_s=ls))
        out.append((name, la, ls, run_protocol(bundle, n_outer, n_inner,
                                               run_cfg, jobs=jobs)))
    return out


def ablation_table(results):
    lines = ["name lambda_a lambda_s auc_ood f1_ood auc_ind f1_ind"]
    for name, la, ls, report in results:
        agg = report.aggregate()
        lines.append(
            f"{name} {la:g} {ls:g} "
            f"{agg['auc_ood'][0]:.6f}+-{agg['auc_ood'][1]:.6f} "
            f"{agg['f1_ood'][0]:.6f}+-{agg['f1_ood'][1]:.6f} "
            f"{agg['auc_ind'][0]:.6f}+-{agg['auc_ind'][1]:.6f} "
            f"{agg['f1_ind'][0]:.6f}+-{agg['f1_ind'][1]:.6f}"
        )
    return "\n".join(lines) + "\n"


# -- embedding export ------------------------------------------------------------


def _origin_distances(points, geom):
    with ad.no_grad():
        return geo.geodesic(geo.origin(geom, 1), points, geom).data[0]


def export_embeddings(bags, params, geom, path):
    """One row per embedding: level, class, slide id, distance from the
    origin, and a fixed two-coordinate Poincare-disk projection.

    Text rows appear once per (class, level) with the level name in the
    slide id column.
    """
    lines = ["level,class,slide_id,dist_origin,p1,p2"]

    def emit(level, cls, slide_id, points):
        dists = _origin_distances(points, geom)
        disk = geo.to_poincare_disk(points, geom)
        for i in range(points.count):
            c = cls[i] if hasattr(cls, "__len__") else cls
            lines.append(
                f"{level},{c},{slide_id},{dists[i]:.12g},"
                f"{disk[i, 0]:.12g},{disk[i, 1]:.12g}"
            )

    with ad.no_grad():
        text = embed_text(params, geom)
        for level in reversed(HierarchyLevel):
            points = text_level(text, level)
            emit("text", range(points.count), level.name.lower(), points)
        for bag in bags:
            emb = embed_slide(bag, params, geom, text)
            emit("slide", bag.label, bag.slide_id, emb.slide)
            emit("region", bag.label, bag.slide_id, emb.regions)
            emit("patch", bag.label, bag.slide_id, emb.patches)
    text_out = "\n".join(lines) + "\n"
    atomic_write_text(path, text_out)
    return len(lines) - 1


def mean_origin_distances(bags, params, geom):
    """Mean geodesic distance from the origin per hierarchy level.

    Text embeddings (all classes and levels pooled) plus the per-bag
    slide/region/patch embeddings pooled over the given bags.
    """
    sums = {"text": [], "slide": [], "region": [], "patch": []}
    with ad.no_grad():
        text = embed_text(params, geom)
        for level in HierarchyLevel:
            sums["text"].append(_origin_distances(text_level(text, level), geom))
        for bag in bags:
            emb = embed_slide(bag, params, geom, text)
            sums["slide"].append(_origin_distances(emb.slide, geom))
            sums["region"].append(_origin_distances(emb.regions, geom))
            sums["patch"].append(_origin_distances(emb.patches, geom))
    return {k: float(np.concatenate(v).mean()) for k, v in sums.items()}
