"""Optimization: Adam, top-K instance selection, and the training loop.

One slide is one optimization step, and every epoch ends with a
validation pass. Before its epoch loop, `train` selects each training
slide's top-K patches/regions whose raw features are most cosine-similar
to the label class's frozen base vector (the stand-in for instance labels)
and builds the slide's cone plan, in one pass over all slides of each
region layout. Per slide the loop then embeds the bag, assembles the
total objective over the slide's plan, backpropagates, and takes an Adam
step. Slides whose embeddings hit a genuinely undefined geometric
configuration (coincident points, an embedding at the origin) are skipped
and counted; a run fails if more than 1% of steps skip.

Everything is deterministic in (seed, bundle, config): epoch shuffles and
fold seeds derive from seed sequences, and no other randomness exists.
"""

import logging
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .data import FeatureBag, bags_with_ids
from .errors import (
    ConfigError,
    GeometryError,
    TrainingError,
    check_field_types,
    check_integer,
    check_positive,
)
from .fileio import read_json
from .geometry import GeometryConfig
from .losses import LossConfig, _loss, cls_loss, cone_plan, total_loss
from .model import (HierarchyLevel, ModelDims, aggregate, embed_slide, init_params,
                    layout_groups, same_layout, segment_plan)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 2e-4
    epochs: int = 20
    seed: int = 0
    k: int = 16
    curvature: float = 1.0
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        check_field_types(self)
        if not self.lr > 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    def geometry(self):
        return GeometryConfig(curvature=self.curvature, dim=self.k)


_LOSS_KEYS = {f.name for f in fields(LossConfig)}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)} - {"loss"}


def train_config_from_dict(raw):
    """Build a TrainConfig from a flat mapping; unknown keys are an error."""
    unknown = sorted(set(raw) - _TRAIN_KEYS - _LOSS_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    loss = LossConfig(**{k: v for k, v in raw.items() if k in _LOSS_KEYS})
    train = {k: v for k, v in raw.items() if k in _TRAIN_KEYS}
    return TrainConfig(loss=loss, **train)


def load_train_config(path):
    raw = read_json(path, ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must hold a single configuration object")
    return train_config_from_dict(raw)


# -- Adam ----------------------------------------------------------------------


class AdamState:
    """Step count and first and second moments, laid out like `params.flat`.

    There is no mask of parameters with a gradient: a parameter no slide
    reached has zeros in `params.grad`, and while its moments are zero too,
    as before its first gradient, its step is zero."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params):
        self.step = 0
        self.m = np.zeros(params.flat.size)
        self.v = np.zeros(params.flat.size)


def adam_step(params, state, lr):
    """Bias-corrected Adam update in place, one vectorized step over the flat
    trainable vector `params.flat` and its gradient `params.grad`.

    The step is elementwise, so each entry gets exactly the update of a
    per-parameter loop. No entry is masked out: a training step reaches
    every trainable, and a zero gradient with zero moments moves nothing
    (`AdamState`). A non-finite gradient raises TrainingError before
    anything is updated.
    """
    state.step += 1
    c1 = 1.0 - AdamState.beta1 ** state.step
    c2 = 1.0 - AdamState.beta2 ** state.step
    g = params.grad
    finite = np.isfinite(g)
    if not finite.all():
        ends = np.cumsum([t.data.size for _, t in params.trainable()])
        name = params.trainable()[np.searchsorted(ends, np.argmin(finite),
                                                  side="right")][0]
        raise TrainingError(f"non-finite gradient in {name}")
    m, v, x = state.m, state.v, params.flat
    np.add(m * AdamState.beta1, (1.0 - AdamState.beta1) * g, out=m)
    np.add(v * AdamState.beta2, (1.0 - AdamState.beta2) * g * g, out=v)
    np.subtract(x, lr * (m / c1) / (np.sqrt(v / c2) + AdamState.eps), out=x)


# -- top-K selection ------------------------------------------------------------


def _cosine(rows, vectors, vector_norms):
    """Cosine of each row of the [B x M x D] `rows` to its slide's vector of
    the [B x D] `vectors`, whose norms are `vector_norms`: [B x M]."""
    norms = np.linalg.norm(rows, axis=2)
    denom = np.maximum(norms * vector_norms[:, None], 1e-12)
    return (rows @ vectors[:, :, None])[:, :, 0] / denom


def select_top_k(bags, class_vectors, k):
    """Per-level index sets of the K embeddings most similar to each bag's
    label class, for a list of bags of one layout (`sizes`).

    Returns {level: [B x K_level] row indices}, row b for bags[b], the form
    `losses.cone_plan` takes. Similarity is cosine between raw features and
    the label class's base vector: per patch at patch level, per region mean
    at region level. K is truncated to what a bag holds; ranking ties break
    toward the lower index. The slide level always selects the single slide
    embedding.

    The bags' patch blocks are stacked into one [B x N x D] float64 array,
    and the similarities, the stable argsorts and the region means run
    along its last two axes, the axes one bag's [N x D] block has, so each
    bag's row is bit for bit what that bag ranked alone gives. The region
    means are sums over the block, one `np.add.reduceat` at the region
    starts of the layout's `model.segment_plan`, over the region sizes: bit
    for bit the mean of each region's rows. The bags are checked in order
    before they are stacked, by `model.same_layout` with the width and the
    count of the C class vectors: a label outside [0, C) is a ShapeError, a
    bag `slide_tangents` would refuse (`FeatureBag.check`) is refused here
    first, and so is a bag of another layout than the first (ShapeError).
    No bags is a ShapeError too.
    """
    vectors = np.asarray(class_vectors, dtype=np.float64)
    n_classes, width = vectors.shape
    sizes = same_layout(bags, width, n_classes)
    patches = np.stack([bag.patches for bag in bags], dtype=np.float64)
    labels = [bag.label for bag in bags]
    # the norm of each class vector taken alone, as one bag's ranking takes
    # it (`np.linalg.norm` of a vector is a dot product, not a row reduction)
    vector_norms = np.array([np.linalg.norm(vector) for vector in vectors])[labels]
    vectors = vectors[labels]
    patch_sims = _cosine(patches, vectors, vector_norms)
    patch_rows = np.argsort(-patch_sims, axis=1, kind="stable")[:, :k]
    starts = segment_plan(sizes, patches.shape[1]).starts
    region_means = np.add.reduceat(patches, starts, axis=1) / sizes[:, None]
    region_sims = _cosine(region_means, vectors, vector_norms)
    region_rows = np.argsort(-region_sims, axis=1, kind="stable")[:, :k]
    return {
        HierarchyLevel.PATCH: patch_rows,
        HierarchyLevel.REGION: region_rows,
        HierarchyLevel.SLIDE: np.zeros((len(bags), 1), dtype=int),
    }


def _cone_plans(bags, class_vectors, loss_cfg):
    """The `losses.cone_plan` of each training bag, in the order of `bags`:
    its region sizes, its label and its top-K selections, with the loss
    weights of `loss_cfg`. One `select_top_k` and one `cone_plan` call per
    layout (`model.layout_groups`); every bag is first checked in order by
    `FeatureBag.check` with the width and the count of the class vectors,
    so the first bag either would refuse is the one named, whatever its
    layout."""
    n_classes, width = np.shape(class_vectors)
    for bag in bags:
        bag.check(width, n_classes)
    plans = [None] * len(bags)
    for members in layout_groups(bags):
        group = [bags[pos] for pos in members]
        selections = select_top_k(group, class_vectors, loss_cfg.top_k)
        built = cone_plan(group[0].sizes, n_classes, [bag.label for bag in group],
                          selections, loss_cfg.lambda_a, loss_cfg.lambda_s)
        for pos, plan in zip(members, built):
            plans[pos] = plan
    return plans


# -- training loop ---------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_auc: float
    val_f1: float


@dataclass
class TrainResult:
    params: object          # final-epoch parameters
    best_params: object     # best validation AUC checkpoint
    best_val_auc: float
    log: list
    skipped: int


def _fold_seed(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def train(bundle, split, cfg):
    """Train on split.train_ids, validate on split.val_ids.

    The model takes the bundle's feature width and classes and embeds in
    `cfg.k` dimensions. Each epoch visits the training slides in a seeded shuffle and takes one
    Adam step after each slide that did not skip, then scores the
    validation slides; `best_params` are those of the best validation AUC.
    Split ids that the bundle lacks are a SplitError naming them, before any
    model is built. Every training slide's cone plan is built once, before
    the first epoch, by one `select_top_k` and one `cone_plan` call per
    region layout; a training slide either would refuse is named, the first
    in split order, before any step runs."""
    from .evaluation import evaluate  # local import, evaluation uses train()

    n_train = len(split.train_ids)
    bags = bags_with_ids(bundle.bags, (*split.train_ids, *split.val_ids), "split")
    train_bags, val_bags = bags[:n_train], bags[n_train:]
    if not train_bags:
        raise TrainingError("training split is empty")
    n_classes = len(bundle.class_vectors)
    if n_classes < 2:
        raise TrainingError(f"need at least 2 classes, got {n_classes}")

    dims = ModelDims(d_in=bundle.dim, k=cfg.k, n_classes=n_classes)
    geom = cfg.geometry()
    params = init_params(dims, cfg.seed, bundle.class_vectors)
    state = AdamState(params)

    # each training slide's cone plan, fixed for the whole run
    plans = _cone_plans(train_bags, bundle.class_vectors, cfg.loss)

    history = []
    best_params = None
    best_val_auc = -1.0
    skipped = 0
    steps = 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, epoch])
        ).permutation(len(train_bags))
        epoch_losses = []
        for pos in order:
            bag = train_bags[pos]
            steps += 1
            try:
                emb = embed_slide(bag, params, geom)
                loss = total_loss(emb, plans[pos], cfg.loss, geom)
                loss.backward()
            except GeometryError as exc:
                # raised in the forward pass only: the slide added no
                # gradient, so there is no step to take
                skipped += 1
                log.warning("skipping slide %s: %s", bag.slide_id, exc)
                continue
            epoch_losses.append(float(loss.data))
            adam_step(params, state, cfg.lr)
            params.zero_grads()

        val_auc = float("nan")
        val_f1 = float("nan")
        if val_bags:
            val_auc, val_f1 = evaluate(val_bags, params, geom)[:2]
            # ties go to the later epoch: once AUC saturates the distances
            # keep calibrating, so the most-trained of the tied checkpoints wins
            if val_auc >= best_val_auc:
                best_val_auc = val_auc
                best_params = params.copy()
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
                val_auc=val_auc,
                val_f1=val_f1,
            )
        )

    if skipped > 0.01 * steps:
        raise TrainingError(
            f"{skipped} of {steps} steps hit degenerate geometry; "
            "the run is unreliable"
        )
    if best_params is None:
        best_params = params.copy()
        best_val_auc = float("nan")
    return TrainResult(
        params=params,
        best_params=best_params,
        best_val_auc=best_val_auc,
        log=history,
        skipped=skipped,
    )


# -- gradient-check harness ------------------------------------------------------


def _tiny_bag(rng, d_in, n_regions, n_patches, n_classes):
    label = int(rng.integers(n_classes))
    regions = [
        rng.standard_normal((n_patches, d_in)) for _ in range(n_regions)
    ]
    return FeatureBag(slide_id="tiny", label=label, site="site-0", regions=regions)


def _zero_weights(cone):
    """A cone of a `losses.ConePlan`, (flat positions, apex positions,
    weights), with every weight zero."""
    flat, apex_at, weights = cone
    return flat, apex_at, np.zeros_like(weights)


def gradient_check_suite(trials=20, seed=0, h=1e-5):
    """Finite-difference checks of every loss family over a tiny model.

    Returns {check name: max relative error across trials}. Raises
    ConfigError, before any check runs, for `trials` that is not an integer
    of at least 1, `seed` that is not a nonnegative integer, or a step h
    that is not a positive finite number (a boolean is not a number), and
    NumericalError if any forward pass produces NaN.

    What each check roots at:
    * aggregation: one region aggregator's pooling, against a random probe;
    * cls_loss: `cls_loss` of the trial's embedded bag;
    * ama_loss: the loss node, cls off, over the alignment plan (weights
      (1, 0)) of the slide row alone;
    * ent_loss and con_loss: the loss node, cls off, over the bag's
      hierarchy plan (weights (0, 1)) for its top-K selections, with its
      contradiction weights, and with its entailment weights, set to zero.
      Every penalty is finite (the exponent is clipped at 700 and the hinge
      is at most pi/2), so a zero-weighted pair adds exactly 0 to the value
      and the gradient; its pair is still checked for coincidence;
    * total_loss: `total_loss` over the bag's plan, built as `train` does.

    The five whole-model checks perturb the same leaves, so they share their
    probes: each perturbed value is evaluated by one embedding of the bag
    and all five losses computed from it. Each check still takes its
    analytic gradient from its own forward and backward pass.
    """
    check_integer("trials", trials, 1)
    check_integer("seed", seed, 0)
    check_positive("step h", h)
    names = ("aggregation", "cls_loss", "ama_loss", "ent_loss", "con_loss",
             "total_loss")
    worst = {name: 0.0 for name in names}
    d_in, k, n_classes = 8, 4, 2
    dims = ModelDims(d_in=d_in, k=k, n_classes=n_classes)
    geom = GeometryConfig(curvature=1.0, dim=k)
    loss_cfg = LossConfig()
    slide_only = {HierarchyLevel.SLIDE: np.zeros((1, 1), dtype=int),
                  HierarchyLevel.REGION: np.zeros((1, 0), dtype=int),
                  HierarchyLevel.PATCH: np.zeros((1, 0), dtype=int)}

    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        params = init_params(dims, _fold_seed(seed, trial, 1))
        bag = _tiny_bag(rng, d_in, n_regions=2, n_patches=3, n_classes=n_classes)
        label = bag.label
        # the plan of the total loss, built once per trial as `train` does,
        # the alignment plan of the slide row and the hierarchy plan
        selections = select_top_k([bag], params.semantics.base.data, loss_cfg.top_k)
        (plan,), (ama,), (shc,) = (
            cone_plan(bag.sizes, n_classes, [label], picked, lambda_a, lambda_s)
            for picked, lambda_a, lambda_s in (
                (selections, loss_cfg.lambda_a, loss_cfg.lambda_s),
                (slide_only, 1.0, 0.0), (selections, 0.0, 1.0)))
        # the hierarchy plan with its contradiction weights zeroed, and with
        # its entailment weights zeroed; the positions stay as they are
        ent, con = shc.cones
        roots = (ama, replace(shc, cones=(ent, _zero_weights(con))),
                 replace(shc, cones=(_zero_weights(ent), con)))
        leaves = [t for _, t in params.trainable()]

        probe = rng.standard_normal((1, k))
        features = ad.Tensor(rng.standard_normal((4, k)), requires_grad=True)

        def f_agg():
            out = aggregate(features, params.agg_region)
            return (out * ad.Tensor(probe)).sum()

        def f_model():
            emb = embed_slide(bag, params, geom)
            return (
                cls_loss(emb, label, loss_cfg, geom),
                *(_loss(emb, p, loss_cfg, geom, cls=False) for p in roots),
                total_loss(emb, plan, loss_cfg, geom),
            )

        errors = (
            ad.finite_difference_check(
                f_agg, [features, params.agg_region.w1, params.agg_region.w2], h=h
            ),
            *ad.finite_difference_check(f_model, leaves, h=h),
        )
        for name, err in zip(names, errors):
            if err > worst[name]:
                worst[name] = err
    return worst
