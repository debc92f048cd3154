"""Loss functions: angular alignment, hierarchy consistency, classification.

Three families, combined as  L = L_cls + lambda_a * L_ama + lambda_s * L_shc:

* alignment (ama): an InfoNCE-style loss over angle-distance based
  similarities between image and class-text embeddings, applied in both
  query directions at every hierarchy level,
* hierarchy consistency (shc): entailment penalties that keep subordinate
  embeddings inside their parent's cone, plus contradiction penalties that
  keep wrong-class text cones away from image embeddings,
* classification (cls): cross-entropy over the softmax of negative geodesic
  distances between the slide embedding and the per-class slide-level text
  embeddings.

The scalar cores (ama_nll, ent_penalty, con_penalty, cls_nll) take the
already-computed angles/similarities so they can be checked against
closed-form values; the wrappers compute those quantities from manifold
points. Each scalar core is one fused autodiff node (`autodiff.fused`) with
a hand-derived backward, checked by `test_losses_finite_difference`.
Exponential arguments inside the cone penalties are clamped at 700 so a
badly violated pair yields a huge finite penalty instead of overflowing to
infinity.

The per-slide assemblies handle the three levels in one pass, not one per
level. The selected image embeddings are stacked in the order slide,
regions, patches, with the level of each row kept alongside, and the 3 C
class-text rows in the same level order. `ama_total` computes one angle
matrix between them and `shc_total` one exterior-angle matrix; each image
row gathers the entries of its own level. Per-level means become one
weighted sum with weight 1 / K_level on each row (1 / (K_level (C-1)) for
the contradiction entries), which equals the sum over levels of the
per-level means up to rounding. Because the stacked matrices also hold
cross-level pairs, the coincidence guard of `geometry.angle_distance` and
`geometry.exterior_angle` (GeometryError for coincident points) now sees
(text, image) and (label text, other text) pairs of different levels too.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .errors import ConfigError, ShapeError, check_field_types
from .model import HierarchyLevel

_EXP_CLIP = 700.0


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.05
    alpha: float = 0.1
    beta_ent: float = 0.8
    beta_con: float = 0.8
    lambda_a: float = 1.0
    lambda_s: float = 10.0
    top_k: int = 8

    def __post_init__(self):
        check_field_types(self)
        if not self.tau > 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        for name in ("beta_ent", "beta_con"):
            beta = getattr(self, name)
            if not 0 < beta <= 1:
                raise ConfigError(f"{name} must be in (0, 1], got {beta}")
        if self.lambda_a < 0 or self.lambda_s < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be at least 1, got {self.top_k}")


@dataclass
class AlignmentBatch:
    query: geo.Points
    positive: geo.Points
    negatives: geo.Points

    def __post_init__(self):
        if self.negatives.count < 1:
            raise ShapeError("alignment batch needs at least one negative")


def _t(x):
    return x if isinstance(x, ad.Tensor) else ad.Tensor(np.asarray(x, dtype=float))


def _nll(logits, target, weights=None):
    """-log softmax(logits)[:, target] per row, max-subtracted, reduced to
    the mean over rows or, given per-row `weights`, to their weighted sum.

    Returns the value and a function giving its gradient on the logits.
    """
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    total = e.sum(axis=1, keepdims=True)
    rows = (np.log(total) + m) - logits[:, target:target + 1]
    value = rows.mean() if weights is None else (rows[:, 0] * weights).sum()

    def grad(g):
        p = e / total
        p[:, target] -= 1.0
        if weights is None:
            return p * (g / logits.shape[0])
        return p * (g * weights[:, None])

    return value, grad


# -- scalar cores -------------------------------------------------------------


def ama_nll(pos_similarity, negative_similarities, tau, weights=None):
    """-log softmax: pos/tau against |neg_j|/tau.

    Both arguments may be batched: a column of positive similarities and a
    matrix with one row of negative similarities per positive. Returns the
    mean over rows, or with `weights` (one per row) the weighted sum.
    """
    pos = _t(pos_similarity)
    negs = _t(negative_similarities)
    pos_col = pos.data.reshape(-1, 1)
    neg_rows = negs.data.reshape(1, -1) if negs.ndim == 1 else negs.data
    if neg_rows.shape[0] != pos_col.shape[0]:
        raise ShapeError(
            f"ama_nll: {pos_col.shape[0]} positives but {neg_rows.shape[0]} "
            "negative rows"
        )
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if weights.shape[0] != pos_col.shape[0]:
            raise ShapeError(
                f"ama_nll: {pos_col.shape[0]} positives but "
                f"{weights.shape[0]} weights"
            )
    logits = np.concatenate([pos_col, np.abs(neg_rows)], axis=1) * (1.0 / tau)
    value, grad = _nll(logits, 0, weights)

    def backward(g):
        g_logits = grad(g) * (1.0 / tau)
        return (g_logits[:, :1].reshape(pos.shape),
                (g_logits[:, 1:] * np.sign(neg_rows)).reshape(negs.shape))

    return ad.fused("ama_nll", value, (pos, negs), backward)


def ent_penalty(theta, aperture, beta):
    """exp(theta/aperture - 1) * max(theta - beta * aperture, 0), elementwise.

    One fused node; `aperture` may be a column broadcast along the rows of
    `theta`.
    """
    theta = _t(theta)
    aperture = _t(aperture)
    th, ap = theta.data, aperture.data
    ratio = th / ap
    z = ratio - 1.0
    scale = np.exp(np.minimum(z, _EXP_CLIP))
    hinge = th - ap * beta
    out = scale * np.maximum(hinge, 0.0)

    def backward(g):
        g_z, g_hinge = _penalty_grads(g, z, scale, out, hinge)
        return g_z / ap + g_hinge, -g_z * ratio / ap - g_hinge * beta

    return ad.fused("ent_penalty", out, (theta, aperture), backward)


def con_penalty(theta, aperture, beta, epsilon=1e-8):
    """exp(aperture/theta - 1) * max(aperture - beta * theta, 0), elementwise.

    theta is clamped to >= epsilon (zero gradient through the clamp) so a
    coincident-direction pair produces a large finite penalty. One fused
    node, broadcasting `aperture` as `ent_penalty` does.
    """
    theta = _t(theta)
    aperture = _t(aperture)
    raw, ap = theta.data, aperture.data
    th = np.maximum(raw, epsilon)
    ratio = ap / th
    z = ratio - 1.0
    scale = np.exp(np.minimum(z, _EXP_CLIP))
    hinge = ap - th * beta
    out = scale * np.maximum(hinge, 0.0)

    def backward(g):
        g_z, g_hinge = _penalty_grads(g, z, scale, out, hinge)
        g_theta = np.where(raw >= epsilon, -g_z * ratio / th - g_hinge * beta, 0.0)
        return g_theta, g_z / th + g_hinge

    return ad.fused("con_penalty", out, (theta, aperture), backward)


def _penalty_grads(g, z, scale, out, hinge):
    # gradients on the exponent z (zero where it is clamped at _EXP_CLIP) and
    # on the hinge argument (the tie at 0 counts as active); masks, not
    # products, so a huge factor never meets a zero one
    g_z = np.where(z <= _EXP_CLIP, g * out, 0.0)
    g_hinge = np.where(hinge >= 0.0, g * scale, 0.0)
    return g_z, g_hinge


def cls_nll(distances, label):
    """-log softmax(-d)[label] over a vector of distances."""
    d = _t(distances)
    row = d.data.reshape(1, -1)
    if not 0 <= label < row.shape[1]:
        raise ShapeError(f"label {label} out of range for {row.shape[1]} classes")
    value, grad = _nll(-row, label)
    return ad.fused("cls_nll", value,
                    (d,), lambda g: ((-grad(g)).reshape(d.shape),))


# -- point-level wrappers -----------------------------------------------------


def ama_loss(batch, cfg, geom):
    """Alignment loss for one query against one positive and J negatives.

    The per-negative logit uses its own reference phi(positive, negative_j);
    the positive logit uses the mean reference over negatives, which
    collapses to the plain definition when J = 1.
    """
    refs = geo.angle_distance(batch.positive, batch.negatives, geom)
    phi_pos = geo.angle_distance(batch.query, batch.positive, geom)
    phi_negs = geo.angle_distance(batch.query, batch.negatives, geom)
    pos_sim = refs.mean() - phi_pos.reshape(())
    neg_sims = refs - phi_negs
    return ama_nll(pos_sim, neg_sims, cfg.tau)


def ent_loss(u, v, cfg, geom):
    """Mean entailment penalty over all (u_i, v_j) pairs."""
    return _ent_matrix(u, v, cfg, geom).mean()


def con_loss(u, v, cfg, geom):
    """Mean contradiction penalty over all (u_i, v_j) pairs."""
    return _con_matrix(u, v, cfg, geom).mean()


def _ent_matrix(u, v, cfg, geom):
    theta = geo.exterior_angle(u, v, geom)
    aperture = geo.half_aperture(u, geom, cfg.alpha)
    return ent_penalty(theta, aperture, cfg.beta_ent)


def _con_matrix(u, v, cfg, geom):
    theta = geo.exterior_angle(u, v, geom)
    aperture = geo.half_aperture(u, geom, cfg.alpha)
    return con_penalty(theta, aperture, cfg.beta_con, geom.epsilon)


# -- per-slide assemblies -----------------------------------------------------

_LEVELS = (HierarchyLevel.SLIDE, HierarchyLevel.REGION, HierarchyLevel.PATCH)


def _stacked_images(embeddings, selections):
    """The selected image embeddings of all levels as one batch.

    Rows come in `_LEVELS` order: the slide embedding, the selected regions,
    the selected patches. Returns the batch, the level position (0, 1, 2)
    of each row and each row's weight 1 / K_level, so a weighted sum over
    rows is the sum over levels of the per-level means. A level without
    selections has no rows.
    """
    regions = np.asarray(selections[HierarchyLevel.REGION], dtype=int)
    patches = np.asarray(selections[HierarchyLevel.PATCH], dtype=int)
    n_regions = embeddings.regions.count
    rows = np.concatenate([[0], 1 + regions, 1 + n_regions + patches])
    space = ad.concat([embeddings.slide.space, embeddings.regions.space,
                       embeddings.patches.space])[rows]
    counts = np.array([1, regions.size, patches.size])
    levels = np.repeat(np.arange(len(_LEVELS)), counts)
    return geo.Points(space, embeddings.slide.cfg), levels, 1.0 / counts[levels]


def _stacked_text(embeddings):
    """The class text of all levels as one batch of 3 C rows in `_LEVELS`
    order: row level * C + c is class c's text at that level."""
    text = [embeddings.text[level] for level in _LEVELS]
    return geo.Points(ad.concat([t.space for t in text]), text[0].cfg)


def ama_total(embeddings, label, selections, cfg, geom):
    """Bidirectional alignment loss summed over the three levels.

    At each level the image side is the top-K selected embeddings of the
    slide's class (the slide embedding itself at slide level). Image-query
    terms use the label-class text as positive and the other classes' text
    as negatives; text-query terms use each selected image embedding as
    positive. Terms at a level average over the selected embeddings.

    All levels are computed at once: the selected image rows of every level
    are stacked (`_stacked_images`) against the 3 C text rows of every
    level (`_stacked_text`), giving one [K x 3C] angle matrix and one
    [3 x 3(C-1)] matrix between each level's label text and the other
    classes' text. Each row gathers its own level's columns, and one
    `ama_nll` per query direction weights row i by 1 / K_level(i), which
    is the sum over levels of the per-level means. Both angle matrices also
    hold cross-level pairs, so their coincidence guard
    (`geometry.angle_distance`) sees those pairs too.
    """
    n_classes = embeddings.text[HierarchyLevel.SLIDE].count
    others = np.array([c for c in range(n_classes) if c != label], dtype=int)
    if not others.size:
        return ad.Tensor(0.0)
    image, levels, weights = _stacked_images(embeddings, selections)
    text = _stacked_text(embeddings)
    n_levels, n_others = len(_LEVELS), others.size
    rows = np.arange(image.count)[:, None]
    first = levels[:, None] * n_classes

    # each image row's label column and wrong-class columns at its own level
    phi_img = geo.angle_distance(image, text, geom)
    phi_img_pos = phi_img[rows, first + label]
    phi_img_neg = phi_img[rows, first + others]
    # label text against the other classes' text, [3 x 3(C-1)]; each image
    # row takes the [1 x C-1] block of its own level
    label_rows = np.arange(n_levels) * n_classes + label
    other_rows = (np.arange(n_levels)[:, None] * n_classes + others).ravel()
    refs_all = geo.angle_distance(geo.select(text, label_rows),
                                  geo.select(text, other_rows), geom)
    refs = refs_all[levels[:, None],
                    levels[:, None] * n_others + np.arange(n_others)]

    img_pos_sim = refs.mean(axis=1, keepdims=True) - phi_img_pos
    img_neg_sims = refs - phi_img_neg
    image_term = ama_nll(img_pos_sim, img_neg_sims, cfg.tau, weights)

    txt_pos_sim = phi_img_neg.mean(axis=1, keepdims=True) - phi_img_pos
    txt_neg_sims = phi_img_neg - refs
    text_term = ama_nll(txt_pos_sim, txt_neg_sims, cfg.tau, weights)
    return image_term + text_term


def shc_total(embeddings, label, selections, cfg, geom):
    """Hierarchy consistency: entailment plus contradiction penalties.

    Entailment terms: the slide embedding entails its regions, each region
    its own patches; per class, slide-level text entails region-level text
    and region-level text entails patch-level text; the label-class text
    entails the selected image embeddings at every level. Contradiction
    terms: wrong-class text contradicts the same image embeddings. Each
    term is the mean over its pair set, terms are summed.

    The text-to-image terms of all levels come from one [3C x K] exterior
    angle matrix between the stacked text and the stacked selected images
    (see `ama_total`) and one half-aperture column of the text. One
    `ent_penalty` runs on the (label text, image) entries of each image
    row's own level and one `con_penalty` on its (wrong-class text, image)
    entries; their sums weighted by 1 / K_level and 1 / (K_level (C-1))
    are the sums over levels of the per-level means.
    The coincidence guard of `geometry.exterior_angle` also sees the
    cross-level (text, image) pairs of that matrix.
    """
    parts = []

    regions = embeddings.regions
    parts.append(_ent_matrix(embeddings.slide, regions, cfg, geom).mean())

    # each region entails its own patches: one [R x N_p] matrix over every
    # (region, patch) pair, of which the in-region entries are kept
    spans = embeddings.region_slices
    region_ids = np.repeat(np.arange(len(spans)),
                           [stop - start for start, stop in spans])
    patch_ids = np.concatenate([np.arange(start, stop) for start, stop in spans])
    region_patch = _ent_matrix(regions, embeddings.patches, cfg, geom)
    parts.append(region_patch[region_ids, patch_ids].mean())

    n_classes = embeddings.text[HierarchyLevel.SLIDE].count
    diag = (np.arange(n_classes), np.arange(n_classes))
    for upper, lower in (
        (HierarchyLevel.SLIDE, HierarchyLevel.REGION),
        (HierarchyLevel.REGION, HierarchyLevel.PATCH),
    ):
        chain = _ent_matrix(
            embeddings.text[upper], embeddings.text[lower], cfg, geom
        )
        parts.append(chain[diag].mean())

    image, levels, weights = _stacked_images(embeddings, selections)
    text = _stacked_text(embeddings)
    theta = geo.exterior_angle(text, image, geom)
    aperture = geo.half_aperture(text, geom, cfg.alpha)
    cols = np.arange(image.count)
    # the label text of each image row's level against that row
    pos = levels * n_classes + label
    ent = ent_penalty(theta[pos, cols], aperture[pos, 0], cfg.beta_ent)
    parts.append((ent * weights).sum())
    others = np.array([c for c in range(n_classes) if c != label], dtype=int)
    if others.size:
        # the wrong-class text of each image row's level, [C-1 x K]
        neg = levels * n_classes + others[:, None]
        con = con_penalty(theta[neg, cols], aperture[neg, 0], cfg.beta_con,
                          geom.epsilon)
        parts.append((con * (weights / others.size)).sum())

    total = ad.Tensor(0.0)
    for part in parts:
        total = total + part
    return total


def cls_loss(embeddings, label, cfg, geom):
    """Cross-entropy over softmax of negative slide-to-text geodesics."""
    distances = geo.geodesic(
        embeddings.slide, embeddings.text[HierarchyLevel.SLIDE], geom
    )
    return cls_nll(distances.reshape(-1), label)


def total_loss(embeddings, label, selections, cfg, geom):
    """L_cls + lambda_a * L_ama + lambda_s * L_shc for one slide."""
    total = cls_loss(embeddings, label, cfg, geom)
    if cfg.lambda_a != 0.0:
        total = total + ama_total(embeddings, label, selections, cfg, geom) * cfg.lambda_a
    if cfg.lambda_s != 0.0:
        total = total + shc_total(embeddings, label, selections, cfg, geom) * cfg.lambda_s
    return total
