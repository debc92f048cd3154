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

The alignment and hierarchy terms of one slide are one fused node
(`_cone_losses`), whose four parents are the spaces of the slide, the
regions, the patches and the class text, and which takes lambda_a and
lambda_s as weights: `total_loss` builds it once per step with both,
`ama_total` is the same node with weights (1, 0) and `shc_total` with
(0, 1). Its forward and backward run in numpy. `_Stacked` stacks the four
batches into one space array, the class text in `HierarchyLevel` order as
`model.embed_text` lays it out (row level.value * C + c is class c at that
level), and keeps the selected image rows with their levels. Every angle
the terms read is an exterior angle theta(u, v), and all of them come from
one masked exterior-angle matrix (`geometry.masked_exterior_angle_core`),
whose rows are the apex rows (the slide, the regions, the text and, with
the alignment term on, the selected image rows) and whose columns are all
stacked rows; an angle distance reads theta(u, v) and theta(v, u). One
`_ent` call covers every entailment pair and one `_con` call every
contradiction pair, and the two `_ama` calls cover every selected image
row, so each concept keeps one code path. Per-term means become one
weighted sum with weight 1 / (pairs in the term) on each pair (1 / K_level
on each image row, 1 / (K_level (C-1)) on each contradiction entry), which
equals the sum of the per-term means up to rounding; `tests/test_losses.py`
keeps looped references composed of the public primitives and scalar
cores as the oracle for values and gradients.

Guards: the origin guard covers the apex rows, and the coincidence guard
(GeometryError for coincident points) exactly the pairs some term reads.
Pairs that no term reads, such as a region against a patch of another
region, or a text row against an image row of another level, are not
checked: their entries of the matrix hold a placeholder angle that nothing
reads. The NaN guard runs once, on the node's value.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .errors import ConfigError, ShapeError, check_field_types
from .model import HierarchyLevel, text_level

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
#
# Each core has a numpy half, `_ama`, `_ent` or `_con`, returning the value
# and a backward that maps the output gradient to the gradients of its
# inputs; the public function wraps it in one fused node, and the per-slide
# assemblies call it inside theirs.


def _ama(pos_col, neg_rows, tau, weights=None):
    logits = np.concatenate([pos_col, np.abs(neg_rows)], axis=1) * (1.0 / tau)
    value, grad = _nll(logits, 0, weights)

    def backward(g):
        g_logits = grad(g) * (1.0 / tau)
        return g_logits[:, :1], g_logits[:, 1:] * np.sign(neg_rows)

    return value, backward


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
    value, core_backward = _ama(pos_col, neg_rows, tau, weights)

    def backward(g):
        g_pos, g_negs = core_backward(g)
        return g_pos.reshape(pos.shape), g_negs.reshape(negs.shape)

    return ad.fused("ama_nll", value, (pos, negs), backward)


def _ent(th, ap, beta):
    ratio = th / ap
    z = ratio - 1.0
    scale = np.exp(np.minimum(z, _EXP_CLIP))
    hinge = th - ap * beta
    out = scale * np.maximum(hinge, 0.0)

    def backward(g):
        g_z, g_hinge = _penalty_grads(g, z, scale, out, hinge)
        return g_z / ap + g_hinge, -g_z * ratio / ap - g_hinge * beta

    return out, backward


def ent_penalty(theta, aperture, beta):
    """exp(theta/aperture - 1) * max(theta - beta * aperture, 0), elementwise.

    One fused node; `aperture` may be a column broadcast along the rows of
    `theta`.
    """
    theta = _t(theta)
    aperture = _t(aperture)
    out, backward = _ent(theta.data, aperture.data, beta)
    return ad.fused("ent_penalty", out, (theta, aperture), backward)


def _con(raw, ap, beta, epsilon):
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

    return out, backward


def con_penalty(theta, aperture, beta, epsilon=1e-8):
    """exp(aperture/theta - 1) * max(aperture - beta * theta, 0), elementwise.

    theta is clamped to >= epsilon (zero gradient through the clamp) so a
    coincident-direction pair produces a large finite penalty. One fused
    node, broadcasting `aperture` as `ent_penalty` does.
    """
    theta = _t(theta)
    aperture = _t(aperture)
    out, backward = _con(theta.data, aperture.data, beta, epsilon)
    return ad.fused("con_penalty", out, (theta, aperture), backward)


def _penalty_grads(g, z, scale, out, hinge):
    # gradients on the exponent z (zero where it is clamped at _EXP_CLIP) and
    # on the hinge argument (the tie at 0 counts as active); masks, not
    # products, so a huge factor never meets a zero one
    g_z = np.where(z <= _EXP_CLIP, g * out, 0.0)
    g_hinge = np.where(hinge >= 0.0, g * scale, 0.0)
    return g_z, g_hinge


def cls_nll(distances, label):
    """-log softmax(-d)[label] over a vector (or one row) of distances."""
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

# the stacking order of the image rows of `_Stacked.space`
_LEVELS = (HierarchyLevel.SLIDE, HierarchyLevel.REGION, HierarchyLevel.PATCH)


class _Stacked:
    """One slide step's image and text rows, stacked once in numpy.

    `parents` are the four space tensors of the slide, the regions, the
    patches and the class text, and `space` stacks them in that order
    (`_LEVELS`, then the text). The text keeps the `HierarchyLevel` order of
    `model.embed_text`: row text0 + level.value * C + c of `space` is the
    text of class c at that level. `rows` picks the selected
    image rows of `space` (the slide, the selected regions, the selected
    patches), `levels` gives each one's `level.value`, so its own level's
    text block starts at row text0 + levels * C, and `weights` its
    1 / K_level, so a weighted sum over the rows is the sum over levels of
    the per-level means. A level without selections has no rows.
    """

    def __init__(self, embeddings, selections):
        points = (embeddings.slide, embeddings.regions, embeddings.patches,
                  embeddings.text)
        self.parents = tuple(p.space for p in points)
        widths = {t.data.shape[1] for t in self.parents}
        if len(widths) != 1:
            raise ShapeError(
                f"embeddings of one slide have different dimensions {sorted(widths)}"
            )
        self.space = np.concatenate([t.data for t in self.parents])
        self.stops = np.cumsum([p.count for p in points[:3]])
        self.n_regions = points[1].count
        self.text0 = self.stops[2]
        self.n_classes = points[3].count // len(HierarchyLevel)
        regions = np.asarray(selections[HierarchyLevel.REGION], dtype=int)
        patches = np.asarray(selections[HierarchyLevel.PATCH], dtype=int)
        self.rows = np.concatenate([[0], 1 + regions, 1 + self.n_regions + patches])
        # the weights go by stacking position: the counts are in `_LEVELS`
        # order, not in `level.value` order
        counts = np.array([1, regions.size, patches.size])
        position = np.repeat(np.arange(len(_LEVELS)), counts)
        self.levels = np.array([level.value for level in _LEVELS])[position]
        self.weights = 1.0 / counts[position]

    def split(self, a):
        """Views of the slide, region, patch and text rows of a
        `space`-shaped array, in the order of `parents`."""
        return np.split(a, self.stops)


def _cone_losses(embeddings, label, selections, cfg, geom, lambda_a, lambda_s):
    """lambda_a * L_ama + lambda_s * L_shc of one slide, as one fused node
    over the slide, the regions, the patches and the class text.

    Every angle these terms read is an exterior angle theta(u, v) of one
    matrix (`geometry.masked_exterior_angle_core`) over the stacked rows
    (`_Stacked`). Its rows are the apex rows: the slide, the regions, the
    text and, when the alignment term is on, the selected image rows; its
    columns are all stacked rows. A mask keeps the pairs some term reads:

    * entailment (lambda_s): the slide over its regions, each region over
      its own patches, each class's text over its text one level down, and
      the label text of each selected image row's level over that row;
    * contradiction (lambda_s): the wrong-class text of that level against
      the row;
    * alignment (lambda_a): both directions of each (selected image row,
      text of its level) pair and of each (label text, wrong-class text)
      pair of that level, so that phi(u, v) = theta(u, v) + theta(v, u) - pi.

    One `_ent` call covers every entailment pair and one `_con` call every
    contradiction pair. Each pair is weighted by lambda_s / (pairs in its
    term), except that the pairs of image row i weigh lambda_s / K_level(i)
    (lambda_s / (K_level(i) (C-1)) for the contradiction entries), and the
    two `_ama` calls weight image row i by lambda_a / K_level(i); so the
    value is the weighted sum of the per-term means up to rounding. The backward
    scatters into one dense gradient of the angle matrix. The coincidence
    guard covers exactly the masked pairs; pairs no term reads, such as a
    region against a patch of another region, are not checked.
    """
    st = _Stacked(embeddings, selections)
    n_rows, n_classes, n_regions = st.space.shape[0], st.n_classes, st.n_regions
    others = np.array([c for c in range(n_classes) if c != label], dtype=int)
    ama = lambda_a != 0.0 and others.size > 0
    shc = lambda_s != 0.0
    if not (ama or shc):
        return ad.Tensor(0.0)
    # each selected image row, as a column, and the rows of its level's label
    # text and wrong-class text
    image = st.rows[:, None]
    block = st.text0 + st.levels[:, None] * n_classes
    pos = block + label
    neg = block + others

    # the apex rows, in stacking order: the slide, the regions, the selected
    # patches when the alignment term is on, and the text
    is_apex = np.zeros(n_rows, dtype=bool)
    is_apex[:1 + n_regions] = True
    is_apex[st.text0:] = True
    if ama:
        is_apex[st.rows] = True
    apex = np.flatnonzero(is_apex)
    at = np.cumsum(is_apex) - 1

    def pairs(u, v):
        # flat positions of theta(u, v) in the [apex x rows] matrix
        return at[u] * n_rows + v

    # (flat positions, apex positions, weights, penalty core) of the
    # entailment pairs and of the contradiction pairs
    cones = []
    if shc:
        # the slide over its regions, each region over its own patches, and
        # each class's text over its text one level down; one weight per pair
        # gives each term's mean
        spans = embeddings.region_slices
        sizes = [stop - start for start, stop in spans]
        chain = st.text0 + np.arange(n_classes)
        slide_text, region_text, patch_text = (
            chain + level.value * n_classes
            for level in (HierarchyLevel.SLIDE, HierarchyLevel.REGION,
                          HierarchyLevel.PATCH))
        u = np.concatenate([np.zeros(n_regions, dtype=int),
                            1 + np.repeat(np.arange(len(spans)), sizes),
                            slide_text, region_text, pos[:, 0]])
        v = np.concatenate([1 + np.arange(n_regions),
                            1 + n_regions + np.concatenate(
                                [np.arange(start, stop) for start, stop in spans]),
                            region_text, patch_text, st.rows])
        counts = np.array([n_regions, sum(sizes), n_classes, n_classes])
        w = np.concatenate([np.repeat(lambda_s / counts, counts),
                            lambda_s * st.weights])
        cones.append((pairs(u, v), at[u], w,
                      lambda th, ap: _ent(th, ap, cfg.beta_ent)))
        if others.size:
            cones.append((pairs(neg, image).ravel(), at[neg].ravel(),
                          np.repeat(lambda_s / others.size * st.weights, others.size),
                          lambda th, ap: _con(th, ap, cfg.beta_con, geom.epsilon)))
    # phi(u, v) reads theta(u, v) and theta(v, u): each image row against its
    # level's label text and wrong-class text, and that label text against
    # that wrong-class text
    phi_pairs = [(pairs(a, b), pairs(b, a))
                 for a, b in ((image, pos), (image, neg), (pos, neg))] if ama else []

    flats = [flat for flat, *_ in cones] + [f.ravel() for uv in phi_pairs for f in uv]
    mask = np.zeros(apex.size * n_rows, dtype=bool)
    mask[np.concatenate(flats)] = True
    theta, aperture, geo_backward = geo.masked_exterior_angle_core(
        st.space, apex, mask.reshape(apex.size, n_rows), geom, cfg.alpha)
    theta = theta.ravel()
    aperture = aperture[:, 0]

    value = 0.0
    backwards = []
    if ama:
        phi_pos, phi_neg, refs = [theta[uv] + theta[vu] - np.pi for uv, vu in phi_pairs]
        weights = lambda_a * st.weights
        image_term, image_backward = _ama(
            refs.mean(axis=1, keepdims=True) - phi_pos, refs - phi_neg, cfg.tau,
            weights)
        text_term, text_backward = _ama(
            phi_neg.mean(axis=1, keepdims=True) - phi_pos, phi_neg - refs, cfg.tau,
            weights)
        value = image_term + text_term
    for flat, apex_at, w, core in cones:
        out, core_backward = core(theta[flat], aperture[apex_at])
        value = value + (out * w).sum()
        backwards.append(core_backward)

    def backward(g):
        g_flat = []
        g_aperture = np.zeros(apex.size)
        for (_, apex_at, w, _), core_backward in zip(cones, backwards):
            g_theta, g_ap = core_backward(g * w)
            g_flat.append(g_theta)
            g_aperture += np.bincount(apex_at, g_ap, minlength=apex.size)
        if ama:
            g_img_pos, g_img_neg = image_backward(g)
            g_txt_pos, g_txt_neg = text_backward(g)
            g_phi = (-(g_img_pos + g_txt_pos),
                     g_txt_pos / others.size + g_txt_neg - g_img_neg,
                     g_img_pos / others.size + g_img_neg - g_txt_neg)
            # each phi gradient goes to both of its angles
            g_flat += [g_p.ravel() for g_p in g_phi for _ in range(2)]
        g_theta = np.bincount(np.concatenate(flats), np.concatenate(g_flat),
                              minlength=theta.size).reshape(apex.size, n_rows)
        return st.split(geo_backward(g_theta, g_aperture[:, None]))

    return ad.fused("cone_losses", value, st.parents, backward)


def ama_total(embeddings, label, selections, cfg, geom):
    """Bidirectional alignment loss summed over the three levels.

    At each level the image side is the top-K selected embeddings of the
    slide's class (the slide embedding itself at slide level). Image-query
    terms use the label-class text as positive and the other classes' text
    as negatives; text-query terms use each selected image embedding as
    positive. Terms at a level average over the selected embeddings.

    This is the node of `total_loss` with weights (1, 0) (see
    `_cone_losses`): all levels come from one masked exterior-angle matrix,
    and each image row reads its own level's text, weighted by
    1 / K_level. Angle distances between a text row and an image row, or
    between label and wrong-class text, of different levels are not read,
    so they are not guarded either.
    """
    return _cone_losses(embeddings, label, selections, cfg, geom, 1.0, 0.0)


def shc_total(embeddings, label, selections, cfg, geom):
    """Hierarchy consistency: entailment plus contradiction penalties.

    Entailment terms: the slide embedding entails its regions, each region
    its own patches; per class, slide-level text entails region-level text
    and region-level text entails patch-level text; the label-class text
    entails the selected image embeddings at every level. Contradiction
    terms: wrong-class text contradicts the same image embeddings. Each
    term is the mean over its pair set, terms are summed.

    This is the node of `total_loss` with weights (0, 1) (see
    `_cone_losses`): one masked exterior-angle matrix holds every pair of
    every term, and the text-to-image terms of all levels weight each
    image row by 1 / K_level (1 / (K_level (C-1)) per contradiction entry),
    which is the sum over levels of the per-level means. Pairs no term
    reads, such as a region against a patch of another region, are not
    checked for coincidence.
    """
    return _cone_losses(embeddings, label, selections, cfg, geom, 0.0, 1.0)


def cls_loss(embeddings, label, cfg, geom):
    """Cross-entropy over softmax of negative slide-to-text geodesics."""
    distances = geo.geodesic(
        embeddings.slide, text_level(embeddings.text, HierarchyLevel.SLIDE), geom
    )
    return cls_nll(distances, label)


def total_loss(embeddings, label, selections, cfg, geom):
    """L_cls + lambda_a * L_ama + lambda_s * L_shc for one slide.

    The alignment and hierarchy terms are one fused node, with both weights
    folded in (`_cone_losses`); with both weights zero the patch and region
    levels are never read, so they are never mapped.
    """
    total = cls_loss(embeddings, label, cfg, geom)
    if cfg.lambda_a == 0.0 and cfg.lambda_s == 0.0:
        return total
    return total + _cone_losses(embeddings, label, selections, cfg, geom,
                                cfg.lambda_a, cfg.lambda_s)
