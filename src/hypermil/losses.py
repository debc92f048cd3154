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

The per-slide assemblies `ama_total` and `shc_total` are one fused node
each, whose four parents are the spaces of the slide, the regions, the
patches and the class text. Their forward and backward run in numpy and
compose the numpy cores of the geometry primitives (`geometry.*_core`) and
of the scalar cores above (`_ama`, `_ent`, `_con`), so each concept keeps
one code path. All three levels are handled in one pass: `_Stacked` stacks
the selected image rows in the order slide, regions, patches, with the
level of each row kept alongside, and takes the 3 C class-text rows as
`model.embed_text` lays them out, in `HierarchyLevel` order, so row
level.value * C + c is class c at that level. `total_loss` builds it once
per step and hands it to both assemblies. `ama_total` computes one angle
matrix between them and `shc_total` one exterior-angle matrix; each image
row gathers the entries of its own level. Per-level means become one
weighted sum with weight 1 / K_level on each row (1 / (K_level (C-1)) for
the contradiction entries), which equals the sum over levels of the
per-level means up to rounding. Each forward sums in the order a graph of
the public primitives and scalar cores would, so its value equals that
composition bit for bit (`tests/test_losses.py` keeps such looped
references). Because the stacked matrices also hold cross-level pairs, the
coincidence guard of `geometry.angle_distance` and `geometry.exterior_angle`
(GeometryError for coincident points) sees (text, image) and (label text,
other text) pairs of different levels too. The NaN guard runs once, on each
assembly's value.
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
    patches and the class text. `space` stacks the first three, in that
    order (`_LEVELS`); `text` is the text's array itself, in
    `HierarchyLevel` order: row level.value * C + c is class c at that
    level (see `model.embed_text`). `rows` picks the selected image rows of
    `space` (the slide, the selected regions, the selected patches),
    `levels` gives each one's `level.value`, so its own level's text block
    starts at row levels * C, and `weights` its 1 / K_level, so a weighted
    sum over the rows is the sum over levels of the per-level means. A
    level without selections has no rows.
    """

    def __init__(self, embeddings, selections):
        image = (embeddings.slide, embeddings.regions, embeddings.patches)
        self.parents = tuple(p.space for p in image + (embeddings.text,))
        widths = {t.data.shape[1] for t in self.parents}
        if len(widths) != 1:
            raise ShapeError(
                f"embeddings of one slide have different dimensions {sorted(widths)}"
            )
        self.space = np.concatenate([t.data for t in self.parents[:3]])
        self.text = self.parents[3].data
        self.n_regions = image[1].count
        self.n_classes = embeddings.text.count // len(HierarchyLevel)
        regions = np.asarray(selections[HierarchyLevel.REGION], dtype=int)
        patches = np.asarray(selections[HierarchyLevel.PATCH], dtype=int)
        self.rows = np.concatenate([[0], 1 + regions, 1 + self.n_regions + patches])
        # the weights go by stacking position: the counts are in `_LEVELS`
        # order, not in `level.value` order
        counts = np.array([1, regions.size, patches.size])
        position = np.repeat(np.arange(len(_LEVELS)), counts)
        self.levels = np.array([level.value for level in _LEVELS])[position]
        self.weights = 1.0 / counts[position]

    def image_levels(self, a):
        """Views of the slide, region and patch rows of a `space`-shaped array."""
        stop = 1 + self.n_regions
        return [a[:1], a[1:stop], a[stop:]]

    def text_levels(self, a):
        """Views of each level's rows of a `text`-shaped array, indexed by
        `level.value`."""
        n = self.n_classes
        return [a[i * n:(i + 1) * n] for i in range(len(HierarchyLevel))]


def ama_total(embeddings, label, selections, cfg, geom, *, stacked=None):
    """Bidirectional alignment loss summed over the three levels.

    At each level the image side is the top-K selected embeddings of the
    slide's class (the slide embedding itself at slide level). Image-query
    terms use the label-class text as positive and the other classes' text
    as negatives; text-query terms use each selected image embedding as
    positive. Terms at a level average over the selected embeddings.

    All levels are computed at once, in one fused node over the slide, the
    regions, the patches and the class text: the selected image rows of
    every level (see `_Stacked`; `stacked` passes the rows `total_loss`
    built for the step) against the 3 C text rows give one [K x 3C] angle
    matrix, and the label text against the other classes' text one
    [3 x 3(C-1)] matrix.
    Each row gathers its own level's columns, and one `ama_nll` core per
    query direction weights row i by 1 / K_level(i), which is the sum over
    levels of the per-level means. Both angle matrices also hold
    cross-level pairs, so their coincidence guard (`geometry.angle_distance`)
    sees those pairs too.
    """
    st = stacked or _Stacked(embeddings, selections)
    others = np.array([c for c in range(st.n_classes) if c != label], dtype=int)
    if not others.size:
        return ad.Tensor(0.0)
    n_others = others.size
    rows = np.arange(st.rows.size)[:, None]
    level = st.levels[:, None]
    pos_cols = level * st.n_classes + label
    neg_cols = level * st.n_classes + others
    ref_cols = level * n_others + np.arange(n_others)
    # each level's label text row, and the other classes' rows of its block
    label_rows = np.arange(label, st.text.shape[0], st.n_classes)
    other_rows = (label_rows[:, None] + (others - label)).ravel()

    # each image row's label column and wrong-class columns at its own level
    phi, phi_backward = geo.angle_distance_core(st.space[st.rows], st.text, geom)
    phi_pos = phi[rows, pos_cols]
    phi_neg = phi[rows, neg_cols]
    # label text against the other classes' text; each image row takes the
    # [1 x C-1] block of its own level
    refs_all, refs_backward = geo.angle_distance_core(
        st.text[label_rows], st.text[other_rows], geom)
    refs = refs_all[level, ref_cols]

    image_term, image_backward = _ama(
        refs.mean(axis=1, keepdims=True) - phi_pos, refs - phi_neg, cfg.tau,
        st.weights)
    text_term, text_backward = _ama(
        phi_neg.mean(axis=1, keepdims=True) - phi_pos, phi_neg - refs, cfg.tau,
        st.weights)

    def backward(g):
        g_img_pos, g_img_neg = image_backward(g)
        g_txt_pos, g_txt_neg = text_backward(g)
        g_phi = np.zeros_like(phi)
        g_phi[rows, pos_cols] = -(g_img_pos + g_txt_pos)
        g_phi[rows, neg_cols] = g_txt_pos / n_others + g_txt_neg - g_img_neg
        g_refs = np.zeros_like(refs_all)
        np.add.at(g_refs, (level, ref_cols),
                  g_img_pos / n_others + g_img_neg - g_txt_neg)
        g_image, g_text = phi_backward(g_phi)
        g_label, g_other = refs_backward(g_refs)
        g_text[label_rows] += g_label
        g_text[other_rows] += g_other
        g_space = np.zeros_like(st.space)
        np.add.at(g_space, st.rows, g_image)
        return st.image_levels(g_space) + [g_text]

    return ad.fused("ama_total", image_term + text_term, st.parents, backward)


def _entailment(su, sv, pairs, cfg, geom):
    """Mean entailment penalty of u_i over v_j across the (i, j) index
    arrays `pairs` of the [N_u x N_v] exterior-angle matrix, as (value,
    backward) with backward(g) giving the gradients on (su, sv)."""
    i, j = pairs
    theta, theta_backward = geo.exterior_angle_core(su, sv, geom)
    aperture, aperture_backward = geo.half_aperture_core(su, geom, cfg.alpha)
    pen, pen_backward = _ent(theta[i, j], aperture[i, 0], cfg.beta_ent)

    def backward(g):
        g_theta_ij, g_aperture = pen_backward(np.full(pen.shape, g / pen.size))
        g_theta = np.zeros_like(theta)
        g_theta[i, j] = g_theta_ij
        g_su, g_sv = theta_backward(g_theta)
        g_aperture = np.bincount(i, g_aperture, minlength=su.shape[0])[:, None]
        return g_su + aperture_backward(g_aperture), g_sv

    return pen.mean(), backward


def shc_total(embeddings, label, selections, cfg, geom, *, stacked=None):
    """Hierarchy consistency: entailment plus contradiction penalties.

    Entailment terms: the slide embedding entails its regions, each region
    its own patches; per class, slide-level text entails region-level text
    and region-level text entails patch-level text; the label-class text
    entails the selected image embeddings at every level. Contradiction
    terms: wrong-class text contradicts the same image embeddings. Each
    term is the mean over its pair set, terms are summed.

    All terms form one fused node over the slide, the regions, the patches
    and the class text. The
    region-to-patch term keeps the in-region entries of one [R x N_p]
    exterior-angle matrix, and each text-chain term the diagonal of one
    [C x C] matrix. The text-to-image terms of all levels come from one
    [3C x K] exterior-angle matrix between the stacked text and the stacked
    selected images (see `_Stacked` and `ama_total`) and one half-aperture
    column of the text. The entailment penalty runs on the (label text,
    image) entries of each image row's own level and the contradiction
    penalty on its (wrong-class text, image) entries; their sums weighted by
    1 / K_level and 1 / (K_level (C-1)) are the sums over levels of the
    per-level means. The coincidence guard of `geometry.exterior_angle`
    also sees the cross-level (text, image) pairs of that matrix.
    """
    st = stacked or _Stacked(embeddings, selections)
    slide, regions, patches = st.image_levels(st.space)
    text = st.text_levels(st.text)
    n_classes = st.n_classes
    spans = embeddings.region_slices
    in_region = (
        np.repeat(np.arange(len(spans)), [stop - start for start, stop in spans]),
        np.concatenate([np.arange(start, stop) for start, stop in spans]),
    )
    diag = (np.arange(n_classes), np.arange(n_classes))
    # ((value, backward), u, v) with u and v positions in the list of the
    # image levels followed by the text levels (3 + level.value): the slide
    # entails its regions, each region its own patches, and each class's
    # text its own text one level down
    entailments = [
        (_entailment(slide, regions, (np.zeros(st.n_regions, dtype=int),
                                      np.arange(st.n_regions)), cfg, geom), 0, 1),
        (_entailment(regions, patches, in_region, cfg, geom), 1, 2),
    ] + [
        (_entailment(text[upper.value], text[lower.value], diag, cfg, geom),
         3 + upper.value, 3 + lower.value)
        for upper, lower in ((HierarchyLevel.SLIDE, HierarchyLevel.REGION),
                             (HierarchyLevel.REGION, HierarchyLevel.PATCH))
    ]
    values = [value for (value, _), _, _ in entailments]

    # the label text of each image row's level entails that row, and the
    # wrong-class text of its level contradicts it
    theta, theta_backward = geo.exterior_angle_core(st.text, st.space[st.rows],
                                                    geom)
    aperture, aperture_backward = geo.half_aperture_core(st.text, geom, cfg.alpha)
    cols = np.arange(st.rows.size)
    pos = st.levels * n_classes + label
    ent, ent_backward = _ent(theta[pos, cols], aperture[pos, 0], cfg.beta_ent)
    values.append((ent * st.weights).sum())
    others = np.array([c for c in range(n_classes) if c != label], dtype=int)
    if others.size:
        neg = st.levels * n_classes + others[:, None]
        con_weights = st.weights / others.size
        con, con_backward = _con(theta[neg, cols], aperture[neg, 0],
                                 cfg.beta_con, geom.epsilon)
        values.append((con * con_weights).sum())

    total = 0.0
    for value in values:
        total = total + value

    def backward(g):
        g_space = np.zeros_like(st.space)
        g_text = np.zeros_like(st.text)
        # views into the two buffers
        grads = st.image_levels(g_space) + st.text_levels(g_text)
        for (_, term_backward), u, v in entailments:
            g_u, g_v = term_backward(g)
            grads[u] += g_u
            grads[v] += g_v

        g_theta = np.zeros_like(theta)
        g_pos_theta, g_pos = ent_backward(g * st.weights)
        g_theta[pos, cols] = g_pos_theta
        g_aperture = np.bincount(pos, g_pos, minlength=theta.shape[0])
        if others.size:
            g_neg_theta, g_neg = con_backward(
                np.broadcast_to(g * con_weights, con.shape))
            g_theta[neg, cols] = g_neg_theta
            g_aperture += np.bincount(neg.ravel(), g_neg.ravel(),
                                      minlength=theta.shape[0])
        g_text_rows, g_image = theta_backward(g_theta)
        g_text += g_text_rows + aperture_backward(g_aperture[:, None])
        np.add.at(g_space, st.rows, g_image)
        return st.image_levels(g_space) + [g_text]

    return ad.fused("shc_total", total, st.parents, backward)


def cls_loss(embeddings, label, cfg, geom):
    """Cross-entropy over softmax of negative slide-to-text geodesics."""
    distances = geo.geodesic(
        embeddings.slide, text_level(embeddings.text, HierarchyLevel.SLIDE), geom
    )
    return cls_nll(distances, label)


def total_loss(embeddings, label, selections, cfg, geom):
    """L_cls + lambda_a * L_ama + lambda_s * L_shc for one slide.

    The stacked image and text rows are built once and shared by both
    assemblies; with both weights zero the patch and region levels are
    never read, so they are never mapped.
    """
    total = cls_loss(embeddings, label, cfg, geom)
    if cfg.lambda_a == 0.0 and cfg.lambda_s == 0.0:
        return total
    stacked = _Stacked(embeddings, selections)
    if cfg.lambda_a != 0.0:
        total = total + ama_total(embeddings, label, selections, cfg, geom,
                                  stacked=stacked) * cfg.lambda_a
    if cfg.lambda_s != 0.0:
        total = total + shc_total(embeddings, label, selections, cfg, geom,
                                  stacked=stacked) * cfg.lambda_s
    return total
