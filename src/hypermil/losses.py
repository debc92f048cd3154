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

The public scalar cores (ama_nll, ent_penalty, con_penalty, cls_nll) take
already-computed similarities, angles or distances, so they can be checked
against closed-form values. Each is one fused autodiff node
(`autodiff.fused`) with a hand-derived backward, checked against central
differences by `test_scalar_cores_finite_difference`; the per-slide loss
node runs their numpy halves. Exponential arguments inside the cone
penalties are clamped at 700 so a badly violated pair yields a huge finite
penalty instead of overflowing to infinity.

All three terms of one slide are one fused "loss" node (`_loss`), whose
one parent is the space of the slide's rows (`model.EmbeddingSet.space`:
the slide, the regions, the patches and the class text, stacked in that
order and mapped in one call by `model.embed_slide`), and which takes
lambda_a and lambda_s as weights. The node computes the time parts and
squared norms of those rows once (`geometry.rows`), and both the
classification term and the cone terms read them. The classification
term reads row 0 and the slide-level text rows through
`geometry.geodesic_core` and `_nll`, the cores of `cls_loss`. Which angles
the alignment and hierarchy terms read depends only on the bag's region
sizes, its top-K selections, its label, the number of classes and the two
weights, so it is built apart, as a frozen `ConePlan` of index arrays
(`cone_plan`, the one place they are built, for every slide of one
layout in one call), and the numpy body of those terms (`_cone_losses`)
runs over a plan: `training.train` builds the plans of all its training
slides before its epoch loop, one `cone_plan` call per layout, and
`total_loss` takes each slide's own, while `ama_total` (weights (1, 0))
and `shc_total` ((0, 1)) build theirs on the spot, as a batch of one,
and leave the classification term out, as do the roots of
`training.gradient_check_suite`, over the alignment plan of the slide
row alone and over the hierarchy plan with one family's weights zeroed.
The body reads the space whole, the class text in `HierarchyLevel` order
as `model.embed_text` lays it out (row level.value * C + c is class c at
that level). Every angle the terms read is an exterior angle theta(u, v),
and all of them come from one call of `geometry.exterior_angle_core` on
the plan's flat pair positions (its `flats`), the core behind
`geometry.exterior_angle` and `geometry.angle_distance` too, whose rows
are the apex rows (the slide, the regions, the text and, with the
alignment term on, the selected image rows) and whose columns are all
stacked rows; an angle distance reads theta(u, v) and theta(v, u). The
half-apertures come from the norms that call returns, through
`geometry.half_aperture_core`, as in `geometry.half_aperture`. One
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
from .model import HierarchyLevel, segment_plan, text_rows

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
# loss node calls it inside its own.


def _ama(pos_col, neg_rows, tau, weights=None):
    logits = np.concatenate([pos_col, np.abs(neg_rows)], axis=1) * (1.0 / tau)
    value, grad = _nll(logits, 0, weights)

    def backward(g):
        g_logits = grad(g) * (1.0 / tau)
        return g_logits[:, :1], g_logits[:, 1:] * np.sign(neg_rows)

    return value, backward


def ama_nll(pos_similarity, negative_similarities, tau):
    """-log softmax: pos/tau against |neg_j|/tau.

    Both arguments may be batched: a column of positive similarities and a
    matrix with one row of negative similarities per positive. Returns the
    mean over rows.
    """
    pos = ad.as_tensor(pos_similarity)
    negs = ad.as_tensor(negative_similarities)
    pos_col = pos.data.reshape(-1, 1)
    neg_rows = negs.data.reshape(1, -1) if negs.ndim == 1 else negs.data
    if neg_rows.shape[0] != pos_col.shape[0]:
        raise ShapeError(
            f"ama_nll: {pos_col.shape[0]} positives but {neg_rows.shape[0]} "
            "negative rows"
        )
    value, core_backward = _ama(pos_col, neg_rows, tau)

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
    theta = ad.as_tensor(theta)
    aperture = ad.as_tensor(aperture)
    out, backward = _ent(theta.data, aperture.data, beta)
    return ad.fused("ent_penalty", out, (theta, aperture), backward)


def _con(raw, ap, beta):
    th = np.maximum(raw, geo.EPSILON)
    ratio = ap / th
    z = ratio - 1.0
    scale = np.exp(np.minimum(z, _EXP_CLIP))
    hinge = ap - th * beta
    out = scale * np.maximum(hinge, 0.0)

    def backward(g):
        g_z, g_hinge = _penalty_grads(g, z, scale, out, hinge)
        g_theta = np.where(raw >= geo.EPSILON, -g_z * ratio / th - g_hinge * beta, 0.0)
        return g_theta, g_z / th + g_hinge

    return out, backward


def con_penalty(theta, aperture, beta):
    """exp(aperture/theta - 1) * max(aperture - beta * theta, 0), elementwise.

    theta is clamped to >= `geometry.EPSILON` (zero gradient through the
    clamp) so a coincident-direction pair produces a large finite penalty.
    One fused node, broadcasting `aperture` as `ent_penalty` does.
    """
    theta = ad.as_tensor(theta)
    aperture = ad.as_tensor(aperture)
    out, backward = _con(theta.data, aperture.data, beta)
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
    d = ad.as_tensor(distances)
    row = d.data.reshape(1, -1)
    if not 0 <= label < row.shape[1]:
        raise ShapeError(f"label {label} out of range for {row.shape[1]} classes")
    value, grad = _nll(-row, label)
    return ad.fused("cls_nll", value,
                    (d,), lambda g: ((-grad(g)).reshape(d.shape),))


# -- per-slide assemblies -----------------------------------------------------

# the stacking order of the image rows: the slide, the regions, the patches
_LEVELS = (HierarchyLevel.SLIDE, HierarchyLevel.REGION, HierarchyLevel.PATCH)


@dataclass(frozen=True)
class ConePlan:
    """Which angles the alignment and hierarchy terms of one slide read, as
    index arrays into its stacked rows, built whole by `cone_plan` (with the
    plans of the other slides of its layout, when a caller has them).

    The stacked rows are the slide, the regions, the patches and the class
    text, in that order, and `stops` are the rows where each of the four
    ends, the last being the row count. `apex` holds the apex rows of the
    [apex x rows] angle matrix, and every position below is a flat position
    into it. `cones` holds (flat positions, apex positions, weights) of the
    entailment pairs and then, with more than one class, of the
    contradiction pairs; `phi` holds the (theta(u, v), theta(v, u)) flat
    positions of each alignment pair set, and `ama_weights` the alignment
    weight of each selected image row. `flats` holds every flat position
    some term reads, in the order the backward scatters into them: the
    cones' flat positions, then each phi set's theta(u, v) and theta(v, u).
    A plan with neither term on is `empty`: it holds the label and the
    stops only.
    """

    label: int
    stops: tuple
    apex: np.ndarray = None
    cones: tuple = ()
    phi: tuple = ()
    ama_weights: np.ndarray = None
    flats: np.ndarray = None

    @property
    def empty(self):
        return self.apex is None


def cone_plan(sizes, n_classes, labels, selections, lambda_a, lambda_s):
    """The `ConePlan` of each of B slides whose regions all hold `sizes`
    patches, for `n_classes` classes, their `labels` (a length-B sequence)
    and their top-K `selections` ({level: [B x K_level] row indices}, as
    `training.select_top_k` returns them), with the weights lambda_a on the
    alignment and lambda_s on the hierarchy term. Returns a list of B plans,
    in the order of `labels`.

    A plan depends on nothing else, so a caller stepping through a slide
    several times builds it once, and a caller holding many slides of one
    layout builds theirs in one call: the index arrays every slide of the
    layout shares (the stops, the slide-over-region, region-over-patch and
    text-chain pairs, the weights) are built once, and the rest, `flats`
    among them, along a leading slide axis, each plan holding row views of
    them. The pairs each plan keeps:

    * entailment (lambda_s): the slide over its regions, each region over
      its own patches, each class's text over its text one level down, and
      the label text of each selected image row's level over that row. The
      slide over the region of a one-region slide, and a one-patch region
      over its patch, are left out: pooling one row gives that row bit for
      bit, so the pair coincides by the layout, and a point lies in its own
      cone (penalty 0). Pairs that coincide by the data stay, and the
      coincidence guard refuses them;
    * contradiction (lambda_s): the wrong-class text of that level against
      the row;
    * alignment (lambda_a): both directions of each (selected image row,
      text of its level) pair and of each (label text, wrong-class text)
      pair of that level, so that phi(u, v) = theta(u, v) + theta(v, u) - pi.

    Each pair is weighted by lambda_s / (pairs in its term, the left-out
    pairs counted), except that
    the pairs of image row i weigh lambda_s / K_level(i) (lambda_s /
    (K_level(i) (C-1)) per contradiction entry), and its alignment terms
    lambda_a / K_level(i); so the weighted sum is the weighted sum of the
    per-term means up to rounding. A level without selections has no rows.
    The apex rows are the slide, the regions, the text and, with the
    alignment term on, the selected image rows. A label outside
    [0, n_classes), a region or patch selection outside [0, count) and
    selections that are not one row per label are each a ShapeError. The
    region of each patch row is read from the layout's `model.segment_plan`.
    """
    n_regions, n_patches = len(sizes), int(np.sum(sizes))
    text0 = 1 + n_regions + n_patches
    n_rows = text0 + len(HierarchyLevel) * n_classes
    stops = (1, 1 + n_regions, text0, n_rows)
    labels = np.asarray(labels, dtype=int)
    n_slides = labels.size
    if n_slides and not 0 <= labels.min() <= labels.max() < n_classes:
        label = next(c for c in labels.tolist() if not 0 <= c < n_classes)
        raise ShapeError(f"label {label} is outside the {n_classes} classes")
    regions = np.asarray(selections[HierarchyLevel.REGION], dtype=int)
    patches = np.asarray(selections[HierarchyLevel.PATCH], dtype=int)
    for name, picked, count in (("region", regions, n_regions),
                                ("patch", patches, n_patches)):
        if picked.ndim != 2 or picked.shape[0] != n_slides:
            raise ShapeError(f"{name} selections of shape {picked.shape} are not "
                             f"one row for each of {n_slides} labels")
        if picked.size and not 0 <= picked.min() <= picked.max() < count:
            row = picked[((picked < 0) | (picked >= count)).any(axis=1).argmax()]
            raise ShapeError(f"{name} selection {row.tolist()} is outside "
                             f"the slide's {count} {name}s")
    ama = lambda_a != 0.0 and n_classes > 1
    shc = lambda_s != 0.0
    if not (ama or shc):
        return [ConePlan(label, stops) for label in labels.tolist()]
    # the selected image rows of each slide (the slide, the selected regions,
    # the selected patches), each one's `level.value` and its weight
    # 1 / K_level, so a weighted sum over the rows is the sum over levels of
    # the per-level means; the weights go by stacking position, the counts
    # being in `_LEVELS` order, not in `level.value` order
    rows = np.concatenate([np.zeros((n_slides, 1), dtype=int), 1 + regions,
                           1 + n_regions + patches], axis=1)
    counts = np.array([1, regions.shape[1], patches.shape[1]])
    levels = np.repeat([level.value for level in _LEVELS], counts)
    weights = 1.0 / np.repeat(counts, counts)
    # each selected image row, as a column, and the rows of its level's label
    # text and wrong-class text (row text0 + level.value * C + c is the text
    # of class c at that level, the layout of `model.embed_text`), each with
    # the slide axis first; the wrong classes of each slide are the classes
    # left unmarked once its label is marked
    image = rows[:, :, None]
    block = text0 + levels[:, None] * n_classes
    pos = block + labels[:, None, None]
    wrong = np.ones((n_slides, n_classes), dtype=bool)
    wrong[np.arange(n_slides), labels] = False
    neg = block + np.nonzero(wrong)[1].reshape(n_slides, 1, n_classes - 1)

    # the apex rows of each slide in row order: the slide, the regions, the
    # selected patch rows once each with the alignment term on, and the
    # text; `at` holds each apex row's position among its slide's apex rows
    is_apex = np.zeros((n_slides, n_rows), dtype=bool)
    is_apex[:, :1 + n_regions] = True
    is_apex[:, text0:] = True
    if ama:
        is_apex[np.arange(n_slides)[:, None], 1 + n_regions + patches] = True
    slide_of, apex_rows = np.nonzero(is_apex)
    n_apex = np.bincount(slide_of, minlength=n_slides)
    starts = np.cumsum(n_apex) - n_apex
    apex = np.split(apex_rows, starts[1:])
    at = np.empty((n_slides, n_rows), dtype=np.intp)
    at[slide_of, apex_rows] = np.arange(apex_rows.size) - starts[slide_of]

    def positions(u):
        # each of the [B x ...] rows u's position among its slide's apex rows
        return at[np.arange(n_slides).reshape((-1,) + (1,) * (u.ndim - 1)), u]

    def pairs(u, v):
        # flat positions of theta(u, v) in each slide's [apex x rows] matrix
        return positions(u) * n_rows + v

    cones = []
    if shc:
        # the slide over its regions, each region over its own patches, and
        # each class's text over its text one level down, the same for every
        # slide; one weight per pair gives each term's mean
        chain = text0 + np.arange(n_classes)
        slide_text, region_text, patch_text = (
            chain + level.value * n_classes for level in _LEVELS)

        def per_slide(shared, own):
            return np.concatenate([np.broadcast_to(shared, (n_slides, shared.size)),
                                   own], axis=1)

        # a one-region slide is its region, and a one-patch region its
        # patch, bit for bit (attention gives one row the weight 1): those
        # pairs coincide by the layout, and as a point lies in its own cone
        # their penalty is 0, so they are left out and the others keep their
        # weights
        seg = segment_plan(sizes, n_patches).seg
        kept = np.concatenate([np.full(n_regions, n_regions > 1),
                               np.asarray(sizes)[seg] > 1,
                               np.ones(2 * n_classes, dtype=bool)])
        u = per_slide(np.concatenate([np.zeros(n_regions, dtype=int), 1 + seg,
                                      slide_text, region_text])[kept], pos[:, :, 0])
        v = per_slide(np.concatenate([1 + np.arange(n_regions),
                                      1 + n_regions + np.arange(n_patches),
                                      region_text, patch_text])[kept], rows)
        terms = np.array([n_regions, n_patches, n_classes, n_classes])
        u_at = positions(u)
        cones.append((u_at * n_rows + v, u_at,
                      np.concatenate([np.repeat(lambda_s / terms, terms)[kept],
                                      lambda_s * weights])))
        if n_classes > 1:
            cones.append((pairs(neg, image).reshape(n_slides, -1),
                           positions(neg).reshape(n_slides, -1),
                           np.repeat(lambda_s / (n_classes - 1) * weights,
                                     n_classes - 1)))
    # phi(u, v) reads theta(u, v) and theta(v, u): each image row against its
    # level's label text and wrong-class text, and that label text against
    # that wrong-class text
    phi = [(pairs(a, b), pairs(b, a))
           for a, b in ((image, pos), (image, neg), (pos, neg))] if ama else []
    ama_weights = lambda_a * weights
    # every flat position of each slide, in the order the backward of
    # `_cone_losses` scatters into them
    flats = np.concatenate([flat for flat, _, _ in cones] + [
        f.reshape(n_slides, -1) for uv in phi for f in uv], axis=1)
    return [ConePlan(label, stops, apex[s],
                     tuple((flat[s], flat_at[s], w) for flat, flat_at, w in cones),
                     tuple((uv[s], vu[s]) for uv, vu in phi), ama_weights, flats[s])
            for s, label in enumerate(labels.tolist())]


def _cone_losses(rows, n_image, n_regions, plan, cfg, geom):
    """lambda_a * L_ama + lambda_s * L_shc of one slide, in numpy: the
    value and backward(g) giving the gradient on the space array of
    `rows`, the `geometry.Rows` of the slide, its `n_regions` regions and
    their patches (`n_image` rows in all) and the class text, stacked in
    that order, reading the pairs of the slide's non-empty `ConePlan` with
    the plan's weights.

    A ShapeError is raised when the rows do not end where the plan's do.
    Every angle the terms read is an exterior angle theta(u, v) of one
    `geometry.exterior_angle_core` call over the plan's apex rows and all
    rows, on the plan's `flats`, and the half-apertures come from the norms
    it returns. One `_ent` call covers every entailment pair, one `_con`
    call every contradiction pair and the two `_ama` calls every selected
    image row. The backward scatters into one dense gradient of the angle
    matrix with one `bincount` over `flats`. The coincidence guard covers
    exactly the pairs at `flats`; pairs no term reads, such as a region
    against a patch of another region, are not checked.
    """
    stops = (1, 1 + n_regions, n_image, rows.space.shape[0])
    if stops != plan.stops:
        raise ShapeError(f"embeddings with rows ending at {stops} "
                         f"do not fit a cone plan of rows ending at {plan.stops}")
    theta, norms, geo_backward = geo.exterior_angle_core(rows.take(plan.apex), rows,
                                                         geom, plan.flats)
    aperture, aperture_backward = geo.half_aperture_core(norms, geom, cfg.alpha)
    theta = theta.ravel()

    value = 0.0
    if plan.phi:
        phi_pos, phi_neg, refs = [theta[uv] + theta[vu] - np.pi for uv, vu in plan.phi]
        image_term, image_backward = _ama(
            refs.mean(axis=1, keepdims=True) - phi_pos, refs - phi_neg, cfg.tau,
            plan.ama_weights)
        text_term, text_backward = _ama(
            phi_neg.mean(axis=1, keepdims=True) - phi_pos, phi_neg - refs, cfg.tau,
            plan.ama_weights)
        value = image_term + text_term
    # the entailment core, then the contradiction core when the plan has
    # contradiction pairs (the cones come in that order)
    cores = (lambda th, ap: _ent(th, ap, cfg.beta_ent),
             lambda th, ap: _con(th, ap, cfg.beta_con))
    backwards = []
    for (flat, apex_at, w), core in zip(plan.cones, cores):
        out, core_backward = core(theta[flat], aperture[apex_at, 0])
        value = value + (out * w).sum()
        backwards.append(core_backward)

    def backward(g):
        g_flat = []
        g_aperture = np.zeros(plan.apex.size)
        for (_, apex_at, w), core_backward in zip(plan.cones, backwards):
            g_theta, g_ap = core_backward(g * w)
            g_flat.append(g_theta)
            g_aperture += np.bincount(apex_at, g_ap, minlength=plan.apex.size)
        if plan.phi:
            n_others = phi_neg.shape[1]  # C - 1
            g_img_pos, g_img_neg = image_backward(g)
            g_txt_pos, g_txt_neg = text_backward(g)
            g_phi = (-(g_img_pos + g_txt_pos),
                     g_txt_pos / n_others + g_txt_neg - g_img_neg,
                     g_img_pos / n_others + g_img_neg - g_txt_neg)
            # each phi gradient goes to both of its angles
            g_flat += [g_p.ravel() for g_p in g_phi for _ in range(2)]
        g_theta = np.bincount(plan.flats, np.concatenate(g_flat),
                              minlength=theta.size).reshape(plan.apex.size, -1)
        g_apex, g_space = geo_backward(g_theta, aperture_backward(g_aperture[:, None]))
        g_space[plan.apex] += g_apex
        return g_space

    return value, backward


def _cls(rows, n_image, label, geom):
    """L_cls of one slide, in numpy: -log softmax(-d)[label] over the
    geodesics d from the slide, row 0 of `rows` (the `geometry.Rows` of
    `n_image` image rows and the class text, as `_cone_losses` reads them),
    to the slide-level text rows, through the cores of `geometry.geodesic`
    and `cls_nll`.

    Returns the value and backward(g, g_space), which adds the gradient
    into the given array.
    """
    text = text_rows(rows.space.shape[0] - n_image, HierarchyLevel.SLIDE)
    n_classes = text.stop - text.start
    if not 0 <= label < n_classes:
        raise ShapeError(f"label {label} out of range for {n_classes} classes")
    anchors = slice(n_image + text.start, n_image + text.stop)
    distances, geodesic_backward = geo.geodesic_core(rows.take(slice(0, 1)),
                                                     rows.take(anchors), geom)
    value, grad = _nll(-distances, label)

    def backward(g, g_space):
        g_slide, g_anchors = geodesic_backward(-grad(g))
        g_space[:1] += g_slide
        g_space[anchors] += g_anchors

    return value, backward


def _loss(embeddings, plan, cfg, geom, cls=True):
    """The loss node of one slide: L_cls (when `cls`) plus the alignment and
    hierarchy terms of its `ConePlan`, with the plan's weights folded in, as
    one fused "loss" node whose one parent is the space array of the
    slide's image rows and class text (`EmbeddingSet.space`, the one array
    a set holds). The label is the plan's. The time parts and squared norms
    of the rows are computed once (`geometry.rows`) and read by both terms.

    An empty plan gives L_cls alone, or 0 without reading any level when
    `cls` is off.
    """
    if plan.empty and not cls:
        return ad.Tensor(0.0)
    space, n_image = embeddings.space.space, embeddings.n_image
    rows = geo.rows(space.data, geom)
    cls_value, cls_backward = (_cls(rows, n_image, plan.label, geom)
                               if cls else (0.0, None))
    cone_value, cone_backward = (0.0, None) if plan.empty else _cone_losses(
        rows, n_image, len(embeddings.sizes), plan, cfg, geom)

    def backward(g):
        g_space = (np.zeros(space.data.shape) if cone_backward is None
                   else cone_backward(g))
        if cls_backward is not None:
            cls_backward(g, g_space)
        return (g_space,)

    return ad.fused("loss", cls_value + cone_value, (space,), backward)


def _one_plan(embeddings, label, selections, lambda_a, lambda_s):
    """The cone plan of one slide's `embeddings`, its `label` and its
    selections ({level: row indices}): `cone_plan` of one slide."""
    (plan,) = cone_plan(embeddings.sizes, embeddings.text.count // len(HierarchyLevel),
                        [label], {level: np.asarray(picked)[None]
                                  for level, picked in selections.items()},
                        lambda_a, lambda_s)
    return plan


def ama_total(embeddings, label, selections, cfg, geom):
    """Bidirectional alignment loss summed over the three levels.

    At each level the image side is the top-K selected embeddings of the
    slide's class (the slide embedding itself at slide level). Image-query
    terms use the label-class text as positive and the other classes' text
    as negatives; text-query terms use each selected image embedding as
    positive. Terms at a level average over the selected embeddings.

    This is the loss node without L_cls and with weights (1, 0), its plan
    built here (see `cone_plan`): all levels come from one exterior-angle
    matrix, read at the plan's pairs, and each image row reads its own
    level's text, weighted by 1 / K_level. Angle distances between a text
    row and an image row, or between label and wrong-class text, of
    different levels are not read, so they are not guarded either.
    """
    return _loss(embeddings, _one_plan(embeddings, label, selections, 1.0, 0.0),
                 cfg, geom, cls=False)


def shc_total(embeddings, label, selections, cfg, geom):
    """Hierarchy consistency: entailment plus contradiction penalties.

    Entailment terms: the slide embedding entails its regions, each region
    its own patches; per class, slide-level text entails region-level text
    and region-level text entails patch-level text; the label-class text
    entails the selected image embeddings at every level. Contradiction
    terms: wrong-class text contradicts the same image embeddings. Each
    term is the mean over its pair set, terms are summed. The slide of a
    one-region slide is its region, and a one-patch region its patch, so
    that pair's penalty is 0 (a point lies in its own cone); it counts in
    its term's mean but is not read, so it is not refused as coincident.

    This is the loss node without L_cls and with weights (0, 1), its plan
    built here (see `cone_plan`): one exterior-angle matrix, read at the
    plan's pairs, holds every pair of every term, and the text-to-image
    terms of all levels weight each image row by 1 / K_level (1 / (K_level
    (C-1)) per contradiction entry), which is the sum over levels of the
    per-level means. Pairs no term reads, such as a region against a patch
    of another region, are not checked for coincidence.
    """
    return _loss(embeddings, _one_plan(embeddings, label, selections, 0.0, 1.0),
                 cfg, geom, cls=False)


def cls_loss(embeddings, label, cfg, geom):
    """Cross-entropy over softmax of negative slide-to-text geodesics: the
    loss node over an empty plan."""
    return _loss(embeddings, ConePlan(label, ()), cfg, geom)


def total_loss(embeddings, plan, cfg, geom):
    """L_cls + lambda_a * L_ama + lambda_s * L_shc for one slide.

    `plan` is the slide's `cone_plan`, built with the weights of `cfg`; the
    label is the plan's. All three terms are one fused node over the one
    space of the image rows and the class text (`_loss`); with both weights
    zero the plan is empty and the node holds L_cls alone.
    """
    return _loss(embeddings, plan, cfg, geom)
