"""Trainable components and the per-slide embedding pipeline.

A slide arrives as a `FeatureBag`: raw patch features grouped into
regions, held as one contiguous block with the regions' sizes.
`slide_tangents` takes B bags of one layout, runs only the constant-cost
checks a bag leaves to its reader (`FeatureBag.check`, then the layout,
`same_layout`; rank and equal widths were checked when the bag was made),
stacks their blocks into one [B x N x d_in] float64 array by one call (one
bag's block stays [N x d_in]) and passes the shared sizes to `aggregate`
as its segments. The image adaptor (a two-layer MLP) maps every patch into
the tangent space at the origin; gated-attention aggregators then pool
patches into region features and regions into a slide feature, still in
the tangent space, and `embed_slide` (the pass of one bag) pushes each
level onto the manifold with the exponential map. Class text features are
a frozen base vector per class plus a learnable offset per (class, level),
passed through their own adaptor and mapped the same way.

The adaptor and `aggregate` take rows with any leading axes, the bag axis
of a stacked pass among them; a pass of one bag has none, so the one-bag
callers (a training step, `predict`) pay for no reshape of an axis they do
not have. numpy runs a product over stacked operands as one BLAS call per
block, the call that block gets alone, so every bag of a pass gets bit for
bit the tangents of a pass of its own: the two adaptor products, the
attention's tanh-layer product and one-row score, and the pooling product
of its layout. No forward product takes the rows of several bags at once,
which BLAS could round differently. In the backward the weight gradients
are sums over the blocks: the adaptor's are each one product over the
stacked rows, `aggregate`'s the sum of each block's own products; for one
bag either is that bag's own product.

Aggregation happens on tangent features because a weighted sum of manifold
points does not stay on the manifold; only the per-level outputs are mapped.
Both levels pool through one function, `aggregate`, over consecutive row
segments: all regions of a slide are pooled at once by a segment softmax
and one matmul (each region's weights by its own patches when the regions
are of one size, else the block-diagonal region-by-patch weights by all
patches), and the slide is the single segment of its regions. A layout's
segments, over a stack of blocks laid end to end (each row's segment, each
segment's first row, each row's place in the block weights, whether the
segments are of one size and how many one block holds), are a
`segment_plan`, checked and worked out once per distinct layout and block
count and cached, not stored on the bag; so the segment softmax of a
stack runs over one vector of all its rows. The adaptor and the attention
run their elementwise steps in place in their own buffers, in the order of
the expressions they stand for, so the bits are those of the expressions.

Both learned stages are fused autodiff nodes (`autodiff.fused`) computed in
numpy with a hand-derived backward: the adaptor MLP is one "adaptor" node
per call and each `aggregate` call one "aggregate" node, so each runs the
NaN guard once on its output. The class-text features of all levels are
one "text_features" node as well. `embed_slide` stacks the slide, region,
patch and class-text tangents in that order (the row order of
`losses.cone_plan`) by one "stack" node and maps them by one
`exp_map_origin` call. The map works row by row, so each row is what a
map of its own level would give. Its `EmbeddingSet` is plain data: that
one space, the region sizes, and basic-slice views of the space. So a
training step maps once, and its loss node reads that space whole.
Scoring reads no image level: it takes the unmapped slide tangents of
each layout's bags from one stacked `slide_tangents` pass, embeds the class
text once (`embed_text`) and maps the slide tangents of all its bags in one
call.

The class text of all levels is stacked in `HierarchyLevel` order (row
level.value * N_C + c is class c at that level), after the image rows in
the space of `embed_slide` and alone in `embed_text`. This module owns that
layout: a caller that needs one level reads it through `text_level`, or
its rows through `text_rows`.

Every parameter array of a `ModelParams` is a view into one float64
buffer, trainable arrays first, and every trainable's gradient a view into
one vector laid out like that head, so the optimizer updates them in one
vectorized step and a copy is one array copy. That layout (`_layout`) is
the one list of parameter names: `ModelParams.named` and `trainable` follow
it. It lives in memory only: checkpoints are a little-endian binary table
of named float64 arrays (magic "HPCK1"), one record per parameter name,
one per model dimension (meta.d_in, meta.k, meta.n_classes) and one per
scalar the caller adds (meta.*), written atomically and read back
bit-exactly, whatever the buffer order.
"""

import functools
import itertools
import math
import numbers
import operator
import struct
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .errors import (
    BadMagicError,
    ConfigError,
    EmptyBagError,
    FormatError,
    ShapeError,
    TruncatedPayloadError,
    VersionError,
    check_field_types,
    check_integer,
)
from .fileio import atomic_write_bytes

_CHECKPOINT_MAGIC = b"HPCK1"
_CHECKPOINT_VERSION = 1


class HierarchyLevel(Enum):
    PATCH = 0
    REGION = 1
    SLIDE = 2


@dataclass(frozen=True)
class ModelDims:
    """The three sizes a model is built from: the width d_in of the input
    features, which is also the width of each adaptor's tanh layer, the
    embedding dimension k and the number of classes. A value that is not an
    integer, or below 1 (k below 2), is a ConfigError."""

    d_in: int
    k: int = 16
    n_classes: int = 2

    def __post_init__(self):
        check_field_types(self)
        if self.d_in < 1 or self.k < 2 or self.n_classes < 1:
            raise ConfigError(f"invalid model dimensions: {self}")

    @property
    def attention(self):
        """Rows of an aggregator's w1: the width of its tanh layer."""
        return max(1, self.k // 4)

    def param_shapes(self):
        """{parameter name: shape} of every array `ModelParams.named` holds."""
        mlp = {"w1": (self.d_in, self.d_in), "b1": (1, self.d_in),
               "w2": (self.k, self.d_in), "b2": (1, self.k)}
        agg = {"w1": (self.attention, self.k), "w2": (self.attention, 1)}
        owners = (("adaptor_i", mlp), ("adaptor_t", mlp), ("agg_region", agg),
                  ("agg_slide", agg))
        shapes = {f"{owner}.{name}": shape
                  for owner, table in owners for name, shape in table.items()}
        shapes["semantics.base"] = (self.n_classes, self.d_in)
        shapes["semantics.offsets"] = (self.n_classes, 3, self.d_in)
        return shapes


class Mlp:
    """Two-layer tanh MLP applied to rows."""

    def __init__(self, w1, b1, w2, b2):
        self.w1 = w1
        self.b1 = b1
        self.w2 = w2
        self.b2 = b2

    def __call__(self, x):
        """tanh(x w1' + b1) w2' + b2 as one fused node over (x, w1, b1, w2, b2).

        `x` holds rows, [N x d_in], or a stack of row blocks with leading
        axes, [... x N x d_in]: numpy runs each product of a stack as one
        product per block, the BLAS call one block alone gets, so each
        block's rows are bit for bit what it gives alone. The forward runs
        in two buffers, the tanh layer's and the output's: each bias is
        added and the tanh taken in place, the same operations in the same
        order as the expression, so the bits are the same. The backward goes
        through the tanh layer by hand: g_pre = (g w2) * (1 - hidden^2), then
        the two affine maps, whose weight and bias gradients are sums over
        the rows of every block, each one product or sum over the stacked
        rows (for one block, that block's own); the input gets no gradient
        when it needs none, such as the constant patch block.
        """
        w1, b1, w2, b2 = self.w1.data, self.b1.data, self.w2.data, self.b2.data
        xd = x.data
        if xd.ndim < 2 or xd.shape[-1] != w1.shape[1]:
            raise ShapeError(
                f"adaptor: input has shape {xd.shape}, expected rows of "
                f"{w1.shape[1]} features"
            )
        hidden = xd @ w1.T
        hidden += b1
        np.tanh(hidden, out=hidden)
        out = hidden @ w2.T
        out += b2

        def backward(g):
            g_pre = (g @ w2) * (1.0 - hidden * hidden)
            rows_pre, rows_g = _rows(g_pre), _rows(g)
            return (g_pre @ w1 if x.requires_grad else None,
                    (_rows(xd).T @ rows_pre).T, rows_pre.sum(axis=0, keepdims=True),
                    (_rows(hidden).T @ rows_g).T, rows_g.sum(axis=0, keepdims=True))

        return ad.fused("adaptor", out, (x, self.w1, self.b1, self.w2, self.b2),
                        backward)


class AttentionAggregator:
    """Gated-attention weights over subordinate rows: softmax(w2' tanh(w1 f'))."""

    def __init__(self, w1, w2):
        self.w1 = w1
        self.w2 = w2


class ClassSemanticsTable:
    """Frozen per-class base vectors plus learnable per-(class, level) offsets."""

    def __init__(self, base, offsets):
        self.base = base        # [C x D_in], never receives gradient
        self.offsets = offsets  # [C x 3 x D_in]

    def features(self):
        """base + offsets[:, level] for every level in `HierarchyLevel` order,
        stacked level by level into one [3C x D_in] fused node over the
        offsets (the base is a constant)."""
        base, offsets = self.base.data, self.offsets.data
        feats = (base + offsets.transpose(1, 0, 2)).reshape(-1, base.shape[1])

        def backward(g):
            return (g.reshape(offsets.shape[1], *base.shape).transpose(1, 0, 2),)

        return ad.fused("text_features", feats, (self.offsets,), backward)


@dataclass
class ModelParams:
    """The model's parameter tensors, each a view into one float64 vector.

    `buffer` holds every array of `named()`: the trainable ones first, in
    `trainable()` order, then the frozen base vectors (`_layout`). Adam
    updates the trainable head `flat` in one vectorized step, and `copy`
    copies the buffer once. `grad` is laid out like `flat`, and each
    trainable's `grad` is a view of its span, so a backward pass adds into
    it and Adam reads it whole. A trainable without a gradient this step
    has zeros there; there is no mask, because every training step reaches
    every trainable, and an entry whose gradient and moments are zero does
    not move. Nothing may rebind a parameter's `data` or `grad`; in-place
    updates of them are updates of the two vectors.
    """

    adaptor_i: Mlp
    adaptor_t: Mlp
    agg_region: AttentionAggregator  # patches -> region
    agg_slide: AttentionAggregator   # regions -> slide
    semantics: ClassSemanticsTable
    dims: ModelDims
    buffer: np.ndarray
    grad: np.ndarray

    def named(self):
        """(name, tensor) of every parameter array, including the frozen base
        vectors, in the buffer order of `_layout`."""
        names, tensors = _accessors(self.dims)
        return list(zip(names, tensors(self)))

    def trainable(self):
        return [(n, t) for n, t in self.named() if t.requires_grad]

    @property
    def flat(self):
        """Every trainable array, in `trainable()` order, as one vector view."""
        return self.buffer[:self.grad.size]

    def zero_grads(self):
        self.grad.fill(0.0)

    def copy(self):
        return _from_buffer(self.buffer.copy(), self.dims)


@functools.lru_cache(maxsize=16)
def _layout(dims):
    """(name, shape, start, stop) of every parameter array in the buffer:
    the trainable arrays in `param_shapes` order, then the frozen base. The
    one list of parameter names: `ModelParams.named` follows it."""
    shapes = dims.param_shapes()
    names = [n for n in shapes if n != "semantics.base"] + ["semantics.base"]
    out = []
    start = 0
    for name in names:
        stop = start + math.prod(shapes[name])
        out.append((name, shapes[name], start, stop))
        start = stop
    return tuple(out)


@functools.lru_cache(maxsize=16)
def _accessors(dims):
    """The names of `_layout(dims)` and one getter of their tensors from a
    ModelParams: the name "adaptor_i.w1" reads `params.adaptor_i.w1`."""
    names = tuple(name for name, *_ in _layout(dims))
    return names, operator.attrgetter(*names)


def _xavier(rng, fan_out, fan_in):
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_out, fan_in))


# scale of the adaptor output layer at init: embeddings start close to the
# origin, inside the maximal-aperture region, so the exponential cone
# penalties begin moderate instead of astronomically steep
_INIT_RADIUS = 0.1


def _init_mlp(rng, owner, d_in, k):
    w1 = _xavier(rng, d_in, d_in)
    w2 = _INIT_RADIUS * _xavier(rng, k, d_in)
    # a constant bias in one output coordinate keeps the initial embeddings
    # strictly off the origin, where the exterior angle is undefined
    b2 = np.zeros((1, k))
    b2[0, 0] = _INIT_RADIUS
    return {f"{owner}.w1": w1, f"{owner}.b1": np.zeros((1, d_in)),
            f"{owner}.w2": w2, f"{owner}.b2": b2}


def _init_aggregator(rng, owner, dims):
    d4 = dims.attention
    return {f"{owner}.w1": _xavier(rng, d4, dims.k),
            f"{owner}.w2": _xavier(rng, d4, 1)}


def init_params(dims, seed, base_vectors=None):
    """Fresh parameters, deterministic in (dims, seed, base_vectors).

    One generator of `seed` draws, in this order, the image and text
    adaptors, the region and slide aggregators, the base vectors unless
    they are given, and the offsets. A seed that is not a nonnegative
    integer is a ConfigError, and so are dimensions whose parameters cannot
    be allocated, naming them. Given base vectors are checked, as the
    parameter semantics.base, by `params_from_arrays`."""
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    try:
        arrays = {
            **_init_mlp(rng, "adaptor_i", dims.d_in, dims.k),
            **_init_mlp(rng, "adaptor_t", dims.d_in, dims.k),
            **_init_aggregator(rng, "agg_region", dims),
            **_init_aggregator(rng, "agg_slide", dims),
        }
        if base_vectors is None:
            base_vectors = rng.standard_normal((dims.n_classes, dims.d_in))
            base_vectors /= np.linalg.norm(base_vectors, axis=1, keepdims=True)
        arrays["semantics.base"] = base_vectors
        arrays["semantics.offsets"] = 0.1 * rng.standard_normal(
            (dims.n_classes, 3, dims.d_in))
        return params_from_arrays(arrays, dims)
    except (MemoryError, ValueError):  # ValueError: beyond numpy's size limit
        raise ConfigError(
            f"the parameters of a model with d_in={dims.d_in}, k={dims.k} "
            f"and n_classes={dims.n_classes} "
            "do not fit in memory") from None


def params_from_arrays(arrays, dims):
    """ModelParams holding copies of `arrays` ({name: array} for every name
    of `dims.param_shapes()`; other names are not read) in one flat buffer.

    The one check of a parameter array: each is converted to float64 and
    checked, in buffer order, before the buffer is allocated by the one
    concatenation of them all. An array that is not numbers, or whose shape
    is not the one `dims` needs, is a ShapeError naming the parameter, so
    dimensions that no array matches never reach an allocation."""
    flat = []
    for name, shape, _, _ in _layout(dims):
        try:
            arr = np.asarray(arrays[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:  # not numbers, or ragged
            raise ShapeError(f"parameter {name} is not an array of numbers: "
                             f"{exc}") from None
        if arr.shape != shape:
            raise ShapeError(f"parameter {name} has shape {arr.shape}, "
                             f"the model dimensions need {shape}")
        flat.append(arr.reshape(-1))
    return _from_buffer(np.concatenate(flat), dims)


def _from_buffer(buffer, dims):
    """ModelParams whose tensors are views into `buffer`, laid out by
    `_layout`, and whose trainables' gradients are views into one zeroed
    vector laid out like `flat`."""
    layout = _layout(dims)
    grad = np.zeros(layout[-1][2])  # the frozen base, laid out last, has none
    views = {name: buffer[start:stop].reshape(shape)
             for name, shape, start, stop in layout}
    grads = {name: grad[start:stop].reshape(shape)
             for name, shape, start, stop in layout[:-1]}

    def p(name):
        t = ad.Tensor(views[name], requires_grad=True)
        t.grad = grads[name]
        return t

    adaptor_i = Mlp(p("adaptor_i.w1"), p("adaptor_i.b1"),
                    p("adaptor_i.w2"), p("adaptor_i.b2"))
    adaptor_t = Mlp(p("adaptor_t.w1"), p("adaptor_t.b1"),
                    p("adaptor_t.w2"), p("adaptor_t.b2"))
    agg_region = AttentionAggregator(p("agg_region.w1"), p("agg_region.w2"))
    agg_slide = AttentionAggregator(p("agg_slide.w1"), p("agg_slide.w2"))
    semantics = ClassSemanticsTable(
        ad.Tensor(views["semantics.base"]), p("semantics.offsets")
    )
    return ModelParams(adaptor_i, adaptor_t, agg_region, agg_slide, semantics,
                       dims, buffer, grad)


# -- forward pipeline ---------------------------------------------------------


class SegmentPlan(NamedTuple):
    """The layout of consecutive row segments, as `aggregate` pools them,
    over a stack of blocks of that layout laid end to end (one block, or
    several: each block of N rows holds the same R segments)."""

    seg: np.ndarray      # [B*N] each row's segment id in the stack
    starts: np.ndarray   # [B*R] each segment's first row in the stack
    scatter: np.ndarray  # [B*N] each row's flat position in B [R x N] matrices
    even: bool           # whether every segment has the same number of rows
    n_seg: int           # R, the segments of one block


def segment_plan(counts, n_rows, blocks=1):
    """The `SegmentPlan` of segments of `counts` rows each (one segment of
    all `n_rows` rows when `counts` is None) in each of `blocks` blocks of
    `n_rows` rows, its arrays read-only, worked out once per distinct
    layout and block count and then read from a cache.

    No segments or a segment without rows raises EmptyBagError, and counts
    that do not sum to `n_rows` ShapeError, on every call: an error is
    never cached.
    """
    counts = np.asarray([n_rows] if counts is None else counts, dtype=np.intp)
    return _segment_plan(counts.tobytes(), n_rows, blocks)


@functools.lru_cache(maxsize=16)
def _segment_plan(layout, n_rows, blocks):
    counts = np.frombuffer(layout, dtype=np.intp)
    if counts.size == 0 or (counts <= 0).any():
        raise EmptyBagError("cannot aggregate an empty set of features")
    if counts.sum() != n_rows:
        raise ShapeError(
            f"segment sizes sum to {counts.sum()}, features have {n_rows} rows"
        )
    stacked = np.tile(counts, blocks)
    seg = np.repeat(np.arange(stacked.size), stacked)
    plan = SegmentPlan(seg, np.cumsum(stacked) - stacked,
                       seg * n_rows + np.arange(seg.size) % n_rows,
                       bool((counts == counts[0]).all()), counts.size)
    for arr in plan[:3]:
        arr.setflags(write=False)
    return plan


def _rows(a):
    """The rows of `a`, its leading axes flattened: [... x M] as [rows x M];
    a matrix is its own rows, taken with no reshape call."""
    return a if a.ndim == 2 else a.reshape(-1, a.shape[-1])


def _block_sum(a):
    """The sum of the [M x K] blocks of a stack [... x M x K]: each block's
    own product, added over the blocks."""
    return a.reshape((-1,) + a.shape[-2:]).sum(axis=0)


def _attention(features, agg, counts):
    """Numpy core of gated attention over row segments.

    `features` holds [N x k] rows or a stack of such blocks with leading
    axes, each block split into the same segments. Returns (hidden, plan,
    p): the tanh layer tanh(w1 f') [... x A x N], the `SegmentPlan` of the
    blocks laid end to end and each row's weight p, the softmax of its
    score w2' hidden within its segment, as one vector over the stacked
    rows. The products are one per block, the score a one-row product, so
    each block's weights are what it gives alone; the segment maximum and
    sum read each segment's rows in order, as for one block. The tanh, the
    shift by the segment maximum, the exp and the divide run in place, in
    the order of the expressions they stand for.
    """
    f = features.data
    if f.ndim < 2 or f.shape[-1] != agg.w1.data.shape[1]:
        raise ShapeError(
            f"aggregate: features have shape {f.shape}, expected rows of "
            f"{agg.w1.data.shape[1]} features"
        )
    plan = segment_plan(counts, f.shape[-2], math.prod(f.shape[:-2]))
    seg, starts = plan.seg, plan.starts
    hidden = agg.w1.data @ f.mT
    np.tanh(hidden, out=hidden)
    s = (agg.w2.data.T @ hidden).reshape(-1)
    s -= np.maximum.reduceat(s, starts)[seg]
    np.exp(s, out=s)
    s /= np.add.reduceat(s, starts)[seg]
    return hidden, plan, s


def _pool(p, f, plan):
    """[... x R x D]: each segment's rows of f [... x N x D] summed with
    their weights p (one vector over the stacked rows), block by block,
    each block by its own products.

    One segment is the one-row product p f. Segments of one size are
    pooled by one stacked matmul over a reshape view of the rows, each
    segment's weight row (repeated twice) by its own rows. Segments of
    different sizes are pooled by one matmul with the block-diagonal
    [R x N] weights, whose row r holds segment r's weights and zeros
    elsewhere. Laying such segments out in a zero-padded grid instead
    would hold R times the largest segment's rows, many times N on a
    skewed layout, and pooling each size on its own costs several BLAS
    calls, more than this one product on a layout of a few regions. The
    case is the layout's, the same for every block of a stack: pooling a
    one-segment layout as an even one would round differently.
    """
    lead = f.shape[:-2]
    n_seg = plan.n_seg
    if n_seg == 1:
        return p.reshape(lead + (1, -1)) @ f
    if plan.even:
        w = p.reshape(lead + (n_seg, 1, -1))
        # Two weight rows, not one: numpy sends a one-row matmul to gemv and
        # a two-row one to gemm. With OpenBLAS, gemm sums each segment's
        # products in row order, as the block-diagonal product does while
        # OpenBLAS runs it unblocked (its other entries are zeros, which add
        # nothing), so the pooled rows keep that product's bits; gemv rounds
        # differently. A block-diagonal product large enough to be blocked
        # may split a segment's sum, and differ in the last bits.
        rows = f.reshape(lead + (n_seg, w.shape[-1], -1))
        return (np.concatenate((w, w), axis=-2) @ rows)[..., 0, :]
    weights = np.zeros(lead + (n_seg, f.shape[-2]))
    weights.reshape(-1)[plan.scatter] = p
    return weights @ f


def aggregate(features, agg, counts=None):
    """Attention-weighted sum of the rows of each segment, an [R x D] tangent
    feature with one row per segment, or [... x R x D] for a stack of
    [... x N x D] blocks of one layout, each block pooled by its own
    products (`_attention`, `_pool`), so bit for bit as it is pooled alone.

    The one pooling function of both levels: patches into regions (one
    segment per region) and regions into the slide (one segment). One fused
    node over (features, w1, w2) computes the scores of all rows, the
    segment softmax and the pooling matmul (`_pool`), so a slide's pooling
    costs one node whatever its number of regions, and so does a stack's.
    The segments' ids, starts and weight positions are a `segment_plan`,
    worked out and checked once per distinct layout and block count, and
    the scores and softmax run in place (`_attention`).
    The backward takes each row's weight gradient g_block = rowsum(g[seg] * f),
    the softmax backward g_s = p * (g_block - segsum(p * g_block)), and
    through the tanh layer g_pre = (w2 g_s) * (1 - hidden^2); the features
    get p * g[seg] + g_pre' w1, block by block, and the weights the sums
    over the blocks of each block's own products (`_block_sum`). One block
    runs these expressions as they stand, with no axis to reshape.
    """
    f = features.data
    hidden, plan, p = _attention(features, agg, counts)
    seg, starts = plan.seg, plan.starts
    w1, w2 = agg.w1.data, agg.w2.data

    def backward(g):
        g_rows = _rows(g)[seg]
        g_block = (g_rows * _rows(f)).sum(axis=1)
        g_s = p * (g_block - np.add.reduceat(p * g_block, starts)[seg])
        if f.ndim == 2:
            g_pre = (w2 * g_s) * (1.0 - hidden * hidden)
            return (p[:, None] * g_rows + g_pre.T @ w1, g_pre @ f,
                    (g_s[None] @ hidden.T).T)
        g_s = g_s.reshape(f.shape[:-2] + (1, -1))  # [... x 1 x N]
        g_pre = (w2 * g_s) * (1.0 - hidden * hidden)
        return ((p[:, None] * g_rows).reshape(f.shape) + g_pre.mT @ w1,
                _block_sum(g_pre @ f), _block_sum(g_s @ hidden.mT).T)

    return ad.fused("aggregate", _pool(p, f, plan),
                    (features, agg.w1, agg.w2), backward)


def _stack(tensors):
    """The rows of `tensors` stacked in order, as one fused "stack" node whose
    backward hands each tensor a basic slice of the gradient."""
    stops = list(itertools.accumulate(t.data.shape[0] for t in tensors))
    spans = [slice(start, stop) for start, stop in zip([0] + stops, stops)]
    return ad.fused("stack", np.concatenate([t.data for t in tensors]),
                    tuple(tensors), lambda g: [g[span] for span in spans])


class EmbeddingSet:
    """One slide's embeddings at every level plus the class text.

    `space` holds them all as one [1 + N_r + sum N_p + 3 N_C] Points: the
    slide, the regions, the patches (the `n_image` image rows) and the
    class text, stacked in that order (the row order of
    `losses.cone_plan`). `sizes` holds each region's patch count (the
    bag's own read-only array; the regions' patches are consecutive rows of
    `patches`). `text`, `slide` [1], `regions` [N_r] and `patches`
    [sum N_p] are basic-slice views of `space`, each made on its first read
    and kept; `text` is laid out as `embed_text` lays it out (read one
    level with `text_level`).
    """

    def __init__(self, space, sizes):
        self.space = space
        self.sizes = sizes
        self.n_image = 1 + len(sizes) + int(np.sum(sizes))

    def _rows(self, start, stop=None):
        return geo.Points(self.space.space[start:stop], self.space.cfg)

    @functools.cached_property
    def text(self):
        return self._rows(self.n_image)

    @functools.cached_property
    def slide(self):
        return self._rows(0, 1)

    @functools.cached_property
    def regions(self):
        return self._rows(1, 1 + len(self.sizes))

    @functools.cached_property
    def patches(self):
        return self._rows(1 + len(self.sizes), self.n_image)


def embed_text(params, geom):
    """Class-text embeddings of every level, independent of any bag.

    One Points of 3 N_C rows in `HierarchyLevel` order: row
    level.value * N_C + c is class c at that level, the order of
    `ClassSemanticsTable.features`. All rows share one adaptor pass and one
    map; `text_level` reads the rows of one level.
    """
    return geo.exp_map_origin(params.adaptor_t(params.semantics.features()),
                              geom)


def text_rows(n_rows, level):
    """The slice of the rows of `level` in a stacked class text of `n_rows`
    rows laid out as `embed_text` lays it out."""
    n = n_rows // len(HierarchyLevel)
    return slice(level.value * n, (level.value + 1) * n)


def text_level(text, level):
    """The N_C rows of `level` in the stacked class text of `embed_text`, as
    one basic-slice index node (a view, cheaper than a `geo.select` copy)."""
    return geo.Points(text.space[text_rows(text.count, level)], text.cfg)


def layout_groups(bags):
    """The positions in `bags` of the bags of each layout (`sizes`), each
    group in input order, the groups in the order of their first bag."""
    groups = {}
    for pos, bag in enumerate(bags):
        groups.setdefault(bag.sizes.tobytes(), []).append(pos)
    return list(groups.values())


def same_layout(bags, width, n_classes=None):
    """The region sizes all of `bags` share, once each bag, in order, has
    passed `FeatureBag.check(width, n_classes)` and holds the sizes of the
    first; a bag of another layout is a ShapeError naming it and the first.
    No bags is a ShapeError."""
    if not bags:
        raise ShapeError("no bags to stack")
    sizes = bags[0].sizes
    for bag in bags:
        bag.check(width, n_classes)
        if bag is not bags[0] and bag.sizes.tobytes() != sizes.tobytes():
            raise ShapeError(f"slide {bag.slide_id} has regions of "
                             f"{bag.sizes.tolist()} patches, not the "
                             f"{sizes.tolist()} of slide {bags[0].slide_id}")
    return sizes


def slide_tangents(bags, params):
    """The (slide, regions, patches) tangent features of B bags of one
    layout, [B x 1 x k], [B x N_r x k] and [B x sum N_p x k] nodes, none of
    them mapped; row b of each is bags[b]'s. One bag runs as the [N x d_in]
    block it is, with no bag axis: its nodes are [1 x k], [N_r x k] and
    [sum N_p x k], and its graph is the one-bag graph, with no reshape of a
    leading axis, for the one-bag callers (`embed_slide`, `predict`).

    The bags are checked in order before anything is stacked: a bag
    without regions or with an empty region raises EmptyBagError, one
    whose patches are not `d_in` wide ShapeError (`FeatureBag.check`), and
    one of another layout than the first ShapeError (`same_layout`), each
    naming the slide. The patch blocks, all of one shape, are then cast to
    float64 by one call (several bags are stacked by it into one
    [B x N x d_in] array), and the stored layout is used as it is: no
    per-region loop, concatenation or bounds run here. One adaptor node and
    two `aggregate` nodes cover all B bags, and each runs every forward
    product once per bag, the call that bag gets alone; none takes the rows
    of several bags, so each bag's tangents are bit for bit those of a pass
    of its own.
    """
    sizes = same_layout(bags, params.dims.d_in)
    # The one-bag fork pays for itself: sending one bag down the stacked
    # path as a [1 x N x d_in] block (the stack node then flattening the
    # bag axis) took a default training step from a best of 607-657 us to
    # 663-682 us (3000 steps, one BLAS thread, 3 alternating process pairs
    # on a 2-core Xeon), most of it in the backward: at the 10th
    # percentile, aggregate's went from 18 to 27 us a call and the stack's
    # from 1.8 to 4.1 us.
    if len(bags) == 1:
        patches = bags[0].patches.astype(np.float64)
    else:
        patches = np.array([bag.patches for bag in bags], dtype=np.float64)
    patch_tan = params.adaptor_i(ad.Tensor(patches))
    region_tan = aggregate(patch_tan, params.agg_region, sizes)
    return aggregate(region_tan, params.agg_slide), region_tan, patch_tan


def embed_slide(bag, params, geom):
    """Hyperbolic embeddings of one slide at all levels plus class text.

    The slide, region and patch tangents (`slide_tangents` of the one bag)
    and the class-text tangents (the text adaptor over
    `ClassSemanticsTable.features`) are stacked in that order by one "stack"
    node and mapped by one `exp_map_origin` call, here: the returned
    `EmbeddingSet` holds that one space, which the loss node reads whole.
    Scoring maps no image level, so it calls `slide_tangents` and not this.
    """
    image = slide_tangents([bag], params)
    text = params.adaptor_t(params.semantics.features())
    return EmbeddingSet(geo.exp_map_origin(_stack(image + (text,)), geom), bag.sizes)


# -- checkpoints --------------------------------------------------------------


_DIMS_META = ("d_in", "k", "n_classes")

# the highest record rank `save_checkpoint` writes: semantics.offsets is
# [C x 3 x D_in]
_MAX_RANK = 3


def save_checkpoint(params, path, meta=None):
    """Write named parameter arrays plus meta.* scalars; atomic and bit-exact.
    A `meta` value that is not a real number (a boolean is not one) is a
    ConfigError naming its key, before anything is written."""
    records = {name: t.data for name, t in params.named()}
    for key in _DIMS_META:
        records[f"meta.{key}"] = np.asarray(float(getattr(params.dims, key)))
    for key, value in (meta or {}).items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"checkpoint meta.{key} must be a number, got {value!r}")
        records[f"meta.{key}"] = np.asarray(float(value))
    chunks = [_CHECKPOINT_MAGIC, struct.pack("<I", _CHECKPOINT_VERSION)]
    for name in sorted(records):
        arr = np.ascontiguousarray(records[name], dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes())
    atomic_write_bytes(path, b"".join(chunks))


def load_checkpoint(path):
    """Read a checkpoint back into {name: array}.

    A record whose name is not UTF-8, repeats an earlier record's name or
    whose rank is above any `save_checkpoint` writes raises FormatError
    naming the record's byte offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_CHECKPOINT_MAGIC) or not blob.startswith(_CHECKPOINT_MAGIC):
        raise BadMagicError(f"{path} is not a parameter checkpoint")
    pos = len(_CHECKPOINT_MAGIC)

    def take(n, what):
        nonlocal pos
        if pos + n > len(blob):
            raise TruncatedPayloadError(f"{path} ends inside {what}")
        piece = blob[pos:pos + n]
        pos += n
        return piece

    (version,) = struct.unpack("<I", take(4, "the version field"))
    if version != _CHECKPOINT_VERSION:
        raise VersionError(
            f"{path} has checkpoint version {version}, "
            f"expected {_CHECKPOINT_VERSION}"
        )
    records = {}
    while pos < len(blob):
        start = pos
        (name_len,) = struct.unpack("<I", take(4, "a record header"))
        try:
            name = take(name_len, "a record name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: the record at byte {start} has a name "
                              "that is not UTF-8") from None
        if name in records:
            raise FormatError(f"{path}: the record at byte {start} repeats "
                              f"the record {name}")
        (rank,) = struct.unpack("<I", take(4, "a record rank"))
        if rank > _MAX_RANK:
            raise FormatError(f"{path}: the record {name} at byte {start} has "
                              f"rank {rank}, above {_MAX_RANK}")
        shape = struct.unpack(f"<{rank}Q", take(8 * rank, "record extents"))
        count = 1
        for extent in shape:
            count *= extent
        data = take(8 * count, f"the payload of {name}")
        records[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    return records


def params_from_checkpoint(records):
    """Rebuild ModelParams (and leftover meta scalars) from checkpoint records.

    The dimensions are the records meta.d_in, meta.k and meta.n_classes.
    Every meta.* record comes back in the meta mapping, and a record the
    dimensions do not name is not read. A missing record or a non-integral
    dimension raises FormatError naming the record; the parameter arrays are
    then checked against the recorded dimensions by `params_from_arrays`,
    whose ShapeError names the parameter.
    """
    meta = {}
    for name, arr in records.items():
        if name.startswith("meta."):
            if arr.size != 1:
                raise FormatError(f"checkpoint record {name} is not a scalar")
            meta[name[len("meta."):]] = arr.item()
    for key in _DIMS_META:
        if key not in meta:
            raise FormatError(f"checkpoint has no meta.{key} record")
        if not float(meta[key]).is_integer():
            raise FormatError(f"checkpoint record meta.{key} is {meta[key]}, "
                              "not an integer")
    dims = ModelDims(**{key: int(meta[key]) for key in _DIMS_META})
    for name in dims.param_shapes():
        if name not in records:
            raise FormatError(f"checkpoint has no {name} record")
    return params_from_arrays(records, dims), meta
