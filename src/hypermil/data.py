"""Synthetic feature bags, the bundle file format, and site-based splits.

The generator mimics frozen-encoder output statistics: each class has a
unit-norm prototype direction, all pairs at the same controlled angle;
slides draw region prototypes around their class prototype, patches scatter
around their region prototype, and the complement of the "purity" fraction
is drawn around a shared background direction (non-tumor tissue). Slides
are assigned round-robin to sites; each site adds its mean shift to the
background patches, which is what separates in-domain from out-of-domain
sites. The shift is orthogonal to the class semantics and touches only
background patches, so it is a weak domain gap: at the `SyntheticSpec`
defaults every training objective (cls, ama, shc, full) scores the same
out-of-domain AUC as in-domain AUC, 1.000 on every fold of the 3 x 3
ablation.

A slide is a `FeatureBag`: its patch features in one contiguous [N x D]
block, in the order of its regions, plus the region layout (each region's
patch count, its `sizes`), laid out once when the bag is made. Its
`regions` are row views into that block, and the bag is frozen, so the
layout cannot drift from the data. Construction checks what the bag alone
decides: every region is a 2-D array and all have one width. What depends
on the model, or may wait until the bag is read, is `FeatureBag.check`,
which `model.slide_tangents` and `training.select_top_k` run: no regions, an
empty region, and a width other than the model's.

Bundles are a payload/manifest pair. The payload is little-endian binary:
magic "HPFB1", version u32, total data bytes u64, then the slides' patch
blocks as row-major float32 in manifest order, one per slide, so a bag is
written and read as one slice of the payload. The manifest is JSON next
to it (payload path + ".manifest.json") holding the dimension, class names,
the frozen class base vectors, and per slide {id, label, site, patch counts
per region, byte offset into the data section}. Bad magic, a version
mismatch, a payload shorter than its own header declares, and a
manifest/payload length disagreement raise four distinct errors; a manifest
that is not valid JSON, lacks a key, or holds a dimension, label or patch
count that is not an integer in range raises FormatError. So does a
manifest whose classes, slides or patch counts are not lists, whose slide
ids or sites are not strings, or whose class_vectors are not a finite
numeric [len(classes) x dim] matrix (a boolean is not a number); each
error names the field. A payload holding an infinite or NaN patch value
raises FormatError naming the slide and the region, after one finiteness
check of each slide's block.
"""

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagicError,
    ConfigError,
    EmptyBagError,
    FormatError,
    PayloadLengthError,
    ShapeError,
    SplitError,
    TruncatedPayloadError,
    VersionError,
)
from .fileio import atomic_write_bytes, atomic_write_text

_BUNDLE_MAGIC = b"HPFB1"
_BUNDLE_VERSION = 1
_HEADER = struct.Struct("<IQ")  # version, total data bytes


@dataclass(frozen=True)
class FeatureBag:
    """One slide: its patch features grouped into regions, laid out once.

    Built as `FeatureBag(slide_id, label, site, regions)` from any sequence
    of [N_p x D] arrays. Construction copies them into one C-contiguous,
    read-only [N x D] `patches` block in their own dtype (float32 from
    bundles), records the layout (`sizes`, each region's patch count; the
    regions are consecutive rows of the block) and rebinds `regions` to a
    tuple of row views into the block. The bag is frozen: none of its
    fields can be rebound and its arrays cannot be written.

    Construction raises ShapeError, naming the slide and the region, for a
    region that is not a 2-D array or whose width differs from the first
    2-D region's. What depends on the model or may wait until the bag is
    used, no regions, an empty region or a width other than the model's,
    is `check`ed where the bag is read.
    """

    slide_id: str
    label: int
    site: str
    regions: tuple  # [N_p x D] row views into `patches`
    patches: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = [getattr(region, "shape", ()) for region in self.regions]
        width = next((shape[1] for shape in shapes if len(shape) == 2), "features")
        for r, shape in enumerate(shapes):
            if len(shape) != 2 or shape[1] != width:
                raise ShapeError(f"slide {self.slide_id} region {r} is not a "
                                 f"[patches x {width}] array: shape {shape}")
        patches = (np.concatenate(self.regions, axis=0) if shapes
                   else np.empty((0, 0)))
        patches.setflags(write=False)
        counts = [shape[0] for shape in shapes]
        sizes = np.array(counts, dtype=np.intp)
        sizes.setflags(write=False)
        stops = list(itertools.accumulate(counts))
        object.__setattr__(self, "patches", patches)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "regions", tuple(
            patches[start:stop] for start, stop in zip([0] + stops, stops)))

    def check(self, width):
        """Raise EmptyBagError when the bag has no regions or a region has no
        patches, and ShapeError when its patches are not `width` features
        wide, each naming the slide and the region at fault. A constant
        number of numpy calls whatever the bag's size."""
        if not self.sizes.size:
            raise EmptyBagError(f"slide {self.slide_id} has no regions")
        if self.patches.shape[1] != width and self.sizes[0]:
            raise ShapeError(f"slide {self.slide_id} region 0 is not a [patches x "
                             f"{width}] array: shape {self.regions[0].shape}")
        if not self.sizes.all():
            raise EmptyBagError(f"slide {self.slide_id} region "
                                f"{int(self.sizes.argmin())} has no patches")


@dataclass
class Bundle:
    bags: list
    class_vectors: np.ndarray  # [N_C x D_in] frozen base directions
    class_names: list
    dim: int


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int = 3
    slides_per_class: int = 30
    n_regions: int = 4
    n_patches: int = 16
    d_in: int = 32
    sigma_class: float = 1.0
    sigma_region: float = 0.1
    sigma_patch: float = 0.1
    purity: float = 0.3
    n_sites: int = 6
    sigma_site: float = 0.25
    seed: int = 7

    def __post_init__(self):
        counts = (self.n_classes, self.slides_per_class, self.n_regions,
                  self.n_patches, self.d_in, self.n_sites)
        if any(c < 1 for c in counts):
            raise ConfigError(f"all counts must be at least 1: {self}")
        if not 0 < self.purity <= 1:
            raise ConfigError(f"purity must be in (0, 1], got {self.purity}")
        if min(self.sigma_class, self.sigma_region, self.sigma_patch) <= 0:
            raise ConfigError("sigma_class/sigma_region/sigma_patch must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.sigma_site < 0:
            raise ConfigError(f"sigma_site must be nonnegative, got {self.sigma_site}")
        if self.d_in <= self.n_classes:
            raise ConfigError(
                f"d_in must exceed n_classes for the anchored prototype frame, "
                f"got d_in={self.d_in}, n_classes={self.n_classes}"
            )


def _spawn(seed):
    """The child seeds of `seed`, built one at a time: child(i) is bit for
    bit `SeedSequence(seed).spawn(n)[i]` for any n > i, without the other
    n - 1 children being built first."""
    parent = np.random.SeedSequence(seed)
    return lambda i: np.random.SeedSequence(parent.entropy, spawn_key=(i,),
                                            pool_size=parent.pool_size)


def _check_fits(n_bytes, what):
    """ConfigError naming `what` when its `n_bytes` exceed the physical
    memory of the machine (page size times physical pages). A cgroup limit
    below physical memory is not read; where the two `sysconf` names are
    missing, nothing is checked."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if n_bytes > memory:
        raise ConfigError(f"{what} take {n_bytes} bytes, more than the "
                          f"{memory} bytes of physical memory")


def _unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def generate(spec):
    """Deterministic synthetic bundle for the given spec.

    Sites differ only by a shift of their background patches along two axes
    orthogonal to the class prototypes and the background direction, scaled
    by `sigma_site`. A model that ranks slides by their class-prototype
    patches is untouched by it: at the defaults (sigma_site 0.25) the shift
    opens no measurable gap between in-domain and out-of-domain AUC.
    A slide whose [regions x patches x D] block cannot be allocated is a
    ConfigError naming the three sizes, and so are more sites than can be
    drawn and more slides than physical memory holds as float32 values
    (slides x regions x patches x D x 4 bytes; a cgroup limit below
    physical memory is not read), naming the count, before any is drawn.
    """
    try:
        # one [regions x patches x D] block, refilled for each slide, a
        # region per row; each slide's bag keeps a float32 copy
        block = np.empty((spec.n_regions, spec.n_patches, spec.d_in))
    except (MemoryError, ValueError):  # ValueError: beyond numpy's size limit
        raise ConfigError(f"a slide of {spec.n_regions} x {spec.n_patches} x "
                          f"{spec.d_in} patch values does not fit in memory") from None
    n_slides = spec.n_classes * spec.slides_per_class
    _check_fits(n_slides * spec.n_regions * spec.n_patches * spec.d_in * 4,
                f"{n_slides} slides of {spec.n_regions} x {spec.n_patches} x "
                f"{spec.d_in} float32 patch values")
    seed = _spawn(spec.seed)
    rng = np.random.default_rng(seed(0))

    # classes share a common stem (the anchor) plus equal-norm offsets along
    # mutually orthogonal directions, so every prototype pair sits at the same
    # angle acos(1 / (1 + sigma_class^2)). small sigma_class means subtypes
    # that differ subtly on a shared morphology, large means near-orthogonal
    # concepts; no seed-lucky weak pair can dominate the task
    frame, _ = np.linalg.qr(rng.standard_normal((spec.d_in, spec.n_classes + 1)))
    anchor = frame[:, 0]
    offsets = frame[:, 1:].T
    prototypes = _unit_rows(anchor + spec.sigma_class * offsets)
    # the background is the shared anchor direction: uninformative tissue whose
    # raw similarity to every class concept is comparable, so naive
    # similarity-based patch selection picks it up for every class alike
    background = anchor

    # site effects model scanner/stain variation independent of tumor
    # content. batch effects in practice are low-rank: a couple of shared
    # technical axes (stain density, scanner color response) with each site
    # at its own operating point. we draw two shared axes orthogonal to the
    # class semantics (prototypes and background), so raw class geometry is
    # untouched; learned models can ignore these axes, see the docstring
    site_rng = np.random.default_rng(seed(1))
    semantic = np.concatenate([prototypes, background[None, :]], axis=0)
    basis, _ = np.linalg.qr(semantic.T)
    axes = site_rng.standard_normal((spec.d_in, 2))
    axes -= basis @ (basis.T @ axes)
    axes, _ = np.linalg.qr(axes)
    try:
        coords = site_rng.standard_normal((spec.n_sites, 2))
    except (MemoryError, ValueError):  # ValueError: beyond numpy's size limit
        raise ConfigError(f"{spec.n_sites} sites do not fit in memory") from None
    site_shift = spec.sigma_site * coords @ axes.T

    n_disc = max(1, int(round(spec.purity * spec.n_patches)))
    bags = []
    index = 0
    for c in range(spec.n_classes):
        for _ in range(spec.slides_per_class):
            slide_rng = np.random.default_rng(seed(2 + index))
            site = index % spec.n_sites
            shift = site_shift[site]
            for patches in block:
                proto = prototypes[c] + spec.sigma_region * slide_rng.standard_normal(
                    spec.d_in
                )
                which = slide_rng.permutation(spec.n_patches)
                disc_rows = which[:n_disc]
                back_rows = which[n_disc:]
                patches[disc_rows] = proto + spec.sigma_patch * slide_rng.standard_normal(
                    (len(disc_rows), spec.d_in)
                )
                # site effects land on the background tissue: prep artifacts
                # and stroma staining vary by site, while the discriminative
                # morphology is comparatively site-stable
                patches[back_rows] = background + shift + spec.sigma_patch * slide_rng.standard_normal(
                    (len(back_rows), spec.d_in)
                )
            bags.append(
                FeatureBag(
                    slide_id=f"slide-{index:04d}",
                    label=c,
                    site=f"site-{site}",
                    regions=list(block.astype(np.float32)),
                )
            )
            index += 1
    names = [f"class-{c}" for c in range(spec.n_classes)]
    return Bundle(bags=bags, class_vectors=prototypes, class_names=names,
                  dim=spec.d_in)


# -- bundle files -------------------------------------------------------------


def write_bundle(bundle, path):
    """Write payload and manifest; both atomically."""
    chunks = []
    slides = []
    offset = 0
    for bag in bundle.bags:
        block = np.ascontiguousarray(bag.patches, dtype="<f4")
        if bag.regions and block.shape[1] != bundle.dim:
            raise ConfigError(
                f"slide {bag.slide_id}: region shape {bag.regions[0].shape} does "
                f"not match bundle dimension {bundle.dim}"
            )
        chunks.append(block)
        slides.append(
            {
                "id": bag.slide_id,
                "label": int(bag.label),
                "site": bag.site,
                "patch_counts": bag.sizes.tolist(),
                "offset": offset,
            }
        )
        offset += block.nbytes
    payload = b"".join([_BUNDLE_MAGIC, _HEADER.pack(_BUNDLE_VERSION, offset), *chunks])
    manifest = {
        "format": "HPFB1",
        "version": _BUNDLE_VERSION,
        "dim": int(bundle.dim),
        "classes": list(bundle.class_names),
        "class_vectors": [list(map(float, row)) for row in bundle.class_vectors],
        "slides": slides,
    }
    atomic_write_bytes(path, payload)
    atomic_write_text(manifest_path(path), json.dumps(manifest, sort_keys=True))


def manifest_path(path):
    return f"{path}.manifest.json"


def read_bundle(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_BUNDLE_MAGIC):
        raise BadMagicError(f"{path} is not a feature bundle")
    header_end = len(_BUNDLE_MAGIC) + _HEADER.size
    if len(blob) < header_end:
        raise TruncatedPayloadError(f"{path} ends inside the header")
    version, declared = _HEADER.unpack(blob[len(_BUNDLE_MAGIC):header_end])
    if version != _BUNDLE_VERSION:
        raise VersionError(
            f"{path} has bundle version {version}, expected {_BUNDLE_VERSION}"
        )
    data = memoryview(blob)[header_end:]
    if len(data) < declared:
        raise TruncatedPayloadError(
            f"{path} holds {len(data)} payload bytes but declares {declared}"
        )
    if len(data) > declared:
        raise PayloadLengthError(
            f"{path} holds {len(data) - declared} bytes beyond its declared length"
        )

    where = manifest_path(path)
    with open(where, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:  # nested too deeply
            raise FormatError(f"{where} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{where} must hold one JSON object")
    if manifest.get("format") != "HPFB1" or manifest.get("version") != version:
        raise VersionError(
            f"{where} does not match payload version {version}"
        )
    dim = _field(manifest, "dim", where, object)
    if not _is_integer(dim) or dim < 1:
        raise FormatError(
            f"{where} has dim that is not a positive integer dimension: {dim!r}")
    n_classes = len(_field(manifest, "classes", where, list))
    rows = _field(manifest, "class_vectors", where, list)
    try:
        class_vectors = np.asarray(rows)
    except ValueError:  # a ragged matrix
        class_vectors = np.asarray(None)
    if (class_vectors.dtype.kind not in "iuf" or not np.isfinite(class_vectors).all()
            or class_vectors.shape != (n_classes, dim)
            # numpy reads JSON true among numbers as 1.0
            or any(isinstance(x, bool) for row in rows for x in row)):
        raise FormatError(f"{where} has class_vectors that are not a finite "
                          f"[{n_classes} x {dim}] matrix of numbers")
    bags = []
    offset = 0
    for entry in _field(manifest, "slides", where, list):
        slide_id = _field(entry, "id", f"{where} slide entry", str)
        context = f"{where} slide {slide_id}"
        label = _field(entry, "label", context, int)
        if not 0 <= label < n_classes:
            raise FormatError(
                f"{context} has label {label!r}, expected 0 to {n_classes - 1}"
            )
        if _field(entry, "offset", context, int) != offset:
            raise PayloadLengthError(
                f"{path}: slide {slide_id} declares offset {entry['offset']}, "
                f"expected {offset}"
            )
        counts = _field(entry, "patch_counts", context, list)
        start = offset
        for count in counts:
            if not _is_integer(count) or count < 0:
                raise FormatError(f"{context} has patch_counts that are not all "
                                  f"integers of 0 or more: patch count {count!r}")
            offset += count * dim * 4
            if offset > declared:
                raise PayloadLengthError(
                    f"{path}: manifest declares more patches than the payload holds"
                    f" (slide {slide_id})"
                )
        block = np.frombuffer(data, dtype="<f4", count=(offset - start) // 4,
                              offset=start).reshape(-1, dim)
        bounds = np.cumsum(counts).tolist()
        if not np.isfinite(block).all():
            row = int(np.argmin(np.isfinite(block).all(axis=1)))
            raise FormatError(f"{path}: slide {slide_id} region "
                              f"{np.searchsorted(bounds, row, 'right')} holds a "
                              "non-finite patch value")
        bags.append(
            FeatureBag(
                slide_id=slide_id,
                label=label,
                site=_field(entry, "site", context, str),
                regions=[block[stop - count:stop]
                         for count, stop in zip(counts, bounds)],
            )
        )
    if offset != declared:
        raise PayloadLengthError(
            f"{path}: manifest accounts for {offset} bytes, payload holds {declared}"
        )
    return Bundle(bags=bags, class_vectors=class_vectors.astype(np.float64),
                  class_names=list(manifest["classes"]), dim=dim)


def _is_integer(value):
    # JSON true and false read as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _field(entry, key, where, kind):
    """entry[key] of a manifest object, which must be an instance of `kind`
    (for int, not a bool); FormatError naming the key when it is missing or
    of another type."""
    if not isinstance(entry, dict) or key not in entry:
        raise FormatError(f"{where} has no '{key}' key")
    value = entry[key]
    if not (_is_integer(value) if kind is int else isinstance(value, kind)):
        raise FormatError(f"{where} has {key} of type {type(value).__name__}, "
                          f"expected {kind.__name__}")
    return value


# -- nested site-based splits -------------------------------------------------


@dataclass(frozen=True)
class InnerSplit:
    train_ids: tuple
    val_ids: tuple
    test_ids: tuple


@dataclass(frozen=True)
class OuterFold:
    ind_sites: tuple
    ood_sites: tuple
    ood_ids: tuple
    inner: tuple  # of InnerSplit


@dataclass(frozen=True)
class SplitPlan:
    folds: tuple
    seed: int


def make_splits(bags, n_outer, n_inner, ratios=(0.6, 0.2, 0.2), seed=0):
    """Site-disjoint outer folds with stratified Monte-Carlo inner splits.

    Fold f's sites are in-domain; every other site's slides form its
    out-of-domain test set. Within the in-domain slides, each inner split
    draws train/val/test by the given ratios per class. Everything is keyed
    by sorted slide ids and the seed, so bundle order does not matter.
    More splits than physical memory holds as slide id references (outer
    x inner x slides x 8 bytes; a cgroup limit below physical memory is not
    read) are a ConfigError naming the counts, before any split is drawn.
    """
    if n_outer < 1 or n_inner < 1:
        raise ConfigError("n_outer and n_inner must be at least 1")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if len(ratios) != 3 or min(ratios) <= 0 or not math.isclose(sum(ratios), 1.0):
        raise ConfigError(f"ratios must be three positive values summing to 1: {ratios}")
    _check_fits(n_outer * n_inner * len(bags) * 8,
                f"{n_outer} x {n_inner} outer x inner splits of {len(bags)} slides")
    by_id = {}
    for bag in bags:
        if bag.slide_id in by_id:
            raise SplitError(f"duplicate slide id {bag.slide_id}")
        by_id[bag.slide_id] = bag
    ids = sorted(by_id)
    sites = sorted({by_id[i].site for i in ids})
    if len(sites) < n_outer:
        raise SplitError(
            f"need at least {n_outer} distinct sites for {n_outer} outer folds, "
            f"got {len(sites)}"
        )
    split_seed = _spawn(seed)
    site_order = list(np.array(sites)[np.random.default_rng(split_seed(0)).permutation(len(sites))])

    folds = []
    for outer in range(n_outer):
        ind_sites = tuple(sorted(site_order[outer::n_outer]))
        ood_sites = tuple(s for s in sites if s not in ind_sites)
        ind_ids = [i for i in ids if by_id[i].site in ind_sites]
        ood_ids = tuple(i for i in ids if by_id[i].site in ood_sites)
        classes = sorted({by_id[i].label for i in ids})
        per_class = {c: [i for i in ind_ids if by_id[i].label == c] for c in classes}
        for c in classes:
            if len(per_class[c]) < 3:
                raise SplitError(
                    f"outer fold {outer}: class {c} has {len(per_class[c])} "
                    f"in-domain slides, need at least 3 to stratify"
                )
        inner = []
        for i in range(n_inner):
            rng = np.random.default_rng(split_seed(1 + outer * n_inner + i))
            train, val, test = [], [], []
            for c in classes:
                pool = list(per_class[c])
                rng.shuffle(pool)
                n = len(pool)
                n_test = max(1, int(round(ratios[2] * n)))
                n_val = max(1, int(round(ratios[1] * n)))
                n_train = n - n_val - n_test
                if n_train < 1:
                    raise SplitError(
                        f"outer fold {outer}: class {c} cannot be split "
                        f"{ratios} over {n} slides"
                    )
                train += pool[:n_train]
                val += pool[n_train:n_train + n_val]
                test += pool[n_train + n_val:]
            inner.append(
                InnerSplit(
                    train_ids=tuple(sorted(train)),
                    val_ids=tuple(sorted(val)),
                    test_ids=tuple(sorted(test)),
                )
            )
        folds.append(
            OuterFold(
                ind_sites=ind_sites,
                ood_sites=ood_sites,
                ood_ids=ood_ids,
                inner=tuple(inner),
            )
        )
    return SplitPlan(folds=tuple(folds), seed=seed)
