"""Synthetic generation, the bundle file format, and site-based splits."""

import dataclasses
import json
import random

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypermil import data as dt
from hypermil.errors import (
    BadMagicError,
    ConfigError,
    EmptyBagError,
    FormatError,
    HypermilError,
    PayloadLengthError,
    ShapeError,
    SplitError,
    TruncatedPayloadError,
    VersionError,
)

SMALL = dt.SyntheticSpec(
    n_classes=2, slides_per_class=10, n_regions=2, n_patches=6, d_in=12,
    n_sites=4, seed=5,
)


def _slide_means(bundle):
    return np.stack(
        [np.concatenate(b.regions).mean(axis=0) for b in bundle.bags]
    )


def _proto_accuracy(bundle):
    means = _slide_means(bundle)
    means = means / np.linalg.norm(means, axis=1, keepdims=True)
    pred = (means @ bundle.class_vectors.T).argmax(axis=1)
    labels = np.array([b.label for b in bundle.bags])
    return (pred == labels).mean()


# -- spec validation ------------------------------------------------------------


def test_spec_validation():
    for bad in (
        dict(n_classes=0),
        dict(n_patches=0),
        dict(purity=0.0),
        dict(purity=1.1),
        dict(sigma_patch=0.0),
        dict(sigma_site=-0.1),
        dict(seed=-1),
    ):
        with pytest.raises(ConfigError):
            dt.SyntheticSpec(**bad)


# -- generation -----------------------------------------------------------------


def test_generate_counts_and_labels():
    bundle = dt.generate(SMALL)
    assert len(bundle.bags) == 20
    labels = [b.label for b in bundle.bags]
    assert labels.count(0) == 10 and labels.count(1) == 10
    assert len({b.slide_id for b in bundle.bags}) == 20
    assert bundle.dim == 12
    assert bundle.class_vectors.shape == (2, 12)
    assert_allclose(np.linalg.norm(bundle.class_vectors, axis=1), 1.0, atol=1e-12)
    for bag in bundle.bags:
        assert len(bag.regions) == 2
        for region in bag.regions:
            assert region.shape == (6, 12)
            assert region.dtype == np.float32


def test_generate_sites_round_robin():
    bundle = dt.generate(SMALL)
    sites = sorted({b.site for b in bundle.bags})
    assert len(sites) == 4
    per_site = {s: sum(b.site == s for b in bundle.bags) for s in sites}
    assert all(count == 5 for count in per_site.values())


def test_generate_deterministic_bytes(tmp_path):
    blobs = []
    for run in range(2):
        bundle = dt.generate(SMALL)
        path = tmp_path / f"run{run}.hpfb"
        dt.write_bundle(bundle, path)
        blobs.append(path.read_bytes() + (tmp_path / f"run{run}.hpfb.manifest.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_generate_seed_changes_prototypes():
    a = dt.generate(SMALL)
    b = dt.generate(dt.SyntheticSpec(**{**SMALL.__dict__, "seed": 6}))
    assert not np.allclose(a.class_vectors, b.class_vectors)


def test_pure_slides_match_prototype():
    # purity 1 with vanishing spreads: every patch sits on its class prototype
    spec = dt.SyntheticSpec(
        purity=1.0, sigma_region=1e-3, sigma_patch=1e-6, seed=3
    )
    bundle = dt.generate(spec)
    for bag in bundle.bags:
        patches = np.concatenate(bag.regions).astype(np.float64)
        patches /= np.linalg.norm(patches, axis=1, keepdims=True)
        cos = patches @ bundle.class_vectors[bag.label]
        assert cos.mean() > 0.99


def test_default_spec_nearest_prototype_separable():
    assert _proto_accuracy(dt.generate(dt.SyntheticSpec())) > 0.9


def test_site_shift_orthogonal_to_class_semantics():
    # same seed, different shift scale: the patch displacement is exactly the
    # site shift, which must carry no component along any class direction
    base = dt.generate(dt.SyntheticSpec(sigma_site=1e-12, seed=9))
    shifted = dt.generate(dt.SyntheticSpec(sigma_site=3.0, seed=9))
    moved = 0
    for b0, b1 in zip(base.bags, shifted.bags):
        delta = (np.concatenate(b1.regions) - np.concatenate(b0.regions)).astype(
            np.float64
        )
        along = np.abs(delta @ base.class_vectors.T).max()
        assert along < 1e-4
        moved += int(np.linalg.norm(delta[0]) > 0.5)
    assert moved >= len(base.bags) // 2
    # raw separability therefore survives arbitrarily large site effects
    assert _proto_accuracy(shifted) > 0.9


# -- feature bags ---------------------------------------------------------------


def _assert_tiled(bag):
    """The bag's regions are consecutive row views that tile its one
    contiguous, read-only patch block, as its sizes say."""
    assert bag.patches.ndim == 2 and bag.patches.flags.c_contiguous
    assert not bag.patches.flags.writeable
    assert isinstance(bag.regions, tuple)
    assert bag.sizes.tolist() == [len(region) for region in bag.regions]
    stop = 0
    for region, size in zip(bag.regions, bag.sizes.tolist(), strict=True):
        rows = bag.patches[stop:stop + size]
        assert region.base is bag.patches
        assert np.shares_memory(region, bag.patches) or not region.size
        assert region.ctypes.data == rows.ctypes.data and region.shape == rows.shape
        stop += size
    assert stop == len(bag.patches)


def test_feature_bag_lays_regions_out_in_one_block():
    rng = np.random.default_rng(0)
    given = [rng.standard_normal((n, 4)).astype(np.float32) for n in (3, 1, 0, 5)]
    bag = dt.FeatureBag("s", 1, "site-0", given)
    _assert_tiled(bag)
    assert bag.patches.dtype == np.float32 and bag.patches.shape == (9, 4)
    assert bag.sizes.tolist() == [3, 1, 0, 5]
    for region, original in zip(bag.regions, given):
        assert np.array_equal(region, original)
        assert not np.shares_memory(region, original)  # the bag owns a copy
    assert dt.FeatureBag("s", 0, "x", [np.zeros((2, 3))]).patches.dtype == np.float64


def test_feature_bag_is_frozen():
    bag = dt.FeatureBag("s", 0, "site-0", [np.zeros((2, 3), dtype=np.float32)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        bag.regions = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        bag.label = 1
    with pytest.raises(ValueError, match="read-only"):
        bag.regions[0][0, 0] = 1.0
    with pytest.raises(TypeError):
        bag.regions[0] = np.ones((2, 3), dtype=np.float32)


@pytest.mark.parametrize("regions, bad", [
    ([np.zeros((2, 4)), np.zeros(4)], r"region 1 is not a \[patches x 4\] array: shape \(4,\)"),
    ([np.zeros((2, 4)), np.zeros((1, 2, 4))], r"region 1 is not a \[patches x 4\]"),
    ([np.zeros((2, 4)), np.zeros((3, 4)), np.zeros((3, 5))],
     r"region 2 is not a \[patches x 4\] array: shape \(3, 5\)"),
    ([np.zeros((2, 2, 4))], r"region 0 is not a \[patches x features\]"),
    ([[[0.0, 1.0]]], r"region 0 is not a \[patches x features\] array: shape \(\)"),
])
def test_feature_bag_rejects_malformed_regions_at_construction(regions, bad):
    with pytest.raises(ShapeError, match=rf"^slide s {bad}"):
        dt.FeatureBag("s", 0, "x", regions)


def test_feature_bag_check():
    good = dt.FeatureBag("s", 0, "x", [np.zeros((2, 4)), np.zeros((1, 4))])
    good.check(4)
    with pytest.raises(EmptyBagError, match="^slide s has no regions"):
        dt.FeatureBag("s", 0, "x", []).check(4)
    middle = dt.FeatureBag("s", 0, "x", [np.zeros((2, 4)), np.zeros((0, 4)),
                                         np.zeros((0, 4))])
    with pytest.raises(EmptyBagError, match="^slide s region 1 has no patches"):
        middle.check(4)
    # the first region at fault decides, as a region-by-region scan would
    with pytest.raises(ShapeError, match=r"^slide s region 0 is not a \[patches x 5\]"):
        middle.check(5)
    first_empty = dt.FeatureBag("s", 0, "x", [np.zeros((0, 4)), np.zeros((2, 4))])
    with pytest.raises(EmptyBagError, match="region 0 has no patches"):
        first_empty.check(5)


# -- bundle files ---------------------------------------------------------------


def test_bundle_roundtrip_bit_exact(tmp_path):
    bundle = dt.generate(SMALL)
    path = tmp_path / "b.hpfb"
    dt.write_bundle(bundle, path)
    back = dt.read_bundle(path)
    assert back.dim == bundle.dim
    assert back.class_names == bundle.class_names
    assert np.array_equal(back.class_vectors, bundle.class_vectors)
    for a, b in zip(bundle.bags, back.bags):
        assert (a.slide_id, a.label, a.site) == (b.slide_id, b.label, b.site)
        assert len(a.regions) == len(b.regions)
        for ra, rb in zip(a.regions, b.regions):
            assert ra.dtype == rb.dtype == np.float32
            assert np.array_equal(ra, rb)


def test_bundle_roundtrip_one_block_per_bag(tmp_path, written):
    rng = np.random.default_rng(4)
    bags = [dt.FeatureBag(f"s{i}", i % 2, "site-0",
                          [rng.standard_normal((n, 3)) for n in sizes])
            for i, sizes in enumerate([(2, 0, 3), (1,), (), (4, 4)])]
    bundle = dt.Bundle(bags=bags, class_vectors=np.eye(2, 3),
                       class_names=["a", "b"], dim=3)
    path = tmp_path / "uneven.hpfb"
    dt.write_bundle(bundle, path)
    back = dt.read_bundle(path)
    for a, b in zip(bags, back.bags, strict=True):
        _assert_tiled(b)
        assert b.patches.dtype == np.float32 or not b.regions
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(a.patches.astype(np.float32), b.patches)
    for bag in dt.read_bundle(written).bags:
        _assert_tiled(bag)
        assert bag.sizes.tolist() == [SMALL.n_patches] * SMALL.n_regions


def test_write_bundle_checks_dimension(tmp_path):
    bundle = dt.generate(SMALL)
    bundle.bags[0] = dt.FeatureBag("narrow", 0, "site-0",
                                   [np.zeros((3, 5), dtype=np.float32)])
    with pytest.raises(ConfigError):
        dt.write_bundle(bundle, tmp_path / "bad.hpfb")


@pytest.fixture()
def written(tmp_path):
    bundle = dt.generate(SMALL)
    path = tmp_path / "b.hpfb"
    dt.write_bundle(bundle, path)
    return path


def test_read_bundle_bad_magic(written):
    blob = bytearray(written.read_bytes())
    blob[0] = ord("X")
    written.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        dt.read_bundle(written)


def test_read_bundle_version_mismatch(written):
    blob = bytearray(written.read_bytes())
    blob[5:9] = (9).to_bytes(4, "little")
    written.write_bytes(bytes(blob))
    with pytest.raises(VersionError):
        dt.read_bundle(written)


def test_read_bundle_truncated_header(written):
    written.write_bytes(written.read_bytes()[:8])
    with pytest.raises(TruncatedPayloadError):
        dt.read_bundle(written)


def test_read_bundle_truncated_payload(written):
    blob = written.read_bytes()
    written.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(TruncatedPayloadError):
        dt.read_bundle(written)


def test_read_bundle_excess_payload(written):
    written.write_bytes(written.read_bytes() + b"\x00" * 8)
    with pytest.raises(PayloadLengthError):
        dt.read_bundle(written)


def test_read_bundle_manifest_overdeclares(written):
    manifest_file = written.parent / (written.name + ".manifest.json")
    import json

    manifest = json.loads(manifest_file.read_text())
    manifest["slides"][-1]["patch_counts"][-1] += 1000
    manifest_file.write_text(json.dumps(manifest))
    with pytest.raises(PayloadLengthError):
        dt.read_bundle(written)


def test_read_bundle_manifest_version_mismatch(written):
    manifest_file = written.parent / (written.name + ".manifest.json")
    import json

    manifest = json.loads(manifest_file.read_text())
    manifest["version"] = 99
    manifest_file.write_text(json.dumps(manifest))
    with pytest.raises(VersionError):
        dt.read_bundle(written)


def _rewrite_manifest(bundle_path, edit):
    import json

    manifest_file = bundle_path.parent / (bundle_path.name + ".manifest.json")
    manifest = json.loads(manifest_file.read_text())
    edit(manifest)
    manifest_file.write_text(json.dumps(manifest))


def test_read_bundle_truncated_manifest(written):
    manifest_file = written.parent / (written.name + ".manifest.json")
    text = manifest_file.read_text()
    manifest_file.write_text(text[: len(text) // 2])
    with pytest.raises(FormatError, match="not valid JSON"):
        dt.read_bundle(written)


@pytest.mark.parametrize("key", ["dim", "classes", "slides", "class_vectors"])
def test_read_bundle_manifest_missing_key(written, key):
    _rewrite_manifest(written, lambda m: m.pop(key))
    with pytest.raises(FormatError, match=key):
        dt.read_bundle(written)


@pytest.mark.parametrize("key", ["id", "label", "site", "patch_counts", "offset"])
def test_read_bundle_slide_entry_missing_key(written, key):
    _rewrite_manifest(written, lambda m: m["slides"][3].pop(key))
    with pytest.raises(FormatError, match=key):
        dt.read_bundle(written)


@pytest.mark.parametrize("count", [-3, 2.5, True])  # a JSON boolean is no count
def test_read_bundle_bad_patch_count(written, count):
    def edit(m):
        m["slides"][0]["patch_counts"][0] = count

    _rewrite_manifest(written, edit)
    with pytest.raises(FormatError, match="patch count"):
        dt.read_bundle(written)


@pytest.mark.parametrize("field, edit", [
    ("patch_counts", lambda m: m["slides"][0].update(patch_counts=16)),
    ("classes", lambda m: m.update(classes=3)),
    ("slides", lambda m: m.update(slides={"id": "slide-0000"})),
    ("class_vectors", lambda m: m.update(class_vectors="abc")),
    ("class_vectors", lambda m: m["class_vectors"][1].pop()),
    ("class_vectors", lambda m: m["class_vectors"].pop()),
    ("class_vectors", lambda m: m["class_vectors"][0].__setitem__(0, "0.5")),
    ("class_vectors", lambda m: m["class_vectors"][0].__setitem__(0, float("nan"))),
    # JSON booleans are not numbers, even among numbers or as a whole row
    ("class_vectors", lambda m: m["class_vectors"][1].__setitem__(0, True)),
    ("class_vectors", lambda m: m["class_vectors"].__setitem__(
        0, [True] * len(m["class_vectors"][0]))),
    ("id", lambda m: m["slides"][0].update(id=["slide-0000"])),
    ("site", lambda m: m["slides"][2].update(site=["site-0"])),
    # JSON booleans are not integers
    ("label", lambda m: m["slides"][0].update(label=True)),
    ("dim", lambda m: m.update(dim=True)),
    ("offset", lambda m: m["slides"][0].update(offset=False)),
])
def test_read_bundle_mistyped_field(written, field, edit):
    # wrong types, a ragged or short class_vectors matrix (fewer rows than
    # classes) and a non-finite or non-numeric class vector entry
    _rewrite_manifest(written, edit)
    with pytest.raises(FormatError, match=rf"\b{field} (of type|that)"):
        dt.read_bundle(written)


@pytest.mark.parametrize("dim", [0, -12, "12"])
def test_read_bundle_bad_dimension(written, dim):
    def edit(m):
        m["dim"] = dim

    _rewrite_manifest(written, edit)
    with pytest.raises(FormatError, match="dimension"):
        dt.read_bundle(written)


@pytest.mark.parametrize("label", [-1, 2, 7, "1"])
def test_read_bundle_label_out_of_range(written, label):
    def edit(m):
        m["slides"][0]["label"] = label

    _rewrite_manifest(written, edit)
    with pytest.raises(FormatError, match="label"):
        dt.read_bundle(written)


# values a mutated manifest field takes: in range, out of range, mistyped
_FUZZ_VALUES = (-1, 0, 1, 2, 3, 7, 10**20, 2.5, True, False, None, "1", "", [1], {})


def test_read_bundle_fuzz_raises_only_typed_errors(tmp_path):
    # seeded single mutations of a tiny bundle with uneven regions: payload
    # bytes, truncation, and the manifest fields of one slide. Each read
    # either raises a HypermilError or gives bags that tile their blocks.
    spec = dt.SyntheticSpec(n_classes=2, slides_per_class=2, n_regions=2,
                            n_patches=2, d_in=3, n_sites=2, seed=1)
    bags = dt.generate(spec).bags + [
        dt.FeatureBag("odd", 1, "site-9", [np.ones((3, 3)), np.ones((0, 3))]),
        dt.FeatureBag("none", 0, "site-9", []),
    ]
    bundle = dt.Bundle(bags=bags, class_vectors=np.eye(2, 3),
                       class_names=["a", "b"], dim=3)
    path = tmp_path / "fuzz.hpfb"
    dt.write_bundle(bundle, path)
    blob = path.read_bytes()
    manifest_file = tmp_path / "fuzz.hpfb.manifest.json"
    manifest = json.loads(manifest_file.read_text())
    rng = random.Random(0)
    outcomes = {"read": 0, "typed error": 0}
    for _ in range(300):
        payload, edited = bytearray(blob), json.loads(json.dumps(manifest))
        kind = rng.choice(["byte", "truncate", "patch_counts", "offset",
                           "label", "id", "site"])
        if kind == "byte":
            payload[rng.randrange(len(payload))] = rng.randrange(256)
        elif kind == "truncate":
            del payload[rng.randrange(len(payload)):]
        else:
            entry = rng.choice(edited["slides"])
            if kind == "patch_counts" and entry["patch_counts"] and rng.random() < 0.7:
                counts = entry["patch_counts"]
                counts[rng.randrange(len(counts))] = rng.choice(_FUZZ_VALUES)
            else:
                entry[kind] = rng.choice(_FUZZ_VALUES)
        path.write_bytes(bytes(payload))
        manifest_file.write_text(json.dumps(edited))
        try:
            back = dt.read_bundle(path)
        except HypermilError:
            outcomes["typed error"] += 1
            continue
        outcomes["read"] += 1
        for bag in back.bags:
            _assert_tiled(bag)
    assert min(outcomes.values()) > 30, outcomes


# -- splits ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7919, 2**70])
def test_spawn_builds_each_child_as_spawn_does(seed):
    n = 23
    children = np.random.SeedSequence(seed).spawn(n)
    child = dt._spawn(seed)
    for i in (0, 1, n - 1):
        assert child(i).state == children[i].state
        assert np.array_equal(child(i).generate_state(8), children[i].generate_state(8))


def test_make_splits_validation():
    bags = dt.generate(SMALL).bags
    with pytest.raises(ConfigError):
        dt.make_splits(bags, 0, 3)
    with pytest.raises(ConfigError):
        dt.make_splits(bags, 2, 2, seed=-1)
    with pytest.raises(SplitError):
        dt.make_splits(bags, 5, 2)  # only 4 sites
    with pytest.raises(SplitError):
        dt.make_splits(bags + [bags[0]], 2, 2)  # duplicate id


def test_make_splits_structure():
    bundle = dt.generate(dt.SyntheticSpec())
    plan = dt.make_splits(bundle.bags, 3, 5, seed=0)
    assert len(plan.folds) == 3
    assert sum(len(f.inner) for f in plan.folds) == 15

    all_sites = {b.site for b in bundle.bags}
    by_id = {b.slide_id: b for b in bundle.bags}
    seen_ind = []
    for fold in plan.folds:
        assert set(fold.ind_sites).isdisjoint(fold.ood_sites)
        assert set(fold.ind_sites) | set(fold.ood_sites) == all_sites
        assert all(by_id[i].site in fold.ood_sites for i in fold.ood_ids)
        seen_ind.extend(fold.ind_sites)
        ind_ids = {
            b.slide_id for b in bundle.bags if b.site in fold.ind_sites
        }
        for split in fold.inner:
            parts = (
                set(split.train_ids), set(split.val_ids), set(split.test_ids)
            )
            assert parts[0] | parts[1] | parts[2] == ind_ids
            assert not (parts[0] & parts[1] or parts[0] & parts[2]
                        or parts[1] & parts[2])
            for ids in parts:
                labels = {by_id[i].label for i in ids}
                assert labels == {0, 1, 2}
    # outer folds tile the sites exhaustively
    assert sorted(seen_ind) == sorted(all_sites)


def test_make_splits_deterministic_and_order_free():
    bundle = dt.generate(dt.SyntheticSpec())
    plan_a = dt.make_splits(bundle.bags, 3, 3, seed=4)
    plan_b = dt.make_splits(list(reversed(bundle.bags)), 3, 3, seed=4)
    assert plan_a == plan_b
    plan_c = dt.make_splits(bundle.bags, 3, 3, seed=5)
    assert plan_a != plan_c


def test_make_splits_unsatisfiable_stratification():
    bags = []
    for i in range(4):
        bags.append(
            dt.FeatureBag(
                slide_id=f"s{i}", label=i % 2, site=f"site-{i % 2}",
                regions=[np.zeros((2, 4), dtype=np.float32)],
            )
        )
    with pytest.raises(SplitError):
        dt.make_splits(bags, 2, 1)
