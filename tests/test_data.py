"""Synthetic generation, the bundle file format, and site-based splits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypermil import data as dt
from hypermil.errors import (
    BadMagicError,
    ConfigError,
    FormatError,
    PayloadLengthError,
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


def test_write_bundle_checks_dimension(tmp_path):
    bundle = dt.generate(SMALL)
    bundle.bags[0].regions[0] = np.zeros((3, 5), dtype=np.float32)
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


# -- splits ---------------------------------------------------------------------


def test_make_splits_validation():
    bags = dt.generate(SMALL).bags
    with pytest.raises(ConfigError):
        dt.make_splits(bags, 0, 3)
    with pytest.raises(ConfigError):
        dt.make_splits(bags, 2, 2, ratios=(0.5, 0.2, 0.2))
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
