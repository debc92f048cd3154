"""Seeded malformed-input fuzzing of the checkpoint, train-config and
split-file readers and of command-line values, plus named regression cases
of what it and a hand check found.

Each fuzz test makes a fixed number of seeded `random.Random` mutations of
one valid input. Every outcome must be a success or a typed
`HypermilError`; through `cli.main`, exit 0, or exit 1 with a diagnostic
starting "error:" (or argparse's exit 2, for a command-line value it
refuses). The four fuzz tests take about 3 s together. The bundle fuzz
lives next to the bundle reader, in `test_data.py`.
"""

import dataclasses
import json
import random

import pytest

from hypermil import data as dt
from hypermil import training as tr
from hypermil.cli import main
from hypermil.errors import ConfigError, FormatError, HypermilError
from hypermil.model import (
    ModelDims,
    init_params,
    load_checkpoint,
    params_from_checkpoint,
    save_checkpoint,
)

# values a mutated JSON field or header takes: in range, out of range,
# beyond the float range, mistyped
_VALUES = (-1, 0, 1, 2, 3, 7, 2**31, 2**64, 10**400, 2.5, -0.0, 1e308, True,
           False, None, "1", "", [1], {}, [[[]]])
# characters a text mutation writes: JSON syntax, digits and letters of
# literals
_CHARS = '{}[]",:.-+eE0123456789 ntrufalsNIy\\é'
# what a 4- or 8-byte header field is overwritten with
_FIELDS = (0, 1, 2, 3, 4, 8, 255, 2**31, 2**32 - 1, 2**63, 2**64 - 1)


def _mutate_text(rng, text):
    """One random edit of `text`: a replaced, inserted or deleted run of
    characters, a truncation or a repeated slice."""
    i = rng.randrange(len(text) + 1)
    j = min(len(text), i + rng.randrange(1, 4))
    kind = rng.randrange(5)
    if kind == 0:
        return text[:i] + rng.choice(_CHARS) + text[j:]
    if kind == 1:
        inserted = "".join(rng.choice(_CHARS) for _ in range(j - i + 1))
        return text[:i] + inserted + text[i:]
    if kind == 2:
        return text[:i] + text[j:]
    if kind == 3:
        return text[:i]
    return text[:j] + text[i:]


def _mutate_bytes(rng, blob):
    """One random edit of `blob`: a byte, a 4- or 8-byte little-endian field
    set to an edge value, a truncation, an inserted or deleted run, or a
    repeated slice."""
    data = bytearray(blob)
    i = rng.randrange(len(data))
    kind = rng.randrange(6)
    if kind == 0:
        data[i] = rng.randrange(256)
    elif kind == 1:
        width = rng.choice((4, 8))
        data[i:i + width] = (rng.choice(_FIELDS) % 256**width).to_bytes(width, "little")
    elif kind == 2:
        del data[i:]
    elif kind == 3:
        data[i:i] = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
    elif kind == 4:
        del data[i:i + rng.randrange(1, 9)]
    else:
        data[i:i] = data[i:i + rng.randrange(1, 40)]
    return bytes(data)


def test_checkpoint_fuzz_raises_only_typed_errors(tmp_path):
    path = tmp_path / "fuzz.ckpt"
    save_checkpoint(init_params(ModelDims(d_in=3, k=2, n_classes=2), 0), path,
                    meta={"curvature": 1.0})
    blob = path.read_bytes()
    rng = random.Random(0)
    outcomes = {"loaded": 0, "typed error": 0}
    for _ in range(1500):
        path.write_bytes(_mutate_bytes(rng, blob))
        try:
            params_from_checkpoint(load_checkpoint(path))
        except HypermilError:
            outcomes["typed error"] += 1
        else:
            outcomes["loaded"] += 1
    assert min(outcomes.values()) > 50, outcomes


def _config_mutation(rng, config):
    """The text of `config` with one field set to a random value, a random
    key added, or one text edit."""
    kind = rng.randrange(3)
    if kind == 0:
        edited = dict(config, **{rng.choice(sorted(config)): rng.choice(_VALUES)})
        return json.dumps(edited)
    if kind == 1:
        key = rng.choice(sorted(tr._TRAIN_KEYS | tr._LOSS_KEYS) + ["lr ", ""])
        return json.dumps(dict(config, **{key: rng.choice(_VALUES)}))
    return _mutate_text(rng, json.dumps(config))


def test_train_config_fuzz_raises_only_typed_errors(tmp_path):
    path = tmp_path / "fuzz.json"
    # every settable value, at its default, as one flat mapping
    config = dataclasses.asdict(tr.TrainConfig())
    config.update(config.pop("loss"))
    rng = random.Random(1)
    outcomes = {"loaded": 0, "typed error": 0}
    for _ in range(1500):
        text = _config_mutation(rng, config)
        # some edits leave bytes that are not UTF-8
        blob = text.encode("utf-8")
        if rng.random() < 0.05:
            blob = _mutate_bytes(rng, blob)
        path.write_bytes(blob)
        try:
            tr.load_train_config(path)
        except HypermilError:
            outcomes["typed error"] += 1
        else:
            outcomes["loaded"] += 1
    assert min(outcomes.values()) > 50, outcomes


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A small bundle, a checkpoint of its model and its slide ids."""
    root = tmp_path_factory.mktemp("fuzz-eval")
    spec = dt.SyntheticSpec(n_classes=2, slides_per_class=3, n_regions=2,
                            n_patches=2, d_in=4, n_sites=2, seed=5)
    bundle = dt.generate(spec)
    dt.write_bundle(bundle, root / "bundle.hpfb")
    params = init_params(ModelDims(d_in=4, k=2, n_classes=2), 1, bundle.class_vectors)
    save_checkpoint(params, root / "model.ckpt", meta={"curvature": 1.0})
    return root, [bag.slide_id for bag in bundle.bags]


def _split_mutation(rng, ids):
    """A split file's bytes: a random selection of known, repeated, unknown
    and mistyped ids, or a text edit of a valid list."""
    if rng.random() < 0.5:
        chosen = rng.sample(ids, rng.randrange(len(ids) + 1))
        for _ in range(rng.randrange(3)):
            pick = rng.randrange(4)
            value = (rng.choice(ids), "slide-9999", rng.choice(_VALUES),
                     rng.choice(ids)[:-1])[pick]
            chosen.insert(rng.randrange(len(chosen) + 1), value)
        return json.dumps(chosen).encode("utf-8")
    text = _mutate_text(rng, json.dumps(ids))
    blob = text.encode("utf-8")
    return _mutate_bytes(rng, blob) if rng.random() < 0.05 else blob


def test_eval_split_fuzz_exits_0_or_1_with_an_error_line(eval_inputs, capsys):
    root, ids = eval_inputs
    split = root / "split.json"
    argv = ["eval", "--data", str(root / "bundle.hpfb"),
            "--params", str(root / "model.ckpt"), "--split", str(split)]
    rng = random.Random(2)
    outcomes = {0: 0, 1: 0}
    for _ in range(300):
        split.write_bytes(_split_mutation(rng, ids))
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in outcomes, (code, err)
        if code:
            assert err.startswith("error:") and "Traceback" not in err, err
        else:
            assert out.startswith("RESULT eval slides=")
        outcomes[code] += 1
    assert min(outcomes.values()) > 30, outcomes


# what a mutated command-line value becomes: zero, negative, beyond int64,
# beyond any array size, not a finite float, beyond the float range, not a
# number, empty
_ARGV_VALUES = ("0", "-1", str(2**63), str(10**21), "nan", "inf", "1e400", "x", "")


def test_cli_argv_fuzz_exits_0_1_or_2_without_a_traceback(tmp_path, monkeypatch,
                                                          capsys):
    # `gen` at tiny sizes and `splits`; the commands that train or loop on
    # a value are left out. Relative output paths land in tmp_path.
    monkeypatch.chdir(tmp_path)
    gen = ["gen", "--classes", "2", "--slides-per-class", "3", "--regions", "2",
           "--patches", "2", "--dim", "4", "--sites", "3", "--purity", "0.5",
           "--seed", "1", "--out", "gen.bin"]
    assert main(gen) == 0
    splits = ["splits", "--data", "gen.bin", "--outer", "1", "--inner", "2",
              "--seed", "0", "--out", "splits.json"]
    assert main(splits) == 0
    capsys.readouterr()
    rng = random.Random(3)
    outcomes = {0: 0, 1: 0, 2: 0}
    for _ in range(250):
        argv = list(rng.choice((gen, splits)))
        # argv holds the command, then (option, value) pairs
        argv[rng.randrange(2, len(argv), 2)] = rng.choice(_ARGV_VALUES)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the value
            code = exc.code
        out, err = capsys.readouterr()
        assert code in outcomes, (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code == 0:
            assert out.startswith(f"RESULT {argv[0]} "), (argv, out)
        elif code == 1:
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and "RESULT" not in out, (argv, err)
        outcomes[code] += 1
    assert min(outcomes.values()) > 30, outcomes


# -- regression cases ----------------------------------------------------------------


@pytest.mark.parametrize("key", ["lr", "tau", "curvature"])
def test_config_number_beyond_the_float_range_is_a_config_error(tmp_path, key):
    # found by the config fuzz: an integer too large for a float used to end
    # in OverflowError
    path = tmp_path / "big.json"
    path.write_text(f'{{"{key}": 1{"0" * 400}}}')
    with pytest.raises(ConfigError, match=f"^{key} must be a finite number"):
        tr.load_train_config(path)
    with pytest.raises(ConfigError, match=f"^{key} must be a finite number"):
        tr.train_config_from_dict({key: -10**400})


def test_deeply_nested_json_is_a_typed_error(tmp_path, eval_inputs, capsys):
    # found by hand: JSON nested deeper than the parser's recursion limit
    # used to end in RecursionError, in each of the three JSON readers
    nested = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "nested.json"
    path.write_text(nested)
    with pytest.raises(ConfigError, match="is not valid JSON"):
        tr.load_train_config(path)
    root, _ = eval_inputs
    code = main(["eval", "--data", str(root / "bundle.hpfb"),
                 "--params", str(root / "model.ckpt"), "--split", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path} is not valid JSON")
    bundle = tmp_path / "nested.hpfb"
    dt.write_bundle(dt.read_bundle(root / "bundle.hpfb"), bundle)
    (tmp_path / "nested.hpfb.manifest.json").write_text(nested)
    with pytest.raises(FormatError, match="not valid JSON"):
        dt.read_bundle(bundle)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_patch_value_is_a_format_error(tmp_path, eval_inputs, capsys,
                                                 value):
    # found by hand: a bundle with an inf or NaN patch value was read, and
    # training then failed with a NumericalError from the adaptor
    root, _ = eval_inputs
    bundle = dt.read_bundle(root / "bundle.hpfb")
    bag = bundle.bags[2]
    regions = [region.copy() for region in bag.regions]
    regions[1][0, 3] = value
    bundle.bags[2] = dt.FeatureBag(bag.slide_id, bag.label, bag.site, regions)
    path = tmp_path / "non-finite.hpfb"
    dt.write_bundle(bundle, path)
    message = f"slide {bag.slide_id} region 1 holds a non-finite patch value"
    with pytest.raises(FormatError, match=message):
        dt.read_bundle(path)
    code = main(["train", "--data", str(path), "--out", str(tmp_path / "m.ckpt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
