"""End-to-end checks of the command-line interface.

Commands are exercised through main(argv) so exit codes and RESULT lines
are asserted exactly as a shell user would see them; one subprocess smoke
test covers the installed entry point.
"""

import dataclasses
import json
import os
import stat
import struct
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import hypermil
from hypermil import autodiff as ad
from hypermil import evaluation
from hypermil.cli import main
from hypermil.data import make_splits, read_bundle, write_bundle
from hypermil.model import ModelDims, init_params, save_checkpoint

GEN_ARGS = [
    "gen", "--classes", "2", "--slides-per-class", "6", "--regions", "2",
    "--patches", "3", "--dim", "8", "--sites", "2", "--seed", "11",
]
TRAIN_CONFIG = {"epochs": 1, "k": 4, "d_hidden": 8, "seed": 2}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def bundle_path(workdir):
    path = workdir / "tiny.bundle"
    assert main(GEN_ARGS + ["--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def checkpoint_path(workdir, bundle_path):
    cfg = workdir / "train.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    out = workdir / "tiny.ckpt"
    code = main(["train", "--data", str(bundle_path), "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    return out


def test_gen_writes_bundle_and_result_line(workdir, capsys):
    path = workdir / "gen-check.bundle"
    assert main(GEN_ARGS + ["--out", str(path)]) == 0
    line = capsys.readouterr().out.strip()
    assert line == (
        f"RESULT gen slides=12 classes=2 dim=8 seed=11 out={path}"
    )
    assert path.exists()
    assert path.with_name(path.name + ".manifest.json").exists()


def test_gen_deterministic_bytes(workdir):
    a = workdir / "det-a.bundle"
    b = workdir / "det-b.bundle"
    assert main(GEN_ARGS + ["--out", str(a)]) == 0
    assert main(GEN_ARGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_outputs_follow_the_umask_and_keep_a_replaced_files_mode(workdir):
    path = workdir / "modes.bundle"
    manifest = path.with_name(path.name + ".manifest.json")
    old = os.umask(0o022)
    try:
        assert main(GEN_ARGS + ["--out", str(path)]) == 0
        assert [stat.S_IMODE(p.stat().st_mode) for p in (path, manifest)] == [0o644] * 2
        # overwriting keeps the mode the file had, as open() does
        path.chmod(0o640)
        assert main(GEN_ARGS + ["--out", str(path)]) == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert stat.S_IMODE(manifest.stat().st_mode) == 0o644
    finally:
        os.umask(old)
    # no temp file is left behind
    assert not [p for p in workdir.iterdir() if p.name.startswith(".tmp-")]


def test_gen_unwritable_path_fails(capsys):
    code = main(GEN_ARGS + ["--out", "/nonexistent-dir/x.bundle"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("target, reason", [
    ("missing/b.bin", "No such file or directory"),
    ("d", "Is a directory"),
], ids=["missing directory", "directory"])
def test_failed_write_names_the_target_and_leaves_no_temp_file(tmp_path, capsys,
                                                              target, reason):
    # the temp file the write goes through is not a name the user gave
    (tmp_path / "d").mkdir()
    out = tmp_path / target
    assert main(GEN_ARGS + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{reason}: '{out}'\n"), err
    assert ".tmp-" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["d"]


def test_train_reports_seed_and_checkpoint(workdir, bundle_path, capsys):
    cfg = workdir / "train-seed.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    out = workdir / "seed-override.ckpt"
    code = main(["train", "--data", str(bundle_path), "--config", str(cfg),
                 "--seed", "5", "--out", str(out)])
    line = capsys.readouterr().out.strip()
    assert code == 0
    assert line.startswith("RESULT train epochs=1 seed=5 val_auc=")
    assert out.exists()


def test_train_rejects_unknown_config_key(workdir, bundle_path, capsys):
    cfg = workdir / "bad.json"
    cfg.write_text(json.dumps({"epochs": 1, "bogus": 3}))
    code = main(["train", "--data", str(bundle_path), "--config", str(cfg),
                 "--out", str(workdir / "never.ckpt")])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_train_rejects_mistyped_config_value(workdir, bundle_path, capsys):
    for i, text in enumerate(('{"epochs": 1, "lr": "fast"}', '{"epochs": 1,')):
        cfg = workdir / f"mistyped-{i}.json"
        cfg.write_text(text)
        code = main(["train", "--data", str(bundle_path), "--config", str(cfg),
                     "--out", str(workdir / "never.ckpt")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def test_train_overflow_is_one_error_line(workdir, capsys):
    # a huge curvature overflows the exponential map: the NaN guard's error
    # is the one line on stderr, with no numpy warning ahead of it
    path = workdir / "overflow.bundle"
    assert main(["gen", "--slides-per-class", "4", "--out", str(path)]) == 0
    cfg = workdir / "overflow.json"
    cfg.write_text(json.dumps({"epochs": 1, "curvature": 1e300}))
    capsys.readouterr()
    code = main(["train", "--data", str(path), "--config", str(cfg),
                 "--out", str(workdir / "never.ckpt")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("field", ["d_hidden", "k"])
def test_train_rejects_dimensions_beyond_memory(workdir, bundle_path, capsys, field):
    # 2**62 rows are beyond numpy's size limit: refused before any allocation
    cfg = workdir / f"huge-{field}.json"
    cfg.write_text(json.dumps({"epochs": 1, field: 2**62}))
    code = main(["train", "--data", str(bundle_path), "--config", str(cfg),
                 "--out", str(workdir / "never.ckpt")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{field}={2**62}" in err and "do not fit in memory" in err


def test_eval_full_bundle(bundle_path, checkpoint_path, capsys):
    code = main(["eval", "--data", str(bundle_path),
                 "--params", str(checkpoint_path)])
    line = capsys.readouterr().out.strip()
    assert code == 0
    assert line.startswith("RESULT eval slides=12 auc=")


def test_eval_split_subset(workdir, bundle_path, checkpoint_path, capsys):
    split = workdir / "subset.json"
    split.write_text(json.dumps(["slide-0000", "slide-0001", "slide-0003",
                                 "slide-0007"]))
    code = main(["eval", "--data", str(bundle_path),
                 "--params", str(checkpoint_path), "--split", str(split)])
    line = capsys.readouterr().out.strip()
    assert code == 0
    assert "slides=4" in line


def test_eval_split_unknown_id(workdir, bundle_path, checkpoint_path, capsys):
    split = workdir / "missing.json"
    split.write_text(json.dumps(["slide-9999"]))
    code = main(["eval", "--data", str(bundle_path),
                 "--params", str(checkpoint_path), "--split", str(split)])
    assert code == 1
    assert "slide-9999" in capsys.readouterr().err


def test_eval_split_must_be_list(workdir, bundle_path, checkpoint_path, capsys):
    split = workdir / "dict.json"
    split.write_text(json.dumps({"ids": []}))
    code = main(["eval", "--data", str(bundle_path),
                 "--params", str(checkpoint_path), "--split", str(split)])
    assert code == 1
    assert "list" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["not json", "[1, 2]", '[["x"]]', "[]",
                                  '["slide-0000", "slide-0000", "slide-0004"]'])
def test_eval_malformed_split_is_a_split_error(workdir, bundle_path,
                                               checkpoint_path, capsys, text):
    split = workdir / "malformed.json"
    split.write_text(text)
    code = main(["eval", "--data", str(bundle_path),
                 "--params", str(checkpoint_path), "--split", str(split)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(split) in err


def test_eval_labels_beyond_the_model_classes(workdir, checkpoint_path, capsys):
    path = workdir / "three-class.bundle"
    args = GEN_ARGS[:]
    args[args.index("--classes") + 1] = "3"
    assert main(args + ["--out", str(path)]) == 0
    capsys.readouterr()
    code = main(["eval", "--data", str(path), "--params", str(checkpoint_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "slide-0012" in err


def test_eval_missing_data_file(checkpoint_path, capsys):
    code = main(["eval", "--data", "/nonexistent.bundle",
                 "--params", str(checkpoint_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_eval_misshapen_checkpoint_is_an_error(workdir, bundle_path, capsys):
    params = init_params(ModelDims(d_in=8, k=4, d_hidden=8, n_classes=2), 0)
    params.adaptor_i.w1 = ad.Tensor(np.zeros((5, 8)))
    path = workdir / "misshapen.ckpt"
    save_checkpoint(params, path)
    code = main(["eval", "--data", str(bundle_path), "--params", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "adaptor_i.w1" in err


def test_eval_checkpoint_name_not_utf8_is_an_error(workdir, bundle_path,
                                                  checkpoint_path, capsys):
    blob = bytearray(checkpoint_path.read_bytes())
    blob[13] = 0xFF  # the first byte of the first record name
    path = workdir / "bad-name.ckpt"
    path.write_bytes(bytes(blob))
    code = main(["eval", "--data", str(bundle_path), "--params", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err


def test_eval_repeated_checkpoint_record_is_an_error(workdir, bundle_path,
                                                   checkpoint_path, capsys):
    # a second agg_region.w2 record of the right shape, [1 x 1] at k = 4
    name = b"agg_region.w2"
    record = (struct.pack("<I", len(name)) + name + struct.pack("<I2Q", 2, 1, 1)
              + struct.pack("<d", 5.0))
    path = workdir / "repeated.ckpt"
    path.write_bytes(checkpoint_path.read_bytes() + record)
    code = main(["eval", "--data", str(bundle_path), "--params", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "repeats the record agg_region.w2" in err


def test_eval_infinite_curvature_is_an_error(workdir, bundle_path, capsys):
    params = init_params(ModelDims(d_in=8, k=4, d_hidden=8, n_classes=2), 0)
    path = workdir / "inf-curvature.ckpt"
    save_checkpoint(params, path, {"curvature": float("inf")})
    code = main(["eval", "--data", str(bundle_path), "--params", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "curvature" in err


def test_protocol_writes_report(workdir, bundle_path, capsys):
    cfg = workdir / "proto.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    report = workdir / "report.txt"
    code = main(["protocol", "--data", str(bundle_path), "--outer", "2",
                 "--inner", "2", "--config", str(cfg), "--out", str(report)])
    line = capsys.readouterr().out.strip()
    assert code == 0
    assert "RESULT protocol folds=4" in line
    assert "auc_ind=" in line
    text = report.read_text()
    assert text.startswith("fold outer=0")
    assert "summary" in text


def test_protocol_and_ablate_reject_negative_jobs(workdir, bundle_path, capsys):
    cfg = workdir / "jobs.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    for command in ("protocol", "ablate"):
        code = main([command, "--data", str(bundle_path), "--config", str(cfg),
                     "--jobs", "-2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "jobs" in err


def test_protocol_pool_fold_error_is_one_error_line(workdir, bundle_path, capfd):
    # all-zero patches put every point at the origin: each fold's training
    # raises TrainingError in its worker process
    bundle = read_bundle(bundle_path)
    bundle.bags[:] = [
        dataclasses.replace(bag, regions=[np.zeros_like(r) for r in bag.regions])
        for bag in bundle.bags]
    path = workdir / "zero.bundle"
    write_bundle(bundle, path)
    cfg = workdir / "zero.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    code = main(["protocol", "--data", str(path), "--outer", "2", "--inner", "1",
                 "--config", str(cfg), "--jobs", "2"])
    out, err = capfd.readouterr()
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "degenerate geometry" in errors[0], err
    assert "Traceback" not in err and "RESULT" not in out


def _dying_fold(task, inputs=None):
    # a fold worker that ends abruptly, as one the out-of-memory killer stops
    os._exit(3)


@pytest.mark.parametrize("command", [["protocol", "--outer", "2", "--inner", "1"],
                                     ["ablate"]], ids=" ".join)
def test_pool_worker_death_is_one_error_line(workdir, capfd, monkeypatch, command):
    # three sites, so that `ablate` has an outer fold to hold out
    path = workdir / "three-sites.bundle"
    if not path.exists():
        assert main(["gen", "--classes", "2", "--slides-per-class", "9",
                     "--regions", "2", "--patches", "3", "--dim", "8",
                     "--sites", "3", "--seed", "11", "--out", str(path)]) == 0
        capfd.readouterr()
    cfg = workdir / "dying.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    monkeypatch.setattr(evaluation, "_fold", _dying_fold)
    code = main(command + ["--data", str(path), "--config", str(cfg), "--jobs", "2"])
    out, err = capfd.readouterr()
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "ended abruptly" in errors[0], err
    assert "Traceback" not in err and "RESULT" not in out


@pytest.mark.parametrize("argv", [
    ["protocol", "--outer", "0"],
    ["protocol", "--inner", "-1"],
    ["gen", "--purity", "nan"],
    ["gen", "--regions", "4000000000000"],
    ["gen", "--sites", str(10**21)],
    ["gen", "--slides-per-class", str(10**21)],
    ["splits", "--outer", "1", "--inner", str(10**21)],
    ["protocol", "--outer", "1", "--inner", str(10**21)],
    ["gradcheck", "--trials", "0"],
    ["splits", "--seed", "-3"],
], ids=" ".join)
def test_parsed_but_bad_argv_is_an_error_line(workdir, bundle_path, capsys, argv):
    if argv[0] in ("protocol", "splits"):
        argv = argv + ["--data", str(bundle_path)]
    if argv[0] in ("gen", "splits"):
        argv = argv + ["--out", str(workdir / "never-written")]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err, err
    assert "RESULT" not in out
    assert not (workdir / "never-written").exists()


def test_train_rejects_a_boolean_label(workdir, bundle_path, capsys):
    manifest = bundle_path.with_name(bundle_path.name + ".manifest.json")
    doc = json.loads(manifest.read_text())
    doc["slides"][0]["label"] = True
    bad = workdir / "bool-label.bundle"
    bad.write_bytes(bundle_path.read_bytes())
    bad.with_name(bad.name + ".manifest.json").write_text(json.dumps(doc))
    cfg = workdir / "bool-label.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    code = main(["train", "--data", str(bad), "--config", str(cfg),
                 "--out", str(workdir / "never.ckpt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "label of type bool" in err


@pytest.mark.parametrize("argv, count", [
    ([arg if arg != "6" else "1000000000" for arg in GEN_ARGS], "2000000000 slides"),
    (["splits", "--outer", "1", "--inner", "1000000000"], "1 x 1000000000 outer"),
], ids=("gen", "splits"))
def test_counts_beyond_memory_are_one_error_line_without_allocating(
        workdir, bundle_path, capsys, argv, count):
    if argv[0] == "splits":
        argv = argv + ["--data", str(bundle_path)]
    argv = argv + ["--out", str(workdir / "never-written")]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "physical memory" in errors[0], err
    assert count in errors[0] and "RESULT" not in out
    assert elapsed < 1.0 and peak < 4 * 2**20, (elapsed, peak)
    assert not (workdir / "never-written").exists()


def test_splits_plan_roundtrips(workdir, bundle_path, capsys):
    out = workdir / "plan.json"
    code = main(["splits", "--data", str(bundle_path), "--outer", "2",
                 "--inner", "2", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert "RESULT splits outer=2 inner=2 seed=3" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["seed"] == 3
    assert len(doc["folds"]) == 2
    plan = make_splits(read_bundle(bundle_path).bags, 2, 2, seed=3)
    for fold, want in zip(doc["folds"], plan.folds, strict=True):
        assert not set(fold["ind_sites"]) & set(fold["ood_sites"])
        assert len(fold["inner"]) == 2
        for key in ("ind_sites", "ood_sites", "ood_ids"):
            assert fold[key] == list(getattr(want, key)), key
        for split, want_split in zip(fold["inner"], want.inner, strict=True):
            for key in ("train_ids", "val_ids", "test_ids"):
                assert split[key] == list(getattr(want_split, key)), key


def test_embed_exports_rows(workdir, bundle_path, checkpoint_path, capsys):
    out = workdir / "emb.csv"
    code = main(["embed", "--data", str(bundle_path),
                 "--params", str(checkpoint_path), "--out", str(out)])
    line = capsys.readouterr().out.strip()
    assert code == 0
    rows = int(line.split("rows=")[1].split()[0])
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("level,")
    assert len(lines) - 1 == rows
    assert rows > 12


def test_ablate_needs_three_sites(workdir, bundle_path, capsys):
    cfg = workdir / "abl.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    code = main(["ablate", "--data", str(bundle_path), "--config", str(cfg)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_gradcheck_ok_line(capsys):
    code = main(["gradcheck", "--trials", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT gradcheck trials=1 seed=0" in out
    assert "ok=yes" in out


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_gradcheck_rejects_no_trials(capsys, trials):
    code = main(["gradcheck", "--trials", trials, "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "RESULT" not in captured.out
    assert "trials" in captured.err


def test_negative_seed_is_an_error(workdir, bundle_path, capsys):
    commands = [
        GEN_ARGS[:-1] + ["-1", "--out", str(workdir / "never.bundle")],
        ["splits", "--data", str(bundle_path), "--outer", "2", "--inner", "2",
         "--seed", "-1", "--out", str(workdir / "never-plan.json")],
        ["gradcheck", "--trials", "1", "--seed", "-1"],
    ]
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv[0]
        assert "seed" in captured.err, argv[0]
        assert "RESULT" not in captured.out, argv[0]


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gen"])  # --out is required
    assert exc.value.code == 2


def test_entry_point_subprocess(workdir):
    path = workdir / "sub.bundle"
    # the child imports the package from where this process found it, also
    # when that is a source checkout on pytest's own path only
    package_dir = os.path.dirname(os.path.dirname(hypermil.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hypermil.cli"] + GEN_ARGS + ["--out", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("RESULT gen")
