"""The benchmark's workloads, each driving hypermil's public API.

Every workload has three steps. `setup` makes the inputs from the workload
seed and round-trips them through the package's file formats. `run` does
operation `i` and returns the seconds behind its end-to-end figure with its
output. `check` verifies that output outside the timed region. A workload's
inputs come in `parts(st)` parts; operation `i` works on part
`i % parts(st)`, so consecutive operations cycle through all the inputs.
Why each workload exists is in README.md next to this file.
"""

import os
import time
from collections import namedtuple
from dataclasses import replace

import numpy as np

# one checked operation: its end-to-end figure in ms, the work it attempted
# and how much of that failed, the unit count per-layer times are divided
# by, and per-bag predict latencies where the workload takes them. `figure`
# on each workload names that figure the way the workload's users know it.
Outcome = namedtuple(
    "Outcome", "figure_ms attempted failed problems layer_units latencies"
)


def _in_unit_interval(x):
    return bool(np.isfinite(x)) and 0.0 <= x <= 1.0


def _bundle_problems(original, loaded):
    same = len(original.bags) == len(loaded.bags) and all(
        a.slide_id == b.slide_id and a.label == b.label and a.site == b.site
        and len(a.regions) == len(b.regions)
        and all(np.array_equal(x, y) for x, y in zip(a.regions, b.regions))
        for a, b in zip(original.bags, loaded.bags)
    )
    return [] if same else ["bundle changed in the write/read round trip"]


def _round_trip(hm, spec, workdir, name):
    bundle = hm.generate(spec)
    path = os.path.join(workdir, name)
    hm.write_bundle(bundle, path)
    loaded = hm.read_bundle(path)
    return loaded, _bundle_problems(bundle, loaded)


def _stratified_parts(ids, label_of, n):
    """`ids` cut into n parts; each part takes an equal slice of every class,
    so each holds every class the whole does."""
    by_class = {}
    for i in ids:
        by_class.setdefault(label_of[i], []).append(i)
    parts = [[] for _ in range(n)]
    for members in by_class.values():
        for part, chunk in zip(parts, np.array_split(np.array(members), n)):
            part += chunk.tolist()
    return [tuple(p) for p in parts]


def _same(reference, i, arrays):
    """True when `arrays` equal what part i gave first; stores them then."""
    if i not in reference:
        reference[i] = arrays
        return True
    return all(np.array_equal(a, b) for a, b in zip(arrays, reference[i]))


def _score_problems(scores, auc, f1):
    problems = []
    if not (np.all(np.isfinite(scores)) and np.all(scores >= 0.0)):
        problems.append("evaluate produced a negative or non-finite probability")
    if not np.allclose(scores.sum(axis=1), 1.0, rtol=0.0, atol=1e-12):
        problems.append("evaluate rows do not sum to 1")
    if not (_in_unit_interval(auc) and _in_unit_interval(f1)):
        problems.append(f"AUC {auc} or F1 {f1} outside [0, 1]")
    return problems


class Train:
    """One `train()` call per operation, on one sixth of the 54/18 split.

    The host's speed is sampled before every operation, so short
    operations sample it often. A call on a sixth (9 train and 3 val slides,
    every class in each) costs the same per slide step as one on the whole
    split.
    """

    name = "train"
    figure = ("train_ms_per_slide", "ms", 1.0)
    jobs = 1
    epochs = 1
    n_parts = 6

    def setup(self, hm, seed, workdir):
        bundle, problems = _round_trip(hm, hm.SyntheticSpec(seed=seed), workdir,
                                       "train.bin")
        split = hm.make_splits(bundle.bags, 1, 1, seed=seed).folds[0].inner[0]
        label_of = {bag.slide_id: bag.label for bag in bundle.bags}
        splits = [
            replace(split, train_ids=t, val_ids=v)
            for t, v in zip(_stratified_parts(split.train_ids, label_of, self.n_parts),
                            _stratified_parts(split.val_ids, label_of, self.n_parts))
        ]
        cfg = hm.TrainConfig(epochs=self.epochs, seed=seed)
        state = {"bundle": bundle, "splits": splits, "cfg": cfg, "reference": {}}
        return state, problems

    def parts(self, st):
        return len(st["splits"])

    def run(self, hm, st, i):
        split = st["splits"][i % self.parts(st)]
        return _timed(hm.train, st["bundle"], split, st["cfg"])

    def attempted(self, st, i):
        split = st["splits"][i % self.parts(st)]
        return st["cfg"].epochs * len(split.train_ids)  # slide steps

    def check(self, hm, st, i, result, wall):
        split, cfg = st["splits"][i % self.parts(st)], st["cfg"]
        steps = self.attempted(st, i)
        problems = []
        for epoch in result.log:
            if not np.isfinite(epoch.train_loss):
                problems.append(f"epoch {epoch.epoch} loss is not finite")
            if not (_in_unit_interval(epoch.val_auc)
                    and _in_unit_interval(epoch.val_f1)):
                problems.append(f"epoch {epoch.epoch} validation AUC/F1 outside [0, 1]")
        by_id = {bag.slide_id: bag for bag in st["bundle"].bags}
        val_bags = [by_id[v] for v in split.val_ids]
        auc, f1, scores, _ = hm.evaluate(val_bags, result.best_params, cfg.geometry())
        problems += _score_problems(scores, auc, f1)
        arrays = [t.data for _, t in result.params.named()]
        if not _same(st["reference"], i % self.parts(st), arrays):
            problems.append("train() is not deterministic across calls")
        failed = steps if problems else result.skipped
        return Outcome(1000.0 * wall / steps, steps, failed, problems, steps, ())


class Protocol:
    """One 3 x 5 nested-site `run_protocol` per operation, on two threads."""

    name = "protocol"
    figure = ("protocol_s", "s", 1e-3)
    jobs = 2
    epochs = 1
    n_outer, n_inner = 3, 5

    def setup(self, hm, seed, workdir):
        bundle, problems = _round_trip(hm, hm.SyntheticSpec(seed=seed), workdir,
                                       "protocol.bin")
        cfg = hm.TrainConfig(epochs=self.epochs, seed=seed)
        return {"bundle": bundle, "cfg": cfg, "reference": None}, problems

    def parts(self, st):
        return 1

    def run(self, hm, st, i):
        return _timed(hm.run_protocol, st["bundle"], self.n_outer, self.n_inner,
                      st["cfg"], jobs=self.jobs)

    def attempted(self, st, i):
        return self.n_outer * self.n_inner  # folds

    def check(self, hm, st, i, report, wall):
        folds = self.attempted(st, i)
        problems = []
        if len(report.rows) != folds:
            problems.append(f"protocol returned {len(report.rows)} of {folds} folds")
        for r in report.rows:
            if not all(_in_unit_interval(v) for v in
                       (r.auc_ind, r.f1_ind, r.auc_ood, r.f1_ood)):
                problems.append(f"fold {r.outer}/{r.inner} has AUC/F1 outside [0, 1]")
        if st["reference"] is None:
            st["reference"] = report.rows
        elif report.rows != st["reference"]:
            problems.append("run_protocol is not deterministic across calls")
        return Outcome(1000.0 * wall, folds, folds if problems else 0, problems, 1, ())


class EvalWide:
    """`evaluate()` over one of 17 parts of 102 wide bags per operation, plus
    one timed `predict()` per bag of the part, with parameters round-tripped
    through a checkpoint.

    Each part holds 2 bags of every class, so AUC and F1 are defined on it;
    17 operations make one pass over all the bags. Short operations let the
    host's speed, sampled before each, be sampled often.
    """

    name = "eval-wide"
    figure = ("eval_ms_per_bag", "ms", 1.0)
    jobs = 0
    slides_per_class = 34  # x 3 classes = 102 bags
    n_regions = 32
    n_parts = 17

    def setup(self, hm, seed, workdir):
        spec = hm.SyntheticSpec(slides_per_class=self.slides_per_class,
                                n_regions=self.n_regions, seed=seed)
        bundle, problems = _round_trip(hm, spec, workdir, "wide.bin")
        cfg = hm.TrainConfig(seed=seed)
        dims = hm.ModelDims(d_in=bundle.dim, k=cfg.k,
                            n_classes=len(bundle.class_vectors))
        fresh = hm.init_params(dims, seed, bundle.class_vectors)
        path = os.path.join(workdir, "wide.ckpt")
        hm.save_checkpoint(fresh, path)
        params, _ = hm.params_from_checkpoint(hm.load_checkpoint(path))
        if not all(np.array_equal(a.data, b.data) for (_, a), (_, b)
                   in zip(fresh.named(), params.named())):
            problems.append("parameters changed in the checkpoint round trip")
        by_id = {bag.slide_id: bag for bag in bundle.bags}
        label_of = {bag.slide_id: bag.label for bag in bundle.bags}
        parts = [[by_id[s] for s in part] for part in
                 _stratified_parts(list(by_id), label_of, self.n_parts)]
        state = {"parts": parts, "params": params, "geom": cfg.geometry(),
                 "reference": {}}
        return state, problems

    def parts(self, st):
        return len(st["parts"])

    def run(self, hm, st, i):
        # the figure is the evaluate call alone; predict latencies ride along
        bags = st["parts"][i % self.parts(st)]
        params, geom = st["params"], st["geom"]
        wall, evaluated = _timed(hm.evaluate, bags, params, geom)
        predicted = [_timed(hm.predict, bag, params, geom) for bag in bags]
        return wall, (evaluated, predicted)

    def attempted(self, st, i):
        # bags scored by evaluate and by predict
        return 2 * len(st["parts"][i % self.parts(st)])

    def check(self, hm, st, i, output, wall):
        (auc, f1, scores, _), predicted = output
        n = len(st["parts"][i % self.parts(st)])
        problems = _score_problems(scores, auc, f1)
        mismatched = sum(
            1 for (_, p), row in zip(predicted, scores) if not np.array_equal(p, row)
        )
        if mismatched:
            problems.append(f"{mismatched} predict() rows differ from evaluate()")
        if not _same(st["reference"], i % self.parts(st), [scores]):
            problems.append("evaluate() is not deterministic across calls")
        latencies = tuple(1000.0 * dt for dt, _ in predicted)
        scored = self.attempted(st, i)
        return Outcome(1000.0 * wall / n, scored, scored if problems else 0,
                       problems, scored, latencies)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


WORKLOADS = {w.name: w for w in (Train(), Protocol(), EvalWide())}
