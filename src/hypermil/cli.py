"""Command-line entry point.

Commands: gen, train, eval, protocol, ablate, embed, gradcheck, splits.
Every command prints one machine-parseable summary line starting with
"RESULT " and exits 0 on success, 1 on runtime failure (one-line
diagnostic on stderr), 2 on usage errors. Output files are written
atomically. Seeds in effect are always echoed so reruns are reproducible.
`protocol` and `ablate` run their folds in this process, or with `--jobs`
N > 1 on up to N forked worker processes; the output is the same.
"""

import argparse
import dataclasses
import json
import logging
import sys
from collections import Counter

import numpy as np

from . import evaluation, training
from .data import SyntheticSpec, generate, make_splits, read_bundle, write_bundle
from .errors import HypermilError, SplitError
from .fileio import atomic_write_text, read_json
from .geometry import GeometryConfig
from .model import load_checkpoint, params_from_checkpoint, save_checkpoint

log = logging.getLogger("hypermil")

_JOBS_HELP = "worker processes for the folds; 1 runs them in this process"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hypermil",
        description="Hyperbolic hierarchy learning on bag-structured features.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic feature bundle")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--slides-per-class", type=int, default=30)
    p.add_argument("--regions", type=int, default=4)
    p.add_argument("--patches", type=int, default=16)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--sites", type=int, default=6)
    p.add_argument("--purity", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train on a bundle, save a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a bundle")
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True, help="checkpoint path")
    p.add_argument("--split", default=None,
                   help="JSON file holding a list of slide ids; default all")

    p = sub.add_parser("protocol", help="nested-split evaluation protocol")
    p.add_argument("--data", required=True)
    p.add_argument("--outer", type=int, default=3)
    p.add_argument("--inner", type=int, default=5)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None, help="report file; default stdout")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)

    p = sub.add_parser("ablate", help="four-way objective ablation (3x3 protocol)")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None, help="table file; default stdout")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)

    p = sub.add_parser("embed", help="export embeddings for a bundle")
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("splits", help="write the nested split plan as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--outer", type=int, default=3)
    p.add_argument("--inner", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def _load_config(path, seed):
    cfg = training.load_train_config(path) if path else training.TrainConfig()
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _checkpoint_setup(path):
    """Load a checkpoint and rebuild its parameters and geometry."""
    params, meta = params_from_checkpoint(load_checkpoint(path))
    curvature = float(meta.get("curvature", 1.0))
    geom = GeometryConfig(curvature=curvature, dim=params.dims.k)
    return params, geom, meta


def _emit(path, text):
    if path:
        atomic_write_text(path, text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args):
    spec = SyntheticSpec(
        n_classes=args.classes,
        slides_per_class=args.slides_per_class,
        n_regions=args.regions,
        n_patches=args.patches,
        d_in=args.dim,
        n_sites=args.sites,
        purity=args.purity,
        seed=args.seed,
    )
    bundle = generate(spec)
    write_bundle(bundle, args.out)
    log.info("seed=%d", args.seed)
    print(
        f"RESULT gen slides={len(bundle.bags)} classes={spec.n_classes} "
        f"dim={spec.d_in} seed={args.seed} out={args.out}"
    )
    return 0


def _cmd_train(args):
    cfg = _load_config(args.config, args.seed)
    bundle = read_bundle(args.data)
    plan = make_splits(bundle.bags, 1, 1, seed=cfg.seed)
    split = plan.folds[0].inner[0]
    result = training.train(bundle, split, cfg)
    meta = {"curvature": cfg.curvature, "seed": float(cfg.seed)}
    save_checkpoint(result.best_params, args.out, meta=meta)
    print(
        f"RESULT train epochs={cfg.epochs} seed={cfg.seed} "
        f"val_auc={result.best_val_auc:.6f} skipped={result.skipped} "
        f"out={args.out}"
    )
    return 0


def _split_bags(path, bundle):
    """The bags a split file names: a non-empty JSON list of distinct slide
    ids."""
    wanted = read_json(path, SplitError)
    if not isinstance(wanted, list) or not all(isinstance(i, str) for i in wanted):
        raise SplitError(f"{path} must hold a JSON list of slide ids")
    if not wanted:
        raise SplitError(f"{path} names no slides")
    repeated = [i for i, n in Counter(wanted).items() if n > 1]
    if repeated:
        raise SplitError(f"{path} names slide ids more than once: "
                         f"{', '.join(repeated)}")
    by_id = {bag.slide_id: bag for bag in bundle.bags}
    missing = [i for i in wanted if i not in by_id]
    if missing:
        raise SplitError(f"{path}: slide ids not in bundle: {', '.join(missing)}")
    return [by_id[i] for i in wanted]


def _cmd_eval(args):
    bundle = read_bundle(args.data)
    params, geom, _ = _checkpoint_setup(args.params)
    bags = _split_bags(args.split, bundle) if args.split else bundle.bags
    auc, f1 = evaluation.evaluate(bags, params, geom)[:2]
    print(f"RESULT eval slides={len(bags)} auc={auc:.6f} f1={f1:.6f}")
    return 0


def _cmd_protocol(args):
    cfg = _load_config(args.config, None)
    bundle = read_bundle(args.data)
    report = evaluation.run_protocol(bundle, args.outer, args.inner, cfg,
                                     jobs=args.jobs)
    _emit(args.out, report.to_text())
    agg = report.aggregate()
    print(
        f"RESULT protocol folds={len(report.rows)} seed={cfg.seed} "
        + " ".join(f"{k}={m:.6f}" for k, (m, _) in agg.items())
    )
    return 0


def _cmd_ablate(args):
    cfg = _load_config(args.config, None)
    bundle = read_bundle(args.data)
    results = evaluation.ablate(bundle, cfg, jobs=args.jobs)
    _emit(args.out, evaluation.ablation_table(results))
    cells = " ".join(
        f"{name}={report.aggregate()['auc_ood'][0]:.6f}"
        for name, _, _, report in results
    )
    print(f"RESULT ablate seed={cfg.seed} {cells}")
    return 0


def _cmd_embed(args):
    bundle = read_bundle(args.data)
    params, geom, _ = _checkpoint_setup(args.params)
    rows = evaluation.export_embeddings(bundle.bags, params, geom, args.out)
    print(f"RESULT embed rows={rows} out={args.out}")
    return 0


def _cmd_gradcheck(args):
    errors = training.gradient_check_suite(trials=args.trials, seed=args.seed)
    worst = max(errors.values())
    for name in sorted(errors):
        print(f"{name}: max relative error {errors[name]:.3e}")
    ok = worst < 1e-4
    print(
        f"RESULT gradcheck trials={args.trials} seed={args.seed} "
        f"max_err={worst:.3e} ok={'yes' if ok else 'no'}"
    )
    return 0 if ok else 1


def _cmd_splits(args):
    bundle = read_bundle(args.data)
    plan = make_splits(bundle.bags, args.outer, args.inner, seed=args.seed)
    doc = json.dumps(dataclasses.asdict(plan), indent=2, sort_keys=True)
    atomic_write_text(args.out, doc + "\n")
    print(
        f"RESULT splits outer={args.outer} inner={args.inner} "
        f"seed={args.seed} out={args.out}"
    )
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "protocol": _cmd_protocol,
    "ablate": _cmd_ablate,
    "embed": _cmd_embed,
    "gradcheck": _cmd_gradcheck,
    "splits": _cmd_splits,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        # non-finite values end in the NaN guard's or the gradient check's
        # typed error; numpy's warnings would only print ahead of it. Forked
        # fold workers inherit the setting.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (HypermilError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
