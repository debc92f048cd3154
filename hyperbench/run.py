"""Run one hypermil benchmark workload and print its metrics.

    python3 hyperbench/run.py --workload train --seed 1 --seconds 55 --trace 0

Run from the repository root. The package is imported from `src/` of the
checkout this file sits in; without it the run fails before measuring.
`--trace 0` prints the end-to-end metrics, with times corrected to the
speed of an idle core (see reference.py); `--trace 1` prints the per-layer
ones from a run that alternates untraced and traced operations. The last line
of standard output is one JSON object; the lines before it record the
environment and the workload's figures under their own names. README.md
next to this file describes the workloads and metrics.
"""

import os

# pin native thread pools before numpy loads, so the protocol's two fold
# threads never run more threads than this machine has cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import layers  # noqa: E402
from reference import HostSpeed  # noqa: E402
from tracing import Tracer, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5
SPEED_SAMPLES = 5  # reference loops before and after each set-up
IMPORT_PROBE = ("import time; t = time.perf_counter(); import hypermil; "
                "print(time.perf_counter() - t)")


def load_package():
    if not os.path.isfile(os.path.join(SRC, "hypermil", "__init__.py")):
        raise SystemExit(f"hyperbench: no hypermil sources under {SRC}")
    sys.path.insert(0, SRC)
    import hypermil

    if not os.path.abspath(hypermil.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hyperbench: imported hypermil from {hypermil.__file__}")
    return hypermil


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def environment(hm, seed):
    import numpy

    return {
        "backend": hm.backend.name(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.node(),
        "arch": platform.machine(),
        "seed": seed,
    }


def run_op(hm, wl, st, i, tracer, targets):
    """(whole-operation seconds, checked Outcome) of operation i, traced
    when `targets` is not empty."""
    t0 = time.perf_counter()
    try:
        with tracer.installed(targets):
            figure_wall, out = wl.run(hm, st, i)
    except hm.HypermilError as exc:
        n = wl.attempted(st, i)
        return time.perf_counter() - t0, Outcome(None, n, n, [repr(exc)], n, ())
    wall = time.perf_counter() - t0
    return wall, wl.check(hm, st, i, out, figure_wall)


def measure(hm, wl, seed, seconds, trace, workdir):
    targets = layers.targets(hm) if trace else ()
    setup_tracer = Tracer()
    setup_times = []  # (seconds, host slowdown around them)
    problems = []
    for _ in range(SETUP_REPS):
        speed = HostSpeed()
        for _ in range(SPEED_SAMPLES):
            speed.sample()
        imported = import_seconds()
        t0 = time.perf_counter()
        with setup_tracer.installed(targets):
            st, found = wl.setup(hm, seed, workdir)
        seconds_taken = imported + time.perf_counter() - t0
        for _ in range(SPEED_SAMPLES):
            speed.sample()
        setup_times.append((seconds_taken, speed.slowdown()))
        problems += found

    op_tracer = Tracer(fold_root=layers.FOLD_ROOT)
    op_speed = HostSpeed()
    outcomes, traced, ratios = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    # run until the deadline, and through every part of the inputs at least once
    while True:
        op_speed.sample()
        if trace:
            # the same part untraced then traced, so each pair prices the tracing
            plain_wall, plain = run_op(hm, wl, st, i, op_tracer, ())
            wall, outcome = run_op(hm, wl, st, i, op_tracer, targets)
            outcomes += [plain, outcome]
            traced.append((wall, outcome))
            ratios.append(wall / plain_wall)
        else:
            outcomes.append(run_op(hm, wl, st, i, op_tracer, ())[1])
        i += 1
        if time.perf_counter() >= deadline and i >= wl.parts(st):
            break

    for o in outcomes:
        problems += o.problems
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    figures = [o.figure_ms for o in outcomes if o.figure_ms is not None]
    report = {
        "workload": wl.name,
        "trace": trace,
        "operations": len(outcomes),
        "failed_share": failed / attempted,
        "problems": problems,
    }
    if trace:
        units = sum(o.layer_units for _, o in traced)
        op_wall = sum(w for w, _ in traced)
        per_layer = layers.metrics(setup_tracer, SETUP_REPS, op_tracer, units,
                                   op_wall, wl.jobs,
                                   statistics.median(ratios) - 1.0)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = end_to_end(wl, setup_times, figures, op_speed, outcomes, report)
    result = {
        "correct": not problems and bool(figures),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report, op_tracer


def end_to_end(wl, setup_times, figures, op_speed, outcomes, report):
    """The gated metrics; the report gets the measured times under the
    workload's own names.

    Other tenants of a shared host slow a core by up to 2x, in stretches
    from a fraction of a second to minutes, so any statistic of the
    measured times moves with their load. The gated times are therefore
    given at the speed of an idle core: divided by the host's slowdown,
    sampled with the reference loop between operations and around each
    set-up.

    `ms_per_op` is the mean figure of the run's operations over the mean
    slowdown of the run. With the same work in every operation, the mean
    figure is the run's total figure time over its total work. `setup_s`
    is the median over the set-ups of each one's time over its slowdown.
    """
    setup_s = statistics.median(t / slowdown for t, slowdown in setup_times)
    mean = statistics.fmean(figures) if figures else None
    ms_per_op = mean / op_speed.slowdown() if figures else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    name, unit, scale = wl.figure
    report["setup_s_measured"] = statistics.median(t for t, _ in setup_times)
    report["host_slowdown"] = {
        "operations": op_speed.slowdown(),
        "setups": statistics.median(slowdown for _, slowdown in setup_times),
        "samples": len(op_speed.samples),
    }
    report["peak_rss_mb"] = rss_mb
    if figures:
        report[name] = {"mean": mean * scale, "best": min(figures) * scale,
                        "median": statistics.median(figures) * scale,
                        "samples": len(figures), "unit": unit}
    latencies = [x for o in outcomes for x in o.latencies]
    if latencies:
        # p90 needs ten samples past it; a run scores every one of eval-wide's
        # 102 bags at least once
        report["predict_samples"] = len(latencies)
        report["predict_p50_ms"] = statistics.median(latencies)
        report["predict_p90_ms"] = tail_percentile(latencies, ladder=(90.0,))[1]
        pct, value, _ = tail_percentile(latencies)
        report["predict_tail"] = {"percentile": pct, "ms": value}
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ms_per_op": {"value": ms_per_op, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def write_spans(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s._asdict()) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write every span "
                        "of the traced operations to this JSON-lines file")
    args = parser.parse_args(argv)

    hm = load_package()
    wl = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(hm, args.seed)), flush=True)
    workdir = tempfile.mkdtemp(prefix=".hyperbench-", dir=ROOT)
    try:
        result, report, tracer = measure(hm, wl, args.seed, args.seconds,
                                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace and args.spans:
        write_spans(tracer, args.spans)
    for problem in report["problems"]:
        print(f"hyperbench: check failed: {problem}", file=sys.stderr)
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
