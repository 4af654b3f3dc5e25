"""Benchmark of octicmoduli: three workloads, one result line.

    python3 perfbench/run.py --workload census_p11 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that has src/octicmoduli.  Every run
gets a private, empty OCTICMODULI_CACHE under .perfbench_tmp/ in the
checkout, removed at the end, so no user cache changes what is read and no
derived artifact outlives the run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, the per-layer metrics with --trace 1.  The line before it
("info") records the environment, the workload's own named figures and
every failed operation.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from refclock import NOMINAL_S, SETUP_EXPONENT, RefClock
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("census_p11", "models_p11", "rational_q")

#: set-ups timed in fresh processes, besides the run's own
SETUP_PROBES = 4


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[min(len(ordered), int(rank)) - 1]


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "octicmoduli")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _git_sha():
    """HEAD of the checkout, when it is a git repository of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment():
    import numpy
    return {
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def _probe_setup(workload, tmp):
    """Set-up seconds measured in a fresh process with its own cache."""
    env = dict(os.environ, OCTICMODULI_CACHE=tempfile.mkdtemp(dir=tmp))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload], env=env, capture_output=True, text=True,
        timeout=170)
    if out.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % out.stderr.strip())
    return float(out.stdout.strip().splitlines()[-1])


def _scaled_setup(clock, measure):
    """Raw and reference-speed seconds of one set-up, with kernel samples
    taken just before and after it."""
    clock.sample()
    seconds = measure()
    clock.sample()
    return seconds, seconds * clock.factor(*clock.stamps[-2:], SETUP_EXPONENT)


def _setup(workload, tracer=None):
    """Import the package and do the workload's lazy loads; seconds."""
    t0 = time.perf_counter()
    import workloads
    if tracer is not None:
        tracer.install()
    workloads.setup(workload)
    return time.perf_counter() - t0


def _layer_metrics(workload_run, figures, tracer, at_setup, scale):
    """Per-layer values: the set-up once plus one iteration's share of the
    loop (loop totals divided by the number of iterations).  Span seconds
    are multiplied by scale; class_model means come from figures."""
    n = workload_run.iterations

    def per_iteration(name, field):
        before = getattr(at_setup.get(name), field, 0)
        return before + (getattr(tracer.stat(name), field) - before) / n

    out = {}
    for layer, names in LAYERS.items():
        for fn in names:
            name = "%s.%s" % (layer, fn)
            out[name + ".s"] = (per_iteration(name, "total_s") * scale, "s")
            out[name + ".self_s"] = (
                per_iteration(name, "self_s") * scale, "s")
            out[name + ".calls"] = (per_iteration(name, "calls"), "count")
            out[name + ".failed"] = (per_iteration(name, "failed"), "count")
    out["census_fast.moduli_rows.rows"] = (
        per_iteration("census_fast.moduli_rows", "work"), "count")
    out["store.write_artifact.bytes"] = (
        per_iteration("store.write_artifact", "work"), "bytes")
    for key, value in workload_run.extra.items():
        out[key] = (value / n, "count")
    for label, times in figures.by_stratum.items():
        out["census.class_model.%s.mean_ms" % label] = (
            statistics.fmean(times) * 1e3, "ms")
    return out


def _latency_ms(figures, q):
    """Median over the iterations of each iteration's q-th percentile.  An
    iteration runs the same mix of calls every time; pooled over a varying
    number of iterations, a percentile would move between the costs of
    different kinds of call."""
    return statistics.median(
        _percentile(times, q) for times in figures.latency) * 1e3


def _end_to_end(run, figures, setup_s, peak_rss_mb):
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_per_s": (figures.ops_per_s(), "1/s"),
        "op_p50_ms": (_latency_ms(figures, 50), "ms"),
        "op_p90_ms": (_latency_ms(figures, 90), "ms"),
        "work_unit_s": (statistics.median(figures.units), "s"),
    }


def _named_metrics(run, figures, setup_s, peak_rss_mb):
    """The workload's figures under the names used in the docs."""
    def p50(kind):
        return statistics.median(t for t, _ in figures.kinds[kind]) * 1e3

    attempted = len(run.calls)
    failed = sum(not call[3] for call in run.calls)
    named = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
             "fail_frac": failed / attempted}
    if run.workload == "census_p11":
        named["census_s"] = p50("census") / 1e3
    elif run.workload == "models_p11":
        model_ms = [t * 1e3 for t, _ in figures.kinds["class_model"]]
        named.update(
            models_per_s=figures.ops_per_s(),
            model_p50_ms=p50("class_model"),
            model_p90_ms=_percentile(model_ms, 90),
            model_census_est_s=statistics.median(figures.units),
            iso_p50_ms=p50("find_isomorphism"))
    else:
        named.update(derive_s=p50("derive_syzygies") / 1e3,
                     express_p50_ms=p50("express_in_J"),
                     reconstruct_q_p50_ms=p50("reconstruct_generic"))
    return named, attempted, failed


def _bench(args, tmp):
    os.environ["OCTICMODULI_CACHE"] = tempfile.mkdtemp(dir=tmp)
    clock = RefClock()
    tracer = Tracer()       # not installed without --trace: records nothing
    setups = [_scaled_setup(clock, lambda: _setup(
        args.workload, tracer if args.trace else None))]
    import workloads
    at_setup = tracer.snapshot()
    setups += [_scaled_setup(clock, lambda: _probe_setup(args.workload, tmp))
               for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(scaled for _, scaled in setups)

    run = workloads.Run(args.workload, clock)
    iteration = workloads.iteration_function(args.workload)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        iteration(run, args.seed, run.iterations, tracer)
        run.iterations += 1
        now = time.perf_counter()
        # stop unless one more iteration as long as this one still fits
        if now + (now - t0) - start > args.seconds:
            break
    clock.sample()
    seconds = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    scaled = args.workload not in workloads.RAW_TIMED
    figures = run.figures(scaled)
    e2e = _end_to_end(run, figures, setup_s, peak_rss_mb)
    raw = run.figures(scaled=False)
    raw_setup_s = statistics.median(r for r, _ in setups)
    named, attempted, failed = _named_metrics(run, figures, setup_s,
                                              peak_rss_mb)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "iterations": run.iterations, "ops": len(run.calls),
        "env": _environment(), "named": named,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "raw_end_to_end": {k: v for k, (v, _) in _end_to_end(
            run, raw, raw_setup_s, peak_rss_mb).items()},
        "setup_samples_s": setups,
        "kernel_s": {"median": statistics.median(clock.values),
                     "min": min(clock.values), "max": max(clock.values),
                     "samples": len(clock.values)},
        "failures": run.failures, "skipped": run.skipped,
        "check_errors": run.errors[:20],
    }
    if args.trace:
        # spans are scaled by the run's median kernel sample
        scale = NOMINAL_S / statistics.median(clock.values) if scaled else 1
        layers = _layer_metrics(run, figures, tracer, at_setup, scale)
        wanted = _bench_spec()["per_layer"]
        metrics = {m["name"]: layers.get(m["name"], (0, m["unit"]))
                   for m in wanted}
    else:
        metrics = e2e
    print("info " + json.dumps(info, default=str))
    print(json.dumps({
        "correct": not run.errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "octicmoduli", "__init__.py")):
        print("run.py: no octicmoduli sources under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.setup_only:
        print(repr(_setup(args.workload)))
        return 0

    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=base)
    try:
        _bench(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
