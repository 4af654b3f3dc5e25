"""Alternating pairs of benchmark runs on two checkouts, recorded in one
BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload models_p11 --seeds 201-210 --traced-seed 52 \\
        --out BENCH_label.json

Each checkout runs its own perfbench/run.py with the same --seconds,
the parent first in the first pair and the sides alternating from then
on.  The info and result lines of every run are kept as printed, one
JSON string each; the info line carries the git sha, src hash, nproc
and versions of the side.  With --traced-seed each side also runs once
with --trace 1, for the per-layer figures.  The summary gives, per
end-to-end metric of BENCHMARK.json, each side's median and quartiles,
the change's median against the parent's, the pairs the change
won, the metric's bound and whether the change's median is within it
of the parent's (within_bound); under "operations", each side's attempted and failed operations
summed over its runs and the seeds of its runs that were not correct.
A file that exists is updated: each workload has its own entry.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(checkout, workload, seed, seconds, trace):
    """The info line (without its "info " tag) and the result line of
    one perfbench/run.py run, as printed."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    info, result = out.rstrip("\n").splitlines()[-2:]
    if not info.startswith("info "):
        raise RuntimeError("no info line from %s: %r" % (checkout, info))
    return {"seed": seed, "info": info[len("info "):], "result": result}


def _metrics(run):
    return json.loads(run["result"])["metrics"]


def _operations(runs):
    """The attempted and failed operations of a side's runs, summed, and
    the seeds of its runs that were not correct."""
    results = [json.loads(run["result"]) for run in runs]
    return {"attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "incorrect_seeds": [run["seed"] for run, r in zip(runs, results)
                                if not r["correct"]]}


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _summary(pairs, spec):
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [_metrics(pair[side])[name]["value"]
                        for pair in pairs]
                 for side in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        parent, change = (statistics.median(sides[s])
                          for s in ("parent", "change"))
        bound = metric["bound"]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": bound,
            "within_bound": (change <= (1 + bound) * parent if lower
                             else change >= (1 - bound) * parent),
            "parent": {"median": parent,
                       "quartiles": _quartiles(sides["parent"])},
            "change": {"median": change,
                       "quartiles": _quartiles(sides["change"])},
            "change_over_parent": change / parent if parent else None,
            "change_wins": wins, "pairs": len(pairs),
        }
    out["operations"] = {side: _operations([pair[side] for pair in pairs])
                         for side in ("parent", "change")}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="one seed or lo-hi")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    pairs = []
    for n, seed in enumerate(_seeds(args.seeds)):
        order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = _run(checkouts[side], args.workload, seed,
                              args.seconds, 0)
            print(side, seed, pair[side]["result"], file=sys.stderr,
                  flush=True)
        pairs.append(pair)
    entry = {"seconds": args.seconds, "pairs": pairs,
             "summary": _summary(pairs, spec)}
    if args.traced_seed is not None:
        entry["traced"] = {
            side: _run(checkouts[side], args.workload, args.traced_seed,
                       args.seconds, 1)
            for side in ("parent", "change")}

    record = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record["workloads"][args.workload] = entry
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
