#!/usr/bin/env python3
"""Run the benchmark over several seeds and compare two sets of results.

    python3 perfbench/compare.py run --workload serve --seeds 1-10 --out runs/parent
    python3 perfbench/compare.py spread runs/parent
    python3 perfbench/compare.py compare runs/parent runs/change

`run` calls the command in BENCHMARK.json once per seed from the current
directory and stores each result line as <out>/<workload>-<seed>.json.
`spread` prints, per workload and metric, the median and the distance
between the first and third quartile as a share of the median, next to
the metric's bound. `compare` pairs the two directories' runs by workload
and seed and applies the rule in README.md: a metric improved when the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's own quartile spread, and no change run is
incorrect or fails more operations than the parent's; it regressed when
the change's median is worse than the parent's by more than the bound.
A run that prints no result line is reported with its exit code and not
stored.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run(args):
    b = bench()
    opts = dict(zip(args[::2], args[1::2]))
    out = opts["--out"]
    trace = opts.get("--trace", "0")
    os.makedirs(out, exist_ok=True)
    for seed in seeds(opts["--seeds"]):
        cmd = b["command"] + ["--workload", opts["--workload"], "--seed", str(seed),
                              "--seconds", str(b["run_seconds"]), "--trace", trace]
        p = subprocess.run(cmd, capture_output=True, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
        path = os.path.join(out, f"{opts['--workload']}-{seed}.json")
        try:
            json.loads(last)
        except ValueError:
            err = p.stderr.strip().splitlines()[-1:] or [""]
            print(f"{path}: exit {p.returncode}, no result stored: {err[0][:200]}", flush=True)
            continue
        with open(path, "w") as f:
            f.write(last + "\n")
        print(f"{path}: exit {p.returncode} {last[:100]}", flush=True)


def load(d):
    """{workload: {seed: result}} from a result directory."""
    out = {}
    for name in sorted(os.listdir(d)):
        if not name.endswith(".json"):
            continue
        workload, seed = name[:-5].rsplit("-", 1)
        with open(os.path.join(d, name)) as f:
            out.setdefault(workload, {})[int(seed)] = json.loads(f.read())
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def metric_specs():
    b = bench()
    return {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}


def spread(args):
    specs = metric_specs()
    for workload, runs in load(args[0]).items():
        bad = [s for s, r in runs.items() if not r.get("correct")]
        print(f"== {workload}: {len(runs)} runs, incorrect seeds {bad}")
        names = list(next(iter(runs.values()))["metrics"])
        for n in names:
            xs = [r["metrics"][n]["value"] for r in runs.values()]
            q1, med, q3 = quartiles(xs)
            share = (q3 - q1) / abs(med) if med else 0.0
            bound = specs.get(n, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            print(f"  {n:<32} median {med:>14.6g}  iqr/median {share:7.4f}  bound {bound}  {flag}")


def compare(args):
    specs = metric_specs()
    parent, change = load(args[0]), load(args[1])
    for workload in parent:
        p_runs, c_runs = parent[workload], change.get(workload, {})
        common = sorted(set(p_runs) & set(c_runs))
        p_bad, c_bad = ([s for s in common if not runs[s]["correct"]] for runs in (p_runs, c_runs))
        p_failed, c_failed = (sum(runs[s]["failed"] for s in common) for runs in (p_runs, c_runs))
        # A gain does not count when the change answers wrongly or fails
        # more operations than the parent.
        may_improve = not c_bad and c_failed <= p_failed
        print(f"== {workload}: {len(common)} paired seeds; incorrect runs parent {len(p_bad)} "
              f"change {len(c_bad)}; failed ops parent {p_failed} change {c_failed}"
              + ("" if may_improve else "; no metric may count as IMPROVED"))
        for n in p_runs[common[0]]["metrics"] if common else []:
            spec = specs.get(n, {})
            sign = 1 if spec.get("better") == "higher" else -1
            ps = [p_runs[s]["metrics"][n]["value"] for s in common]
            cs = [c_runs[s]["metrics"][n]["value"] for s in common]
            wins = sum(1 for a, b in zip(ps, cs) if sign * (b - a) > 0)
            pq1, pm, pq3 = quartiles(ps)
            cq1, cm, cq3 = quartiles(cs)
            worse = sign * (pm - cm) / abs(pm) if pm else 0.0
            verdict = "same"
            if may_improve and wins >= 0.9 * len(common) and abs(cm - pm) > (pq3 - pq1):
                verdict = "IMPROVED"
            elif spec.get("bound") is not None and worse > spec["bound"]:
                verdict = "REGRESSED"
            print(f"  {n:<32} parent {pm:>12.6g} [{pq1:.6g}, {pq3:.6g}]  change {cm:>12.6g} "
                  f"[{cq1:.6g}, {cq3:.6g}]  wins {wins}/{len(common)}  {verdict}")


if __name__ == "__main__":
    cmds = {"run": run, "spread": spread, "compare": compare}
    if len(sys.argv) < 2 or sys.argv[1] not in cmds:
        print(__doc__)
        sys.exit(2)
    cmds[sys.argv[1]](sys.argv[2:])
