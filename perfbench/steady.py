#!/usr/bin/env python3
"""Steadiness tool: runs a workload several times and compares sets of runs.

    # N runs of one workload, seeds seed0 .. seed0+N-1, one JSON line per run
    python3 perfbench/steady.py run --workload serve_single_short --runs 10 \
        --out .bench_out/single-a.jsonl [--seed0 1] [--seconds S] [--trace 0]

    # per metric: median, quartiles, and the quartile spread against its bound
    python3 perfbench/steady.py report .bench_out/single-a.jsonl

    # a second set against a first: every median within its bound, and the
    # same share of failed operations
    python3 perfbench/steady.py compare .bench_out/single-a.jsonl \
        .bench_out/single-b.jsonl

    # arithmetic self-test
    python3 perfbench/steady.py selftest

Quartiles are Python's statistics.quantiles(values, n=4); a spread is
(q3 - q1) / median. Bounds and directions come from BENCHMARK.json. Run from
the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics.setdefault(m["name"], dict(m, bound=None))
    return spec, metrics


def read_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def cmd_run(args):
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    spec, _ = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("run %d (seed %d) failed with code %d" %
                      (i, seed, proc.returncode), file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["workload"] = args.workload
            out.write(json.dumps(result) + "\n")
            out.flush()
            print("seed %d: %s" % (seed, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in sorted(result["metrics"].items()))))
    return 0


def cmd_report(args):
    _, metrics = load_spec()
    runs = read_runs(args.file)
    names = sorted(runs[0]["metrics"])
    print("%d runs; correct in all: %s; failed/attempted: %s" % (
        len(runs), all(r["correct"] for r in runs),
        sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in runs})[:3]))
    print("%-40s %12s %12s %12s %8s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    bad = 0
    for name in names:
        med, q1, q3, spread = summarize(
            [r["metrics"][name]["value"] for r in runs])
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag = "  OVER BOUND"
                bad += 1
            elif spread > bound / 3:
                flag = "  over bound/3"
        print("%-40s %12.5g %12.5g %12.5g %8.3f %7s%s" % (
            name, med, q1, q3, spread,
            "-" if bound is None else "%.3f" % bound, flag))
    return 1 if bad else 0


def cmd_compare(args):
    _, metrics = load_spec()
    a, b = read_runs(args.first), read_runs(args.second)
    bad = 0
    share_a = {r["failed"] / r["attempted"] for r in a}
    share_b = {r["failed"] / r["attempted"] for r in b}
    if share_a != share_b or len(share_a) != 1:
        print("failed share differs: %s vs %s" % (share_a, share_b))
        bad += 1
    for name in sorted(a[0]["metrics"]):
        m = metrics.get(name)
        if m is None or m.get("bound") is None:
            continue
        ma = statistics.median([r["metrics"][name]["value"] for r in a])
        mb = statistics.median([r["metrics"][name]["value"] for r in b])
        w = worse_by(ma, mb, m["better"])
        ok = w <= m["bound"]
        bad += not ok
        print("%-20s %12.5g -> %12.5g  worse by %+7.3f  bound %.3f  %s" % (
            name, ma, mb, w, m["bound"], "ok" if ok else "FAIL"))
    return 1 if bad else 0


def cmd_selftest(_args):
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    med, q1, q3, spread = summarize(values)
    # 'exclusive' quartiles of 1..10: positions 2.75 and 8.25.
    assert (med, q1, q3) == (5.5, 2.75, 8.25), (med, q1, q3)
    assert abs(spread - 5.5 / 5.5) < 1e-12
    assert abs(worse_by(10.0, 11.0, "lower") - 0.1) < 1e-12
    assert abs(worse_by(10.0, 9.0, "higher") - 0.1) < 1e-12
    assert worse_by(10.0, 9.0, "lower") < 0
    print("steady.py selftest: PASS")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    rep = sub.add_parser("report")
    rep.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    sub.add_parser("selftest")
    args = p.parse_args()
    return {"run": cmd_run, "report": cmd_report, "compare": cmd_compare,
            "selftest": cmd_selftest}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
