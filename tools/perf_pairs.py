#!/usr/bin/env python3
"""Paired host-time comparison of two perfbench binaries.

  tools/perf_pairs.py PARENT_BIN CHANGE_BIN --workload W --seed S \\
      --pairs N [-- perfbench args]

Runs each binary once per pair (`perfbench W --seed S [args]`),
alternating which of the two runs first, so that host drift over the
minutes of a comparison falls on both sides alike. For every host
metric it prints the median of each side, the parent's interquartile
range, the ratio change / parent and the pairs the change won (a win is
a strictly better value in the metric's direction from BENCHMARK.json;
host metrics it does not list count lower as better).

Everything else in the result line (simulated metrics, checks, notes,
failures, attempted and failed) must be the same in every pair, since
a host-speed change must not move the simulation.

Exit status: 0 when every pair agreed on the simulation, 1 when some
simulated result differed (each difference is printed), 2 when a run
failed or printed no result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300


def directions():
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_once(binary, workload, seed, extra):
    cmd = [binary, workload, "--seed", str(seed)] + extra
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        sys.stderr.write(p.stderr)
        raise RuntimeError("%s exited with %d" % (" ".join(cmd), p.returncode))
    result = json.loads(lines[-1])
    result["exit"] = p.returncode
    return result


def split(result):
    """(host metric values, everything else) of one result line."""
    host = {n: m["value"] for n, m in result["metrics"].items() if m["kind"] != "sim"}
    rest = dict(result)
    rest["metrics"] = {n: m for n, m in result["metrics"].items() if m["kind"] == "sim"}
    return host, rest


def differences(a, b, path=""):
    """Paths at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            out += differences(a.get(key), b.get(key), "%s.%s" % (path, key))
        return out
    return [] if a == b else ["%s: %r vs %r" % (path.lstrip("."), a, b)]


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def main():
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        extra = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    better = directions()
    parent_host, change_host = [], []
    mismatches = []
    try:
        for i in range(args.pairs):
            # Even pairs run the parent first, odd pairs the change.
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            results = {side: run_once(binary, args.workload, args.seed, extra)
                       for side, binary in order}
            p_host, p_rest = split(results["parent"])
            c_host, c_rest = split(results["change"])
            parent_host.append(p_host)
            change_host.append(c_host)
            for d in differences(p_rest, c_rest):
                mismatches.append("pair %d: %s" % (i + 1, d))
            print("pair %d/%d (%s first): setup_s %s / %s" % (
                i + 1, args.pairs, order[0][0], p_host.get("setup_s"),
                c_host.get("setup_s")), file=sys.stderr, flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print("perf_pairs: %s" % e, file=sys.stderr)
        return 2

    print("%s --seed %d, %d pairs%s" % (args.workload, args.seed, args.pairs,
                                        " (%s)" % " ".join(extra) if extra else ""))
    print("%-28s %12s %12s %12s %7s %6s" % (
        "host metric", "parent", "change", "parent IQR", "ratio", "wins"))
    for name in parent_host[0]:
        ps = [h[name] for h in parent_host]
        cs = [h[name] for h in change_host]
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for p, c in zip(ps, cs) if (c < p if lower else c > p))
        pm, cm = statistics.median(ps), statistics.median(cs)
        ratio = "%.2fx" % (cm / pm) if pm else "-"
        print("%-28s %12.6g %12.6g %12.6g %7s %3d/%d" % (
            name, pm, cm, iqr(ps), ratio, wins, args.pairs))
    if mismatches:
        print("simulated results differ:")
        for m in mismatches:
            print("  " + m)
        return 1
    print("simulated results identical in all %d pairs" % args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
