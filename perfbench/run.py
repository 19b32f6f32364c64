#!/usr/bin/env python3
"""ReFlex-Sim benchmark: one command, four workloads.

Builds the simulator and the workload driver from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload for about
--seconds of wall time and prints every metric by name with its unit.
The last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

  python3 perfbench/run.py --workload tenant_qos --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1          # every workload

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced iterations and reports the per-layer
metrics plus trace.overhead_frac. Each iteration is a fresh process
that sets the world up and runs it once; host times are medians over
iterations, simulated metrics must repeat bit for bit across
iterations and between traced and untraced runs (determinism guard).
Exit status: 0 when every check passed, 1 when an output was wrong or
the run was invalid, 2 when the build or a run failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tenant_qos", "cluster_rw", "graph_scc", "kv_rww"]
MIN_ITERATIONS = 3
RUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the driver; returns the binary path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build directory configured for another checkout is discarded.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(build_dir)
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "--parallel", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, trace, extra):
    cmd = [binary, workload, "--seed", str(seed)] + (["--trace"] if trace else []) + extra
    start = time.monotonic()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - start
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        log(p.stderr)
        raise RuntimeError("%s exited with %d" % (" ".join(cmd), p.returncode))
    result = json.loads(lines[-1])
    result["wall"] = wall
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def aggregate(iterations, names):
    """Medians of host metrics; sim metrics must agree exactly."""
    out, problems = {}, []
    for name in names:
        entries = [it["metrics"].get(name) for it in iterations]
        if any(e is None for e in entries):
            problems.append("metric %s missing" % name)
            continue
        values = [e["value"] for e in entries]
        if entries[0]["kind"] == "sim":
            if len(set(values)) != 1:
                problems.append("simulated %s differs across iterations: %s" % (name, values))
            value = values[0]
        else:
            value = statistics.median(values)
        out[name] = {"value": value, "unit": entries[0]["unit"], "values": values,
                     "kind": entries[0]["kind"]}
    return out, problems


def run_workload(binary, spec, workload, seed, seconds, trace, extra):
    """Runs iterations for about `seconds`; returns (result dict, lines)."""
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_frac"]
    deadline = time.monotonic() + seconds
    plain, traced = [], []
    while True:
        plain.append(run_once(binary, workload, seed, False, extra))
        if trace:
            traced.append(run_once(binary, workload, seed, True, extra))
        step = plain[-1]["wall"] + (traced[-1]["wall"] if trace else 0.0)
        if len(plain) >= (2 if trace else MIN_ITERATIONS) and \
                time.monotonic() + step > deadline:
            break

    problems = []
    everything = plain + traced
    for it in everything:
        problems += ["check failed: " + f for f in it["failures"]]
        problems += ["invalid run: " + f for f in it["invalid"]]
    # Determinism guard: every simulated metric of the untraced run must
    # repeat in every iteration, traced or not.
    shared = [n for n, e in plain[0]["metrics"].items() if e["kind"] == "sim"]
    _, p = aggregate(everything, shared)
    problems += p
    plain_metrics, p = aggregate(plain, e2e)
    problems += p
    report = {}
    if trace:
        traced_metrics, p = aggregate(traced, layers)
        problems += p
        report.update(traced_metrics)
        overhead = (statistics.median([t["metrics"]["run_s"]["value"] for t in traced]) /
                    statistics.median([t["metrics"]["run_s"]["value"] for t in plain]) - 1.0)
        report["trace.overhead_frac"] = {"value": overhead, "unit": "fraction",
                                         "values": [overhead], "kind": "host"}
    else:
        report.update(plain_metrics)

    lines = ["workload %s, seed %d: %d untraced%s iterations" % (
        workload, seed, len(plain), " + %d traced" % len(traced) if trace else "")]
    lines += ["  " + note for note in plain[0]["notes"]]
    shown = dict(plain_metrics)
    shown.update(report)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in shown.items():
        q1, med, q3 = quartiles(m["values"])
        spread = "" if m["kind"] == "sim" else ", quartiles %.6g .. %.6g" % (q1, q3)
        lines.append("  %-32s %-14.6g %-10s (%s is better%s)" % (
            name, m["value"], m["unit"], better.get(name, "?"), spread))
    attempted = sum(it["attempted"] for it in plain)
    failed = sum(it["failed"] for it in plain)
    lines.append("  %-32s %-14.6g %-10s (lower is better; %d of %d operations)" % (
        "error_frac", failed / max(1, attempted), "fraction", failed, attempted))
    for msg in problems:
        lines.append("  PROBLEM: " + msg)
    result = {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in report.items()},
    }
    return result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true", help="small inputs (self-tests)")
    ap.add_argument("--plant", action="store_true",
                    help="corrupt one verified value; the run must fail")
    args = ap.parse_args()

    spec = load_spec()
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 2
    extra = (["--smoke"] if args.smoke else []) + (["--plant"] if args.plant else [])
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for w in names:
            result, lines = run_workload(binary, spec, w, args.seed, args.seconds,
                                         args.trace == 1, extra)
            print("\n".join(lines), flush=True)
            results[w] = result
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        log("perfbench: %s" % err)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, n): m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
