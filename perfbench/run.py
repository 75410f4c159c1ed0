#!/usr/bin/env python3
"""Benchmark runner: builds perfbench.exe from this checkout and runs one
workload for a fixed time, as repeated single-process runs.

    python3 perfbench/run.py --workload bulk_eth --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every run of perfbench.exe builds fresh
worlds from the same seed, so its simulated figures must repeat exactly;
its host figures are reported as medians over the runs.  --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from traced runs interleaved with untraced ones) and
writes a Chrome trace-event file under perfbench/out/.  The last line
of standard output is the JSON result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = os.path.join("perfbench", "out")
MIN_RUNS = 3
# Nominal CPU time of perfbench.exe's calibration kernel (Calib), in
# seconds: what it takes on an unloaded core of the reference machine.
CALIB_REF_S = 0.05
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850

# Figures that must repeat exactly across runs of one seed.
EXACT_GC = ("gc.minor_mwords", "gc.promoted_mwords", "gc.major_collections")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_checkout():
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune"), "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        log("perfbench: not a repository checkout (missing %s); run from its root" % ", ".join(missing))
        sys.exit(2)


def build():
    cmd = ["dune", "build", "--root", ".", "-j", "2", "--cache=disabled", "--display", "quiet", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: build failed: %s" % e)
        sys.exit(1)
    if r.returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)


def no_aslr_prefix():
    """`setarch -R` where the system allows it.  With address-space layout
    randomization on, the simulator's allocation and promotion counts vary
    slightly between identical runs (some allocation depends on heap
    addresses); with it off they repeat to the word."""
    cmd = ["setarch", platform.machine(), "-R"]
    try:
        ok = subprocess.run(cmd + ["true"], capture_output=True, timeout=10).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        ok = False
    return cmd if ok else []


PREFIX = None


def run_once(workload, seed, trace_file=None):
    global PREFIX
    if PREFIX is None:
        PREFIX = no_aslr_prefix()
    cmd = PREFIX + [EXE, workload, str(seed)]
    if trace_file:
        cmd += ["--trace", trace_file]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % " ".join(cmd))
        sys.exit(1)
    if r.returncode != 0:
        log(r.stderr)
        log("perfbench: %s exited with %d" % (" ".join(cmd), r.returncode))
        sys.exit(1)
    return json.loads(r.stdout.strip().splitlines()[-1])


def differing(runs, key, names=None):
    """Names under runs[i][key] whose values are not identical in every run."""
    first = runs[0][key]
    names = names or first.keys()
    return sorted(n for n in names if any(r[key].get(n) != first.get(n) for r in runs))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def scaled(runs, key):
    """Host seconds at the reference host speed: each process's figure
    (mean of a list) over the CPU time its calibration kernel took, times
    the kernel's nominal time; the median over processes.  The shared
    machine speeds up and slows down by tens of percent over seconds, and
    the kernel, timed in the same process, slows down with it."""
    ratios = []
    for r in runs:
        v = statistics.mean(r[key]) if isinstance(r[key], list) else r[key]
        ratios.append(v / statistics.mean(r["calib_s"]))
    return CALIB_REF_S * median(ratios)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    check_checkout()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload %s" % args.workload)
        sys.exit(2)
    build()

    traced, plain = [], []
    trace_file = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_file = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
    deadline = time.monotonic() + args.seconds
    while True:
        plain.append(run_once(args.workload, args.seed))
        if args.trace:
            traced.append(run_once(args.workload, args.seed, trace_file))
        enough = len(plain) >= (2 if args.trace else MIN_RUNS)
        if enough and time.monotonic() >= deadline:
            break
    runs = plain + traced

    problems = []
    for name in differing(runs, "sim") + differing(runs, "sim_layers"):
        problems.append("%s differs between runs of seed %d" % (name, args.seed))
    if PREFIX:
        for name in differing(plain, "gc", EXACT_GC):
            problems.append("%s differs between untraced runs" % name)
    if traced:
        for name in differing(traced, "wire_layers"):
            problems.append("%s differs between traced runs" % name)
    for r in runs:
        problems.extend(r["failures"])
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)

    first = plain[0]
    host_cpu = scaled(plain, "measure_s")
    e2e = dict(first["sim"])
    e2e.update(
        {
            "setup_s": scaled(plain, "setup_s"),
            "host_cpu_s": host_cpu,
            "host_peak_heap_mb": median([r["gc"]["host_peak_heap_mb"] for r in plain]),
            "success_rate": (attempted - failed) / attempted if attempted else 0.0,
        }
    )
    if args.trace:
        layers = dict(first["sim_layers"])
        layers.update(traced[0]["wire_layers"])
        for name in traced[0]["host_layers"]:
            layers[name] = median([r["host_layers"][name] for r in traced])
        layers.update({k: v for k, v in first["gc"].items() if k.startswith("gc.")})
        layers["engine.frames_per_host_s"] = first["sim_layers"]["link.frames"] / host_cpu
        layers["trace.overhead_s"] = scaled(traced, "measure_s") - host_cpu
        layers["host.calib_s"] = median([statistics.mean(r["calib_s"]) for r in plain])
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            problems.append("metric %s was not produced" % m["name"])
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ocaml_version": first["ocaml_version"],
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        "nproc": os.cpu_count(),
        "aslr": "off" if PREFIX else "on",
        "runs": len(plain),
        "traced_runs": len(traced),
        "trace_file": trace_file,
    }
    print(json.dumps({"environment": env}))
    for name, m in metrics.items():
        print("%-34s %16.6g %s" % (name, m["value"], m["unit"]))
    for p in problems[:20]:
        print("problem: %s" % p)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
