#!/usr/bin/env python3
"""SCOUT benchmark entry point.

Builds the scout_bench driver from the checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and prints, as the
last line of standard output, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 scoutbench/run.py --workload monitor-faults --seed 1 \
        --seconds 10 --trace 0
    python3 scoutbench/run.py --workload all      # every workload, table

With --trace 0 the metrics are BENCHMARK.json's end_to_end set; with
--trace 1 its per_layer set, plus span files under <build>/traces. A
per-layer metric of a layer the workload never calls reads 0. The exit
code is 0 only when every correctness gate passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"scoutbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Configure and build scout_bench; returns the binary's path."""
    if not (ROOT / "src" / "scout" / "scout_system.h").is_file():
        fail(f"no SCOUT sources under {ROOT / 'src'}; nothing to build", 2)
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found", 2)
    out = build_root() / "scoutbench"
    if not (out / "CMakeCache.txt").is_file():
        cfg = [cmake, "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run([cmake, "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "scout_bench"


def run_one(binary, spec, name, seed, seconds, trace):
    """Runs one workload; returns (detail, result, exit code)."""
    traces = build_root() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(traces)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: no result within {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        fail(f"{name}: driver exited {proc.returncode} without a result")
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as e:
        fail(f"{name}: unreadable driver output ({e})")

    # The driver must report exactly the declared metrics; per-layer
    # metrics of layers this workload never calls are filled in as 0.
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    undeclared = sorted(set(metrics) - {m["name"] for m in declared})
    if undeclared:
        fail(f"{name}: driver reported undeclared metrics {undeclared}")
    filled = {}
    idle = []
    for m in declared:
        if m["name"] in metrics:
            filled[m["name"]] = metrics[m["name"]]
        elif trace:
            filled[m["name"]] = {"value": 0, "unit": m["unit"]}
            idle.append(m["name"])
        else:
            fail(f"{name}: driver did not report {m['name']}")
        if filled[m["name"]]["unit"] != m["unit"]:
            fail(f"{name}: {m['name']} reported in {filled[m['name']]['unit']}"
                 f", declared {m['unit']}")
    result["metrics"] = filled
    detail["layers_not_called"] = idle
    return detail, result, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root", 2)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; have {names}", 2)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0:
        fail("--seconds must be positive", 2)

    binary = build()
    if args.workload != "all":
        detail, result, code = run_one(binary, spec, args.workload,
                                       args.seed, seconds, args.trace)
        print(json.dumps({"detail": detail}))
        print(json.dumps(result))
        sys.exit(0 if code == 0 and result["correct"] else 1)

    # Every workload in turn: a table of every metric with its unit and
    # sample count, then one summary line.
    summary = {"correct": True, "workloads": {}}
    for name in names:
        detail, result, code = run_one(binary, spec, name, args.seed,
                                       seconds, args.trace)
        ok = code == 0 and result["correct"]
        summary["correct"] = summary["correct"] and ok
        summary["workloads"][name] = result
        print(f"== {name}  seed={args.seed} seconds={seconds} "
              f"correct={ok} attempted={result['attempted']} "
              f"failed={result['failed']}")
        print(f"   host: {json.dumps(detail.get('host', {}))}")
        counts = detail.get("samples", {})
        for metric, m in result["metrics"].items():
            n = counts.get(metric)
            suffix = f"  (n={n})" if n else ""
            print(f"   {metric:34s} {m['value']:>16.6g} {m['unit']}{suffix}")
        for failure in detail.get("failures", []):
            print(f"   GATE FAILED: {failure}")
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
