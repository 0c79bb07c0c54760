#!/usr/bin/env python3
"""Repository benchmark: builds iw_perfbench from source and runs workloads.

    python3 perfbench/run.py                      # every workload, default seed
    python3 perfbench/run.py --trace 1            # every workload, per-layer
    python3 perfbench/run.py --workload detect_stream --seed 3 --seconds 15 --trace 0

With --workload, the last line of standard output is the run's JSON result
{"correct", "attempted", "failed", "metrics"}. Each result is also saved with
the host fingerprint under .bench_build/results/ (see compare.py). The exit
code is nonzero when the build fails, an output check fails, or the metric
names differ from BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
RESULTS = ROOT / ".bench_build" / "results"
WORKLOADS = ["fleet_energy", "fleet_app_ckpt", "detect_stream", "table3_sweep"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def spec():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else None


def build():
    """Configures (once) and builds the benchmark binary; output to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no repository sources in {ROOT}")
        return None
    jobs = str(os.cpu_count() or 2)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "iw_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return None
    return BUILD / "iw_perfbench"


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, parsed result)."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(WORK)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: no JSON result (exit {proc.returncode})")
        return proc.returncode or 1, lines, None
    expected = spec()
    if expected is not None:
        names = [m["name"] for m in expected["per_layer" if trace else "end_to_end"]]
        if list(result["metrics"]) != names:
            log(f"{workload}: metric names differ from BENCHMARK.json")
            return 1, lines, None
    fingerprint = next((json.loads(line.split(":", 1)[1]) for line in lines
                        if line.startswith("fingerprint:")), None)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
         "fingerprint": fingerprint, "result": result}, indent=1) + "\n")
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = (spec() or {}).get("run_seconds", 10)

    binary = build()
    if binary is None:
        return 1

    if args.workload:
        code, lines, result = run_one(binary, args.workload, args.seed, seconds, args.trace)
        if result is None:
            for line in lines:
                print(line, file=sys.stderr)
            return code or 1
        print("\n".join(lines), flush=True)
        return code

    worst = 0
    table = []
    fingerprints = set()
    for workload in WORKLOADS:
        log(f"running {workload} (seed {args.seed}, {seconds} s, trace {args.trace})")
        code, lines, result = run_one(binary, workload, args.seed, seconds, args.trace)
        worst = max(worst, code if result is not None else max(code, 1))
        fingerprints.update(line for line in lines if line.startswith("fingerprint:"))
        if result is None:
            table.append(f"{workload:16} FAILED (exit {code})")
            continue
        fail_frac = result["failed"] / result["attempted"]
        table.append(f"{workload:16} correct={str(result['correct']).lower()} "
                     f"attempted={result['attempted']} fail_frac={fail_frac:.6g}")
        for name, metric in result["metrics"].items():
            table.append(f"  {name:34} {metric['value']:>20.6f} {metric['unit']}")
    print("\n".join(sorted(fingerprints) + table))
    return worst


if __name__ == "__main__":
    sys.exit(main())
