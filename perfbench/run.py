#!/usr/bin/env python3
"""End-to-end benchmark of synscan.

Builds the `perfbench` harness (perfbench/CMakeLists.txt, on top of the
libraries in src/) and runs one workload:

    python3 perfbench/run.py --workload capture-cold --seed 1 --seconds 12 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and scratch files to .bench_work. The last line
of standard output is the result object; the line before it holds the
run details (host, pinned worker counts, report differences, ladder).

    python3 perfbench/run.py --list

prints every metric with its unit, direction, workloads and the metric
it should move.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def list_metrics():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    notes = load_json(os.path.join(BENCH_DIR, "metrics.json"))
    print("workloads:")
    for workload in spec["workloads"]:
        print(f"  {workload['name']}: {workload['why']}")
    for kind in ("end_to_end", "per_layer"):
        print(f"{kind} (printed with --trace {0 if kind == 'end_to_end' else 1}):")
        for metric in spec[kind]:
            note = notes.get(metric["name"], {})
            bound = f", bound {metric['bound']}" if "bound" in metric else ""
            print(f"  {metric['name']} [{metric['unit']}, {metric['better']}{bound}]")
            for key in ("what", "moves"):
                if key in note:
                    print(f"      {key}: {note[key]}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("synscan sources (src/) not found next to perfbench/")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line[:200]}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            fail(f"metric {name} has no numeric value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    args = parser.parse_args()
    if args.list:
        list_metrics()
        return
    if not args.workload:
        parser.error("--workload is required")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", ".bench_work"]  # relative: keeps socket paths short
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if run.returncode != 0 or not lines:
        fail(f"harness exited with {run.returncode}")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
