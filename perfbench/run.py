#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sin-paper --seed 20190707 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own helper tests

The benchmark is compiled from the sources in this checkout (CMake,
RelWithDebInfo) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench.  Build output goes to stderr; stdout carries the
benchmark's report, whose last line is the JSON result.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sin-paper", "mul-paper", "online-stream")
RUN_TIMEOUT_S = 170  # one run must end within 180 s


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(target: str) -> bool:
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def commit_id() -> str:
    """The git commit if there is one, else a digest of the sources built."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20190707)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="build and run the helper tests")
    args = parser.parse_args()

    if args.test:
        if not build("perfbench_tests"):
            return 1
        return subprocess.run([str(build_dir() / "perfbench_tests")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 1

    cmd = [str(build_dir() / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id()]
    if args.trace:
        cmd += ["--trace-out", str(build_dir() / f"trace-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    metrics = complete_metrics(result.get("metrics", {}), bool(args.trace))
    if metrics is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: result does not match BENCHMARK.json", file=sys.stderr)
        return 1
    result["metrics"] = metrics
    print("\n".join(lines[:-1]))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


def complete_metrics(measured: dict, trace: bool):
    """Order the metrics as BENCHMARK.json lists them.  A traced run reports
    0 for the layers its workload never calls; an untraced run must report
    every end-to-end metric.  None if a name is missing or unknown."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(measured) - {m["name"] for m in declared}:
        return None
    out = {}
    for m in declared:
        if m["name"] in measured:
            out[m["name"]] = measured[m["name"]]
        elif trace:
            out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            return None
    return out


if __name__ == "__main__":
    sys.exit(main())
