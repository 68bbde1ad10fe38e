#!/usr/bin/env python3
"""Build and run the Figure-1 end-to-end benchmark.

    python3 perfbench/run.py --workload <onboard|rest|inspect-64|inspect-imix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is built from source (this
directory's CMakeLists.txt plus the repository's src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, and reused by later
runs. Build output goes to stderr; the last stdout line is the result JSON
printed by the benchmark. A traced run also writes a Chrome trace-event
file into the build directory. Exits non-zero, without a result, when the
checkout holds no src/ to build or any step fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["onboard", "rest", "inspect-64", "inspect-imix"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_rev(root):
    """Git revision when there is one, else a digest of the sources built."""
    try:
        rev = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def build(root, build_dir, target):
    """Configure once, then (re)build `target`; returns the binary path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/CMakeLists.txt under {root}: nothing to build")
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", str(build_dir), "--target", target,
          "-j", str(os.cpu_count() or 2)])
    binary = build_dir / target
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def step(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the output-check self-test")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"

    if args.selftest:
        binary = build(root, build_dir, "fig1bench_selftest")
        sys.exit(subprocess.run([str(binary)], timeout=RUN_TIMEOUT_S).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")

    binary = build(root, build_dir, "fig1bench")
    trace_out = build_dir / f"trace-{args.workload}-seed{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_out), "--rev", source_rev(root)]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
