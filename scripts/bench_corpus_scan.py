#!/usr/bin/env python3
"""Time `corpus-scan --seed 7` end to end, each run in a fresh interpreter.

Every run writes its report with `--out` into a temporary directory, and
the report's SHA-256 must equal the digest acceptance criterion 10 pins,
so a faster scan is also the same scan.
Prints one line per run, then the median child CPU seconds (user plus
system, from getrusage(RUSAGE_CHILDREN)) and the median wall seconds.
Exits 1 when a run fails or its digest differs.

    python3 scripts/bench_corpus_scan.py --runs 5
    python3 scripts/bench_corpus_scan.py --src /path/to/other/checkout/src
"""

import argparse
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

CORPUS_SCAN_SEED_7_SHA256 = (
    "e18fdb9e0f901d7918321ae32a067b936b2f09987e39b5300ca5f3c906be9e55"
)
DEFAULT_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--runs", type=int, default=3, help="fresh interpreters to time (default: 3)"
    )
    parser.add_argument(
        "--src",
        default=DEFAULT_SRC,
        help="absorbing_ideals source directory to run (default: this checkout's src)",
    )
    return parser


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(src: str, out: str) -> tuple[float, float, str]:
    """CPU seconds, wall seconds and report SHA-256 of one scan."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-m", "absorbing_ideals", "corpus-scan", "--seed", "7", "--out", out]
    cpu, wall = _child_cpu(), time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall, cpu = time.perf_counter() - wall, _child_cpu() - cpu
    if done.returncode != 0:
        raise SystemExit(f"corpus-scan exited {done.returncode}: {done.stderr.strip()}")
    with open(out, "rb") as report:
        return cpu, wall, hashlib.sha256(report.read()).hexdigest()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.runs < 1:
        raise SystemExit("--runs must be at least 1")
    cpus, walls, bad = [], [], 0
    with tempfile.TemporaryDirectory() as scratch:
        for run in range(1, args.runs + 1):
            cpu, wall, digest = run_once(args.src, os.path.join(scratch, "report.json"))
            cpus.append(cpu)
            walls.append(wall)
            same = digest == CORPUS_SCAN_SEED_7_SHA256
            bad += not same
            print(f"run {run}: cpu_s {cpu:.3f} wall_s {wall:.3f} sha256 {'ok' if same else digest}")
    cpu, wall = statistics.median(cpus), statistics.median(walls)
    print(f"median of {args.runs}: cpu_s {cpu:.3f} wall_s {wall:.3f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
