#!/usr/bin/env python3
"""Time the package's cold start, each measurement in a fresh interpreter.

Each run times, in interpreters of their own:

    import    `import absorbing_ideals, absorbing_ideals.cli`, timed with
              perf_counter inside the child
    omega     a whole `python -m absorbing_ideals omega --ring Zmod:12`
              process, timed from outside

The children inherit this process's environment with PYTHONPATH set to
the source directory, so bytecode is read or compiled as it is for any
other process started from the same shell (PYTHONDONTWRITEBYTECODE and
any __pycache__ apply alike).  With `--src DIR` every run times both
this checkout's src and DIR, taking turns on which goes first.  Prints
one line per run and source, then the best and the median milliseconds
per source.  Exits 1 when an `omega` output differs from the report
held in this script.

    python3 scripts/bench_import.py --runs 25
    python3 scripts/bench_import.py --runs 25 --src /path/to/other/checkout/src
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

DEFAULT_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
IMPORT_CHILD = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import absorbing_ideals, absorbing_ideals.cli\n"
    "print((time.perf_counter() - start) * 1e3)\n"
)
OMEGA_ARGV = ("-m", "absorbing_ideals", "omega", "--ring", "Zmod:12")


def _level(n: int, holds: bool, scanned: int, witness) -> dict:
    return {
        "holds": holds,
        "mode": "exhaustive",
        "n": n,
        "tuples_scanned": scanned,
        "witness": {"elements": witness, "n": n} if witness else None,
    }


OMEGA_REPORT = {
    "command": "omega",
    "ideal": "(0)",
    "report": {
        "cap": 4,
        "levels": {
            "1": _level(1, False, 4, ["2", "6"]),
            "2": _level(2, False, 2, ["2", "2", "3"]),
            "3": _level(3, True, 35, None),
        },
        "omega": 3,
    },
    "ring": "Zmod:12",
    "schema": "absorbing-report/1",
}
OMEGA_TEXT = json.dumps(OMEGA_REPORT, indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--runs", type=int, default=10, help="runs per source directory (default: 10)"
    )
    parser.add_argument(
        "--src",
        help="another absorbing_ideals source directory to time, interleaved with this checkout's",
    )
    return parser


def _child(src: str, argv: tuple) -> tuple[float, subprocess.CompletedProcess]:
    """Wall milliseconds and outcome of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    return (time.perf_counter() - start) * 1e3, done


def run_once(src: str) -> dict:
    """import_ms, omega_ms and whether the omega output is the reference."""
    _, done = _child(src, ("-c", IMPORT_CHILD))
    if done.returncode != 0:
        raise SystemExit(f"the import child exited {done.returncode}: {done.stderr.strip()}")
    omega_ms, omega = _child(src, OMEGA_ARGV)
    return {
        "import_ms": float(done.stdout),
        "omega_ms": omega_ms,
        "same": omega.returncode == 0 and omega.stdout == OMEGA_TEXT,
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.runs < 1:
        raise SystemExit("--runs must be at least 1")
    sources = [DEFAULT_SRC] + ([args.src] if args.src else [])
    labels = {src: os.path.relpath(src) for src in sources}
    times = {src: {"import_ms": [], "omega_ms": []} for src in sources}
    bad = 0
    for run in range(1, args.runs + 1):
        for src in sources if run % 2 else sources[::-1]:
            report = run_once(src)
            for key, values in times[src].items():
                values.append(report[key])
            bad += not report["same"]
            verdict = "ok" if report["same"] else "OMEGA OUTPUT DIFFERS"
            print(
                f"run {run}: {labels[src]} import_ms {report['import_ms']:.2f} "
                f"omega_ms {report['omega_ms']:.2f}: {verdict}"
            )
    for name, pick in (("best", min), ("median", statistics.median)):
        for src in sources:
            cells = " ".join(f"{key} {pick(values):.2f}" for key, values in times[src].items())
            print(f"{name} of {args.runs}: {labels[src]} {cells}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
