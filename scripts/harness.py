"""What the timing scripts share: the `--runs`/`--src` parser, the turn
order and the fresh-interpreter runner.

Without `--src` a script times this checkout's src alone.  With
`--src DIR` it times this checkout and DIR run by run, in turns: odd
runs start with this checkout and even runs with DIR, so a drift in the
machine's speed falls on both alike.  Each line a script prints names
the source it timed, by its path from the working directory.
"""

import argparse
import os
import resource
import subprocess
import sys
import time

DEFAULT_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def parse_args(description: str, runs: int, argv=None) -> argparse.Namespace:
    """`--runs` (default `runs`, at least 1) and `--src`; `sources` lists
    this checkout's src, then DIR."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--runs", type=int, default=runs, help=f"runs per source directory (default: {runs})"
    )
    parser.add_argument(
        "--src", help="another absorbing_ideals source directory, timed in turns with this one"
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        raise SystemExit("--runs must be at least 1")
    args.sources = [DEFAULT_SRC] + ([args.src] if args.src else [])
    return args


def turns(sources: list, runs: int):
    """(run, source) in timing order: each source once per run, in the
    given order on odd runs and reversed on even runs."""
    for run in range(1, runs + 1):
        for src in sources if run % 2 else sources[::-1]:
            yield run, src


def label(src: str) -> str:
    return os.path.relpath(src)


def summarize(name: str, pick, times: dict, fmt: str) -> None:
    """Print one line per source of `times` ({source: {column: values}}):
    `name`, the source, then `pick` of each column's values."""
    for src, columns in times.items():
        cells = " ".join(f"{key} {pick(values):{fmt}}" for key, values in columns.items())
        print(f"{name}: {label(src)} {cells}")


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(src: str, *argv: str) -> tuple[float, float, str]:
    """Wall seconds, CPU seconds (user plus system) and stdout of
    `python ARGV` in a fresh interpreter, which inherits this process's
    environment with PYTHONPATH set to `src`.  Exits when it fails."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cpu, wall = _child_cpu(), time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    wall, cpu = time.perf_counter() - wall, _child_cpu() - cpu
    if done.returncode != 0:
        raise SystemExit(f"a child on {label(src)} exited {done.returncode}: {done.stderr.strip()}")
    return wall, cpu, done.stdout
