#!/usr/bin/env python3
"""Time whole one-shot CLI processes: CPU, wall and peak RSS.

Each run starts, in turn, four `python -m absorbing_ideals` processes as
a user starts them, through `__main__.py` and its GC policy:

    corpus   corpus-scan --seed 7, the report acceptance criterion 10 pins
    trace4   trace --ring Zmod:24 --gens 6,12,18,0
             n = 4, 1,785 direct steps, about 360 kB of JSON
    verify4  verify-trace of that trace, written once before the runs
    trace5   trace --ring Zmod:32 --gens 2,2,2,2,2
             n = 5, 53,004 direct steps, about 11.9 MB of JSON

Each process runs under a small wrapper interpreter that waits for it
alone, so getrusage(RUSAGE_CHILDREN) in the wrapper gives that one
process's CPU seconds (user plus system) and peak RSS.  The stdout of
`corpus`, `trace4` and `trace5` must have the SHA-256 held here, and the
replay must exit 0.  Prints one line per run and source, then the median
per source.  `--src DIR` times DIR in turns with this checkout (see
harness.py).  Exits 1 when an output's digest differs; a child that
fails ends the script, as in the other timing scripts.

    python3 scripts/bench_one_shot.py --runs 10
    python3 scripts/bench_one_shot.py --runs 10 --src /path/to/other/checkout/src
"""

import json
import os
import statistics
import sys
import tempfile

import harness
from bench_corpus_scan import CORPUS_SCAN_SEED_7_SHA256

TRACE4 = ("trace", "--ring", "Zmod:24", "--gens", "6,12,18,0")
# case -> (argv, SHA-256 of its stdout, or None for the replay)
CASES = {
    "corpus": (("corpus-scan", "--seed", "7"), CORPUS_SCAN_SEED_7_SHA256),
    "trace4": (TRACE4, "43c1167d976a8c92806d65fcd4dd10143e71acda21299417eafe37359ac5b051"),
    "verify4": (("verify-trace",), None),  # the file's path is added per run
    "trace5": (("trace", "--ring", "Zmod:32", "--gens", "2,2,2,2,2"),
               "e13bada58c7a77155a017469dc5612720db0396c03dcff066dc0a0348ff8cd63"),
}
COLUMNS = ("cpu_s", "wall_s", "rss_mb")

# run in the wrapper: runs `python ARGV` as its only child and prints its
# CPU seconds, wall seconds, peak RSS in MB and stdout's SHA-256
WRAPPER = r"""
import hashlib, json, resource, subprocess, sys, time
start = time.perf_counter()
done = subprocess.run([sys.executable, *sys.argv[1:]], stdout=subprocess.PIPE)
wall = time.perf_counter() - start
if done.returncode != 0:
    sys.exit(f"exit {done.returncode}")
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"cpu_s": usage.ru_utime + usage.ru_stime, "wall_s": wall,
                  "rss_mb": usage.ru_maxrss / 1024, "sha256": hashlib.sha256(done.stdout).hexdigest()}))
"""


def run_once(src: str, *argv: str) -> dict:
    """The wrapper's report of one `python -m absorbing_ideals ARGV` process."""
    return json.loads(harness.run_child(src, "-c", WRAPPER, "-m", "absorbing_ideals", *argv)[2])


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, 5, argv)
    times = {src: {f"{case}_{key}": [] for case in CASES for key in COLUMNS}
             for src in args.sources}
    bad = 0
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "trace4.json")
        harness.run_child(harness.DEFAULT_SRC, "-m", "absorbing_ideals", *TRACE4, "--out", path)
        for run, src in harness.turns(args.sources, args.runs):
            cells, verdicts = [], []
            for case, (command, digest) in CASES.items():
                report = run_once(src, *command, *([path] if digest is None else []))
                for key in COLUMNS:
                    times[src][f"{case}_{key}"].append(report[key])
                    cells.append(f"{case}_{key} {report[key]:.3f}")
                if digest is not None and report["sha256"] != digest:
                    verdicts.append(f"{case} sha256 {report['sha256']}")
            bad += bool(verdicts)
            print(f"run {run}: {harness.label(src)} {' '.join(cells)}: {' '.join(verdicts) or 'ok'}")
    harness.summarize(f"median of {args.runs}", statistics.median, times, ".3f")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
