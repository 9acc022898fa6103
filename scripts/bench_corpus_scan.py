#!/usr/bin/env python3
"""Time `corpus-scan --seed 7` end to end, each run in a fresh interpreter.

Every run writes its report with `--out` into a temporary directory, and
the report's SHA-256 must equal the digest acceptance criterion 10 pins,
so a faster scan is also the same scan.
Prints one line per run and source, then per source the median child
CPU seconds (user plus system, from getrusage(RUSAGE_CHILDREN)) and the
median wall seconds.  `--src DIR` times DIR in turns with this checkout
(see harness.py).  Exits 1 when a run fails or its digest differs.

    python3 scripts/bench_corpus_scan.py --runs 5
    python3 scripts/bench_corpus_scan.py --src /path/to/other/checkout/src
"""

import hashlib
import os
import statistics
import sys
import tempfile

import harness

CORPUS_SCAN_SEED_7_SHA256 = (
    "e18fdb9e0f901d7918321ae32a067b936b2f09987e39b5300ca5f3c906be9e55"
)


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, 3, argv)
    times = {src: {"cpu_s": [], "wall_s": []} for src in args.sources}
    bad = 0
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "report.json")
        for run, src in harness.turns(args.sources, args.runs):
            wall, cpu, _ = harness.run_child(
                src, "-m", "absorbing_ideals", "corpus-scan", "--seed", "7", "--out", out
            )
            with open(out, "rb") as report:
                digest = hashlib.sha256(report.read()).hexdigest()
            times[src]["cpu_s"].append(cpu)
            times[src]["wall_s"].append(wall)
            same = digest == CORPUS_SCAN_SEED_7_SHA256
            bad += not same
            print(
                f"run {run}: {harness.label(src)} cpu_s {cpu:.3f} wall_s {wall:.3f}"
                f" sha256 {'ok' if same else digest}"
            )
    harness.summarize(f"median of {args.runs}", statistics.median, times, ".3f")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
