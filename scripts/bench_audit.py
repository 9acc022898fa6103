#!/usr/bin/env python3
"""Time the audit battery over the built-in corpus, each run in a fresh interpreter.

A pass builds every `BUILTIN_CORPUS` ring afresh, times `enumerate_ideals`
on it, then `audit_ideal` at cap 4 on each of its ideals, with every scan
exhaustive (`max_tuples` above |R|**5 on every corpus ring).  A child
runs REPEATS passes and reports the median of each phase.  It then makes
one more pass on fresh rings, not timed, that counts the principal ideals
computed (each `principal_ideal_values` call but those the ring's memo
already answers) and the `ideal_product` calls.

Prints one line per run and source with both phases, then the median
per source, then the counts per source.  The JSON of every audit, in
pass order, must have the SHA-256 held here, so a faster battery is also
the same battery.  `--src DIR` times DIR in turns with this checkout
(see harness.py).  Exits 1 when a run's digest differs.

    python3 scripts/bench_audit.py --runs 5
    python3 scripts/bench_audit.py --src /path/to/other/checkout/src
"""

import json
import statistics
import sys

import harness

REPEATS = 5  # timed passes per interpreter
BATTERY_SHA256 = (
    "3729b07f7f70d8186868297d3ffe0da2ad8692d292ed8893cce60ef4fd548696"
)

# run in the child: prints the median seconds of each phase over argv[1]
# passes, the counts of one more pass and the SHA-256 of the audits' JSON
CHILD = r"""
import hashlib, json, statistics, sys, time
from absorbing_ideals import BUILTIN_CORPUS, audit_ideal, build_ring, enumerate_ideals, parse_ring_spec
from absorbing_ideals import ideals, rings

MAX_TUPLES = 10**15

def battery():
    enumerate_s = audit_s = 0.0
    audits = []
    for spec in BUILTIN_CORPUS:
        start = time.perf_counter()
        found = enumerate_ideals(build_ring(parse_ring_spec(spec)))
        enumerate_s += time.perf_counter() - start
        for ideal in found:
            start = time.perf_counter()
            audit = audit_ideal(ideal, 4, max_tuples=MAX_TUPLES)
            audit_s += time.perf_counter() - start
            audits.append([spec, audit.as_dict()])
    return enumerate_s, audit_s, audits

passes = [battery() for _ in range(int(sys.argv[1]))]
text = json.dumps(passes[-1][2], sort_keys=True, separators=(",", ":"))

counts = {"principals": 0, "products": 0}
principal, product = rings.principal_ideal_values, ideals.ideal_product

def counted_principal(ring, g):
    # a checkout without the ring's memo computes at every call
    counts["principals"] += g not in getattr(ring, "_principals", ())
    return principal(ring, g)

def counted_product(left, right):
    counts["products"] += 1
    return product(left, right)

rings.principal_ideal_values = ideals.principal_ideal_values = counted_principal
ideals.ideal_product = counted_product
battery()
print(json.dumps(dict(
    counts,
    enumerate_ms=statistics.median(p[0] for p in passes) * 1e3,
    audit_ms=statistics.median(p[1] for p in passes) * 1e3,
    sha256=hashlib.sha256(text.encode()).hexdigest(),
)))
"""


def run_once(src: str) -> dict:
    """The child's report from one fresh interpreter."""
    return json.loads(harness.run_child(src, "-c", CHILD, str(REPEATS))[2])


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, 5, argv)
    times = {src: {"enumerate_ms": [], "audit_ms": []} for src in args.sources}
    counts, bad = {}, 0
    for run, src in harness.turns(args.sources, args.runs):
        report = run_once(src)
        for key, values in times[src].items():
            values.append(report[key])
        counts[src] = f"principals {report['principals']} products {report['products']}"
        same = report["sha256"] == BATTERY_SHA256
        bad += not same
        print(
            f"run {run}: {harness.label(src)} enumerate_ms {report['enumerate_ms']:.2f}"
            f" audit_ms {report['audit_ms']:.2f} sha256 {'ok' if same else report['sha256']}"
        )
    harness.summarize(f"median of {args.runs}", statistics.median, times, ".2f")
    for src in args.sources:
        print(f"counts per pass: {harness.label(src)} {counts[src]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
