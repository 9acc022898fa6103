#!/usr/bin/env python3
"""Time the exhaustive absorbing scan level by level, each run in a fresh interpreter.

The cases are `is_n_absorbing` at every level that `omega` scans for the
six ideals of the benchmark's `deep-omega` workload, at n = 4 for the
zero ideals of Zmod:16, Zmod:24 and Zmod:36 (the rings of the big trace
surveys), and at the level of one check of each ring of the `large-ring`
workload (rings of 512 to 4096 elements, where finding the candidates is
most of the work).  Each run builds every ring once, then times REPEATS
calls per case, emptying the ring's scan memo, its units and its unit
generators before each call, so every call walks the units (which finds
the generators too), finds the scan candidates and scans again: the
whole cost of the candidates, on either side of a `--src` pair.

It prints one line per run and source with its total, then one line per
case: the multisets the scan counts, how many of them are multiplied out
one by one (those with no product of their first k <= n factors in the
ideal; the others are skipped in blocks), and the median milliseconds
over runs of each source.  `--src DIR` times DIR in turns with this
checkout (see harness.py).  Exits 1 when some `(holds, witness,
tuples_scanned)` differs from a plain combinations_with_replacement scan
over the same candidates, or the candidates differ from the class minima
found by multiplying each one by every unit, both done in the script.

    python3 scripts/bench_scan.py --runs 5
    python3 scripts/bench_scan.py --src /path/to/other/checkout/src
"""

import json
import statistics
import sys

import harness

REPEATS = 5  # timed calls of each case per interpreter

# (ring, ideal generators, levels)
CASES = (
    ("Zmod:32", (), range(1, 6)),
    ("PolyQuot:{p:2,poly:[0,0,0,0,0,1]}", (), range(1, 6)),
    ("Quotient:{ring:Zmod:128,gens:[32]}", (), range(1, 6)),
    ("Zmod:81", (), range(1, 5)),
    ("Product:[Zmod:4,Zmod:6]", (), range(1, 5)),
    ("Zmod:64", ("8",), range(1, 4)),
    ("Zmod:16", (), (4,)),
    ("Zmod:24", (), (4,)),
    ("Zmod:36", (), (4,)),
    ("Zmod:4096", (), (1,)),
    ("Zmod:3600", ("780",), (2,)),
    ("Product:[Zmod:32,Zmod:32]", (), (1,)),
    ("Quotient:{ring:Zmod:4000,gens:[1000]}", (), (2,)),
    ("PolyQuot:{p:2,poly:[0,0,0,0,0,0,0,0,0,1]}", (), (1,)),
)

# run in the child: reads the cases as JSON and prints, per case, the
# report's (holds, witness, tuples_scanned), the plain scan's, whether the
# candidates are the all-units class minima, the count multiplied out one
# by one and the milliseconds per call
CHILD = r"""
import itertools, json, sys, time
from absorbing_ideals import Ideal, build_ring, is_n_absorbing, parse_ring_spec
from absorbing_ideals.absorbing import _scan_candidates

def product(ring, values):
    out = ring.one_value
    for v in values:
        out = ring.mul_values(out, v)
    return out

def plain(ideal, n, candidates):
    ring, members, scanned, multiplied = ideal.ring, ideal.element_values, 0, 0
    for factors in itertools.combinations_with_replacement(candidates, n + 1):
        scanned += 1
        multiplied += all(product(ring, factors[:k]) not in members for k in range(1, n + 1))
        if product(ring, factors) in members and all(
            product(ring, factors[:i] + factors[i + 1:]) not in members
            for i in range(n + 1)
        ):
            return [False, list(factors), scanned], multiplied
    return [True, None, scanned], multiplied

def all_units_minima(ideal):
    ring, units, marked, minima = ideal.ring, ideal.ring.unit_values(), set(), []
    for v in ring.iter_values():
        if v in units or v in ideal.element_values or v in marked:
            continue
        minima.append(v)
        marked.update(ring.mul_values(u, v) for u in units)
    return tuple(minima)

cases, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
out = []
for spec, gens, n in cases:
    ring = build_ring(parse_ring_spec(spec))
    ideal = Ideal.from_generators(ring, [ring.parse_value(g) for g in gens])
    times = []
    for _ in range(repeats):
        ring._scans.clear()
        # a checkout older than the unit generators has no such slot, and
        # setting a new attribute would slow every later read on the ring
        if hasattr(ring, "_unit_generators"):
            ring._units = ring._unit_generators = None
        start = time.perf_counter()
        report = is_n_absorbing(ideal, n)
        times.append((time.perf_counter() - start) * 1e3)
    witness = list(report.witness.elements) if report.witness else None
    candidates = _scan_candidates(ideal)
    expected, multiplied = plain(ideal, n, candidates)
    out.append({
        "got": [report.holds, witness, report.tuples_scanned],
        "expected": expected,
        "candidates_ok": candidates == all_units_minima(ideal),
        "multiplied": multiplied,
        "ms": times,
    })
print(json.dumps(out))
"""


def cases() -> list:
    """[spec, generators, n] for every timed scan, in print order."""
    return [[spec, list(gens), n] for spec, gens, levels in CASES for n in levels]


def run_once(src: str) -> list:
    """The child's per-case reports from one fresh interpreter."""
    return json.loads(harness.run_child(src, "-c", CHILD, json.dumps(cases()), str(REPEATS))[2])


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, 5, argv)
    per_case = {src: [[] for _ in cases()] for src in args.sources}
    totals = {src: {"total_ms": []} for src in args.sources}
    last, bad = {}, {}
    for run, src in harness.turns(args.sources, args.runs):
        last[src] = run_once(src)
        for i, report in enumerate(last[src]):
            per_case[src][i].append(statistics.median(report["ms"]))
            if not report["candidates_ok"]:
                bad[src, i] = " MISMATCH candidates differ from the all-units class minima"
            elif report["got"] != report["expected"]:
                bad[src, i] = f" MISMATCH got {report['got']} plain {report['expected']}"
        totals[src]["total_ms"].append(sum(times[-1] for times in per_case[src]))
        print(f"run {run}: {harness.label(src)} total_ms {totals[src]['total_ms'][-1]:.2f}")
    width = max(len(f"{spec} ({','.join(gens) or '0'})") for spec, gens, _ in cases())
    for i, (spec, gens, n) in enumerate(cases()):
        case = f"{spec} ({','.join(gens) or '0'})"
        first = last[args.sources[0]][i]
        medians = "".join(
            f" {harness.label(src)} {statistics.median(per_case[src][i]):7.3f}{bad.get((src, i), '')}"
            for src in args.sources
        )
        print(
            f"{case:<{width}} n={n} multisets {first['expected'][2]:>5}"
            f" multiplied {first['multiplied']:>5} median_ms{medians}"
        )
    harness.summarize(f"median of {args.runs}", statistics.median, totals, ".2f")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
