#!/usr/bin/env python3
"""Time the exhaustive absorbing scan level by level, each run in a fresh interpreter.

The cases are `is_n_absorbing` at every level that `omega` scans for the
six ideals of the benchmark's `deep-omega` workload, at n = 4 for the
zero ideals of Zmod:16, Zmod:24 and Zmod:36 (the rings of the big trace
surveys), and at the level of one check of each ring of the `large-ring`
workload (rings of 512 to 4096 elements, where finding the candidates is
most of the work).  Each run builds every ring once, then times REPEATS
calls per case, emptying the ring's scan memo and its unit generators
before each call, so every call builds the generators, finds the scan
candidates and scans again.

It prints one line per run with its total, then one line per case: the
multisets the scan counts, how many of them are multiplied out one by
one (those with no product of their first k <= n factors in the ideal;
the others are skipped in blocks), and the median milliseconds over
runs.  Exits 1 when some `(holds, witness, tuples_scanned)` differs from
a plain combinations_with_replacement scan over the same candidates,
or the candidates differ from the class minima found by multiplying each
one by every unit, both done in the script.

    python3 scripts/bench_scan.py --runs 5
    python3 scripts/bench_scan.py --src /path/to/other/checkout/src
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

DEFAULT_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
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
    ring.unit_values()
    times = []
    for _ in range(repeats):
        ring._scans.clear()
        # a checkout older than the unit generators has no such slot, and
        # setting a new attribute would slow every later read on the ring
        if hasattr(ring, "_unit_generators"):
            ring._unit_generators = None
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--runs", type=int, default=5, help="fresh interpreters to time (default: 5)"
    )
    parser.add_argument(
        "--src",
        default=DEFAULT_SRC,
        help="absorbing_ideals source directory to run (default: this checkout's src)",
    )
    return parser


def cases() -> list:
    """[spec, generators, n] for every timed scan, in print order."""
    return [[spec, list(gens), n] for spec, gens, levels in CASES for n in levels]


def run_once(src: str) -> list:
    """The child's per-case reports from one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-c", CHILD, json.dumps(cases()), str(REPEATS)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"the timed child exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.runs < 1:
        raise SystemExit("--runs must be at least 1")
    per_case = [[] for _ in cases()]
    totals = []
    bad = set()
    for run in range(1, args.runs + 1):
        reports = run_once(args.src)
        for i, report in enumerate(reports):
            per_case[i].append(statistics.median(report["ms"]))
            if report["got"] != report["expected"] or not report["candidates_ok"]:
                bad.add(i)
        totals.append(sum(times[-1] for times in per_case))
        print(f"run {run}: total_ms {totals[-1]:.2f}")
    width = max(len(f"{spec} ({','.join(gens) or '0'})") for spec, gens, _ in cases())
    for i, (spec, gens, n) in enumerate(cases()):
        label = f"{spec} ({','.join(gens) or '0'})"
        verdict = (
            f"MISMATCH got {reports[i]['got']} plain {reports[i]['expected']}"
            if reports[i]["candidates_ok"]
            else "MISMATCH candidates differ from the all-units class minima"
        )
        print(
            f"{label:<{width}} n={n} multisets {reports[i]['expected'][2]:>5}"
            f" multiplied {reports[i]['multiplied']:>5}"
            f" median_ms {statistics.median(per_case[i]):7.3f}"
            + (f" {verdict}" if i in bad else "")
        )
    print(f"median of {args.runs}: total_ms {statistics.median(totals):.2f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
