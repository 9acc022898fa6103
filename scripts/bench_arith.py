#!/usr/bin/env python3
"""Time each ring kind's own arithmetic, each run in a fresh interpreter.

One ring of each kind at about 64, 512 and 4096 elements.  Each run
builds every ring once and calls the kind's `mul_values` and
`add_values` through the class, `type(ring).mul_values(ring, a, b)`,
which bypasses the ring's product memo, on PAIRS seeded pairs of
elements, REPEATS times over; the best of the repeats gives the calls
per second.  A Product or Quotient ring still reaches its factors' or
base's `mul_values`, memo included, as it does in use.

It prints one line per run and source with the milliseconds of the best
loops, summed over rings and operations, then one line per ring with
the median calls per second over runs of each source.  `--src DIR` times DIR in turns with this
checkout (see harness.py).  Exits 1 when a PolyQuot product differs
from the schoolbook product computed in the script: the convolution of
the two coefficient lists, then the remainder by the monic modulus.

    python3 scripts/bench_arith.py --runs 5
    python3 scripts/bench_arith.py --src /path/to/other/checkout/src
"""

import json
import statistics
import sys

import harness

PAIRS = 2000  # seeded pairs per ring
REPEATS = 5  # timed loops over the pairs per interpreter

RINGS = (
    "Zmod:64",
    "Zmod:512",
    "Zmod:4096",
    "PolyQuot:{p:2,poly:[1,1,0,0,0,0,1]}",
    "PolyQuot:{p:2,poly:[0,0,0,0,0,0,0,0,0,1]}",
    "PolyQuot:{p:2,poly:[1,0,0,1,0,0,0,0,0,0,0,0,1]}",
    "Product:[Zmod:8,Zmod:8]",
    "Product:[Zmod:8,Zmod:64]",
    "Product:[Zmod:64,Zmod:64]",
    "Quotient:{ring:Zmod:4096,gens:[64]}",
    "Quotient:{ring:Zmod:4096,gens:[512]}",
    "Quotient:{ring:Zmod:4096,gens:[0]}",
)
OPS = ("mul", "add")

# run in the child: reads the ring specs as JSON and prints, per ring, its
# size, the best seconds of a loop of each operation and the count of
# PolyQuot products that differ from the schoolbook product
CHILD = r"""
import json, random, sys, time
from absorbing_ideals import PolyQuot, build_ring, parse_ring_spec

def schoolbook(p, modulus, a, b):
    d = len(modulus) - 1
    x = [a // p**i % p for i in range(d)]
    y = [b // p**i % p for i in range(d)]
    conv = [0] * (2 * d - 1)
    for i in range(d):
        for j in range(d):
            conv[i + j] = (conv[i + j] + x[i] * y[j]) % p
    for top in range(2 * d - 2, d - 1, -1):
        c = conv[top]
        for j in range(d + 1):
            conv[top - d + j] = (conv[top - d + j] - c * modulus[j]) % p
    return sum(c * p**i for i, c in enumerate(conv[:d]))

specs, pairs_count, repeats = json.loads(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
out = []
for spec in specs:
    desc = parse_ring_spec(spec)
    ring = build_ring(desc)
    rnd = random.Random(ring.size)
    pairs = [(rnd.randrange(ring.size), rnd.randrange(ring.size)) for _ in range(pairs_count)]
    report = {"size": ring.size, "mismatched": 0}
    for op in ("mul", "add"):
        kind_op = getattr(type(ring), op + "_values")
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for a, b in pairs:
                kind_op(ring, a, b)
            best = min(best, time.perf_counter() - start)
        report[op + "_s"] = best
    if isinstance(desc, PolyQuot):
        mul = type(ring).mul_values
        report["mismatched"] = sum(
            mul(ring, a, b) != schoolbook(desc.p, desc.modulus, a, b) for a, b in pairs
        )
    out.append(report)
print(json.dumps(out))
"""


def run_once(src: str) -> list:
    """The child's per-ring reports from one fresh interpreter."""
    argv = ("-c", CHILD, json.dumps(RINGS), str(PAIRS), str(REPEATS))
    return json.loads(harness.run_child(src, *argv)[2])


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, 5, argv)
    rates = {src: [{op: [] for op in OPS} for _ in RINGS] for src in args.sources}
    totals = {src: {"best_ms": []} for src in args.sources}
    sizes, bad = {}, {}
    for run, src in harness.turns(args.sources, args.runs):
        reports = run_once(src)
        for i, report in enumerate(reports):
            sizes[i] = report["size"]
            for op in OPS:
                rates[src][i][op].append(PAIRS / report[op + "_s"])
            if report["mismatched"]:
                bad[src, i] = f" MISMATCH {report['mismatched']} products differ from the schoolbook"
        totals[src]["best_ms"].append(1e3 * sum(r[op + "_s"] for r in reports for op in OPS))
        print(f"run {run}: {harness.label(src)} best_ms {totals[src]['best_ms'][-1]:.2f}")
    width = max(map(len, RINGS))
    for i, spec in enumerate(RINGS):
        medians = "".join(
            f" {harness.label(src)}"
            + "".join(f" {op} {statistics.median(rates[src][i][op]):9.0f}" for op in OPS)
            + bad.get((src, i), "")
            for src in args.sources
        )
        print(f"{spec:<{width}} size {sizes[i]:>4} calls_per_s{medians}")
    harness.summarize(f"median of {args.runs}", statistics.median, totals, ".2f")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
