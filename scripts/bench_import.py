#!/usr/bin/env python3
"""Time the package's cold start, each measurement in a fresh interpreter.

Each run times, in interpreters of their own:

    import    `import absorbing_ideals, absorbing_ideals.cli`, timed with
              perf_counter inside the child
    omega     a whole `python -m absorbing_ideals omega --ring Zmod:12`
              process, timed from outside
    nested    a whole `omega` process on a `Quotient:{ring:...,gens:[0]}`
              chain 100 levels deep over Zmod:4, the deepest spec the
              parser takes, timed from outside

The children inherit this process's environment, so bytecode is read or
compiled as it is for any other process started from the same shell
(PYTHONDONTWRITEBYTECODE and any __pycache__ apply alike).  `--src DIR`
times DIR in turns with this checkout (see harness.py).  Prints one line
per run and source, then the best and the median milliseconds per
source.  Exits 1 when a child fails or an `omega` or `nested` output
differs from the report held in this script.

    python3 scripts/bench_import.py --runs 25
    python3 scripts/bench_import.py --runs 25 --src /path/to/other/checkout/src
"""

import json
import statistics
import sys

import harness

IMPORT_CHILD = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import absorbing_ideals, absorbing_ideals.cli\n"
    "print((time.perf_counter() - start) * 1e3)\n"
)
OMEGA_ARGV = ("-m", "absorbing_ideals", "omega", "--ring", "Zmod:12")
NESTED_RING = "Quotient:{ring:" * 100 + "Zmod:4" + ",gens:[0]}" * 100
NESTED_ARGV = ("-m", "absorbing_ideals", "omega", "--ring", NESTED_RING)


def _level(n: int, holds: bool, scanned: int, witness) -> dict:
    return {
        "holds": holds,
        "mode": "exhaustive",
        "n": n,
        "tuples_scanned": scanned,
        "witness": {"elements": witness, "n": n} if witness else None,
    }


def _omega_text(ring: str, *levels: dict) -> str:
    """stdout of `omega --ring RING` whose last level is the first that holds."""
    report = {
        "command": "omega",
        "ideal": "(0)",
        "report": {
            "cap": 4,
            "levels": {str(level["n"]): level for level in levels},
            "omega": levels[-1]["n"],
        },
        "ring": ring,
        "schema": "absorbing-report/1",
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


OMEGA_TEXT = _omega_text(
    "Zmod:12",
    _level(1, False, 4, ["2", "6"]),
    _level(2, False, 2, ["2", "2", "3"]),
    _level(3, True, 35, None),
)
# the chain is the ring Zmod:4 itself
NESTED_TEXT = _omega_text(NESTED_RING, _level(1, False, 1, ["2", "2"]), _level(2, True, 1, None))


def run_once(src: str) -> dict:
    """import_ms, omega_ms, nested_ms and the names of the `omega`
    children whose output is not the reference."""
    report = {"import_ms": float(harness.run_child(src, "-c", IMPORT_CHILD)[2]), "differs": []}
    children = (("omega", OMEGA_ARGV, OMEGA_TEXT), ("nested", NESTED_ARGV, NESTED_TEXT))
    for name, argv, text in children:
        wall, _, out = harness.run_child(src, *argv)
        report[f"{name}_ms"] = wall * 1e3
        if out != text:
            report["differs"].append(name)
    return report


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, 10, argv)
    times = {src: {"import_ms": [], "omega_ms": [], "nested_ms": []} for src in args.sources}
    bad = 0
    for run, src in harness.turns(args.sources, args.runs):
        report = run_once(src)
        for key, values in times[src].items():
            values.append(report[key])
        bad += bool(report["differs"])
        cells = " ".join(f"{key} {report[key]:.2f}" for key in times[src])
        verdict = " ".join(f"{name.upper()} OUTPUT DIFFERS" for name in report["differs"])
        print(f"run {run}: {harness.label(src)} {cells}: {verdict or 'ok'}")
    harness.summarize(f"best of {args.runs}", min, times, ".2f")
    harness.summarize(f"median of {args.runs}", statistics.median, times, ".2f")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
