#!/usr/bin/env python3
"""Time the seven layers of a trace round trip, each run in a fresh interpreter.

Three traces, each timed in its own interpreters:

    trace --ring Zmod:24 --gens 6,12,18,0
        1,785 direct steps at n = 4, about 360 kB of JSON; the writer's
        cached default-trace text, the reader's byte comparison with it
        and the verifier's column passes
    trace --ring Zmod:32 --gens 2,2,2,2,2
        53,004 direct steps at n = 5, about 11.9 MB of JSON; the same
        writer and verifier paths at the largest level a default trace is
        written at, which the reader leaves to json.loads
    trace --ring Quotient:{ring:Zmod:36,gens:[18]} --gens 6,12,6 --full-machinery
        74 steps at n = 3, each with its matrix and justification
        lists; the general writer and the verifier's per-step loop

Each run proves its trace once untimed and times its first render, as a
`trace` command does.  It then empties the cached text and times the
first read, as a `verify-trace` command does, which never renders a
trace.  It loads and verifies the trace once untimed, so the schedule
caches are filled, and times REPEATS calls of each other layer in turn:

    prove         prove_radical_power_zero on the ring built once per run
    render_first  the first cli.render_json of the trace document in the
                  interpreter (one call), which builds the cached text
    render        cli.render_json of the trace document again
    read_first    the first cli._read_trace of the rendered text in the
                  interpreter (one call), the reader `verify-trace` uses
    read          cli._read_trace of the rendered text again
    loads         json.loads of the rendered text
    verify        verify_trace of the loaded document

For each trace it prints one line per run with the median of its calls
per layer, then the median over runs.  The text layers (render_first,
render, read_first, read, loads) run outside every function the
perfbench tracer wraps, so its spans do not show them.  Exits 1 when the
first or a repeated render differs from json.dumps(indent=2,
sort_keys=True), the first or a repeated read differs from json.loads of
the same text, or the replay is not ok.

    python3 scripts/bench_trace_io.py --runs 5
    python3 scripts/bench_trace_io.py --src /path/to/other/checkout/src
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

DEFAULT_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
LAYERS = ("prove", "render_first", "render", "read_first", "read", "loads", "verify")
REPEATS = 7  # timed calls of each layer per interpreter
# (ring spec, generators, full machinery)
TRACES = (
    ("Zmod:24", "6,12,18,0", False),
    ("Zmod:32", "2,2,2,2,2", False),
    ("Quotient:{ring:Zmod:36,gens:[18]}", "6,12,6", True),
)

# run in the child: prints {"ok", "same_text", "same_document", layer: [ms
# per call]}; each layer is timed in its own loop, so the collections its
# garbage sets off are counted against it and not against the layer that
# happens to follow.  A checkout from before the reader reads with json.loads,
# as its `verify-trace` does.
CHILD = r"""
import json, sys, time
from absorbing_ideals import build_ring, parse_ring_spec, prove_radical_power_zero, verify_trace
from absorbing_ideals import cli
from absorbing_ideals.cli import render_json
read_trace = getattr(cli, "_read_trace", json.loads)

repeats, spec, gen_text, full = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4] == "full"
ring = build_ring(parse_ring_spec(spec))
gens = [ring.parse_value(g) for g in gen_text.split(",")]
document = prove_radical_power_zero(ring, gens, short_circuit=not full).to_json_dict()
start = time.perf_counter()
text = render_json(document)
out = {"render_first": [(time.perf_counter() - start) * 1e3]}
cli._default_steps_text.cache_clear()
start = time.perf_counter()
first_read = read_trace(text)
out["read_first"] = [(time.perf_counter() - start) * 1e3]
loaded = json.loads(text)
layers = {
    "prove": lambda: prove_radical_power_zero(ring, gens, short_circuit=not full),
    "render": lambda: render_json(document),
    "read": lambda: read_trace(text),
    "loads": lambda: json.loads(text),
    "verify": lambda: verify_trace(loaded),
}
for layer, call in layers.items():
    out[layer] = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        out[layer].append((time.perf_counter() - start) * 1e3)
out["ok"] = verify_trace(loaded).ok
out["same_text"] = text == render_json(document) == json.dumps(document, indent=2, sort_keys=True)
out["same_document"] = first_read == read_trace(text) == loaded
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


def run_once(src: str, spec: str, gens: str, full: bool) -> dict:
    """The child's report of one fresh interpreter timing one trace."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-c", CHILD, str(REPEATS), spec, gens, "full" if full else "default"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"the timed child exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def _line(label: str, medians: dict, trace: str) -> str:
    return label + " ".join(f"{layer}_ms {medians[layer]:.2f}" for layer in LAYERS) + f" on {trace}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.runs < 1:
        raise SystemExit("--runs must be at least 1")
    bad = 0
    for spec, gens, full in TRACES:
        trace = f"{spec} {gens}" + (" full" if full else "")
        per_run = {layer: [] for layer in LAYERS}
        for run in range(1, args.runs + 1):
            report = run_once(args.src, spec, gens, full)
            medians = {layer: statistics.median(report[layer]) for layer in LAYERS}
            for layer in LAYERS:
                per_run[layer].append(medians[layer])
            checks = ("ok", "same_text", "same_document")
            good = all(report[check] for check in checks)
            bad += not good
            verdict = "ok" if good else " ".join(f"{check} {report[check]}" for check in checks)
            print(_line(f"run {run}: ", medians, trace) + f": {verdict}")
        overall = {layer: statistics.median(values) for layer, values in per_run.items()}
        print(_line(f"median of {args.runs}: ", overall, trace))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
