#!/usr/bin/env python3
"""Time the seven layers of a trace round trip, each run in a fresh interpreter.

Three traces, each timed in its own interpreters:

    trace --ring Zmod:24 --gens 6,12,18,0
        1,785 direct steps at n = 4, about 360 kB of JSON; the trace
        writer's cached default-steps text, the reader's byte comparison
        with it and the verifier's column passes
    trace --ring Zmod:32 --gens 2,2,2,2,2
        53,004 direct steps at n = 5, about 11.9 MB of JSON; the same
        writer and verifier paths at the largest level a default trace is
        written at, which the reader leaves to json.loads
    trace --ring Quotient:{ring:Zmod:36,gens:[18]} --gens 6,12,6 --full-machinery
        74 steps at n = 3, each with its matrix and justification
        lists; the general writer and the verifier's per-step loop

Each run proves its trace once untimed and times its first write, as a
`trace` command does.  It then empties the cached text and times the
first read, as a `verify-trace` command does, which never renders a
trace.  It loads and verifies the trace once untimed, so the schedule
caches are filled, and times REPEATS calls of each other layer in turn:

    prove         prove_radical_power_zero on the ring built once per run
    render_first  the first write of the proved trace in the interpreter
                  (one call) by the `trace` command's writer,
                  cli._trace_text, which builds a default trace's cached
                  steps text and leaves its steps unbuilt
    render        the same write again
    read_first    the first cli._read_trace of the rendered text in the
                  interpreter (one call), the reader `verify-trace` uses
    read          cli._read_trace of the rendered text again
    loads         json.loads of the rendered text
    verify        verify_trace of the loaded document

For each trace it prints one line per run and source with the median of
its calls per layer, then the median over runs per source.  `--src DIR`
times DIR in turns with this checkout (see harness.py).  The text layers
(render_first, render, read_first, read, loads) run outside every
function the perfbench tracer wraps, so its spans do not show them.
Exits 1 when the first or a repeated write differs from
json.dumps(indent=2, sort_keys=True) of the trace document, the first or
a repeated read differs from json.loads of the same text, or the replay
is not ok; the trace document is taken after the timed layers, since it
builds the steps.

    python3 scripts/bench_trace_io.py --runs 5
    python3 scripts/bench_trace_io.py --src /path/to/other/checkout/src
"""

import json
import statistics
import sys

import harness

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
# happens to follow.  The trace document is taken last, since it builds the
# steps a default trace's writer leaves unbuilt.  A checkout from before the
# reader reads with json.loads, as its `verify-trace` does; one from before
# the trace writer writes with render_json of the trace document, as its
# `trace` does; and one whose writer takes the prover's branch is passed it.
CHILD = r"""
import json, sys, time
from absorbing_ideals import build_ring, parse_ring_spec, prove_radical_power_zero, verify_trace
from absorbing_ideals import cli
from absorbing_ideals.cli import render_json

repeats, spec, gen_text, full = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4] == "full"
read_trace = getattr(cli, "_read_trace", json.loads)
writer = getattr(cli, "_trace_text", lambda trace: render_json(trace.to_json_dict()))
write = writer if writer.__code__.co_argcount == 1 else lambda trace: writer(trace, not full)
ring = build_ring(parse_ring_spec(spec))
gens = [ring.parse_value(g) for g in gen_text.split(",")]
trace = prove_radical_power_zero(ring, gens, short_circuit=not full)
start = time.perf_counter()
text = write(trace)
out = {"render_first": [(time.perf_counter() - start) * 1e3]}
cli._default_steps_text.cache_clear()
start = time.perf_counter()
first_read = read_trace(text)
out["read_first"] = [(time.perf_counter() - start) * 1e3]
loaded = json.loads(text)
layers = {
    "prove": lambda: prove_radical_power_zero(ring, gens, short_circuit=not full),
    "render": lambda: write(trace),
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
out["same_text"] = text == write(trace) == json.dumps(trace.to_json_dict(), indent=2, sort_keys=True)
out["same_document"] = first_read == read_trace(text) == loaded
print(json.dumps(out))
"""


def run_once(src: str, spec: str, gens: str, full: bool) -> dict:
    """The child's report of one fresh interpreter timing one trace."""
    mode = "full" if full else "default"
    return json.loads(harness.run_child(src, "-c", CHILD, str(REPEATS), spec, gens, mode)[2])


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, 5, argv)
    bad = 0
    for spec, gens, full in TRACES:
        trace = f"{spec} {gens}" + (" full" if full else "")
        per_run = {src: {f"{layer}_ms": [] for layer in LAYERS} for src in args.sources}
        for run, src in harness.turns(args.sources, args.runs):
            report = run_once(src, spec, gens, full)
            medians = {f"{layer}_ms": statistics.median(report[layer]) for layer in LAYERS}
            for key, value in medians.items():
                per_run[src][key].append(value)
            checks = ("ok", "same_text", "same_document")
            good = all(report[check] for check in checks)
            bad += not good
            verdict = "ok" if good else " ".join(f"{check} {report[check]}" for check in checks)
            cells = " ".join(f"{key} {value:.2f}" for key, value in medians.items())
            print(f"run {run} on {trace}: {harness.label(src)} {cells}: {verdict}")
        harness.summarize(f"median of {args.runs} on {trace}", statistics.median, per_run, ".2f")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
