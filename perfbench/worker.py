"""Run one phase of a benchmark workload in a fresh interpreter.

Usage: worker.py PHASE_JSON RESULT_JSON [--trace SPANS_JSON] [--setup-only | --micro]

Set-up imports `absorbing_ideals` and parses and builds every ring the
phase names; the timed part then runs the phase's jobs.  Each job's
output is reduced to its verdict projection with the clock stopped.
The program's caches are process-wide, so a worker refuses to start if
the package is already loaded, and reports a per-process token with
which the parent checks that no process timed two phases.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import verdicts
from pace import PacedClock, WallClock
from workloads import MAX_TUPLES

ROOT = Path(__file__).resolve().parent.parent
PROCESS_TOKEN = os.urandom(8).hex()  # the parent fails a run if one repeats

# one 64-element ring of each kind for the multiplication micro-run
MICRO_RINGS = {
    "zmod": "Zmod:64",
    "polyquot": "PolyQuot:{p:2,poly:[0,0,0,0,0,0,1]}",
    "product": "Product:[Zmod:8,Zmod:8]",
    "quotient": "Quotient:{ring:Zmod:128,gens:[64]}",
}
MICRO_PASSES = 5


def _set_up(rings, tracer):
    """Import the package and build every named ring.

    Returns the package and the traced functions it lacks.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import absorbing_ideals
    import absorbing_ideals.cli

    missing = []
    if tracer is not None:
        missing = tracer.install()
        if missing:
            print(f"tracer: not found in the package: {', '.join(missing)}", file=sys.stderr)
    for spec in rings:
        absorbing_ideals.build_ring(absorbing_ideals.parse_ring_spec(spec))
    return absorbing_ideals, missing


def run_job(package, job, clock):
    """One job: ((paced, raw seconds), exit code, output text, error or None).

    A CLI job runs `cli.main` with stdout captured.  An `api` job calls
    `prove_radical_power_zero`; its document is rendered as the CLI
    would render it, with the clock stopped.
    """
    buffer = io.StringIO()
    error = document = None
    code = 0
    start, raw_start = clock.now(), clock.raw()
    try:
        if "api" in job:
            api = job["api"]
            ring = package.build_ring(package.parse_ring_spec(api["ring"]))
            values = [ring.parse_value(g) for g in api["gens"]]
            document = package.prove_radical_power_zero(
                ring, values, short_circuit=not api["full"], max_tuples=MAX_TUPLES
            ).to_json_dict()
        else:
            with contextlib.redirect_stdout(buffer):
                code = package.cli.main(job["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed operation, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = clock.now() - start, clock.raw() - raw_start
    if document is not None:
        buffer.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return elapsed, code, buffer.getvalue(), error


def _cli_phase(package, phase, counts, clock):
    records = []
    wall = raw = 0.0
    for job in phase["jobs"]:
        (elapsed, raw_elapsed), code, text, error = run_job(package, job, clock)
        wall += elapsed
        raw += raw_elapsed
        record = {"key": job["key"], "expect": job["expect"], "s": elapsed, "raw_s": raw_elapsed,
                  "exit": code, "cli": "api" not in job}
        if error is None:
            try:
                payload = json.loads(text)
            except ValueError as exc:
                error = f"output is not JSON: {exc}"
        if error is not None:
            record["error"] = error
            records.append(record)
            continue
        if job.get("save"):
            with open(ROOT / phase["workdir"] / job["save"], "w", encoding="utf-8") as handle:
                handle.write(text)
        kind = job["kind"]
        projection = verdicts.project(kind, code, payload)
        record["digest"] = verdicts.digest(projection)
        record["summary"] = verdicts.summary(kind, code, payload)
        if "gens" in job:
            record["gens_ok"] = payload.get("generators") == job["gens"]
        _count_outputs(kind, code, payload, job, counts)
        records.append(record)
    return wall, raw, records


def _count_outputs(kind, code, payload, job, counts):
    if kind == "report":
        report = payload.get("report", {})
        levels = list(report.get("levels", {}).values()) or [report]
        for level in levels:
            if "tuples_scanned" in level:
                counts["reports"] += 1
                counts["reported_tuples"] += level["tuples_scanned"]
    elif kind == "trace" and code == 0:
        counts["traces_emitted"] += 1
        for step in payload["steps"]:
            if step["rule"] == "direct":
                counts["steps_direct"] += 1
            else:
                counts["steps_zero_diagonal"] += 1
                counts["reported_vectors"] += step["projective_zero"]["vectors_checked"]
    elif kind == "verify":
        counts["verify_jobs"] += 1
        counts["verified_steps"] += job["steps"]


def _battery_phase(package, phase, counts, clock):
    """Per ring: enumerate its ideals, then audit each one.

    Scans are cached per (ideal, n) and never shared between rings, so
    each job's cost does not depend on the seeded ring order.
    """
    wall = raw = 0.0
    records = []
    for spec in phase["rings"]:
        start, raw_start = clock.now(), clock.raw()
        ideals = package.enumerate_ideals(package.build_ring(package.parse_ring_spec(spec)))
        wall += clock.now() - start
        raw += clock.raw() - raw_start
        for ideal in ideals:
            key = f"{spec} {ideal.text()}"
            start, raw_start = clock.now(), clock.raw()
            try:
                audit = package.audit_ideal(ideal, phase["cap"], max_tuples=phase["max_tuples"])
                error = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            elapsed, raw_elapsed = clock.now() - start, clock.raw() - raw_start
            wall += elapsed
            raw += raw_elapsed
            record = {"key": key, "expect": key, "s": elapsed, "raw_s": raw_elapsed}
            if error is not None:
                record["error"] = error
            else:
                payload = audit.as_dict()
                record["digest"] = verdicts.digest(verdicts.project("audit", None, payload))
                record["summary"] = verdicts.summary("audit", None, payload)
                counts["audits"] += 1
                for level in payload["levels"].values():
                    counts["reports"] += 1
                    counts["reported_tuples"] += level["tuples_scanned"]
            records.append(record)
    return wall, raw, records


def _micro(package) -> dict:
    """mul_values per second over all ordered pairs of a 64-element ring."""
    rates = {}
    for kind, spec in MICRO_RINGS.items():
        ring = package.build_ring(package.parse_ring_spec(spec))
        values = list(ring.iter_values())
        mul = ring.mul_values
        passes = []
        for _ in range(MICRO_PASSES):
            start = time.perf_counter()
            for a in values:
                for b in values:
                    mul(a, b)
            passes.append(time.perf_counter() - start)
        passes.sort()
        rates[kind] = len(values) ** 2 / passes[len(passes) // 2]
    return rates


def main(argv: list[str]) -> int:
    phase_path, result_path = argv[0], argv[1]
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    with open(phase_path, encoding="utf-8") as handle:
        phase = json.load(handle)
    if "absorbing_ideals" in sys.modules:
        raise RuntimeError("the package was imported before set-up: not a fresh interpreter")

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
    # paced only where the end-to-end metrics are measured
    clock = WallClock() if tracer is not None or "--micro" in argv else PacedClock()
    clock.start()
    start, raw_start = clock.now(), clock.raw()
    package, missing = _set_up(phase["rings"], tracer)
    result = {"pid": os.getpid(), "token": PROCESS_TOKEN, "setup_s": clock.now() - start,
              "raw_setup_s": clock.raw() - raw_start, "missing": missing}

    if "--micro" in argv:
        result["mul_per_s"] = _micro(package)
    elif "--setup-only" not in argv:
        counts = Counter()
        runner = _battery_phase if phase["kind"] == "battery" else _cli_phase
        wall, raw, records = runner(package, phase, counts, clock)
        result.update(wall_s=wall, raw_wall_s=raw, jobs=records, counts=dict(counts))
    clock.stop()
    if clock.samples:
        result["pace_sample_s"] = statistics.median(clock.samples)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(spans_path)
        result["spans"] = spans_path
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
