#!/usr/bin/env python3
"""Regenerate expected.json: the verdict projection of every job any seed can plan.

    python3 perfbench/make_expected.py

Run from the repository root, on the commit whose verdicts are the
reference.  Verdicts are also cross-checked, read-only, against the
brute-force oracles in tests/oracles.py wherever the ring is small
enough for them; any disagreement aborts without writing the file.
A drawn trace's expected schedule must come out the same for every
tuple of its ring that is tried, and a tampered copy's failure kinds
the same for every source trace.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import verdicts
import workloads
import worker

ROOT = worker.ROOT
ORACLE_TUPLES = 2 * 10**5  # largest |R|^(n+1) the brute-force oracle is asked about
TEMPLATE_TUPLES = 4096  # drawn-trace tuples tried per ring, the whole space where smaller


class Mismatch(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


class Generator:
    def __init__(self, package, oracles, tmp: Path):
        self.package = package
        self.oracles = oracles
        self.tmp = tmp
        self.jobs: dict = {}
        self.oracle_checks = 0

    def record(self, key, kind, code, payload):
        entry = {
            "digest": verdicts.digest(verdicts.project(kind, code, payload)),
            "summary": verdicts.summary(kind, code, payload),
        }
        if key in self.jobs:
            require(self.jobs[key] == entry, f"{key}: verdict depends on the input drawn")
        self.jobs[key] = entry

    def run(self, job):
        elapsed, code, text, error = worker.run_job(self.package, job)
        require(error is None, f"{job['argv']}: {error}")
        return code, json.loads(text)

    def cli(self, argv):
        return self.run({"argv": argv})

    # oracle cross-checks -----------------------------------------------------

    def check_levels(self, ideal, levels: dict) -> None:
        """Each reported level against the brute-force scan, where it is small."""
        ring = ideal.ring
        for n_text, report in levels.items():
            n = int(n_text)
            if ring.size ** (n + 1) > ORACLE_TUPLES:
                continue
            holds, _ = self.oracles.naive_is_n_absorbing(ideal, n)
            require(holds == report["holds"], f"{ideal}: level {n} disagrees with the oracle")
            if not holds:
                least = self.oracles.naive_sorted_witnesses(ideal, n)[0]
                rendered = [ring.render_value(v) for v in least]
                require(rendered == report["witness"]["elements"],
                        f"{ideal}: witness at level {n} is not the least sorted one")
            self.oracle_checks += 1

    def check_omega(self, ideal, value, cap) -> None:
        if ideal.ring.size ** ((value or cap) + 1) <= ORACLE_TUPLES:
            require(self.oracles.naive_omega(ideal, cap) == value, f"{ideal}: omega disagrees")
            self.oracle_checks += 1

    # workloads ---------------------------------------------------------------

    def battery(self) -> None:
        p = self.package
        require(tuple(p.BUILTIN_CORPUS) == workloads.BATTERY_RINGS,
                "BATTERY_RINGS no longer matches the built-in corpus")
        for spec in workloads.BATTERY_RINGS:
            ring = p.build_ring(p.parse_ring_spec(spec))
            for ideal in p.enumerate_ideals(ring):
                audit = p.audit_ideal(ideal, workloads.BATTERY_CAP,
                                      max_tuples=workloads.MAX_TUPLES).as_dict()
                self.record(f"{spec} {ideal.text()}", "audit", None, audit)
                if not audit["skipped"]:
                    self.check_levels(ideal, audit["levels"])
                    self.check_omega(ideal, audit["omega"], workloads.BATTERY_CAP)

    def scans(self, table, command, level_flag) -> None:
        p = self.package
        for ring_spec, spellings, level in table:
            for ideal_text in spellings:
                argv = workloads._argv(command, ring_spec, "--ideal", ideal_text,
                                       level_flag, str(level))
                code, payload = self.cli(argv)
                self.record(" ".join(argv[:-2]), "report", code, payload)
                ring = p.build_ring(p.parse_ring_spec(ring_spec))
                ideal = p.parse_ideal_text(ring, ideal_text)
                report = payload["report"]
                self.check_levels(ideal, report.get("levels", {str(level): report}))

    def traces(self) -> None:
        p = self.package
        sources = {}
        for ring_spec, gens in workloads.FULL_MACHINERY:
            job = workloads.trace_job(ring_spec, list(gens), full=True)
            code, payload = self.run(job)
            require(code == 0, f"{job['key']}: exit {code}")
            self.record(job["key"], "trace", code, payload)
            sources[(ring_spec, gens)] = payload
        drawn_sources = []
        for ring_spec, n in workloads.TRACE_RINGS:
            ring = p.build_ring(p.parse_ring_spec(ring_spec))
            zero = p.Ideal.zero(ring)
            nil = workloads.nilpotents(ring_spec)
            require(sorted(nil) == sorted(ring.render_value(v) for v in p.radical(zero).element_values),
                    f"{ring_spec}: nilpotent list is wrong")
            require(p.omega(zero, 4, max_tuples=workloads.MAX_TUPLES).value == n,
                    f"{ring_spec}: omega of the zero ideal is not {n}")
            self.check_omega(zero, n, 4)
            space = list(itertools.product(nil, repeat=n))
            if len(space) > TEMPLATE_TUPLES:
                space = random.Random(ring_spec).sample(space, TEMPLATE_TUPLES)
            for gens in space:
                code, payload = self.run(workloads.trace_job(ring_spec, list(gens), full=False))
                require(payload.get("generators") == list(gens), f"{ring_spec} {gens}: generators")
                values = [ring.parse_value(g) for g in gens]
                require(self.oracles.naive_product(ring, values) == ring.zero_value,
                        f"{ring_spec} {gens}: product is not zero")
                self.record(f"trace-schedule {ring_spec} n={n}", "trace", code, payload)
            if n == 4:
                drawn_sources.append(payload)
        self.verify(list(sources.values()) + drawn_sources, sources)

    def verify(self, genuine, full_sources) -> None:
        path = self.tmp / "trace.json"

        def replay(document, key):
            path.write_text(json.dumps(document, indent=2), encoding="utf-8")
            code, payload = self.cli(["verify-trace", str(path), "--max-tuples",
                                      str(workloads.MAX_TUPLES)])
            self.record(key, "verify", code, payload)

        for document in genuine:
            replay(document, "verify genuine")
        for kind, source in workloads.TAMPER_FULL.items():
            for seed in range(4):
                document = json.loads(json.dumps(full_sources[source]))
                workloads.tamper_trace(document, kind, random.Random(seed))
                replay(document, f"verify {kind}")
        for kind in workloads.TAMPER_DRAWN:
            for document in genuine[len(full_sources):]:
                for seed in range(2):
                    copy = json.loads(json.dumps(document))
                    workloads.tamper_trace(copy, kind, random.Random(seed))
                    replay(copy, f"verify {kind}")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "absorbing_ideals").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:24]


def main() -> int:
    package, _ = worker._set_up([], None)
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    with tempfile.TemporaryDirectory() as tmp:
        generator = Generator(package, oracles, Path(tmp))
        try:
            generator.battery()
            generator.scans(workloads.DEEP_OMEGA, "omega", "--cap")
            generator.scans(workloads.LARGE_RING, "check-absorbing", "--n")
            generator.traces()
        except Mismatch as exc:
            print(f"not written: {exc}", file=sys.stderr)
            return 1
    document = {
        "source_digest": source_digest(),
        "oracle_checks": generator.oracle_checks,
        "jobs": dict(sorted(generator.jobs.items())),
    }
    out = Path(__file__).resolve().parent / "expected.json"
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(generator.jobs)} expected verdicts, "
          f"{generator.oracle_checks} oracle cross-checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
