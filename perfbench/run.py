#!/usr/bin/env python3
"""Benchmark for absorbing_ideals: four verdict-checked workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: corpus-battery, deep-omega,
large-ring, traces (see NOTES.md).  The run repeats the workload, each
repetition in fresh interpreters, until S seconds have passed and at
least three repetitions are done, and reports medians over them.
Every job's verdict is compared with expected.json.  End-to-end times
are paced seconds, read from pace.PacedClock so that the host's
changing speed cancels out.

With --trace 0 the last line of stdout carries the end-to-end metrics;
the line before it, starting with "#", carries details such as
the percentile `job_tail_ms` stands for, `fail_rate` and raw times.
With --trace 1 the run alternates untraced and traced repetitions; the
traced ones wrap the package's public functions in spans (tracer.py)
and the last line carries the per-layer metrics and `trace_overhead`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
PACKAGE_INIT = ROOT / "src" / "absorbing_ideals" / "__init__.py"

MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_PROBES = 3
HARD_LIMIT_S = 150  # stop repeating past this, whatever --seconds says
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile


class WorkerError(RuntimeError):
    pass


class Run:
    """One benchmark run: repetitions, verdict checks and their tallies."""

    def __init__(self, plan: dict, expected: dict, workdir: Path, deadline: float):
        self.plan = plan
        self.expected = expected["jobs"]
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tokens: list[str] = []
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        self.serial = 0

    # processes -------------------------------------------------------------

    def spawn(self, phase: dict, *flags: str, spans: bool = False) -> dict:
        self.serial += 1
        stem = self.workdir / f"p{self.serial:03d}"
        phase_path, result_path = stem.with_suffix(".phase.json"), stem.with_suffix(".result.json")
        phase_path.write_text(json.dumps(phase), encoding="utf-8")
        command = [sys.executable, str(WORKER), str(phase_path), str(result_path), *flags]
        if spans:
            command += ["--trace", str(stem.with_suffix(".spans.json"))]
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        timeout = max(10.0, self.deadline - time.monotonic())
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise WorkerError(f"worker passed the {timeout:.0f} s limit") from None
        if done.returncode != 0:
            raise WorkerError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        if done.stderr.strip():
            print(done.stderr.strip(), file=sys.stderr)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.tokens.append(result["token"])
        return result

    def setup_probe(self) -> None:
        result = self.spawn(self.plan["phases"][0], "--setup-only")
        self.setups.append(result["setup_s"])
        self.raw_setups.append(result["raw_setup_s"])

    # repetitions -----------------------------------------------------------

    def repetition(self, traced: bool) -> dict:
        phase = dict(self.plan["phases"][0], workdir=str(self.workdir.relative_to(ROOT)))
        results = [self.spawn(phase, spans=traced)]
        if "tampers" in self.plan:
            verify = self.verify_phase(phase, results[0])
            results.append(self.spawn(verify, spans=traced))
            if results[0]["pid"] == results[1]["pid"]:
                self.problem("prove and verify ran in the same process")
        rep = {
            "wall_s": sum(r["wall_s"] for r in results),
            "raw_wall_s": sum(r["raw_wall_s"] for r in results),
            "setups": [r["setup_s"] for r in results],
            "raw_setups": [r["raw_setup_s"] for r in results],
            "pace_sample_s": [r["pace_sample_s"] for r in results if "pace_sample_s" in r],
            "rss_kb": max(r["rss_kb"] for r in results),
            "jobs": [job for r in results for job in r["jobs"]],
            "counts": Counter(),
            "layers": {},
            "layer_counts": Counter(),
            "missing": {m for r in results for m in r.get("missing", [])},
        }
        for index, r in enumerate(results):
            rep["counts"].update(r["counts"])
            if "spans" in r:
                spans = json.loads(Path(r["spans"]).read_text(encoding="utf-8"))
                rep["layer_counts"].update(spans["counts"])
                for name, entry in tracer.aggregate(spans["spans"]).items():
                    rep["layers"].setdefault(name, Counter()).update(entry)
                if index == 0:
                    rep["prove_vectors"] = spans["counts"].get("machinery.vectors_checked", 0)
        self.check_verdicts(rep)
        if traced:
            rep["mul_per_s"] = self.spawn(phase, "--micro")["mul_per_s"]
            self.check_spans(rep)
        for path in self.workdir.iterdir():
            path.unlink()
        return rep

    def verify_phase(self, prove: dict, prove_result: dict) -> dict:
        """verify-trace on every emitted trace plus the tampered copies."""
        rng = random.Random(f"verify:{self.plan['seed']}")
        steps = {r["key"]: r["summary"].get("steps") for r in prove_result["jobs"] if "digest" in r}
        jobs = []
        for job in prove["jobs"]:
            if steps.get(job["key"]) is None:
                continue
            jobs.append(self._verify_job(prove, job["save"], "verify genuine", steps[job["key"]]))
        for tamper in self.plan["tampers"]:
            source = self.workdir / tamper["source"]
            if not source.exists():
                self.problem(f"no trace to tamper for {tamper['kind']}")
                continue
            document = json.loads(source.read_text(encoding="utf-8"))
            workloads.tamper_trace(document, tamper["kind"], random.Random(tamper["seed"]))
            name = f"tampered-{tamper['kind']}.json"
            (self.workdir / name).write_text(json.dumps(document, indent=2), encoding="utf-8")
            jobs.append(self._verify_job(prove, name, f"verify {tamper['kind']}", len(document["steps"])))
        rng.shuffle(jobs)
        return dict(prove, name="verify", jobs=jobs)

    def _verify_job(self, prove, name, expect, steps):
        path = str(Path(prove["workdir"]) / name)
        argv = ["verify-trace", path, "--max-tuples", str(workloads.MAX_TUPLES)]
        return {"key": f"verify {name}", "kind": "verify", "argv": argv,
                "expect": expect, "steps": steps}

    # checks ----------------------------------------------------------------

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"check failed: {text}", file=sys.stderr)

    def check_verdicts(self, rep: dict) -> None:
        mismatched_exits = 0
        tampered = caught = 0
        for job in rep["jobs"]:
            self.attempted += 1
            want = self.expected.get(job["expect"])
            reason = None
            if "error" in job:
                reason = job["error"]
            elif want is None:
                reason = "no expected verdict"
            elif job["digest"] != want["digest"]:
                reason = f"verdict {job['summary']} differs from expected {want['summary']}"
            elif job.get("gens_ok") is False:
                reason = "trace does not echo its generators"
            if want is not None and "exit" in want["summary"] and job.get("exit") != want["summary"]["exit"]:
                mismatched_exits += 1
            if job["expect"].startswith("verify ") and job["expect"] != "verify genuine":
                tampered += 1
                caught += job.get("summary", {}).get("ok") is False
            if reason is not None:
                self.failed += 1
                print(f"failed: {job['key']}: {reason}", file=sys.stderr)
        rep["exit_mismatch"] = mismatched_exits
        rep["tampered"] = (tampered, caught)

    def check_spans(self, rep: dict) -> None:
        """Span counts must equal the counts read from the program's outputs.

        A check is skipped when the tracer could not find the function it
        rests on; the worker has said so on stderr.
        """
        calls = {name: entry["calls"] for name, entry in rep["layers"].items()}
        counts, layer_counts = rep["counts"], rep["layer_counts"]
        kind = self.plan["phases"][0]["kind"]
        if kind == "battery":
            checks = [
                ("corpus.audit_ideal", calls.get("corpus.audit", 0), counts["audits"]),
                ("ideals.enumerate_ideals", layer_counts["ideals.count"], len(rep["jobs"])),
                ("absorbing.is_n_absorbing", layer_counts["check.audit_level_calls"], counts["reports"]),
                ("absorbing.is_n_absorbing", layer_counts["check.audit_level_tuples"], counts["reported_tuples"]),
            ]
        else:
            cli_jobs = sum(1 for job in rep["jobs"] if job.get("cli"))
            checks = [("cli._emit", calls.get("cli.render", 0), cli_jobs)]
        if "tampers" in self.plan:
            checks += [
                ("machinery.prove_radical_power_zero", calls.get("machinery.prove", 0), counts["traces_emitted"]),
                ("machinery.verify_trace", calls.get("machinery.verify", 0), counts["verify_jobs"]),
                ("machinery.is_projectively_zero", rep["prove_vectors"], counts["reported_vectors"]),
            ]
        elif kind == "cli":
            checks += [
                ("absorbing.is_n_absorbing", calls.get("absorbing.decide", 0), counts["reports"]),
                ("absorbing.is_n_absorbing", layer_counts["check.decide_tuples"], counts["reported_tuples"]),
            ]
        for target, traced, reported in checks:
            if target not in rep["missing"] and traced != reported:
                self.problem(f"spans of {target} count {traced}, outputs say {reported}")


# ---------------------------------------------------------------------------
# metrics


def median(values):
    return statistics.median(values) if values else 0.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND jobs beyond it, and its percentile.

    With fewer than 2 * TAIL_BEYOND jobs that statistic would sit below
    the median, so the slowest job (percentile 100) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(reps: list[dict], setups: list[float], raw_setups: list[float]) -> tuple[dict, dict]:
    """The gated metrics, and details printed beside them.

    Times are paced seconds (pace.py); the raw wall-clock medians are
    printed beside them, with the percentile `job_tail_ms` stands for.
    """
    tails = [tail([job["s"] for job in r["jobs"]]) for r in reps]
    metrics = {
        "wall_s": (median([r["wall_s"] for r in reps]), "s"),
        "setup_s": (median(setups), "s"),
        "job_p50_ms": (1000 * median([job["s"] for r in reps for job in r["jobs"]]), "ms"),
        "job_tail_ms": (1000 * median([value for value, _ in tails]), "ms"),
        "peak_rss_mb": (median([r["rss_kb"] for r in reps]) / 1024, "MB"),
    }
    detail = {
        "jobs_per_rep": len(reps[0]["jobs"]),
        "job_tail_percentile": round(tails[0][1], 1),
        "setup_samples": len(setups),
        "rep_wall_s": [round(r["wall_s"], 3) for r in reps],
        "raw": {
            "wall_s": median([r["raw_wall_s"] for r in reps]),
            "setup_s": median(raw_setups),
            "job_p50_ms": 1000 * median([job["raw_s"] for r in reps for job in r["jobs"]]),
        },
        "pace_sample_s": median([s for r in reps for s in r["pace_sample_s"]]),
    }
    return metrics, detail


def per_layer(traced: list[dict], untraced: list[dict], run: Run) -> dict:
    samples: dict[str, list] = {}
    units: dict[str, str] = {}
    for rep in traced:
        for name, (value, unit) in layer_metrics(rep).items():
            samples.setdefault(name, []).append(value)
            units[name] = unit
    metrics = {}
    for name, values in samples.items():
        if units[name] == "count":
            if len(set(values)) != 1:
                run.problem(f"count {name} differs between repetitions: {values}")
            metrics[name] = (values[0], "count")
        else:
            metrics[name] = (median(values), units[name])
    # traced repetitions are not paced, so compare raw wall times
    traced_wall = median([r["wall_s"] for r in traced])
    metrics["trace_overhead"] = (traced_wall / median([r["raw_wall_s"] for r in untraced]), "ratio")
    return metrics


def layer_metrics(rep: dict) -> dict:
    layers, lc, counts = rep["layers"], rep["layer_counts"], rep["counts"]

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def incl_s(name):
        return layers.get(name, {}).get("inclusive_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    scan_calls = calls("absorbing.decide")
    steps = counts["steps_direct"] + counts["steps_zero_diagonal"]
    tampered, caught = rep["tampered"]
    out = {
        "rings.build_s": (self_s("rings.build"), "s"),
        "rings.builds": (lc["rings.builds"], "count"),
        "rings.units_s": (self_s("rings.units"), "s"),
    }
    for kind, value in rep["mul_per_s"].items():
        out[f"rings.mul_per_s.{kind}"] = (value, "1/s")
    out.update({
        "ideals.enumerate_s": (incl_s("ideals.enumerate"), "s"),
        "ideals.count": (lc["ideals.count"], "count"),
        "ideals.radical_s": (incl_s("ideals.radical"), "s"),
        "ideals.colon_s": (incl_s("ideals.colon"), "s"),
        "ideals.power_s": (incl_s("ideals.power"), "s"),
        "ideals.closure_s": (incl_s("ideals.closure"), "s"),
        "absorbing.scan_s": (self_s("absorbing.decide"), "s"),
        "absorbing.scan_calls": (scan_calls, "count"),
        "absorbing.multisets": (lc["absorbing.multisets"], "count"),
        "absorbing.multisets_per_s": (rate(lc["absorbing.multisets"], self_s("absorbing.decide")), "1/s"),
        "absorbing.checks_s": (self_s("absorbing.check"), "s"),
        "absorbing.repeat_ratio": (rate(lc["absorbing.repeats"], scan_calls), "ratio"),
        "monomials.schedule_s": (incl_s("monomials.schedule"), "s"),
        "machinery.prove_s": (incl_s("machinery.prove"), "s"),
        "machinery.verify_s": (incl_s("machinery.verify"), "s"),
        "machinery.steps.direct": (counts["steps_direct"], "count"),
        "machinery.steps.zero_diagonal": (counts["steps_zero_diagonal"], "count"),
        "machinery.prove_steps_per_s": (rate(steps, incl_s("machinery.prove")), "1/s"),
        "machinery.verify_steps_per_s": (rate(counts["verified_steps"], incl_s("machinery.verify")), "1/s"),
        "machinery.eval_monomial_calls": (calls("machinery.eval_monomial"), "count"),
        "machinery.eval_monomial_s": (self_s("machinery.eval_monomial"), "s"),
        "machinery.shift_matrix_s": (self_s("machinery.shift_matrix"), "s"),
        "machinery.projective_zero_s": (incl_s("machinery.projective_zero"), "s"),
        "machinery.vectors_checked": (lc["machinery.vectors_checked"], "count"),
        "machinery.walk_s": (incl_s("machinery.walk"), "s"),
        # no tampered trace accepted; 1.0 also where none was submitted
        "machinery.tampered_caught": (caught / tampered if tampered else 1.0, "ratio"),
        "corpus.audit_self_s": (self_s("corpus.audit"), "s"),
        "cli.render_s": (incl_s("cli.render"), "s"),
        "cli.exit_mismatch": (rep["exit_mismatch"], "count"),
    })
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not PACKAGE_INIT.is_file():
        print(f"cannot benchmark: {PACKAGE_INIT.relative_to(ROOT)} is missing", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    started = time.monotonic()
    plan = workloads.make_plan(args.workload, args.seed)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(plan, expected, workdir, started + HARD_LIMIT_S)
    untraced, traced = [], []
    try:
        run.setup_probe()  # warm-up: compiles bytecode, not counted
        run.setups.clear()
        run.raw_setups.clear()
        deadline = time.monotonic() + args.seconds
        while True:
            untraced.append(run.repetition(traced=False))
            run.setups.extend(untraced[-1]["setups"])
            run.raw_setups.extend(untraced[-1]["raw_setups"])
            if args.trace:
                traced.append(run.repetition(traced=True))
            enough = len(untraced) >= (MIN_TRACED_REPS if args.trace else MIN_REPS)
            now = time.monotonic()
            if (enough and now >= deadline) or now - started > HARD_LIMIT_S:
                break
        for _ in range(SETUP_PROBES):
            run.setup_probe()
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if len(set(run.tokens)) != len(run.tokens):
        run.problem("one process timed more than one repetition")
    metrics, detail = end_to_end(untraced, run.setups, run.raw_setups)
    if args.trace:
        metrics = per_layer(traced, untraced, run)
    detail.update(workload=args.workload, seed=args.seed, reps=len(untraced),
                  traced_reps=len(traced), problems=run.problems,
                  fail_rate={"value": run.failed / max(run.attempted, 1), "unit": "ratio",
                             "attempted": run.attempted})
    print("# " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
