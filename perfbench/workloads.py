"""The four benchmark workloads, made from a seed.

A plan lists phases; each phase runs in its own fresh interpreter and
names the rings its set-up builds and the jobs its timed part runs.
The seed picks job order, the spelling of an ideal among associate
generators, trace generator draws and which trace gets tampered.  None
of these choices change the work counts the traced run reports, so
those repeat exactly from seed to seed.  Why each workload exists is
in NOTES.md.

Only the standard library is used here: plans are made before any
process imports the package.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("corpus-battery", "deep-omega", "large-ring", "traces")

# Above |R|^(n+1) for every job, so each scan is exhaustive under any
# budget rule and no job can flip between exhaustive and sampled mode.
MAX_TUPLES = 10**15

BATTERY_CAP = 4
BATTERY_RINGS = tuple(
    [f"Zmod:{n}" for n in range(2, 37)]
    + [
        "PolyQuot:{p:2,poly:[0,0,1]}",
        "PolyQuot:{p:2,poly:[0,0,0,1]}",
        "PolyQuot:{p:3,poly:[0,0,1]}",
        "PolyQuot:{p:3,poly:[0,0,0,1]}",
        "Product:[Zmod:4,Zmod:3]",
        "Product:[Zmod:2,Zmod:2]",
    ]
)

# (ring, ideal spellings that generate the same ideal, cap).  The zero
# ideal is spelled "()" on PolyQuot and Product rings: the CLI cannot
# parse "(0)" there.
DEEP_OMEGA = (
    ("Zmod:32", ("(0)",), 5),
    ("PolyQuot:{p:2,poly:[0,0,0,0,0,1]}", ("()",), 5),
    ("Quotient:{ring:Zmod:128,gens:[32]}", ("(0)",), 5),
    ("Zmod:81", ("(0)",), 4),
    ("Product:[Zmod:4,Zmod:6]", ("()",), 4),
    ("Zmod:64", ("(8)", "(24)", "(40)", "(56)"), 4),
)

# (ring, ideal spellings, n); every job has a ring no other job uses
LARGE_RING = (
    ("Zmod:4096", ("(0)",), 1),
    ("Zmod:3600", ("(60)", "(420)", "(660)", "(780)"), 2),
    ("Product:[Zmod:32,Zmod:32]", ("()",), 1),
    ("Quotient:{ring:Zmod:4000,gens:[1000]}", ("(0)",), 2),
    ("PolyQuot:{p:2,poly:[0,0,0,0,0,0,0,0,0,1]}", ("()",), 1),
)

# Short-circuit trace rings: (ring, omega of its zero ideal, draws per run)
TRACE_DRAWS = {2: 4, 3: 8, 4: 6}
TRACE_RINGS = (
    ("Zmod:4", 2), ("Zmod:9", 2), ("Zmod:25", 2),
    ("PolyQuot:{p:2,poly:[0,0,1]}", 2), ("PolyQuot:{p:3,poly:[0,0,1]}", 2),
    ("Zmod:8", 3), ("Zmod:12", 3), ("Zmod:18", 3), ("Zmod:20", 3),
    ("Zmod:27", 3), ("Zmod:28", 3),
    ("PolyQuot:{p:2,poly:[0,0,0,1]}", 3), ("PolyQuot:{p:3,poly:[0,0,0,1]}", 3),
    ("Product:[Zmod:4,Zmod:3]", 3),
    ("Zmod:16", 4), ("Zmod:24", 4), ("Zmod:36", 4),
)

# --full-machinery traces, fixed so that their vector counts are fixed
FULL_MACHINERY = (
    ("PolyQuot:{p:2,poly:[0,0,0,1]}", ("[0,1,0]", "[0,1,0]", "[0,1,0]")),
    ("Quotient:{ring:Zmod:36,gens:[18]}", ("6", "12", "6")),
)

# Tampered copies for the verify phase: kind -> the trace it alters.
# Matrix and walk edits need a zero-diagonal step, so they alter the
# cheaper fixed full-machinery trace; the other two alter a drawn trace
# of a ring with omega 4.
TAMPER_FULL = {
    "matrix-entry": FULL_MACHINERY[0],
    "j-sequence": FULL_MACHINERY[0],
}
TAMPER_DRAWN = ("dropped-step", "final-product")


def nilpotents(spec: str) -> list[str]:
    """Nilpotent elements, rendered, of a TRACE_RINGS ring."""
    if spec.startswith("Zmod:"):
        n = int(spec[5:])
        radical = 1
        for p in range(2, n + 1):
            if n % p == 0 and all(p % q for q in range(2, p)):
                radical *= p
        return [str(k) for k in range(0, n, radical)]
    if spec.startswith("PolyQuot:"):
        p = int(spec.split("p:")[1].split(",")[0])
        degree = spec.count(",") - 1
        return [
            "[" + ",".join(map(str, (0,) + tail)) + "]"
            for tail in itertools.product(range(p), repeat=degree - 1)
        ]
    if spec == "Product:[Zmod:4,Zmod:3]":
        return ["(0,0)", "(2,0)"]
    raise ValueError(f"no nilpotent rule for {spec}")


def _argv(command: str, ring: str, *rest: str) -> list[str]:
    return [command, "--ring", ring, *rest, "--max-tuples", str(MAX_TUPLES)]


def trace_job(ring: str, gens: list[str], full: bool) -> dict:
    """A `trace` command, or the library call behind it where the CLI fails.

    The CLI's `trace` parses the default ideal "(0)", which PolyQuot and
    Product rings reject with exit 2, so traces on those rings call
    `prove_radical_power_zero` directly.  `argv` is kept either way.
    """
    argv = _argv("trace", ring, "--gens", ",".join(gens), *(["--full-machinery"] if full else []))
    job = {"key": " ".join(argv[:-2]), "kind": "trace", "argv": argv}
    if ring.startswith(("PolyQuot:", "Product:")):
        job["api"] = {"ring": ring, "gens": gens, "full": full}
    return job


def _scan_jobs(rng: random.Random, table, command: str, level_flag: str) -> list[dict]:
    jobs = []
    for ring, spellings, level in table:
        ideal = rng.choice(spellings)
        argv = _argv(command, ring, "--ideal", ideal, level_flag, str(level))
        key = " ".join(argv[:-2])
        jobs.append({"key": key, "kind": "report", "argv": argv, "expect": key})
    rng.shuffle(jobs)
    return jobs


def _phase(name: str, jobs: list[dict]) -> dict:
    rings = sorted({job["argv"][2] for job in jobs})
    return {"name": name, "kind": "cli", "rings": rings, "jobs": jobs}


def trace_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for ring, gens in FULL_MACHINERY:
        job = trace_job(ring, list(gens), full=True)
        jobs.append(dict(job, expect=job["key"]))
    for ring, n in TRACE_RINGS:
        pool = nilpotents(ring)
        for draw in range(TRACE_DRAWS[n]):
            gens = [rng.choice(pool) for _ in range(n)]
            job = trace_job(ring, gens, full=False)
            jobs.append(dict(job, key=f"trace {ring} draw {draw}",
                             expect=f"trace-schedule {ring} n={n}", gens=gens))
    rng.shuffle(jobs)
    for index, job in enumerate(jobs):
        job["save"] = f"trace-{index:04d}.json"
    return jobs


def tamper_plan(rng: random.Random, prove_jobs: list[dict]) -> list[dict]:
    """Which emitted trace each tampered copy starts from."""
    by_key = {job["key"]: job for job in prove_jobs}
    drawn = [
        job for job in prove_jobs
        if "gens" in job and dict(TRACE_RINGS)[job["argv"][2]] == 4
    ]
    plan = []
    for kind, (ring, gens) in TAMPER_FULL.items():
        key = trace_job(ring, list(gens), full=True)["key"]
        plan.append({"kind": kind, "source": by_key[key]["save"], "seed": rng.randrange(2**31)})
    for kind in TAMPER_DRAWN:
        plan.append({"kind": kind, "source": rng.choice(drawn)["save"], "seed": rng.randrange(2**31)})
    return plan


def make_plan(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus-battery":
        rings = list(BATTERY_RINGS)
        rng.shuffle(rings)
        phase = {
            "name": "battery",
            "kind": "battery",
            "rings": rings,
            "cap": BATTERY_CAP,
            "max_tuples": MAX_TUPLES,
        }
        return {"workload": workload, "seed": seed, "phases": [phase]}
    if workload == "deep-omega":
        jobs = _scan_jobs(rng, DEEP_OMEGA, "omega", "--cap")
        return {"workload": workload, "seed": seed, "phases": [_phase("omega", jobs)]}
    if workload == "large-ring":
        jobs = _scan_jobs(rng, LARGE_RING, "check-absorbing", "--n")
        return {"workload": workload, "seed": seed, "phases": [_phase("check", jobs)]}
    if workload == "traces":
        prove = trace_jobs(rng)
        tampers = tamper_plan(rng, prove)
        return {
            "workload": workload,
            "seed": seed,
            "phases": [_phase("prove", prove)],
            "tampers": tampers,
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def tamper_trace(document: dict, kind: str, rng: random.Random) -> None:
    """Alter one part of a trace document so that replay must reject it."""
    steps = document["steps"]
    matrix_steps = [s for s in steps if s.get("rule") == "zero-diagonal"]
    if kind == "matrix-entry":
        matrix = matrix_steps[-1]["matrix"]
        i, j = rng.randrange(len(matrix)), rng.randrange(len(matrix))
        choices = [t for t in document["generators"] + [document["final_product"]] if t != matrix[i][j]]
        matrix[i][j] = choices[0]
    elif kind == "j-sequence":
        sequence = matrix_steps[-1]["j_sequence"]
        sequence.append(sequence[-1])
    elif kind == "dropped-step":
        del steps[rng.randrange(len(steps))]
    elif kind == "final-product":
        document["final_product"] = "1"
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
