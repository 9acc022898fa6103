"""Ten end-to-end acceptance checks, one per numbered criterion.

Each test prints a single machine-greppable verdict line; run with
`pytest tests/test_acceptance.py -s` to watch them stream.  Heavy shared
work (the corpus battery, the trace survey) happens once per module.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from absorbing_ideals import (
    BUILTIN_CORPUS,
    Ideal,
    build_ring,
    build_shift_matrix,
    eval_monomial,
    ideal_power,
    induction_multidegrees,
    monomial_image_ideal,
    monomials_with_multidegree,
    multidegree,
    parse_ring_spec,
    prove_radical_power_zero,
    radical,
    run_battery,
    sum_ideal,
    trace_survey,
    verify_trace,
    zero_diagonal_survey,
)
from oracles import naive_product

SURVEY_SEED = 0
SURVEY_LIMIT = 200
# the report of `corpus-scan --seed 7`; any change to it is a change of
# verdict, witness or rendering and must be made on purpose
CORPUS_SCAN_SEED_7_SHA256 = (
    "e18fdb9e0f901d7918321ae32a067b936b2f09987e39b5300ca5f3c906be9e55"
)


VERDICT_LINES: list = []


def _verdict(num: int, name: str, ok: bool) -> bool:
    line = f"acceptance criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    VERDICT_LINES.append(line)
    print("\n" + line)
    return ok


@pytest.fixture(scope="module")
def battery():
    start = time.monotonic()
    audits = run_battery(BUILTIN_CORPUS)
    elapsed = time.monotonic() - start
    return audits, elapsed


@pytest.fixture(scope="module")
def surveys():
    start = time.monotonic()
    results = [
        trace_survey(spec, seed=SURVEY_SEED, limit=SURVEY_LIMIT)
        for spec in BUILTIN_CORPUS
    ]
    elapsed = time.monotonic() - start
    return results, elapsed


def _measured(audits):
    """(ring_spec, audit) pairs whose least absorbing level was found."""
    return [
        (ring.ring_spec, audit)
        for ring in audits
        for audit in ring.audits
        if not audit.skipped and audit.omega_value is not None
    ]


def test_criterion_01_main_theorem(battery):
    audits, elapsed = battery
    measured = _measured(audits)
    containments = [audit.radical_power_ok for _, audit in measured]
    ok = (
        len(containments) > 0
        and all(c is True for c in containments)
        and elapsed < 300.0
    )
    assert _verdict(1, "radical power containment", ok)
    assert all(c is True for c in containments)
    assert elapsed < 300.0, f"battery took {elapsed:.1f}s"


def test_criterion_02_sharpness(battery):
    audits, _ = battery
    sharp = {
        (spec, audit.ideal_text, audit.omega_value)
        for spec, audit in _measured(audits)
        if audit.sharp is True
    }
    ok = len(sharp) >= 1 and ("Zmod:8", "(0)", 3) in sharp
    assert _verdict(2, "sharpness of the exponent", ok)
    assert ("Zmod:8", "(0)", 3) in sharp
    # cross-check the flagged instance by direct arithmetic
    ring = build_ring(parse_ring_spec("Zmod:8"))
    zero = Ideal.zero(ring)
    square = ideal_power(radical(zero), 2)
    assert not (square.element_values <= zero.element_values)


def test_criterion_03_element_power(battery):
    audits, _ = battery
    measured = _measured(audits)
    failures = [
        (spec, audit.ideal_text)
        for spec, audit in measured
        if audit.element_power_ok is not True
    ]
    ok = len(measured) > 0 and not failures
    assert _verdict(3, "element powers land in the ideal", ok)
    assert failures == []


def test_criterion_04_quotient_reduction(battery):
    audits, _ = battery
    proper = [
        (ring.ring_spec, audit)
        for ring in audits
        for audit in ring.audits
        if not audit.skipped
    ]
    failures = [
        (spec, audit.ideal_text)
        for spec, audit in proper
        if audit.reduction_ok is not True
    ]
    ok = len(proper) > 0 and not failures
    assert _verdict(4, "reduction to the quotient zero ideal", ok)
    assert failures == []


def test_criterion_05_monotonicity(battery):
    audits, _ = battery
    proper = [
        (ring.ring_spec, audit)
        for ring in audits
        for audit in ring.audits
        if not audit.skipped
    ]
    failures = [
        (spec, audit.ideal_text)
        for spec, audit in proper
        if audit.monotone_ok is not True
    ]
    ok = len(proper) > 0 and not failures
    assert _verdict(5, "absorbing level is upward monotone", ok)
    assert failures == []


def test_criterion_06_diagonal_walk_suite():
    results = [
        zero_diagonal_survey(spec, m)
        for spec in ("Zmod:4", "Zmod:6")
        for m in (1, 2, 3)
    ]
    violations = [v for r in results for v in r["lemma_violations"]]
    sampled = [r for r in results if r["mode"] == "sampled"]
    ok = (
        not violations
        and all(r["matrices_checked"] > 0 for r in results)
        and all(r["matrices_checked"] >= 10**4 for r in sampled)
    )
    assert _verdict(6, "zero diagonal walk on triangular matrices", ok)
    assert violations == []
    # the gate counts the m(m+1)/2 cells that vary: Zmod:6 at m = 3 has
    # 6**6 matrices, within the default feasibility of 10**6
    assert [r["mode"] for r in results] == ["exhaustive"] * 6
    assert results[-1]["matrices_checked"] == 6**6
    for r in sampled:
        assert r["matrices_checked"] >= 10**4


def test_criterion_07_worked_examples():
    checks = []

    checks.append(multidegree((2, 4, 2)) == (4, 2, 2))

    degree_three = [a for a in induction_multidegrees(3) if sum(a) == 3]
    checks.append(degree_three == [(3, 0, 0), (2, 1, 0), (1, 1, 1)])
    checks.append(
        monomials_with_multidegree((3, 0, 0))
        == [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    )
    checks.append(
        set(monomials_with_multidegree((2, 1, 0)))
        == {(2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2)}
    )
    checks.append(monomials_with_multidegree((1, 1, 1)) == [(1, 1, 1)])

    # the classwise ideals of degree 3 sum to the full cube of the ideal
    ring = build_ring(parse_ring_spec("Zmod:16"))
    gens = [2, 4, 6]
    class_sum = Ideal.zero(ring)
    for alpha in degree_three:
        class_sum = sum_ideal(class_sum, monomial_image_ideal(ring, gens, alpha))
    cube = ideal_power(Ideal.from_generators(ring, gens), 3)
    checks.append(class_sum == cube)

    # shift matrix of g = ab: diagonal entries are g itself, and each
    # off-diagonal monomial is a doubled single variable, so it dies
    # whenever the generators square to zero
    mat = build_shift_matrix(ring, [2, 4], (1, 1))
    checks.append(mat.entry_monomials[0][0] == (1, 1))
    checks.append(mat.entry_monomials[1][1] == (1, 1))
    checks.append(mat.entry_monomials[0][1] == (0, 2))
    checks.append(mat.entry_monomials[1][0] == (2, 0))
    square_zero = build_ring(parse_ring_spec("Zmod:4"))
    dmat = build_shift_matrix(square_zero, [2, 2], (1, 1))
    g = eval_monomial(square_zero, [2, 2], (1, 1))
    checks.append(
        dmat.rows == ((g, 0), (0, g))  # diagonal(ab, ab) once a*a = b*b = 0
    )

    ok = all(checks)
    assert _verdict(7, "worked examples reproduce", ok)
    assert checks == [True] * len(checks)


def test_criterion_08_trace_round_trip(surveys):
    start = time.monotonic()
    named_cases_ok = True
    for spec, gens, n in (
        ("Zmod:4", (2, 2), 2),
        ("Zmod:8", (2, 4, 6), 3),
        ("Zmod:27", (3, 3, 3), 3),
    ):
        ring = build_ring(parse_ring_spec(spec))
        trace = prove_radical_power_zero(ring, gens)
        direct = ring.render_value(naive_product(ring, gens))
        named_cases_ok = (
            named_cases_ok
            and trace.n == n
            and verify_trace(trace).ok
            and trace.final_product == direct
        )
    named_elapsed = time.monotonic() - start

    results, survey_elapsed = surveys
    surveyed = [r for r in results if r.get("omega") is not None]
    survey_ok = (
        len(surveyed) > 0
        and all(r["failed"] == 0 for r in surveyed)
        and all(r["verified"] == r["tuples_checked"] for r in surveyed)
    )
    total_elapsed = named_elapsed + survey_elapsed
    ok = named_cases_ok and survey_ok and total_elapsed < 600.0
    assert _verdict(8, "trace generation and independent replay", ok)
    assert named_cases_ok
    assert survey_ok
    assert total_elapsed < 600.0, f"traces took {total_elapsed:.1f}s"


def test_criterion_09_colon_corollaries(battery):
    audits, _ = battery
    applicable = [
        (ring.ring_spec, audit)
        for ring in audits
        for audit in ring.audits
        if not audit.skipped
        and (audit.colons_ok is not None or audit.chain_ok is not None)
    ]
    failures = [
        (spec, audit.ideal_text)
        for spec, audit in applicable
        if audit.colons_ok is False or audit.chain_ok is False
    ]
    covered = {(spec, audit.ideal_text) for spec, audit in applicable}
    mandatory = {("Zmod:8", "(0)"), ("Zmod:27", "(0)")}
    ok = not failures and mandatory <= covered
    assert _verdict(9, "colon ideal corollaries", ok)
    assert failures == []
    assert mandatory <= covered


def test_criterion_10_deterministic_reports(tmp_path):
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "absorbing_ideals",
                "corpus-scan",
                "--seed",
                "7",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=590,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    digest = hashlib.sha256(outputs[0]).hexdigest()
    payload = json.loads(outputs[0])
    ok = (
        identical
        and digest == CORPUS_SCAN_SEED_7_SHA256
        and payload["ok"] is True
        and payload["seed"] == 7
    )
    assert _verdict(10, "byte-identical seeded reports", ok)
    assert identical
    assert digest == CORPUS_SCAN_SEED_7_SHA256
    assert payload["ok"] is True


def test_corpus_scan_bench_checks_criterion_10s_digest(capsys, monkeypatch, load_script):
    bench = load_script("bench_corpus_scan")
    assert bench.CORPUS_SCAN_SEED_7_SHA256 == CORPUS_SCAN_SEED_7_SHA256

    def other_report(src, *argv):
        Path(argv[-1]).write_text("{}")
        return 1.0, 1.0, ""

    # a report with another digest makes the run exit 1
    monkeypatch.setattr(bench.harness, "run_child", other_report)
    assert bench.main(["--runs", "1"]) == 1
    assert " sha256 ok" not in capsys.readouterr().out
