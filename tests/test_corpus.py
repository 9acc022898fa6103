"""Battery audits and the two surveys, on a handful of small rings."""

import itertools

import pytest

from absorbing_ideals import (
    BUILTIN_CORPUS,
    Ideal,
    audit_ideal,
    battery_report,
    build_ring,
    enumerate_ideals,
    parse_ring_spec,
    run_battery,
    run_ring_audit,
    trace_survey,
    zero_diagonal_survey,
)
from absorbing_ideals import ideals as ideals_module
from absorbing_ideals import corpus
from absorbing_ideals.corpus import zero_coordinate_decider
from absorbing_ideals.machinery import SquareMatrix, is_projectively_zero
from absorbing_ideals.rings import QuotientRing, ZMod


def test_builtin_corpus_contents():
    assert len(BUILTIN_CORPUS) == 41
    assert "Zmod:2" in BUILTIN_CORPUS and "Zmod:36" in BUILTIN_CORPUS
    assert "Product:[Zmod:4,Zmod:3]" in BUILTIN_CORPUS
    assert len(set(BUILTIN_CORPUS)) == len(BUILTIN_CORPUS)
    for spec in BUILTIN_CORPUS:
        parse_ring_spec(spec)


def test_audit_zero_ideal_z8():
    ring = build_ring(parse_ring_spec("Zmod:8"))
    audit = audit_ideal(Ideal.zero(ring))
    assert not audit.skipped
    assert audit.omega_value == 3
    assert audit.monotone_ok
    assert audit.radical_text == "(2)"
    assert audit.radical_size == 4
    assert audit.radical_power_ok
    assert audit.element_power_ok
    assert audit.sharp  # (2)^2 = (4) is not inside (0)
    assert audit.reduction_ok
    assert audit.colons_ok
    assert audit.chain_ok
    assert audit.ok


def test_audit_unit_ideal_is_skipped():
    ring = build_ring(parse_ring_spec("Zmod:8"))
    audit = audit_ideal(Ideal.unit(ring))
    assert audit.skipped
    assert "proper" in audit.skip_reason
    assert audit.ok


def test_audit_rejects_cap_below_one():
    ring = build_ring(parse_ring_spec("Zmod:8"))
    for ideal in (Ideal.zero(ring), Ideal.unit(ring)):
        with pytest.raises(ValueError, match="cap must be at least 1, got 0"):
            audit_ideal(ideal, 0)


def test_audit_builds_one_quotient_ring_per_proper_ideal(monkeypatch):
    built = []
    init = QuotientRing.__init__

    def counting_init(self, base, ideal_values):
        built.append(frozenset(ideal_values))
        init(self, base, ideal_values)

    monkeypatch.setattr(QuotientRing, "__init__", counting_init)
    ring = build_ring(parse_ring_spec("Zmod:12"))
    for ideal in enumerate_ideals(ring):
        built.clear()
        audit_ideal(ideal, 4)
        assert built == ([] if ideal.is_unit else [ideal.element_values])


def test_audit_walks_each_radical_once(monkeypatch):
    # each (ring, ideal) pair is walked once: the ring keeps the radical
    walks = []
    walk = ideals_module.values_with_power_in

    def counting_walk(ring, targets):
        walks.append((id(ring), frozenset(targets)))
        return walk(ring, targets)

    monkeypatch.setattr(ideals_module, "values_with_power_in", counting_walk)
    audit = run_ring_audit("Zmod:12", 4)
    assert audit.ok and audit.ideal_count == 6
    # 5 proper ideals of Zmod:12 and the zero ideal of each quotient
    assert len(walks) == len(set(walks)) == 10


def test_audit_marks_inapplicable_checks_none():
    # Zmod:32 zero ideal: omega exceeds the default cap
    ring = build_ring(parse_ring_spec("Zmod:32"))
    audit = audit_ideal(Ideal.zero(ring))
    assert audit.omega_value is None
    assert audit.radical_power_ok is None
    assert audit.sharp is None
    assert audit.ok  # nothing is false, inapplicable passes


def test_ring_audit_covers_every_ideal():
    audit = run_ring_audit("Zmod:12")
    assert audit.size == 12
    assert audit.ideal_count == 6
    assert [a.ideal_text for a in audit.audits] == [
        "(0)", "(6)", "(4)", "(3)", "(2)", "(1)",
    ]
    assert audit.ok


def test_battery_report_shape():
    audits = run_battery(["Zmod:4", "Zmod:9"])
    report = battery_report(audits)
    assert report["ok"] is True
    assert [r["ring"] for r in report["rings"]] == ["Zmod:4", "Zmod:9"]
    first = report["rings"][0]["ideals"][0]
    assert first["ideal"] == "(0)"
    assert first["omega"] == 2


def test_trace_survey_exhaustive_small_ring():
    survey = trace_survey("Zmod:4", seed=0, limit=200)
    assert survey["omega"] == 2
    assert survey["nilpotent_count"] == 2
    assert survey["mode"] == "exhaustive"
    assert survey["tuples_checked"] == 4
    assert survey["verified"] == 4
    assert survey["failed"] == 0
    assert survey["radical_power_zero"] is True
    assert "seed" not in survey


def test_trace_survey_sampled_is_deterministic():
    a = trace_survey("Zmod:16", seed=9, limit=10)
    b = trace_survey("Zmod:16", seed=9, limit=10)
    assert a == b
    assert a["mode"] == "sampled"
    assert a["seed"] == 9
    assert a["tuples_checked"] == 10
    assert a["failed"] == 0


def test_trace_survey_skips_when_omega_exceeds_cap():
    survey = trace_survey("Zmod:32", seed=0, limit=10, cap=4)
    assert survey["omega"] is None
    assert "skipped" in survey


def test_zero_diagonal_survey_exhaustive_m2():
    survey = zero_diagonal_survey("Zmod:4", 2)
    assert survey["mode"] == "exhaustive"
    # upper triangular 2x2 has 3 free cells
    assert survey["matrices_planned"] == 4 ** 3
    assert survey["matrices_checked"] == 64
    assert survey["lemma_violations"] == []
    assert survey["walk_succeeded"] >= survey["property_holds_count"]
    assert (
        survey["property_holds_count"] + survey["all_nonzero_diagonal_count"]
        <= survey["matrices_checked"]
    )


def test_zero_diagonal_survey_gate_counts_the_cells_that_vary():
    # a 3 x 3 upper triangular matrix has 6 free cells: 2**6 = 64 matrices
    survey = zero_diagonal_survey("Zmod:2", 3, feasibility=64)
    assert survey["mode"] == "exhaustive"
    assert survey["matrices_planned"] == survey["matrices_checked"] == 64
    assert zero_diagonal_survey("Zmod:2", 3, feasibility=63, sample_size=5)["mode"] == "sampled"


@pytest.mark.parametrize(
    "spec",
    [
        "Zmod:2",
        "Zmod:4",
        "PolyQuot:{p:2,poly:[0,0,1]}",
        "Product:[Zmod:2,Zmod:2]",
        "Quotient:{ring:Zmod:8,gens:[4]}",
    ],
)
def test_zero_coordinate_decider_matches_the_vector_scan(spec, monkeypatch):
    # every upper triangular matrix with m <= 3, through one decider per
    # ring as a survey uses it, and through one whose memo keeps at most
    # three vectors and so is emptied again and again
    ring = build_ring(parse_ring_spec(spec))
    values = list(ring.iter_values())
    deciders = [zero_coordinate_decider(ring)]
    monkeypatch.setattr(corpus, "SUFFIX_MEMO_BUDGET", 3)
    deciders.append(zero_coordinate_decider(ring))
    for m in (1, 2, 3):
        cells = [(i, j) for i in range(m) for j in range(i, m)]
        for assignment in itertools.product(values, repeat=len(cells)):
            rows = [[ring.zero_value] * m for _ in range(m)]
            for (i, j), v in zip(cells, assignment):
                rows[i][j] = v
            expected = is_projectively_zero(SquareMatrix(ring, rows)).holds
            assert [decide(rows) for decide in deciders] == [expected] * 2, rows


def test_zero_diagonal_survey_sampled_mode():
    survey = zero_diagonal_survey(
        "Zmod:6", 3, feasibility=10, sample_size=200, seed=4
    )
    assert survey["mode"] == "sampled"
    assert survey["sample_size"] == 200
    assert survey["seed"] == 4
    assert survey["matrices_checked"] == 200
    assert survey["lemma_violations"] == []
    again = zero_diagonal_survey(
        "Zmod:6", 3, feasibility=10, sample_size=200, seed=4
    )
    assert survey == again


def test_zero_diagonal_survey_rejects_bad_m():
    with pytest.raises(ValueError):
        zero_diagonal_survey("Zmod:4", 0)


@pytest.mark.parametrize("sample_size", [0, -3])
def test_zero_diagonal_survey_rejects_a_sample_size_below_1(sample_size):
    with pytest.raises(ValueError, match="sample size must be at least 1"):
        zero_diagonal_survey("Zmod:4", 2, feasibility=10, sample_size=sample_size)


@pytest.mark.parametrize(
    "spec, m, feasibility",
    [
        ("Zmod:4", 2, 10**6),
        ("Zmod:8", 2, 10**6),
        ("Product:[Zmod:2,Zmod:2]", 2, 10**6),
        ("Zmod:4", 3, 10),
        ("Zmod:12", 3, 10),
        ("PolyQuot:{p:2,poly:[0,0,1]}", 4, 10),
    ],
)
def test_zero_diagonal_survey_gives_each_matrix_one_outcome(spec, m, feasibility):
    survey = zero_diagonal_survey(spec, m, feasibility=feasibility, sample_size=150, seed=2)
    assert survey["mode"] == ("exhaustive" if feasibility == 10**6 else "sampled")
    assert survey["matrices_checked"] == survey["matrices_planned"]
    assert (
        survey["walk_succeeded"] + survey["walk_rejected"] + len(survey["lemma_violations"])
        == survey["matrices_checked"]
    )
    # the lemma holds, and the walk refuses only matrices without the property
    assert survey["lemma_violations"] == []
    assert survey["walk_rejected"] <= survey["matrices_checked"] - survey["property_holds_count"]


def test_unit_ideal_audit_records_only_the_skip():
    audit = audit_ideal(Ideal.unit(build_ring(ZMod(6))))
    assert audit.as_dict() == {
        "ideal": "(1)",
        "size": 6,
        "skipped": True,
        "skip_reason": "unit ideal: the absorbing property is defined for proper ideals",
        "omega": None,
        "omega_cap": 4,
        "levels": {},
        "monotone_ok": None,
        "radical": None,
        "radical_size": None,
        "radical_power_ok": None,
        "element_power_ok": None,
        "sharp": None,
        "reduction_ok": None,
        "colons_ok": None,
        "chain_ok": None,
        "ok": True,
    }


def test_resource_limits_are_recorded_per_ring():
    # the zero ideal of Z8 needs 3 multisets at n=1 and 5 at n=3
    limited = run_ring_audit("Zmod:8", max_tuples=2)
    assert not limited.ok
    entry = limited.as_dict()
    assert entry["error"] == {
        "kind": "resource-limit",
        "message": "scan of 3 multisets exceeds the cap 2",
    }
    assert entry["ideals"] == [] and entry["ideal_count"] is None

    report = battery_report(run_battery(["Zmod:4", "Zmod:8"], max_tuples=2))
    assert [r["ring"] for r in report["rings"]] == ["Zmod:4", "Zmod:8"]
    assert report["rings"][0]["ok"] and "error" not in report["rings"][0]
    assert not report["ok"]

    # the survey's own omega scan stops at n = 3, before any trace
    survey = trace_survey("Zmod:8", max_tuples=4)
    assert survey == {
        "ring": "Zmod:8",
        "omega": None,
        "error": {"kind": "resource-limit", "message": "scan of 5 multisets exceeds the cap 4"},
    }
