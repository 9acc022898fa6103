"""Absorbing-ideal decision procedures against brute-force oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_ideals import (
    HypothesisNotSatisfiedError,
    Ideal,
    ImproperIdealError,
    ResourceLimitError,
    build_ring,
    check_colon_chain,
    check_colons_two_absorbing,
    check_element_power,
    check_quotient_reduction,
    check_radical_power,
    colon,
    ideal_power,
    is_n_absorbing,
    omega,
    parse_ring_spec,
    radical,
)
from absorbing_ideals.rings import QuotientRing
from oracles import naive_is_n_absorbing, naive_omega, naive_sorted_witnesses

ORACLE_SPECS = [
    "Zmod:2",
    "Zmod:4",
    "Zmod:6",
    "Zmod:8",
    "Zmod:9",
    "Zmod:12",
    "PolyQuot:{p:2,poly:[0,0,1]}",
    "Product:[Zmod:2,Zmod:2]",
]


@st.composite
def ring_ideal_n(draw):
    spec = draw(st.sampled_from(ORACLE_SPECS))
    ring = build_ring(parse_ring_spec(spec))
    gen_count = draw(st.integers(min_value=0, max_value=2))
    gens = [draw(st.sampled_from(sorted(ring.iter_values()))) for _ in range(gen_count)]
    n = draw(st.integers(min_value=1, max_value=3))
    return ring, Ideal.from_generators(ring, gens), n


@settings(max_examples=40)
@given(ring_ideal_n())
def test_is_n_absorbing_matches_oracle(data):
    ring, ideal, n = data
    if ideal.is_unit:
        with pytest.raises(ImproperIdealError):
            is_n_absorbing(ideal, n)
        return
    report = is_n_absorbing(ideal, n)
    expected, _ = naive_is_n_absorbing(ideal, n)
    assert report.holds == expected
    assert bool(report) == expected
    assert report.mode == "exhaustive"
    if not expected:
        witness = report.witness
        assert witness is not None
        assert len(witness.elements) == n + 1
        assert witness.check(ideal)


@settings(max_examples=25)
@given(ring_ideal_n())
def test_witness_is_lex_least_sorted_multiset(data):
    ring, ideal, n = data
    if ideal.is_unit:
        return
    report = is_n_absorbing(ideal, n)
    if report.holds:
        return
    all_witnesses = naive_sorted_witnesses(ideal, n)
    assert tuple(report.witness.elements) == all_witnesses[0]


@settings(max_examples=30)
@given(ring_ideal_n())
def test_omega_matches_oracle(data):
    ring, ideal, _ = data
    if ideal.is_unit:
        return
    result = omega(ideal, cap=4)
    assert result.value == naive_omega(ideal, 4)


def _zero_ideal(spec):
    ring = build_ring(parse_ring_spec(spec))
    return ring, Ideal.zero(ring)


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("Zmod:2", 1),
        ("Zmod:4", 2),
        ("Zmod:8", 3),
        ("Zmod:9", 2),
        ("Zmod:12", 3),
        ("Zmod:16", 4),
        ("Zmod:24", 4),
        ("Zmod:27", 3),
        ("Zmod:30", 3),
        ("Zmod:36", 4),
        ("Zmod:32", None),
        ("PolyQuot:{p:2,poly:[0,0,1]}", 2),
        ("Product:[Zmod:2,Zmod:2]", 2),
        ("Product:[Zmod:3,Zmod:5]", 2),
        ("Zmod:7", 1),
    ],
)
def test_omega_of_zero_ideal_known_values(spec, expected):
    _, ideal = _zero_ideal(spec)
    result = omega(ideal, cap=4)
    assert result.value == expected
    if expected is not None:
        # minimality: the property fails one level down
        levels = result.levels
        assert levels[expected].holds
        if expected > 1:
            assert not levels[expected - 1].holds


def test_omega_levels_are_monotone():
    ring = build_ring(parse_ring_spec("Zmod:24"))
    result = omega(Ideal.zero(ring), cap=4)
    seen_true = False
    for n in sorted(result.levels):
        holds = result.levels[n].holds
        if seen_true:
            assert holds
        seen_true = seen_true or holds


def test_is_n_absorbing_rejects_bad_arguments():
    ring = build_ring(parse_ring_spec("Zmod:4"))
    ideal = Ideal.zero(ring)
    with pytest.raises(ValueError):
        is_n_absorbing(ideal, 0)
    with pytest.raises(ImproperIdealError):
        is_n_absorbing(Ideal.unit(ring), 2)


def test_resource_gate_and_sampled_mode():
    ring = build_ring(parse_ring_spec("Zmod:12"))
    ideal = Ideal.zero(ring)
    with pytest.raises(ResourceLimitError):
        is_n_absorbing(ideal, 2, max_tuples=10)
    with pytest.raises(ValueError, match="seed"):
        is_n_absorbing(ideal, 2, max_tuples=10, samples=50)
    report = is_n_absorbing(ideal, 2, max_tuples=10, samples=400, seed=5)
    assert report.mode == "sampled"
    # Z12 zero ideal is not 2-absorbing; 400 draws find 2*2*3 with ease
    assert not report.holds
    assert report.witness.check(ideal)
    values = list(report.witness.elements)
    assert values == sorted(values)
    again = is_n_absorbing(ideal, 2, max_tuples=10, samples=400, seed=5)
    assert again.witness.elements == report.witness.elements


def test_radical_power_containment_report():
    ring = build_ring(parse_ring_spec("Zmod:8"))
    zero = Ideal.zero(ring)
    report = check_radical_power(zero, 3)
    assert report.holds
    assert report.power <= zero
    with pytest.raises(HypothesisNotSatisfiedError) as exc:
        check_radical_power(zero, 2)
    assert exc.value.hypothesis == "2-absorbing"


def test_element_power_hypothesis_failure_keeps_tag_message_and_witness():
    ring = build_ring(parse_ring_spec("Zmod:8"))
    with pytest.raises(HypothesisNotSatisfiedError) as exc:
        check_element_power(Ideal.zero(ring), 2)
    assert exc.value.hypothesis == "2-absorbing"
    assert str(exc.value) == "the ideal is not 2-absorbing, so the power bound does not apply"
    assert exc.value.witness.elements == (2, 2, 2)
    assert exc.value.witness.n == 2


def test_radical_power_counterexample_when_product_escapes():
    # Zmod:16 zero ideal has omega 4; level 3 containment fails
    ring = build_ring(parse_ring_spec("Zmod:16"))
    zero = Ideal.zero(ring)
    power = ideal_power(radical(zero), 3)
    assert not (power <= zero)
    report = check_radical_power(zero, 4)
    assert report.holds


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_element_power_for_all_proper_ideals(spec):
    ring = build_ring(parse_ring_spec(spec))
    from absorbing_ideals import enumerate_ideals

    for ideal in enumerate_ideals(ring):
        if ideal.is_unit:
            continue
        result = omega(ideal, cap=4)
        if result.value is None:
            continue
        report = check_element_power(ideal, result.value)
        assert report.holds, (spec, ideal.text())


def test_quotient_reduction_has_two_clauses():
    ring = build_ring(parse_ring_spec("Zmod:12"))
    ideal = Ideal.from_generators(ring, [ring.parse_value("4")])
    report = check_quotient_reduction(ideal, 2)
    assert report.holds
    assert report.base_power_contained == report.quotient_power_zero
    assert report.base.holds == report.quotient.holds
    assert report.n == 2
    assert bool(report) is report.holds


@pytest.mark.parametrize("spec", ["Zmod:8", "Zmod:12", "Zmod:9"])
def test_quotient_reduction_matches_direct_computation(spec):
    ring = build_ring(parse_ring_spec(spec))
    from absorbing_ideals import enumerate_ideals

    for ideal in enumerate_ideals(ring):
        if ideal.is_unit:
            continue
        for n in (1, 2, 3):
            report = check_quotient_reduction(ideal, n)
            assert report.holds, (spec, ideal.text(), n)
            # a fresh quotient, not the one kept on `ring` for the report
            quotient = QuotientRing(ring, ideal.element_values)
            zero_q = Ideal.zero(quotient)
            assert report.quotient.holds == is_n_absorbing(zero_q, n).holds


def test_colon_corollary_on_z8():
    ring = build_ring(parse_ring_spec("Zmod:8"))
    zero = Ideal.zero(ring)
    report = check_colons_two_absorbing(zero)
    assert report.holds
    checked = {ring.render_value(e.x): e for e in report.entries}
    assert "0" in checked and checked["0"].skipped
    for text in ("2", "4", "6"):
        entry = checked[text]
        assert not entry.skipped
        assert entry.report.holds
    # spot-check one colon against a direct computation
    two = ring.parse_value("2")
    direct = colon(zero, two)
    assert is_n_absorbing(direct, 2).holds


def test_colon_chain_corollary_on_z27():
    ring = build_ring(parse_ring_spec("Zmod:27"))
    zero = Ideal.zero(ring)
    report = check_colon_chain(zero)
    assert report.holds
    assert report.incomparable == ()
    for entry in report.entries:
        assert entry.prime


def test_corollary_preconditions_raise_tagged_errors():
    # Zmod:6 zero ideal: radical is (0) which is not prime (2*3=0)
    ring = build_ring(parse_ring_spec("Zmod:6"))
    zero = Ideal.zero(ring)
    with pytest.raises(HypothesisNotSatisfiedError) as exc:
        check_colons_two_absorbing(zero)
    assert exc.value.hypothesis in {"3-absorbing", "radical-prime"}

    # Zmod:16 zero ideal is not 3-absorbing
    ring16 = build_ring(parse_ring_spec("Zmod:16"))
    with pytest.raises(HypothesisNotSatisfiedError) as exc16:
        check_colons_two_absorbing(Ideal.zero(ring16))
    assert exc16.value.hypothesis == "3-absorbing"


def test_report_dicts_are_json_shaped():
    import json

    ring = build_ring(parse_ring_spec("Zmod:12"))
    ideal = Ideal.zero(ring)
    report = is_n_absorbing(ideal, 2)
    payload = report.as_dict(ring)
    json.dumps(payload)
    assert payload["holds"] is False
    assert payload["witness"]["elements"] == ["2", "2", "3"]
    result = omega(ideal, cap=4)
    omega_payload = result.as_dict(ring)
    json.dumps(omega_payload)
    assert omega_payload["omega"] == 3
    assert set(omega_payload["levels"]) == {"1", "2", "3"}


def _corpus_cases():
    from absorbing_ideals import BUILTIN_CORPUS

    for spec in BUILTIN_CORPUS:
        size = build_ring(parse_ring_spec(spec)).size
        levels = [n for n in (1, 2, 3) if size ** (n + 1) <= 5 * 10**4]
        yield pytest.param(spec, levels, id=spec)


@pytest.mark.parametrize("spec, levels", _corpus_cases())
def test_class_minimum_scan_matches_oracle_on_corpus(spec, levels):
    from absorbing_ideals import enumerate_ideals

    ring = build_ring(parse_ring_spec(spec))
    for ideal in enumerate_ideals(ring):
        if ideal.is_unit:
            continue
        for n in levels:
            report = is_n_absorbing(ideal, n)
            expected, _ = naive_is_n_absorbing(ideal, n)
            assert report.holds == expected, (spec, ideal.text(), n)
            if not expected:
                least = naive_sorted_witnesses(ideal, n)[0]
                assert tuple(report.witness.elements) == least, (spec, ideal.text(), n)


def test_budget_counts_class_minimum_multisets():
    # the zero ideal of Z12 has candidates 2, 3, 4, 6 (10 ~ 2, 9 ~ 3, 8 ~ 4),
    # so n = 2 scans C(6, 3) = 20 multisets
    ring = build_ring(parse_ring_spec("Zmod:12"))
    ideal = Ideal.zero(ring)
    assert is_n_absorbing(ideal, 2, max_tuples=20).mode == "exhaustive"
    with pytest.raises(ResourceLimitError, match="20 multisets"):
        is_n_absorbing(ideal, 2, max_tuples=19)


def test_sampled_scan_draws_class_minima():
    ring = build_ring(parse_ring_spec("Zmod:12"))
    ideal = Ideal.zero(ring)
    witnesses = []
    for seed in range(20):
        report = is_n_absorbing(ideal, 2, max_tuples=10, samples=3, seed=seed)
        assert report.mode == "sampled"
        if report.witness is not None:
            witnesses.append(report.witness.elements)
    assert witnesses
    assert all(set(w) <= {2, 3, 4, 6} for w in witnesses)


def test_omega_of_zero_ideal_in_z64_at_level_six_is_exhaustive():
    # 64^7 ordered tuples, but only C(11, 7) = 330 multisets of the
    # class minima 2, 4, 8, 16, 32
    ring = build_ring(parse_ring_spec("Zmod:64"))
    result = omega(Ideal.zero(ring), cap=6)
    assert result.value == 6
    assert result.levels[6].mode == "exhaustive"
    assert result.levels[6].tuples_scanned == 330


def test_sampled_scan_rejects_empty_sample_count():
    ring = build_ring(parse_ring_spec("Zmod:12"))
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            is_n_absorbing(Ideal.zero(ring), 2, max_tuples=1, samples=samples, seed=1)


def test_scan_memo_is_kept_on_the_ring(monkeypatch):
    import absorbing_ideals.absorbing as absorbing

    computed = []
    scan_candidates = absorbing._scan_candidates

    def recording(ideal):
        computed.append(ideal.ring)
        return scan_candidates(ideal)

    monkeypatch.setattr(absorbing, "_scan_candidates", recording)
    ring = build_ring(parse_ring_spec("Zmod:36"))
    first = is_n_absorbing(Ideal.zero(ring), 2)
    is_n_absorbing(Ideal.zero(ring), 3)
    assert computed == [ring]
    assert ring._scans[frozenset({0})][1].keys() == {2, 3}

    # another instance of the same ideal on the same ring reuses the
    # candidates and the report, and multiplies nothing
    other = Ideal.from_generators(ring, [0])
    multiplications = []
    mul = ring.mul_values
    monkeypatch.setattr(ring, "mul_values", lambda a, b: multiplications.append(1) or mul(a, b))
    assert is_n_absorbing(other, 2) is first
    assert multiplications == []
    assert computed == [ring]

    # a freshly built ring of the same spec computes its own
    fresh = build_ring(parse_ring_spec("Zmod:36"))
    assert is_n_absorbing(Ideal.zero(fresh), 2) == first
    assert [id(r) for r in computed] == [id(ring), id(fresh)]

    # sampled reports are not memoised, and the budget is checked before
    # the memo: a sampled decision stays sampled after an exhaustive one
    lone = build_ring(parse_ring_spec("Zmod:36"))
    sampled = is_n_absorbing(Ideal.zero(lone), 3, max_tuples=10, samples=5, seed=1)
    assert sampled.mode == "sampled"
    assert lone._scans[frozenset({0})][1] == {}
    assert is_n_absorbing(Ideal.zero(lone), 3).mode == "exhaustive"
    assert is_n_absorbing(Ideal.zero(lone), 3, max_tuples=10, samples=5, seed=1) == sampled


def test_decisions_add_no_attribute_to_a_ring():
    # caches live in slots that Ring.__init__ sets; an attribute set
    # later would drop CPython's inline instance values and slow every
    # later attribute read on the ring
    from absorbing_ideals import enumerate_ideals
    from absorbing_ideals.corpus import audit_ideal
    from absorbing_ideals.machinery import prove_radical_power_zero

    ring = build_ring(parse_ring_spec("Zmod:36"))
    keys = set(vars(ring))
    assert omega(Ideal.zero(ring), cap=4).value == 4
    for ideal in enumerate_ideals(ring):
        audit_ideal(ideal, 4)
    prove_radical_power_zero(ring, [6, 6, 6, 6])
    assert ring._unit_generators and ring._primes and ring._quotients
    assert set(vars(ring)) == keys
    for quotient in ring._quotients.values():
        assert set(vars(quotient)) == set(vars(QuotientRing(ring, quotient.ideal_values)))
