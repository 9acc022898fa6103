"""The factored projective-zero certificate of shift matrices, and the
verifier's handling of factored and legacy certification records."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_ideals import (
    ShiftMatrix,
    SquareMatrix,
    build_ring,
    build_shift_matrix,
    is_projectively_zero,
    parse_ring_spec,
    prove_radical_power_zero,
    verify_trace,
)
from oracles import naive_projectively_zero

FIXTURES = Path(__file__).parent / "fixtures"


def _ring(spec):
    return build_ring(parse_ring_spec(spec))


def _prove(spec, gens, **kw):
    ring = _ring(spec)
    return ring, prove_radical_power_zero(ring, [ring.parse_value(g) for g in gens], **kw)


def _matrix_steps(trace):
    return [s for s in trace.steps if s["rule"] == "zero-diagonal"]


@pytest.mark.parametrize(
    "spec, gens",
    [
        ("Zmod:4", ["2", "2"]),
        ("Zmod:8", ["2", "4", "6"]),
        ("Zmod:27", ["3", "3", "3"]),
        ("PolyQuot:{p:2,poly:[0,0,0,1]}", ["[0,1,0]", "[0,1,0]", "[0,1,0]"]),
        ("Quotient:{ring:Zmod:36,gens:[18]}", ["6", "12", "6"]),
    ],
)
def test_factored_agrees_with_exhaustive_on_full_machinery_steps(spec, gens):
    ring, trace = _prove(spec, gens, short_circuit=False)
    gen_values = [ring.parse_value(g) for g in gens]
    steps = _matrix_steps(trace)
    assert steps
    for step in steps:
        matrix = build_shift_matrix(ring, gen_values, step["monomial"])
        factored = is_projectively_zero(matrix)
        exhaustive = is_projectively_zero(SquareMatrix(ring, matrix.rows))
        assert factored.mode == "factored"
        assert exhaustive.mode == "exhaustive"
        assert factored.holds == exhaustive.holds
        assert step["projective_zero"] == {
            "method": "factored",
            "vectors_checked": factored.vectors_checked,
        }
        assert factored.vectors_checked <= ring.size


shift_rings = st.sampled_from(
    ["Zmod:4", "Zmod:6", "Zmod:8", "PolyQuot:{p:2,poly:[0,0,1]}", "Product:[Zmod:2,Zmod:3]"]
)


@st.composite
def shift_matrices(draw):
    """Shift matrices of arbitrary (often non-nilpotent) generators, some
    with one entry altered so that the rows no longer factor."""
    ring = _ring(draw(shift_rings))
    values = list(ring.iter_values())
    k = draw(st.integers(min_value=1, max_value=3))
    gens = [draw(st.sampled_from(values)) for _ in range(k)]
    exponents = draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k).filter(any)
    )
    matrix = build_shift_matrix(ring, gens, exponents)
    if draw(st.booleans()):
        rows = [list(row) for row in matrix.rows]
        i = draw(st.integers(min_value=0, max_value=matrix.m - 1))
        j = draw(st.integers(min_value=0, max_value=matrix.m - 1))
        rows[i][j] = draw(st.sampled_from(values))
        matrix = ShiftMatrix(
            ring,
            rows,
            base_monomial=matrix.base_monomial,
            variables=matrix.variables,
            entry_monomials=matrix.entry_monomials,
            generator_values=matrix.generator_values,
        )
    return matrix


def _rows_factor(matrix):
    rebuilt = build_shift_matrix(matrix.ring, matrix.generator_values, matrix.base_monomial)
    return rebuilt.rows == matrix.rows


@settings(max_examples=150)
@given(shift_matrices())
def test_shift_matrix_verdict_matches_oracle(matrix):
    result = is_projectively_zero(matrix)
    expected, counterexample = naive_projectively_zero(matrix)
    assert result.holds == expected
    if not result.holds:
        assert result.mode == "exhaustive"
        assert result.counterexample == counterexample
    elif _rows_factor(matrix):
        assert result.mode == "factored"
        assert result.counterexample is None


def test_factored_fallback_keeps_the_canonical_counterexample():
    # 1 is not nilpotent: the shift matrix of x*y on (1, 1) over Z4 is all
    # ones, so J = Z4 and s = 1 is killed by no d_k
    ring = _ring("Zmod:4")
    matrix = build_shift_matrix(ring, [1, 1], (1, 1))
    result = is_projectively_zero(matrix)
    assert not result.holds
    assert result.mode == "exhaustive"
    assert result.counterexample == naive_projectively_zero(matrix)[1]


def test_factored_ignores_the_vector_cap():
    ring = _ring("Zmod:16")
    matrix = build_shift_matrix(ring, [2, 2, 2, 2], (2, 2, 1, 1))
    result = is_projectively_zero(matrix, max_vectors=1)
    assert result.holds
    assert result.mode == "factored"
    assert result.vectors_checked == 8  # J = (2) in Z16


def test_zmod16_full_machinery_proves_and_verifies():
    _, trace = _prove("Zmod:16", ["2", "2", "2", "2"], short_circuit=False)
    steps = _matrix_steps(trace)
    assert steps
    assert {s["projective_zero"]["method"] for s in steps} == {"factored"}
    assert verify_trace(trace).ok


@pytest.mark.parametrize(
    "name, method",
    [
        ("legacy_exhaustive_trace.json", "exhaustive"),
        ("legacy_sampled_trace.json", "sampled"),
    ],
)
def test_legacy_traces_still_replay(name, method):
    document = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    steps = [s for s in document["steps"] if s["rule"] == "zero-diagonal"]
    assert steps and {s["projective_zero"]["method"] for s in steps} == {method}
    assert verify_trace(document).ok


def _tampered(trace, mutate):
    """Trace document with the last certification record mutated."""
    doc = copy.deepcopy(trace.to_json_dict())
    steps = [s for s in doc["steps"] if s["rule"] == "zero-diagonal"]
    mutate(steps[-1]["projective_zero"])
    return doc


def _projective_failures(document):
    result = verify_trace(document)
    assert not result.ok
    return [f for f in result.failures if f["kind"] == "projective-zero"]


def test_verify_rejects_altered_factored_count():
    _, trace = _prove("Zmod:8", ["2", "4", "6"], short_circuit=False)

    def mutate(record):
        record["vectors_checked"] += 1

    assert _projective_failures(_tampered(trace, mutate))


def test_verify_rejects_factored_record_relabelled_exhaustive():
    # the vector scan checks |R|^m vectors, not the |J| of the record
    _, trace = _prove("Zmod:8", ["2", "4", "6"], short_circuit=False)
    assert _projective_failures(_tampered(trace, lambda r: r.update(method="exhaustive")))


def test_verify_rejects_exhaustive_record_relabelled_factored():
    document = json.loads(
        (FIXTURES / "legacy_exhaustive_trace.json").read_text(encoding="utf-8")
    )
    for step in document["steps"]:
        if step["rule"] == "zero-diagonal":
            step["projective_zero"]["method"] = "factored"
    assert _projective_failures(document)


def test_verifier_runs_its_own_absorbing_scan(monkeypatch):
    import absorbing_ideals.absorbing as absorbing

    prover_ring, trace = _prove("Zmod:27", ["3", "3", "3"])
    assert prover_ring._scans  # the prover's scan is memoised on its ring
    scan, scanned = absorbing._scan_multisets, []

    def recording_scan(ideal, n, candidates):
        scanned.append((ideal.ring, n))
        return scan(ideal, n, candidates)

    monkeypatch.setattr(absorbing, "_scan_multisets", recording_scan)
    assert verify_trace(trace).ok
    [(verifier_ring, n)] = scanned
    assert n == 3
    assert verifier_ring is not prover_ring


def test_verifier_builds_its_own_ring(monkeypatch):
    import absorbing_ideals.machinery as machinery

    prover_ring, trace = _prove("Zmod:27", ["3", "3", "3"])
    assert prover_ring._units is not None  # the prover's scan filled it
    build_ring, built = machinery.build_ring, []

    def recording_build_ring(*args, **kwargs):
        ring = build_ring(*args, **kwargs)
        built.append((ring, ring._units))
        return ring

    monkeypatch.setattr(machinery, "build_ring", recording_build_ring)
    assert verify_trace(trace).ok
    [(verifier_ring, units_at_entry)] = built
    assert verifier_ring is not prover_ring
    assert units_at_entry is None
