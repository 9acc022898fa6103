"""Derivation traces: generation, serialization, verification, tampering."""

import copy
import json

import pytest

from absorbing_ideals import (
    HypothesisNotSatisfiedError,
    ProofTrace,
    ResourceLimitError,
    TRACE_SCHEMA,
    TraceInconsistencyError,
    build_ring,
    eval_monomial,
    induction_multidegrees,
    induction_schedule,
    parse_ring_spec,
    prove_radical_power_zero,
    verify_trace,
)
from absorbing_ideals.machinery import DefaultSteps, default_steps
from oracles import naive_product


def _ring(spec):
    return build_ring(parse_ring_spec(spec))


def _prove(spec, gens, **kw):
    ring = _ring(spec)
    values = [ring.parse_value(g) for g in gens]
    return ring, prove_radical_power_zero(ring, values, **kw)


@pytest.mark.parametrize(
    "spec, gens, n",
    [
        ("Zmod:4", ["2", "2"], 2),
        ("Zmod:8", ["2", "4", "6"], 3),
        ("Zmod:27", ["3", "3", "3"], 3),
    ],
)
def test_round_trip_known_rings(spec, gens, n):
    ring, trace = _prove(spec, gens)
    assert trace.n == n
    assert trace.high_degree_bound == n * n - n + 1
    assert trace.generators == tuple(gens)
    # the recorded final product equals the direct ring product
    direct = naive_product(ring, [ring.parse_value(g) for g in gens])
    assert trace.final_product == ring.render_value(direct)
    assert direct == ring.zero_value
    result = verify_trace(trace)
    assert result.ok
    assert result.failures == ()


def test_trace_covers_every_scheduled_monomial():
    ring, trace = _prove("Zmod:8", ["2", "4", "6"])
    n = trace.n
    seen = {(tuple(s["alpha"]), tuple(s["monomial"])) for s in trace.steps}
    for alpha in induction_multidegrees(n):
        assert any(key[0] == alpha for key in seen)
    # every step concludes zero and evaluates correctly
    for step in trace.steps:
        value = eval_monomial(
            ring, [ring.parse_value(g) for g in trace.generators], step["monomial"]
        )
        assert ring.render_value(value) == step["conclusion"] == "0"


def test_short_circuit_uses_direct_steps_only():
    _, trace = _prove("Zmod:8", ["2", "4", "6"], short_circuit=True)
    assert {s["rule"] for s in trace.steps} == {"direct"}


def test_default_steps_read_as_the_tuple_they_replace():
    _, trace = _prove("Zmod:8", ["2", "4", "6"])
    steps, expected = trace.steps, tuple(default_steps(3, "0"))
    assert type(steps) is DefaultSteps and (steps.n, steps.conclusion) == (3, "0")
    assert len(steps) == len(expected) == 74 and steps.unbuilt
    assert steps == expected and expected == steps and not steps != expected
    assert steps == DefaultSteps(3, "0") and steps != DefaultSteps(3, "1")
    assert steps != list(expected) and list(expected) != steps
    assert list(steps) == list(expected) and list(reversed(steps)) == list(reversed(expected))
    assert steps[0] == expected[0] and steps[-1] == expected[-1]
    assert steps[3:9] == expected[3:9] and type(steps[3:9]) is tuple
    assert steps.index(expected[5]) == 5 and expected[5] in steps
    # the prover's trace equals its own document read back, either way round
    reloaded = ProofTrace.from_json_dict(trace.to_json_dict())
    assert type(reloaded.steps) is tuple
    assert reloaded == trace and trace == reloaded and trace == _prove("Zmod:8", ["2", "4", "6"])[1]
    for unhashable in (trace, steps):
        with pytest.raises(TypeError):
            hash(unhashable)
    # level 1 has no steps
    _, trace = _prove("Zmod:5", ["0"])
    assert len(trace.steps) == 0 and not trace.steps and trace.steps == () and list(trace.steps) == []


def test_default_steps_are_built_once_and_keep_a_changed_step(monkeypatch):
    import absorbing_ideals.machinery as machinery

    builds = []
    real = machinery.default_steps
    monkeypatch.setattr(machinery, "default_steps", lambda *args: builds.append(args) or real(*args))
    _, trace = _prove("Zmod:16", ["2", "4", "6", "8"])
    assert len(trace.steps) == 1785 and builds == []
    # the verifier's column passes and the caller's reads share one build
    assert verify_trace(trace).ok and verify_trace(trace).ok
    step = trace.steps[5]
    assert trace.steps[5] is step and next(iter(trace.steps[5:])) is step
    step["conclusion"] = "1"
    assert trace.steps[5]["conclusion"] == trace.to_json_dict()["steps"][5]["conclusion"] == "1"
    assert builds == [(4, "0")]
    assert [(f["step"], f["kind"]) for f in verify_trace(trace).failures] == [(5, "conclusion")]


def test_full_machinery_exercises_matrix_steps():
    ring, trace = _prove("Zmod:4", ["2", "2"], short_circuit=False)
    rules = {s["rule"] for s in trace.steps}
    assert "zero-diagonal" in rules
    matrix_steps = [s for s in trace.steps if s["rule"] == "zero-diagonal"]
    for step in matrix_steps:
        assert set(step) >= {
            "alpha",
            "monomial",
            "variables",
            "matrix",
            "subdiagonal_justifications",
            "projective_zero",
            "j_sequence",
            "diagonal_index",
            "conclusion",
        }
        js = step["j_sequence"]
        assert js[-1] == js[-2] == step["diagonal_index"]
        for just in step["subdiagonal_justifications"]:
            assert set(just) == {"i", "j", "beta"}
    assert verify_trace(trace).ok


def test_trace_for_one_absorbing_zero():
    # a field: (0) is 1-absorbing, radical (0) = (0), single generator 0
    ring, trace = _prove("Zmod:5", ["0"])
    assert trace.n == 1
    assert verify_trace(trace).ok


def test_json_round_trip_preserves_verification():
    _, trace = _prove("Zmod:27", ["3", "3", "3"])
    blob = json.dumps(trace.to_json_dict(), sort_keys=True)
    reloaded = ProofTrace.from_json_dict(json.loads(blob))
    assert verify_trace(reloaded).ok
    assert reloaded.to_json_dict() == trace.to_json_dict()


def test_from_json_dict_validates_document():
    _, trace = _prove("Zmod:8", ["2", "4", "6"])
    doc = trace.to_json_dict()
    bad_schema = dict(doc, schema="absorbing-trace/999")
    with pytest.raises(ValueError, match="schema"):
        ProofTrace.from_json_dict(bad_schema)
    missing = dict(doc)
    del missing["final_product"]
    with pytest.raises(ValueError, match="final_product"):
        ProofTrace.from_json_dict(missing)
    with pytest.raises(ValueError):
        ProofTrace.from_json_dict(["not", "an", "object"])
    assert doc["schema"] == TRACE_SCHEMA
    # no coercion: "generators": "246" would read as the generators 2, 4, 6
    mistyped = [
        ("n", 3.5), ("n", "3"), ("n", True), ("high_degree_bound", 7.9),
        ("generators", "246"), ("generators", ["2", 4, "6"]), ("steps", {}),
    ]
    for key, value in mistyped:
        bad = dict(doc, **{key: value})
        with pytest.raises(ValueError, match=f"field {key} must"):
            ProofTrace.from_json_dict(bad)
        [failure] = verify_trace(bad).failures
        assert failure["kind"] == "document"
    assert verify_trace(doc).ok


@pytest.mark.parametrize("document", [[1, 2], "trace", 7, None, True])
def test_a_document_that_is_not_an_object_fails_as_document(document):
    result = verify_trace(document)
    assert not result.ok
    assert result.failures == (
        {"step": None, "kind": "document", "detail": "trace document must be a JSON object"},
    )


@pytest.mark.parametrize("key, value", [("n", 3.0), ("generators", "246"), ("generators", ("2", 4))])
def test_replaced_trace_fields_are_checked_like_a_document(key, value):
    # a ProofTrace handed to verify_trace skips from_json_dict, so the
    # exact-type checks belong to the trace itself
    _, trace = _prove("Zmod:8", ["2", "4", "6"])
    names = ("ring_spec", "generators", "n", "high_degree_bound", "steps", "final_product")
    fields = {name: getattr(trace, name) for name in names}
    assert ProofTrace(**fields) == trace
    with pytest.raises(ValueError, match=f"field {key} must"):
        ProofTrace(**dict(fields, **{key: value}))


def test_verifier_does_not_build_a_schedule_no_step_can_match(monkeypatch):
    import absorbing_ideals.machinery as machinery

    def refuse(n):
        raise AssertionError(f"built the level-{n} schedule")

    monkeypatch.setattr(machinery, "induction_schedule", refuse)
    # the level-9 schedule has comb(81, 9) - comb(17, 9) monomials
    document = {
        "schema": TRACE_SCHEMA,
        "ring": "Zmod:2",
        "generators": ["0"] * 9,
        "n": 9,
        "high_degree_bound": 73,
        "steps": [],
        "final_product": "0",
    }
    result = verify_trace(document)
    assert [f["kind"] for f in result.failures] == ["schedule"]


def _tampered(trace, mutate):
    doc = copy.deepcopy(trace.to_json_dict())
    mutate(doc)
    return ProofTrace.from_json_dict(doc)


def test_verify_rejects_tampered_conclusion():
    _, trace = _prove("Zmod:8", ["2", "4", "6"])

    def mutate(doc):
        doc["steps"][0]["conclusion"] = "1"

    result = verify_trace(_tampered(trace, mutate))
    assert not result.ok
    assert any(f["kind"] == "conclusion" for f in result.failures)


def test_verify_rejects_tampered_final_product():
    _, trace = _prove("Zmod:4", ["2", "2"])
    result = verify_trace(_tampered(trace, lambda d: d.update(final_product="2")))
    assert not result.ok
    assert any(f["kind"] == "final-product" for f in result.failures)


def test_verify_rejects_wrong_ring():
    _, trace = _prove("Zmod:4", ["2", "2"])
    result = verify_trace(_tampered(trace, lambda d: d.update(ring="Zmod")))
    assert not result.ok
    assert any(f["kind"] == "ring" for f in result.failures)


def test_verify_rejects_non_nilpotent_generators():
    _, trace = _prove("Zmod:4", ["2", "2"])
    result = verify_trace(_tampered(trace, lambda d: d.update(generators=["2", "3"])))
    assert not result.ok
    failure = {"step": None, "kind": "nilpotency", "detail": "generator 3 is not nilpotent"}
    assert failure in result.failures


def test_verify_rejects_dropped_step():
    _, trace = _prove("Zmod:8", ["2", "4", "6"])

    def mutate(doc):
        del doc["steps"][0]

    result = verify_trace(_tampered(trace, mutate))
    assert not result.ok
    assert any(f["kind"] == "schedule" for f in result.failures)


def test_verify_rejects_wrong_bound():
    _, trace = _prove("Zmod:4", ["2", "2"])
    result = verify_trace(_tampered(trace, lambda d: d.update(high_degree_bound=99)))
    assert not result.ok
    assert any(f["kind"] == "bound" for f in result.failures)


def test_verify_rejects_malformed_step_without_crashing():
    _, trace = _prove("Zmod:4", ["2", "2"])

    def mutate(doc):
        doc["steps"][1] = {"rule": "direct"}

    result = verify_trace(_tampered(trace, mutate))
    assert not result.ok
    assert result.failures


def test_verify_rejects_tampered_matrix_entries():
    _, trace = _prove("Zmod:4", ["2", "2"], short_circuit=False)

    def mutate(doc):
        for step in doc["steps"]:
            if step["rule"] == "zero-diagonal":
                step["matrix"][0][0] = "1"
                return

    result = verify_trace(_tampered(trace, mutate))
    assert not result.ok
    kinds = {f["kind"] for f in result.failures}
    assert kinds & {"matrix-entries", "diagonal-nonzero", "projective-zero"}


def test_verify_rejects_tampered_j_sequence():
    _, trace = _prove("Zmod:4", ["2", "2"], short_circuit=False)

    def mutate(doc):
        # pick a step with two variables: its true walk is (1, 1)
        for step in doc["steps"]:
            if step["rule"] == "zero-diagonal" and len(step["variables"]) == 2:
                step["j_sequence"] = [0, 0]
                step["diagonal_index"] = 0
                return

    result = verify_trace(_tampered(trace, mutate))
    assert not result.ok
    kinds = {f["kind"] for f in result.failures}
    assert "j-sequence" in kinds
    assert "diagonal-index" in kinds


def test_prove_requires_nilpotent_generators():
    ring = _ring("Zmod:8")
    with pytest.raises(HypothesisNotSatisfiedError) as exc:
        prove_radical_power_zero(ring, [ring.parse_value("3")])
    assert exc.value.hypothesis == "nilpotent-generators"


def test_prove_names_the_first_non_nilpotent_generator():
    ring = _ring("Zmod:8")
    gens = [ring.parse_value(g) for g in ("2", "5", "4", "3")]
    with pytest.raises(HypothesisNotSatisfiedError) as exc:
        prove_radical_power_zero(ring, gens)
    assert exc.value.hypothesis == "nilpotent-generators"
    assert exc.value.witness == 5
    assert str(exc.value) == "generator 5 is not nilpotent"


def test_prove_requires_absorbing_zero_ideal():
    # Zmod:32 zero ideal needs n = 5 > cap 4 for the arity of these gens;
    # with four nilpotent generators the 4-absorbing hypothesis fails.
    ring = _ring("Zmod:32")
    gens = [ring.parse_value(g) for g in ("2", "2", "2", "2")]
    with pytest.raises(HypothesisNotSatisfiedError) as exc:
        prove_radical_power_zero(ring, gens)
    assert exc.value.hypothesis == "4-absorbing"


def test_proved_product_matches_direct_multiplication_everywhere():
    ring = _ring("Zmod:12")
    gens = [ring.parse_value(g) for g in ("6", "6", "6")]
    trace = prove_radical_power_zero(ring, gens)
    assert trace.final_product == "0"
    assert verify_trace(trace).ok


def _odd_exponent(value):
    def mutate(document):
        step = document["steps"][0]
        step["monomial"] = [value] + step["monomial"][1:]
        step["alpha"] = sorted(step["monomial"], reverse=True)

    return mutate


_SCHEDULE = ("schedule", None, "step sequence does not match the induction order")


@pytest.mark.parametrize(
    "value, failures",
    [
        (-1, [_SCHEDULE, ("exception", 0, "ValueError: exponents must be nonnegative")]),
        (7, [_SCHEDULE]),  # above n^2 - n = 6, so in no schedule monomial
        (True, [_SCHEDULE, ("value", 0, "monomial evaluates to 2")]),
        (2.0, [_SCHEDULE, ("step-shape", 0, "monomial entries must be integers")]),
    ],
    ids=["negative", "oversized", "bool", "float"],
)
def test_odd_recorded_exponents_fail_as_before_the_power_table(value, failures):
    _, trace = _prove("Zmod:8", ["2", "4", "6"])
    document = json.loads(json.dumps(trace.to_json_dict()))
    _odd_exponent(value)(document)
    result = verify_trace(document)
    assert [(f["kind"], f["step"], f["detail"]) for f in result.failures] == failures


def test_out_of_order_trace_never_multiplies_the_degree_n_products(monkeypatch):
    import absorbing_ideals.machinery as machinery

    def refuse(*args):
        raise AssertionError("multiplied the degree-n products")

    _, trace = _prove("Zmod:8", ["2", "4", "6"])
    document = json.loads(json.dumps(trace.to_json_dict()))
    steps = document["steps"]
    steps[0], steps[1] = steps[1], steps[0]
    monkeypatch.setattr(machinery, "_degree_n_products_vanish", refuse)
    result = verify_trace(document)
    assert [(f["kind"], f["step"], f["detail"]) for f in result.failures] == [_SCHEDULE]


@pytest.mark.parametrize(
    "value, failures",
    [
        (True, []),
        (1.0, [("step-shape", "monomial entries must be integers")]),
    ],
    ids=["bool", "float"],
)
def test_odd_last_monomial_replays_as_recorded(value, failures):
    # equal to 1 as a schedule entry, so only the evaluation can object
    _, trace = _prove("Zmod:8", ["2", "4", "6"])
    document = json.loads(json.dumps(trace.to_json_dict()))
    document["steps"][-1]["monomial"] = [value, 1, 1]
    result = verify_trace(document)
    last = len(document["steps"]) - 1
    assert [(f["kind"], f["detail"]) for f in result.failures] == failures
    assert all(f["step"] == last for f in result.failures)


@pytest.mark.parametrize(
    "spec, gens",
    [
        ("Zmod:2", ["0"]),
        ("Zmod:4", ["2", "2"]),
        ("Zmod:8", ["2", "4", "6"]),
        ("Zmod:16", ["2", "4", "6", "2"]),
    ],
)
def test_prover_and_verifier_walk_the_shared_schedule(spec, gens, monkeypatch):
    import absorbing_ideals.machinery as machinery

    n = len(gens)
    walked = []

    def record(name):
        original = getattr(machinery, name)

        def recording(level):
            walked.append((name, level, original(level)))
            return walked[-1][2]

        monkeypatch.setattr(machinery, name, recording)

    # the default steps walk the schedule when the verifier first reads
    # them, and the verifier its flattened columns
    record("induction_schedule")
    record("schedule_exponents")
    _, trace = _prove(spec, gens)
    assert verify_trace(trace).ok
    expected = induction_schedule(n)
    steps = tuple((alpha, mono) for alpha, monomials in expected for mono in monomials)
    flat = [e for alpha, _ in steps for e in alpha] + [e for _, mono in steps for e in mono]
    assert walked == [("induction_schedule", n, expected), ("schedule_exponents", n, flat)]
    assert tuple((tuple(s["alpha"]), tuple(s["monomial"])) for s in trace.steps) == steps


def test_prover_refuses_a_derivation_over_the_step_cap_before_building_it(monkeypatch):
    import math

    import absorbing_ideals.machinery as machinery

    def refuse(*args):
        raise AssertionError("built the schedule or multiplied the degree-n products")

    # every level that completes today stays under the cap
    assert math.comb(36, 6) - math.comb(11, 6) == 1_947_330 <= machinery.MAX_TRACE_STEPS
    monkeypatch.setattr(machinery, "induction_schedule", refuse)
    monkeypatch.setattr(machinery, "_degree_n_products_vanish", refuse)
    with pytest.raises(ResourceLimitError, match="derivation of 85898868 steps at n = 7"):
        prove_radical_power_zero(_ring("Zmod:2"), [0] * 7)


@pytest.mark.parametrize(
    "spec, gens, short_circuit",
    [
        ("Zmod:16", ["2", "4", "6", "2"], True),
        ("PolyQuot:{p:2,poly:[0,0,0,1]}", ["[0,1,0]"] * 3, False),
    ],
    ids=["default", "full"],
)
def test_a_nonzero_degree_n_product_stops_the_prover_and_the_column_passes(
    spec, gens, short_circuit, monkeypatch
):
    import absorbing_ideals.machinery as machinery

    _, trace = _prove(spec, gens, short_circuit=short_circuit)
    monomials = [tuple(step["monomial"]) for step in trace.steps]
    evaluated = []
    eval_direct = machinery.eval_monomial

    def recording(ring, generator_values, exponents):
        evaluated.append(tuple(exponents))
        return eval_direct(ring, generator_values, exponents)

    # a nonzero product of n generators stops the prover before any step
    # and sends the verifier to its per-step loop
    monkeypatch.setattr(machinery, "_degree_n_products_vanish", lambda ring, gen_values: False)
    monkeypatch.setattr(machinery, "eval_monomial", recording)
    with pytest.raises(TraceInconsistencyError, match="a product of n generators does not vanish"):
        _prove(spec, gens, short_circuit=short_circuit)
    assert evaluated == []
    assert verify_trace(json.loads(json.dumps(trace.to_json_dict()))).ok
    # each schedule monomial in order, among any others
    walk = iter(evaluated)
    assert all(mono in walk for mono in monomials)


_REPLAY_CASES = [
    (spec, [gen] * n)
    for n in (2, 3, 4)
    for spec, gen in [
        ("Zmod:4", "2"),
        ("PolyQuot:{p:2,poly:[0,0,1]}", "[0,1]"),
        ("Product:[Zmod:2,Zmod:2]" if n == 2 else "Product:[Zmod:4,Zmod:3]", "(0,0)" if n == 2 else "(2,0)"),
        ("Quotient:{ring:Zmod:8,gens:[4]}", "2"),
    ]
]


def _replay_forms(document, one_text):
    """(name, document): a clean default trace and single changes of it."""
    steps = document["steps"]
    middle = len(steps) // 2

    def with_middle(step):
        changed = list(steps)
        changed[middle] = step
        return {**document, "steps": changed}

    step = steps[middle]
    yield "clean", document
    yield "generator", {**document, "generators": [one_text] + document["generators"][1:]}
    yield "conclusion changed", with_middle({**step, "conclusion": one_text})
    yield "conclusion deleted", with_middle({k: v for k, v in step.items() if k != "conclusion"})
    yield "rule zero-diagonal", with_middle({**step, "rule": "zero-diagonal"})
    yield "rule other", with_middle({**step, "rule": "other"})


def _loop_copy(document):
    """The document with tuple alphas: equal to the schedule, but not a
    column of lists, so it replays on the per-step loop."""
    return {**document, "steps": [{**s, "alpha": tuple(s["alpha"])} for s in document["steps"]]}


@pytest.mark.parametrize("spec, gens", _REPLAY_CASES)
def test_column_passes_and_the_step_loop_report_the_same_failures(spec, gens):
    ring, trace = _prove(spec, gens)
    document = json.loads(json.dumps(trace.to_json_dict()))
    for name, form in _replay_forms(document, ring.render_value(ring.one_value)):
        failures = verify_trace(form).failures
        assert failures == verify_trace(_loop_copy(form)).failures, name
        assert (failures == ()) == (name == "clean"), name


def test_a_clean_trace_replays_in_column_passes(monkeypatch):
    import absorbing_ideals.machinery as machinery

    passes = []
    for name in ("_schedule_match", "_all_direct_zero"):
        def spy(*args, real=getattr(machinery, name), name=name):
            passes.append((name, real(*args)))
            return passes[-1][1]

        monkeypatch.setattr(machinery, name, spy)
    _, trace = _prove("Zmod:16", ["2", "4", "6", "8"])
    document = json.loads(json.dumps(trace.to_json_dict()))
    assert len(document["steps"]) == 1785
    assert verify_trace(document).ok
    assert passes == [("_schedule_match", (True, True)), ("_all_direct_zero", True)]
    passes.clear()
    assert verify_trace(_loop_copy(document)).ok
    assert passes == [("_schedule_match", (True, False))]


def _match_forms(steps):
    """(name, steps): the clean steps of a level-3 trace and single
    changes of one step, in the forms a JSON document or a ProofTrace
    built in Python can hold."""
    at = next(k for k, s in enumerate(steps) if len(set(s["alpha"])) == 3 and 1 in s["monomial"])
    step = steps[at]
    alpha, mono = step["alpha"], step["monomial"]

    def replaced(new, index=at):
        changed = list(steps)
        changed[index] = new
        return changed

    yield "clean", steps
    yield "true exponent", replaced({**step, "monomial": [e if e != 1 else True for e in mono]})
    yield "float alpha", replaced({**step, "alpha": [float(alpha[0])] + alpha[1:]})
    yield "float monomial", replaced({**step, "monomial": [float(mono[0])] + mono[1:]})
    yield "tuple alpha", replaced({**step, "alpha": tuple(alpha)})
    yield "string alpha", replaced({**step, "alpha": "".join(map(str, alpha))})
    yield "dict alpha", replaced({**step, "alpha": dict.fromkeys(alpha)})
    first = steps[0]  # alpha (6, 0, 0): its dict has two keys
    yield "dict alpha, repeated entries", replaced({**first, "alpha": dict.fromkeys(first["alpha"])}, 0)
    yield "missing monomial", replaced({k: v for k, v in step.items() if k != "monomial"})
    yield "list step", replaced([alpha, mono])


def test_schedule_match_compares_the_pairs_as_tuples():
    from absorbing_ideals.machinery import _schedule_match

    _, trace = _prove("Zmod:8", ["2", "4", "6"])
    document = json.loads(json.dumps(trace.to_json_dict()))
    pairs = tuple((alpha, mono) for alpha, monomials in induction_schedule(3) for mono in monomials)
    names = []
    for name, steps in _match_forms(document["steps"]):
        try:
            same = tuple((tuple(s["alpha"]), tuple(s["monomial"])) for s in steps) == pairs
        except (TypeError, KeyError):
            same = False
        names.append((name, same))
        assert _schedule_match(steps, 3) == (same, name == "clean"), name
        kinds = {f["kind"] for f in verify_trace({**document, "steps": steps}).failures}
        assert ("schedule" in kinds) == (not same), name
    # both outcomes are covered
    assert [name for name, same in names if not same] == [
        "string alpha", "dict alpha, repeated entries", "missing monomial", "list step"
    ]
