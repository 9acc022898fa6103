"""Value semantics of the 20 result and descriptor record types.

Each case gives a record's fields in order and the repr the record had
as a frozen dataclass; the expectations here were read from that
implementation, so they pin what callers and report text rely on.
"""

import pytest

from absorbing_ideals import (
    AbsorbingReport,
    AbsorbingWitness,
    ChainReport,
    ColonsReport,
    ElementPowerReport,
    Ideal,
    IdealAudit,
    OmegaResult,
    PolyQuot,
    Product,
    ProjectiveZeroResult,
    ProofTrace,
    Quotient,
    RadicalPowerReport,
    ReductionReport,
    RingAudit,
    VerificationResult,
    ZMod,
    ZeroDiagonalResult,
    build_ring,
    parse_ring_spec,
)
from absorbing_ideals.absorbing import ChainEntry, ColonEntry

RING = build_ring(parse_ring_spec("Zmod:4"))
IDEAL = Ideal.from_generators(RING, [2])
WITNESS = AbsorbingWitness((2, 2), 1)
REPORT = AbsorbingReport(1, False, "exhaustive", WITNESS, 3)
IDEAL_REPR = "Ideal((2) in ZModRing(ZMod(n=4)))"
WITNESS_REPR = "AbsorbingWitness(elements=(2, 2), n=1)"
REPORT_REPR = (
    f"AbsorbingReport(n=1, holds=False, mode='exhaustive', witness={WITNESS_REPR}, "
    "tuples_scanned=3)"
)

# (class, fields in declared order, repr)
CASES = [
    (AbsorbingWitness, {"elements": (2, 2), "n": 1}, WITNESS_REPR),
    (
        AbsorbingReport,
        {"n": 1, "holds": False, "mode": "exhaustive", "witness": WITNESS, "tuples_scanned": 3},
        REPORT_REPR,
    ),
    (
        OmegaResult,
        {"value": None, "cap": 1, "levels": {1: REPORT}},
        f"OmegaResult(value=None, cap=1, levels={{1: {REPORT_REPR}}})",
    ),
    (
        RadicalPowerReport,
        {
            "n": 2,
            "absorbing": REPORT,
            "holds": True,
            "counterexample": None,
            "radical": IDEAL,
            "power": IDEAL,
        },
        f"RadicalPowerReport(n=2, absorbing={REPORT_REPR}, holds=True, counterexample=None, "
        f"radical={IDEAL_REPR}, power={IDEAL_REPR})",
    ),
    (
        ElementPowerReport,
        {"n": 2, "absorbing": REPORT, "holds": False, "counterexample": 2, "radical": IDEAL},
        f"ElementPowerReport(n=2, absorbing={REPORT_REPR}, holds=False, counterexample=2, "
        f"radical={IDEAL_REPR})",
    ),
    (
        ReductionReport,
        {
            "n": 1,
            "base": REPORT,
            "quotient": REPORT,
            "base_power_contained": True,
            "quotient_power_zero": True,
            "holds": True,
        },
        f"ReductionReport(n=1, base={REPORT_REPR}, quotient={REPORT_REPR}, "
        "base_power_contained=True, quotient_power_zero=True, holds=True)",
    ),
    (
        ColonEntry,
        {"x": 2, "skipped": False, "reason": None, "colon": IDEAL, "report": REPORT},
        f"ColonEntry(x=2, skipped=False, reason=None, colon={IDEAL_REPR}, report={REPORT_REPR})",
    ),
    (
        ColonsReport,
        {"holds": True, "entries": (), "precondition": REPORT},
        f"ColonsReport(holds=True, entries=(), precondition={REPORT_REPR})",
    ),
    (
        ChainEntry,
        {"product": 0, "factors": (2, 2), "colon": IDEAL, "prime": True},
        f"ChainEntry(product=0, factors=(2, 2), colon={IDEAL_REPR}, prime=True)",
    ),
    (
        ChainReport,
        {"holds": False, "entries": (), "incomparable": ((1, 2),), "precondition": REPORT},
        f"ChainReport(holds=False, entries=(), incomparable=((1, 2),), precondition={REPORT_REPR})",
    ),
    (
        IdealAudit,
        {
            "ideal_text": "(2)",
            "size": 2,
            "skipped": False,
            "skip_reason": None,
            "omega_value": 2,
            "omega_cap": 4,
            "levels": {},
            "monotone_ok": True,
            "radical_text": "(2)",
            "radical_size": 2,
            "radical_power_ok": True,
            "element_power_ok": True,
            "sharp": True,
            "reduction_ok": True,
            "colons_ok": None,
            "chain_ok": None,
        },
        "IdealAudit(ideal_text='(2)', size=2, skipped=False, skip_reason=None, omega_value=2, "
        "omega_cap=4, levels={}, monotone_ok=True, radical_text='(2)', radical_size=2, "
        "radical_power_ok=True, element_power_ok=True, sharp=True, reduction_ok=True, "
        "colons_ok=None, chain_ok=None)",
    ),
    (
        RingAudit,
        {"ring_spec": "Zmod:4", "size": 4, "ideal_count": 3, "audits": (), "limit": None},
        "RingAudit(ring_spec='Zmod:4', size=4, ideal_count=3, audits=(), limit=None)",
    ),
    (
        ProjectiveZeroResult,
        {
            "holds": False,
            "mode": "sampled",
            "counterexample": (1, 0),
            "vectors_checked": 5,
            "samples": 10,
            "seed": 7,
        },
        "ProjectiveZeroResult(holds=False, mode='sampled', counterexample=(1, 0), "
        "vectors_checked=5, samples=10, seed=7)",
    ),
    (
        ZeroDiagonalResult,
        {"index": 1, "j_sequence": (2, 1, 1)},
        "ZeroDiagonalResult(index=1, j_sequence=(2, 1, 1))",
    ),
    (
        ProofTrace,
        {
            "ring_spec": "Zmod:4",
            "generators": ("2", "2"),
            "n": 2,
            "high_degree_bound": 2,
            "steps": (),
            "final_product": "0",
        },
        "ProofTrace(ring_spec='Zmod:4', generators=('2', '2'), n=2, high_degree_bound=2, "
        "steps=(), final_product='0')",
    ),
    (
        VerificationResult,
        {"ok": False, "failures": ({"step": None, "kind": "document", "detail": "x"},)},
        "VerificationResult(ok=False, failures=({'step': None, 'kind': 'document', "
        "'detail': 'x'},))",
    ),
    (ZMod, {"n": 12}, "ZMod(n=12)"),
    (PolyQuot, {"p": 2, "modulus": (1, 1, 1)}, "PolyQuot(p=2, modulus=(1, 1, 1))"),
    (
        Product,
        {"factors": (ZMod(4), ZMod(3))},
        "Product(factors=(ZMod(n=4), ZMod(n=3)))",
    ),
    (
        Quotient,
        {"base": ZMod(8), "generators": (0, 4)},
        "Quotient(base=ZMod(n=8), generators=(0, 4))",
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
KEYWORD_ONLY = {IdealAudit}


def _build(cls, fields):
    if cls in KEYWORD_ONLY:
        return cls(**fields)
    return cls(*fields.values())


def test_every_record_type_has_a_case():
    assert len({cls for cls, _, _ in CASES}) == 20


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr_names_every_field_in_order(cls, fields, text):
    assert repr(_build(cls, fields)) == text
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, fields, text):
    record = _build(cls, fields)
    values = tuple(fields.values())
    try:
        expected = hash(values)
    except TypeError:
        # a dict field makes both unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equality_needs_the_same_class_and_fields(cls, fields, text):
    record = _build(cls, fields)
    assert record == cls(**fields)
    assert not record != cls(**fields)
    assert record != tuple(fields.values())
    assert record != list(fields.values())
    twin = type("Twin", (cls,), {})(**fields)
    assert record != twin and twin != record
    first = next(iter(fields))
    changed = dict(fields, **{first: "other"})
    if cls is not ProofTrace:
        assert record != cls(**changed)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, fields, text):
    record = _build(cls, fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is fields[name]
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_bad_arguments_raise_type_error(cls, fields, text):
    names = list(fields)
    values = list(fields.values())
    missing = dict(fields)
    del missing[names[0]]
    with pytest.raises(TypeError):
        cls(**missing)
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, *values[:1])
    if cls not in KEYWORD_ONLY:
        with pytest.raises(TypeError):
            cls(*values[:1], **fields)


def test_ideal_audit_takes_keywords_only_with_defaults():
    with pytest.raises(TypeError):
        IdealAudit("(2)", 2, omega_cap=4)
    first = IdealAudit(ideal_text="(2)", size=2, omega_cap=4)
    second = IdealAudit(ideal_text="(2)", size=2, omega_cap=4)
    assert first.levels == {} and first.levels is not second.levels
    assert first.skipped is False and first.chain_ok is None
    assert first == second


def test_defaults_fill_trailing_fields():
    assert RingAudit("Zmod:4", 4, 3, ()).limit is None
    result = ProjectiveZeroResult(True, "factored", None, 2)
    assert (result.samples, result.seed) == (None, None)
    assert result == ProjectiveZeroResult(True, "factored", None, 2, None, None)
