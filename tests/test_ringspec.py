"""Ring spec text: parsing, canonical rendering, ideal text."""

import pytest
from hypothesis import given, strategies as st

from absorbing_ideals import (
    Ideal,
    ImproperIdealError,
    ParseError,
    PolyQuot,
    Product,
    Quotient,
    Ring,
    RingBuildError,
    ZMod,
    build_ring,
    parse_ideal_text,
    parse_ring_spec,
    prove_radical_power_zero,
    render_ring_spec,
)
from absorbing_ideals import rings, ringspec
from absorbing_ideals.ringspec import MAX_SPEC_DEPTH


ROUND_TRIP_SPECS = [
    "Zmod:2",
    "Zmod:36",
    "PolyQuot:{p:2,poly:[0,0,1]}",
    "PolyQuot:{p:3,poly:[1,2,0,1]}",
    "Product:[Zmod:2,Zmod:4]",
    "Product:[Zmod:2,Zmod:2,Zmod:2]",
    "Product:[Zmod:4,PolyQuot:{p:2,poly:[0,0,1]}]",
    "Quotient:{ring:Zmod:12,gens:[4]}",
    "Quotient:{ring:Product:[Zmod:2,Zmod:4],gens:[(0,2)]}",
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
def test_round_trip(spec):
    ring = build_ring(parse_ring_spec(spec))
    rendered = render_ring_spec(ring)
    again = build_ring(parse_ring_spec(rendered))
    assert again == ring
    assert render_ring_spec(again) == rendered


def test_rendering_builds_no_ring(monkeypatch):
    quotient = build_ring(parse_ring_spec("Quotient:{ring:Zmod:36,gens:[18]}"))
    product_quotient = build_ring(
        parse_ring_spec("Quotient:{ring:Product:[Zmod:4,Zmod:6],gens:[(2,0)]}")
    )
    built = []
    init = Ring.__init__

    def counting_init(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(Ring, "__init__", counting_init)
    assert render_ring_spec(quotient) == "Quotient:{ring:Zmod:36,gens:[0,18]}"
    assert render_ring_spec(product_quotient) == (
        "Quotient:{ring:Product:[Zmod:4,Zmod:6],gens:[(0,0),(2,0)]}"
    )
    assert built == []
    six = quotient.parse_value("6")
    trace = prove_radical_power_zero(quotient, [six, six, six])
    assert trace.ring_spec == "Quotient:{ring:Zmod:36,gens:[0,18]}"
    assert built == []


def test_parse_results_match_descriptors():
    assert parse_ring_spec("Zmod:8") == ZMod(8)
    assert parse_ring_spec("PolyQuot:{p:2,poly:[0,0,1]}") == PolyQuot(2, (0, 0, 1))
    assert parse_ring_spec("Product:[Zmod:2,Zmod:3]") == Product((ZMod(2), ZMod(3)))
    quotient = parse_ring_spec("Quotient:{ring:Zmod:12,gens:[4]}")
    assert isinstance(quotient, Quotient)
    assert quotient.base == ZMod(12)
    assert quotient.generators == (4,)
    # the built ring normalizes its own descriptor to the full ideal
    ring = build_ring(quotient)
    assert set(ring.descriptor.generators) == {0, 4, 8}


def test_whitespace_is_tolerated():
    spec = " Product:[ Zmod:2 , Zmod:4 ] "
    assert parse_ring_spec(spec) == Product((ZMod(2), ZMod(4)))


def _wrapped(wrap: str, depth: int) -> str:
    spec = "Zmod:4"
    for _ in range(depth):
        spec = wrap.format(spec)
    return spec


QUOTIENT_CHAIN = _wrapped("Quotient:{{ring:{},gens:[0]}}", MAX_SPEC_DEPTH)


def _product_quotient_chain(pairs: int) -> str:
    spec = "Zmod:4"
    for k in range(1, pairs + 1):
        spec = f"Quotient:{{ring:Product:[{spec}],gens:[{'(' * k}0{')' * k}]}}"
    return spec


def test_specs_nest_up_to_the_depth_cap():
    for spec in [
        _wrapped("Product:[{}]", MAX_SPEC_DEPTH),
        QUOTIENT_CHAIN,
        _product_quotient_chain(MAX_SPEC_DEPTH // 2),
    ]:
        assert render_ring_spec(build_ring(parse_ring_spec(spec))) == spec
    # a quotient is a level too; nothing is built before the refusal
    for wrap in ["Product:[{}]", "Quotient:{{ring:{},gens:[0]}}", "Product:[Zmod:2,{}]"]:
        with pytest.raises(ParseError, match="^ring spec is nested too deeply to parse$"):
            parse_ring_spec(_wrapped(wrap, MAX_SPEC_DEPTH + 1))


@pytest.mark.parametrize("spec, limits", [
    (QUOTIENT_CHAIN, (201, 5252)),
    (_wrapped("Product:[{}]", MAX_SPEC_DEPTH), (101, 202)),
], ids=["quotient", "product"])
def test_a_nested_spec_is_built_and_validated_in_linear_work(spec, limits, monkeypatch):
    # each quotient's base is validated and built as the parser reaches
    # its generators, from the rings already built below it
    counts = {"builds": 0, "validations": 0}
    real_init, real_validate = rings.Ring.__init__, rings.validate_descriptor

    def counted_init(self, *args):
        counts["builds"] += 1
        real_init(self, *args)

    def counted_validate(*args):
        counts["validations"] += 1
        return real_validate(*args)

    monkeypatch.setattr(rings.Ring, "__init__", counted_init)
    monkeypatch.setattr(rings, "validate_descriptor", counted_validate)
    monkeypatch.setattr(ringspec, "validate_descriptor", counted_validate)
    build_ring(parse_ring_spec(spec))
    assert counts["builds"] <= limits[0] and counts["validations"] <= limits[1]


# The first error of a spec with more than one fault: parse faults, then
# faults of a quotient's base as the parser reaches its generators, then
# structural faults in post-order, then quotients by the unit ideal.
@pytest.mark.parametrize("spec, error, message", [
    ("Product:[Zmod:1,Zmod:x]", ParseError, "expected an integer (at position 21)"),
    ("Product:[Zmod:5000,Zmod:1]", RingBuildError, "ring size 5000 exceeds the cap 4096"),
    ("Product:[Quotient:{ring:Zmod:4,gens:[1]},Zmod:1]", RingBuildError,
     "modulus must be at least 2, got 1"),
    ("Product:[Quotient:{ring:Zmod:4,gens:[1]},Zmod:x]", ParseError,
     "expected an integer (at position 46)"),
    ("Quotient:{ring:Product:[Quotient:{ring:Zmod:4,gens:[1]},Zmod:1],gens:[(0,0)]}",
     RingBuildError, "modulus must be at least 2, got 1"),
    ("Quotient:{ring:Product:[Quotient:{ring:Zmod:4,gens:[1]},Zmod:2],gens:[(0,0)]}",
     ImproperIdealError, "quotient by the unit ideal would be the zero ring"),
    ("Quotient:{ring:Zmod:4,gens:[1]} x", ParseError, "unexpected trailing text (at position 32)"),
    ("Product:[Quotient:{ring:Zmod:4096,gens:[2]},Zmod:2]", RingBuildError,
     "ring size 8192 exceeds the cap 4096"),
    ("Quotient:{ring:Zmod:1,gens:[x]}", RingBuildError, "modulus must be at least 2, got 1"),
    ("Quotient:{ring:Zmod:4,gens:[5]}", ParseError, "residue 5 outside [0, 4)"),
    ("Product:[Zmod:1,Quotient:{ring:Zmod:1,gens:[0]}]", RingBuildError,
     "modulus must be at least 2, got 1"),
    ("Product:[Zmod:1,Quotient:{ring:Zmod:4,gens:[9]}]", ParseError, "residue 9 outside [0, 4)"),
    ("Product:[Zmod:4096,Quotient:{ring:Zmod:4,gens:[9]}]", ParseError,
     "residue 9 outside [0, 4)"),
    ("Quotient:{ring:Quotient:{ring:Zmod:4,gens:[1]},gens:[0]}", ImproperIdealError,
     "quotient by the unit ideal would be the zero ring"),
    ("Quotient:{ring:Product:[Zmod:64,Zmod:128],gens:[(0,0)]}", RingBuildError,
     "ring size 8192 exceeds the cap 4096"),
    ("Product:[PolyQuot:{p:4,poly:[0,1]},Zmod:1]", RingBuildError,
     "characteristic must be prime, got 4"),
    ("Product:[Zmod:1,Product:[]]", ParseError, "expected a name (at position 25)"),
    ("PolyQuot:{p:4,poly:[0,2]}", RingBuildError, "characteristic must be prime, got 4"),
    ("PolyQuot:{p:8191,poly:[0,1]}", RingBuildError, "ring size 8191 exceeds the cap 4096"),
])
def test_the_first_of_several_faults_is_reported(spec, error, message):
    with pytest.raises(error) as caught:
        build_ring(parse_ring_spec(spec))
    assert type(caught.value) is error and str(caught.value) == message


def test_a_characteristic_over_the_cap_is_not_factored(monkeypatch):
    def refuse(p):
        raise AssertionError(f"trial division of {p}")

    monkeypatch.setattr(rings, "_is_prime", refuse)
    with pytest.raises(RingBuildError, match=r"^ring size \d+ exceeds the cap 4096$"):
        parse_ring_spec("PolyQuot:{p:618970019642690137449562111,poly:[0,1]}")


def test_nested_quotient_spec():
    spec = "Quotient:{ring:Quotient:{ring:Zmod:24,gens:[12]},gens:[4]}"
    descriptor = parse_ring_spec(spec)
    ring = build_ring(descriptor)
    assert ring.size == 4


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "Zmod",
        "Zmod:",
        "Zmod:x",
        "Frob:4",
        "Zmod:4 trailing",
        "Product:[]",
        "Product:[Zmod:4",
        "PolyQuot:{p:2}",
        "PolyQuot:{p:2,poly:[0,0,1]",
        "Quotient:{ring:Zmod:4}",
    ],
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ParseError):
        parse_ring_spec(bad)


@pytest.mark.parametrize(
    "invalid",
    [
        "Zmod:1",
        "PolyQuot:{p:4,poly:[0,0,1]}",
        "PolyQuot:{p:2,poly:[0,0,2]}",
        "PolyQuot:{p:2,poly:[1]}",
    ],
)
def test_parse_rejects_invalid_rings(invalid):
    with pytest.raises((ParseError, RingBuildError)):
        parse_ring_spec(invalid)


def test_size_cap_applies_at_build_time():
    descriptor = parse_ring_spec("Zmod:100", max_size=4096)
    with pytest.raises(RingBuildError, match="cap"):
        build_ring(descriptor, max_size=50)


@given(st.integers(min_value=2, max_value=300))
def test_zmod_round_trip_all_moduli(n):
    assert parse_ring_spec(f"Zmod:{n}") == ZMod(n)


def test_parse_ideal_text():
    ring = build_ring(parse_ring_spec("Zmod:12"))
    assert parse_ideal_text(ring, "(0)").element_values == frozenset({0})
    assert parse_ideal_text(ring, "(4, 6)").element_values == frozenset({0, 2, 4, 6, 8, 10})
    assert parse_ideal_text(ring, "4,6") == parse_ideal_text(ring, "(4,6)")
    assert parse_ideal_text(ring, "()").is_zero
    assert parse_ideal_text(ring, "").is_zero


def test_parse_ideal_text_product_ring():
    ring = build_ring(parse_ring_spec("Product:[Zmod:2,Zmod:4]"))
    ideal = parse_ideal_text(ring, "((0,2))")
    assert ideal.element_values == frozenset(map(ring.parse_value, ["(0,0)", "(0,2)"]))
    two_gens = parse_ideal_text(ring, "((1,0),(0,2))")
    assert ring.parse_value("(1,0)") in two_gens.element_values


@pytest.mark.parametrize(
    "spec",
    [
        "Zmod:12",
        "PolyQuot:{p:2,poly:[0,0,1]}",
        "Product:[Zmod:2,Zmod:4]",
        "Quotient:{ring:PolyQuot:{p:2,poly:[0,0,0,1]},gens:[[0,0,1]]}",
    ],
)
def test_zero_ideal_text_reads_back_on_every_ring_kind(spec):
    ring = build_ring(parse_ring_spec(spec))
    zero = Ideal.zero(ring)
    assert zero.text() == "(0)"
    for text in ("(0)", " ( 0 ) ", "0"):
        parsed = parse_ideal_text(ring, text)
        assert parsed == zero
        assert parsed.text() == "(0)"


def test_parse_ideal_text_rejects_garbage():
    ring = build_ring(parse_ring_spec("Zmod:12"))
    with pytest.raises(ParseError):
        parse_ideal_text(ring, "(4, banana)")
    with pytest.raises(ParseError):
        parse_ideal_text(ring, "(4, 99)")
    with pytest.raises(ParseError):
        parse_ideal_text(ring, "(4,")
