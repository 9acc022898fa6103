"""Ideal element sets, lattice enumeration, and ideal arithmetic."""

import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from absorbing_ideals import (
    Ideal,
    ZMod,
    build_ring,
    colon,
    enumerate_ideals,
    ideal_power,
    ideal_product,
    parse_ring_spec,
    proper_ideals,
    radical,
    sum_ideal,
)
from absorbing_ideals.errors import ResourceLimitError
from oracles import (
    brute_force_ideals,
    naive_colon,
    naive_ideal_product_elements,
    naive_is_prime,
    naive_radical,
)

SMALL_RING_SPECS_FOR_STRATEGY = [
    "Zmod:4",
    "Zmod:6",
    "Zmod:8",
    "Zmod:9",
    "Zmod:12",
    "PolyQuot:{p:2,poly:[0,0,1]}",
    "Product:[Zmod:2,Zmod:4]",
]


@st.composite
def ring_and_ideal(draw):
    ring = build_ring(parse_ring_spec(draw(st.sampled_from(SMALL_RING_SPECS_FOR_STRATEGY))))
    values = list(ring.iter_values())
    gens = draw(st.lists(st.sampled_from(values), min_size=0, max_size=2))
    return Ideal.from_generators(ring, gens)


# ---------------------------------------------------------------------------
# construction


def test_from_generators_records_generators():
    ring = build_ring(ZMod(12))
    ideal = Ideal.from_generators(ring, [4, 6])
    assert ideal.generator_values == (4, 6)
    assert ideal.element_values == frozenset({0, 2, 4, 6, 8, 10})
    assert ideal.text() == "(4,6)"


def test_from_elements_picks_canonical_generators():
    ring = build_ring(ZMod(12))
    ideal = Ideal.from_elements(ring, {0, 2, 4, 6, 8, 10})
    assert ideal.generator_values == (2,)
    assert ideal == Ideal.from_generators(ring, [4, 6])


def test_from_elements_rejects_non_ideals():
    ring = build_ring(ZMod(12))
    with pytest.raises(ValueError):
        Ideal.from_elements(ring, {0, 2, 4})  # not closed under addition mod 12
    with pytest.raises(ValueError):
        Ideal.from_elements(ring, {0, 1, 2})


def test_zero_and_unit():
    ring = build_ring(ZMod(9))
    zero = Ideal.zero(ring)
    unit = Ideal.unit(ring)
    assert zero.is_zero and zero.is_proper and not zero.is_unit
    assert unit.is_unit and not unit.is_proper
    assert zero.text() == "(0)" and unit.text() == "(1)"
    assert len(zero) == 1 and len(unit) == 9


def test_equality_ignores_generator_choice():
    ring = build_ring(ZMod(12))
    a = Ideal.from_generators(ring, [2])
    b = Ideal.from_generators(ring, [4, 6])
    c = Ideal.from_generators(ring, [10])
    assert a == b == c
    assert len({a, b, c}) == 1


def test_containment_and_membership():
    ring = build_ring(ZMod(12))
    small = Ideal.from_generators(ring, [6])
    big = Ideal.from_generators(ring, [2])
    assert small <= big and small < big and not big <= small
    assert 6 in small and 2 not in small


# ---------------------------------------------------------------------------
# operations versus the brute oracles


@given(ring_and_ideal())
def test_radical_matches_oracle(ideal):
    assert radical(ideal).element_values == naive_radical(ideal)


@given(ring_and_ideal())
def test_radical_is_idempotent_and_contains_ideal(ideal):
    rad = radical(ideal)
    assert ideal.element_values <= rad.element_values
    assert radical(rad) == rad


@given(ring_and_ideal())
def test_colon_matches_oracle(ideal):
    ring = ideal.ring
    for x in list(ring.iter_values())[:6]:
        result = colon(ideal, x)
        assert result.element_values == naive_colon(ideal, x)
        assert ideal.element_values <= result.element_values


@pytest.mark.parametrize("spec, value", [("Product:[Zmod:4,Zmod:6]", 24), ("Zmod:12", 13)])
def test_colon_refuses_a_non_element(spec, value):
    zero = Ideal.zero(build_ring(parse_ring_spec(spec)))
    with pytest.raises(ValueError, match=f"^{value} is not an element of "):
        colon(zero, value)


@given(ring_and_ideal())
def test_product_matches_oracle(ideal):
    square = ideal_product(ideal, ideal)
    assert square.element_values == naive_ideal_product_elements(ideal, ideal)
    assert list(square.generator_values) == sorted(square.generator_values)
    assert square.element_values <= ideal.element_values


@given(ring_and_ideal())
def test_prime_matches_oracle(ideal):
    assert ideal.is_prime() == naive_is_prime(ideal)


def test_power_examples_and_validation():
    ring = build_ring(ZMod(8))
    two = Ideal.from_generators(ring, [2])
    assert ideal_power(two, 1) == two
    assert ideal_power(two, 2).element_values == frozenset({0, 4})
    assert ideal_power(two, 3).is_zero
    with pytest.raises(ValueError, match="exponent >= 1"):
        ideal_power(two, 0)


def test_radical_of_power_is_radical():
    ring = build_ring(ZMod(12))
    ideal = Ideal.from_generators(ring, [4])
    rad = radical(ideal)
    for k in (1, 2, 3):
        assert radical(ideal_power(ideal, k)) == rad


def test_sum_ideal():
    ring = build_ring(ZMod(12))
    a = Ideal.from_generators(ring, [4])
    b = Ideal.from_generators(ring, [6])
    assert sum_ideal(a, b).element_values == frozenset({0, 2, 4, 6, 8, 10})


def test_cross_ring_operations_rejected():
    a = Ideal.zero(build_ring(ZMod(4)))
    b = Ideal.zero(build_ring(ZMod(6)))
    with pytest.raises(ValueError):
        ideal_product(a, b)
    with pytest.raises(ValueError):
        sum_ideal(a, b)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_ideals_matches_subset_oracle(small_ring_specs):
    for spec in small_ring_specs:
        ring = build_ring(parse_ring_spec(spec))
        if ring.size > 12:
            continue
        found = {i.element_values for i in enumerate_ideals(ring)}
        assert found == brute_force_ideals(ring), spec


def test_enumerate_ideals_order_is_canonical():
    ring = build_ring(ZMod(12))
    ideals = enumerate_ideals(ring)
    assert [len(i) for i in ideals] == [1, 2, 3, 4, 6, 12]
    assert [i.text() for i in ideals] == ["(0)", "(6)", "(4)", "(3)", "(2)", "(1)"]
    assert ideals == enumerate_ideals(ring)


def test_enumerate_ideals_resource_cap():
    ring = build_ring(ZMod(12))
    with pytest.raises(ResourceLimitError):
        enumerate_ideals(ring, max_ideals=3)


def test_proper_ideals_excludes_unit():
    ring = build_ring(ZMod(12))
    assert all(i.is_proper for i in proper_ideals(ring))
    assert len(list(proper_ideals(ring))) == 5


# rings outside the built-in corpus, one or more of each kind
ENUMERATION_SPECS = [
    "Product:[Zmod:4,Zmod:6]",
    "Quotient:{ring:Zmod:36,gens:[18]}",
    "PolyQuot:{p:2,poly:[0,0,0,0,1]}",
    "Product:[Zmod:2,Zmod:2,Zmod:2]",
    "Zmod:60",
]
ENUMERATION_FIXTURE = Path(__file__).parent / "fixtures" / "enumeration_golden.json"


def enumeration_records() -> dict:
    """Per ring, each ideal in enumeration order: text, size, radical text."""
    out = {}
    for spec in ENUMERATION_SPECS:
        ring = build_ring(parse_ring_spec(spec))
        out[spec] = [
            [ideal.text(), len(ideal), radical(ideal).text()]
            for ideal in enumerate_ideals(ring)
        ]
    return out


def test_enumeration_matches_the_recorded_ideals():
    # recorded before ideals were grown from principal ideals and coset
    # sums: the same ideals, in the same order, with the same generators
    assert enumeration_records() == json.loads(ENUMERATION_FIXTURE.read_text())
