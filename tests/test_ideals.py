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
from absorbing_ideals import ideals
from absorbing_ideals.errors import ResourceLimitError
from absorbing_ideals.rings import generated_ideal_values, principal_ideal_values
from oracles import (
    brute_force_ideals,
    naive_additive_closure,
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


# ---------------------------------------------------------------------------
# per-ring memos of principal ideals and ideal powers

# small rings of all four kinds, two of them quotients
MEMO_SPECS = [
    "Zmod:12",
    "PolyQuot:{p:2,poly:[0,0,0,1]}",
    "Product:[Zmod:2,Zmod:4]",
    "Quotient:{ring:Zmod:24,gens:[8]}",
    "Quotient:{ring:Product:[Zmod:4,Zmod:4],gens:[(2,0)]}",
]


def _counted_products(monkeypatch) -> list:
    """The operands of every `ideal_product` call made from now on."""
    calls = []
    real = ideals.ideal_product
    monkeypatch.setattr(ideals, "ideal_product", lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("spec", MEMO_SPECS)
def test_memoised_principal_ideals_and_powers_match_a_fresh_computation(spec):
    ring = build_ring(parse_ring_spec(spec))
    by_set = {}
    for g in ring.iter_values():
        fresh = frozenset(ring.mul_values(r, g) for r in ring.iter_values())
        principal = principal_ideal_values(ring, g)
        assert principal == fresh == naive_additive_closure(ring, fresh), g
        assert principal_ideal_values(ring, g) is principal
        # equal sets are one object
        assert by_set.setdefault(principal, principal) is principal
    for ideal in enumerate_ideals(ring):
        fresh, naive = ideal, ideal.element_values
        for k in range(1, 5):
            if k > 1:
                fresh = ideal_product(fresh, ideal)
                naive = naive_additive_closure(
                    ring, {ring.mul_values(a, b) for a in naive for b in ideal.element_values}
                )
            power = ideal_power(ideal, k)
            assert power.generator_values == fresh.generator_values, (ideal.text(), k)
            assert power.element_values == fresh.element_values == naive
            assert ideal_power(ideal, k) is power


def test_a_higher_power_costs_one_more_product(monkeypatch):
    ring = build_ring(parse_ring_spec("Zmod:32"))
    two = Ideal.from_generators(ring, [2])
    calls = _counted_products(monkeypatch)
    cube = ideal_power(two, 3)
    assert len(calls) == 2
    fourth = ideal_power(two, 4)
    assert len(calls) == 3 and calls[-1] == (cube, two)
    assert fourth.element_values == frozenset({0, 16})
    # lower levels are read back, and the ideal itself is the first power
    assert ideal_power(two, 2).element_values == frozenset(range(0, 32, 4))
    assert ideal_power(two, 1) is two
    assert len(calls) == 3
    # another Ideal object with the same generators shares the chain
    assert ideal_power(Ideal.from_generators(ring, [2]), 4) is fourth
    assert len(calls) == 3


def test_equal_ideals_with_other_generators_keep_their_own_powers():
    ring = build_ring(parse_ring_spec("Zmod:12"))
    one_gen = Ideal.from_generators(ring, [2])
    two_gens = Ideal.from_generators(ring, [2, 4])
    assert one_gen == two_gens
    # a product's generators come from the generators, so the texts differ
    assert ideal_power(one_gen, 2).text() == "(4)"
    assert ideal_power(two_gens, 2).text() == "(4,8)"
    assert ideal_power(one_gen, 2) == ideal_power(two_gens, 2)
    assert set(ring._powers) == {(2,), (2, 4)}


def test_a_built_ring_starts_with_empty_memos():
    desc = parse_ring_spec("Zmod:12")
    used = build_ring(desc)
    for ideal in enumerate_ideals(used):
        ideal_power(ideal, 3)
    assert used._principals and used._principal_sets and used._powers
    fresh = build_ring(desc)
    assert fresh == used and fresh is not used
    assert fresh._principals == fresh._principal_sets == fresh._powers == {}


@pytest.mark.parametrize("bad", [True, -1, 12])
def test_a_non_element_is_refused_before_any_principal_ideal_is_read(bad):
    ring = build_ring(parse_ring_spec("Zmod:12"))
    with pytest.raises(ValueError, match="is not an element of"):
        generated_ideal_values(ring, [2, bad])
    assert ring._principals == {}
    # with (1) kept, True still cannot read it
    principal_ideal_values(ring, 1)
    with pytest.raises(ValueError, match="is not an element of"):
        generated_ideal_values(ring, [bad])
    with pytest.raises(ValueError, match="is not an element of"):
        Ideal.from_generators(ring, [bad])
    assert list(ring._principals) == [1]
