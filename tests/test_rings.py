"""Ring construction, canonical element order, and arithmetic laws."""

import copy
import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from absorbing_ideals import (
    BUILTIN_CORPUS,
    DEFAULT_MAX_RING_SIZE,
    Ideal,
    PolyQuot,
    Product,
    Quotient,
    RingBuildError,
    ZMod,
    build_ring,
    enumerate_ideals,
    parse_ring_spec,
    quotient_ring,
    render_ring_spec,
)
from absorbing_ideals.rings import (
    MEMO_MAX_SIZE,
    PolyQuotRing,
    generated_ideal_values,
    ideal_sum_values,
    packed_field_width,
    principal_ideal_values,
    split_top_level,
    validate_descriptor,
    values_with_power_in,
)
from oracles import (
    brute_force_ideals,
    irreducible_factor_count,
    naive_additive_closure,
    naive_generated_ideal,
    naive_poly_product,
    naive_poly_sum,
    naive_radical,
    naive_units,
    poly_digits,
)
from test_absorbing import ORACLE_SPECS

DESCRIPTOR_POOL = [
    ZMod(2),
    ZMod(4),
    ZMod(6),
    ZMod(9),
    ZMod(12),
    PolyQuot(2, (0, 0, 1)),
    PolyQuot(2, (1, 1, 1)),
    PolyQuot(3, (0, 0, 1)),
    Product((ZMod(2), ZMod(3))),
    Product((ZMod(4), ZMod(2))),
    Quotient(ZMod(12), (4,)),
]

# two more PolyQuot rings for the laws, which need no canonical texts:
# 512 elements, past the product memo, and p = 5 with nonzero lower
# modulus coefficients
LAW_POOL = DESCRIPTOR_POOL + [
    PolyQuot(2, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)),
    PolyQuot(5, (2, 3, 4, 1)),
]

ring_strategy = st.sampled_from([build_ring(d) for d in LAW_POOL])


@st.composite
def ring_and_elements(draw, count=3):
    ring = draw(ring_strategy)
    values = list(ring.iter_values())
    picks = [draw(st.sampled_from(values)) for _ in range(count)]
    return ring, picks


# ---------------------------------------------------------------------------
# construction and validation


def test_zmod_basics():
    ring = build_ring(ZMod(12))
    assert ring.size == 12
    assert list(ring.iter_values()) == list(range(12))
    assert ring.add_values(7, 8) == 3
    assert ring.mul_values(7, 8) == 8
    assert ring.pow_value(5, 0) == 1
    assert ring.unit_values() == frozenset({1, 5, 7, 11})


def test_polyquot_basics():
    ring = build_ring(PolyQuot(2, (0, 0, 1)))  # square of the variable is 0
    text, value = ring.render_value, ring.parse_value
    assert ring.size == 4
    assert [text(v) for v in ring.iter_values()] == ["[0,0]", "[1,0]", "[0,1]", "[1,1]"]
    x = value("[0,1]")
    assert ring.mul_values(x, x) == value("[0,0]")
    assert ring.add_values(x, ring.one_value) == value("[1,1]")
    assert ring.unit_values() == frozenset({value("[1,0]"), value("[1,1]")})


def test_polyquot_field():
    # an irreducible modulus gives a field: every nonzero element a unit
    ring = build_ring(PolyQuot(2, (1, 1, 1)))
    zero = ring.parse_value("[0,0]")
    assert ring.unit_values() == frozenset(set(ring.iter_values()) - {zero})


def test_polyquot_reduction_uses_modulus():
    # cube of the variable reduces via x^3 = -x - 1 over F2: x^3 = x + 1
    ring = build_ring(PolyQuot(2, (1, 1, 0, 1)))
    x = ring.parse_value("[0,1,0]")
    assert ring.pow_value(x, 3) == ring.parse_value("[1,1,0]")


# every (p, d) with p**d within the size cap: 604 shapes, 564 of them of
# degree 1
POLY_SHAPES = [
    (p, d)
    for p in range(2, DEFAULT_MAX_RING_SIZE + 1)
    if all(p % q for q in range(2, math.isqrt(p) + 1))
    for d in range(1, DEFAULT_MAX_RING_SIZE.bit_length())
    if p**d <= DEFAULT_MAX_RING_SIZE
]


def _poly_moduli(p, d):
    """x^d, the first irreducible monic of degree d with a nonzero
    constant (constant coefficient varying fastest), and the modulus
    with every lower coefficient 1, whose reductions x^(d+k) mod f have
    the largest coefficients p - 1."""
    irreducible = next(
        low + (1,)
        for high in itertools.product(range(p), repeat=d)
        for low in [high[::-1]]
        if low[0] and irreducible_factor_count(low + (1,), p) == 1
    )
    return list(dict.fromkeys([(0,) * d + (1,), irreducible, (1,) * (d + 1)]))


def _poly_pairs(size, count):
    """Every pair of a ring of at most 64 elements; else `count` seeded
    pairs and the pair whose digits are all p - 1."""
    if size <= 64:
        return list(itertools.product(range(size), repeat=2))
    rnd = random.Random(size)
    return [(size - 1, size - 1)] + [
        (rnd.randrange(size), rnd.randrange(size)) for _ in range(count)
    ]


@pytest.mark.parametrize("degree", range(1, 13))
def test_polyquot_arithmetic_matches_the_schoolbook_oracle(degree):
    # the kind's own arithmetic, through the class: the memo is bypassed.
    # Degree-1 rings of the primes 67 to 4091 take 64 pairs and their
    # values only, so that the 500-odd of them cost what one ring does.
    for p, d in POLY_SHAPES:
        if d != degree:
            continue
        light = d == 1 and 64 < p < 4093
        for modulus in _poly_moduli(p, d):
            ring = build_ring(PolyQuot(p, modulus))
            assert ring.size == p**d
            pairs = _poly_pairs(ring.size, 64 if light else 2000)
            for a, b in pairs:
                assert PolyQuotRing.mul_values(ring, a, b) == naive_poly_product(
                    p, modulus, a, b
                ), (p, modulus, a, b)
                assert PolyQuotRing.add_values(ring, a, b) == naive_poly_sum(p, d, a, b)
            values = {v for pair in pairs for v in pair} if light else ring.iter_values()
            for v in values:
                text = ring.render_value(v)
                assert text == "[" + ",".join(map(str, poly_digits(v, p, d))) + "]"
                assert ring.parse_value(text) == v


def _headroom(shape):
    p, d = shape
    return 2 ** packed_field_width(p, d) / (2 * d * (p - 1) ** 2)


# for each degree, the shape whose bound 2*d*(p-1)**2 comes nearest 2**s
TIGHTEST_SHAPES = [
    min((shape for shape in POLY_SHAPES if shape[1] == d), key=_headroom) for d in range(1, 13)
]


@pytest.mark.parametrize("p, d", TIGHTEST_SHAPES)
def test_packed_fields_stay_below_their_width(p, d):
    # s is the least width above the bound of the no-carry argument
    s = packed_field_width(p, d)
    assert 2 ** (s - 1) <= 2 * d * (p - 1) ** 2 < 2**s
    for modulus in _poly_moduli(p, d):
        ring = build_ring(PolyQuot(p, modulus))
        # coefficients of x^(d+k) mod f, k = 0..d-2, by the oracle: the
        # value of x is p, and that of x^(d-1) is p**(d-1)
        folds, power = [], p ** (d - 1)
        for _ in range(d - 1):
            power = naive_poly_product(p, modulus, power, p)
            folds.append(poly_digits(power, p, d))
        largest = 0
        for a, b in _poly_pairs(ring.size, 2000):
            ca, cb = poly_digits(a, p, d), poly_digits(b, p, d)
            conv = [0] * (2 * d - 1)
            for i, j in itertools.product(range(d), repeat=2):
                conv[i + j] += ca[i] * cb[j]
            # the fields before the unpack: the low convolution plus
            # each high coefficient mod p times its reduction
            fields = conv[:d]
            for high, fold in zip(conv[d:], folds):
                fields = [f + high % p * c for f, c in zip(fields, fold)]
            largest = max(largest, *fields)
            # and the ring's packed product, folded, holds exactly these
            t = ring._packed[a] * ring._packed[b]
            high = t >> ring._split
            t &= ring._low
            for shift, fold in ring._folds:
                t += (high >> shift & ring._mask) % p * fold
            assert t == sum(f << (i * s) for i, f in enumerate(fields)), (modulus, a, b)
        assert largest <= (2 * d - 1) * (p - 1) ** 2 < 2**s


def test_product_basics():
    ring = build_ring(Product((ZMod(4), ZMod(3))))
    text, value = ring.render_value, ring.parse_value
    assert ring.size == 12
    values = list(ring.iter_values())
    assert text(values[0]) == "(0,0)" and text(values[1]) == "(0,1)"
    assert text(values[3]) == "(1,0)"
    assert ring.mul_values(value("(2,2)"), value("(2,2)")) == value("(0,1)")
    assert text(ring.one_value) == "(1,1)"


def test_quotient_basics():
    base = build_ring(ZMod(12))
    ring = quotient_ring(base, Ideal.from_generators(base, [4]))
    assert ring.size == 4
    assert list(ring.iter_values()) == [0, 1, 2, 3]
    assert ring.mul_values(2, 2) == 0  # 4 collapses to 0
    assert ring.project_value(7) == 3
    assert ring.preimage_values({0}) == frozenset({0, 4, 8})


def test_quotient_by_unit_ideal_rejected():
    base = build_ring(ZMod(6))
    with pytest.raises(ValueError):
        quotient_ring(base, Ideal.from_generators(base, [1]))


def test_quotient_ring_is_kept_on_its_base_ring():
    base = build_ring(ZMod(12))
    ideal = Ideal.from_generators(base, [4])
    ring = quotient_ring(base, ideal)
    assert quotient_ring(base, ideal) is ring
    # keyed by element set: (8) has the elements of (4)
    assert quotient_ring(base, Ideal.from_generators(base, [8])) is ring
    assert quotient_ring(base, Ideal.from_generators(base, [6])) is not ring
    assert quotient_ring(build_ring(ZMod(12)), ideal) is not ring
    # build_ring never reads that memo: each call is a fresh quotient
    desc = Quotient(ZMod(12), (4,))
    first, second = build_ring(desc), build_ring(desc)
    assert first == ring
    assert first is not ring and second is not ring and first is not second
    assert first.base._quotients == {}


def test_validate_descriptor_errors():
    with pytest.raises(RingBuildError, match="at least 2"):
        validate_descriptor(ZMod(1))
    with pytest.raises(RingBuildError, match="prime"):
        validate_descriptor(PolyQuot(4, (0, 0, 1)))
    with pytest.raises(RingBuildError, match="monic"):
        validate_descriptor(PolyQuot(3, (0, 0, 2)))
    with pytest.raises(RingBuildError, match="degree at least 1"):
        validate_descriptor(PolyQuot(2, (1,)))
    with pytest.raises(RingBuildError, match="at least one factor"):
        validate_descriptor(Product(()))
    with pytest.raises(RingBuildError, match="exceeds the cap"):
        validate_descriptor(ZMod(5000))
    with pytest.raises(RingBuildError, match="exceeds the cap"):
        validate_descriptor(ZMod(64), max_size=32)
    validate_descriptor(ZMod(DEFAULT_MAX_RING_SIZE))


def test_descriptor_size():
    assert validate_descriptor(ZMod(9)) == 9
    assert validate_descriptor(PolyQuot(3, (0, 0, 0, 1))) == 27
    assert validate_descriptor(Product((ZMod(4), ZMod(3)))) == 12
    # a quotient counts as its base, an upper bound on its size
    assert validate_descriptor(Quotient(ZMod(12), (4,))) == 12
    assert validate_descriptor(Product((ZMod(2), Product((ZMod(3), PolyQuot(2, (1, 1, 1))))))) == 24


def test_build_ring_is_fresh_and_hashable():
    # no process-wide cache: each build is a new ring, equal by descriptor
    a = build_ring(ZMod(8))
    b = build_ring(ZMod(8))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert build_ring(ZMod(9)) != a


# ---------------------------------------------------------------------------
# arithmetic laws, across every ring kind


@given(ring_and_elements())
def test_addition_laws(data):
    ring, (a, b, c) = data
    add = ring.add_values
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, ring.zero_value) == a
    assert any(add(a, x) == ring.zero_value for x in ring.iter_values())


@given(ring_and_elements())
def test_multiplication_laws(data):
    ring, (a, b, c) = data
    mul = ring.mul_values
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, ring.one_value) == a
    assert mul(a, ring.zero_value) == ring.zero_value
    assert mul(a, ring.add_values(b, c)) == ring.add_values(mul(a, b), mul(a, c))


@given(ring_and_elements(count=1), st.integers(min_value=0, max_value=9))
def test_power_matches_repeated_multiplication(data, k):
    ring, (a,) = data
    expected = ring.one_value
    for _ in range(k):
        expected = ring.mul_values(expected, a)
    assert ring.pow_value(a, k) == expected


@given(ring_strategy)
def test_canonical_order_is_total_and_stable(ring):
    values = list(ring.iter_values())
    assert len(values) == ring.size == len(set(values))
    assert values == sorted(values)
    assert all(ring.contains_value(v) for v in values)


@given(ring_and_elements(count=1))
def test_render_parse_round_trip(data):
    ring, (a,) = data
    assert ring.parse_value(ring.render_value(a)) == a


# element texts in canonical order for DESCRIPTOR_POOL and two more quotients
CANONICAL_TEXTS = {
    ZMod(2): ["0", "1"],
    ZMod(4): ["0", "1", "2", "3"],
    ZMod(6): [str(v) for v in range(6)],
    ZMod(9): [str(v) for v in range(9)],
    ZMod(12): [str(v) for v in range(12)],
    PolyQuot(2, (0, 0, 1)): ["[0,0]", "[1,0]", "[0,1]", "[1,1]"],
    PolyQuot(2, (1, 1, 1)): ["[0,0]", "[1,0]", "[0,1]", "[1,1]"],
    PolyQuot(3, (0, 0, 1)): [
        "[0,0]", "[1,0]", "[2,0]", "[0,1]", "[1,1]", "[2,1]", "[0,2]", "[1,2]", "[2,2]",
    ],
    Product((ZMod(2), ZMod(3))): ["(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)"],
    Product((ZMod(4), ZMod(2))): [
        "(0,0)", "(0,1)", "(1,0)", "(1,1)", "(2,0)", "(2,1)", "(3,0)", "(3,1)",
    ],
    Quotient(ZMod(12), (4,)): ["0", "1", "2", "3"],
    # generators are base values: 4 is [0,0,1], the square of the variable
    Quotient(PolyQuot(2, (0, 0, 0, 1)), (4,)): ["[0,0,0]", "[1,0,0]", "[0,1,0]", "[1,1,0]"],
    # 1 is (0,1); the cosets' least members are (0,0) and (1,0)
    Quotient(Product((ZMod(2), ZMod(2))), (1,)): ["(0,0)", "(1,0)"],
}


@pytest.mark.parametrize(
    "desc",
    DESCRIPTOR_POOL + [d for d in CANONICAL_TEXTS if d not in DESCRIPTOR_POOL],
    ids=lambda desc: render_ring_spec(build_ring(desc)),
)
def test_values_are_canonical_indices(desc):
    ring = build_ring(desc)
    assert ring.iter_values() == range(ring.size)
    assert ring.zero_value == 0
    assert [ring.render_value(v) for v in ring.iter_values()] == CANONICAL_TEXTS[desc]
    for v in ring.iter_values():
        assert ring.parse_value(ring.render_value(v)) == v
    for outsider in (True, -1, ring.size, (0, 0)):
        assert not ring.contains_value(outsider)


# ---------------------------------------------------------------------------
# closure helpers


def test_principal_ideal_values():
    ring = build_ring(ZMod(12))
    assert principal_ideal_values(ring, 4) == frozenset({0, 4, 8})
    assert principal_ideal_values(ring, 10) == frozenset({0, 2, 4, 6, 8, 10})
    assert principal_ideal_values(ring, 0) == frozenset({0})
    assert principal_ideal_values(ring, 5) == frozenset(range(12))
    product = build_ring(parse_ring_spec("Product:[Zmod:2,Zmod:4]"))
    g = product.parse_value("(0,2)")
    assert {product.render_value(v) for v in principal_ideal_values(product, g)} == {
        "(0,0)", "(0,2)"
    }


def test_ideal_sum_values():
    ring = build_ring(ZMod(12))
    fours, sixes, twos = frozenset({0, 4, 8}), frozenset({0, 6}), frozenset(range(0, 12, 2))
    assert ideal_sum_values(ring, fours, sixes) == twos
    assert ideal_sum_values(ring, sixes, fours) == twos
    # a side that holds the other is returned as it is
    assert ideal_sum_values(ring, twos, fours) is twos
    assert ideal_sum_values(ring, sixes, twos) is twos
    assert ideal_sum_values(ring, frozenset({0}), frozenset({0})) == frozenset({0})


# rings of at most 12 elements, of all four kinds, for the subset oracle
SUM_SPECS = [
    "Zmod:12",
    "PolyQuot:{p:2,poly:[0,0,1]}",
    "PolyQuot:{p:3,poly:[0,0,1]}",
    "Product:[Zmod:2,Zmod:4]",
    "Product:[Zmod:2,Zmod:2,Zmod:2]",
    "Quotient:{ring:Zmod:12,gens:[6]}",
    "Quotient:{ring:Product:[Zmod:4,Zmod:4],gens:[(2,0)]}",
]


@pytest.mark.parametrize("spec", SUM_SPECS)
def test_ideal_sum_values_matches_naive_additive_closure(spec):
    ring = build_ring(parse_ring_spec(spec))
    ideals = sorted(brute_force_ideals(ring), key=sorted)
    assert len(ideals) >= 3
    for left in ideals:
        for right in ideals:
            assert ideal_sum_values(ring, left, right) == naive_additive_closure(
                ring, left | right
            )


def test_generated_ideal_values_matches_naive_fixpoint(small_ring_specs):
    for spec in small_ring_specs:
        ring = build_ring(parse_ring_spec(spec))
        singles = {g: naive_generated_ideal(ring, [g]) for g in ring.iter_values()}
        for g, expected in singles.items():
            assert generated_ideal_values(ring, [g]) == expected
        for g, h in itertools.product(ring.iter_values(), repeat=2):
            assert generated_ideal_values(ring, [g, h]) == naive_generated_ideal(
                ring, [g, h]
            ), (spec, g, h)


@pytest.mark.parametrize("filled", [False, True])
def test_ideal_entry_points_refuse_non_elements_before_multiplying(filled):
    # a memoised ring answers an out-of-range value from whichever cell
    # it indexes, so values are checked where they enter
    ring = build_ring(parse_ring_spec("Product:[Zmod:4,Zmod:6]"))
    assert ring.size == 24 <= MEMO_MAX_SIZE
    if filled:
        for a, b in itertools.product(ring.iter_values(), repeat=2):
            ring.mul_values(a, b)
    mul = ring.mul_values

    def checked_mul(a, b):
        assert ring.contains_value(a) and ring.contains_value(b), (a, b)
        return mul(a, b)

    ring.mul_values = checked_mul
    everything = set(ring.iter_values())
    for outsider in (24, -1):
        for gens in ([outsider], [1, outsider], [outsider, 1]):
            with pytest.raises(ValueError, match="not an element"):
                generated_ideal_values(ring, gens)
        for elements in ({0, outsider}, everything | {outsider}):
            with pytest.raises(ValueError, match="not an element"):
                Ideal.from_elements(ring, elements)
    # every generator is checked, also one equal to an element already reached
    with pytest.raises(ValueError, match="not an element"):
        generated_ideal_values(ring, [1, True])


def test_split_top_level():
    assert split_top_level("a,b,c") == ["a", "b", "c"]
    assert split_top_level("(1,0),(0,1)") == ["(1,0)", "(0,1)"]
    assert split_top_level("[1,2],3") == ["[1,2]", "3"]
    assert split_top_level("") == []
    with pytest.raises(ValueError):
        split_top_level("(1,")


# ---------------------------------------------------------------------------
# units


# one ring of each kind with 64 to 512 elements
UNIT_SPECS = [
    "Zmod:360",
    "PolyQuot:{p:3,poly:[0,0,0,0,1]}",
    "Product:[Zmod:9,Zmod:12]",
    "Quotient:{ring:Product:[Zmod:16,Zmod:16],gens:[(8,0)]}",
]


@pytest.mark.parametrize("spec", ORACLE_SPECS + UNIT_SPECS)
def test_unit_values_match_oracle(spec):
    ring = build_ring(parse_ring_spec(spec))
    assert ring.unit_values() == naive_units(ring)


def _count_multiplications(ring, call):
    """Run `call()` and return the number of `ring.mul_values` calls."""
    calls = 0
    mul = ring.mul_values

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    ring.mul_values = counting_mul
    call()
    return calls


@pytest.mark.parametrize("spec", UNIT_SPECS)
def test_unit_values_make_at_most_two_multiplications_per_element(spec):
    ring = copy.copy(build_ring(parse_ring_spec(spec)))
    ring._units = None
    calls = _count_multiplications(ring, ring.unit_values)
    assert 64 <= ring.size <= 512
    assert calls <= 2 * ring.size


def _generated_subgroup(ring, generators):
    """Closure of {1} under multiplication by the generators."""
    closed, frontier = {ring.one_value}, [ring.one_value]
    while frontier:
        fresh = {ring.mul_values(x, g) for x in frontier for g in generators} - closed
        closed |= fresh
        frontier = list(fresh)
    return frozenset(closed)


# quotients of a PolyQuot and of a Product base; both unit groups are
# not cyclic (Z4 x Z2 in F2[x]/(x^4))
QUOTIENT_UNIT_SPECS = [
    "Quotient:{ring:PolyQuot:{p:2,poly:[0,0,0,0,0,0,1]},gens:[[0,0,0,0,1]]}",
    "Quotient:{ring:Product:[Zmod:16,Zmod:16],gens:[(8,0)]}",
]


@pytest.mark.parametrize("spec", list(BUILTIN_CORPUS) + QUOTIENT_UNIT_SPECS)
def test_unit_generators_generate_the_unit_group(spec):
    ring = build_ring(parse_ring_spec(spec))
    generators = ring.unit_generators()
    assert _generated_subgroup(ring, generators) == ring.unit_values()
    # each generator is the least unit outside the subgroup of those before it
    for k, g in enumerate(generators):
        earlier = _generated_subgroup(ring, generators[:k])
        assert g == min(ring.unit_values() - earlier)
    assert ring.unit_generators() is generators


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_values_with_power_in_matches_oracles(spec):
    ring = build_ring(parse_ring_spec(spec))
    assert values_with_power_in(ring, {ring.one_value}) == naive_units(ring)
    assert values_with_power_in(ring, {ring.zero_value}) == naive_radical(
        Ideal.zero(ring)
    )
    for ideal in enumerate_ideals(ring):
        assert values_with_power_in(ring, ideal.element_values) == naive_radical(ideal)


@pytest.mark.parametrize("spec", UNIT_SPECS)
@pytest.mark.parametrize("target", ["zero", "nilradical"])
def test_values_with_power_in_makes_at_most_two_multiplications_per_element(
    spec, target
):
    # the target {1} is covered by the unit_values test above
    ring = build_ring(parse_ring_spec(spec))
    targets = {ring.zero_value}
    if target == "nilradical":
        targets = values_with_power_in(ring, targets)
    calls = _count_multiplications(ring, lambda: values_with_power_in(ring, targets))
    assert calls <= 2 * ring.size


# ---------------------------------------------------------------------------
# memoised products


MEMOISED_SPECS = [spec for spec in BUILTIN_CORPUS if not spec.startswith("Zmod:")] + [
    "Quotient:{ring:PolyQuot:{p:3,poly:[0,0,0,1]},gens:[[0,0,1]]}",
    "Quotient:{ring:Product:[Zmod:4,Zmod:6],gens:[(2,0)]}",
]


def _pairs(ring):
    return list(itertools.product(ring.iter_values(), repeat=2))


@pytest.mark.parametrize("spec", MEMOISED_SPECS)
def test_memoised_products_equal_the_kinds_arithmetic(spec):
    # filled row by row, and from the last pair back: each order reads
    # some cells that its transpose filled
    for order in (_pairs, lambda ring: _pairs(ring)[::-1]):
        ring = build_ring(parse_ring_spec(spec))
        assert "mul_values" in vars(ring) and ring.size <= MEMO_MAX_SIZE
        kind_mul = type(ring).mul_values
        for a, b in order(ring):
            assert ring.mul_values(a, b) == kind_mul(ring, a, b), (a, b)
        assert all(ring.mul_values(a, b) == kind_mul(ring, a, b) for a, b in _pairs(ring))


@pytest.mark.parametrize(
    "spec, memoised",
    [
        ("Zmod:2", False),
        ("Zmod:36", False),
        ("Zmod:256", False),
        ("PolyQuot:{p:2,poly:[0,0,0,0,0,0,0,0,1]}", True),  # 256 elements
        ("Product:[Zmod:16,Zmod:16]", True),
        ("Product:[Zmod:257]", False),
        ("PolyQuot:{p:2,poly:[0,0,0,0,0,0,0,0,0,1]}", False),  # 512 elements
    ],
)
def test_only_small_rings_of_the_other_kinds_memoise_products(spec, memoised):
    ring = build_ring(parse_ring_spec(spec))
    assert ("mul_values" in vars(ring)) is memoised
    assert ring.mul_values(ring.one_value, ring.size - 1) == ring.size - 1


def test_each_build_fills_its_own_product_memo():
    spec = parse_ring_spec("Product:[Zmod:4,Zmod:6]")
    first, second = build_ring(spec), build_ring(spec)
    pairs = _pairs(first)
    for a, b in pairs:
        first.mul_values(a, b)
    # the kind's arithmetic runs once per unordered pair on the second
    # ring too: it reads nothing the first one stored
    calls = 0
    factor_mul = second.factors[0].mul_values

    def counting_mul(x, y):
        nonlocal calls
        calls += 1
        return factor_mul(x, y)

    second.factors[0].mul_values = counting_mul
    assert [second.mul_values(a, b) for a, b in pairs] == [first.mul_values(a, b) for a, b in pairs]
    assert calls == first.size * (first.size + 1) // 2


def test_arith_bench_checks_polyquot_products_against_the_schoolbook(
    capsys, monkeypatch, load_script
):
    bench = load_script("bench_arith")
    src = bench.harness.label(bench.harness.DEFAULT_SRC)
    assert bench.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"run 1: {src} best_ms ")
    assert len(lines) == 2 + len(bench.RINGS)
    assert "MISMATCH" not in "\n".join(lines)
    # one ring of each kind at 64, 512 and 4096 elements
    sizes = [int(line.split(" size ")[1].split()[0]) for line in lines[1:-1]]
    assert sizes == [64, 512, 4096] * 4
    assert [line.split(":")[0] for line in lines[1:-1]] == [
        kind for kind in ("Zmod", "PolyQuot", "Product", "Quotient") for _ in range(3)
    ]
    assert lines[-1].startswith(f"median of 1: {src} best_ms ")
    # a product that differs from the schoolbook makes the run exit 1
    reports = [{"size": 64, "mul_s": 1.0, "add_s": 1.0, "mismatched": 0}] * len(bench.RINGS)
    reports[4] = dict(reports[4], mismatched=3)
    monkeypatch.setattr(bench, "run_once", lambda src: reports)
    assert bench.main(["--runs", "1"]) == 1
    line = capsys.readouterr().out.splitlines()[1 + 4]
    assert line.startswith("PolyQuot:") and line.endswith(" MISMATCH 3 products differ from the schoolbook")
