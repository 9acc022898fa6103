"""Shift matrices, the zero-coordinate property, and the diagonal walk."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_ideals import (
    Ideal,
    InvariantViolationError,
    LemmaPreconditionError,
    ResourceLimitError,
    SquareMatrix,
    build_ring,
    build_shift_matrix,
    eval_monomial,
    find_zero_diagonal,
    is_projectively_zero,
    is_upper_triangular,
    monomial_image_ideal,
    parse_ring_spec,
)
from oracles import naive_projectively_zero, naive_zero_diagonal_walk


def _ring(spec):
    return build_ring(parse_ring_spec(spec))


def test_eval_monomial():
    ring = _ring("Zmod:12")
    gens = [2, 3]
    assert eval_monomial(ring, gens, (2, 1)) == 0  # 4*3 = 12
    assert eval_monomial(ring, gens, (1, 1)) == 6
    assert eval_monomial(ring, gens, (0, 0)) == 1
    with pytest.raises(ValueError):
        eval_monomial(ring, gens, (1,))
    with pytest.raises(ValueError):
        eval_monomial(ring, gens, (-1, 0))


# a memoised ring would answer these from some other cell of its table
@pytest.mark.parametrize(
    "spec, value, exponent", [("Product:[Zmod:4,Zmod:6]", -1, 2), ("Zmod:12", 13, 1)]
)
def test_eval_monomial_refuses_a_non_element(spec, value, exponent):
    ring = _ring(spec)
    with pytest.raises(ValueError, match=f"^{value} is not an element of "):
        eval_monomial(ring, [value], [exponent])


def test_monomial_image_ideal_collects_all_permutations():
    ring = _ring("Zmod:16")
    gens = [2, 4, 6]
    image = monomial_image_ideal(ring, gens, (2, 1, 0))
    # values of x^2 y, x^2 z, y^2 x, y^2 z, z^2 x, z^2 y mod 16
    expected = Ideal.from_generators(ring, [8, 24 % 16, 32 % 16, 96 % 16, 72 % 16, 144 % 16])
    assert image == expected


def test_square_matrix_basics():
    ring = _ring("Zmod:6")
    mat = SquareMatrix(ring, [[1, 2], [3, 4]])
    assert mat.m == 2
    assert mat.entry(0, 1) == 2
    assert mat.apply_values([1, 1]) == (3, 1)
    assert mat.rendered_rows() == [["1", "2"], ["3", "4"]]
    with pytest.raises(ValueError):
        SquareMatrix(ring, [[1, 2]])
    with pytest.raises(ValueError):
        SquareMatrix(ring, [])
    with pytest.raises(ValueError):
        mat.apply_values([1])


def test_is_upper_triangular():
    ring = _ring("Zmod:4")
    assert is_upper_triangular(SquareMatrix(ring, [[1, 2], [0, 3]]))
    assert not is_upper_triangular(SquareMatrix(ring, [[1, 0], [2, 3]]))


def test_shift_matrix_structure():
    ring = _ring("Zmod:8")
    mat = build_shift_matrix(ring, [2, 4], (1, 1))
    # variables tie on exponent, so position order breaks the tie
    assert mat.variables == (0, 1)
    assert mat.base_monomial == (1, 1)
    assert mat.entry_monomials == (((1, 1), (0, 2)), ((2, 0), (1, 1)))
    # entries: diag = 2*4 = 0, (0,1) = 4^2 = 0, (1,0) = 2^2 = 4
    assert mat.rows == ((0, 0), (4, 0))


def test_shift_matrix_orders_variables_by_falling_exponent():
    ring = _ring("Zmod:16")
    mat = build_shift_matrix(ring, [2, 2, 2], (1, 0, 3))
    assert mat.variables == (2, 0)
    assert mat.base_monomial == (1, 0, 3)
    # entry (0, 1): shift one factor from variable 2 to variable 0
    assert mat.entry_monomials[0][1] == (2, 0, 2)


def test_shift_matrix_rejects_constants():
    ring = _ring("Zmod:8")
    with pytest.raises(ValueError, match="constant"):
        build_shift_matrix(ring, [2, 4], (0, 0))


def test_shift_matrix_factors_through_degree_lowering():
    # entry (k, j) must equal (monomial with one factor of var k removed) * gen[var j]
    ring = _ring("Zmod:16")
    gens = [2, 4, 6]
    mat = build_shift_matrix(ring, gens, (2, 1, 1))
    for k, vk in enumerate(mat.variables):
        lowered = list(mat.base_monomial)
        lowered[vk] -= 1
        d_k = eval_monomial(ring, gens, lowered)
        for j, vj in enumerate(mat.variables):
            assert mat.entry(k, j) == ring.mul_values(d_k, gens[vj])


matrix_rings = st.sampled_from(["Zmod:2", "Zmod:3", "Zmod:4", "Zmod:6"])


@st.composite
def small_matrices(draw):
    ring = _ring(draw(matrix_rings))
    m = draw(st.integers(min_value=1, max_value=2))
    values = sorted(ring.iter_values())
    rows = [
        [draw(st.sampled_from(values)) for _ in range(m)] for _ in range(m)
    ]
    return SquareMatrix(ring, rows)


@st.composite
def small_triangular_matrices(draw):
    ring = _ring(draw(matrix_rings))
    m = draw(st.integers(min_value=1, max_value=3))
    values = sorted(ring.iter_values())
    rows = [
        [
            draw(st.sampled_from(values)) if j >= i else ring.zero_value
            for j in range(m)
        ]
        for i in range(m)
    ]
    return SquareMatrix(ring, rows)


@settings(max_examples=50)
@given(small_matrices())
def test_projective_zero_matches_oracle(mat):
    result = is_projectively_zero(mat)
    expected, _ = naive_projectively_zero(mat)
    assert result.holds == expected
    assert result.mode == "exhaustive"
    if not result.holds:
        image = mat.apply_values(result.counterexample)
        assert all(v != mat.ring.zero_value for v in image)


def test_projective_zero_identity_counterexample():
    ring = _ring("Zmod:4")
    ident = SquareMatrix(ring, [[1, 0], [0, 1]])
    result = is_projectively_zero(ident)
    assert not result.holds
    assert result.counterexample == (1, 1)


def test_projective_zero_resource_gate():
    ring = _ring("Zmod:6")
    mat = SquareMatrix(ring, [[0, 0], [0, 0]])
    with pytest.raises(ResourceLimitError):
        is_projectively_zero(mat, max_vectors=10)
    with pytest.raises(ValueError, match="seed"):
        is_projectively_zero(mat, max_vectors=10, samples=20)
    sampled = is_projectively_zero(mat, max_vectors=10, samples=20, seed=3)
    assert sampled.mode == "sampled"
    assert sampled.holds
    assert sampled.samples == 20
    assert sampled.seed == 3


def test_projective_zero_rejects_empty_sample_count():
    ring = _ring("Zmod:6")
    mat = SquareMatrix(ring, [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="samples"):
        is_projectively_zero(mat, max_vectors=10, samples=0, seed=3)


@settings(max_examples=60)
@given(small_triangular_matrices())
def test_walk_certifies_zero_diagonal_when_property_holds(mat):
    # the guarantee is for upper triangular matrices with the property;
    # a general matrix may leave the walk inconclusive even when the
    # property holds
    assert is_upper_triangular(mat)
    if not is_projectively_zero(mat).holds:
        return
    result = find_zero_diagonal(mat)
    j = result.index
    assert mat.entry(j, j) == mat.ring.zero_value
    assert len(result.j_sequence) <= mat.m + 1
    assert result.j_sequence[-1] == result.j_sequence[-2] == j


@st.composite
def walk_matrices(draw):
    ring = _ring(f"Zmod:{draw(st.integers(min_value=2, max_value=6))}")
    m = draw(st.integers(min_value=1, max_value=4))
    values = sorted(ring.iter_values())
    rows = [
        [draw(st.sampled_from(values)) for _ in range(m)] for _ in range(m)
    ]
    return SquareMatrix(ring, rows)


@settings(max_examples=300)
@given(walk_matrices())
def test_walk_matches_the_count_vector_reference(mat):
    # any matrix, so every ending of the walk is reached
    expected = naive_zero_diagonal_walk(mat)
    try:
        result = find_zero_diagonal(mat)
    except LemmaPreconditionError as exc:
        assert expected == ("no-zero", exc.vector)
    except InvariantViolationError:
        assert expected[0] in ("climb", "stall")
    else:
        assert expected == ("zero", result.index, result.j_sequence)


def test_walk_known_cases():
    ring = _ring("Zmod:4")
    upper = SquareMatrix(ring, [[0, 1], [0, 0]])
    res = find_zero_diagonal(upper)
    assert res.index == 1
    assert res.j_sequence == (1, 1)

    picks_zero_row = SquareMatrix(ring, [[0, 0], [0, 1]])
    res2 = find_zero_diagonal(picks_zero_row)
    assert res2.index == 0
    assert picks_zero_row.entry(0, 0) == 0

    single = SquareMatrix(ring, [[0]])
    assert find_zero_diagonal(single).index == 0


def test_walk_rejects_probe_without_zero_coordinate():
    ring = _ring("Zmod:4")
    ident = SquareMatrix(ring, [[1, 0], [0, 1]])
    # probe e_1 images to (0, 1), so the walk bumps position 0 and the
    # second probe (1, 1) images to (1, 1) with no zero left
    with pytest.raises(LemmaPreconditionError) as exc:
        find_zero_diagonal(ident)
    assert exc.value.vector == (1, 1)


def test_walk_flags_impossible_climb():
    # engineered so probe e_2 gives largest zero at 0, and the bumped
    # probe gives largest zero at 2 — a climb, impossible under the
    # zero-coordinate property, so the walk must refuse to certify.
    ring = _ring("Zmod:4")
    mat = SquareMatrix(ring, [[1, 0, 0], [0, 0, 1], [2, 0, 2]])
    # M e_2 = (0, 1, 2): j = 0;  M (e_0 + e_2) = (1, 1, 0): j = 2 > 0
    with pytest.raises(InvariantViolationError):
        find_zero_diagonal(mat)


def test_walk_result_verifiable_even_without_global_property():
    # success only certifies the found entry; it may succeed on matrices
    # where some other vector breaks the zero-coordinate property.
    ring = _ring("Zmod:4")
    mat = SquareMatrix(ring, [[1, 1], [1, 0]])
    result = find_zero_diagonal(mat)
    assert mat.entry(result.index, result.index) == ring.zero_value


# ---------------------------------------------------------------------------
# the degree-n products behind every schedule value


_PROGRAM_GENERATORS = {  # one ring of each kind; the second generator is a unit
    "Zmod:16": ["2", "3", "6", "4"],
    "PolyQuot:{p:2,poly:[0,0,0,1]}": ["[0,1,0]", "[1,1,0]", "[0,0,1]", "[1,0,1]"],
    "Product:[Zmod:4,Zmod:3]": ["(2,0)", "(1,2)", "(2,1)", "(3,0)"],
    "Quotient:{ring:Zmod:36,gens:[18]}": ["6", "5", "12", "3"],
}
# the same rings with nilpotent generators whose first n have every
# product of n factors zero, for n = 2, 3, 4
_NILPOTENT_GENERATORS = {
    "Zmod:16": ["4", "12", "8", "2"],
    "PolyQuot:{p:2,poly:[0,0,0,1]}": ["[0,0,1]", "[0,0,1]", "[0,1,0]", "[0,1,1]"],
    "Product:[Zmod:4,Zmod:3]": ["(2,0)", "(0,0)", "(2,0)", "(2,0)"],
    "Quotient:{ring:Zmod:36,gens:[18]}": ["6", "12", "0", "6"],
}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("spec", sorted(_PROGRAM_GENERATORS))
def test_degree_n_products_vanish_exactly_when_every_schedule_value_does(spec, n):
    from absorbing_ideals import induction_schedule
    from absorbing_ideals.machinery import _degree_n_products_vanish

    ring = _ring(spec)
    outcomes = []
    for table in (_PROGRAM_GENERATORS, _NILPOTENT_GENERATORS):
        gens = tuple(ring.parse_value(text) for text in table[spec][:n])
        expected = all(
            eval_monomial(ring, gens, mono) == ring.zero_value
            for _, monomials in induction_schedule(n)
            for mono in monomials
        )
        assert _degree_n_products_vanish(ring, gens) is expected
        outcomes.append(expected)
    # a unit among the generators keeps some schedule monomials nonzero,
    # and nilpotent ones make them all zero, so both answers are checked
    assert outcomes == [False, True]


def test_degree_n_products_vanish_multiplies_each_product_once_and_stops_early():
    from types import SimpleNamespace

    from absorbing_ideals.machinery import _degree_n_products_vanish

    for n in (2, 3, 4):
        modulus, calls = 2**n, []

        def mul(a, b):
            calls.append((a, b))
            return a * b % modulus

        ring = SimpleNamespace(mul_values=mul, zero_value=0)
        # 2 is nilpotent of index n: n factors, so n - 1 multiplications,
        # per product, over C(2n-1, n) products
        assert _degree_n_products_vanish(ring, (2,) * n)
        assert len(calls) == (n - 1) * math.comb(2 * n - 1, n)
        calls.clear()
        # the first product, of the unit 1 alone, is nonzero and ends the check
        assert not _degree_n_products_vanish(ring, (1,) + (2,) * (n - 1))
        assert len(calls) == n - 1


def test_schedule_monomials_are_read_from_the_table(monkeypatch):
    import absorbing_ideals.machinery as machinery

    ring = _ring("Zmod:16")
    trace = machinery.prove_radical_power_zero(ring, [2, 4, 6, 2])
    document = trace.to_json_dict()
    assert {step["rule"] for step in document["steps"]} == {"direct"}

    evaluated = []
    eval_direct = machinery.eval_monomial

    def recording(ring, generator_values, exponents):
        evaluated.append(tuple(exponents))
        return eval_direct(ring, generator_values, exponents)

    monkeypatch.setattr(machinery, "eval_monomial", recording)
    assert machinery.prove_radical_power_zero(ring, [2, 4, 6, 2]) == trace
    assert machinery.verify_trace(document).ok
    # only the final product, by the verifier; the prover's products of n
    # generators include it, so it writes the zero text with no evaluation
    assert evaluated == [(1, 1, 1, 1)]


@pytest.mark.parametrize("spec", sorted(_PROGRAM_GENERATORS))
def test_a_true_exponent_powers_like_1(spec):
    # a trace that records true for an exponent 1 replays through
    # eval_monomial, so true must power exactly like 1 on every ring kind
    ring = _ring(spec)
    for g in ring.iter_values():
        assert ring.pow_value(g, True) == ring.pow_value(g, 1) == g
