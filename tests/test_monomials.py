"""Exponent combinatorics: multidegrees, orders, induction schedule."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from absorbing_ideals import (
    grlex_compare,
    grlex_key,
    induction_multidegrees,
    induction_schedule,
    monomial_text,
    monomials_with_multidegree,
    multidegree,
)
from absorbing_ideals.monomials import schedule_exponents

exponent_tuples = st.lists(
    st.integers(min_value=0, max_value=6), min_size=1, max_size=5
).map(tuple)


def test_multidegree_sorts_downward():
    assert multidegree((2, 4, 2)) == (4, 2, 2)
    assert multidegree((0, 1, 0)) == (1, 0, 0)
    assert multidegree(()) == ()


@given(exponent_tuples)
def test_multidegree_is_permutation_invariant(exps):
    md = multidegree(exps)
    assert sorted(md, reverse=True) == list(md)
    assert sorted(md) == sorted(exps)


def test_lex_and_grlex_examples():
    # grlex ranks by total degree first
    assert grlex_compare((3, 0), (1, 1)) == 1
    assert grlex_compare((0, 1), (2, 0)) == -1
    assert grlex_compare((2, 0), (1, 1)) == 1


@given(exponent_tuples, exponent_tuples)
def test_grlex_is_consistent_with_its_key(a, b):
    if len(a) != len(b):
        with pytest.raises(ValueError):
            grlex_compare(a, b)
        return
    cmp = grlex_compare(a, b)
    assert cmp == (grlex_key(a) > grlex_key(b)) - (grlex_key(a) < grlex_key(b))
    assert grlex_compare(b, a) == -cmp


def test_induction_schedule_small():
    assert induction_multidegrees(2) == [(2, 0), (1, 1)]
    expected_3 = [
        (6, 0, 0), (5, 1, 0), (4, 2, 0), (4, 1, 1), (3, 3, 0), (3, 2, 1), (2, 2, 2),
        (5, 0, 0), (4, 1, 0), (3, 2, 0), (3, 1, 1), (2, 2, 1),
        (4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1),
        (3, 0, 0), (2, 1, 0), (1, 1, 1),
    ]
    assert induction_multidegrees(3) == expected_3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_induction_schedule_properties(n):
    schedule = induction_multidegrees(n)
    assert schedule[0] == (n * n - n,) + (0,) * (n - 1)
    assert schedule[-1] == (1,) * n
    assert len(schedule) == len(set(schedule))
    for alpha in schedule:
        assert len(alpha) == n
        assert list(alpha) == sorted(alpha, reverse=True)
        assert n <= sum(alpha) <= n * n - n
    for left, right in itertools.pairwise(schedule):
        assert grlex_compare(left, right) == 1
    # completeness: every sorted profile in the range is present
    space = itertools.product(range(n * n - n + 1), repeat=n)
    wanted = {
        exps
        for exps in space
        if list(exps) == sorted(exps, reverse=True)
        and n <= sum(exps) <= n * n - n
    }
    assert set(schedule) == wanted


def test_induction_schedule_rejects_n_below_2():
    with pytest.raises(ValueError):
        induction_multidegrees(1)
    with pytest.raises(ValueError):
        induction_multidegrees(0)


def test_monomials_with_multidegree():
    assert monomials_with_multidegree((3, 0, 0)) == [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    assert monomials_with_multidegree((1, 1, 1)) == [(1, 1, 1)]
    two_one = monomials_with_multidegree((2, 1, 0))
    assert len(two_one) == 6
    assert two_one == sorted(two_one, reverse=True)
    assert set(two_one) == set(itertools.permutations((2, 1, 0)))
    with pytest.raises(ValueError, match="non-increasing"):
        monomials_with_multidegree((1, 2))


@given(exponent_tuples)
def test_every_monomial_appears_under_its_multidegree(exps):
    assert tuple(exps) in monomials_with_multidegree(multidegree(exps))


def test_monomial_text():
    assert monomial_text((2, 1, 0)) == "x1^2*x2"
    assert monomial_text((0, 0)) == "1"


def test_induction_schedule_pairs_each_multidegree_with_its_monomials():
    assert induction_schedule(0) == induction_schedule(1) == ()
    for n in range(2, 5):
        schedule = induction_schedule(n)
        assert [alpha for alpha, _ in schedule] == induction_multidegrees(n)
        for alpha, monomials in schedule:
            assert monomials == tuple(monomials_with_multidegree(alpha))
        assert induction_schedule(n) is schedule
    # kept for a few levels only, so a large level does not live on
    assert induction_schedule.cache_info().maxsize == 4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_schedule_monomials_are_degree_n_products_times_more(n):
    # every schedule monomial has degree at least n, and the lowest
    # degree lists each of the C(2n-1, n) monomials of degree n once
    monomials = [mono for _, group in induction_schedule(n) for mono in group]
    assert min(sum(mono) for mono in monomials) == n
    degree_n = [mono for mono in monomials if sum(mono) == n]
    assert len(degree_n) == len(set(degree_n)) == math.comb(2 * n - 1, n)
    assert set(degree_n) == {
        mono for mono in itertools.product(range(n + 1), repeat=n) if sum(mono) == n
    }
    assert monomials[-len(degree_n):] == degree_n


def test_schedule_exponents_flatten_the_alpha_then_the_monomial_column():
    assert schedule_exponents(1) == []
    for n in (2, 3, 4):
        steps = [(alpha, mono) for alpha, monomials in induction_schedule(n) for mono in monomials]
        flat = schedule_exponents(n)
        assert len(flat) == 2 * n * len(steps)
        half = len(flat) // 2
        for k, (alpha, mono) in enumerate(steps):
            assert tuple(flat[k * n:(k + 1) * n]) == alpha
            assert tuple(flat[half + k * n:half + (k + 1) * n]) == mono
        assert {type(e) for e in flat} == {int}
        assert schedule_exponents(n) is flat
    assert schedule_exponents.cache_info().maxsize == 4
