"""Exponent-vector combinatorics used by the induction machinery.

A monomial in m variables is an exponent tuple of length m.  Its
multidegree is the exponent multiset written in non-increasing order,
so x^2*y*z and x*y^2*z share the multidegree (2, 1, 1).  The induction
walks multidegrees in descending graded lexicographic order; everything
here is pure combinatorics with no ring dependence.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator


def multidegree(exponents: tuple[int, ...]) -> tuple[int, ...]:
    """Exponent multiset in non-increasing order."""
    return tuple(sorted(exponents, reverse=True))


def grlex_key(exponents: tuple[int, ...]) -> tuple:
    """Sort key for graded lexicographic order (degree first, then lex)."""
    return (sum(exponents), exponents)


def grlex_compare(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Graded lex comparison: higher total degree wins, lex breaks ties."""
    if len(a) != len(b):
        raise ValueError("tuples of different lengths are not comparable")
    ka, kb = grlex_key(a), grlex_key(b)
    if ka == kb:
        return 0
    return 1 if ka > kb else -1


def _partitions(remaining: int, slots: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of `slots` nonnegative ints summing to `remaining`.

    Emitted in descending lexicographic order; `bound` caps the first
    entry.
    """
    if slots == 0:
        if remaining == 0:
            yield ()
        return
    first_max = min(remaining, bound)
    for first in range(first_max, -1, -1):
        if first * slots < remaining:
            break
        for rest in _partitions(remaining - first, slots - 1, first):
            yield (first,) + rest


def induction_multidegrees(n: int) -> list[tuple[int, ...]]:
    """Multidegree schedule for the degree induction at level n.

    All non-increasing n-tuples of nonnegative integers whose total
    degree lies in [n, n^2 - n], listed in descending graded lex order:
    the walk starts at (n^2-n, 0, ..., 0) and ends at (1, ..., 1).
    Defined for n >= 2 only; the n = 1 statement needs no induction.
    """
    if n < 2:
        raise ValueError(f"induction schedule needs n >= 2, got {n}")
    high = n * n - n
    out: list[tuple[int, ...]] = []
    for degree in range(high, n - 1, -1):
        out.extend(_partitions(degree, n, degree))
    return out


def monomials_with_multidegree(profile: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All distinct exponent tuples with the given multidegree, lex-descending."""
    if tuple(sorted(profile, reverse=True)) != tuple(profile):
        raise ValueError("multidegree profile must be non-increasing")
    return sorted(set(itertools.permutations(profile)), reverse=True)


@functools.lru_cache(maxsize=4)
def induction_schedule(n: int) -> tuple:
    """The induction at level n: `(alpha, monomials of alpha)` pairs in
    `induction_multidegrees(n)` order, monomials lex-descending; `()`
    for n < 2, where the statement needs no induction.

    A pure function of n, kept for the few most recent levels: the
    prover and the verifier walk the same immutable schedule, and it
    carries nothing from any ring or trace.  The bound keeps large
    levels (n = 6 has 1,947,330 monomials) from living on.
    """
    if n < 2:
        return ()
    return tuple(
        (alpha, tuple(monomials_with_multidegree(alpha)))
        for alpha in induction_multidegrees(n)
    )


@functools.lru_cache(maxsize=4)
def schedule_exponents(n: int) -> list:
    """The `alpha` column and then the `monomial` column of
    `induction_schedule(n)`, one step per monomial, flattened into one
    list of ints: n entries per step and column.  The verifier compares
    a trace's recorded columns, flattened alike, with it in one pass; a
    flat list of small ints costs 8 bytes an exponent.  Cached like the
    schedule, and for the same reason; the list is shared, so callers
    only read it.
    """
    schedule = induction_schedule(n)
    alphas = [e for alpha, monomials in schedule for _ in monomials for e in alpha]
    return alphas + [e for _, monomials in schedule for mono in monomials for e in mono]


def monomial_text(exponents: tuple[int, ...]) -> str:
    """Readable form like 'x1^2*x2' (exponent 1 suppressed, 0 skipped)."""
    parts = []
    for i, e in enumerate(exponents, 1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"
