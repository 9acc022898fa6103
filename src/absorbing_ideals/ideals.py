"""Ideals of a finite commutative ring, and arithmetic on them.

An ideal is stored as its full element set plus the generators it was
built from; two ideals compare equal when their element sets match,
regardless of how they were generated.  Element sets make containment
tests trivial, and every operation here (radical, product, power,
colon, enumeration) works directly on those sets, which are grown from
principal ideals and sums of ideals (see `rings`).  Radicals, primality
and powers are kept on the ring, so each is derived once per ring.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .errors import ResourceLimitError
from .rings import (
    Ring,
    checked_value,
    generated_ideal_values,
    ideal_sum_values,
    principal_ideal_values,
    values_with_power_in,
)

DEFAULT_MAX_IDEALS = 100_000


class Ideal:
    """An ideal with materialized element set and recorded generators."""

    __slots__ = ("ring", "generator_values", "element_values", "_hash")

    def __init__(self, ring: Ring, generator_values: Iterable, element_values: frozenset):
        self.ring = ring
        self.generator_values = tuple(generator_values)
        self.element_values = element_values
        self._hash = hash((ring, element_values))

    # construction -------------------------------------------------------

    @classmethod
    def from_generators(cls, ring: Ring, generators: Iterable) -> "Ideal":
        """Ideal generated by the given element values."""
        values = list(generators)
        return cls(ring, values, generated_ideal_values(ring, values))

    @classmethod
    def from_elements(cls, ring: Ring, elements: Iterable) -> "Ideal":
        """Ideal whose element set is given; picks small canonical generators.

        Generators are chosen greedily in canonical order, keeping an
        element when it is not yet generated by the ones already kept.
        Raises ValueError if the set is not an ideal or holds a non-element.
        """
        values = frozenset(elements)
        gens: list = []
        have: frozenset = frozenset({ring.zero_value})
        for v in sorted(values):
            if v not in have:
                gens.append(v)
                # generated_ideal_values refuses a non-element before multiplying
                have = ideal_sum_values(ring, have, generated_ideal_values(ring, [v]))
        if have != values:
            raise ValueError("element set is not closed under the ideal operations")
        return cls(ring, gens, values)

    @classmethod
    def zero(cls, ring: Ring) -> "Ideal":
        return cls(ring, (), frozenset({ring.zero_value}))

    @classmethod
    def unit(cls, ring: Ring) -> "Ideal":
        return cls.from_generators(ring, [ring.one_value])

    # predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return len(self.element_values) == 1

    @property
    def is_unit(self) -> bool:
        return self.ring.one_value in self.element_values

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    def __contains__(self, value) -> bool:
        return value in self.element_values

    def __len__(self) -> int:
        return len(self.element_values)

    def __le__(self, other: "Ideal") -> bool:
        return self.element_values <= other.element_values

    def __lt__(self, other: "Ideal") -> bool:
        return self.element_values < other.element_values

    def is_prime(self) -> bool:
        """Proper, and ab in I forces a in I or b in I.

        The answer is kept on the ring, keyed by the element set, so each
        ideal is decided once per ring.
        """
        primes = self.ring._primes
        prime = primes.get(self.element_values)
        if prime is None:
            prime = primes[self.element_values] = self._decide_prime()
        return prime

    def _decide_prime(self) -> bool:
        if self.is_unit:
            return False
        outside = [v for v in self.ring.iter_values() if v not in self.element_values]
        for a, b in itertools.combinations_with_replacement(outside, 2):
            if self.ring.mul_values(a, b) in self.element_values:
                return False
        return True

    # presentation ----------------------------------------------------------

    def text(self) -> str:
        if not self.generator_values:
            return "(0)"
        inner = ",".join(self.ring.render_value(v) for v in self.generator_values)
        return f"({inner})"

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.element_values == other.element_values

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Ideal({self.text()} in {self.ring})"


# ---------------------------------------------------------------------------
# operations


def radical(ideal: Ideal) -> Ideal:
    """Elements with some power in the ideal.

    An ideal is closed under multiplication, so one walk over the powers
    (`values_with_power_in`) classifies every element.  The result is
    kept on the ring, keyed by the ideal's element set, so each ideal's
    radical is walked once per ring.
    """
    ring = ideal.ring
    rad = ring._radicals.get(ideal.element_values)
    if rad is None:
        rad = ring._radicals[ideal.element_values] = Ideal.from_elements(
            ring, values_with_power_in(ring, ideal.element_values)
        )
    return rad


def ideal_product(left: Ideal, right: Ideal) -> Ideal:
    """Ideal generated by all products of one generator from each side,
    passed as generators in canonical order."""
    if left.ring != right.ring:
        raise ValueError("ideals live in different rings")
    ring = left.ring
    if not left.generator_values or not right.generator_values:
        return Ideal.zero(ring)
    products = {
        ring.mul_values(a, b)
        for a in left.generator_values
        for b in right.generator_values
    }
    return Ideal.from_generators(ring, sorted(products))


def ideal_power(ideal: Ideal, k: int) -> Ideal:
    """k-th power of an ideal, for k >= 1: I**k = I**(k-1) * I.

    The powers are kept on the ring in a chain [I, I**2, ...] per
    generator tuple, so a higher level costs one more `ideal_product`
    and a level already reached costs none.  The key is the generators,
    not the element set: a product's generators, and so the text of
    every power, depend on the generators of I, and `ideal_product`
    reads nothing else of I.  The power k = 1 is `ideal` itself.
    """
    if k < 1:
        raise ValueError(f"ideal power needs exponent >= 1, got {k}")
    if k == 1:
        return ideal
    chain = ideal.ring._powers.setdefault(ideal.generator_values, [ideal])
    while len(chain) < k:
        chain.append(ideal_product(chain[-1], ideal))
    return chain[k - 1]


def colon(ideal: Ideal, x) -> Ideal:
    """Colon ideal: all r with r * x in the ideal."""
    ring = ideal.ring
    checked_value(ring, x)
    members = [
        v for v in ring.iter_values() if ring.mul_values(v, x) in ideal.element_values
    ]
    return Ideal.from_elements(ring, members)


def sum_ideal(left: Ideal, right: Ideal) -> Ideal:
    """Smallest ideal containing both."""
    if left.ring != right.ring:
        raise ValueError("ideals live in different rings")
    values = ideal_sum_values(left.ring, left.element_values, right.element_values)
    return Ideal.from_elements(left.ring, values)


def enumerate_ideals(ring: Ring, max_ideals: int = DEFAULT_MAX_IDEALS) -> list[Ideal]:
    """All ideals of the ring, smallest element set first.

    Breadth-first closure: starting from (0), repeatedly extend each
    known ideal I by one new generator v, as I + (v), keeping the first
    (I, v) to reach an ideal as its generators.  Every ideal is finitely
    generated here, so this reaches all of them.  Each (v) is computed
    once per ring, equal ones as one object (`principal_ideal_values`),
    and each frontier ideal adds each distinct (v) once.  Ties in size
    break by the sorted element list, making the order canonical.
    """
    zero = Ideal.zero(ring)
    seen: dict[frozenset, Ideal] = {zero.element_values: zero}
    frontier = [zero]
    values = tuple(ring.iter_values())
    principals = [principal_ideal_values(ring, v) for v in values]
    while frontier:
        next_frontier: list[Ideal] = []
        for ideal in frontier:
            have = ideal.element_values
            added: set = set()
            for v, principal in zip(values, principals):
                if v in have or principal in added:
                    continue
                added.add(principal)
                extended = ideal_sum_values(ring, have, principal)
                if extended not in seen:
                    if len(seen) >= max_ideals:
                        raise ResourceLimitError(
                            f"more than {max_ideals} ideals in {ring}"
                        )
                    seen[extended] = Ideal(ring, ideal.generator_values + (v,), extended)
                    next_frontier.append(seen[extended])
        frontier = next_frontier
    return sorted(
        seen.values(),
        key=lambda ideal: (len(ideal.element_values), sorted(ideal.element_values)),
    )


def proper_ideals(ring: Ring, max_ideals: int = DEFAULT_MAX_IDEALS) -> Iterator[Ideal]:
    for ideal in enumerate_ideals(ring, max_ideals):
        if ideal.is_proper:
            yield ideal
