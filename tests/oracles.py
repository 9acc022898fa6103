"""Independent brute-force oracles used to pin expected test values.

Everything here recomputes properties from their definitions with no
shortcuts, no pruning, and no shared logic with the package internals:
plain nested loops over full tuple spaces and subset lattices.  Slow on
purpose; only run against small rings.
"""

from __future__ import annotations

import itertools
import math


def naive_product(ring, values):
    out = ring.one_value
    for v in values:
        out = ring.mul_values(out, v)
    return out


def naive_units(ring):
    """Invertible elements: every a with some b making ab = 1."""
    values = list(ring.iter_values())
    return frozenset(
        a for a in values if any(ring.mul_values(a, b) == ring.one_value for b in values)
    )


def naive_class_minima(ideal, units=None):
    """Sorted least members of the associate classes {u*v : u a unit} of
    the non-unit elements v outside the ideal, each class read off by
    multiplying v by every unit; `units`, when given, is
    `naive_units(ideal.ring)`, computed once for several ideals."""
    ring = ideal.ring
    if units is None:
        units = naive_units(ring)
    return tuple(sorted({
        min(ring.mul_values(u, v) for u in units)
        for v in ring.iter_values()
        if v not in units and v not in ideal.element_values
    }))


def naive_is_n_absorbing(ideal, n):
    """(holds, witness) by scanning every ordered (n+1)-tuple of R."""
    ring = ideal.ring
    members = ideal.element_values
    for tup in itertools.product(ring.iter_values(), repeat=n + 1):
        if naive_product(ring, tup) not in members:
            continue
        absorbed = False
        for omit in range(n + 1):
            sub = tup[:omit] + tup[omit + 1:]
            if naive_product(ring, sub) in members:
                absorbed = True
                break
        if not absorbed:
            return False, tup
    return True, None


def naive_omega(ideal, cap):
    for n in range(1, cap + 1):
        holds, _ = naive_is_n_absorbing(ideal, n)
        if holds:
            return n
    return None


def naive_class_minimum_scan(ideal, n, candidates):
    """(holds, witness, scanned) over the sorted (n+1)-multisets of the
    candidates, in combinations_with_replacement order, each one
    multiplied out in full; `scanned` is the 1-based rank of the first
    violation, or the number of multisets when there is none."""
    ring = ideal.ring
    members = ideal.element_values
    scanned = 0
    for tup in itertools.combinations_with_replacement(candidates, n + 1):
        scanned += 1
        if naive_product(ring, tup) not in members:
            continue
        if all(
            naive_product(ring, tup[:omit] + tup[omit + 1:]) not in members
            for omit in range(n + 1)
        ):
            return False, tup, scanned
    return True, None, scanned


def naive_sorted_witnesses(ideal, n):
    """All violating sorted multisets, in ascending lexicographic order."""
    ring = ideal.ring
    members = ideal.element_values
    out = []
    values = sorted(ring.iter_values())
    for tup in itertools.combinations_with_replacement(values, n + 1):
        if naive_product(ring, tup) not in members:
            continue
        if all(
            naive_product(ring, tup[:omit] + tup[omit + 1:]) not in members
            for omit in range(n + 1)
        ):
            out.append(tup)
    return out


def is_ideal_set(ring, subset) -> bool:
    subset = frozenset(subset)
    if ring.zero_value not in subset:
        return False
    for a in subset:
        for b in subset:
            if ring.add_values(a, b) not in subset:
                return False
        for r in ring.iter_values():
            if ring.mul_values(r, a) not in subset:
                return False
    return True


def brute_force_ideals(ring):
    """Element sets of all ideals, by filtering the full subset lattice."""
    values = list(ring.iter_values())
    assert len(values) <= 14, "subset lattice too large for the brute oracle"
    out = set()
    others = [v for v in values if v != ring.zero_value]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            subset = frozenset(extra) | {ring.zero_value}
            if is_ideal_set(ring, subset):
                out.add(subset)
    return out


def naive_radical(ideal):
    ring = ideal.ring
    members = set()
    for v in ring.iter_values():
        x = v
        for _ in range(ring.size):
            if x in ideal.element_values:
                members.add(v)
                break
            x = ring.mul_values(x, v)
    return frozenset(members)


def naive_colon(ideal, x):
    ring = ideal.ring
    return frozenset(
        r for r in ring.iter_values() if ring.mul_values(r, x) in ideal.element_values
    )


def naive_additive_closure(ring, items):
    closed = set(items) | {ring.zero_value}
    while True:
        new = {
            ring.add_values(a, b) for a in closed for b in closed
        } - closed
        if not new:
            return frozenset(closed)
        closed |= new


def naive_ideal_product_elements(left, right):
    ring = left.ring
    pairwise = {
        ring.mul_values(a, b)
        for a in left.element_values
        for b in right.element_values
    }
    return naive_additive_closure(ring, pairwise)


def naive_generated_ideal(ring, generators):
    """Element set of the generated ideal, grown to a fixpoint."""
    closed = naive_additive_closure(
        ring, {ring.mul_values(r, g) for g in generators for r in ring.iter_values()}
    )
    while True:
        grown = naive_additive_closure(
            ring, {ring.mul_values(r, a) for a in closed for r in ring.iter_values()}
        )
        if grown == closed:
            return closed
        closed = grown


def naive_is_prime(ideal) -> bool:
    ring = ideal.ring
    if ring.one_value in ideal.element_values:
        return False
    for a in ring.iter_values():
        for b in ring.iter_values():
            if ring.mul_values(a, b) in ideal.element_values:
                if a not in ideal.element_values and b not in ideal.element_values:
                    return False
    return True


def naive_projectively_zero(matrix):
    """(holds, counterexample) by scanning every value vector."""
    ring = matrix.ring
    zero = ring.zero_value
    for vector in itertools.product(ring.iter_values(), repeat=matrix.m):
        image = []
        for row in matrix.rows:
            acc = zero
            for entry, v in zip(row, vector):
                acc = ring.add_values(acc, ring.mul_values(entry, v))
            image.append(acc)
        if zero not in image:
            return False, vector
    return True, None


def naive_zero_diagonal_walk(matrix):
    """The probe walk of `find_zero_diagonal`, each image recomputed in full.

    Every probe is a vector of counts; count k maps to k copies of one
    added to zero, and the image is the full matrix product.  Returns
    ("zero", index, j_sequence), ("no-zero", probe) for a probe whose
    image has no zero coordinate, ("climb", None) when the largest zero
    position climbs, or ("stall", None) after m + 2 probes.
    """
    ring = matrix.ring
    zero = ring.zero_value
    m = matrix.m
    probe = [0] * m
    probe[m - 1] = 1
    j_sequence = []
    for _ in range(m + 2):
        vector = []
        for k in probe:
            v = zero
            for _ in range(k):
                v = ring.add_values(v, ring.one_value)
            vector.append(v)
        image = []
        for row in matrix.rows:
            acc = zero
            for entry, v in zip(row, vector):
                acc = ring.add_values(acc, ring.mul_values(entry, v))
            image.append(acc)
        zeros = [i for i, v in enumerate(image) if v == zero]
        if not zeros:
            return "no-zero", tuple(probe)
        j = max(zeros)
        if j_sequence and j == j_sequence[-1]:
            return "zero", j, tuple(j_sequence + [j])
        if j_sequence and j > j_sequence[-1]:
            return "climb", None
        j_sequence.append(j)
        probe[j] += 1
    return "stall", None


# ---------------------------------------------------------------------------
# closed-form omega (Anderson and Badawi, "On n-absorbing ideals of
# commutative rings", Comm. Algebra 39 (2011)): omega of (P1^e1...Pk^ek)
# in a Dedekind domain is e1 + ... + ek, an ideal J containing I has the
# omega of J/I in R/I, and omega of I1 x I2 is the sum of the omegas of
# its proper factors.


def prime_factor_count(d):
    """Omega(d): the prime factors of d > 0, counted with multiplicity."""
    count, q = 0, 2
    while q * q <= d:
        while d % q == 0:
            d //= q
            count += 1
        q += 1
    return count + (d > 1)


def _poly_divmod(num, den, p):
    """Quotient and remainder of coefficient lists (constant first) over
    F_p by a monic divisor."""
    num = list(num)
    quotient = [0] * max(len(num) - len(den) + 1, 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        if c:
            quotient[shift] = c
            for j, m in enumerate(den):
                num[shift + j] = (num[shift + j] - c * m) % p
    while num and not num[-1]:
        num.pop()
    return quotient, num


def poly_digits(value, p, degree):
    """The `degree` base-p digits of a PolyQuot value, constant first."""
    digits = []
    for _ in range(degree):
        value, digit = divmod(value, p)
        digits.append(digit)
    return digits


def _poly_value(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def naive_poly_product(p, modulus, a, b):
    """Value of the product of the values a and b of (Z/p)[x]/(modulus):
    the schoolbook convolution of their coefficients, then the remainder
    by the monic modulus."""
    degree = len(modulus) - 1
    x, y = poly_digits(a, p, degree), poly_digits(b, p, degree)
    conv = [0] * (2 * degree - 1)
    for i, j in itertools.product(range(degree), repeat=2):
        conv[i + j] = (conv[i + j] + x[i] * y[j]) % p
    return _poly_value(_poly_divmod(conv, modulus, p)[1], p)


def naive_poly_sum(p, degree, a, b):
    """Value of the sum of the values a and b of a PolyQuot ring of the
    given characteristic and degree, coefficient by coefficient."""
    x, y = poly_digits(a, p, degree), poly_digits(b, p, degree)
    return _poly_value([(c + e) % p for c, e in zip(x, y)], p)


def irreducible_factor_count(coeffs, p):
    """Irreducible factors over F_p of a monic polynomial (coefficients
    constant first), counted with multiplicity, by trial division with
    every monic polynomial in order of degree: a divisor found that way
    has no factor of lower degree left, so it is irreducible."""
    g, count, degree = list(coeffs), 0, 1
    while len(g) > 1:
        for low in itertools.product(range(p), repeat=degree):
            trial = list(low) + [1]
            quotient, remainder = _poly_divmod(g, trial, p)
            while not remainder:
                g, count = quotient, count + 1
                quotient, remainder = _poly_divmod(g, trial, p)
            if len(g) <= degree:
                break
        degree += 1
    return count


def closed_form_omega(ring, values):
    """Omega of the proper ideal with element set `values`, from the
    ring's structure only: Omega(d) for the ideal (d), d | n, of Zmod:n;
    the irreducible factors of the monic generator g | f in
    (Z/p)[x]/(f); the sum over the proper components in a product; and
    the omega of the preimage in the base for a quotient."""
    kind = type(ring).__name__
    if kind == "ZModRing":
        return prime_factor_count(math.gcd(ring.n, *values))
    if kind == "PolyQuotRing":
        p = ring.p
        if not any(values):
            return irreducible_factor_count(ring.modulus, p)

        def coefficients(v):
            # a value's base-p digits are its coefficients, constant first
            digits = []
            while v:
                v, digit = divmod(v, p)
                digits.append(digit)
            return digits

        least = min((coefficients(v) for v in values if v), key=len)
        inverse = pow(least[-1], -1, p)
        return irreducible_factor_count([x * inverse % p for x in least], p)
    if kind == "ProductRing":
        total, place = 0, ring.size
        for factor in ring.factors:
            place //= factor.size
            component = {v // place % factor.size for v in values}
            if factor.one_value not in component:
                total += closed_form_omega(factor, component)
        return total
    if kind == "QuotientRing":
        return closed_form_omega(ring.base, ring.preimage_values(values))
    raise ValueError(f"no closed form for {kind}")
