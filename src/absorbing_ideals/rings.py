"""Finite commutative unital rings with canonical element enumeration.

Four structural kinds are supported: integers mod n, a prime field
polynomial ring modulo a monic polynomial, finite direct products, and
quotients by a finitely generated ideal.  Every ring numbers its
elements 0..|R|-1 in one fixed canonical order, and an element value is
that number: zero is 0, `iter_values()` is `range(size)`, and canonical
order is integer order, which makes all exhaustive searches downstream
deterministic.  The numbering of each kind:

- Zmod: the residue itself;
- PolyQuot: the coefficients c0, c1, ... read as a base-p number, the
  constant coefficient least significant;
- Product: the component values in mixed radix, the leftmost factor
  most significant;
- Quotient: cosets in the order of their least members in the base.

A kind supplies only its arithmetic on values and their text form
(`render_value`, `parse_value`).  PolyQuot computes on packed ints: the
coefficients of a value sit in fixed-width bit fields of one int, so a
product is one big-int product and a short fold (see `PolyQuotRing`).

An ideal's element set is a sum of principal ideals: (g) is the set
R*g itself, computed once per ring, and I + J grows from I one coset
b + I at a time.

Products are memoised per ring.  A PolyQuot, Product or Quotient ring
of at most `MEMO_MAX_SIZE` elements gets its own `mul_values`, which
keeps a flat |R|*|R| list of products filled on first use: the first
product of a and b is computed by the kind's arithmetic and stored at
both (a, b) and (b, a), and every later one is read back.  This gives
the same answers as the kind's arithmetic:

- each cell holds exactly the value that arithmetic returns;
- the transpose holds the same value, as every kind is commutative;
- values reaching `mul_values` are elements, 0..|R|-1, so `a*|R| + b`
  names the pair: `parse_value` and the callers that take values from
  outside check them before any is multiplied, as the `_packed`,
  `_parts` and `_lift` lookups already require;
- the memo belongs to one ring instance and `build_ring` returns a
  fresh ring, so a caller that rebuilds its ring (the trace verifier)
  fills its own memo from its own multiplications.

The table is never filled in advance: most rings built in one run use
a small share of their pairs.  Zmod keeps `(a * b) % n`, which already
costs one C expression, and larger rings keep the kind's arithmetic.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from .errors import ImproperIdealError, ParseError, RingBuildError
from .records import Record

DEFAULT_MAX_RING_SIZE = 4096
# largest ring whose products are memoised (a list of |R|**2 cells)
MEMO_MAX_SIZE = 256


# ---------------------------------------------------------------------------
# descriptors


class ZMod(Record):
    """Integers modulo n, for n >= 2."""

    n: int


class PolyQuot(Record):
    """(Z/p)[x] modulo a monic polynomial of degree >= 1.

    `modulus` lists coefficients from the constant term upward and must
    end with the leading 1.
    """

    p: int
    modulus: tuple[int, ...]


class Product(Record):
    """Direct product of finitely many rings, leftmost factor first."""

    factors: tuple["RingDescriptor", ...]


class Quotient(Record):
    """Quotient of `base` by the ideal generated by `generators`.

    Generators are element values of the base ring.
    """

    base: "RingDescriptor"
    generators: tuple


RingDescriptor = ZMod | PolyQuot | Product | Quotient


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, math.isqrt(p) + 1):
        if p % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# ring base class


class Ring:
    """Common interface; subclasses implement value-level arithmetic.

    Element values are the ints 0..size-1 in canonical order, with zero
    at 0.  Each kind sets its descriptor, then passes its size and the
    value of its identity to `__init__`, and supplies the arithmetic and
    the text form.  A ring hashes as its descriptor, computed once.

    `__init__` also sets up the ring's memos, all empty: its units and
    unit generators, and what is derived once per ring from its ideals
    (primes, scans, quotients, radicals, principal ideals and ideal
    powers).  Each belongs to this ring instance, and `build_ring`
    returns a fresh ring, so a caller that rebuilds its ring (the trace
    verifier) derives all of them again itself.
    """

    descriptor: RingDescriptor
    zero_value = 0
    # whether a ring of at most MEMO_MAX_SIZE elements memoises mul_values
    memoise_products = True

    def __init__(self, size: int, one_value: int):
        self.size = size
        self.one_value = one_value
        self._hash = hash(self.descriptor)
        if self.memoise_products and size <= MEMO_MAX_SIZE:
            self.mul_values = _memoised_mul(self.mul_values, size)
        self._units: frozenset | None = None
        self._unit_generators: tuple | None = None
        # Ideal.is_prime's memo: ideal element set -> bool
        self._primes: dict = {}
        # the absorbing scan's memo, filled in there: ideal element set ->
        # (scan candidates, {n: exhaustive report})
        self._scans: dict = {}
        # quotient_ring's memo: ideal element set -> R/I
        self._quotients: dict = {}
        # ideals.radical's memo: ideal element set -> radical Ideal
        self._radicals: dict = {}
        # principal_ideal_values' memo: element g -> the element set of (g),
        # and each distinct such set -> itself, so equal sets are one object
        self._principals: dict = {}
        self._principal_sets: dict = {}
        # ideals.ideal_power's memo: ideal generators -> [I, I**2, ...]
        self._powers: dict = {}

    # value-level ops -------------------------------------------------

    def add_values(self, a, b):
        raise NotImplementedError

    def mul_values(self, a, b):
        raise NotImplementedError

    def pow_value(self, a, k: int):
        # repeated squaring; k = 0 gives the identity
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        result = self.one_value
        base = a
        while k:
            if k & 1:
                result = self.mul_values(result, base)
            base = self.mul_values(base, base)
            k >>= 1
        return result

    def iter_values(self) -> range:
        return range(self.size)

    def contains_value(self, value) -> bool:
        return type(value) is int and 0 <= value < self.size

    def render_value(self, value) -> str:
        raise NotImplementedError

    def parse_value(self, text: str):
        raise NotImplementedError

    # derived helpers ---------------------------------------------------

    def unit_values(self) -> frozenset:
        """Set of invertible element values (computed once, cached).

        One power walk (`_power_walk`) finds the units and the unit
        generators.  Each value a not yet classified follows a, a**2, ...
        until it meets a known unit, a known non-unit or its own path.
        The known units are the subgroup H of the units kept so far, from
        {1}.  A power of a non-unit is a non-unit, so meeting H proves a
        a unit; a unit's powers reach 1 before they repeat, so any other
        stop makes a and its path non-units.  A unit a so met is not in
        H: it is kept, and H grows to <H, a> (`grow_orbit`; for the
        first generator, its path a, ..., a**(k-1) is that orbit less 1
        already, in grow_orbit's order, and is kept as found).  Non-units
        never change H, so the units kept are those outside the subgroup
        of the units before them, as a walk over the units alone keeps.
        """
        if self._units is None:
            status = bytearray(self.size)
            status[self.one_value] = INSIDE
            subgroup, generators = [self.one_value], []
            _power_walk(self, status, subgroup, generators)
            self._units = frozenset(subgroup)
            self._unit_generators = tuple(generators)
        return self._units

    def unit_generators(self) -> tuple:
        """Units generating the unit group, each the least unit outside
        the subgroup of those before it (found by `unit_values`)."""
        self.unit_values()
        return self._unit_generators

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Ring):
            return NotImplemented
        return self.descriptor == other.descriptor

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor!r})"


def _memoised_mul(kind_mul, size: int):
    """`kind_mul` behind a flat size*size memo, filled on first use.

    Both operands must be elements 0..size-1, which is not checked here:
    another int reads whichever cell it indexes, or raises IndexError.
    """
    cells: list = [None] * (size * size)

    def mul_values(a, b):
        product = cells[a * size + b]
        if product is None:
            product = cells[a * size + b] = cells[b * size + a] = kind_mul(a, b)
        return product

    return mul_values


# ---------------------------------------------------------------------------
# element text helpers


def split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside (), [] or {}."""
    chunks: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced delimiter in {text!r}")
        if ch == "," and depth == 0:
            chunks.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced delimiter in {text!r}")
    tail = "".join(current).strip()
    if tail or chunks:
        chunks.append(tail)
    return chunks


def _parse_int(text: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}") from None


# ---------------------------------------------------------------------------
# concrete rings


class ZModRing(Ring):
    """Residues 0..n-1 with arithmetic mod n; a value is its residue."""

    # (a * b) % n is already one C expression: a memo would only add a call
    memoise_products = False

    def __init__(self, n: int):
        self.n = n
        self.descriptor = ZMod(n)
        super().__init__(n, 1)

    def add_values(self, a, b):
        return (a + b) % self.n

    def mul_values(self, a, b):
        return (a * b) % self.n

    def render_value(self, value):
        return str(value)

    def parse_value(self, text):
        v = _parse_int(text)
        if not 0 <= v < self.n:
            raise ParseError(f"residue {v} outside [0, {self.n})")
        return v


def packed_field_width(p: int, degree: int) -> int:
    """Bits per coefficient field of a packed PolyQuot element: the
    least s with 2*d*(p-1)**2 < 2**s (see `PolyQuotRing`)."""
    return (2 * degree * (p - 1) ** 2).bit_length()


class PolyQuotRing(Ring):
    """(Z/p)[x] mod a monic modulus f of degree d, on packed ints.

    The value of c0 + c1*x + ... + c(d-1)*x^(d-1) is the base-p number
    with digits c0 (least significant) up to c(d-1).  `_packed[v]` holds
    the same digits in fields of s = `packed_field_width(p, d)` bits,
    c_i at bit i*s: the polynomial evaluated at x = 2**s (Kronecker
    substitution).  Then:

    - a product is one int product of two packed values.  Its field k
      is the convolution coefficient sum(a_i * b_j, i + j = k), a sum
      of at most d terms, so at most d*(p-1)**2.  The d-1 fields of
      degree d+k are folded back, each taken mod p times `x^(d+k) mod f`
      packed, which is the reduction by the monic f; that adds at most
      (d-1)*(p-1)**2 to a field.  Every field stays at most
      (2d-1)*(p-1)**2 < 2*d*(p-1)**2 < 2**s, so no carry crosses into
      the next field, and each field taken mod p is exactly the
      schoolbook coefficient;
    - a sum is one int sum, with fields below 2*(p-1) < 2**s;
    - `_unpack` reads the fields, each mod p, back as base-p digits.
    """

    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.p = p
        self.modulus = tuple(modulus)
        d = self.degree = len(self.modulus) - 1
        self.descriptor = PolyQuot(p, self.modulus)
        s = packed_field_width(p, d)
        self._mask = (1 << s) - 1
        # the fields of degree d and up start at bit d*s
        self._split = d * s
        self._low = (1 << self._split) - 1
        # field offsets from the top field (degree d-1) down to the constant
        self._shifts = tuple(range((d - 1) * s, -1, -s))
        # v's last digit is its constant coefficient, the rest is v // p
        packed = [0]
        for v in range(1, p**d):
            packed.append(v % p + (packed[v // p] << s))
        self._packed = packed
        # (offset in the high part, packed x^(d+k) mod f) for each k < d-1
        # whose reduction is not zero; x^(d+k) = x * x^(d+k-1), and the
        # monic f turns the x^d so made into -(f - x^d)
        folds = []
        power = [0] * (d - 1) + [1]  # x^(d-1)
        for k in range(d - 1):
            top = power[-1]
            power = [(c - top * m) % p for c, m in zip([0] + power[:-1], self.modulus)]
            fold = sum(c << (i * s) for i, c in enumerate(power))
            if fold:
                folds.append((k * s, fold))
        self._folds = tuple(folds)
        super().__init__(len(packed), 1)

    def _unpack(self, t: int) -> int:
        """Value of a packed int whose fields are all below 2**s."""
        p, mask = self.p, self._mask
        v = 0
        for shift in self._shifts:
            v = v * p + (t >> shift & mask) % p
        return v

    def add_values(self, a, b):
        packed = self._packed
        return self._unpack(packed[a] + packed[b])

    def mul_values(self, a, b):
        packed = self._packed
        t = packed[a] * packed[b]
        p, mask = self.p, self._mask
        high = t >> self._split
        t &= self._low
        for shift, fold in self._folds:
            t += (high >> shift & mask) % p * fold
        # `_unpack(t)`, inlined: a call costs about a tenth of a product
        v = 0
        for shift in self._shifts:
            v = v * p + (t >> shift & mask) % p
        return v

    def render_value(self, value):
        t, mask = self._packed[value], self._mask
        return "[" + ",".join(str(t >> shift & mask) for shift in self._shifts[::-1]) + "]"

    def parse_value(self, text):
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ParseError(f"polynomial element must look like [c0,c1,...], got {text!r}")
        inner = text[1:-1].strip()
        coeffs = [_parse_int(c) for c in split_top_level(inner)] if inner else []
        if len(coeffs) > self.degree:
            raise ParseError(
                f"coefficient list longer than modulus degree {self.degree}"
            )
        for c in coeffs:
            if not 0 <= c < self.p:
                raise ParseError(f"coefficient {c} outside [0, {self.p})")
        value = 0
        for c in reversed(coeffs):
            value = value * self.p + c
        return value


class ProductRing(Ring):
    """Componentwise arithmetic, leftmost factor first.

    A value is its component values in mixed radix with the leftmost
    factor most significant, so integer order is the lexicographic order
    of the components.  `_parts` lists the components of every value and
    `_weights` holds the place value of each factor.
    """

    def __init__(self, factors: Sequence[Ring]):
        self.factors = tuple(factors)
        self.descriptor = Product(tuple(f.descriptor for f in self.factors))
        self._parts = list(itertools.product(*(f.iter_values() for f in self.factors)))
        self._weights = tuple(
            math.prod(f.size for f in self.factors[i + 1:]) for i in range(len(self.factors))
        )
        super().__init__(len(self._parts), self._encode(f.one_value for f in self.factors))

    def _encode(self, components) -> int:
        return sum(x * w for x, w in zip(components, self._weights))

    def add_values(self, a, b):
        parts = self._parts
        out = 0
        for f, w, x, y in zip(self.factors, self._weights, parts[a], parts[b]):
            out += f.add_values(x, y) * w
        return out

    def mul_values(self, a, b):
        parts = self._parts
        out = 0
        for f, w, x, y in zip(self.factors, self._weights, parts[a], parts[b]):
            out += f.mul_values(x, y) * w
        return out

    def render_value(self, value):
        return "(" + ",".join(
            f.render_value(x) for f, x in zip(self.factors, self._parts[value])
        ) + ")"

    def parse_value(self, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ParseError(f"product element must look like (a,b,...), got {text!r}")
        chunks = split_top_level(text[1:-1])
        if len(chunks) != len(self.factors):
            raise ParseError(
                f"expected {len(self.factors)} components, got {len(chunks)}"
            )
        return self._encode(f.parse_value(c) for f, c in zip(self.factors, chunks))


class QuotientRing(Ring):
    """Cosets of an ideal, numbered in the order of their least members.

    `_lift` lists the least member (a base value) of each coset and
    `_proj` maps each base value to its coset; arithmetic lifts the
    operands, computes in the base ring and projects back.
    """

    def __init__(self, base: Ring, ideal_values: Iterable):
        ideal_values = frozenset(ideal_values)
        for v in ideal_values:
            if not base.contains_value(v):
                raise ValueError(f"{v!r} is not an element of the base ring")
        if base.zero_value not in ideal_values:
            raise ValueError("ideal element set must contain zero")
        if base.one_value in ideal_values:
            raise ImproperIdealError(
                "quotient by the unit ideal would be the zero ring"
            )
        self.base = base
        self.ideal_values = ideal_values
        proj: list = [None] * base.size
        lift: list = []
        for v in base.iter_values():
            # first visit in ascending order is the coset's least member
            if proj[v] is None:
                for i in ideal_values:
                    proj[base.add_values(v, i)] = len(lift)
                lift.append(v)
        self._proj = proj
        self._lift = lift
        self.descriptor = Quotient(base.descriptor, tuple(sorted(ideal_values)))
        super().__init__(len(lift), proj[base.one_value])

    # surjection and preimage -------------------------------------------

    def project_value(self, base_value):
        return self._proj[base_value]

    def preimage_values(self, quotient_values: Iterable) -> frozenset:
        target = set(quotient_values)
        proj = self._proj
        return frozenset(v for v in self.base.iter_values() if proj[v] in target)

    # ring interface -----------------------------------------------------

    def add_values(self, a, b):
        lift = self._lift
        return self._proj[self.base.add_values(lift[a], lift[b])]

    def mul_values(self, a, b):
        lift = self._lift
        return self._proj[self.base.mul_values(lift[a], lift[b])]

    def render_value(self, value):
        return self.base.render_value(self._lift[value])

    def parse_value(self, text):
        return self._proj[self.base.parse_value(text)]


# ---------------------------------------------------------------------------
# power walk and ideal closure at value level (shared with ideals)


# a value's state in a power walk; grow_orbit marks INSIDE
UNKNOWN, INSIDE, OUTSIDE, ON_WALK = range(4)


def values_with_power_in(ring: Ring, targets: Iterable) -> frozenset:
    """Values a with some power a**k (k >= 1) in `targets`.

    `targets` (T) must be closed under multiplication.  Then a is in
    the result S exactly when a**k is, for any k >= 1: a power of a**k
    is a power of a, and a**j in T puts (a**k)**j = (a**j)**k in T.
    So the walk a, a**2, ... (`_power_walk`) stops at the first element
    already classified, and that element decides a and every power met
    on the way.  T is classified in S before any walk starts, so a walk
    that closes on itself has met no element of T, and none of its
    values is in S.  Each multiplication either classifies a new
    element or ends a walk, so at most 2|R| of them are needed.
    """
    inside = list(targets)
    status = bytearray(ring.size)
    for t in inside:
        status[t] = INSIDE
    _power_walk(ring, status, inside, None)
    return frozenset(inside)


def _power_walk(ring: Ring, status: bytearray, inside: list, generators) -> None:
    """Walk a, a**2, ... from each UNKNOWN value a in canonical order,
    marking the path ON_WALK, to the first value not UNKNOWN.  A stop
    off INSIDE marks the path OUTSIDE.  A stop INSIDE marks it INSIDE
    and appends it to `inside`, or, given a `generators` list, keeps a
    and grows the subgroup `inside` by a.  While that subgroup is {1},
    the path a, ..., a**(k-1) is all of <a> but 1, so it is kept as it
    is; later, the path is reset and `grow_orbit` grows the subgroup.
    """
    mul = ring.mul_values
    for a in ring.iter_values():
        if status[a]:
            continue
        path = []
        x = a
        while not status[x]:
            status[x] = ON_WALK
            path.append(x)
            x = mul(x, a)
        if status[x] != INSIDE:
            for y in path:
                status[y] = OUTSIDE
            continue
        if generators is not None:
            generators.append(a)
            if len(inside) > 1:
                for y in path:
                    status[y] = UNKNOWN
                grow_orbit(mul, inside, a, status)
                continue
            # H = {1}, so a**k = 1 ends the path: it is <a> less 1, in
            # the order grow_orbit would append it
        for y in path:
            status[y] = INSIDE
        inside.extend(path)


def grow_orbit(mul, orbit: list, g, marks: bytearray) -> None:
    """Extend `orbit`, an orbit O of a subgroup K of the units, to its
    orbit under <K, g>, marking each new element in `marks`, which must
    be nonzero on O and zero on the rest of the new orbit.

    The blocks O*g, O*g**2, ... are orbits of K, as units commute, so
    any two are equal or disjoint, and the first block to repeat an
    earlier one is O itself (O*g**k = O*g**j gives O*g**(k-j) = O).
    The walk multiplies the elements of `orbit` by g in turn, appending
    and marking each product, so each block is the one before times g.
    A new block meets neither O nor an earlier block, so the first
    marked product is the head of the block that is O again, and the
    walk stops there: one multiplication per new element, and one more.
    """
    for y in orbit:
        x = mul(y, g)
        if marks[x]:
            break
        marks[x] = INSIDE
        orbit.append(x)


def principal_ideal_values(ring: Ring, g) -> frozenset:
    """Element set of the principal ideal (g) of an element g: R*g is
    already an ideal, as rg + sg = (r+s)g and s(rg) = (sr)g.

    It is kept on the ring, keyed by g, so each (g) costs |R|
    multiplications once per ring, and equal sets are one object, so a
    later comparison of two of them stops at identity.  `g` must be an
    element (see `checked_value`): the key `True` would read (1).
    """
    principal = ring._principals.get(g)
    if principal is None:
        mul = ring.mul_values
        principal = frozenset([mul(r, g) for r in ring.iter_values()])
        principal = ring._principal_sets.setdefault(principal, principal)
        ring._principals[g] = principal
    return principal


def ideal_sum_values(ring: Ring, left: frozenset, right: frozenset) -> frozenset:
    """Element set of I + J, for the element sets of ideals I and J.

    It grows from I one coset b + I at a time, for each b in J not yet
    reached.  It is always a union of cosets of I, so a b already reached
    has its whole coset in, and the sum takes |I + J| - |I| additions.
    """
    if right <= left:
        return left
    if left <= right:
        return right
    add = ring.add_values
    out = set(left)
    for b in right:
        if b not in out:
            out.update([add(a, b) for a in left])
    return frozenset(out)


def checked_value(ring: Ring, value):
    """`value`, once it is an element of `ring`; a memoised ring's
    arithmetic would answer a non-element from some other cell."""
    if not ring.contains_value(value):
        raise ValueError(f"{value!r} is not an element of {ring}")
    return value


def generated_ideal_values(ring: Ring, generator_values: Iterable) -> frozenset:
    """Element set of the ideal generated by the given values.

    The sum of the generators' principal ideals, skipping a generator
    already in it.  Every value is checked before any is multiplied.
    """
    gens = [checked_value(ring, g) for g in generator_values]
    out = frozenset({ring.zero_value})
    for g in gens:
        if g not in out:
            out = ideal_sum_values(ring, out, principal_ideal_values(ring, g))
    return out


# ---------------------------------------------------------------------------
# construction


def validate_descriptor(desc: RingDescriptor, max_size: int = DEFAULT_MAX_RING_SIZE) -> int:
    """Element count of a descriptor; raise RingBuildError naming the
    first violated constraint, children before their parent.

    A quotient counts as its base: its exact size needs the ideal, and
    the base size is an upper bound.
    """
    if isinstance(desc, ZMod):
        if desc.n < 2:
            raise RingBuildError(f"modulus must be at least 2, got {desc.n}")
        size = desc.n
    elif isinstance(desc, PolyQuot):
        # a characteristic over the cap is refused below in any case
        if desc.p <= max_size and not _is_prime(desc.p):
            raise RingBuildError(f"characteristic must be prime, got {desc.p}")
        if len(desc.modulus) < 2:
            raise RingBuildError("modulus must have degree at least 1")
        if desc.modulus[-1] != 1:
            raise RingBuildError(
                f"modulus must be monic, leading coefficient is {desc.modulus[-1]}"
            )
        for c in desc.modulus:
            if not isinstance(c, int) or not 0 <= c < desc.p:
                raise RingBuildError(
                    f"modulus coefficient {c!r} outside [0, {desc.p})"
                )
        size = desc.p ** (len(desc.modulus) - 1)
    elif isinstance(desc, Product):
        if not desc.factors:
            raise RingBuildError("product needs at least one factor")
        size = math.prod(validate_descriptor(f, max_size) for f in desc.factors)
    elif isinstance(desc, Quotient):
        size = validate_descriptor(desc.base, max_size)
    else:
        raise RingBuildError(f"not a ring descriptor: {desc!r}")
    if size > max_size:
        raise RingBuildError(f"ring size {size} exceeds the cap {max_size}")
    return size


def build_ring(desc: RingDescriptor, max_size: int = DEFAULT_MAX_RING_SIZE) -> Ring:
    """Materialize a descriptor, enforcing the element count cap.

    Every call builds a fresh ring, so a caller that must redo work (the
    trace verifier, for one) never inherits another caller's unit table,
    absorbing scans, principal ideals, ideal powers or any other memo.
    """
    validate_descriptor(desc, max_size)
    return _build_valid(desc, {})


def _build_valid(desc: RingDescriptor, built: dict) -> Ring:
    """Ring of a validated descriptor; `built` maps the id of each
    descriptor already built in this call or parse to its ring."""
    ring = built.get(id(desc))
    if ring is None:
        if isinstance(desc, ZMod):
            ring = ZModRing(desc.n)
        elif isinstance(desc, PolyQuot):
            ring = PolyQuotRing(desc.p, desc.modulus)
        elif isinstance(desc, Product):
            ring = ProductRing([_build_valid(f, built) for f in desc.factors])
        else:
            base = _build_valid(desc.base, built)
            ring = QuotientRing(base, generated_ideal_values(base, desc.generators))
        built[id(desc)] = ring
    return ring


def quotient_ring(ring: Ring, ideal) -> QuotientRing:
    """Quotient of `ring` by an Ideal.

    The result carries the canonical surjection (`project_value`) and
    preimage (`preimage_values`) maps.  It is built once per ideal element set
    and kept on `ring`, so repeated calls return the same quotient with
    its unit table and absorbing scans.  `build_ring` never calls this,
    so a freshly built ring starts with no quotients.
    """
    values = ideal.element_values
    quotient = ring._quotients.get(values)
    if quotient is None:
        quotient = ring._quotients[values] = QuotientRing(ring, values)
    return quotient
