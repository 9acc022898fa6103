"""Decision procedures for the n-absorbing property and its consequences.

An ideal I is n-absorbing when every product of n+1 elements that lands
in I already has n of its factors multiplying into I.  The scan here is
exhaustive but works over sorted factor multisets rather than ordered
tuples: the property is permutation-invariant, and a violating tuple
can contain neither a unit (divide it off and the remaining n factors
land in I) nor an element of I (any n factors including it land in I),
so only sorted tuples of non-unit, non-ideal elements need checking.
The first violation found in that order is the lexicographically least
sorted witness, which keeps reports deterministic.

The scan goes further and keeps one candidate per associate class
{u*v : u a unit}, its least member in canonical order.  Multiplying a
factor by a unit multiplies the full product and every drop-one
product by that unit, and membership in I does not change under that.
So replacing each factor of a violating sorted tuple by its class
minimum leaves a violating tuple; sorted again, it is componentwise at
most the original, hence lexicographically at most the original.  The
least sorted witness is therefore made of class minima, and the
lexicographic scan over class minima reaches it first.  The classes
are marked as orbits of a generating set of the unit group
(`_scan_candidates`), which gives the same classes as multiplying by
every unit, so the minima are the same.  The ring's units walk
(`Ring.unit_values`) keeps the same generators as a walk over the
units alone, so the reports are the same too.  The budget counts the
multisets that scan visits or skips, C(c+n, n+1) over the c class
minima, and `tuples_scanned` reports how many it visited or skipped.
A multiset whose first k <= n factors already multiply into I cannot
violate, since its drop-last product contains them; the scan skips each
such block in one step (see `_scan_multisets`).
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional

from .errors import (
    HypothesisNotSatisfiedError,
    ImproperIdealError,
    ResourceLimitError,
)
from .ideals import Ideal, colon, ideal_power, radical
from .records import Record
from .rings import Ring, grow_orbit, quotient_ring

DEFAULT_MAX_TUPLES = 10**8
DEFAULT_OMEGA_CAP = 4


# ---------------------------------------------------------------------------
# witnesses and reports


class AbsorbingWitness(Record):
    """n+1 factors whose product lies in the ideal while no n of them do."""

    elements: tuple
    n: int

    def check(self, ideal: Ideal) -> bool:
        """Recompute the violation directly against the ideal."""
        if len(self.elements) != self.n + 1:
            return False
        return _violates(ideal.ring, ideal.element_values, self.elements)

    def as_dict(self, ring: Ring) -> dict:
        return {
            "elements": [ring.render_value(v) for v in self.elements],
            "n": self.n,
        }


class AbsorbingReport(Record):
    """Outcome of one n-absorbing scan."""

    n: int
    holds: bool
    mode: str  # "exhaustive" or "sampled"
    witness: Optional[AbsorbingWitness]
    tuples_scanned: int

    def __bool__(self) -> bool:
        return self.holds

    def as_dict(self, ring: Ring) -> dict:
        return {
            "n": self.n,
            "holds": self.holds,
            "mode": self.mode,
            "tuples_scanned": self.tuples_scanned,
            "witness": self.witness.as_dict(ring) if self.witness else None,
        }


def _violates(ring: Ring, ideal_values: frozenset, factors: tuple) -> bool:
    """Product of all factors lies in the ideal, no drop-one product does."""
    mul = ring.mul_values
    m = len(factors)
    prefixes = [ring.one_value] * (m + 1)
    for i in range(m):
        prefixes[i + 1] = mul(prefixes[i], factors[i])
    if prefixes[m] not in ideal_values:
        return False
    suffixes = [ring.one_value] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffixes[i] = mul(factors[i], suffixes[i + 1])
    dropped: set = set()
    for i in range(m):
        v = factors[i]
        if v in dropped:
            continue
        dropped.add(v)
        if mul(prefixes[i], suffixes[i + 1]) in ideal_values:
            return False
    return True


# ---------------------------------------------------------------------------
# the scan


def _scan_candidates(ideal: Ideal) -> tuple:
    """Least member of each associate class among the non-unit elements
    outside the ideal, in canonical order.

    The associates of a candidate are candidates too: u*v in I would
    put v = u^-1 * (u*v) in I.  One array marks the units, the members
    of I and each class found.  The least unmarked value v is the least
    of its class v*U, which is marked as the orbit of v under the unit
    generators (`Ring.unit_generators`): {v} grows by one generator at
    a time, in blocks (`grow_orbit`).  The orbit holds no unit, no
    member of I and no earlier class, so only its own elements are
    marked.  In a finite group each g^-1 is a power of g, so the
    closure of {v} under the generators is all of v*U, the set that
    multiplying v by every unit marks.  The classes, and so the minima,
    are the same, for about one multiplication per marked element
    instead of |U| per class.
    """
    ring = ideal.ring
    mul = ring.mul_values
    marks = bytearray(ring.size)
    for v in itertools.chain(ring.unit_values(), ideal.element_values):
        marks[v] = 1
    generators = ring.unit_generators()
    minima = []
    v = marks.find(0)
    while v >= 0:
        minima.append(v)
        marks[v] = 1
        orbit = [v]
        for g in generators:
            grow_orbit(mul, orbit, g, marks)
        v = marks.find(0, v + 1)
    return tuple(minima)


def _scan_multisets(ideal: Ideal, n: int, candidates: tuple):
    """(holds, witness_values, multisets_scanned) for the full search.

    A depth-first walk over candidate indices in the order of
    combinations_with_replacement; `prefix[k]` is the product of the
    factors before position k.  When, at k < n, prefix[k] times
    candidate i lies in I, every completion has that product inside its
    drop-last product, so its block of C(c-i+rest-1, rest) completions
    (rest = n-k) is counted and skipped.  At position n only a full
    product in I has its drop-one products checked, by a suffix product
    walked backwards; drop-last is the prefix, outside I, and a factor
    equal to its right neighbour drops to the same product.  Skipped
    blocks are contiguous and hold no violation, so the first violation
    is the least sorted witness and `scanned` its 1-based rank, or
    C(c+n, n+1) when the property holds.
    """
    mul = ideal.ring.mul_values
    members = ideal.element_values
    c = len(candidates)
    comb = math.comb
    picks = [0] * n  # the candidate indices at positions 0..n-1
    prefix = [ideal.ring.one_value] * (n + 1)
    scanned = 0
    k = i = 0  # the position being filled and its next candidate index
    while True:
        if k < n:
            if i == c:
                if k == 0:
                    return True, None, scanned
                k -= 1
                i = picks[k] + 1
                continue
            p = mul(prefix[k], candidates[i])
            if p in members:
                scanned += comb(c - i + n - k - 1, n - k)
                i += 1
                continue
            picks[k] = i
            k += 1
            prefix[k] = p
            continue
        head = prefix[n]
        for j in range(i, c):
            last = candidates[j]
            if mul(head, last) not in members:
                continue
            suffix = right = last
            for q in range(n - 1, -1, -1):
                v = candidates[picks[q]]
                if v != right and mul(prefix[q], suffix) in members:
                    break
                suffix = mul(v, suffix)
                right = v
            else:
                witness = tuple(candidates[t] for t in picks) + (last,)
                return False, witness, scanned + j - i + 1
        scanned += c - i
        k = n - 1
        i = picks[k] + 1


def is_n_absorbing(
    ideal: Ideal,
    n: int,
    *,
    max_tuples: int = DEFAULT_MAX_TUPLES,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> AbsorbingReport:
    """Decide whether the ideal is n-absorbing.

    The exhaustive scan runs when its multiset count, C(c+n, n+1) over
    the c associate-class minima that are candidates, stays within
    `max_tuples`.  Past the cap a ResourceLimitError is raised unless
    `samples` (at least 1) asks for a randomized scan instead; sampling
    draws that many sorted (n+1)-multisets of those candidates using
    `seed` (required) and can only ever refute the property, so a
    sampled "holds" is evidence, not proof.

    The candidates and every exhaustive report are kept on the ring,
    keyed by the ideal's element set, so a repeated decision on any
    instance of the same ideal multiplies nothing.  Sampled reports are
    not kept, and a freshly built ring starts with none.
    """
    if n < 1:
        raise ValueError(f"the absorbing level must be at least 1, got {n}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if ideal.is_unit:
        raise ImproperIdealError("the absorbing property is defined for proper ideals")
    ring = ideal.ring
    memo = ring._scans.get(ideal.element_values)
    if memo is None:
        memo = ring._scans[ideal.element_values] = (_scan_candidates(ideal), {})
    candidates, reports = memo
    multisets = math.comb(len(candidates) + n, n + 1)
    if multisets <= max_tuples or not candidates:
        if n not in reports:
            holds, witness_values, scanned = _scan_multisets(ideal, n, candidates)
            witness = AbsorbingWitness(witness_values, n) if witness_values else None
            reports[n] = AbsorbingReport(n, holds, "exhaustive", witness, scanned)
        return reports[n]
    if samples is None:
        raise ResourceLimitError(
            f"scan of {multisets} multisets exceeds the cap {max_tuples}",
            hint="pass samples= to fall back to randomized checking",
        )
    if seed is None:
        raise ValueError("sampled scans need an explicit seed for reproducibility")
    rng = random.Random(seed)
    members = ideal.element_values
    for drawn in range(1, samples + 1):
        factors = tuple(sorted(rng.choice(candidates) for _ in range(n + 1)))
        if _violates(ring, members, factors):
            return AbsorbingReport(n, False, "sampled", AbsorbingWitness(factors, n), drawn)
    return AbsorbingReport(n, True, "sampled", None, samples)


def require_absorbing(ideal: Ideal, n: int, message: str, **scan_options) -> AbsorbingReport:
    """The report that the ideal is n-absorbing, or, when it is not,
    HypothesisNotSatisfiedError with tag "{n}-absorbing", the scan's
    witness and `message`."""
    report = is_n_absorbing(ideal, n, **scan_options)
    if not report.holds:
        raise HypothesisNotSatisfiedError(
            f"{n}-absorbing", witness=report.witness, message=message
        )
    return report


class OmegaResult(Record):
    """Least n at which the ideal becomes n-absorbing, up to a cap."""

    value: Optional[int]
    cap: int
    levels: dict  # n -> AbsorbingReport

    def as_dict(self, ring: Ring) -> dict:
        return {
            "omega": self.value,
            "cap": self.cap,
            "levels": {str(n): rep.as_dict(ring) for n, rep in self.levels.items()},
        }


def omega(
    ideal: Ideal,
    cap: int = DEFAULT_OMEGA_CAP,
    *,
    max_tuples: int = DEFAULT_MAX_TUPLES,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> OmegaResult:
    """Scan n = 1, 2, ... up to `cap`; the property is upward monotone,
    so the first level that holds is the minimum.  `value` is None when
    every level up to the cap fails."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    levels: dict[int, AbsorbingReport] = {}
    for n in range(1, cap + 1):
        report = is_n_absorbing(
            ideal, n, max_tuples=max_tuples, samples=samples, seed=seed
        )
        levels[n] = report
        if report.holds:
            return OmegaResult(n, cap, levels)
    return OmegaResult(None, cap, levels)


# ---------------------------------------------------------------------------
# consequences of the absorbing property


def _ideal_summary(ideal: Ideal) -> dict:
    return {
        "generators": [ideal.ring.render_value(v) for v in ideal.generator_values],
        "size": len(ideal.element_values),
    }


class RadicalPowerReport(Record):
    """Does the n-th power of the radical sit inside the ideal?"""

    n: int
    absorbing: AbsorbingReport
    holds: bool
    counterexample: Optional[object]
    radical: Ideal
    power: Ideal

    def __bool__(self) -> bool:
        return self.holds

    def as_dict(self) -> dict:
        ring = self.radical.ring
        return {
            "n": self.n,
            "absorbing": self.absorbing.as_dict(ring),
            "holds": self.holds,
            "counterexample": (
                ring.render_value(self.counterexample)
                if self.counterexample is not None
                else None
            ),
            "radical": _ideal_summary(self.radical),
            "radical_power": _ideal_summary(self.power),
        }


def check_radical_power(ideal: Ideal, n: int, **scan_options) -> RadicalPowerReport:
    """Verify (radical of I)^n inside I, given that I is n-absorbing.

    Raises HypothesisNotSatisfiedError (tag "n-absorbing") when the
    precondition fails; the report then never claims anything about the
    containment.
    """
    report = require_absorbing(
        ideal, n, f"the ideal is not {n}-absorbing, so the power bound does not apply",
        **scan_options,
    )
    rad = radical(ideal)
    power = ideal_power(rad, n)
    stray = power.element_values - ideal.element_values
    counterexample = min(stray) if stray else None
    return RadicalPowerReport(n, report, not stray, counterexample, rad, power)


class ElementPowerReport(Record):
    """Does every radical element have its n-th power in the ideal?"""

    n: int
    absorbing: AbsorbingReport
    holds: bool
    counterexample: Optional[object]
    radical: Ideal

    def __bool__(self) -> bool:
        return self.holds


def check_element_power(ideal: Ideal, n: int, **scan_options) -> ElementPowerReport:
    """Elementwise variant: x^n lies in I for each x in the radical."""
    report = require_absorbing(
        ideal, n, f"the ideal is not {n}-absorbing, so the power bound does not apply",
        **scan_options,
    )
    ring = ideal.ring
    rad = radical(ideal)
    counterexample = None
    for x in sorted(rad.element_values):
        if ring.pow_value(x, n) not in ideal.element_values:
            counterexample = x
            break
    return ElementPowerReport(n, report, counterexample is None, counterexample, rad)


class ReductionReport(Record):
    """I in R versus the zero ideal of R/I: the absorbing property and
    the radical power containment must transfer in both directions."""

    n: int
    base: AbsorbingReport
    quotient: AbsorbingReport
    base_power_contained: bool
    quotient_power_zero: bool
    holds: bool

    def __bool__(self) -> bool:
        return self.holds


def check_quotient_reduction(ideal: Ideal, n: int, **scan_options) -> ReductionReport:
    """Check that I is n-absorbing exactly when the zero ideal of R/I is,
    and that (radical of I)^n lands in I exactly when the corresponding
    power vanishes in the quotient."""
    if ideal.is_unit:
        raise ImproperIdealError("reduction needs a proper ideal")
    base_report = is_n_absorbing(ideal, n, **scan_options)
    quotient = quotient_ring(ideal.ring, ideal)
    zero = Ideal.zero(quotient)
    quotient_report = is_n_absorbing(zero, n, **scan_options)
    base_power = ideal_power(radical(ideal), n)
    base_power_contained = base_power.element_values <= ideal.element_values
    quotient_power_zero = ideal_power(radical(zero), n).is_zero
    holds = (
        base_report.holds == quotient_report.holds
        and base_power_contained == quotient_power_zero
    )
    return ReductionReport(
        n, base_report, quotient_report, base_power_contained, quotient_power_zero, holds
    )


# ---------------------------------------------------------------------------
# colon-ideal consequences (need: 3-absorbing, radical prime)


def _require_colon_preconditions(ideal: Ideal, scan_options: dict) -> tuple:
    report = require_absorbing(ideal, 3, "the ideal is not 3-absorbing", **scan_options)
    rad = radical(ideal)
    if not rad.is_prime():
        raise HypothesisNotSatisfiedError(
            "radical-prime",
            witness=tuple(rad.generator_values),
            message="the radical of the ideal is not prime",
        )
    return report, rad


class ColonEntry(Record):
    """One colon ideal (I : x) for a radical element x."""

    x: object
    skipped: bool
    reason: Optional[str]
    colon: Optional[Ideal]
    report: Optional[AbsorbingReport]

    def as_dict(self, ring: Ring) -> dict:
        out: dict = {"x": ring.render_value(self.x), "skipped": self.skipped}
        if self.skipped:
            out["reason"] = self.reason
        else:
            out["colon"] = _ideal_summary(self.colon)
            out["report"] = self.report.as_dict(ring)
        return out


class ColonsReport(Record):
    """Every colon by a radical element outside I is 2-absorbing."""

    holds: bool
    entries: tuple
    precondition: AbsorbingReport

    def __bool__(self) -> bool:
        return self.holds

    def as_dict(self, ring: Ring) -> dict:
        return {
            "holds": self.holds,
            "entries": [e.as_dict(ring) for e in self.entries],
            "precondition": self.precondition.as_dict(ring),
        }


def check_colons_two_absorbing(ideal: Ideal, **scan_options) -> ColonsReport:
    """For a 3-absorbing ideal with prime radical, each (I : x) with x in
    the radical but outside I must be 2-absorbing.  Elements of I are
    skipped: their colon is the unit ideal."""
    precondition, rad = _require_colon_preconditions(ideal, scan_options)
    entries: list[ColonEntry] = []
    for x in sorted(rad.element_values):
        if x in ideal.element_values:
            reason = "element lies in the ideal, colon is the unit ideal"
            entries.append(ColonEntry(x, True, reason, None, None))
            continue
        quotient_ideal = colon(ideal, x)
        report = is_n_absorbing(quotient_ideal, 2, **scan_options)
        entries.append(ColonEntry(x, False, None, quotient_ideal, report))
    holds = all(e.skipped or e.report.holds for e in entries)
    return ColonsReport(holds, tuple(entries), precondition)


class ChainEntry(Record):
    """Colon by one product of two radical elements."""

    product: object
    factors: tuple
    colon: Ideal
    prime: bool

    def as_dict(self, ring: Ring) -> dict:
        return {
            "product": ring.render_value(self.product),
            "factors": [ring.render_value(v) for v in self.factors],
            "colon": _ideal_summary(self.colon),
            "prime": self.prime,
        }


class ChainReport(Record):
    """Colons by two-factor radical products are prime and form a chain."""

    holds: bool
    entries: tuple
    incomparable: tuple  # pairs of product values whose colons are incomparable
    precondition: AbsorbingReport

    def __bool__(self) -> bool:
        return self.holds

    def as_dict(self, ring: Ring) -> dict:
        return {
            "holds": self.holds,
            "entries": [e.as_dict(ring) for e in self.entries],
            "incomparable": [
                [ring.render_value(a), ring.render_value(b)]
                for a, b in self.incomparable
            ],
            "precondition": self.precondition.as_dict(ring),
        }


def check_colon_chain(ideal: Ideal, **scan_options) -> ChainReport:
    """For a 3-absorbing ideal with prime radical, the colons (I : xy)
    over two-factor products of radical elements with xy outside I must
    all be prime and pairwise comparable.  Products are deduplicated by
    value; products inside I are skipped (their colon is the unit ideal)."""
    precondition, rad = _require_colon_preconditions(ideal, scan_options)
    ring = ideal.ring
    rad_values = sorted(rad.element_values)
    first_factors: dict = {}
    for x, y in itertools.combinations_with_replacement(rad_values, 2):
        p = ring.mul_values(x, y)
        if p in ideal.element_values:
            continue
        if p not in first_factors:
            first_factors[p] = (x, y)
    entries: list[ChainEntry] = []
    colons: dict = {}
    for p in sorted(first_factors):
        c = colon(ideal, p)
        colons[p] = c
        entries.append(ChainEntry(p, first_factors[p], c, c.is_prime()))
    incomparable: list[tuple] = []
    products = sorted(colons)
    for a, b in itertools.combinations(products, 2):
        ca, cb = colons[a], colons[b]
        if not (ca.element_values <= cb.element_values or cb.element_values <= ca.element_values):
            incomparable.append((a, b))
    holds = all(e.prime for e in entries) and not incomparable
    return ChainReport(holds, tuple(entries), tuple(incomparable), precondition)
