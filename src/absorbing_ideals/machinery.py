"""Constructive engine behind the radical power bound.

Given generators a_1, ..., a_n of nilpotent elements in a ring whose
zero ideal is n-absorbing, the product a_1 * ... * a_n must vanish.
The derivation walks monomial multidegrees downward in graded lex
order, from (n^2-n, 0, ..., 0) to (1, ..., 1).  Degrees above n^2-n
need no step: some exponent reaches n by pigeonhole and a_i^n = 0.
For each monomial x^M the step builds its shift matrix, whose (i, j)
entry is the monomial M - e_i + e_j evaluated on the generators (rows
and columns indexed by the variables of M, largest exponent first).
Entries below the diagonal carry multidegrees handled by earlier steps
and must already be zero; every image vector of the matrix has a zero
coordinate; and a short walk through probe vectors then pins a zero on
the diagonal, which equals the monomial value itself.

The zero-coordinate property is certified without walking all |R|^m
value vectors.  Row k of a shift matrix factors as d_k * g_j, where
d_k is the monomial with one factor of variable k removed and g_j is
the generator of column variable j.  So coordinate k of M*v is d_k * s
with s = sum_j g_j v_j, and as v ranges over R^m, s ranges over exactly
the ideal J = (g_1, ..., g_m) of the column generators.  Every image
has a zero coordinate if and only if every s in J is killed by some
d_k: a scan of |J| <= |R| elements instead of |R|^m vectors.

Every inference is also recomputed by direct arithmetic as it is made,
and the whole derivation is serialized as a trace that `verify_trace`
can replay from nothing but the trace text.  The prover and the
verifier share one set of step checks (`_shift_checks`): the prover
raises on the first failure, the verifier collects them all.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from operator import itemgetter
from typing import Optional, Sequence

from .absorbing import DEFAULT_MAX_TUPLES, is_n_absorbing, require_absorbing
from .errors import (
    HypothesisNotSatisfiedError,
    InvariantViolationError,
    LemmaPreconditionError,
    ResourceLimitError,
    TraceInconsistencyError,
)
from .ideals import Ideal
from .monomials import (
    grlex_compare,
    induction_schedule,
    monomial_text,
    monomials_with_multidegree,
    multidegree,
    schedule_exponents,
    schedule_program,
)
from .records import Record
from .rings import (
    DEFAULT_MAX_RING_SIZE,
    Ring,
    build_ring,
    generated_ideal_values,
    values_with_power_in,
)
from .ringspec import parse_ring_spec, render_ring_spec

DEFAULT_MAX_VECTORS = 10**6
# the prover's cap on steps: 1,947,330 at n = 6, 85,898,868 at n = 7
MAX_TRACE_STEPS = 10**7
TRACE_SCHEMA = "absorbing-trace/1"
# exponent types a recorded step may hold; a JSON `true` counts as 1
_EXPONENT_TYPES = frozenset({int, bool})
# exact-type sets that check a list's element types in one C-level pass;
# cli.render_json uses them too
_INT_ONLY = frozenset({int})
_STR_ONLY = frozenset({str})
_LIST_ONLY = frozenset({list})
_DICT_ONLY = frozenset({dict})


def _trace_length(n: int) -> int:
    """Steps of a derivation at level n: one per n-tuple of total degree
    n..n^2-n, the C(d+n-1, n-1) tuples of each degree d summed."""
    return math.comb(n * n, n) - math.comb(2 * n - 1, n)


def _checked_value(ring: Ring, value):
    if not ring.contains_value(value):
        raise ValueError(f"{value!r} is not an element of {ring}")
    return value


def eval_monomial(ring: Ring, generator_values: Sequence, exponents: Sequence[int]):
    """Value of the product of generator powers given by `exponents`."""
    if len(generator_values) != len(exponents):
        raise ValueError(
            f"{len(exponents)} exponents for {len(generator_values)} generators"
        )
    out = ring.one_value
    for g, e in zip(generator_values, exponents):
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        if e:
            out = ring.mul_values(out, ring.pow_value(g, e))
    return out


def schedule_values(ring: Ring, generator_values: Sequence) -> list:
    """`eval_monomial` on every monomial of `induction_schedule(n)`, for
    n the number of generators, in schedule order, by running
    `schedule_program(n)`.

    The power rows hold g_i^e for each generator and every exponent
    e <= n^2 - n, the highest a schedule monomial reaches, built by
    repeated `mul_values` without assuming g_i^n = 0.  Each trie node is
    then one `mul_values` of its parent's value by one row entry.  The
    node multiplies the same factors as `eval_monomial`, grouped
    differently, which commutativity and associativity make equal.
    """
    gens = tuple(generator_values)
    n = len(gens)
    nodes, leaves = schedule_program(n)
    mul = ring.mul_values
    one = ring.one_value
    rows = []
    for g in gens:
        row = [one]
        for _ in range(n * n - n):
            row.append(mul(row[-1], g))
        rows.append(row)
    values: list = []
    append = values.append
    for parent, variable, e in nodes:
        factor = rows[variable][e]
        append(factor if parent < 0 else mul(values[parent], factor))
    return [values[leaf] for leaf in leaves]


def monomial_image_ideal(ring: Ring, generator_values: Sequence, profile: tuple[int, ...]) -> Ideal:
    """Ideal generated by every monomial with the given multidegree."""
    values = {
        eval_monomial(ring, generator_values, mono)
        for mono in monomials_with_multidegree(profile)
    }
    return Ideal.from_generators(ring, values)


# ---------------------------------------------------------------------------
# matrices


class SquareMatrix:
    """Square matrix over a ring, stored as value rows."""

    __slots__ = ("ring", "rows", "m")

    def __init__(self, ring: Ring, rows: Sequence[Sequence]):
        normalized = tuple(
            tuple(_checked_value(ring, v) for v in row) for row in rows
        )
        m = len(normalized)
        if m == 0 or any(len(row) != m for row in normalized):
            raise ValueError("matrix must be square and nonempty")
        self.ring = ring
        self.rows = normalized
        self.m = m

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def apply_values(self, vector: Sequence) -> tuple:
        """Matrix times a vector of ring values."""
        if len(vector) != self.m:
            raise ValueError("vector length does not match matrix size")
        ring = self.ring
        add, mul = ring.add_values, ring.mul_values
        out = []
        for row in self.rows:
            acc = ring.zero_value
            for entry, v in zip(row, vector):
                acc = add(acc, mul(entry, v))
            out.append(acc)
        return tuple(out)

    def rendered_rows(self) -> list[list[str]]:
        return [[self.ring.render_value(v) for v in row] for row in self.rows]


def is_upper_triangular(matrix: SquareMatrix) -> bool:
    zero = matrix.ring.zero_value
    return all(
        matrix.rows[i][j] == zero
        for i in range(matrix.m)
        for j in range(i)
    )


class ShiftMatrix(SquareMatrix):
    """Shift matrix of a monomial on a generator tuple.

    Variables are the positions with positive exponent, ordered by
    decreasing exponent (position index breaks ties).  Entry (i, j) is
    the base monomial with one factor of variable i exchanged for one
    factor of variable j; the diagonal repeats the base monomial.
    """

    __slots__ = ("base_monomial", "variables", "entry_monomials", "generator_values")

    def __init__(
        self,
        ring: Ring,
        rows: Sequence[Sequence],
        base_monomial: tuple[int, ...],
        variables: tuple[int, ...],
        entry_monomials: tuple,
        generator_values: tuple,
    ):
        super().__init__(ring, rows)
        self.base_monomial = base_monomial
        self.variables = variables
        self.entry_monomials = entry_monomials
        self.generator_values = generator_values


def build_shift_matrix(
    ring: Ring, generator_values: Sequence, exponents: Sequence[int]
) -> ShiftMatrix:
    """Construct the shift matrix of a monomial from its defining formula."""
    gens = tuple(_checked_value(ring, g) for g in generator_values)
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != len(gens):
        raise ValueError("one exponent per generator is required")
    variables = tuple(
        sorted((i for i, e in enumerate(exponents) if e > 0),
               key=lambda i: (-exponents[i], i))
    )
    if not variables:
        raise ValueError("a constant monomial has no shift matrix")
    entry_monomials = []
    rows = []
    for vi in variables:
        mono_row = []
        value_row = []
        for vj in variables:
            shifted = list(exponents)
            shifted[vi] -= 1
            shifted[vj] += 1
            shifted = tuple(shifted)
            mono_row.append(shifted)
            value_row.append(eval_monomial(ring, gens, shifted))
        entry_monomials.append(tuple(mono_row))
        rows.append(value_row)
    return ShiftMatrix(
        ring,
        rows,
        base_monomial=exponents,
        variables=variables,
        entry_monomials=tuple(entry_monomials),
        generator_values=gens,
    )


# ---------------------------------------------------------------------------
# the zero-coordinate property and the diagonal walk


class ProjectiveZeroResult(Record):
    """Does every image vector of the matrix have a zero coordinate?"""

    holds: bool
    mode: str  # "factored", "exhaustive" or "sampled"
    counterexample: Optional[tuple]
    vectors_checked: int
    samples: Optional[int] = None
    seed: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds


def _factored_certificate(matrix: ShiftMatrix) -> Optional[ProjectiveZeroResult]:
    """The factored check of a shift matrix, or None when it cannot certify.

    It cannot when a row fails to factor as d_k times the column
    generators, or when some element of J is killed by no d_k (then
    the property fails).  `vectors_checked` counts the elements of J
    checked, walked in canonical order.
    """
    ring = matrix.ring
    mul = ring.mul_values
    zero = ring.zero_value
    column_gens = tuple(matrix.generator_values[v] for v in matrix.variables)
    lowered = []
    for k, vk in enumerate(matrix.variables):
        reduced = list(matrix.base_monomial)
        reduced[vk] -= 1
        d_k = eval_monomial(ring, matrix.generator_values, reduced)
        if matrix.rows[k] != tuple(mul(d_k, g) for g in column_gens):
            return None
        lowered.append(d_k)
    checked = 0
    for s in sorted(generated_ideal_values(ring, column_gens)):
        checked += 1
        if all(mul(d_k, s) != zero for d_k in lowered):
            return None
    return ProjectiveZeroResult(True, "factored", None, checked, None, None)


def is_projectively_zero(
    matrix: SquareMatrix,
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> ProjectiveZeroResult:
    """Check that M*v has a zero coordinate for every value vector v.

    A ShiftMatrix is first checked in factored form (mode "factored"):
    its rows are re-checked to factor as d_k * g_j, so coordinate k of
    M*v is d_k * s with s = sum_j g_j v_j, and s ranges over exactly
    the ideal J generated by the column generators.  The property holds
    if and only if every s in J is killed by some d_k.  When the rows do
    not factor, or the check fails, the vector scan below decides, so a
    counterexample is always the canonical first vector.

    The vector scan is exhaustive over all |R|^m vectors in canonical
    order while that count stays within `max_vectors`, so the first
    counterexample found is canonical.  Past the cap a
    ResourceLimitError is raised unless `samples` (at least 1, with a
    mandatory seed) selects randomized checking.
    """
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if isinstance(matrix, ShiftMatrix):
        certificate = _factored_certificate(matrix)
        if certificate is not None:
            return certificate
    ring = matrix.ring
    zero = ring.zero_value
    nominal = ring.size ** matrix.m
    if nominal <= max_vectors:
        checked = 0
        for vector in itertools.product(ring.iter_values(), repeat=matrix.m):
            checked += 1
            image = matrix.apply_values(vector)
            if zero not in image:
                return ProjectiveZeroResult(False, "exhaustive", vector, checked, None, None)
        return ProjectiveZeroResult(True, "exhaustive", None, checked, None, None)
    if samples is None:
        raise ResourceLimitError(
            f"scan of {nominal} vectors exceeds the cap {max_vectors}",
            hint="pass samples= to fall back to randomized checking",
        )
    if seed is None:
        raise ValueError("sampled scans need an explicit seed for reproducibility")
    values = list(ring.iter_values())
    rng = random.Random(seed)
    for drawn in range(1, samples + 1):
        vector = tuple(rng.choice(values) for _ in range(matrix.m))
        image = matrix.apply_values(vector)
        if zero not in image:
            return ProjectiveZeroResult(False, "sampled", vector, drawn, samples, seed)
    return ProjectiveZeroResult(True, "sampled", None, samples, samples, seed)


class ZeroDiagonalResult(Record):
    """Index of a provably zero diagonal entry, with the probe history."""

    index: int
    j_sequence: tuple[int, ...]


def find_zero_diagonal(matrix: SquareMatrix) -> ZeroDiagonalResult:
    """Locate a zero diagonal entry by walking probe vectors.

    Start with the count vector e_(m-1).  Each probe's image must have
    a zero coordinate; take j = the largest zero position, then bump
    coordinate j of the probe by one and repeat.  The image of the
    bumped probe is the previous image plus column j, so it is kept up
    to date by one addition per row.  A repeat at j certifies that
    entry (j, j) is zero for any matrix: consecutive probes differ by
    one extra copy of column j, and position j of both images is zero,
    so position j of that column is zero.

    The termination guarantee is narrower: when the matrix is upper
    triangular, bumping coordinate j cannot disturb image positions
    above j, so the j values never climb and must repeat within m+1
    probes.  A probe whose image has no zero coordinate raises
    LemmaPreconditionError carrying the probe vector; a climb raises
    InvariantViolationError — impossible for an upper triangular
    matrix with the zero-coordinate property, merely inconclusive for
    anything else.
    """
    ring = matrix.ring
    zero = ring.zero_value
    add = ring.add_values
    rows = matrix.rows
    m = matrix.m
    probe = [0] * m
    probe[m - 1] = 1
    image = [row[m - 1] for row in rows]
    j_sequence: list[int] = []
    previous: Optional[int] = None
    for _ in range(m + 2):
        zeros = [i for i, v in enumerate(image) if v == zero]
        if not zeros:
            raise LemmaPreconditionError(
                "probe image has no zero coordinate", vector=tuple(probe)
            )
        j = max(zeros)
        j_sequence.append(j)
        if previous is not None:
            if j == previous:
                return ZeroDiagonalResult(j, tuple(j_sequence))
            if j > previous:
                raise InvariantViolationError(
                    f"largest zero position climbed from {previous} to {j}"
                )
        probe[j] += 1
        image = [add(v, row[j]) for v, row in zip(image, rows)]
        previous = j
    raise InvariantViolationError("probe walk failed to stabilize within m+1 steps")


# ---------------------------------------------------------------------------
# trace generation


class ProofTrace(Record):
    """Serializable derivation that the generator product vanishes."""

    ring_spec: str
    generators: tuple[str, ...]
    n: int
    high_degree_bound: int
    steps: tuple
    final_product: str

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # exact types: int() and tuple() would read 3.5 as 3 and "246" as 2, 4, 6
        for key in ("n", "high_degree_bound"):
            if type(getattr(self, key)) is not int:
                raise ValueError(f"trace field {key} must be a JSON int")
        for key in ("generators", "steps"):
            if type(getattr(self, key)) is not tuple:
                raise ValueError(f"trace field {key} must be a tuple")
        if not all(isinstance(text, str) for text in self.generators):
            raise ValueError("trace field generators must list strings")

    def to_json_dict(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "ring": self.ring_spec,
            "generators": list(self.generators),
            "n": self.n,
            "high_degree_bound": self.high_degree_bound,
            "steps": list(self.steps),
            "final_product": self.final_product,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProofTrace":
        if not isinstance(data, dict):
            raise ValueError("trace document must be a JSON object")
        schema = data.get("schema")
        if schema != TRACE_SCHEMA:
            raise ValueError(f"unsupported trace schema {schema!r}")
        missing = [
            key
            for key in ("ring", "generators", "n", "high_degree_bound", "steps", "final_product")
            if key not in data
        ]
        if missing:
            raise ValueError(f"trace document lacks fields: {', '.join(missing)}")
        for key in ("generators", "steps"):
            if type(data[key]) is not list:
                raise ValueError(f"trace field {key} must be a JSON list")
        return cls(
            ring_spec=data["ring"],
            generators=tuple(data["generators"]),
            n=data["n"],
            high_degree_bound=data["high_degree_bound"],
            steps=tuple(data["steps"]),
            final_product=data["final_product"],
        )


def _shift_checks(matrix: ShiftMatrix, g, alpha: tuple, fail) -> list:
    """Check the shift matrix of a zero-diagonal step and return its
    sub-diagonal justifications; `g` is the value of the monomial.

    One extra factor on the monomial must land on zero (those monomials
    sit at higher degree, settled earlier or by a_i^n = 0).  Each entry
    below the diagonal carries a multidegree that must precede alpha in
    grlex, so an earlier step of the schedule settled it, and must be
    zero.  A failed check calls `fail(kind, detail)`.
    """
    ring = matrix.ring
    zero = ring.zero_value
    mul = ring.mul_values
    for vj in matrix.variables:
        if mul(g, matrix.generator_values[vj]) != zero:
            fail("degree-raise", f"monomial times generator {vj} is nonzero")
    justifications = []
    for k in range(matrix.m):
        for j in range(k):
            beta = multidegree(matrix.entry_monomials[k][j])
            if grlex_compare(beta, alpha) != 1:
                fail("justification-order", f"profile {beta} does not precede {alpha}")
            if matrix.rows[k][j] != zero:
                fail("subdiagonal-nonzero", f"entry ({k},{j}) is nonzero")
            justifications.append({"i": k, "j": j, "beta": list(beta)})
    return justifications


def _matrix_step(
    ring: Ring, gen_values: tuple, alpha: tuple, mono: tuple, g, zero_text: str
) -> dict:
    """The zero-diagonal step for `mono`, whose value is `g`; its
    conclusion reads `zero_text`, the rendered zero."""
    matrix = build_shift_matrix(ring, gen_values, mono)

    def fail(kind, detail):
        raise TraceInconsistencyError(f"{kind} at {monomial_text(mono)}: {detail}")

    justifications = _shift_checks(matrix, g, alpha, fail)

    pz = is_projectively_zero(matrix)
    if not pz.holds:
        raise LemmaPreconditionError(
            "matrix image misses a zero coordinate", vector=pz.counterexample
        )

    # the diagonal repeats the monomial, so this zero is its value
    walk = find_zero_diagonal(matrix)
    if matrix.rows[walk.index][walk.index] != ring.zero_value:
        raise InvariantViolationError(
            "walk certified a diagonal zero that direct arithmetic denies"
        )

    return {
        "alpha": list(alpha),
        "monomial": list(mono),
        "rule": "zero-diagonal",
        "variables": list(matrix.variables),
        "matrix": matrix.rendered_rows(),
        "subdiagonal_justifications": justifications,
        "projective_zero": {"method": pz.mode, "vectors_checked": pz.vectors_checked},
        "j_sequence": list(walk.j_sequence),
        "diagonal_index": walk.index,
        "conclusion": zero_text,
    }


def prove_radical_power_zero(
    ring: Ring,
    generators: Sequence,
    *,
    short_circuit: bool = True,
    max_tuples: int = DEFAULT_MAX_TUPLES,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> ProofTrace:
    """Derive a checkable trace that the product of the generators is zero.

    Preconditions, both verified here: every generator is nilpotent,
    and the zero ideal is n-absorbing for n = number of generators.
    Violations raise HypothesisNotSatisfiedError with tags
    "nilpotent-generators" or "{n}-absorbing".  `samples` and `seed`
    reach only that absorbing scan.  A derivation of more than
    MAX_TRACE_STEPS steps (n >= 7) raises ResourceLimitError unbuilt.

    With `short_circuit` (the default) a monomial that directly
    evaluates to zero is recorded as a one-line step; passing False
    runs the full matrix derivation for every monomial, which is the
    honest shape of the argument but much slower.

    The values of all schedule monomials come from `schedule_values`,
    and one comprehension over `induction_schedule(n)` builds the steps
    from them in schedule order.  Once the hypothesis holds, every value
    is zero (each monomial is a product of at least n nilpotent
    generators), so a default trace is all direct steps.
    """
    gen_values = tuple(_checked_value(ring, g) for g in generators)
    n = len(gen_values)
    if n < 1:
        raise ValueError("at least one generator is required")

    zero = ring.zero_value
    nilpotents = values_with_power_in(ring, {zero})
    for g in gen_values:
        if g not in nilpotents:
            raise HypothesisNotSatisfiedError(
                "nilpotent-generators",
                witness=g,
                message=f"generator {ring.render_value(g)} is not nilpotent",
            )
    require_absorbing(
        Ideal.zero(ring), n, f"the zero ideal is not {n}-absorbing",
        max_tuples=max_tuples, samples=samples, seed=seed,
    )

    for g in gen_values:
        if ring.pow_value(g, n) != zero:
            raise TraceInconsistencyError(
                f"generator {ring.render_value(g)} does not vanish at power {n}"
            )

    step_count = _trace_length(n)
    if step_count > MAX_TRACE_STEPS:
        raise ResourceLimitError(
            f"derivation of {step_count} steps at n = {n} exceeds the cap {MAX_TRACE_STEPS}"
        )

    zero_text = ring.render_value(zero)
    # one value per schedule monomial; zip takes each group's monomials
    # first, so it stops at a group's end without consuming a value
    value_of = iter(schedule_values(ring, gen_values))
    steps = [
        {"alpha": list(alpha), "monomial": list(mono), "rule": "direct", "conclusion": zero_text}
        if short_circuit and value == zero
        else _matrix_step(ring, gen_values, alpha, mono, value, zero_text)
        for alpha, monomials in induction_schedule(n)
        for mono, value in zip(monomials, value_of)
    ]

    final_value = eval_monomial(ring, gen_values, (1,) * n)
    if final_value != zero:
        raise TraceInconsistencyError("the generator product did not vanish")

    return ProofTrace(
        ring_spec=render_ring_spec(ring),
        generators=tuple(ring.render_value(g) for g in gen_values),
        n=n,
        high_degree_bound=n * n - n + 1,
        steps=tuple(steps),
        final_product=ring.render_value(final_value),
    )


# ---------------------------------------------------------------------------
# trace verification


class VerificationResult(Record):
    """Outcome of an independent replay of a trace."""

    ok: bool
    failures: tuple

    def __bool__(self) -> bool:
        return self.ok


def _verify_matrix_step(
    ring: Ring,
    gen_values: tuple,
    step: dict,
    alpha: tuple,
    mono: tuple,
    g,
    fail,
    index: int,
) -> None:
    """Replay the zero-diagonal step for `mono`, whose value is `g`."""
    zero = ring.zero_value
    matrix = build_shift_matrix(ring, gen_values, mono)

    if list(matrix.variables) != list(step.get("variables", [])):
        fail(index, "variables", f"expected {list(matrix.variables)}")
        return
    if matrix.rendered_rows() != step.get("matrix"):
        fail(index, "matrix-entries", "recorded matrix disagrees with the defining formula")
        return

    expected_justs = _shift_checks(matrix, g, alpha, functools.partial(fail, index))
    if step.get("subdiagonal_justifications") != expected_justs:
        fail(index, "justifications", "recorded justifications do not match the matrix")

    record = step.get("projective_zero")
    if not isinstance(record, dict):
        fail(index, "projective-zero", "missing certification record")
        return
    # the factored method re-checks the row factorization of the matrix
    # rebuilt here; legacy records replay the plain vector scan
    method = record.get("method")
    if method == "factored":
        result = is_projectively_zero(matrix)
    elif method == "exhaustive":
        result = is_projectively_zero(SquareMatrix(ring, matrix.rows))
    elif method == "sampled":
        result = is_projectively_zero(
            SquareMatrix(ring, matrix.rows),
            max_vectors=0,
            samples=int(record.get("samples", 0)),
            seed=record.get("seed"),
        )
    else:
        fail(index, "projective-zero", f"unknown method {method!r}")
        return
    if not result.holds:
        fail(index, "projective-zero", "replay found a vector with no zero coordinate")
    elif result.mode != method:
        fail(index, "projective-zero", f"replay certified by {result.mode}, not {method}")
    if result.vectors_checked != record.get("vectors_checked"):
        fail(index, "projective-zero", "vectors_checked does not match the replay")

    walk = find_zero_diagonal(matrix)
    if list(walk.j_sequence) != step.get("j_sequence"):
        fail(index, "j-sequence", f"replay walk gives {list(walk.j_sequence)}")
    if walk.index != step.get("diagonal_index"):
        fail(index, "diagonal-index", f"replay walk stops at {walk.index}")
    if matrix.rows[walk.index][walk.index] != zero:
        fail(index, "diagonal-nonzero", "certified diagonal entry is nonzero")


def _schedule_match(steps, n: int) -> tuple[bool, bool]:
    """`(equal, exact)` for the recorded `steps` of a level-n trace.

    `equal`: does every step's `(tuple(alpha), tuple(monomial))` equal
    the schedule's pair?  The `alpha` column and then the `monomial`
    column are flattened and compared with `schedule_exponents(n)` in
    one pass; with every entry n long, entry k of a column is its k-th
    run of n exponents, so the flat lists are equal exactly when every
    pair is.  A str, dict or tuple entry flattens as `tuple()` reads it,
    and `==` lets a `true` or a `2.0` equal its int.  A step that is not
    a mapping, a missing key or an entry that has no length or does
    not iterate gives `(False, False)`.

    `exact`: moreover the steps are exact dicts and their columns exact
    lists of exact ints, so every step has the schedule's own shape.
    Passes that run in C, with no container built per step.
    """
    try:
        columns = list(map(itemgetter("alpha"), steps))
        columns += map(itemgetter("monomial"), steps)
        exponents = list(itertools.chain.from_iterable(columns))
        equal = {n}.issuperset(map(len, columns)) and exponents == schedule_exponents(n)
    except (TypeError, KeyError):
        return False, False
    exact = (
        equal
        and _DICT_ONLY.issuperset(map(type, steps))
        and _LIST_ONLY.issuperset(map(type, columns))
        and _INT_ONLY.issuperset(map(type, exponents))
    )
    return equal, exact


def _all_direct_zero(steps, values: list, zero, zero_text: str) -> bool:
    """Of steps `_schedule_match` found exact: does every value equal `zero`,
    every conclusion read the exact str `zero_text` and every rule the
    exact str "direct"?  Passes that run in C; a missing key says no,
    and the per-step check then reports it."""
    if values.count(zero) != len(values):
        return False
    try:
        conclusions = list(map(itemgetter("conclusion"), steps))
        rules = list(map(itemgetter("rule"), steps))
    except KeyError:
        return False
    return (
        _STR_ONLY.issuperset(map(type, itertools.chain(conclusions, rules)))
        and conclusions.count(zero_text) == len(steps)
        and rules.count("direct") == len(steps)
    )


def verify_trace(
    trace,
    *,
    max_ring_size: int = DEFAULT_MAX_RING_SIZE,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> VerificationResult:
    """Replay a trace from its own text, trusting nothing in it.

    The ring is rebuilt from the recorded spec, the preconditions are
    re-decided, the step schedule is recomputed, and every step is
    checked by direct arithmetic.  All problems found are collected
    into the result rather than raised.  Anything but a `ProofTrace` is
    read by `ProofTrace.from_json_dict`, so a document that is not a
    JSON object, or whose generators are not all strings, fails as
    `document`.

    The hypothesis is re-decided on the zero ideal of the ring built
    here, whose scan memo starts empty, so no scan of the prover's is
    reused.  The recorded `(alpha, monomial)` pairs are compared with
    the same `induction_schedule(n)` the prover walks, flattened by
    `schedule_exponents(n)` (`_schedule_match`): a pure function of n
    that carries nothing from the trace, cached per n like the schedule
    and built only when the trace has as many steps as it has.

    Two paths.  A default trace is checked in column passes that run in
    C: when its steps are exact dicts whose pairs are the schedule's
    with exact int exponents (`_schedule_match`), every value that
    `schedule_values` computes here is zero, and every conclusion is the
    exact str `zero_text` and every rule the exact str "direct"
    (`_all_direct_zero`), the per-step loop could report nothing on any
    step.  On a step of the schedule's own shape the loop fails only on
    a nonzero value, a conclusion `!=` `zero_text` or a rule other than
    "direct", and on exact dicts of exact strs none of these can differ
    from the counts.  So the loop is skipped.  Every other trace runs
    the loop: shape, then `eval_monomial` on the recorded monomial, then
    value, conclusion and rule.  A step's shape is wrong when its
    monomial does not have the stated multidegree, or when its monomial
    or its alpha holds anything other than exact ints and `true`; the
    monomial is checked before it is evaluated, the alpha after.
    """
    failures: list[dict] = []

    def fail(step, kind, detail):
        failures.append({"step": step, "kind": kind, "detail": detail})

    if not isinstance(trace, ProofTrace):
        try:
            trace = ProofTrace.from_json_dict(trace)
        except (ValueError, TypeError, KeyError) as exc:
            fail(None, "document", str(exc))
            return VerificationResult(False, tuple(failures))

    try:
        descriptor = parse_ring_spec(trace.ring_spec, max_size=max_ring_size)
        ring = build_ring(descriptor, max_size=max_ring_size)
    except Exception as exc:
        fail(None, "ring", str(exc))
        return VerificationResult(False, tuple(failures))

    try:
        gen_values = tuple(ring.parse_value(text) for text in trace.generators)
    except Exception as exc:
        fail(None, "generators", str(exc))
        return VerificationResult(False, tuple(failures))

    n = trace.n
    if n != len(gen_values):
        fail(None, "arity", f"n={n} but {len(gen_values)} generators recorded")
        return VerificationResult(False, tuple(failures))
    if n < 1:
        fail(None, "arity", "n must be at least 1")
        return VerificationResult(False, tuple(failures))

    zero = ring.zero_value
    nilpotents = values_with_power_in(ring, {zero})
    for g in gen_values:
        if g not in nilpotents:
            fail(None, "nilpotency", f"generator {ring.render_value(g)} is not nilpotent")
    try:
        report = is_n_absorbing(Ideal.zero(ring), n, max_tuples=max_tuples)
        if not report.holds:
            fail(None, "absorbing", f"the zero ideal is not {n}-absorbing")
    except ResourceLimitError as exc:
        fail(None, "resource", str(exc))
    for g in gen_values:
        if ring.pow_value(g, n) != zero:
            fail(None, "power", f"generator {ring.render_value(g)} to the {n} is nonzero")

    if trace.high_degree_bound != n * n - n + 1:
        fail(None, "bound", f"high_degree_bound should be {n * n - n + 1}")

    # the schedule is built only for a trace with as many steps, so
    # memory stays proportional to the trace
    schedule_ok = exact = False
    if len(trace.steps) == _trace_length(n):
        schedule_ok, exact = _schedule_match(trace.steps, n)
    if not schedule_ok:
        fail(None, "schedule", "step sequence does not match the induction order")

    zero_text = ring.render_value(zero)
    # a default trace passes every column check and has no step to
    # report; any other trace replays step by step, shape first
    if not (
        exact and _all_direct_zero(trace.steps, schedule_values(ring, gen_values), zero, zero_text)
    ):
        for index, step in enumerate(trace.steps):
            try:
                alpha = tuple(step["alpha"])
                mono = tuple(step["monomial"])
                if len(mono) != n or multidegree(mono) != alpha:
                    fail(index, "step-shape", "monomial does not have the stated multidegree")
                    continue
                if not _EXPONENT_TYPES.issuperset(map(type, mono)):
                    fail(index, "step-shape", "monomial entries must be integers")
                    continue
                value = eval_monomial(ring, gen_values, mono)
                if not _EXPONENT_TYPES.issuperset(map(type, alpha)):
                    fail(index, "step-shape", "alpha entries must be integers")
                    continue
                if value != zero:
                    fail(index, "value", f"monomial evaluates to {ring.render_value(value)}")
                if step.get("conclusion") != zero_text:
                    fail(index, "conclusion", f"conclusion should read {zero_text!r}")
                rule = step.get("rule")
                if rule == "zero-diagonal":
                    _verify_matrix_step(ring, gen_values, step, alpha, mono, value, fail, index)
                elif rule != "direct":
                    fail(index, "rule", f"unknown rule {rule!r}")
            except Exception as exc:  # malformed step content must not abort the replay
                fail(index, "exception", f"{type(exc).__name__}: {exc}")

    try:
        final_value = eval_monomial(ring, gen_values, (1,) * n)
        if final_value != zero:
            fail(None, "final-product", "the generator product is nonzero")
        if trace.final_product != ring.render_value(final_value):
            fail(None, "final-product", "recorded text disagrees with the computed product")
    except Exception as exc:
        fail(None, "final-product", f"{type(exc).__name__}: {exc}")

    return VerificationResult(not failures, tuple(failures))
