"""Built-in ring corpus and systematic audits over it.

`run_battery` sweeps every ideal of every corpus ring and records, per
ideal: the least absorbing level within a cap, monotonicity of the
property in n, the radical power and element power bounds at that
level, sharpness of the power bound one level down, agreement between
the ideal and the zero ideal of the quotient ring, and (where the
preconditions hold) the two colon-ideal consequences.  `trace_survey`
generates and independently replays derivation traces over tuples of
nilpotents, and `zero_diagonal_survey` stress-tests the diagonal walk
on upper triangular matrices.  None of the report structures contain
timing or other nondeterministic data.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional, Sequence

from .absorbing import (
    DEFAULT_MAX_TUPLES,
    DEFAULT_OMEGA_CAP,
    check_colon_chain,
    check_colons_two_absorbing,
    check_element_power,
    check_quotient_reduction,
    check_radical_power,
    is_n_absorbing,
    omega,
)
from .errors import (
    HypothesisNotSatisfiedError,
    InvariantViolationError,
    LemmaPreconditionError,
    ResourceLimitError,
    error_kind,
)
from .ideals import Ideal, enumerate_ideals, ideal_power, radical
from .machinery import (
    SquareMatrix,
    find_zero_diagonal,
    prove_radical_power_zero,
    verify_trace,
)
from .records import Fresh, Record
from .rings import DEFAULT_MAX_RING_SIZE, build_ring
from .ringspec import parse_ring_spec, render_ring_spec

BUILTIN_CORPUS: tuple[str, ...] = tuple(
    [f"Zmod:{n}" for n in range(2, 37)]
    + [
        "PolyQuot:{p:2,poly:[0,0,1]}",
        "PolyQuot:{p:2,poly:[0,0,0,1]}",
        "PolyQuot:{p:3,poly:[0,0,1]}",
        "PolyQuot:{p:3,poly:[0,0,0,1]}",
        "Product:[Zmod:4,Zmod:3]",
        "Product:[Zmod:2,Zmod:2]",
    ]
)

DEFAULT_TRACE_LIMIT = 200
# zero_diagonal_survey's gate on |R|^(m(m+1)/2) to enumerate, and its draws past it
DEFAULT_FEASIBILITY = 10**6
DEFAULT_SAMPLE_SIZE = 10**4
# suffix vectors one zero-coordinate decider keeps memoised, over all blocks
SUFFIX_MEMO_BUDGET = 10**5


class IdealAudit(Record, kw_only=True):
    """Everything the battery checks about one ideal; a check not run is None."""

    ideal_text: str
    size: int
    skipped: bool = False
    skip_reason: Optional[str] = None
    omega_value: Optional[int] = None
    omega_cap: int
    levels: dict = Fresh(dict)  # n -> AbsorbingReport.as_dict
    monotone_ok: Optional[bool] = None
    radical_text: Optional[str] = None
    radical_size: Optional[int] = None
    radical_power_ok: Optional[bool] = None
    element_power_ok: Optional[bool] = None
    sharp: Optional[bool] = None
    reduction_ok: Optional[bool] = None
    colons_ok: Optional[bool] = None
    chain_ok: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """No audited property came out false (inapplicable ones pass)."""
        if self.skipped:
            return True
        checks = (
            self.monotone_ok,
            self.radical_power_ok,
            self.element_power_ok,
            self.reduction_ok,
            self.colons_ok,
            self.chain_ok,
        )
        return all(c is not False for c in checks)

    def as_dict(self) -> dict:
        return {
            "ideal": self.ideal_text,
            "size": self.size,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "omega": self.omega_value,
            "omega_cap": self.omega_cap,
            "levels": self.levels,
            "monotone_ok": self.monotone_ok,
            "radical": self.radical_text,
            "radical_size": self.radical_size,
            "radical_power_ok": self.radical_power_ok,
            "element_power_ok": self.element_power_ok,
            "sharp": self.sharp,
            "reduction_ok": self.reduction_ok,
            "colons_ok": self.colons_ok,
            "chain_ok": self.chain_ok,
            "ok": self.ok,
        }


class RingAudit(Record):
    """Battery results for every ideal of one ring.

    `limit` is set, and `ideal_count` and `audits` are empty, when a
    scan of the ring would exceed its resource limit.
    """

    ring_spec: str
    size: int
    ideal_count: Optional[int]
    audits: tuple
    limit: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.limit is None and all(a.ok for a in self.audits)

    def as_dict(self) -> dict:
        entry = {
            "ring": self.ring_spec,
            "size": self.size,
            "ideal_count": self.ideal_count,
            "ideals": [a.as_dict() for a in self.audits],
            "ok": self.ok,
        }
        if self.limit is not None:
            entry["error"] = _limit_error(self.limit)
        return entry


def _limit_error(limit: str) -> dict:
    """A ring's record of a resource limit, of the kind the CLI reports."""
    return {"kind": error_kind(ResourceLimitError)[0], "message": limit}


def audit_ideal(
    ideal: Ideal, cap: int = DEFAULT_OMEGA_CAP, *, max_tuples: int = DEFAULT_MAX_TUPLES
) -> IdealAudit:
    """Run the full per-ideal check list; the unit ideal is only noted."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    ring = ideal.ring
    if ideal.is_unit:
        return IdealAudit(
            ideal_text=ideal.text(),
            size=len(ideal),
            skipped=True,
            skip_reason="unit ideal: the absorbing property is defined for proper ideals",
            omega_cap=cap,
        )

    reports = {n: is_n_absorbing(ideal, n, max_tuples=max_tuples) for n in range(1, cap + 1)}
    monotone_ok = all(
        not (reports[n].holds and not reports[n + 1].holds) for n in range(1, cap)
    )
    omega_value = next((n for n in range(1, cap + 1) if reports[n].holds), None)

    radical_power_ok = element_power_ok = sharp = None
    if omega_value is None:
        rad = radical(ideal)
    else:
        power_report = check_radical_power(ideal, omega_value, max_tuples=max_tuples)
        rad = power_report.radical
        radical_power_ok = power_report.holds
        element_power_ok = check_element_power(ideal, omega_value, max_tuples=max_tuples).holds
        if omega_value > 1:
            lower = ideal_power(rad, omega_value - 1)
            sharp = not lower.element_values <= ideal.element_values

    reduction_ok = all(
        check_quotient_reduction(ideal, n, max_tuples=max_tuples).holds
        for n in range(1, cap + 1)
    )

    colons_ok = chain_ok = None
    try:
        colons_ok = check_colons_two_absorbing(ideal, max_tuples=max_tuples).holds
    except HypothesisNotSatisfiedError:
        pass
    try:
        chain_ok = check_colon_chain(ideal, max_tuples=max_tuples).holds
    except HypothesisNotSatisfiedError:
        pass

    return IdealAudit(
        ideal_text=ideal.text(),
        size=len(ideal),
        omega_value=omega_value,
        omega_cap=cap,
        levels={str(n): reports[n].as_dict(ring) for n in reports},
        monotone_ok=monotone_ok,
        radical_text=rad.text(),
        radical_size=len(rad),
        radical_power_ok=radical_power_ok,
        element_power_ok=element_power_ok,
        sharp=sharp,
        reduction_ok=reduction_ok,
        colons_ok=colons_ok,
        chain_ok=chain_ok,
    )


def run_ring_audit(
    spec_text: str,
    cap: int = DEFAULT_OMEGA_CAP,
    max_ring_size: int = DEFAULT_MAX_RING_SIZE,
    *,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> RingAudit:
    """Audit every ideal of one ring.  A resource limit hit on the way
    is recorded in the result (`limit`) instead of raised."""
    descriptor = parse_ring_spec(spec_text, max_size=max_ring_size)
    ring = build_ring(descriptor, max_size=max_ring_size)
    spec = render_ring_spec(ring)
    try:
        ideals = enumerate_ideals(ring)
        audits = tuple(audit_ideal(ideal, cap, max_tuples=max_tuples) for ideal in ideals)
    except ResourceLimitError as exc:
        return RingAudit(spec, ring.size, None, (), limit=exc.limit)
    return RingAudit(
        ring_spec=spec,
        size=ring.size,
        ideal_count=len(ideals),
        audits=audits,
    )


def run_battery(
    specs: Sequence[str] = BUILTIN_CORPUS,
    cap: int = DEFAULT_OMEGA_CAP,
    max_ring_size: int = DEFAULT_MAX_RING_SIZE,
    *,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> list[RingAudit]:
    return [run_ring_audit(s, cap, max_ring_size, max_tuples=max_tuples) for s in specs]


def battery_report(audits: Sequence[RingAudit]) -> dict:
    return {
        "rings": [a.as_dict() for a in audits],
        "ok": all(a.ok for a in audits),
    }


# ---------------------------------------------------------------------------
# trace survey


def trace_survey(
    spec_text: str,
    *,
    seed: int = 0,
    limit: int = DEFAULT_TRACE_LIMIT,
    cap: int = DEFAULT_OMEGA_CAP,
    max_ring_size: int = DEFAULT_MAX_RING_SIZE,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> dict:
    """Generate and replay derivation traces for one ring's zero ideal.

    Trace generators range over tuples of nilpotents, all of them when
    there are at most `limit`, otherwise `limit` seeded random draws.
    Every trace must replay cleanly, and the radical power identity is
    cross-checked by plain ideal arithmetic.  `max_tuples` bounds every
    absorbing scan, omega's included; a resource limit hit on the way is
    recorded in the survey (`error`) instead of raised.
    """
    if limit < 1:
        raise ValueError(f"the trace limit must be at least 1, got {limit}")
    descriptor = parse_ring_spec(spec_text, max_size=max_ring_size)
    ring = build_ring(descriptor, max_size=max_ring_size)
    spec = render_ring_spec(ring)
    zero = Ideal.zero(ring)
    try:
        result = omega(zero, cap, max_tuples=max_tuples)
    except ResourceLimitError as exc:
        return {"ring": spec, "omega": None, "error": _limit_error(exc.limit)}
    if result.value is None:
        return {
            "ring": spec,
            "omega": None,
            "skipped": f"the zero ideal is not n-absorbing for any n up to {cap}",
        }
    n = result.value
    rad = radical(zero)
    nilpotents = sorted(rad.element_values)
    total = len(nilpotents) ** n
    if total <= limit:
        mode = "exhaustive"
        tuples = list(itertools.product(nilpotents, repeat=n))
    else:
        mode = "sampled"
        rng = random.Random(seed)
        tuples = [
            tuple(rng.choice(nilpotents) for _ in range(n)) for _ in range(limit)
        ]
    verified = 0
    total_steps = 0
    failures: list[dict] = []
    for gens in tuples:
        try:
            trace = prove_radical_power_zero(ring, gens, max_tuples=max_tuples)
        except ResourceLimitError as exc:
            return {"ring": spec, "omega": n, "error": _limit_error(exc.limit)}
        total_steps += len(trace.steps)
        replay = verify_trace(trace)
        if replay.ok:
            verified += 1
        else:
            failures.append(
                {
                    "generators": [ring.render_value(g) for g in gens],
                    "failures": list(replay.failures),
                }
            )
    survey = {
        "ring": spec,
        "omega": n,
        "nilpotent_count": len(nilpotents),
        "mode": mode,
        "tuples_checked": len(tuples),
        "verified": verified,
        "failed": len(failures),
        "failures": failures,
        "total_steps": total_steps,
        "radical_power_zero": ideal_power(rad, n).is_zero,
    }
    if mode == "sampled":
        survey["seed"] = seed
    return survey


# ---------------------------------------------------------------------------
# diagonal walk survey


def zero_diagonal_survey(
    spec_text: str,
    m: int,
    *,
    feasibility: int = DEFAULT_FEASIBILITY,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    max_ring_size: int = DEFAULT_MAX_RING_SIZE,
) -> dict:
    """Stress the diagonal walk on upper triangular m x m matrices.

    For each matrix the zero-coordinate property is decided exhaustively,
    over row suffixes (`zero_coordinate_decider`), then the walk runs.
    Lemma violations, all tallied: the property holds but the walk fails
    or takes more than m+1 probes; the walk certifies a diagonal entry
    that direct arithmetic says is nonzero; or the property holds
    although no diagonal entry is zero at all.
    Only the m(m+1)/2 cells on and above the diagonal vary, so matrices
    are enumerated exhaustively while |R|^(m(m+1)/2) stays within
    `feasibility`, otherwise `sample_size` of them are drawn with the
    given seed.
    """
    if m < 1:
        raise ValueError(f"matrix size must be at least 1, got {m}")
    if sample_size < 1:
        raise ValueError(f"the sample size must be at least 1, got {sample_size}")
    descriptor = parse_ring_spec(spec_text, max_size=max_ring_size)
    ring = build_ring(descriptor, max_size=max_ring_size)
    values = list(ring.iter_values())
    zero = ring.zero_value
    cells = [(i, j) for i in range(m) for j in range(i, m)]

    def rows_from(assignment) -> list[list]:
        rows = [[zero] * m for _ in range(m)]
        for (i, j), v in zip(cells, assignment):
            rows[i][j] = v
        return rows

    survey = {"ring": render_ring_spec(ring), "m": m}
    if len(values) ** len(cells) <= feasibility:
        assignments = itertools.product(values, repeat=len(cells))
        survey.update(mode="exhaustive", matrices_planned=len(values) ** len(cells))
    else:
        rng = random.Random(seed)
        assignments = (
            tuple(rng.choice(values) for _ in cells) for _ in range(sample_size)
        )
        survey.update(
            mode="sampled", matrices_planned=sample_size, sample_size=sample_size, seed=seed
        )

    checked = property_count = all_nonzero_diagonal_count = 0
    walks = {"walk_succeeded": 0, "walk_rejected": 0}
    violations: list[dict] = []
    holds_for = zero_coordinate_decider(ring)
    for assignment in assignments:
        checked += 1
        matrix = SquareMatrix(ring, rows_from(assignment))
        holds = holds_for(matrix.rows)
        diagonal_all_nonzero = all(matrix.rows[i][i] != zero for i in range(m))
        property_count += holds
        all_nonzero_diagonal_count += diagonal_all_nonzero
        outcome = _walk_outcome(matrix, holds, diagonal_all_nonzero)
        if outcome in walks:
            walks[outcome] += 1
        else:
            violations.append({"matrix": matrix.rendered_rows(), "problem": outcome})
    survey.update(
        walks,
        matrices_checked=checked,
        property_holds_count=property_count,
        all_nonzero_diagonal_count=all_nonzero_diagonal_count,
        lemma_violations=violations,
    )
    return survey


def zero_coordinate_decider(ring) -> Callable:
    """A function of the rows of an upper triangular matrix over `ring`
    that equals `is_projectively_zero(SquareMatrix(ring, rows)).holds`:
    does every image vector have a zero coordinate?

    In an upper triangular matrix, image coordinate i is
    `sum(M[i][j] * v_j for j >= i)`, so it depends only on `v_i..v_{m-1}`.
    Let F_i be the suffix vectors `(v_i, ..., v_{m-1})` whose image
    coordinates i..m-1 are all nonzero.  F_m holds only the empty vector,
    and F_i is the vectors `(v_i,) + w` with w in F_{i+1} and coordinate
    i nonzero; so F_i depends only on the block of rows and columns
    i..m-1.  The property holds exactly when F_0 is empty.  F of every
    proper block is memoised by the block's entries, so the matrices of
    a survey that share a lower right block build its F once; F_0 is
    searched only for its first vector.  The memo is emptied whenever it
    would hold more than `SUFFIX_MEMO_BUDGET` vectors, which bounds its
    memory and changes no answer.
    """
    values = tuple(ring.iter_values())
    add, mul, zero = ring.add_values, ring.mul_values, ring.zero_value
    memo: dict = {}
    kept = 0
    budget = SUFFIX_MEMO_BUDGET

    def nonzero_extensions(block, tails):
        # (v,) + w for w in tails, where the block's first coordinate is nonzero
        first, rest = block[0][0], block[0][1:]
        for v in values:
            start = mul(first, v)
            for w in tails:
                acc = start
                for entry, x in zip(rest, w):
                    acc = add(acc, mul(entry, x))
                if acc != zero:
                    yield (v,) + w

    def free(block) -> tuple:  # F of the block
        nonlocal kept
        if not block:
            return ((),)
        found = memo.get(block)
        if found is None:
            found = tuple(nonzero_extensions(block, free(_lower_block(block))))
            if kept + len(found) > budget:
                memo.clear()
                kept = 0
            memo[block] = found
            kept += len(found)
        return found

    def holds(rows) -> bool:
        block = tuple(map(tuple, rows))
        return next(nonzero_extensions(block, free(_lower_block(block))), None) is None

    return holds


def _lower_block(block: tuple) -> tuple:
    """The block without its first row and first column."""
    return tuple(row[1:] for row in block[1:])


def _walk_outcome(matrix: SquareMatrix, holds: bool, diagonal_all_nonzero: bool) -> str:
    """The walk's outcome on one matrix: "walk_succeeded", "walk_rejected"
    (refused without the property) or the text of the lemma violation."""
    if holds and diagonal_all_nonzero:
        return "property holds but every diagonal entry is nonzero"
    try:
        walk = find_zero_diagonal(matrix)
    except (LemmaPreconditionError, InvariantViolationError) as exc:
        return f"property holds but the walk failed: {exc}" if holds else "walk_rejected"
    if matrix.rows[walk.index][walk.index] != matrix.ring.zero_value:
        return f"walk certified nonzero entry ({walk.index},{walk.index})"
    if len(walk.j_sequence) > matrix.m + 1:
        return f"walk needed {len(walk.j_sequence)} probes for m = {matrix.m}"
    return "walk_succeeded"
