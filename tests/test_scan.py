"""The pruned absorbing scan and omega against plain recomputations."""

import itertools
import math
import types

import pytest

from absorbing_ideals import (
    BUILTIN_CORPUS,
    Ideal,
    build_ring,
    omega,
    parse_ring_spec,
    proper_ideals,
)
from absorbing_ideals import absorbing
from oracles import (
    closed_form_omega,
    irreducible_factor_count,
    naive_class_minima,
    naive_class_minimum_scan,
    naive_omega,
    naive_product,
    naive_units,
    prime_factor_count,
)
from test_rings import _count_multiplications, _generated_subgroup

EXTRA_SCAN_SPECS = (
    "Product:[Zmod:4,Zmod:6]",
    "Product:[Zmod:8,Zmod:9]",
    "Product:[Zmod:2,Zmod:2,Zmod:4]",
    "Zmod:72",
    "Quotient:{ring:Zmod:128,gens:[32]}",
    "PolyQuot:{p:2,poly:[0,0,0,0,0,1]}",
)
# levels whose multiset count C(c+n, n+1) exceeds this are not compared
SCAN_BOUND = 10**4


@pytest.mark.parametrize("spec", BUILTIN_CORPUS + EXTRA_SCAN_SPECS)
def test_pruned_scan_matches_the_plain_scan(spec):
    ring = build_ring(parse_ring_spec(spec))
    for ideal in proper_ideals(ring):
        candidates = absorbing._scan_candidates(ideal)
        for n in range(1, 7):
            if math.comb(len(candidates) + n, n + 1) > SCAN_BOUND:
                break
            expected = naive_class_minimum_scan(ideal, n, candidates)
            assert absorbing._scan_multisets(ideal, n, candidates) == expected, (
                spec,
                ideal.text(),
                n,
            )


@pytest.mark.parametrize("spec", BUILTIN_CORPUS + EXTRA_SCAN_SPECS)
def test_scan_candidates_are_the_class_minima(spec):
    ring = build_ring(parse_ring_spec(spec))
    for ideal in proper_ideals(ring):
        assert absorbing._scan_candidates(ideal) == naive_class_minima(ideal), (
            spec,
            ideal.text(),
        )


# the (ring, ideal generators) pairs of the benchmark's `large-ring`
# workload that scripts/bench_scan.py does not check against the
# all-units marking; it checks the other five
LARGE_RING_CASES = (
    ("Zmod:3600", ["60"]),
    ("Zmod:3600", ["420"]),
    ("Zmod:3600", ["660"]),
)


def _ideal(spec, gens):
    return _ideal_in(build_ring(parse_ring_spec(spec)), gens)


def _ideal_in(ring, gens):
    return Ideal.from_generators(ring, [ring.parse_value(g) for g in gens])


def _all_units_candidates(ideal):
    """Class minima in canonical order, each class marked by multiplying
    its minimum by every unit."""
    ring = ideal.ring
    units = ring.unit_values()
    marked, minima = set(), []
    for v in ring.iter_values():
        if v in units or v in ideal.element_values or v in marked:
            continue
        minima.append(v)
        marked.update(ring.mul_values(u, v) for u in units)
    return tuple(minima)


@pytest.mark.parametrize(
    "spec, gens", LARGE_RING_CASES, ids=[f"{s} ({','.join(g)})" for s, g in LARGE_RING_CASES]
)
def test_scan_candidates_match_the_all_units_marking_on_large_rings(spec, gens):
    ideal = _ideal(spec, gens)
    assert absorbing._scan_candidates(ideal) == _all_units_candidates(ideal)


@pytest.mark.parametrize(
    "spec, gens, all_units_work",
    [("Zmod:4096", [], 22528), ("Zmod:3600", ["780"], 30720)],
)
def test_class_walk_takes_at_most_a_third_of_the_all_units_marking(spec, gens, all_units_work):
    ideal = _ideal(spec, gens)
    units = ideal.ring.unit_values()
    # the units walk above found the generators, so this counts the
    # class walk alone
    calls = _count_multiplications(ideal.ring, lambda: absorbing._scan_candidates(ideal))
    assert ideal.ring._unit_generators is not None
    # marking each class minimum's class by every unit takes c*|U|
    assert len(absorbing._scan_candidates(ideal)) * len(units) == all_units_work
    assert calls <= all_units_work // 3


@pytest.mark.parametrize("spec, gens", [("Zmod:13", []), ("Zmod:4", ["2"])])
def test_no_candidate_costs_only_the_units_walk(spec, gens):
    ideal = _ideal(spec, gens)
    ring = ideal.ring
    assert ring._units is None and ring._unit_generators is None
    walk = _count_multiplications(ring, ring.unit_values)
    # the units and the generators come out of one walk, held to the
    # bound of a power walk over the ring
    assert ring._unit_generators is not None
    assert walk <= 2 * ring.size
    # no candidate: the class walk marks nothing and multiplies nothing
    assert _count_multiplications(ring, lambda: absorbing._scan_candidates(ideal)) == 0
    assert absorbing._scan_candidates(ideal) == ()


def _greedy_generators(ring, units):
    """Each unit in canonical order that lies outside the subgroup the
    units kept before it generate, that subgroup closed by brute force."""
    generators, subgroup = [], {ring.one_value}
    for u in sorted(units):
        if u not in subgroup:
            generators.append(u)
            subgroup = _generated_subgroup(ring, generators)
    return tuple(generators)


# the five rings of the `large-ring` workload with its ideals, then a
# field, a local ring and the smallest ring with all their proper ideals;
# each with the multiplications its units walk makes (the first
# generator's orbit is its walk's path, so it is walked once)
UNITS_WALK_CASES = (
    ("Zmod:4096", [[]], 4097),
    ("Zmod:3600", [["60"], ["420"], ["660"], ["780"]], 3623),
    ("Product:[Zmod:32,Zmod:32]", [[]], 1035),
    ("Quotient:{ring:Zmod:4000,gens:[1000]}", [[]], 1003),
    ("PolyQuot:{p:2,poly:[0,0,0,0,0,0,0,0,0,1]}", [[]], 519),
    ("Zmod:13", None, 12),
    ("PolyQuot:{p:3,poly:[0,0,0,1]}", None, 32),
    ("Zmod:2", None, 1),
)


@pytest.mark.parametrize(
    "spec, ideal_gens, walk", UNITS_WALK_CASES, ids=[case[0] for case in UNITS_WALK_CASES]
)
def test_units_walk_matches_the_oracles(spec, ideal_gens, walk):
    ring = build_ring(parse_ring_spec(spec))
    assert _count_multiplications(ring, ring.unit_values) == walk
    units = naive_units(ring)
    assert ring.unit_values() == units
    assert ring.unit_generators() == _greedy_generators(ring, units)
    if ideal_gens is None:
        ideals = list(proper_ideals(ring))
    else:
        ideals = [_ideal_in(ring, gens) for gens in ideal_gens]
    for ideal in ideals:
        assert absorbing._scan_candidates(ideal) == naive_class_minima(ideal, units), (
            spec,
            ideal.text(),
        )


def test_scan_skips_blocks_whose_prefix_lies_in_the_ideal(monkeypatch):
    # the zero ideal of Z4 x Z6 has 10 candidates and is 4-absorbing, so
    # the scan at n = 4 runs through all C(14, 5) multisets
    ring = build_ring(parse_ring_spec("Product:[Zmod:4,Zmod:6]"))
    ideal = Ideal.zero(ring)
    candidates = absorbing._scan_candidates(ideal)
    n = 4
    total = math.comb(len(candidates) + n, n + 1)
    assert total == 2002

    # a multiset is multiplied out one by one exactly when no product of
    # its first k <= n factors lies in the ideal
    members = ideal.element_values
    by_definition = sum(
        all(naive_product(ring, factors[:k]) not in members for k in range(1, n + 1))
        for factors in itertools.combinations_with_replacement(candidates, n + 1)
    )
    assert by_definition == 562

    # every other multiset is counted inside a skipped block
    blocks = []

    def comb(top, rest):
        blocks.append(math.comb(top, rest))
        return blocks[-1]

    monkeypatch.setattr(absorbing, "math", types.SimpleNamespace(comb=comb))
    assert absorbing._scan_multisets(ideal, n, candidates) == (True, None, total)
    assert sum(blocks) == total - 562 == 1440
    assert len(blocks) < 1440


# ---------------------------------------------------------------------------
# closed-form omega


def test_factor_counts():
    assert [prime_factor_count(d) for d in (2, 4, 12, 36, 81, 97, 210, 1024)] == [
        1, 2, 3, 4, 4, 1, 4, 10,
    ]
    # over F_2: x, x^5, 1+x+x^2 (irreducible), 1+x+x^2+x^3 = (1+x)^3,
    # 1+x^3 = (1+x)(1+x+x^2); over F_3: 1+x^2 (irreducible), 2+x^2 = (1+x)(2+x)
    cases = [
        ([0, 1], 2, 1),
        ([0, 0, 0, 0, 0, 1], 2, 5),
        ([1, 1, 1], 2, 1),
        ([1, 1, 1, 1], 2, 3),
        ([1, 0, 0, 1], 2, 2),
        ([1, 0, 1], 3, 1),
        ([2, 0, 1], 3, 2),
    ]
    for coeffs, p, count in cases:
        assert irreducible_factor_count(coeffs, p) == count, (coeffs, p)


# small enough for the brute-force oracle at the closed form's level
SMALL_SPECS = [f"Zmod:{n}" for n in range(2, 13)] + [
    "PolyQuot:{p:2,poly:[0,0,1]}",
    "PolyQuot:{p:2,poly:[1,1,1]}",
    "PolyQuot:{p:2,poly:[1,0,1]}",
    "PolyQuot:{p:3,poly:[0,0,1]}",
    "PolyQuot:{p:3,poly:[2,0,1]}",
    "PolyQuot:{p:2,poly:[0,0,0,1]}",
    "PolyQuot:{p:2,poly:[1,0,0,1]}",
    "Product:[Zmod:2,Zmod:2]",
    "Product:[Zmod:2,Zmod:3]",
    "Product:[Zmod:2,Zmod:4]",
    "Product:[Zmod:2,Zmod:2,Zmod:2]",
    "Product:[Zmod:2,PolyQuot:{p:2,poly:[0,0,1]}]",
    "Quotient:{ring:Zmod:16,gens:[4]}",
    "Quotient:{ring:Zmod:18,gens:[6]}",
]
# ordered tuples the oracle may walk at the top level of one ideal
NAIVE_BOUND = 5 * 10**4


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_closed_form_omega_matches_the_brute_force_oracle(spec):
    ring = build_ring(parse_ring_spec(spec))
    checked = 0
    for ideal in proper_ideals(ring):
        expected = closed_form_omega(ring, ideal.element_values)
        if ring.size ** (expected + 1) > NAIVE_BOUND:
            continue
        assert naive_omega(ideal, expected) == expected, (spec, ideal.text())
        checked += 1
    assert checked


# the six `deep-omega` jobs of the benchmark: (ring, ideal generators, cap)
DEEP_OMEGA_JOBS = (
    ("Zmod:32", [], 5),
    ("PolyQuot:{p:2,poly:[0,0,0,0,0,1]}", [], 5),
    ("Quotient:{ring:Zmod:128,gens:[32]}", [], 5),
    ("Zmod:81", [], 4),
    ("Product:[Zmod:4,Zmod:6]", [], 4),
    ("Zmod:64", ["8"], 4),
)
LARGER_SPECS = ("Zmod:48", "Zmod:60", "Zmod:72", "Zmod:96", "Zmod:128", "Zmod:210")


@pytest.mark.parametrize("spec", BUILTIN_CORPUS + LARGER_SPECS)
def test_omega_matches_the_closed_form(spec):
    ring = build_ring(parse_ring_spec(spec))
    for ideal in proper_ideals(ring):
        expected = closed_form_omega(ring, ideal.element_values)
        assert omega(ideal, cap=expected).value == expected, (spec, ideal.text())


@pytest.mark.parametrize("spec, gens, cap", DEEP_OMEGA_JOBS, ids=[j[0] for j in DEEP_OMEGA_JOBS])
def test_deep_omega_jobs_match_the_closed_form(spec, gens, cap):
    ring = build_ring(parse_ring_spec(spec))
    ideal = Ideal.from_generators(ring, [ring.parse_value(g) for g in gens])
    expected = closed_form_omega(ring, ideal.element_values)
    assert expected <= cap
    assert omega(ideal, cap=cap).value == expected


def test_scan_bench_checks_every_case_against_a_plain_scan(capsys, monkeypatch, load_script):
    bench = load_script("bench_scan")
    src = bench.harness.label(bench.harness.DEFAULT_SRC)
    assert bench.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"run 1: {src} total_ms ")
    assert len(lines) == 2 + len(bench.cases()) == 36
    assert "MISMATCH" not in "\n".join(lines)
    product_n4 = next(line for line in lines if line.startswith("Product:") and " n=4 " in line)
    assert " multisets  2002 multiplied   562 median_ms " in product_n4
    assert lines[-1].startswith(f"median of 1: {src} total_ms ")
    # a scan that differs from the plain one, or candidates that are not
    # the class minima, make the run exit 1
    scan = [True, None, 1]
    report = {"got": scan, "expected": scan, "candidates_ok": True, "multiplied": 1, "ms": [1.0]}
    for bad, verdict in (({"got": [False, None, 1]}, " MISMATCH got "),
                         ({"candidates_ok": False}, " MISMATCH candidates differ ")):
        reports = [dict(report, **bad)] * len(bench.cases())
        monkeypatch.setattr(bench, "run_once", lambda src, reports=reports: reports)
        assert bench.main(["--runs", "1"]) == 1
        assert verdict in capsys.readouterr().out
