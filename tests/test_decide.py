"""Constraint collection, feasible vectors, patterns, and the pipeline."""

import itertools
import random
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choosability import (
    CHOOSABLE,
    NOT_CHOOSABLE,
    UNKNOWN,
    CoefficientOverflow,
    ConstraintBasis,
    ConstraintRow,
    FeasibleSearchTooLarge,
    OracleLimitError,
    PatternCapExceeded,
    Problem,
    brute_force_choosable,
    collect_constraints,
    color_from_pattern,
    enumerate_assignment_patterns,
    enumerate_feasible_vectors,
    find_deletable_edges,
    parse_problem,
    pipeline_decide,
    standard_alon_tarsi,
)
from choosability import decide as decide_module
from choosability.graphs import DEFAULT_HEURISTIC, HEURISTICS, generate_family, order_vertices
from choosability.poly import RunStats, iter_terms, run_truncated_product

from _examples import (
    agreement_corpus,
    as_masks,
    as_vectors,
    coefficient_corpus,
    complete,
    cycle,
    diamond,
    fan,
    k33,
    random_problem,
    second_pattern_bad,
    theta,
    wheel,
    wheel_extension,
)


def feasible_set(p):
    assert standard_alon_tarsi(p)[0] is None
    basis, _ = collect_constraints(p)
    return basis, set(as_vectors(enumerate_feasible_vectors(basis, p.n), p.n))


# ------------------------------------------------------------- the basis

def test_basis_keeps_independent_rows_only():
    basis = ConstraintBasis(3)
    assert basis.add((0, 0, 0), (1, -1, 0))
    assert not basis.add((0, 0, 0), (-2, 2, 0))
    assert basis.add((0, 0, 0), (0, 1, -1))
    assert basis.rank == 2
    assert not basis.add((0, 0, 0), (1, 0, -1))
    assert not basis.add((0, 0, 0), (0, 0, 0))


def test_basis_satisfaction_is_exact():
    basis = ConstraintBasis(2)
    basis.add((0, 0), (2**40, -(2**40)))
    assert basis.satisfied_by((1, 1))
    assert basis.satisfied_by((0, 0))
    assert not basis.satisfied_by((1, 0))


def added_one_at_a_time(n, rows, start=()):
    """The basis ``add`` builds from start + rows, stopping at rank n,
    and whether it stopped."""
    basis = ConstraintBasis(n)
    for row in start:
        basis.add((0,) * n, row)
    for i, row in enumerate(rows):
        basis.add((i,) * n, row)
        if basis.rank == n:
            return basis, True
    return basis, False


def assert_same_basis(a, b):
    assert a.rows == b.rows
    assert a._echelon == b._echelon
    assert a.offered == b.offered


@pytest.mark.parametrize(
    "n, start, rows, kept",
    [
        # later rows depend on earlier rows of the same batch
        (4, [], [(1, -1, 0, 0), (2, -2, 0, 0), (0, 1, -1, 0), (1, 0, -1, 0),
                 (0, 0, 0, 0), (0, 0, 3, -3), (5, 0, 0, -5)], [0, 2, 5]),
        # rank n is reached partway: the last row is never offered
        (2, [], [(1, 0), (3, 0), (0, 5), (1, 1)], [0, 2]),
        # reduced against rows already held, with residues of big and
        # negative coefficients; (2^31, 0) is (1, 0) mod p
        (3, [(1, 1, 0)], [(-(2**40) - 7, 2**40 + 7, 0), (2**31, 0, 0),
                          (2**31 - 1, 0, -(2**33)), (-3, 1, 2**62)], [0, 2]),
        (2, [], np.zeros((0, 2), dtype=np.int64), []),
    ],
)
def test_basis_extend_matches_adding_rows_in_turn(n, start, rows, kept):
    reference, full = added_one_at_a_time(n, rows, start)
    basis, _ = added_one_at_a_time(n, [], start)
    bases = [(i,) * n for i in range(len(rows))]
    assert basis.extend(bases, rows) is full
    assert_same_basis(basis, reference)
    assert [cr.row for cr in basis.rows[len(start):]] == [rows[i] for i in kept]
    assert [cr.base for cr in basis.rows[len(start):]] == [bases[i] for i in kept]


class ReferenceSink:
    """The constraint sink written one group at a time: each tight group
    becomes a row offered to ``add`` in delivery order, and unmarked
    terms are passed over."""

    def __init__(self, n):
        self.basis = ConstraintBasis(n)

    def __call__(self, layout, terms):
        n = layout.problem.n
        groups = {}
        for f, marker, c in iter_terms(layout, terms):
            if marker is not None:
                groups.setdefault(f, [0] * n)[marker] = c
        for f, row in groups.items():
            self.basis.add(f, row)
            if self.basis.rank == n:
                return True
        return False


@st.composite
def small_problems(draw):
    n = draw(st.integers(2, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    s = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return Problem(n=n, s=tuple(s), edges=tuple(sorted(edges)))


@settings(max_examples=80, deadline=None)
@given(
    p=small_problems(),
    heuristic=st.sampled_from(HEURISTICS),
    branch_limit=st.sampled_from([None, 8, 50]),
)
def test_batched_sink_matches_adding_each_group_in_turn(p, heuristic, branch_limit):
    ordering = order_vertices(p, heuristic)
    runs = []
    for sink in (decide_module._ConstraintSink(p.n), ReferenceSink(p.n)):
        calls = []

        def counted(layout, terms, sink=sink):
            calls.append(len(terms))
            return sink(layout, terms)

        outcome, stats = run_truncated_product(
            p, ordering, mode="extended", branch_limit=branch_limit, sink=counted
        )
        runs.append((sink, outcome, stats, calls))
    (batched, *rest), (reference, *expected) = runs
    assert rest == expected
    assert_same_basis(batched.basis, reference.basis)


def test_standard_witness_on_even_cycle():
    witness, _ = standard_alon_tarsi(cycle(4))
    assert witness == ((1, 1, 1, 1), -2)


def test_standard_has_no_witness_on_odd_cycle():
    witness, _ = standard_alon_tarsi(cycle(5))
    assert witness is None


def test_collect_constraints_skips_unmarked_terms():
    # the extended product of an even cycle keeps its full-degree monomials
    p = cycle(4)
    terms = []
    run_truncated_product(
        p, order_vertices(p), mode="extended",
        sink=lambda layout, t: terms.extend(iter_terms(layout, t)),
    )
    assert ((1, 1, 1, 1), None, -2) in terms
    basis, _ = collect_constraints(p)
    reference = ReferenceSink(p.n)
    run_truncated_product(p, order_vertices(p), mode="extended", sink=reference)
    assert basis.rank > 0
    assert_same_basis(basis, reference.basis)


def test_triangle_constraints_pin_equal_endpoints():
    basis, feasible = feasible_set(complete(3, 2))
    assert basis.rank == 2
    assert [(r.base, r.row) for r in basis.rows] == [
        ((0, 1, 1), (0, -1, 1)),
        ((1, 0, 1), (1, 0, -1)),
    ]
    assert feasible == {(0, 0, 0), (1, 1, 1)}


def test_odd_cycle_feasible_vectors():
    basis, feasible = feasible_set(cycle(5))
    assert basis.rank == 4
    assert feasible == {(0, 0, 0, 0, 0), (1, 1, 1, 1, 1)}


def test_fan_feasible_vectors_and_deletable_edge():
    p = fan()
    basis, feasible = feasible_set(p)
    assert basis.rank == 3
    assert feasible == {
        (0, 0, 0, 0, 0),
        (1, 1, 1, 0, 0),
        (1, 0, 0, 1, 1),
    }
    nonzero = [chi for chi in feasible if any(chi)]
    assert find_deletable_edges(as_masks(nonzero), p) == [(2, 3)]


def test_wheel_feasible_vectors_and_deletable_edges():
    p = wheel()
    basis, feasible = feasible_set(p)
    assert {chi for chi in feasible if any(chi)} == {
        (1, 1, 1, 1, 0, 0),
        (1, 0, 0, 0, 1, 1),
    }
    nonzero = [chi for chi in feasible if any(chi)]
    assert set(find_deletable_edges(as_masks(nonzero), p)) == {(1, 5), (3, 4)}


def test_no_deletable_edges_on_odd_cycle():
    p = cycle(5)
    assert find_deletable_edges(as_masks([(1, 1, 1, 1, 1)]), p) == []


@settings(max_examples=100, deadline=None)
@given(p=small_problems(), data=st.data())
def test_deletable_edges_match_the_tuple_definition(p, data):
    masks = data.draw(st.lists(st.integers(0, (1 << p.n) - 1), max_size=40))
    vectors = as_vectors(masks, p.n)
    expected = [
        (u, v) for u, v in p.edges if not any(chi[u] and chi[v] for chi in vectors)
    ]
    assert find_deletable_edges(masks, p) == expected
    assert find_deletable_edges(np.array(masks, dtype=np.int64), p) == expected


def test_feasible_enumeration_without_rows_is_everything():
    basis = ConstraintBasis(2)
    assert set(as_vectors(enumerate_feasible_vectors(basis, 2), 2)) == {
        (0, 0), (0, 1), (1, 0), (1, 1)
    }


def test_feasible_enumeration_rejects_large_n():
    with pytest.raises(FeasibleSearchTooLarge):
        enumerate_feasible_vectors(ConstraintBasis(30), 30, cap=25)


@pytest.mark.parametrize("n", [48, 64])
def test_feasible_enumeration_refuses_arrays_it_cannot_allocate(n):
    # 2^48 bytes exceed the x86-64 user address space; 2^64 entries exceed
    # numpy's largest dimension.  Neither touches any memory.
    with pytest.raises(FeasibleSearchTooLarge):
        enumerate_feasible_vectors(ConstraintBasis(n), n, cap=n)


def test_feasible_enumeration_handles_huge_coefficients():
    basis = ConstraintBasis(2)
    basis.add((0, 0), (2**61, -(2**61)))
    assert set(as_vectors(enumerate_feasible_vectors(basis, 2), 2)) == {(0, 0), (1, 1)}


def test_full_rank_basis_leaves_only_zero():
    basis = ConstraintBasis(2)
    basis.add((0, 0), (1, 0))
    basis.add((0, 0), (0, 1))
    assert as_vectors(enumerate_feasible_vectors(basis, 2), 2) == [(0, 0)]


P = decide_module.P_FIELD


@pytest.mark.parametrize(
    "row",
    [
        # residues (0, 1) admit (1, 0), whose exact sum is p
        (P, 1),
        # absolute values summing to exactly p: (1, 1) sums to p
        (P - 1, 1),
    ],
)
def test_feasible_enumeration_rechecks_rows_that_vanish_mod_p(row):
    basis = ConstraintBasis(2)
    assert basis.add((0, 0), row)
    assert as_vectors(enumerate_feasible_vectors(basis, 2), 2) == [(0, 0)]


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(lambda d: 2**62 + d),
    st.integers(-3, 3).map(lambda d: -(2**62) + d),
    st.integers(-3, 3).map(lambda k: k * P),
    st.tuples(st.integers(-3, 3), st.integers(-1, 1)).map(lambda kd: kd[0] * P + kd[1]),
    st.sampled_from([2**63, -(2**63) - 1]),
)


def holding(n, rows):
    """(n, a basis holding exactly these rows)"""
    basis = ConstraintBasis(n)
    # set the rows directly: the scan must be exact whatever rows it holds,
    # including rows the mod-p independence test would drop
    basis.rows = [ConstraintRow((0,) * n, tuple(row)) for row in rows]
    return n, basis


@st.composite
def scan_bases(draw):
    n = draw(st.integers(1, 10))
    return holding(n, draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), max_size=3)))


Q = decide_module.SCAN_PRIMES[1]


@settings(max_examples=200, deadline=None)
@given(scan_bases())
# {0} sums to 0 mod p, and to 0 mod p and q: the second and third primes
@example(holding(2, [(P, 1)]))
@example(holding(2, [(P * Q, 1)]))
# the full mask sums to exactly 0
@example(holding(3, [(2**62, 2**62, -(2**63))]))
def test_feasible_enumeration_matches_an_exact_check_of_every_vector(case):
    n, basis = case
    every = (tuple((mask >> v) & 1 for v in range(n)) for mask in range(1 << n))
    expected = [chi for chi in every if basis.satisfied_by(chi)]
    masks = enumerate_feasible_vectors(basis, n)
    assert masks.dtype == np.int64
    assert as_vectors(masks, n) == expected


def test_feasible_enumeration_refuses_a_row_past_its_primes():
    bound = P * Q * decide_module.SCAN_PRIMES[2]
    with pytest.raises(FeasibleSearchTooLarge, match="absolute values"):
        enumerate_feasible_vectors(holding(2, [(bound, 0)])[1], 2)
    # one less is covered: chi(0) = 1 sums to bound - 1
    basis = holding(2, [(bound - 1, 0)])[1]
    assert as_vectors(enumerate_feasible_vectors(basis, 2), 2) == [(0, 0), (0, 1)]


# ------------------------------------------------------------- patterns

def test_fan_pattern_is_unique():
    patterns = enumerate_assignment_patterns(
        as_masks([(1, 1, 1, 0, 0), (1, 0, 0, 1, 1)]), (4, 2, 2, 2, 2)
    )
    assert patterns == [
        (((1, 1, 1, 0, 0), 2), ((1, 0, 0, 1, 1), 2)),
    ]


def test_wheel_pattern_is_unique():
    patterns = enumerate_assignment_patterns(
        as_masks([(1, 1, 1, 1, 0, 0), (1, 0, 0, 0, 1, 1)]), (5, 2, 2, 2, 3, 3)
    )
    assert patterns == [
        (((1, 1, 1, 1, 0, 0), 2), ((1, 0, 0, 0, 1, 1), 3)),
    ]


def test_no_composition_when_sizes_cannot_be_met():
    patterns = enumerate_assignment_patterns(
        as_masks([(1, 1, 1, 1, 0, 0, 1, 1)]), (5, 3, 3, 3, 2, 2, 2, 2)
    )
    assert patterns == []


def test_pattern_cap_is_enforced():
    vectors = as_masks(
        chi for chi in itertools.product((0, 1), repeat=3) if any(chi)
    )
    with pytest.raises(PatternCapExceeded):
        enumerate_assignment_patterns(vectors, (2, 2, 2), cap=1)
    many = enumerate_assignment_patterns(vectors, (2, 2, 2), cap=100)
    assert len(many) == 16
    # checked as Settings checks it: a cap of 1.5 never equals the count,
    # so it would cap nothing, and True would cap at 1
    for cap in (0, 1.5, True):
        with pytest.raises(ValueError, match="pattern cap"):
            enumerate_assignment_patterns(vectors, (2, 2, 2), cap=cap)


class _Enough(Exception):
    pass


def _reference_patterns(vectors, s, limit):
    """The first ``limit`` patterns of the pattern search on 0/1 tuples,
    written plainly: candidates sorted by tuple, the vertices still to
    fill kept as a set, and a node that skips candidate i takes every
    candidate before it 0 times."""
    n = len(s)
    cand = sorted(
        {tuple(v) for v in vectors if any(v)},
        key=lambda vec: (-sum(vec), tuple(-x for x in vec)),
    )
    supports = [[v for v in range(n) if vec[v]] for vec in cand]
    # covers[i]: the vertices some vector from cand[i] on marks
    covers = [set() for _ in range(len(cand) + 1)]
    for i in range(len(cand) - 1, -1, -1):
        covers[i] = covers[i + 1].union(supports[i])
    residual = list(s)
    chosen = []
    found = []

    def search(start):
        need = {v for v in range(n) if residual[v]}
        if not need:
            found.append(tuple(chosen))
            if len(found) == limit:
                raise _Enough
            return
        for i in range(start, len(cand)):
            if not need <= covers[i]:
                return
            sup = supports[i]
            if not need.issuperset(sup):
                continue
            for mult in range(min(residual[v] for v in sup), 0, -1):
                for v in sup:
                    residual[v] -= mult
                chosen.append((cand[i], mult))
                search(i + 1)
                chosen.pop()
                for v in sup:
                    residual[v] += mult

    try:
        search(0)
    except _Enough:
        pass
    return found


def _expected_patterns(vectors, s, cap, stop=None):
    """The reference list cut after the first pattern ``stop`` accepts,
    or the cap when the search needs more than cap patterns."""
    found = _reference_patterns(vectors, s, cap + 1)
    for k, pattern in enumerate(found[:cap]):
        if stop is not None and stop(pattern):
            return found[: k + 1]
    return ("cap", cap) if len(found) > cap else found


def _patterns_or_cap(masks, s, cap, stop=None):
    """The patterns the search returns, or the cap; checks that ``stop``
    saw exactly the patterns returned, and at most cap of them."""
    seen = []

    def recorded(pattern):
        seen.append(pattern)
        return stop(pattern)

    try:
        found = enumerate_assignment_patterns(
            masks, s, cap, stop=None if stop is None else recorded
        )
    except PatternCapExceeded as exc:
        assert len(seen) <= cap
        return ("cap", exc.cap)
    # stop sees each pattern as it is found, and none after it ends the list
    assert seen == ([] if stop is None else found)
    return found


@st.composite
def _vector_sets(draw):
    """Up to 300 masks on at most 12 vertices, the n of the largest
    random problems; zero and repeated masks included."""
    n = draw(st.integers(1, 12))
    size = draw(st.integers(0, 280))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size))
    masks += draw(st.lists(st.sampled_from(masks + [0]), max_size=20))
    s = draw(st.tuples(*[st.integers(1, 4)] * n))
    return masks, s


def _stop_on_hash(k):
    """A predicate true on about one pattern in k, and on every one at k = 1."""
    return lambda pattern: zlib.crc32(repr(pattern).encode()) % k == 0


@settings(max_examples=300, deadline=None)
@given(
    _vector_sets(),
    st.sampled_from((1, 5, 100)),
    st.one_of(st.none(), st.sampled_from((1, 2, 7, 40)).map(_stop_on_hash)),
)
def test_patterns_match_the_reference_search(case, cap, stop):
    masks, s = case
    assert _patterns_or_cap(masks, s, cap, stop) == (
        _expected_patterns(as_vectors(masks, len(s)), s, cap, stop)
    )


def test_patterns_match_the_reference_on_dense_vector_sets():
    # every nonzero vector on 3 and 4 vertices: many patterns, long walks
    for n in (3, 4):
        vectors = [chi for chi in itertools.product((0, 1), repeat=n) if any(chi)]
        for s in itertools.product((1, 2), repeat=n):
            for cap in (1, 5, 100):
                assert _patterns_or_cap(as_masks(vectors), s, cap) == (
                    _expected_patterns(vectors, s, cap)
                )


def test_pattern_search_depth_is_bounded_by_the_list_sizes():
    # 2,047 candidates: one call per candidate would pass the recursion limit
    masks = range(1, 1 << 11)
    with pytest.raises(PatternCapExceeded):
        enumerate_assignment_patterns(masks, (2,) * 11)


# ------------------------------------------------------------- pipeline

def test_pipeline_odd_cycle_not_choosable():
    verdict = pipeline_decide(cycle(5))
    assert verdict.status == NOT_CHOOSABLE
    assert verdict.certificate == {
        "kind": "BadAssignment",
        "pattern": [{"vector": [1, 1, 1, 1, 1], "multiplicity": 2}],
    }


def test_pipeline_fan_not_choosable():
    verdict = pipeline_decide(fan())
    assert verdict.status == NOT_CHOOSABLE
    assert verdict.certificate == {
        "kind": "BadAssignment",
        "pattern": [
            {"vector": [1, 1, 1, 0, 0], "multiplicity": 2},
            {"vector": [1, 0, 0, 1, 1], "multiplicity": 2},
        ],
    }
    assert verdict.details["deletable_edges"] == [[2, 3]]
    assert "deleted_edges" not in verdict.details


def test_pipeline_wheel_choosable_by_coloring_the_unique_pattern():
    verdict = pipeline_decide(wheel())
    assert verdict.status == CHOOSABLE
    assert verdict.certificate == {
        "kind": "AllPatternsColorable", "count": 1, "vertices": list(range(6))
    }
    assert verdict.details["deletable_edges"] == [[1, 5], [3, 4]]


def test_pipeline_wheel_extension_has_no_composition():
    # feasible vectors exist, but no multiset of them sums to s
    verdict = pipeline_decide(wheel_extension())
    assert verdict.status == CHOOSABLE
    assert verdict.certificate == {
        "kind": "AllPatternsColorable", "count": 0, "vertices": list(range(8))
    }
    assert verdict.details["feasible_vectors"] > 1
    assert verdict.details["pattern_count"] == 0


def test_pipeline_even_cycle_whispers_standard_witness():
    verdict = pipeline_decide(cycle(4))
    assert verdict.status == CHOOSABLE
    assert verdict.certificate == {
        "kind": "WitnessMonomial",
        "f": [1, 1, 1, 1],
        "coefficient": -2,
    }


def test_pipeline_standard_mode_stops_after_the_standard_stage():
    hit = pipeline_decide(cycle(4), mode="standard")
    assert hit.status == CHOOSABLE
    assert hit.certificate == {
        "kind": "WitnessMonomial",
        "f": [1, 1, 1, 1],
        "coefficient": -2,
    }
    assert set(hit.details) == {"reductions", "degree_bound", "ordering", "standard_stats"}
    # m = 9 > room = 6: the degree count settles it before any ordering
    miss = pipeline_decide(k33(), mode="standard")
    assert (miss.status, miss.certificate, miss.reason) == (UNKNOWN, None, "NoWitness")
    assert set(miss.details) == {"reductions", "degree_bound"}


def stage_inputs(seed, count=80):
    """Seeded random problems with every list at most its degree, as the
    stages take a component after R1; about a third fail the degree
    count, and a third meet the row bound exactly."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = random_problem(rng, n_range=(4, 7), m_cap=12, s_range=(2, 3))
        degrees = p.degrees()
        if 0 not in degrees:
            out.append(Problem(p.n, tuple(map(min, p.s, degrees)), p.edges))
    return out


@pytest.mark.parametrize("mode, slack", [("standard", 0), ("extended", 1)])
def test_no_term_survives_past_the_degree_count(mode, slack):
    # a witness has degree m with f(v) <= s(v) - 1; a marked term has one
    # unit more at one vertex
    past = 0
    for p in stage_inputs(31):
        delivered = []
        run_truncated_product(p, order_vertices(p, "MD+PROC"), mode=mode,
                              sink=lambda layout, terms: delivered.append(len(terms)))
        if p.m > sum(p.s) - p.n + slack:
            past += 1
            assert delivered == [], p
    assert 10 <= past < 80


@pytest.mark.parametrize("mode", decide_module.MODES)
def test_the_degree_count_decides_as_the_products_do(mode):
    skipped = 0
    for p in stage_inputs(31):
        verdict = decide_module._run_stages(p, decide_module.Settings(mode=mode))
        skipped += "ordering" not in verdict.details
        ordering = order_vertices(p, DEFAULT_HEURISTIC)
        witness, _ = standard_alon_tarsi(p, ordering)
        if witness is not None:
            f, coeff = witness
            cert = {"kind": "WitnessMonomial", "f": list(f), "coefficient": coeff}
            expected = (CHOOSABLE, cert, None)
        elif mode == "standard":
            expected = (UNKNOWN, None, "NoWitness")
        else:
            basis, _ = collect_constraints(p, ordering)
            assert verdict.details["constraint_rank"] == basis.rank, p
            if basis.rank:
                # the later stages run on the same rows either way
                assert verdict.reason != "NoConstraints", p
                continue
            expected = (UNKNOWN, None, "NoConstraints")
        assert (verdict.status, verdict.certificate, verdict.reason) == expected, p
    assert skipped >= 10


def test_the_degree_count_skips_both_products_on_k33():
    verdict = pipeline_decide(k33())
    assert (verdict.status, verdict.certificate, verdict.reason) == (
        UNKNOWN, None, "NoConstraints"
    )
    assert verdict.details["degree_bound"] == {"m": 9, "room": 6}
    assert verdict.details["constraint_rank"] == 0
    assert set(verdict.details) == {"reductions", "degree_bound", "constraint_rank"}


def test_the_degree_count_skips_only_the_standard_product_on_the_diamond():
    # m = 5 = room + 1: no witness can survive, but a row can
    verdict = pipeline_decide(diamond())
    assert verdict.details["degree_bound"] == {"m": 5, "room": 4}
    assert "standard_stats" not in verdict.details
    assert "extended_stats" in verdict.details
    assert (verdict.status, verdict.certificate) == (NOT_CHOOSABLE, {
        "kind": "BadAssignment",
        "pattern": [{"vector": [1, 1, 1, 1], "multiplicity": 2}],
    })


def test_pipeline_rejects_unknown_mode():
    for mode in ("fast", "extended"):
        with pytest.raises(ValueError):
            pipeline_decide(cycle(4), mode=mode)


def test_pipeline_edgeless_graph():
    p = Problem(n=1, s=(1,), edges=())
    verdict = pipeline_decide(p)
    assert verdict.status == CHOOSABLE
    assert verdict.certificate == {
        "kind": "WitnessMonomial",
        "f": [0],
        "coefficient": 1,
    }


def test_pipeline_single_edge_equal_singletons():
    p = Problem(n=2, s=(1, 1), edges=((0, 1),))
    verdict = pipeline_decide(p)
    assert verdict.status == NOT_CHOOSABLE
    assert verdict.certificate["pattern"] == [
        {"vector": [1, 1], "multiplicity": 1}
    ]


def test_pipeline_triangle_with_singleton_lists_is_refuted():
    # R2 deletes vertex 0 and empties the lists of 1 and 2
    p = complete(3, 1)
    verdict = pipeline_decide(p)
    _assert_refuted(p, verdict)
    assert verdict.certificate["pattern"] == [{"vector": [1, 1, 1], "multiplicity": 1}]
    assert verdict.details == {
        "reductions": {"R1": 0, "R2": 1, "R4": 0, "components": 0, "decided_by": "R2"}
    }


def _assert_refuted(p, verdict, **limits):
    """A NOT_CHOOSABLE verdict whose lists sum to s and cannot be colored,
    on a problem brute force, under ``limits``, finds not choosable."""
    assert verdict.status == NOT_CHOOSABLE, p.name
    assert verdict.certificate["kind"] == "BadAssignment"
    pattern = [
        (tuple(entry["vector"]), entry["multiplicity"])
        for entry in verdict.certificate["pattern"]
    ]
    assert [sum(mult * vec[v] for vec, mult in pattern) for v in range(p.n)] == list(p.s)
    assert color_from_pattern(p, pattern) is None, p.name
    assert brute_force_choosable(p, **limits)[0] is False, p.name


def test_pipeline_pattern_cap_without_deletable_edges():
    # the diamond's first pattern is bad, so cap 1 is enough to refute it
    capped = pipeline_decide(diamond(), pattern_cap=1)
    _assert_refuted(diamond(), capped)
    assert capped.certificate == pipeline_decide(diamond()).certificate
    assert capped.details["pattern_count"] == 1
    assert capped.details["deletable_edges"] == []
    # here the first pattern colors and the second is bad
    p = second_pattern_bad()
    capped = pipeline_decide(p, pattern_cap=1)
    assert (capped.status, capped.certificate) == (UNKNOWN, None)
    assert capped.reason == "TooManyPatterns"
    assert capped.details["deletable_edges"] == []
    assert "pattern_count" not in capped.details
    enough = pipeline_decide(p, pattern_cap=2)
    _assert_refuted(p, enough)
    assert enough.details["pattern_count"] == 2


def test_corpora_are_decided_within_the_pattern_cap():
    # The pattern stage colors each pattern as it is found, so no corpus
    # problem needs more than the default cap.  A refutation is checked
    # by coloring and, where brute force stays within its limits, by brute
    # force; a CHOOSABLE verdict needs the whole brute-force enumeration,
    # so only the small ones are checked that way.
    checked = 0
    for p in coefficient_corpus() + agreement_corpus():
        verdict = pipeline_decide(p)
        assert verdict.reason != "TooManyPatterns", p.name
        if verdict.status == UNKNOWN:
            continue
        try:
            if verdict.status == NOT_CHOOSABLE:
                _assert_refuted(p, verdict, max_nodes=20_000)
            else:
                assert brute_force_choosable(p, max_total=12)[0] is True, p.name
            checked += 1
        except OracleLimitError:
            pass
    assert checked >= 90


@pytest.mark.parametrize("cap", ["pattern_cap"])
def test_pipeline_rejects_a_cap_below_one(cap):
    with pytest.raises(ValueError):
        pipeline_decide(cycle(5), **{cap: 0})


@pytest.mark.parametrize(
    "bad",
    [{"heuristic": "BOGUS"}, {"branch_limit": 0}, {"branch_limit": -5},
     {"pattern_cap": 1.5}, {"pattern_cap": True}, {"mode": "extended"},
     {"branch_limit": True}, {"branch_limit": 2.5}],
)
def test_pipeline_rejects_bad_settings_the_reductions_would_not_use(bad):
    # R2 refutes the triangle before any stage runs; on the last problem
    # the pattern count never equals 1.5, so such a cap would cap nothing
    # and the search would walk on past the pattern where cap 1 stops it
    triangle = Problem(n=3, s=(1, 1, 1), edges=((0, 1), (0, 2), (1, 2)))
    assert pipeline_decide(triangle).status == NOT_CHOOSABLE
    assert pipeline_decide(second_pattern_bad(), pattern_cap=1).reason == "TooManyPatterns"
    for p in (triangle, generate_family("cycle-triangles", 3), second_pattern_bad()):
        with pytest.raises(ValueError):
            pipeline_decide(p, **bad)


def test_pipeline_feasible_cap_gives_unknown():
    verdict = pipeline_decide(theta())
    assert verdict.status == UNKNOWN
    assert verdict.reason == "FeasibleSearchTooLarge"
    assert verdict.details["constraint_rank"] == 1
    assert "feasible_vectors" not in verdict.details


def test_tight_12_settles_only_past_the_default_pattern_cap():
    # the pattern cap stays a setting: this 24-edge graph is settled by
    # raising it, with 1,528 patterns, all colorable
    p = parse_problem((Path(__file__).parent / "tight-12.prob").read_text())
    verdict = pipeline_decide(p)
    assert (verdict.status, verdict.reason) == (UNKNOWN, "TooManyPatterns")
    assert verdict.details["feasible_vectors"] == 20
    assert pipeline_decide(p, pattern_cap=1527).reason == "TooManyPatterns"
    verdict = pipeline_decide(p, pattern_cap=1528)
    assert verdict.status == CHOOSABLE
    assert verdict.certificate["kind"] == "AllPatternsColorable"
    assert verdict.certificate["count"] == verdict.details["pattern_count"] == 1528


def test_pipeline_overflow_is_reported(monkeypatch):
    def boom(*args, **kwargs):
        raise CoefficientOverflow("forced")

    monkeypatch.setattr(decide_module, "run_truncated_product", boom)
    verdict = pipeline_decide(cycle(4))
    assert verdict.status == UNKNOWN
    assert verdict.reason == "Overflow"
    assert verdict.details == {
        "reductions": {"R1": 0, "R2": 0, "R4": 0, "components": 1, "decided_by": "stages"},
        "degree_bound": {"m": 4, "room": 4},
        "ordering": {"heuristic": "MD+PROC", "estimate": 11},
        "overflow": "forced",
    }


def test_pipeline_overflow_in_the_extended_stage_is_reported(monkeypatch):
    def boom(*args, **kwargs):
        raise CoefficientOverflow("forced")

    monkeypatch.setattr(decide_module, "collect_constraints", boom)
    verdict = pipeline_decide(fan())
    assert (verdict.status, verdict.certificate, verdict.reason) == (UNKNOWN, None, "Overflow")
    assert sorted(verdict.details) == [
        "degree_bound", "ordering", "overflow", "reductions", "standard_stats"
    ]
    assert verdict.details["overflow"] == "forced"


def test_pipeline_reports_no_feasible_vectors(monkeypatch):
    basis = ConstraintBasis(2)
    basis.add((0, 0), (1, 0))
    basis.add((0, 0), (0, 1))

    def fake_standard(p, ordering, branch_limit, prune_matching):
        return None, RunStats()

    def fake_collect(p, ordering, branch_limit):
        return basis, RunStats()

    monkeypatch.setattr(decide_module, "standard_alon_tarsi", fake_standard)
    monkeypatch.setattr(decide_module, "collect_constraints", fake_collect)
    # R2 would refute this problem before any stage ran
    p = Problem(n=2, s=(1, 1), edges=((0, 1),))
    verdict = decide_module._run_stages(p, decide_module.Settings())
    # no nonzero vector, so no pattern: every admissible assignment colors
    assert (verdict.status, verdict.certificate, verdict.reason) == (
        CHOOSABLE, {"kind": "AllPatternsColorable", "count": 0}, None
    )
    assert verdict.details["constraint_rank"] == 2
    assert verdict.details["feasible_vectors"] == 1
    assert verdict.details["pattern_count"] == 0


def test_pipeline_takes_lists_longer_than_n_at_length_n_plus_one():
    rng = random.Random(53)
    seen = set()
    for _ in range(60):
        p = random_problem(rng, n_range=(2, 5), m_cap=8, s_range=(1, 3))
        huge = rng.randrange(p.n)
        p = Problem(p.n, p.s[:huge] + (2**40,) + p.s[huge + 1 :], p.edges)
        verdict = pipeline_decide(p)
        seen.add(verdict.status)
        if verdict.status == UNKNOWN:
            continue
        # more colors than neighbours make no difference
        degrees = p.degrees()
        trimmed = Problem(p.n, tuple(min(x, d + 1) for x, d in zip(p.s, degrees)), p.edges)
        assert (verdict.status == CHOOSABLE) == brute_force_choosable(trimmed)[0], p
        if verdict.status == NOT_CHOOSABLE:
            pattern = [
                (tuple(entry["vector"]), entry["multiplicity"])
                for entry in verdict.certificate["pattern"]
            ]
            cover = [sum(mult * vec[v] for vec, mult in pattern) for v in range(p.n)]
            assert cover == list(p.s)
            assert color_from_pattern(p, pattern) is None
    assert {CHOOSABLE, NOT_CHOOSABLE} <= seen


def test_pipeline_verdict_invariant_under_branch_limits():
    for p in (cycle(5), cycle(4), fan(), wheel(), wheel_extension()):
        reference = pipeline_decide(p, branch_limit=10**6)
        for limit in (1, 8):
            other = pipeline_decide(p, branch_limit=limit)
            assert (other.status, other.certificate) == (
                reference.status,
                reference.certificate,
            )


def test_verdicts_do_not_depend_on_the_ordering_heuristic():
    # certificates may differ between orderings (they do on most of these
    # problems); the status may not
    for p in coefficient_corpus() + agreement_corpus():
        statuses = {pipeline_decide(p, heuristic=h).status for h in HEURISTICS}
        assert len(statuses) == 1, (p, statuses)


@pytest.mark.parametrize("params, branch_limit", [((8,), None), ((12,), 10**5)])
def test_default_ordering_keeps_cycle_triangles_small(params, branch_limit):
    # under MD+PROC these make 34.3 M monomials and more
    p = generate_family("cycle-triangles", *params)
    verdict = pipeline_decide(p, mode="standard", branch_limit=branch_limit)
    assert verdict.details["ordering"]["heuristic"] == "VSEP"
    assert verdict.details["standard_stats"]["total_monomials"] < 10**5
    assert verdict.status == CHOOSABLE
    f = verdict.certificate["f"]
    assert all(fv < sv for fv, sv in zip(f, p.s)) and sum(f) == p.m


def test_glued_cliques_3_5_is_refuted_at_paper_scale():
    p = generate_family("glued-cliques", 3, 5)
    start = time.monotonic()
    verdict = pipeline_decide(p)
    elapsed = time.monotonic() - start
    assert verdict.status == NOT_CHOOSABLE
    assert verdict.certificate["kind"] == "BadAssignment"
    pattern = [
        (tuple(entry["vector"]), entry["multiplicity"])
        for entry in verdict.certificate["pattern"]
    ]
    assert color_from_pattern(p, pattern) is None
    # one part per distinct prefix took about 15 s here
    assert elapsed < 10.0
