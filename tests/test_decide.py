"""Constraint collection, feasible vectors, patterns, and the pipeline."""

import itertools
import random
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
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
    pipeline_decide,
    standard_alon_tarsi,
)
from choosability import decide as decide_module
from choosability.graphs import HEURISTICS, generate_family, order_vertices
from choosability.poly import RunStats, iter_terms, run_truncated_product

from _examples import (
    agreement_corpus,
    as_masks,
    as_vectors,
    coefficient_corpus,
    complete,
    cycle,
    fan,
    random_problem,
    wheel,
    wheel_extension,
)


def feasible_set(p):
    basis, witness, _ = collect_constraints(p)
    assert witness is None
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
def test_basis_extend_matches_adding_rows_in_turn(monkeypatch, n, start, rows, kept):
    reference, full = added_one_at_a_time(n, rows, start)
    basis, _ = added_one_at_a_time(n, [], start)
    bases = [(i,) * n for i in range(len(rows))]
    added = []
    add = ConstraintBasis.add

    def recorded_add(self, base, row):
        added.append(add(self, base, row))
        return added[-1]

    monkeypatch.setattr(ConstraintBasis, "add", recorded_add)
    assert basis.extend(bases, rows) is full
    # the batched reduction hands add only the rows it keeps
    assert added == [True] * len(kept)
    assert_same_basis(basis, reference)
    assert [cr.row for cr in basis.rows[len(start):]] == [rows[i] for i in kept]
    assert [cr.base for cr in basis.rows[len(start):]] == [bases[i] for i in kept]


class ReferenceSink:
    """The constraint sink written one group at a time: each tight group
    becomes a row offered to ``add`` in delivery order."""

    def __init__(self, n):
        self.basis = ConstraintBasis(n)
        self.witness = None

    def __call__(self, layout, terms):
        found = list(iter_terms(layout, terms))
        plain = [(f, c) for f, marker, c in found if marker is None]
        if plain:
            self.witness = plain[-1]
            return True
        n = layout.problem.n
        groups = {}
        for f, marker, c in found:
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
    assert batched.witness == reference.witness
    assert_same_basis(batched.basis, reference.basis)


def test_standard_witness_on_even_cycle():
    witness, _ = standard_alon_tarsi(cycle(4))
    assert witness == ((1, 1, 1, 1), -2)


def test_standard_has_no_witness_on_odd_cycle():
    witness, _ = standard_alon_tarsi(cycle(5))
    assert witness is None


def test_collect_constraints_short_circuits_on_witness():
    basis, witness, _ = collect_constraints(cycle(4))
    assert witness == ((1, 1, 1, 1), -2)


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


@st.composite
def scan_bases(draw):
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), max_size=3))
    basis = ConstraintBasis(n)
    # set the rows directly: the scan must be exact whatever rows it holds,
    # including rows the mod-p independence test would drop
    basis.rows = [ConstraintRow((0,) * n, tuple(row)) for row in rows]
    return n, basis


@settings(max_examples=200, deadline=None)
@given(scan_bases())
def test_feasible_enumeration_matches_an_exact_check_of_every_vector(case):
    n, basis = case
    every = (tuple((mask >> v) & 1 for v in range(n)) for mask in range(1 << n))
    expected = [chi for chi in every if basis.satisfied_by(chi)]
    masks = enumerate_feasible_vectors(basis, n)
    assert masks.dtype == np.int64
    assert as_vectors(masks, n) == expected


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
    assert len(many) > 1


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
    assert verdict.certificate == {"kind": "AllPatternsColorable", "count": 1}
    assert verdict.details["deletable_edges"] == [[1, 5], [3, 4]]


def test_pipeline_wheel_extension_has_no_composition():
    verdict = pipeline_decide(wheel_extension())
    assert verdict.status == CHOOSABLE
    assert verdict.certificate == {"kind": "NoComposition"}


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
    assert set(hit.details) == {"ordering", "standard_stats"}
    miss = pipeline_decide(cycle(5), mode="standard")
    assert (miss.status, miss.certificate, miss.reason) == (UNKNOWN, None, "NoWitness")
    assert set(miss.details) == {"ordering", "standard_stats"}


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


def test_pipeline_triangle_with_singleton_lists_is_unknown():
    verdict = pipeline_decide(complete(3, 1))
    assert verdict.status == UNKNOWN
    assert verdict.reason == "NoConstraints"


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
    # p112's first pattern is bad, so cap 1 is enough to refute it
    p112 = Problem(n=3, s=(1, 1, 2), edges=((0, 1), (1, 2)), name="p112")
    capped = pipeline_decide(p112, pattern_cap=1)
    _assert_refuted(p112, capped)
    assert capped.certificate == pipeline_decide(p112).certificate
    assert capped.details["pattern_count"] == 1
    assert capped.details["deletable_edges"] == []
    # here the first pattern colors and the second is bad
    p = Problem(n=4, s=(1, 1, 2, 3), edges=((0, 3), (1, 2), (1, 3), (2, 3)))
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


@pytest.mark.parametrize("cap", ["pattern_cap", "feasible_cap"])
def test_pipeline_rejects_a_cap_below_one(cap):
    with pytest.raises(ValueError):
        pipeline_decide(cycle(5), **{cap: 0})


def test_pipeline_feasible_cap_gives_unknown():
    verdict = pipeline_decide(cycle(5), feasible_cap=4)
    assert verdict.status == UNKNOWN
    assert verdict.reason == "FeasibleSearchTooLarge"


def test_pipeline_overflow_is_reported(monkeypatch):
    def boom(*args, **kwargs):
        raise CoefficientOverflow("forced")

    monkeypatch.setattr(decide_module, "run_truncated_product", boom)
    verdict = pipeline_decide(cycle(4))
    assert verdict.status == UNKNOWN
    assert verdict.reason == "Overflow"
    assert verdict.details == {
        "ordering": {"heuristic": "MD+PROC", "estimate": 11},
        "overflow": "forced",
    }


def test_pipeline_reports_no_feasible_vectors(monkeypatch):
    basis = ConstraintBasis(2)
    basis.add((0, 0), (1, 0))
    basis.add((0, 0), (0, 1))

    def fake_standard(p, ordering, branch_limit, prune_matching):
        return None, RunStats()

    def fake_collect(p, ordering, branch_limit):
        return basis, None, RunStats()

    monkeypatch.setattr(decide_module, "standard_alon_tarsi", fake_standard)
    monkeypatch.setattr(decide_module, "collect_constraints", fake_collect)
    p = Problem(n=2, s=(1, 1), edges=((0, 1),))
    verdict = pipeline_decide(p)
    assert verdict.status == CHOOSABLE
    assert verdict.certificate == {"kind": "NoFeasibleVectors", "rank": 2}


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
