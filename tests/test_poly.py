"""Packed layouts, edge multiplication, and the sequentialized driver."""

import inspect
import itertools
import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosability import (
    CoefficientOverflow,
    Problem,
    VertexOrdering,
    decide,
    direct_coefficient,
    order_vertices,
    pipeline_decide,
    poly,
)
from choosability.graphs import DEFAULT_HEURISTIC, generate_family
from choosability.oracle import orientable_within_budget
from choosability.poly import (
    DegreeLayout,
    TermList,
    iter_terms,
    multiply_edge_extended,
    multiply_edge_standard,
    run_truncated_product,
    unpack_terms,
)
from choosability.decide import ConstraintBasis, _ConstraintSink

from _examples import agreement_corpus, coefficient_corpus, cycle, complete, fan, random_problem
from _references import is_strictly_sorted, pack, unpack


class Collector:
    """Sink that keeps every delivered term and checks sortedness."""

    def __init__(self):
        self.terms = []
        self.deliveries = 0

    def __call__(self, layout, terms):
        assert is_strictly_sorted(terms)
        self.deliveries += 1
        self.terms.extend(iter_terms(layout, terms))
        return False


def collect(p, mode="standard", branch_limit=None, heuristic="INPUT", **kw):
    sink = Collector()
    outcome, stats = run_truncated_product(
        p, order_vertices(p, heuristic), mode=mode, branch_limit=branch_limit,
        sink=sink, **kw,
    )
    return sink, outcome, stats


# ---------------------------------------------------------------- layout

@st.composite
def problem_and_degrees(draw):
    n = draw(st.integers(1, 8))
    s = tuple(draw(st.integers(1, 7)) for _ in range(n))
    f = tuple(draw(st.integers(0, s[v])) for v in range(n))
    g = tuple(draw(st.integers(0, s[v])) for v in range(n))
    seed = draw(st.integers(0, 2**16))
    return Problem(n=n, s=s, edges=()), f, g, seed


@given(problem_and_degrees())
@settings(max_examples=120, deadline=None)
def test_pack_unpack_round_trip_and_order(case):
    p, f, g, seed = case
    order = list(range(p.n))
    random.Random(seed).shuffle(order)
    layout = DegreeLayout(p, VertexOrdering(order=tuple(order)))
    assert unpack(layout, pack(layout, f)) == f
    key_f = tuple(int(x) for x in pack(layout, f))
    key_g = tuple(int(x) for x in pack(layout, g))
    by_position = lambda h: tuple(h[v] for v in layout.ordering.order)
    assert (key_f < key_g) == (by_position(f) < by_position(g))


def test_pack_rejects_out_of_range():
    p = Problem(n=2, s=(2, 2), edges=((0, 1),))
    layout = DegreeLayout(p, order_vertices(p, "INPUT"))
    with pytest.raises(ValueError):
        pack(layout, (3, 0))
    with pytest.raises(ValueError):
        pack(layout, (-1, 0))


def test_layout_rejects_fields_wider_than_a_word():
    widest = Problem(n=2, s=(2**64 - 1, 1), edges=((0, 1),))
    layout = DegreeLayout(widest, order_vertices(widest, "INPUT"))
    assert layout.bits == 64
    assert unpack(layout, pack(layout, (2**64 - 1, 1))) == (2**64 - 1, 1)
    # a wider field is refused when the problem is built, so no layout,
    # and no reduction that would delete the vertex, ever sees it
    with pytest.raises(ValueError, match="64-bit field"):
        Problem(n=2, s=(2**64, 1), edges=((0, 1),))


def test_layout_spans_multiple_words():
    p = Problem(n=14, s=(31,) * 14, edges=())
    layout = DegreeLayout(p, order_vertices(p, "INPUT"))
    assert layout.words >= 2
    f = tuple((5 * v) % 32 for v in range(14))
    assert unpack(layout, pack(layout, f)) == f


# ---------------------------------------------------------- multiply ops

def _term_list(layout, entries):
    entries = sorted(entries, key=lambda e: tuple(int(x) for x in pack(layout, e[0])))
    keys = np.stack([pack(layout, f) for f, _ in entries])
    coeffs = np.array([c for _, c in entries], dtype=np.int64)
    return TermList(keys, coeffs)


def test_single_edge_standard():
    p = Problem(n=2, s=(2, 2), edges=((0, 1),))
    layout = DegreeLayout(p, order_vertices(p, "INPUT"))
    out = multiply_edge_standard(TermList.unit(layout), 0, 1, layout)
    assert list(iter_terms(layout, out)) == [
        ((0, 1), None, 1),
        ((1, 0), None, -1),
    ]


def test_single_edge_standard_truncates_head():
    p = Problem(n=2, s=(2, 1), edges=((0, 1),))
    layout = DegreeLayout(p, order_vertices(p, "INPUT"))
    out = multiply_edge_standard(TermList.unit(layout), 0, 1, layout)
    assert list(iter_terms(layout, out)) == [((1, 0), None, -1)]


def test_standard_multiply_cancels_middle_terms():
    # (x0 + x1)(x1 - x0) = x1^2 - x0^2
    p = Problem(n=2, s=(3, 3), edges=((0, 1),))
    layout = DegreeLayout(p, order_vertices(p, "INPUT"))
    start = _term_list(layout, [((1, 0), 1), ((0, 1), 1)])
    out = multiply_edge_standard(start, 0, 1, layout)
    assert list(iter_terms(layout, out)) == [
        ((0, 2), None, 1),
        ((2, 0), None, -1),
    ]


def test_k3_standard_truncates_to_nothing():
    sink, outcome, _ = collect(complete(3, 2))
    assert outcome == "completed"
    assert sink.terms == []


def test_single_edge_extended_marks_both_sides():
    p = Problem(n=2, s=(1, 1), edges=((0, 1),))
    layout = DegreeLayout(p, order_vertices(p, "INPUT"))
    out = multiply_edge_extended(TermList.unit(layout), 0, 1, layout)
    assert list(iter_terms(layout, out)) == [
        ((0, 0), 0, -1),
        ((0, 0), 1, 1),
    ]


def test_k3_extended_final_terms():
    sink, _, _ = collect(complete(3, 2), mode="extended")
    assert sink.terms == [
        ((0, 1, 1), 1, -1),
        ((0, 1, 1), 2, 1),
        ((1, 0, 1), 0, 1),
        ((1, 0, 1), 2, -1),
        ((1, 1, 0), 0, -1),
        ((1, 1, 0), 1, 1),
    ]


def test_c5_extended_group_coefficients():
    sink, _, _ = collect(cycle(5), mode="extended")
    group = {
        marker: coeff
        for f, marker, coeff in sink.terms
        if f == (1, 1, 1, 1, 0)
    }
    assert group == {0: -1, 1: 1, 2: -1, 3: 1}


def test_extended_groups_share_base_and_markers_are_tight():
    """The rows the constraint sink forms are the delivered tight groups:
    one row per degree base, holding every term of that base, with each
    marker at a tight coordinate."""

    class Recorder(ConstraintBasis):
        def extend(self, bases, rows):
            batches.append((bases, rows))
            return False

    for p, limit in ((cycle(5), None), (fan(), 4), (complete(4, 3), 8)):
        ordering = order_vertices(p, "INPUT")
        sink = _ConstraintSink(p.n)
        sink.basis = Recorder(p.n)
        delivered, batches = [], []

        def record(lay, terms):
            delivered.append(list(iter_terms(lay, terms)))
            return sink(lay, terms)

        run_truncated_product(p, ordering, "extended", limit, record)
        assert len(delivered) == len(batches) > 0
        for terms, (bases, rows) in zip(delivered, batches):
            assert all(marker is not None for _, marker, _ in terms)
            assert len(bases) == len({f for f, _, _ in terms})
            grouped = [
                (tuple(int(x) for x in base), v, int(row[v]))
                for base, row in zip(bases, rows)
                for v in range(p.n)
                if row[v]
            ]
            # under INPUT a group's markers sort by vertex index, as rows do
            assert grouped == terms
            for base, marker, _ in grouped:
                assert base[marker] == p.s[marker] - 1


@st.composite
def problem_and_term_list(draw):
    """A random problem whose fields fill one or two words, with a random
    starting term list that may overflow on the next edge."""
    bits = draw(st.sampled_from([2, 3, 5, 8]))
    # near a full word, the marker field decides between one and two words
    per_word = 64 // bits
    n = draw(st.one_of(st.integers(2, 6), st.integers(per_word - 2, per_word + 1)))
    s = tuple(draw(st.integers(2 ** (bits - 1), 2**bits - 1)) for _ in range(n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = tuple(sorted(draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=8))))
    degrees = st.tuples(*(st.integers(0, sv) for sv in s))
    coeffs = st.one_of(st.integers(-3, 3).filter(bool), st.sampled_from([2**62, -(2**62)]))
    start = draw(st.dictionaries(degrees, coeffs, min_size=1, max_size=20))
    # partners that the first edge merges into the same key, so that
    # coefficients combine and, at +-2^62, can overflow
    tail, head = edges[0]
    for f in list(start):
        if f[tail] > 0 and f[head] < s[head] and draw(st.booleans()):
            g = list(f)
            g[tail] -= 1
            g[head] += 1
            start.setdefault(tuple(g), draw(coeffs))
    return Problem(n=n, s=s, edges=edges), sorted(start.items())


def _standard_chain(p, layout, start):
    """Unpacked terms after each edge, ending in "overflow" if one raises."""
    terms = _term_list(layout, start)
    out = []
    for u, v in p.edges:
        try:
            terms = multiply_edge_standard(terms, u, v, layout)
        except CoefficientOverflow:
            return out + ["overflow"]
        degrees, markers, coeffs = unpack_terms(layout, terms)
        assert (markers == -1).all()
        out.append((degrees.tolist(), coeffs.tolist()))
    return out


@given(problem_and_term_list())
@settings(max_examples=150, deadline=None)
def test_standard_multiply_does_not_need_the_marker_field(case):
    p, start = case
    ordering = order_vertices(p, "INPUT")
    marked = DegreeLayout(p, ordering)
    plain = DegreeLayout(p, ordering, marked=False)
    assert plain.marker_bits == 0 and plain.words in (marked.words, marked.words - 1)
    assert _standard_chain(p, plain, start) == _standard_chain(p, marked, start)


@pytest.mark.parametrize("family", [("grid-diag", 4), ("cycle-triangles", 10)])
def test_standard_runs_of_paper_families_use_one_word(family):
    p = generate_family(*family)
    words = []

    def first(layout, terms):
        words.append(layout.words)
        return True

    run_truncated_product(p, order_vertices(p, DEFAULT_HEURISTIC), sink=first)
    assert words == [1]
    # the marker field is what would take the keys into a second word
    assert DegreeLayout(p, order_vertices(p, "INPUT")).words == 2


def test_extended_multiply_refuses_an_unmarked_layout():
    p = Problem(n=2, s=(1, 1), edges=((0, 1),))
    layout = DegreeLayout(p, order_vertices(p, "INPUT"), marked=False)
    with pytest.raises(ValueError, match="no marker field"):
        multiply_edge_extended(TermList.unit(layout), 0, 1, layout)


# ------------------------------------------------------------- the driver

def test_driver_rejects_bad_mode_and_limit():
    p = cycle(4)
    ordering = order_vertices(p, "INPUT")
    with pytest.raises(ValueError):
        run_truncated_product(p, ordering, mode="fancy")
    # Settings refuses these limits, and so does the driver itself
    for limit in (0, True, 2.5):
        with pytest.raises(ValueError, match="branch limit"):
            run_truncated_product(p, ordering, branch_limit=limit)


def test_standard_final_terms_match_direct_oracle():
    rng = random.Random(4)
    for i in range(8):
        p = random_problem(rng, n_range=(3, 6), m_cap=9, name="t%d" % i)
        sink, _, _ = collect(p, heuristic="MD+PROC")
        for f, marker, coeff in sink.terms:
            assert marker is None
            assert direct_coefficient(p, f) == coeff
        produced = {f for f, _, _ in sink.terms}
        for f in itertools.product(*(range(size) for size in p.s)):
            if sum(f) == p.m and f not in produced:
                assert direct_coefficient(p, f) == 0


def test_edge_order_does_not_change_the_product():
    rng = random.Random(11)
    for i in range(6):
        p = random_problem(rng, n_range=(3, 6), m_cap=8, name="s%d" % i)
        layout = DegreeLayout(p, order_vertices(p, "INPUT"))
        reference = None
        for shuffle in range(3):
            edges = list(p.edges)
            rng.shuffle(edges)
            terms = TermList.unit(layout)
            for u, v in edges:
                terms = multiply_edge_standard(terms, u, v, layout)
            result = sorted(iter_terms(layout, terms))
            if reference is None:
                reference = result
            else:
                assert result == reference


@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_branch_limit_does_not_change_final_terms(mode):
    rng = random.Random(21)
    for i in range(6):
        p = random_problem(rng, n_range=(4, 7), m_cap=10, name="n%d" % i)
        reference = None
        for limit in (1, 8, None):
            sink, _, _ = collect(p, mode=mode, branch_limit=limit)
            result = sorted(sink.terms)
            if reference is None:
                reference = result
            else:
                assert result == reference


SPLIT_LIMITS = (1, 2, 8, 50, None)


class DeliveryRecorder:
    """Sink that keeps each delivery's keys and coefficients as given."""

    def __init__(self):
        self.deliveries = []

    def __call__(self, layout, terms):
        self.deliveries.append((terms.keys.copy(), terms.coeffs.copy()))
        return False


def _split_cases():
    rng = random.Random(61)
    return [
        random_problem(rng, n_range=(4, 8), m_cap=14, name="sp%d" % i) for i in range(10)
    ] + [generate_family("glued-cliques", 2, 4), generate_family("glued-cliques", 3, 3)]


def _rebuilt(deliveries):
    """The deliveries concatenated in reverse order, or None if there are none."""
    if not deliveries:
        return None
    return (
        np.concatenate([keys for keys, _ in deliveries[::-1]]),
        np.concatenate([coeffs for _, coeffs in deliveries[::-1]]),
    )


@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_total_monomials_do_not_depend_on_the_branch_limit(mode):
    # bench_orderings counts at the default limit what an unsplit run counts
    for p in _split_cases():
        ordering = order_vertices(p, "MD+PROC")
        counts, branches = [], []
        for limit in (None, 10**5, 10, 1):
            _, stats = run_truncated_product(p, ordering, mode=mode, branch_limit=limit)
            counts.append(stats.total_monomials)
            branches.append(stats.branches)
        assert counts == [counts[0]] * 4, p.name
        assert branches[-1] > branches[0], p.name


@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_parts_arrive_in_descending_order_and_rebuild_the_unsplit_list(mode):
    for p in _split_cases():
        ordering = order_vertices(p, "MD+PROC")
        unsplit = DeliveryRecorder()
        run_truncated_product(p, ordering, mode=mode, branch_limit=None, sink=unsplit)
        assert len(unsplit.deliveries) <= 1
        whole = _rebuilt(unsplit.deliveries)
        for limit in SPLIT_LIMITS[:-1]:
            sink = DeliveryRecorder()
            run_truncated_product(p, ordering, mode=mode, branch_limit=limit, sink=sink)
            for (keys, _), (later, _) in zip(sink.deliveries, sink.deliveries[1:]):
                smallest = tuple(int(x) for x in keys[0])
                largest = tuple(int(x) for x in later[-1])
                assert smallest > largest, (p.name, limit)
            got = _rebuilt(sink.deliveries)
            if whole is None:
                assert got is None, (p.name, limit)
            else:
                assert np.array_equal(got[0], whole[0]), (p.name, limit)
                assert np.array_equal(got[1], whole[1]), (p.name, limit)


def test_verdicts_do_not_depend_on_the_split():
    for p in coefficient_corpus() + agreement_corpus():
        outcomes = []
        for limit in SPLIT_LIMITS:
            v = pipeline_decide(p, branch_limit=limit)
            outcomes.append((v.status, v.certificate, v.reason, v.details.get("constraint_rank")))
        assert all(o == outcomes[0] for o in outcomes), p.name


def test_growing_parts_keep_branchy_runs_short():
    # one part per distinct prefix made 1,033 extended branches here; the
    # stages run directly, as the reductions refute a glued clique at once
    verdict = decide._run_stages(
        generate_family("glued-cliques", 2, 5), decide.Settings(branch_limit=2000)
    )
    assert verdict.status == "NOT_CHOOSABLE"
    assert verdict.details["extended_stats"]["branches"] <= 100


def test_extended_finals_are_homogeneous():
    rng = random.Random(31)
    problems = [cycle(5), fan()] + [
        random_problem(rng, n_range=(3, 6), m_cap=8, name="h%d" % i) for i in range(4)
    ]
    for p in problems:
        sink, _, _ = collect(p, mode="extended")
        for f, marker, _ in sink.terms:
            if marker is None:
                assert sum(f) == p.m
            else:
                assert sum(f) == p.m - 1
                assert f[marker] == p.s[marker] - 1


def test_stats_track_branches_and_totals():
    p = fan()
    sink_one, _, stats_unsplit = collect(p, branch_limit=None)
    assert stats_unsplit.branches == 1
    sink_many, _, stats_split = collect(p, branch_limit=1)
    assert stats_split.branches > 1
    assert sorted(sink_many.terms) == sorted(sink_one.terms)
    assert stats_split.total_monomials >= len(sink_many.terms)
    assert stats_unsplit.peak_terms >= len(sink_one.terms)


@pytest.fixture
def shallow_stack():
    """A recursion limit 100 frames above the caller's depth."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    yield
    sys.setrecursionlimit(old)


def test_deep_splits_do_not_recurse(shallow_stack):
    # at branch limit 1 a 2-choosable even cycle splits after every turn
    p = cycle(300)
    verdict = pipeline_decide(p, branch_limit=1)
    assert verdict.status == "CHOOSABLE"
    # one part per split, as the first part of each holds a witness
    assert verdict.details["standard_stats"]["branches"] == p.n - 1


def test_branch_counts_differ_but_outcome_is_stable():
    from choosability import standard_alon_tarsi
    from choosability.graphs import generate_family

    p = generate_family("glued-cliques", 2, 5)
    results = []
    for limit in (10**5, 10**3):
        witness, stats = standard_alon_tarsi(p, branch_limit=limit)
        results.append((witness, stats.branches))
    assert results[0][0] is None and results[1][0] is None
    assert results[0][1] != results[1][1]


def test_matching_prune_keeps_results():
    rng = random.Random(41)
    problems = [fan(), cycle(6)] + [
        random_problem(rng, n_range=(4, 7), m_cap=10, name="pm%d" % i)
        for i in range(4)
    ]
    for p, limit in itertools.product(problems, (1, 50, None)):
        plain, _, plain_stats = collect(p, branch_limit=limit)
        pruned, _, pruned_stats = collect(p, branch_limit=limit, prune_matching=True)
        assert sorted(plain.terms) == sorted(pruned.terms)
        assert pruned_stats.total_monomials <= plain_stats.total_monomials


class _Bound(tuple):
    """A turn's bound as the prune takes it, with the turn's remaining
    edges and whether the run would have skipped the turn."""


def test_prune_drops_exactly_the_terms_failing_the_count(monkeypatch):
    turn_bound = poly._turn_bound
    prune = poly._prune_unreachable
    dropped = []

    def every_turn(problem, position, i):
        remaining = [e for e in problem.edges if min(position[e[0]], position[e[1]]) > i]
        bound = turn_bound(problem, position, i)
        skipped = bound is None
        if skipped and not remaining:
            return None
        if skipped:
            # tested on every remaining vertex v, in the prune's form: the
            # sum of max(f(v), s(v) - 1 - d(v), 0) is at most the sum of
            # s(v) - 1 less the remaining edge count.  It must drop nothing.
            degree = Counter(v for e in remaining for v in e)
            s = problem.s
            bound = (
                [(v, max(s[v] - 1 - d, 0)) for v, d in sorted(degree.items())],
                sum(s[v] - 1 for v in degree) - len(remaining),
            )
        tested = _Bound(bound)
        tested.edges, tested.skipped = remaining, skipped
        return tested

    def checked(layout, terms, bound):
        kept = prune(layout, terms, bound)
        kept_keys = {key.tobytes() for key in kept.keys}
        degree = Counter(v for e in bound.edges for v in e)
        degrees, _, _ = unpack_terms(layout, terms)
        s = layout.problem.s
        for key, f in zip(terms.keys, degrees):
            budget = {v: s[v] - 1 - int(f[v]) for v in range(layout.problem.n)}
            fits = sum(min(budget[v], d) for v, d in degree.items()) >= len(bound.edges)
            assert (key.tobytes() in kept_keys) == fits
            if not fits:
                assert not orientable_within_budget(bound.edges, budget)
        if bound.skipped:
            assert len(kept) == len(terms)
        dropped.append(len(terms) - len(kept))
        return kept

    monkeypatch.setattr(poly, "_turn_bound", every_turn)
    monkeypatch.setattr(poly, "_prune_unreachable", checked)
    rng = random.Random(53)
    problems = [
        random_problem(rng, n_range=(4, 10), m_cap=20, name="hk%d" % i) for i in range(40)
    ]
    for p in problems:
        for heuristic in ("MD+PROC", "INPUT", "VSEP"):
            for branch_limit in (1, 50, None):
                collect(p, branch_limit=branch_limit, heuristic=heuristic, prune_matching=True)
    assert len(dropped) > 1000 and sum(dropped) > 0


def test_overflow_raises():
    # multiplying enough parallel-ish structure cannot overflow at desk
    # scale, so force it through a crafted term list instead
    p = Problem(n=2, s=(3, 3), edges=((0, 1),))
    layout = DegreeLayout(p, order_vertices(p, "INPUT"))
    big = _term_list(layout, [((1, 0), 2**62), ((0, 1), -(2**62))])
    with pytest.raises(CoefficientOverflow):
        multiply_edge_standard(big, 0, 1, layout)
