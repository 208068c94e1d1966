"""Independent orientation counting, orientability, and exhaustive checks."""

import itertools
import random
import sys
from pathlib import Path

import pytest

from choosability import (
    OracleLimitError,
    Problem,
    brute_force_choosable,
    coefficient_table,
    color_from_pattern,
    direct_coefficient,
)
from choosability import oracle, parse_problem, pipeline_decide
from choosability.oracle import orientable_within_budget

from _examples import (
    agreement_corpus,
    coefficient_corpus,
    complete,
    cycle,
    fan,
    random_problem,
    wheel,
)
from _references import count_bounded_orientations


def test_direct_coefficient_on_even_cycle():
    assert direct_coefficient(cycle(4), (1, 1, 1, 1)) == -2


def test_direct_coefficient_vanishes_on_triangle():
    assert direct_coefficient(complete(3, 2), (1, 1, 1)) == 0


def test_direct_coefficient_single_edge():
    p = Problem(n=2, s=(2, 2), edges=((0, 1),))
    assert direct_coefficient(p, (1, 0)) == -1
    assert direct_coefficient(p, (0, 1)) == 1


def test_direct_coefficient_checks_length():
    with pytest.raises(ValueError):
        direct_coefficient(cycle(4), (1, 1, 1))


def test_direct_coefficient_degree_sum_mismatch_is_zero():
    assert direct_coefficient(cycle(4), (2, 1, 1, 1)) == 0
    assert direct_coefficient(cycle(4), (0, 1, 1, 1)) == 0


def test_table_matches_direct_everywhere():
    rng = random.Random(7)
    for i in range(10):
        p = random_problem(rng, n_range=(3, 6), m_cap=9, name="o%d" % i)
        table = coefficient_table(p)
        for f, (signed, count) in table.items():
            assert count > 0
            assert direct_coefficient(p, f) == signed
        for f in itertools.product(*(range(m + 1) for m in p.degrees())):
            if sum(f) == p.m and f not in table:
                assert direct_coefficient(p, f) == 0


def test_table_counts_sum_to_all_orientations():
    p = cycle(5)
    table = coefficient_table(p)
    assert sum(count for _, count in table.values()) == 2**p.m


def test_bipartite_orientations_share_one_sign():
    rng = random.Random(17)
    for trial in range(8):
        left = rng.randint(1, 3)
        right = rng.randint(1, 3)
        pairs = [(u, left + w) for u in range(left) for w in range(right)]
        chosen = tuple(sorted(rng.sample(pairs, rng.randint(1, len(pairs)))))
        p = Problem(
            n=left + right,
            s=(4,) * (left + right),
            edges=chosen,
            name="bip%d" % trial,
        )
        for f, (signed, count) in coefficient_table(p).items():
            assert abs(signed) == count


@pytest.mark.parametrize("n, expected", [(3, 2), (4, 32), (5, 704)])
def test_complete_graph_bounded_orientations(n, expected):
    p = complete(n)
    count = count_bounded_orientations(p, [n - 2] * n)
    assert count == expected
    assert count == 2**p.m * (2**(n - 1) - n) // 2**(n - 1)


def test_zero_coefficient_iff_unreachable_outdegrees():
    rng = random.Random(27)
    unreachable = 0
    for i in range(8):
        p = random_problem(rng, n_range=(3, 6), m_cap=9, name="x%d" % i)
        # every f some orientation realizes is a key of the table
        reachable = coefficient_table(p)
        caps = [min(size, p.m) for size in p.degrees()]
        for f in itertools.product(*(range(c + 1) for c in caps)):
            if sum(f) != p.m:
                continue
            if f not in reachable:
                unreachable += 1
                assert direct_coefficient(p, f) == 0
    assert unreachable


def test_orientable_within_budget():
    edges = [(0, 1), (1, 2)]
    assert orientable_within_budget(edges, {0: 1, 1: 1, 2: 0})
    assert not orientable_within_budget(edges, {0: 0, 1: 1, 2: 0})


def test_color_from_pattern_rejects_bad_triangle_lists():
    assert color_from_pattern(complete(3, 2), [((1, 1, 1), 2)]) is None


def test_color_from_pattern_colors_even_cycle():
    p = cycle(4)
    coloring = color_from_pattern(p, [((1, 1, 1, 1), 2)])
    assert coloring is not None
    for u, v in p.edges:
        assert coloring[u] != coloring[v]


def test_color_from_pattern_on_fan_and_wheel():
    bad_fan = [((1, 1, 1, 0, 0), 2), ((1, 0, 0, 1, 1), 2)]
    assert color_from_pattern(fan(), bad_fan) is None
    wheel_pattern = [((1, 1, 1, 1, 0, 0), 2), ((1, 0, 0, 0, 1, 1), 3)]
    coloring = color_from_pattern(wheel(), wheel_pattern)
    assert coloring is not None
    for u, v in wheel().edges:
        assert coloring[u] != coloring[v]


def test_color_from_pattern_respects_lists():
    p = cycle(4)
    pattern = [((1, 1, 0, 0), 1), ((0, 0, 1, 1), 1), ((1, 0, 1, 0), 1), ((0, 1, 0, 1), 1)]
    coloring = color_from_pattern(p, pattern)
    assert coloring is not None
    vectors = [vec for vec, mult in pattern for _ in range(mult)]
    for v, color in enumerate(coloring):
        assert vectors[color][v] == 1


def test_color_from_pattern_agrees_with_product_search():
    rng = random.Random(37)
    for i in range(12):
        p = random_problem(rng, n_range=(2, 5), m_cap=7, s_range=(1, 2), name="cp%d" % i)
        vectors = [
            tuple(rng.randint(0, 1) for _ in range(p.n)) for _ in range(rng.randint(1, 4))
        ]
        vectors = [vec for vec in vectors if any(vec)]
        if not vectors:
            continue
        counts = {vec: vectors.count(vec) for vec in set(vectors)}
        pattern = sorted(counts.items())
        lists = [
            [
                color
                for color, vec in enumerate(
                    v for v, mult in pattern for _ in range(mult)
                )
                if vec[u]
            ]
            for u in range(p.n)
        ]
        exists = any(
            all(pick[u] != pick[v] for u, v in p.edges)
            for pick in itertools.product(*lists)
        ) if all(lists) else False
        got = color_from_pattern(p, pattern)
        assert (got is not None) == exists


def test_brute_force_on_small_examples():
    bad, witness = brute_force_choosable(cycle(5))
    assert bad is False
    assert witness == (((1, 1, 1, 1, 1), 2),)
    good, none_witness = brute_force_choosable(cycle(4))
    assert good is True and none_witness is None
    bad_k3, k3_witness = brute_force_choosable(complete(3, 2))
    assert bad_k3 is False
    assert k3_witness == (((1, 1, 1), 2),)


def path(m):
    return Problem(n=m + 1, s=(2,) * (m + 1), edges=tuple((i, i + 1) for i in range(m)))


def test_direct_coefficient_refuses_edges_past_half_the_recursion_limit():
    bound = sys.getrecursionlimit() // 2
    # a path orients out of every vertex but the last in exactly one way
    assert abs(direct_coefficient(path(bound), (1,) * bound + (0,))) == 1
    with pytest.raises(OracleLimitError, match="recursion limit"):
        direct_coefficient(path(bound + 1), (1,) * (bound + 1) + (0,))


def test_color_from_pattern_takes_huge_multiplicities():
    # the isolated vertex 0 has 2^40 colors; 1 and 2 share their one color
    p = Problem(n=3, s=(2**40, 1, 1), edges=((1, 2),))
    assert color_from_pattern(p, [((1, 1, 1), 1), ((1, 0, 0), 2**40 - 1)]) is None
    coloring = color_from_pattern(p, [((1, 1, 0), 1), ((1, 0, 1), 2**40 - 1)])
    assert coloring[1] == 0 and coloring[2] >= 1
    # a color index names the pattern's unit, however many are left out
    star = Problem(n=3, s=(3, 1, 1), edges=((0, 1), (0, 2)))
    coloring = color_from_pattern(star, [((0, 1, 1), 1), ((1, 0, 0), 9)])
    assert coloring[1] == coloring[2] == 0 and 1 <= coloring[0] <= 9
    # the units kept are one more than the largest degree on the support
    assert color_from_pattern(complete(3), [((1, 1, 1), 2**40)]) is not None


def test_the_colorer_agrees_with_the_certificate_checker(monkeypatch):
    # the patterns the pipeline walks on both corpora (the agreement
    # corpus's reach no pattern search) and on tight-12's 1,528, and brute
    # force on all 100 agreement problems (it walks connected classes
    # only), as they color them and as a certificate checks
    walked = {"pipeline": [], "brute": []}
    colorer = oracle.pattern_colorer

    def recording(p):
        color = colorer(p)

        def record(pattern):
            coloring = color(pattern)
            walked[caller].append((p, pattern, coloring))
            return coloring

        return record

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "pattern_colorer", recording)
        caller = "pipeline"
        for p in agreement_corpus() + coefficient_corpus():
            pipeline_decide(p)
        tight = parse_problem((Path(__file__).parent / "tight-12.prob").read_text())
        pipeline_decide(tight, pattern_cap=1528)
        caller = "brute"
        for p in agreement_corpus():
            brute_force_choosable(p)
    assert len(walked["pipeline"]) > 1528 and len(walked["brute"]) > 10**4
    trimmed = 0
    for p, pattern, coloring in walked["pipeline"] + walked["brute"]:
        assert coloring == color_from_pattern(p, pattern), (p, pattern)
        degrees = p.degrees()
        trimmed += any(mult > 1 + max(degrees[v] for v in range(p.n) if vec[v])
                       for vec, mult in pattern)
    assert trimmed > 1000  # brute force meets lists longer than the degree


def test_brute_force_refuses_large_inputs():
    with pytest.raises(OracleLimitError):
        brute_force_choosable(cycle(9))
    with pytest.raises(OracleLimitError):
        brute_force_choosable(complete(6, 5))


def test_brute_force_witness_vectors_are_characteristic():
    spoked = Problem(
        n=4, s=(1, 1, 2, 2), edges=((0, 1), (1, 2), (2, 3)), name="p4"
    )
    verdict, witness = brute_force_choosable(spoked)
    if not verdict:
        for vec, mult in witness:
            assert mult >= 1
            assert any(vec)


def test_brute_force_node_budget_is_enforced():
    with pytest.raises(OracleLimitError, match="node budget exhausted"):
        brute_force_choosable(cycle(5), max_nodes=1)
    assert brute_force_choosable(cycle(5), max_nodes=2) == (
        False,
        (((1, 1, 1, 1, 1), 2),),
    )


def _induces_connected(p, vec):
    """Whether the vertices where vec is 1 induce a connected subgraph."""
    inside = {v for v in range(p.n) if vec[v]}
    seen, stack = set(), [min(inside)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(u for e in p.edges if v in e for u in e if u in inside)
    return seen == inside


def _reference_brute_force(p, connected_only=False):
    """The exhaustive search before skip-ahead: one call per vector and
    multiplicity, a full coverage rescan at every node; over every nonzero
    vector, or only those whose vertices induce a connected subgraph."""
    vectors = [
        tuple((mask >> v) & 1 for v in range(p.n)) for mask in range(1, 1 << p.n)
    ]
    if connected_only:
        vectors = [vec for vec in vectors if _induces_connected(p, vec)]
    vectors.sort(key=lambda vec: (-sum(vec), tuple(-x for x in vec)))
    residual = list(p.s)
    chosen = []

    def coverable(start):
        for v in range(p.n):
            if residual[v] == 0:
                continue
            if not any(vectors[i][v] for i in range(start, len(vectors))):
                return False
        return True

    def search(start):
        if all(r == 0 for r in residual):
            pattern = [(vec, mult) for vec, mult in chosen if mult > 0]
            if color_from_pattern(p, pattern) is None:
                return pattern
            return None
        if start == len(vectors) or not coverable(start):
            return None
        vec = vectors[start]
        top = min(residual[v] for v in range(p.n) if vec[v])
        for mult in range(top, -1, -1):
            for v in range(p.n):
                residual[v] -= mult * vec[v]
            chosen.append((vec, mult))
            bad = search(start + 1)
            chosen.pop()
            for v in range(p.n):
                residual[v] += mult * vec[v]
            if bad is not None:
                return bad
        return None

    witness = search(0)
    if witness is None:
        return True, None
    return False, tuple(witness)


def test_brute_force_matches_the_reference_search():
    rng = random.Random(47)
    problems = agreement_corpus() + [
        random_problem(rng, n_range=(1, 5), m_cap=10, s_range=(1, 3), name="bf%d" % i)
        for i in range(40)
    ]
    problems += [cycle(3), cycle(4), cycle(5), complete(4, 2), complete(4, 3), fan()]
    outcomes, refuted = set(), 0
    for p in problems:
        got = brute_force_choosable(p)
        if not got[0]:  # a real bad assignment, its color classes connected
            witness = got[1]
            refuted += 1
            assert all(_induces_connected(p, vec) for vec, _ in witness), p
            assert [sum(vec[v] * mult for vec, mult in witness) for v in range(p.n)] == list(p.s)
            assert color_from_pattern(p, witness) is None, p
        if p.n > 5 or sum(p.s) > 12:
            continue  # the reference search is slow past these sizes
        assert got == _reference_brute_force(p, connected_only=True), p
        # the walk skips disconnected color classes; the verdict is the one
        # every nonzero vector gives
        assert got[0] == _reference_brute_force(p)[0], p
        outcomes.add(got[0])
    assert outcomes == {True, False} and refuted > 10


# brute_force_choosable's answers on problems past the reference search's
# sizes, recorded before the oracle and the pipeline shared one walk; the
# witness is the first uncolorable pattern, with connected color classes,
# in the walk's order
FROZEN_BRUTE_FORCE = [
    ((3, 1, 1, 4, 1, 1), ((0, 1), (0, 4), (1, 3), (2, 3), (3, 4)), (True, None)),
    ((2, 1, 4, 2, 1, 1), ((0, 2), (0, 3), (0, 4), (2, 3), (2, 4)), (True, None)),
    (
        (3, 3, 2, 3, 2, 1),
        ((0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)),
        (False, (((1, 1, 1, 1, 1, 0), 2), ((1, 1, 0, 1, 0, 1), 1))),
    ),
    (
        (2, 2, 3, 2, 2, 3, 2),
        ((0, 2), (0, 4), (0, 6), (1, 2), (1, 5), (2, 4), (2, 5), (2, 6), (3, 5), (5, 6)),
        (
            False,
            (
                ((1, 1, 1, 1, 1, 1, 0), 1),
                ((1, 1, 1, 1, 0, 1, 1), 1),
                ((0, 0, 1, 0, 1, 1, 1), 1),
            ),
        ),
    ),
    (
        (2, 3, 2, 2, 2, 2, 3),
        (
            (0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (1, 5),
            (1, 6), (2, 4), (2, 6), (3, 4), (3, 5), (3, 6),
        ),
        (
            False,
            (
                ((1, 1, 1, 1, 1, 1, 0), 1),
                ((1, 1, 0, 1, 1, 0, 1), 1),
                ((0, 1, 0, 0, 0, 1, 1), 1),
                ((0, 0, 1, 0, 0, 0, 1), 1),
            ),
        ),
    ),
    (
        (2, 1, 3, 3, 3, 1, 1, 2),
        ((0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (1, 7), (2, 6), (2, 7), (4, 6)),
        (
            False,
            (
                ((1, 1, 1, 1, 1, 1, 1, 1), 1),
                ((1, 0, 0, 1, 1, 0, 0, 0), 1),
                ((0, 0, 1, 0, 0, 0, 0, 1), 1),
                ((0, 0, 1, 0, 0, 0, 0, 0), 1),
                ((0, 0, 0, 1, 0, 0, 0, 0), 1),
                ((0, 0, 0, 0, 1, 0, 0, 0), 1),
            ),
        ),
    ),
]


@pytest.mark.parametrize("s, edges, expected", FROZEN_BRUTE_FORCE)
def test_brute_force_witness_order_at_six_to_eight_vertices(s, edges, expected):
    p = Problem(n=len(s), s=s, edges=edges)
    assert brute_force_choosable(p) == expected
    if expected[1] is not None:
        assert color_from_pattern(p, expected[1]) is None
