"""Problem parsing, formatting, orderings, and generator families."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosability import (
    FAMILIES,
    HEURISTICS,
    Problem,
    ProblemFormatError,
    VertexOrdering,
    format_problem,
    generate_family,
    order_vertices,
    parse_problem,
)
from choosability import graphs
from choosability.graphs import product_estimate

from _examples import agreement_corpus, coefficient_corpus, cycle, fan, path3
from _references import greedy_order


def test_parse_round_trip():
    text = "# sample\n3 2\n2 2 2\n0 1\n1 2\n"
    p = parse_problem(text, name="sample")
    assert (p.n, p.m, p.s) == (3, 2, (2, 2, 2))
    assert p.edges == ((0, 1), (1, 2))
    assert parse_problem(format_problem(p), name="sample") == p


def test_parse_normalizes_edge_endpoints():
    p = parse_problem("2 1\n1 1\n1 0\n")
    assert p.edges == ((0, 1),)


def test_parse_skips_comments_and_blank_lines():
    text = "\n# a\n\n2 1\n# b\n1 1\n\n0 1\n# trailing\n"
    assert parse_problem(text).m == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("2 1\n1 1\n0 0\n", "line 3"),
        ("2 2\n1 1\n0 1\n0 1\n", "line 4"),
        ("2 1\n1 1 1\n0 1\n", "line 2"),
        ("2 1\n1 1\n0 2\n", "line 3"),
        ("2 2\n1 1\n0 1\n", "edge"),
        ("2 1\n1 0\n0 1\n", "list size"),
        ("0 0\n\n", "line 1"),
        ("2 x\n1 1\n0 1\n", "line 1"),
        ("2 2\n1 1\n0 1\n1 0\n", "line 4"),
        ("3 2\n1 1 1\n0 1\n1 3\n", "line 4"),
        ("2 1\n1 0\n0 1\n", "line 2: list size"),
        ("2 1\n# sizes\n1 0\n0 1\n", "line 3: list size"),
    ],
)
def test_parse_errors_carry_location(text, fragment):
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "edges, at",
    [(((0, 1), (1, 1)), 1), (((0, 2), (1, 3)), 1), (((0, 1), (1, 2), (1, 0)), 2)],
)
def test_problem_names_the_edge_at_fault(edges, at):
    with pytest.raises(ProblemFormatError) as err:
        Problem(3, (1, 1, 1), edges)
    assert err.value.edge == at
    with pytest.raises(ProblemFormatError, match="list size") as err:
        Problem(3, (1, 0, 1), edges)
    assert err.value.edge is None


@pytest.mark.parametrize(
    "n, s, edges, at",
    [
        (2, (1.5, 1), ((0, 1),), None),
        (2.0, (1, 1), ((0, 1),), None),
        (2, (1, 1), ((0, 1.0),), 0),
        (2, (True, 1), ((0, 1),), None),
    ],
)
def test_problem_refuses_values_that_are_not_integers(n, s, edges, at):
    with pytest.raises(ProblemFormatError, match="integer") as err:
        Problem(n, s, edges)
    assert err.value.edge == at


@pytest.mark.parametrize(
    "n, s, message",
    [(0, (), "at least one vertex"), (2, (1,), "expected 2 list sizes, got 1"),
     (2, (1, 1, 1), "expected 2 list sizes, got 3")],
)
def test_problem_refuses_no_vertices_and_a_wrong_list_count(n, s, message):
    with pytest.raises(ProblemFormatError, match=message) as err:
        Problem(n, s, ())
    assert err.value.edge is None


@pytest.mark.parametrize("order", [(0, 0), (1, 2), (0, 2, 1, 1), (-1, 0)])
def test_an_ordering_must_be_a_permutation(order):
    with pytest.raises(ValueError, match="not a permutation"):
        VertexOrdering(order=order)


def test_problem_stores_numpy_integers_as_int():
    p = Problem(np.int64(2), (np.int32(2), np.uint64(1)), ((np.uint8(1), np.int64(0)),))
    assert p == Problem(2, (2, 1), ((0, 1),))
    assert all(type(x) is int for x in (p.n, *p.s, *p.edges[0]))


def test_format_emits_name_comment():
    text = format_problem(fan())
    assert text.startswith("# fan\n")
    assert parse_problem(text, name="fan") == fan()


def test_degrees_and_adjacency():
    p = fan()
    assert p.degrees() == [4, 2, 3, 3, 2]
    assert p.adjacency()[0] == {1, 2, 3, 4}
    assert p.adjacency()[4] == {0, 3}


def test_without_edges():
    p = fan().without_edges([(2, 3)])
    assert p.m == 6
    assert (2, 3) not in p.edges
    assert p.s == fan().s


def test_every_heuristic_returns_a_permutation():
    p = fan()
    for heuristic in HEURISTICS:
        order = order_vertices(p, heuristic).order
        assert sorted(order) == list(range(p.n))


def test_unknown_heuristic_rejected():
    with pytest.raises(ValueError):
        order_vertices(path3(), "NOPE")


def test_min_degree_orders():
    p = path3()
    assert order_vertices(p, "MD").order == (0, 1, 2)
    assert order_vertices(p, "MDR").order == (2, 1, 0)


def test_vertex_separation_order_on_star():
    star = Problem(n=4, s=(2, 2, 2, 2), edges=((0, 1), (0, 2), (0, 3)))
    assert order_vertices(star, "VSEP").order == (1, 2, 0, 3)


def test_processed_neighbor_tiebreak():
    # triangle 0-1-2 with a pendant 3 on vertex 2: after taking the pendant,
    # plain MD falls back to index order while MD+PROC prefers the vertex
    # with a processed neighbor
    kite = Problem(n=4, s=(2, 2, 2, 2), edges=((0, 1), (0, 2), (1, 2), (2, 3)))
    assert order_vertices(kite, "MD").order == (3, 0, 1, 2)
    assert order_vertices(kite, "MD+PROC").order == (3, 2, 0, 1)


def _rescanned_estimate(p, order):
    """product_estimate by its definition: each turn's frontier found by
    scanning the whole processed prefix."""
    adj = p.adjacency()
    total = 0
    for t in range(1, p.n + 1):
        prefix = set(order[:t])
        total += math.prod(p.s[v] for v in prefix if adj[v] - prefix)
    return total


@st.composite
def _ordered_problems(draw):
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = []
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16))
    s = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    return Problem(n=n, s=tuple(s), edges=tuple(sorted(edges))), order


@settings(max_examples=200, deadline=None)
@given(_ordered_problems())
def test_product_estimate_matches_a_rescan_of_each_prefix(case):
    p, order = case
    assert product_estimate(p, order) == _rescanned_estimate(p, order)


_GREEDY = ("MD", "MD+PROC", "OVER", "LIST", "LIST+DEG", "VSEP")


@settings(max_examples=200, deadline=None)
@given(_ordered_problems(), st.sampled_from(_GREEDY))
def test_greedy_orders_match_a_recount_at_every_pick(case, heuristic):
    p, _ = case
    assert order_vertices(p, heuristic).order == greedy_order(p, heuristic)


def test_auto_keeps_the_md_proc_ordering_on_both_corpora():
    for p in coefficient_corpus() + agreement_corpus():
        assert order_vertices(p, "AUTO") == order_vertices(p, "MD+PROC"), p


@pytest.mark.parametrize(
    "family, params, used",
    [
        ("cycle-triangles", (8,), "VSEP"),
        ("cycle-triangles", (12,), "VSEP"),
        ("grid-diag", (4,), "MD+PROC"),
        # VSEP's estimate is the smaller, but above the limit
        ("grid-diag", (5,), "MD+PROC"),
    ],
)
def test_auto_names_the_heuristic_it_used(family, params, used):
    p = generate_family(family, *params)
    ordering = order_vertices(p, "AUTO")
    assert ordering == order_vertices(p, used)
    assert ordering.heuristic == used


@pytest.mark.parametrize("family", [("grid-diag", 3), ("cycle-triangles", 8)])
def test_every_ordering_carries_its_estimate(family):
    p = generate_family(*family)
    for heuristic in HEURISTICS:
        ordering = order_vertices(p, heuristic)
        assert ordering.estimate == product_estimate(p, ordering.order), heuristic


def test_auto_weighs_md_proc_against_vsep_only(monkeypatch):
    estimated = []

    def counted(p, order):
        estimated.append(order)
        return product_estimate(p, order)

    p = generate_family("cycle-triangles", 8)
    expected = [order_vertices(p, h).order for h in ("MD+PROC", "VSEP")]
    monkeypatch.setattr(graphs, "product_estimate", counted)
    assert order_vertices(p, "AUTO").heuristic == "VSEP"
    assert estimated == expected


@pytest.mark.parametrize("limit", [1000, 2000])
def test_auto_keeps_md_proc_when_vsep_is_no_smaller(monkeypatch, limit):
    # grid-diag(3): MD+PROC and VSEP both read 3,595, and OVER and MDR
    # 1,543, which AUTO no longer weighs
    p = generate_family("grid-diag", 3)
    estimates = {h: product_estimate(p, order_vertices(p, h).order) for h in HEURISTICS}
    assert estimates["MD+PROC"] == estimates["VSEP"] == 3595
    assert estimates["OVER"] == estimates["MDR"] == min(estimates.values()) == 1543
    monkeypatch.setattr(graphs, "AUTO_ESTIMATE_LIMIT", limit)
    assert order_vertices(p, "AUTO").heuristic == "MD+PROC"


def test_list_size_order_prefers_small_lists():
    p = Problem(n=3, s=(1, 2, 3), edges=((0, 1), (1, 2)))
    assert order_vertices(p, "LIST").order == (0, 1, 2)


@pytest.mark.parametrize(
    "family, params, n, m",
    [
        ("glued-cliques", (2, 3), 5, 6),
        ("glued-cliques", (3, 3), 7, 9),
        ("glued-cliques", (2, 4), 7, 12),
        ("glued-cliques-minus-edge", (2, 3), 5, 5),
        ("grid-diag", (4,), 20, 49),
        ("grid-diag", (11,), 125, 364),
        ("cycle-triangles", (8,), 24, 48),
        ("cycle-triangles", (15,), 45, 90),
    ],
)
def test_family_sizes(family, params, n, m):
    p = generate_family(family, *params)
    assert (p.n, p.m) == (n, m)


def test_glued_cliques_lists_are_degrees():
    p = generate_family("glued-cliques", 2, 3)
    assert p.s == tuple(p.degrees()) == (2, 2, 4, 2, 2)


def test_glued_minus_edge_drops_last_edge_and_shrinks_lists():
    p = generate_family("glued-cliques-minus-edge", 2, 3)
    assert p.s == (2, 2, 4, 1, 1)
    assert p.degrees() == [2, 2, 4, 1, 1]


def test_generated_problems_round_trip():
    for family in FAMILIES:
        params = (2, 3) if family.startswith("glued") else (3,)
        p = generate_family(family, *params)
        assert parse_problem(format_problem(p), name=p.name) == p


# sha256 of format_problem(generate_family(...)) for every instance the
# benchmark's workloads and CI build: its names, lists and edge order
GENERATED = {
    ("glued-cliques", 2, 3): "a435630ae2df7a1d1db705adfe3b5cc1483a7b3db6ad62548cdf69b8a127c8ea",
    ("glued-cliques", 2, 5): "647e02280dc34e5415349c3627b6b252fedfd88e6186f0c04a1b2b51541e6759",
    ("glued-cliques", 3, 4): "10080c455ab46c9e55a08fcfa8ab282a86f7aaeb5b216a96492749f26f230690",
    ("glued-cliques", 4, 4): "e7755e321d5e1c5f3a3fdeb11b8473cb170f0bde83262c4f9b4326bf04ae84d0",
    ("glued-cliques", 4, 5): "78845353b6868be2e3e9096503ac04f21aa3644fff807435a48876d347a057a3",
    ("glued-cliques", 6, 3): "22d2096f418c01b48c30652b4a7ce08c670f465dcf00accb25129a2f36df2958",
    ("glued-cliques", 8, 3): "8ef4ca6f2f79aa452d2925d104a9bfb6da34bb8bf54c88e5e57d70b6028c217a",
    ("glued-cliques-minus-edge", 2, 6):
        "02c273ad955f87b7e58943eab9c7e9da30808d3f65658cc26f7469a9048969af",
    ("glued-cliques-minus-edge", 3, 5):
        "bfd7e89e9355bfb028e9689d1b96397e93a9f7f8a0a040c5ea4cd379fa69c3dc",
    ("grid-diag", 3): "87643bb0db0986804a1da9957dc7ac9984b156679630e0d18120a3e436ed4b57",
    ("grid-diag", 4): "3e837544712a2ccb3c253acd4a17513c6b6ff81ed5d1be1bfd9af090647e53b6",
    ("grid-diag", 5): "7c3762f6478c9a6e06946516614a022335b5cac6d5887c30034a656e5d39e283",
    ("grid-diag", 8): "3a1d36b0ce66e1370c9c10f90d438366a80a63662a4a29388bbc570afe3e8f61",
    ("cycle-triangles", 3): "8fc4a48756112be8c4c9ea74caa693848de04228308148035cb00ff804216fde",
    ("cycle-triangles", 4): "a2fb0eacb56588008b7e6a375a377c1f65f24092d81573fd267dcbe78aadec04",
    ("cycle-triangles", 5): "634f1bc8799f0791c467fd1e8aae333ef202869e264620aeed9af990c929d056",
    ("cycle-triangles", 6): "e1044a818a55eb5c60e13abc111bd53145ab6e9f4250a197d4e5ea93d8950f5f",
    ("cycle-triangles", 7): "378258fb404825509744a9bf687189ff34ed62239a21b414bbd6030946476f4c",
    ("cycle-triangles", 8): "301041f4362046ceb84572dcfd03c73ab8fcd4fc245016228f29abeff9f5cd7d",
    ("cycle-triangles", 9): "99f3ef9bccdf9300750bb275e507e06a1c872096e47fc9e138e9f6071bd5fc12",
    ("cycle-triangles", 10): "19f9e7cb01bdee4b66d1166436e4b9d8cb2f86fca8e823b43a316a6c1860b429",
    ("cycle-triangles", 11): "309d02fe4e256af54799614dc0067cf95499b3aa21902c1dd7baa968a031a1e1",
    ("cycle-triangles", 12): "9773d703b72ff5c65be572cb8e811fb697ac5d3bf4c37c59048a6d69d056e6df",
    ("cycle-triangles", 13): "822add3e2cb2eb42e2964a1b7f2578a4df901c4fa558eca2ad71aba530399a7e",
    ("cycle-triangles", 14): "f4c0e1a19f6e62a1ff010dde8fd7701f48812ea00be2411b9d4363de986c2a03",
}


@pytest.mark.parametrize("instance", sorted(GENERATED))
def test_generated_text_is_pinned(instance):
    text = format_problem(generate_family(*instance))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED[instance]


def test_family_rejects_bad_params():
    with pytest.raises(ValueError):
        generate_family("glued-cliques", 1, 3)
    with pytest.raises(ValueError):
        generate_family("cycle-triangles", 1)
    with pytest.raises(ProblemFormatError, match="a >= 2"):
        generate_family("grid-diag", 1)
    with pytest.raises(ValueError):
        generate_family("no-such-family", 3)


def test_cycle_fixture_shape():
    c5 = cycle(5)
    assert c5.m == 5
    assert all(size == 2 for size in c5.s)


# ------------------------------------------------------- components, blocks

def _reference_blocks(p):
    """Blocks as the classes of edges that no single vertex separates: e
    and f share a block when, for every vertex x, what is left of them
    after deleting x stays connected."""

    def linked(e, f, x):
        adj = [[] for _ in range(p.n)]
        for u, v in p.edges:
            if x not in (u, v):
                adj[u].append(v)
                adj[v].append(u)
        start = [v for v in e if v != x]
        seen, todo = set(start), list(start)
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return all(v in seen for v in f if v != x)

    classes = []
    for e in p.edges:
        for group in classes:
            if all(linked(e, group[0], x) for x in range(p.n)):
                group.append(e)
                break
        else:
            classes.append([e])
    return sorted(tuple(sorted({v for e in group for v in e})) for group in classes)


@st.composite
def connected_problems(draw):
    n = draw(st.integers(2, 8))
    # a random spanning tree, then any extra edges
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(itertools.combinations(range(n), 2))
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    return Problem(n=n, s=(1,) * n, edges=tuple(set(tree) | set(extra)))


def blocks_of(p):
    """The blocks of a connected p."""
    [(vertices, found)] = graphs.blocks(p.adjacency(), range(p.n))
    assert vertices == list(range(p.n))
    return found


@settings(max_examples=150, deadline=None)
@given(connected_problems())
def test_blocks_match_the_separation_definition(p):
    assert blocks_of(p) == _reference_blocks(p)


def test_blocks_of_familiar_graphs():
    assert blocks_of(cycle(5)) == [(0, 1, 2, 3, 4)]
    assert blocks_of(path3()) == [(0, 1), (1, 2)]
    assert blocks_of(generate_family("glued-cliques", 3, 3)) == [
        (0, 1, 2), (2, 3, 4), (4, 5, 6)
    ]


@pytest.mark.parametrize("closed", [False, True])
def test_blocks_walk_needs_no_deep_stack(closed):
    # a recursive walk would go 3,000 frames deep on these
    n = 3000
    edges = tuple((i, i + 1) for i in range(n - 1)) + (((0, n - 1),) if closed else ())
    p = Problem(n=n, s=(2,) * n, edges=edges)
    assert len(blocks_of(p)) == (1 if closed else n - 1)


def test_components_come_ascending_in_order_of_their_lowest_vertex():
    p = Problem(n=8, s=(1,) * 8, edges=((0, 5), (1, 3), (3, 6), (2, 4), (1, 6)))
    assert graphs.blocks(p.adjacency(), range(8)) == [
        ([0, 5], [(0, 5)]), ([1, 3, 6], [(1, 3, 6)]), ([2, 4], [(2, 4)]), ([7], []),
    ]
    # the graph left after deleting vertices 0, 5, 6 and 7
    adj = p.adjacency()
    adj[1].discard(6)
    adj[3].discard(6)
    assert graphs.blocks(adj, [1, 3, 4, 2]) == [([1, 3], [(1, 3)]), ([2, 4], [(2, 4)])]


def test_induced_renumbers_in_order_and_keeps_orientation():
    p = Problem(n=5, s=(1, 2, 3, 4, 5), edges=((0, 4), (1, 3), (3, 4), (1, 2)), name="x")
    sub = p.induced([1, 3, 4], [9, 8, 7, 6, 5])
    assert sub == Problem(n=3, s=(8, 6, 5), edges=((0, 1), (1, 2)), name="x")
