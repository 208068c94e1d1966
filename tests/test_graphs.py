"""Problem parsing, formatting, orderings, and generator families."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosability import (
    FAMILIES,
    HEURISTICS,
    Problem,
    ProblemFormatError,
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
    ],
)
def test_parse_errors_carry_location(text, fragment):
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(text)
    assert fragment in str(err.value)


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
        # MDR's estimate is the smallest, but above the limit
        ("grid-diag", (5,), "MD+PROC"),
    ],
)
def test_auto_names_the_heuristic_it_used(family, params, used):
    p = generate_family(family, *params)
    ordering = order_vertices(p, "AUTO")
    assert ordering == order_vertices(p, used)
    assert ordering.heuristic == used


@pytest.mark.parametrize("limit, used", [(2000, "OVER"), (1000, "MD+PROC")])
def test_auto_breaks_ties_in_heuristic_order_within_the_limit(monkeypatch, limit, used):
    # grid-diag(3): MD+PROC 3,595; OVER and MDR tie at 1,543, the smallest
    p = generate_family("grid-diag", 3)
    estimates = {h: product_estimate(p, order_vertices(p, h).order) for h in HEURISTICS}
    assert estimates["MD+PROC"] == 3595
    assert estimates["OVER"] == estimates["MDR"] == min(estimates.values()) == 1543
    monkeypatch.setattr(graphs, "AUTO_ESTIMATE_LIMIT", limit)
    assert order_vertices(p, "AUTO").heuristic == used


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


def test_family_rejects_bad_params():
    with pytest.raises(ValueError):
        generate_family("glued-cliques", 1, 3)
    with pytest.raises(ValueError):
        generate_family("cycle-triangles", 1)
    with pytest.raises(ValueError):
        generate_family("no-such-family", 3)


def test_cycle_fixture_shape():
    c5 = cycle(5)
    assert c5.m == 5
    assert all(size == 2 for size in c5.s)
