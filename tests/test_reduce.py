"""The exact reductions in front of the stages, and their lifted
certificates."""

import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosability import (
    CHOOSABLE,
    HEURISTICS,
    NOT_CHOOSABLE,
    UNKNOWN,
    OracleLimitError,
    Problem,
    brute_force_choosable,
    cli,
    color_from_pattern,
    direct_coefficient,
    pipeline_decide,
)
from choosability.graphs import format_problem, generate_family

from _examples import (
    complete,
    cycle,
    diamond,
    fan,
    k33,
    path3,
    second_pattern_bad,
    wheel,
    wheel_extension,
)


def disjoint_union(*problems):
    """The problems side by side, each renumbered after the ones before."""
    s, edges, offset = [], [], 0
    for p in problems:
        s += p.s
        edges += [(u + offset, v + offset) for u, v in p.edges]
        offset += p.n
    return Problem(n=offset, s=tuple(s), edges=tuple(edges))


def pattern_of(verdict):
    return [
        (tuple(entry["vector"]), entry["multiplicity"])
        for entry in verdict.certificate["pattern"]
    ]


def assert_certificate_holds(p, verdict):
    """A WitnessMonomial's coefficient is the signed orientation count; a
    BadAssignment covers the lists exactly and cannot be colored.  Each
    witness among a certificate's components holds on its own component."""
    cert = verdict.certificate
    for part in (cert or {}).get("components", []):
        if part["kind"] == "WitnessMonomial":
            component = p.induced(part["vertices"], p.s)
            assert direct_coefficient(component, part["f"]) == part["coefficient"] != 0
    if verdict.status == NOT_CHOOSABLE:
        assert cert["kind"] == "BadAssignment"
        pattern = pattern_of(verdict)
        assert all(any(vec) and mult >= 1 for vec, mult in pattern)
        cover = [sum(mult * vec[v] for vec, mult in pattern) for v in range(p.n)]
        assert cover == list(p.s)
        assert color_from_pattern(p, pattern) is None
    elif cert is not None and cert["kind"] == "WitnessMonomial":
        f = cert["f"]
        assert all(0 <= x < sv for x, sv in zip(f, p.s)) and sum(f) == p.m
        assert direct_coefficient(p, f) == cert["coefficient"] != 0


@st.composite
def small_problems(draw):
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    s = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    while sum(s) > 16:
        s[s.index(max(s))] -= 1
    return Problem(n=n, s=tuple(s), edges=tuple(sorted(edges)))


def brute_force_answer(p):
    """Whether p is choosable, or None past the oracle's budget."""
    try:
        return brute_force_choosable(p, max_total=16, max_nodes=200_000)[0]
    except OracleLimitError:
        return None


def assert_agrees_with_brute_force(p, verdict, truth):
    if verdict.status != UNKNOWN and truth is not None:
        assert (verdict.status == CHOOSABLE) == truth
    assert_certificate_holds(p, verdict)


@settings(max_examples=120, deadline=None)
@given(small_problems())
def test_verdicts_match_brute_force_and_certificates_hold(p):
    truth = brute_force_answer(p)
    for heuristic in ("AUTO", "INPUT"):
        for branch_limit in (1, None):
            verdict = pipeline_decide(p, heuristic=heuristic, branch_limit=branch_limit)
            assert_agrees_with_brute_force(p, verdict, truth)


@st.composite
def staged_problems(draw):
    """A small problem with a ring through its vertices in index order and
    each list clamped to [2, degree], so that the reductions leave a
    component to the stages.  They seldom do on ``small_problems`` alone:
    in one run of the test above, none of its 600 calls reached a product."""
    p = draw(small_problems().filter(lambda p: p.n >= 4))
    ring = {tuple(sorted((v, (v + 1) % p.n))) for v in range(p.n)}
    edges = tuple(sorted(ring.union(p.edges)))
    degrees = Problem(n=p.n, s=p.s, edges=edges).degrees()
    s = [min(max(size, 2), d) for size, d in zip(p.s, degrees)]
    while sum(s) > 16:
        s[s.index(max(s))] -= 1
    return Problem(n=p.n, s=tuple(s), edges=edges)


@settings(max_examples=40, deadline=None)
@given(staged_problems(), st.sampled_from(HEURISTICS), st.sampled_from((1, 8, None)))
def test_staged_verdicts_match_brute_force_under_any_heuristic_and_limit(p, heuristic, limit):
    # one heuristic and one limit per example, not all 27 pairs: the brute
    # force is most of the cost
    verdict = pipeline_decide(p, heuristic=heuristic, branch_limit=limit)
    assert_agrees_with_brute_force(p, verdict, brute_force_answer(p))


def test_disjoint_union_is_refuted_by_its_gallai_component():
    # an even cycle, choosable, beside a triangle, a Gallai tree
    p = disjoint_union(cycle(4), Problem(n=3, s=(2, 2, 2), edges=((0, 1), (0, 2), (1, 2))))
    verdict = pipeline_decide(p)
    assert verdict.status == NOT_CHOOSABLE
    assert pattern_of(verdict) == [
        ((0, 0, 0, 0, 1, 1, 1), 2),
        ((1, 0, 0, 0, 0, 0, 0), 2),
        ((0, 1, 0, 0, 0, 0, 0), 2),
        ((0, 0, 1, 0, 0, 0, 0), 2),
        ((0, 0, 0, 1, 0, 0, 0), 2),
    ]
    assert verdict.details == {
        "reductions": {"R1": 0, "R2": 0, "R4": 1, "components": 2, "decided_by": "R4"}
    }
    assert_certificate_holds(p, verdict)
    assert brute_force_choosable(p)[0] is False


def test_witnesses_of_components_multiply():
    single = pipeline_decide(cycle(4))
    p = disjoint_union(cycle(4), cycle(4))
    verdict = pipeline_decide(p)
    assert verdict.status == CHOOSABLE
    assert verdict.certificate == {
        "kind": "WitnessMonomial", "f": [1] * 8, "coefficient": 4
    }
    assert_certificate_holds(p, verdict)
    assert verdict.details["reductions"]["components"] == 2
    stats, one = verdict.details["standard_stats"], single.details["standard_stats"]
    # the components run one after another: their peaks do not add up
    assert stats == {
        "total_monomials": 2 * one["total_monomials"],
        "peak_terms": one["peak_terms"],
        "branches": 2 * one["branches"],
    }


def test_peak_terms_is_the_largest_component_peak():
    wheel_run, cycle_run = pipeline_decide(wheel()).details, pipeline_decide(cycle(6)).details
    verdict = pipeline_decide(disjoint_union(wheel(), cycle(6)))
    assert verdict.details["reductions"]["components"] == 2
    one, other = wheel_run["standard_stats"], cycle_run["standard_stats"]
    assert one["peak_terms"] != other["peak_terms"]
    assert verdict.details["standard_stats"] == {
        "total_monomials": one["total_monomials"] + other["total_monomials"],
        "peak_terms": max(one["peak_terms"], other["peak_terms"]),
        "branches": one["branches"] + other["branches"],
    }
    # only the wheel needs the extended product
    assert verdict.details["extended_stats"] == wheel_run["extended_stats"]


def test_adjacent_singleton_lists_are_refuted_by_r2():
    p = Problem(n=3, s=(1, 1, 2), edges=((0, 1), (1, 2)))
    verdict = pipeline_decide(p)
    # vertex 0 takes its one color from vertex 1, whose list is then empty;
    # vertex 2, still live, keeps two colors of its own
    assert pattern_of(verdict) == [((0, 0, 1), 2), ((1, 1, 0), 1)]
    assert verdict.details["reductions"]["decided_by"] == "R2"
    assert_certificate_holds(p, verdict)
    assert brute_force_choosable(p)[0] is False


def test_a_list_longer_than_the_degree_is_deleted_and_lifted():
    # a pendant vertex with 2 colors hangs off an even cycle
    p = Problem(n=5, s=(2, 2, 2, 2, 2), edges=cycle(4).edges + ((3, 4),))
    verdict = pipeline_decide(p)
    assert verdict.status == CHOOSABLE
    # vertex 4 goes first; its edge leaves it for the lower vertex 3
    assert verdict.certificate["f"] == [1, 1, 1, 1, 1]
    assert verdict.details["reductions"] == {
        "R1": 1, "R2": 0, "R4": 0, "components": 1, "decided_by": "stages"
    }
    assert_certificate_holds(p, verdict)
    # the same pendant vertex off an odd cycle: R4 refutes the rest
    q = Problem(n=6, s=(2,) * 6, edges=cycle(5).edges + ((0, 5),))
    refuted = pipeline_decide(q)
    assert pattern_of(refuted) == [((1, 1, 1, 1, 1, 0), 2), ((0, 0, 0, 0, 0, 1), 2)]
    assert_certificate_holds(q, refuted)
    assert brute_force_choosable(q)[0] is False


def test_gallai_tree_with_lists_below_the_degrees():
    # a 5-cycle with a triangle on vertex 0, whose 4 neighbours get 3 colors:
    # it leaves the last block's second color
    edges = cycle(5).edges + ((0, 5), (0, 6), (5, 6))
    p = Problem(n=7, s=(3, 2, 2, 2, 2, 2, 2), edges=edges)
    verdict = pipeline_decide(p)
    assert pattern_of(verdict) == [
        ((1, 1, 1, 1, 1, 0, 0), 2),
        ((1, 0, 0, 0, 0, 1, 1), 1),
        ((0, 0, 0, 0, 0, 1, 1), 1),
    ]
    assert verdict.details["reductions"]["decided_by"] == "R4"
    assert_certificate_holds(p, verdict)
    assert brute_force_choosable(p)[0] is False


@pytest.mark.parametrize("wheel_first", [True, False])
def test_a_component_choosable_without_a_witness_gives_its_certificate(wheel_first):
    parts = [wheel(), cycle(4)] if wheel_first else [cycle(4), wheel()]
    p = disjoint_union(*parts)
    verdict = pipeline_decide(p)
    assert verdict.status == CHOOSABLE
    vertices = list(range(6)) if wheel_first else list(range(4, 10))
    # the cycle's own witness is listed beside the wheel's certificate
    wheel_cert = {"kind": "AllPatternsColorable", "count": 1, "vertices": vertices}
    cycle_cert = dict(pipeline_decide(cycle(4)).certificate,
                      vertices=list(range(6, 10)) if wheel_first else list(range(4)))
    parts = [wheel_cert, cycle_cert] if wheel_first else [cycle_cert, wheel_cert]
    assert verdict.certificate == {"kind": "AllPatternsColorable", "components": parts}
    assert_certificate_holds(p, verdict)
    assert verdict.details["reductions"]["components"] == 2
    # the wheel's details, in the union's numbering
    wheel_edges = pipeline_decide(wheel()).details["deletable_edges"]
    shift = vertices[0]
    assert verdict.details["deletable_edges"] == [[u + shift, v + shift] for u, v in wheel_edges]


@pytest.mark.parametrize("mode", ["pipeline", "standard"])
def test_every_report_carries_a_reductions_record(tmp_path, capsys, mode):
    examples = [cycle(4), cycle(5), complete(3, 1), complete(4), path3(), fan(), wheel(),
                wheel_extension(), k33(), diamond(), second_pattern_bad()]
    decided_by = set()
    for p in examples:
        path = tmp_path / ("%s.prob" % p.name)
        path.write_text(format_problem(p), encoding="utf-8")
        cli.main(["decide", str(path), "--mode", mode, "--json"])
        record = json.loads(capsys.readouterr().out)["details"]["reductions"]
        decided_by.add(record["decided_by"])
        if p.name in ("c4", "fan"):
            # nothing reduces them: one component, the whole graph
            assert record == {"R1": 0, "R2": 0, "R4": 0, "components": 1,
                              "decided_by": "stages"}
    assert decided_by == {"R1/R2", "R2", "R4", "stages"}


def test_reductions_run_in_standard_mode():
    verdict = pipeline_decide(cycle(5), mode="standard")
    assert verdict.status == NOT_CHOOSABLE
    assert verdict.details["reductions"]["decided_by"] == "R4"


def test_a_later_refuted_component_outranks_an_earlier_unknown():
    # K_{3,3} with lists of 2 ends UNKNOWN; the diamond after it is refuted
    p = disjoint_union(k33(), diamond())
    verdict = pipeline_decide(p)
    assert verdict.status == NOT_CHOOSABLE
    assert verdict.details["reductions"]["decided_by"] == "stages"
    # the diamond's own pattern, moved up by 6, then K_{3,3}'s colors
    shifted = [((0,) * 6 + vec, mult) for vec, mult in pattern_of(pipeline_decide(diamond()))]
    singletons = [(tuple(int(u == v) for u in range(10)), 2) for v in range(6)]
    assert pattern_of(verdict) == shifted + singletons
    assert_certificate_holds(p, verdict)
    # with an even cycle instead, the UNKNOWN stands
    unknown = pipeline_decide(disjoint_union(cycle(4), k33()))
    assert (unknown.status, unknown.certificate) == (UNKNOWN, None)
    assert unknown.reason == "NoConstraints"
    assert unknown.details["constraint_rank"] == 0


def test_glued_cliques_4_5_is_refuted_without_a_product():
    # through the product this took 38.6 s and 107 M monomials
    p = generate_family("glued-cliques", 4, 5)
    start = time.monotonic()
    verdict = pipeline_decide(p)
    assert time.monotonic() - start < 1.0
    assert verdict.details == {
        "reductions": {"R1": 0, "R2": 0, "R4": 1, "components": 1, "decided_by": "R4"}
    }
    assert_certificate_holds(p, verdict)
    assert len(pattern_of(verdict)) == 4
