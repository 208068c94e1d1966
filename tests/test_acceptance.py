"""Acceptance gate: one test per numbered criterion.

Each test is exact (integer equality, frozen sets, frozen verdicts);
where a criterion carries a wall-clock budget the test asserts it.
conftest.py prints the per-criterion PASS/FAIL table after the run.
"""

import itertools
import time

import pytest

from choosability import (
    collect_constraints,
    enumerate_assignment_patterns,
    enumerate_feasible_vectors,
    pipeline_decide,
    standard_alon_tarsi,
)
from choosability.cli import bench_orderings
from choosability.graphs import generate_family, order_vertices
from choosability.oracle import (
    brute_force_choosable,
    coefficient_table,
    color_from_pattern,
)
from choosability.poly import run_truncated_product, unpack_terms

from _examples import (
    agreement_corpus,
    as_masks,
    as_vectors,
    coefficient_corpus,
    complete,
    cycle,
    fan,
    wheel,
    wheel_extension,
)
from _references import count_bounded_orientations

BRANCH_LIMITS = (1, 8, 10**6)
HEURISTIC_SAMPLE = ("INPUT", "VSEP", "MD+PROC")


@pytest.fixture(scope="module")
def corpus():
    return coefficient_corpus()


@pytest.fixture(scope="module")
def corpus_tables(corpus):
    return [coefficient_table(p) for p in corpus]


class _Dump:
    """Collects every delivered final term as (f, marker, coefficient)."""

    def __init__(self):
        self.rows = []

    def __call__(self, layout, terms):
        degrees, markers, coeffs = unpack_terms(layout, terms)
        for k in range(len(coeffs)):
            self.rows.append(
                (
                    tuple(int(x) for x in degrees[k]),
                    int(markers[k]),
                    int(coeffs[k]),
                )
            )
        return False


def _dump_terms(p, heuristic="MD+PROC", mode="standard", branch_limit=None):
    dump = _Dump()
    run_truncated_product(
        p,
        order_vertices(p, heuristic),
        mode=mode,
        branch_limit=branch_limit,
        sink=dump,
    )
    return dump.rows


def _engine_feasible_set(p):
    assert standard_alon_tarsi(p)[0] is None
    basis, _ = collect_constraints(p)
    return basis, set(as_vectors(enumerate_feasible_vectors(basis, p.n), p.n))


def _derived_feasible_set(p, table):
    """Independent rebuild of the tight-coefficient system.

    Uses only the all-orientation table: every degree vector sitting at
    its list size in exactly one coordinate contributes its signed count
    to the equation of its reduced base vector; a color indicator is
    feasible when every equation sums to zero on it.
    """
    groups = {}
    for f, (signed, _) in table.items():
        if signed == 0:
            continue
        at_cap = [v for v in range(p.n) if f[v] >= p.s[v]]
        if len(at_cap) != 1 or f[at_cap[0]] != p.s[at_cap[0]]:
            continue
        v = at_cap[0]
        base = tuple(x - (1 if u == v else 0) for u, x in enumerate(f))
        groups.setdefault(base, {})[v] = signed
    feasible = set()
    for bits in itertools.product((0, 1), repeat=p.n):
        if all(
            sum(c * bits[v] for v, c in grp.items()) == 0
            for grp in groups.values()
        ):
            feasible.add(bits)
    return feasible


def _pattern_from_certificate(cert):
    assert cert["kind"] == "BadAssignment"
    return tuple(
        (tuple(entry["vector"]), entry["multiplicity"])
        for entry in cert["pattern"]
    )


def test_criterion_01_standard_coefficients_match_oracle(corpus, corpus_tables):
    start = time.monotonic()
    for p, table in zip(corpus, corpus_tables):
        expected = {
            f: signed
            for f, (signed, _) in table.items()
            if all(fv < sv for fv, sv in zip(f, p.s))
        }
        for heuristic in HEURISTIC_SAMPLE:
            for limit in BRANCH_LIMITS:
                got = {
                    f: c
                    for f, _, c in _dump_terms(
                        p, heuristic, branch_limit=limit
                    )
                }
                for f, signed in expected.items():
                    assert got.get(f, 0) == signed, (p.name, heuristic, limit, f)
                for f, c in got.items():
                    assert expected.get(f, 0) == c, (p.name, heuristic, limit, f)
    assert time.monotonic() - start < 60.0


def test_criterion_02_extended_tight_coefficients_match_oracle(
    corpus, corpus_tables
):
    start = time.monotonic()
    for p, table in zip(corpus, corpus_tables):
        tight = {}
        for f, (signed, _) in table.items():
            at_cap = [v for v in range(p.n) if f[v] >= p.s[v]]
            if len(at_cap) == 1 and f[at_cap[0]] == p.s[at_cap[0]]:
                tight[f] = signed
        got = {}
        for f, marker, c in _dump_terms(p, mode="extended"):
            if marker >= 0:
                key = tuple(
                    x + (1 if v == marker else 0) for v, x in enumerate(f)
                )
                got[key] = c
        for f, signed in tight.items():
            assert got.get(f, 0) == signed, (p.name, f)
        for f, c in got.items():
            assert tight.get(f, 0) == c, (p.name, f)
    assert time.monotonic() - start < 60.0


def test_criterion_03_five_cycle_with_pair_lists():
    p = cycle(5)
    _, feasible = _engine_feasible_set(p)
    assert feasible == {(0, 0, 0, 0, 0), (1, 1, 1, 1, 1)}
    verdict = pipeline_decide(p)
    assert verdict.status == "NOT_CHOOSABLE"
    assert _pattern_from_certificate(verdict.certificate) == (
        ((1, 1, 1, 1, 1), 2),
    )


def test_criterion_04_fan():
    p = fan()
    _, feasible = _engine_feasible_set(p)
    assert feasible == {
        (0, 0, 0, 0, 0),
        (1, 1, 1, 0, 0),
        (1, 0, 0, 1, 1),
    }
    nonzero = sorted(feasible - {(0,) * p.n})
    patterns = enumerate_assignment_patterns(as_masks(nonzero), p.s)
    assert patterns == [(((1, 1, 1, 0, 0), 2), ((1, 0, 0, 1, 1), 2))]
    verdict = pipeline_decide(p)
    assert verdict.status == "NOT_CHOOSABLE"
    assert verdict.details["deletable_edges"] == [[2, 3]]
    assert set(_pattern_from_certificate(verdict.certificate)) == {
        ((1, 1, 1, 0, 0), 2),
        ((1, 0, 0, 1, 1), 2),
    }


def test_criterion_05_wheel():
    p = wheel()
    witness, _ = standard_alon_tarsi(p)
    assert witness is None
    derived = _derived_feasible_set(p, coefficient_table(p))
    _, feasible = _engine_feasible_set(p)
    assert feasible == derived
    nonzero = sorted(derived - {(0,) * p.n})
    assert set(nonzero) == {(1, 1, 1, 1, 0, 0), (1, 0, 0, 0, 1, 1)}
    patterns = enumerate_assignment_patterns(as_masks(nonzero), p.s)
    assert len(patterns) == 1
    assert {vec for vec, _ in patterns[0]} == set(nonzero)
    verdict = pipeline_decide(p)
    assert verdict.status == "CHOOSABLE"


def test_criterion_06_wheel_extension():
    p = wheel_extension()
    derived = _derived_feasible_set(p, coefficient_table(p))
    _, feasible = _engine_feasible_set(p)
    assert feasible == derived
    verdict = pipeline_decide(p)
    assert verdict.status == "CHOOSABLE"
    # no multiset of feasible vectors sums to s: no admissible assignment
    assert verdict.certificate == {
        "kind": "AllPatternsColorable", "count": 0, "vertices": list(range(p.n))
    }


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_criterion_07_even_cycles(n):
    p = cycle(n)
    witness, _ = standard_alon_tarsi(p)
    assert witness is not None
    f, coeff = witness
    assert f == (1,) * n
    assert abs(coeff) == 2


def test_criterion_08_pipeline_agrees_with_exhaustive_search():
    violations = []
    for p in agreement_corpus():
        verdict = pipeline_decide(p)
        ok, witness = brute_force_choosable(p)
        if verdict.status in ("CHOOSABLE", "NOT_CHOOSABLE"):
            if (verdict.status == "CHOOSABLE") != ok:
                violations.append((p.name, verdict.status, ok))
        if not ok:
            assert standard_alon_tarsi(p)[0] is None, p.name
            basis, _ = collect_constraints(p)
            for vec, _ in witness:
                if not basis.satisfied_by(vec):
                    violations.append((p.name, "row violated", vec))
    assert violations == []


@pytest.mark.parametrize("a,b", [(2, 3), (3, 3), (2, 4)])
def test_criterion_09_glued_cliques(a, b):
    p = generate_family("glued-cliques", a, b)
    start = time.monotonic()
    verdict = pipeline_decide(p)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    assert verdict.status == "NOT_CHOOSABLE"
    pattern = _pattern_from_certificate(verdict.certificate)
    assert color_from_pattern(p, pattern) is None


@pytest.mark.parametrize("n,expected", [(3, 2), (4, 32), (5, 704)])
def test_criterion_10_complete_graph_orientation_identity(n, expected):
    p = complete(n)
    count = count_bounded_orientations(p, [n - 2] * n)
    assert count == expected
    assert count * 2 ** (n - 1) == 2**p.m * (2 ** (n - 1) - n)


def test_criterion_11_grid_diag_4():
    p = generate_family("grid-diag", 4)
    start = time.monotonic()
    verdict = pipeline_decide(p)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    assert verdict.status == "CHOOSABLE"
    assert verdict.certificate["kind"] == "WitnessMonomial"


def test_criterion_12_branch_limit_invariance(corpus):
    for p in corpus:
        verdicts = [pipeline_decide(p, branch_limit=lim) for lim in BRANCH_LIMITS]
        first = verdicts[0]
        for other in verdicts[1:]:
            assert other.status == first.status, p.name
            assert other.certificate == first.certificate, p.name
            assert other.reason == first.reason, p.name
        dumps = [
            sorted(_dump_terms(p, branch_limit=lim)) for lim in BRANCH_LIMITS
        ]
        assert dumps[0] == dumps[1] == dumps[2], p.name


def test_criterion_13_bench_orderings_on_cycle_triangles_8():
    p = generate_family("cycle-triangles", 8)
    start = time.monotonic()
    rows = bench_orderings(p, ["VSEP", "MD+PROC"])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    counts = {row["heuristic"]: row["monomials"] for row in rows}
    assert all(row["error"] is None for row in rows)
    assert counts["VSEP"] <= counts["MD+PROC"]
