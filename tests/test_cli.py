"""End-to-end checks of the command-line frontend.

Every test drives cli.main() in process and inspects captured output,
pinning exit codes, the text report, the JSON report, and error paths.
"""

import contextlib
import io
import itertools
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosability import (
    Problem,
    brute_force_choosable,
    cli,
    color_from_pattern,
    oracle,
    pipeline_decide,
    poly,
)
from choosability.decide import MODES
from choosability.graphs import FIXED_HEURISTICS, format_problem, generate_family
from choosability.graphs import order_vertices, parse_problem, product_estimate
from choosability.poly import CoefficientOverflow, merge2

from _examples import complete, cycle, diamond, fan, k33, second_pattern_bad, theta


def write_problem(tmp_path, p):
    path = tmp_path / ("%s.prob" % (p.name or "problem"))
    path.write_text(format_problem(p), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# decide

def test_decide_not_choosable_text_report(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(5))
    code, out, err = run_cli(capsys, ["decide", path])
    assert code == 1
    assert err == ""
    assert "problem: c5 (n=5, m=5)" in out
    assert "verdict: NOT_CHOOSABLE" in out
    assert "certificate: BadAssignment" in out
    assert "  vector [1, 1, 1, 1, 1] x2" in out


def test_decide_standard_witness(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(4))
    code, out, _ = run_cli(capsys, ["decide", path, "--mode", "standard"])
    assert code == 0
    assert "verdict: CHOOSABLE" in out
    assert "certificate: WitnessMonomial" in out
    assert "  f = [1, 1, 1, 1]  coefficient = -2" in out
    assert "standard run: monomials=" in out


def test_decide_standard_miss_is_unknown(tmp_path, capsys):
    path = write_problem(tmp_path, k33())
    code, out, _ = run_cli(capsys, ["decide", path, "--mode", "standard"])
    assert code == 2
    assert "verdict: UNKNOWN" in out
    assert "reason: NoWitness" in out


def test_decide_no_constraints_is_unknown(tmp_path, capsys):
    path = write_problem(tmp_path, k33())
    code, out, _ = run_cli(capsys, ["decide", path])
    assert code == 2
    assert "reason: NoConstraints" in out


def test_decide_singleton_triangle_is_refuted_by_a_reduction(tmp_path, capsys):
    p = complete(3, 1)
    path = write_problem(tmp_path, p)
    code, out, _ = run_cli(capsys, ["decide", path])
    assert code == 1
    assert "  vector [1, 1, 1] x1" in out.splitlines()
    assert "reductions: R1=0 R2=1 R4=0 components=0 decided_by=R2" in out.splitlines()
    assert brute_force_choosable(p)[0] is False


@pytest.mark.parametrize("mode", MODES)
def test_decide_json_matches_library(tmp_path, capsys, mode):
    p = fan()
    path = write_problem(tmp_path, p)
    code, out, _ = run_cli(capsys, ["decide", path, "--mode", mode, "--json"])
    report = json.loads(out)
    verdict = pipeline_decide(p, mode=mode)
    assert code == cli.EXIT_CODES[verdict.status]
    assert report["problem"] == {"name": "fan", "n": 5, "m": 7}
    assert report["verdict"] == verdict.status
    assert report["certificate"] == verdict.certificate
    assert report["reason"] == verdict.reason
    assert report["details"] == verdict.details
    assert "deleted_edges" not in report["details"]
    assert report["config"]["mode"] == mode
    assert "backend" not in report["config"]
    # compact: the whole report on one line, keys sorted
    assert out == json.dumps(report, sort_keys=True) + "\n"


def test_decide_standard_overflow_is_unknown(tmp_path, capsys, monkeypatch):
    def overflowing_merge(*args):
        keys, coeffs, _ = merge2(*args)
        return keys, coeffs, True

    monkeypatch.setattr(poly, "merge2", overflowing_merge)
    path = write_problem(tmp_path, cycle(4))
    code, out, _ = run_cli(capsys, ["decide", path, "--mode", "standard", "--json"])
    report = json.loads(out)
    assert code == 2
    assert (report["verdict"], report["certificate"]) == ("UNKNOWN", None)
    assert report["reason"] == "Overflow"
    assert list(report["details"]) == ["degree_bound", "ordering", "overflow", "reductions"]
    assert report["details"]["overflow"].startswith("edge {")


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_a_crash_in_the_product_exits_3_with_one_line(tmp_path, capsys, monkeypatch, error):
    def crashing_merge(*args):
        raise error("forced")

    monkeypatch.setattr(poly, "merge2", crashing_merge)
    path = write_problem(tmp_path, cycle(4))
    code, out, err = run_cli(capsys, ["decide", path])
    # exit 1 would read as NOT_CHOOSABLE
    assert (code, out, err) == (3, "", "error: %s: forced\n" % error.__name__)


def test_an_interrupt_in_the_product_is_not_caught(tmp_path, monkeypatch):
    def interrupted_merge(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(poly, "merge2", interrupted_merge)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["decide", write_problem(tmp_path, cycle(4))])


def test_decide_text_report_details(tmp_path, capsys):
    path = write_problem(tmp_path, fan())
    _, out, _ = run_cli(capsys, ["decide", path, "--heuristic", "MD+PROC"])
    assert "constraint rank: 3" in out
    assert "constraint rows offered: 5" in out
    assert "deletable edges: [[2, 3]]" in out
    assert "config: mode=pipeline heuristic=MD+PROC branch-limit=100000" in out


@pytest.mark.parametrize(
    "family, params, used",
    [("cycle-triangles", (8,), "VSEP"), ("glued-cliques-minus-edge", (2, 4), "MD+PROC")],
)
def test_decide_reports_the_ordering_it_used(tmp_path, capsys, family, params, used):
    p = generate_family(family, *params)
    path = write_problem(tmp_path, p)
    _, out, _ = run_cli(capsys, ["decide", path, "--json"])
    report = json.loads(out)
    assert report["config"]["heuristic"] == "AUTO"
    assert report["details"]["ordering"] == {
        "heuristic": used,
        "estimate": product_estimate(p, order_vertices(p, used).order),
    }
    _, out, _ = run_cli(capsys, ["decide", path])
    estimate = report["details"]["ordering"]["estimate"]
    assert "ordering: %s estimate=%d" % (used, estimate) in out.splitlines()


def test_decide_reports_the_degree_count(tmp_path, capsys):
    # the diamond meets the row bound, so its stages run after the count
    path = write_problem(tmp_path, diamond())
    _, out, _ = run_cli(capsys, ["decide", path])
    lines = out.splitlines()
    at = lines.index("degree bound: m=5 room=4")
    assert lines[at + 1].startswith("ordering: ")
    _, out, _ = run_cli(capsys, ["decide", path, "--json"])
    assert json.loads(out)["details"]["degree_bound"] == {"m": 5, "room": 4}
    # K_{3,3} fails it, and no ordering is taken
    path = write_problem(tmp_path, k33())
    _, out, _ = run_cli(capsys, ["decide", path])
    assert "degree bound: m=9 room=6" in out.splitlines()
    assert "ordering:" not in out


def test_decide_runs_no_product_on_a_probe_component_past_the_degree_count(capsys):
    # one 52-edge component with room 49 is left after R1; both products
    # ran to the end on it, making 95 M monomials
    path = str(Path(__file__).with_name("probe-147.prob"))
    code, out, _ = run_cli(capsys, ["decide", path, "--json"])
    report = json.loads(out)
    assert code == 2
    assert report["reason"] == "NoConstraints"
    assert report["details"]["degree_bound"] == {"m": 52, "room": 49}
    assert "standard_stats" not in report["details"]
    assert "extended_stats" not in report["details"]


def test_decide_text_report_counts_the_patterns_it_colored(capsys):
    path = str(Path(__file__).with_name("r28-94.prob"))
    code, out, _ = run_cli(capsys, ["decide", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[2:5] == ["verdict: CHOOSABLE", "certificate: AllPatternsColorable",
                          "  patterns checked: 1"]
    assert "pattern count: 1" in lines


def test_decide_text_report_gives_one_line_per_component(capsys):
    path = str(Path(__file__).with_name("tight-12-c4.prob"))
    code, out, _ = run_cli(capsys, ["decide", path, "--pattern-cap", "1528"])
    assert code == 0
    lines = out.splitlines()
    witness = pipeline_decide(cycle(4)).certificate
    assert lines[2:6] == [
        "verdict: CHOOSABLE",
        "certificate: AllPatternsColorable",
        "  component [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]: AllPatternsColorable, "
        "patterns checked: 1528",
        "  component [12, 13, 14, 15]: WitnessMonomial, f = %s  coefficient = %d"
        % (witness["f"], witness["coefficient"]),
    ]


def test_decide_reads_stdin(monkeypatch, capsys):
    text = format_problem(cycle(5))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, ["decide", "-"])
    assert code == 1
    assert "problem: <stdin> (n=5, m=5)" in out


def test_decide_branch_limit_zero_disables_partitioning(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(5))
    code, out, _ = run_cli(capsys, ["decide", path, "--branch-limit", "0", "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["config"]["branch_limit"] is None
    assert report["certificate"] == pipeline_decide(cycle(5)).certificate
    # the witness search splits cycle-triangles(8) at its 4,922-term peak
    # unless splitting is off
    path = write_problem(tmp_path, generate_family("cycle-triangles", 8))
    for flags, stats in (
        ([], "monomials=24742 peak=4922 branches=2"),
        (["--branch-limit", "0"], "monomials=29054 peak=4922 branches=1"),
    ):
        code, out, _ = run_cli(capsys, ["decide", path, "--mode", "standard", *flags])
        assert code == 0
        assert out.splitlines()[-1] == "standard run: " + stats


def _bad_pattern(report):
    assert report["verdict"] == "NOT_CHOOSABLE"
    assert report["certificate"]["kind"] == "BadAssignment"
    return [
        (tuple(entry["vector"]), entry["multiplicity"])
        for entry in report["certificate"]["pattern"]
    ]


def test_decide_pattern_cap_flag(tmp_path, capsys):
    # the diamond's first pattern is bad, so cap 1 is enough to refute it
    first = diamond()
    path = write_problem(tmp_path, first)
    code, out, _ = run_cli(capsys, ["decide", path, "--pattern-cap", "1", "--json"])
    assert code == 1
    report = json.loads(out)
    assert color_from_pattern(first, _bad_pattern(report)) is None
    assert brute_force_choosable(first)[0] is False
    assert report["details"]["pattern_count"] == 1
    # here the first pattern colors and the second is bad
    p = second_pattern_bad()
    path = write_problem(tmp_path, p)
    code, out, _ = run_cli(capsys, ["decide", path, "--pattern-cap", "1"])
    assert code == 2
    assert "reason: TooManyPatterns" in out
    code, out, _ = run_cli(capsys, ["decide", path, "--pattern-cap", "2", "--json"])
    assert code == 1
    report = json.loads(out)
    assert color_from_pattern(p, _bad_pattern(report)) is None
    assert brute_force_choosable(p)[0] is False
    assert report["details"]["pattern_count"] == 2


def test_decide_feasible_cap_flag(tmp_path, capsys):
    # the scan's cap is a constant, not a setting
    path = write_problem(tmp_path, fan())
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide", path, "--feasible-cap", "4"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --feasible-cap 4" in captured.err


def test_decide_feasible_scan_too_large_to_allocate_is_unknown(tmp_path, capsys):
    # 2^49 sums could not be allocated; past the cap of 25 free entries the
    # scan does not try, and the allocation failure itself is tested on
    # enumerate_feasible_vectors
    path = write_problem(tmp_path, theta())
    code, out, err = run_cli(capsys, ["decide", path, "--json"])
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["verdict"] == "UNKNOWN"
    assert report["reason"] == "FeasibleSearchTooLarge"
    assert report["details"]["constraint_rank"] == 1
    assert "feasible_cap" not in report["config"]


@pytest.mark.parametrize("flag", ["--pattern-cap"])
def test_decide_cap_below_one_exits_3(tmp_path, capsys, flag):
    path = write_problem(tmp_path, cycle(5))
    code, out, err = run_cli(capsys, ["decide", path, flag, "0"])
    assert code == 3
    assert out == ""
    assert "error:" in err


def test_decide_prune_matching_flag(tmp_path, capsys):
    path = write_problem(tmp_path, diamond())
    code, out, _ = run_cli(capsys, ["decide", path, "--prune-matching"])
    assert code == 1
    assert "verdict: NOT_CHOOSABLE" in out
    argv = ["decide", path, "--mode", "standard", "--prune-matching", "--json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 2
    assert json.loads(out)["config"]["prune_matching"] is True


def test_decide_extended_mode_exits_3(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(5))
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide", path, "--mode", "extended"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "'extended'" in captured.err


# error handling

def test_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["decide", str(tmp_path / "nope.prob")])
    assert code == 3
    assert err.startswith("error:")


def test_malformed_problem_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.prob"
    path.write_text("2 1\n1 1\n0 0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["decide", str(path)])
    assert code == 3
    assert "error:" in err


def test_bad_branch_limit_exits_3(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(4))
    code, _, err = run_cli(capsys, ["decide", path, "--branch-limit", "-5"])
    assert code == 3
    assert "error:" in err


def test_bad_branch_limit_exits_3_where_the_reductions_decide(tmp_path, capsys):
    # R2 refutes a triangle with lists of size 1 before any product runs
    triangle = Problem(n=3, s=(1, 1, 1), edges=((0, 1), (0, 2), (1, 2)))
    path = write_problem(tmp_path, triangle)
    assert run_cli(capsys, ["decide", path])[0] == 1
    code, out, err = run_cli(capsys, ["decide", path, "--branch-limit", "-5"])
    assert code == 3
    assert out == ""
    assert "error:" in err and "branch limit" in err


@pytest.mark.parametrize("command", ["coefficients", "bench"])
def test_list_size_past_one_word_exits_3(monkeypatch, capsys, command):
    # 2^70 needs a 71-bit degree field, wider than a packed key word
    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n%d 1\n0 1\n" % 2**70))
    code, out, err = run_cli(capsys, [command, "-"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "64-bit field" in err
    assert "Traceback" not in err


def test_decide_settles_a_list_size_past_one_word(monkeypatch, capsys):
    # R1 deletes the vertex with the 2^70 list before any product packs a key
    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n%d 1\n0 1\n" % 2**70))
    code, out, err = run_cli(capsys, ["decide", "-"])
    assert (code, err) == (0, "")
    assert "verdict: CHOOSABLE" in out
    assert "decided_by=R1/R2" in out


def test_usage_error_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide", "x.prob", "--heuristic", "NOPE"])
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err


def _outcome(argv):
    """stdout, stderr and exit code of one in-process call; --help and
    usage errors exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, monkeypatch):
    path = write_problem(tmp_path, fan())
    calls = [
        ["decide", path],
        ["decide", path, "--heuristic", "NOPE"],
        ["--help"],
        ["oracle", "choosable", path],
        ["coefficients", path, "--json"],
        ["gen", "glued-cliques", "2", "3"],
    ]
    assert cli.build_parser() is cli.build_parser()
    shared = [_outcome(argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(argv) for argv in calls]
    assert shared == fresh
    assert [code for _, _, code in shared] == [1, 3, 0, 1, 0, 0]


@pytest.mark.parametrize(
    "argv",
    [
        ["decide"],
        ["coefficients"],
        ["oracle", "coefficient"],
        ["oracle", "table"],
        ["oracle", "choosable"],
        ["bench"],
    ],
    ids="-".join,
)
def test_every_json_report_is_one_sorted_line(tmp_path, capsys, argv):
    # NOT_CHOOSABLE, so the oracle's witness is printed too
    path = write_problem(tmp_path, cycle(5))
    degrees = ["1"] * 5 if argv[-1] == "coefficient" else []
    code, out, err = run_cli(capsys, [*argv, path, *degrees, "--json"])
    assert code in (0, 1) and err == ""
    assert len(out.splitlines()) == 1
    assert json.dumps(json.loads(out), sort_keys=True) == out.strip()


def test_cli_runs_ask_for_no_huge_pages(capsys):
    """Huge pages come or not with the host's free memory, which would
    make a run's time vary from one process to the next."""
    from numpy._core import multiarray

    multiarray._set_madvise_hugepage(True)
    run_cli(capsys, ["gen", "glued-cliques", "2", "3"])
    assert multiarray._set_madvise_hugepage(False) is False


# coefficients

def test_coefficients_standard_single_edge(tmp_path, capsys):
    p = Problem(n=2, s=(2, 2), edges=((0, 1),), name="edge")
    path = write_problem(tmp_path, p)
    code, out, _ = run_cli(capsys, ["coefficients", path])
    assert code == 0
    assert out.splitlines() == ["0 1 - 1", "1 0 - -1"]


def test_coefficients_extended_single_edge(tmp_path, capsys):
    p = Problem(n=2, s=(1, 1), edges=((0, 1),), name="edge")
    path = write_problem(tmp_path, p)
    code, out, _ = run_cli(capsys, ["coefficients", path, "--mode", "extended"])
    assert code == 0
    assert out.splitlines() == ["0 0 0 -1", "0 0 1 1"]


def test_coefficients_extended_k3(tmp_path, capsys):
    path = write_problem(tmp_path, complete(3, 2))
    code, out, _ = run_cli(capsys, ["coefficients", path, "--mode", "extended"])
    assert code == 0
    assert out.splitlines() == [
        "0 1 1 1 -1",
        "0 1 1 2 1",
        "1 0 1 0 1",
        "1 0 1 2 -1",
        "1 1 0 0 -1",
        "1 1 0 1 1",
    ]


def test_coefficients_json_shape(tmp_path, capsys):
    p = Problem(n=2, s=(1, 1), edges=((0, 1),), name="edge")
    path = write_problem(tmp_path, p)
    code, out, _ = run_cli(
        capsys,
        ["coefficients", path, "--mode", "extended", "--heuristic", "MD+PROC", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["problem"] == {"name": "edge", "n": 2, "m": 1}
    assert report["config"] == {
        "mode": "extended",
        "heuristic": "MD+PROC",
        "branch_limit": 100000,
        "output": "json",
    }
    assert report["terms"] == [
        {"f": [0, 0], "marker": 0, "coefficient": -1},
        {"f": [0, 0], "marker": 1, "coefficient": 1},
    ]
    assert out == json.dumps(report, sort_keys=True) + "\n"


def test_coefficients_overflow_exits_2(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise CoefficientOverflow("coefficient out of range")

    monkeypatch.setattr(cli, "run_truncated_product", boom)
    path = write_problem(tmp_path, cycle(4))
    code, _, err = run_cli(capsys, ["coefficients", path])
    assert code == 2
    assert "error:" in err


# oracle

def test_oracle_coefficient(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(4))
    code, out, _ = run_cli(capsys, ["oracle", "coefficient", path, "1", "1", "1", "1"])
    assert code == 0
    assert out == "-2\n"


def test_oracle_coefficient_json(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(4))
    code, out, _ = run_cli(
        capsys, ["oracle", "coefficient", path, "1", "1", "1", "1", "--json"]
    )
    assert code == 0
    assert json.loads(out) == {"f": [1, 1, 1, 1], "coefficient": -2}


def test_oracle_coefficient_wrong_arity_exits_3(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(4))
    code, _, err = run_cli(capsys, ["oracle", "coefficient", path, "1", "1"])
    assert code == 3
    assert err == "error: expected 4 degree values, got 2\n"


def test_oracle_coefficient_refuses_a_long_path(tmp_path, capsys):
    m = 1500
    p = Problem(n=m + 1, s=(2,) * (m + 1), edges=tuple((i, i + 1) for i in range(m)))
    path = write_problem(tmp_path, p)
    degrees = ["1"] * m + ["0"]
    code, out, err = run_cli(capsys, ["oracle", "coefficient", path, *degrees])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "recursion limit" in err


def test_oracle_table_single_edge(tmp_path, capsys):
    p = Problem(n=2, s=(2, 2), edges=((0, 1),), name="edge")
    path = write_problem(tmp_path, p)
    code, out, _ = run_cli(capsys, ["oracle", "table", path])
    assert code == 0
    assert out.splitlines() == ["0 1 1 1", "1 0 -1 1"]


def test_oracle_table_json_counts(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(4))
    code, out, _ = run_cli(capsys, ["oracle", "table", path, "--json"])
    assert code == 0
    entries = json.loads(out)["entries"]
    assert sum(e["orientations"] for e in entries) == 2 ** 4


def test_oracle_choosable_yes(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(4))
    code, out, _ = run_cli(capsys, ["oracle", "choosable", path])
    assert code == 0
    assert out == "choosable\n"


def test_oracle_choosable_no(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(5))
    code, out, _ = run_cli(capsys, ["oracle", "choosable", path])
    assert code == 1
    assert out.splitlines() == ["not choosable", "  vector [1, 1, 1, 1, 1] x2"]


def test_oracle_choosable_json(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(5))
    code, out, _ = run_cli(capsys, ["oracle", "choosable", path, "--json"])
    assert code == 1
    assert json.loads(out) == {
        "choosable": False,
        "witness": [{"vector": [1, 1, 1, 1, 1], "multiplicity": 2}],
    }


def test_decide_and_the_oracle_print_a_bad_assignment_alike(tmp_path, capsys):
    p = generate_family("glued-cliques", 2, 3)
    path = write_problem(tmp_path, p)

    def vector_lines(out):
        return [line for line in out.splitlines() if line.startswith("  vector ")]

    decided = run_cli(capsys, ["decide", path])
    brute = run_cli(capsys, ["oracle", "choosable", path])
    assert decided[0] == brute[0] == 1
    assert len(vector_lines(decided[1])) == 2
    assert vector_lines(brute[1]) == vector_lines(decided[1])
    code, out, _ = run_cli(capsys, ["oracle", "choosable", path, "--json"])
    ok, witness = brute_force_choosable(p)
    assert (code, ok) == (1, False)
    assert json.loads(out)["witness"] == oracle.pattern_json(witness)


@pytest.mark.parametrize("action", ["table", "choosable"])
def test_oracle_refuses_degrees_outside_the_coefficient_action(tmp_path, capsys, action):
    path = write_problem(tmp_path, cycle(4))
    code, out, err = run_cli(capsys, ["oracle", action, path, "1", "2", "3"])
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "degree" in err


@pytest.mark.parametrize(
    "p, limit", [(cycle(16), "at most 15 vertices"), (complete(8), "at most 22 edges")]
)
def test_oracle_table_refuses_the_orientation_sweep_past_its_limits(tmp_path, capsys, p, limit):
    path = write_problem(tmp_path, p)
    code, out, err = run_cli(capsys, ["oracle", "table", path])
    assert (code, out) == (3, "")
    assert err == "error: orientation sweep supports %s\n" % limit


def test_oracle_choosable_refuses_large_input(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(9))
    code, _, err = run_cli(capsys, ["oracle", "choosable", path])
    assert code == 2
    assert err.startswith("refused:")


# bench

def test_bench_input_baseline(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(5))
    code, out, _ = run_cli(
        capsys, ["bench", path, "--heuristics", "INPUT,MD", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    rows = report["rows"]
    assert [row["heuristic"] for row in rows] == ["INPUT", "MD"]
    assert rows[0]["relative_percent"] == 100.0
    assert all(row["monomials"] > 0 for row in rows)
    assert all(row["error"] is None for row in rows)
    assert all(row["estimate"] == product_estimate(cycle(5), row["order"]) for row in rows)
    assert report["auto"] == "MD+PROC"


def test_bench_text_table(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(5))
    code, out, _ = run_cli(capsys, ["bench", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["heuristic", "estimate", "monomials", "relative"]
    # AUTO is named, not run: its ordering is one of the eight
    assert [line.split()[0] for line in lines[1:-1]] == list(FIXED_HEURISTICS)
    assert lines[-1] == "AUTO takes MD+PROC"


def test_bench_names_the_ordering_auto_takes(tmp_path, capsys):
    p = generate_family("cycle-triangles", 6)
    path = write_problem(tmp_path, p)
    code, out, _ = run_cli(
        capsys, ["bench", path, "--heuristics", "VSEP,MD+PROC", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    rows = {row["heuristic"]: row for row in report["rows"]}
    assert (rows["VSEP"]["estimate"], rows["MD+PROC"]["estimate"]) == (7978, 1395022)
    assert rows["VSEP"]["monomials"] < rows["MD+PROC"]["monomials"]
    assert report["auto"] == "VSEP"


def test_bench_runs_only_the_orderings_it_is_named(tmp_path, capsys):
    # INPUT is the relative column's baseline, so without it there is none
    path = write_problem(tmp_path, generate_family("cycle-triangles", 6))
    with mock.patch.object(
        cli, "run_truncated_product", wraps=cli.run_truncated_product
    ) as product:
        code, out, _ = run_cli(
            capsys, ["bench", path, "--heuristics", "VSEP,MD+PROC", "--json"]
        )
    assert code == 0
    assert product.call_count == 2
    rows = json.loads(out)["rows"]
    assert [row["heuristic"] for row in rows] == ["VSEP", "MD+PROC"]
    assert [row["relative_percent"] for row in rows] == [None, None]
    _, out, _ = run_cli(capsys, ["bench", path, "--heuristics", "VSEP"])
    assert out.splitlines()[1].split()[-1] == "-"


def test_bench_reports_an_overflow_in_its_row(tmp_path, capsys, monkeypatch):
    path = write_problem(tmp_path, cycle(5))
    product = cli.run_truncated_product

    def overflow_under_md(p, ordering, **kwargs):
        if ordering.heuristic == "MD":
            raise CoefficientOverflow("edge {0,1}")
        return product(p, ordering, **kwargs)

    monkeypatch.setattr(cli, "run_truncated_product", overflow_under_md)
    code, out, _ = run_cli(capsys, ["bench", path, "--heuristics", "INPUT,MD", "--json"])
    assert code == 0
    rows = {row["heuristic"]: row for row in json.loads(out)["rows"]}
    assert rows["MD"]["error"] == "edge {0,1}"
    assert rows["MD"]["monomials"] is None and rows["MD"]["relative_percent"] is None
    assert rows["INPUT"]["error"] is None and rows["INPUT"]["relative_percent"] == 100.0
    code, out, _ = run_cli(capsys, ["bench", path, "--heuristics", "INPUT,MD"])
    assert code == 0
    heuristic, _, count, relative = out.splitlines()[2].split()
    assert (heuristic, count, relative) == ("MD", "overflow", "-")


@pytest.mark.parametrize("names", [",", "", " , "])
def test_bench_without_heuristics_exits_3(tmp_path, capsys, names):
    path = write_problem(tmp_path, cycle(5))
    code, out, err = run_cli(capsys, ["bench", path, "--heuristics", names])
    assert (code, out) == (3, "")
    assert "error:" in err and "no heuristic" in err


def test_bench_unknown_heuristic_exits_3(tmp_path, capsys):
    path = write_problem(tmp_path, cycle(5))
    # the second name is checked before the first one's product runs
    with mock.patch.object(cli, "run_truncated_product") as product:
        code, out, err = run_cli(capsys, ["bench", path, "--heuristics", "MD,NOPE"])
    assert (code, out) == (3, "")
    assert err == "error: unknown heuristic 'NOPE'\n"
    product.assert_not_called()


# gen

def test_gen_stdout_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["gen", "glued-cliques", "2", "3"])
    assert code == 0
    parsed = parse_problem(out)
    built = generate_family("glued-cliques", 2, 3)
    assert (parsed.n, parsed.s, parsed.edges) == (built.n, built.s, built.edges)


def test_gen_writes_file(tmp_path, capsys):
    target = tmp_path / "out.prob"
    code, out, _ = run_cli(capsys, ["gen", "grid-diag", "4", "-o", str(target)])
    assert code == 0
    assert out == ""
    parsed = parse_problem(target.read_text(encoding="utf-8"))
    built = generate_family("grid-diag", 4)
    assert (parsed.n, parsed.s, parsed.edges) == (built.n, built.s, built.edges)


def test_gen_bad_params_exits_3(capsys):
    code, _, err = run_cli(capsys, ["gen", "glued-cliques", "1", "3"])
    assert code == 3
    assert "error:" in err


def test_gen_refuses_a_grid_below_two(capsys):
    code, out, err = run_cli(capsys, ["gen", "grid-diag", "1"])
    assert (code, out) == (3, "")
    assert err == "error: need a >= 2\n"


@pytest.mark.parametrize(
    "family, params, named",
    [
        ("glued-cliques", ["2"], "(a, b)"),
        ("grid-diag", ["2", "3"], "(a)"),
        ("cycle-triangles", ["4", "1"], "(n)"),
    ],
)
def test_gen_names_the_parameters_on_a_wrong_count(capsys, family, params, named):
    code, out, err = run_cli(capsys, ["gen", family, *params])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and named in err and "got %d" % len(params) in err


def test_gen_pipes_into_decide(monkeypatch, capsys):
    code, text, _ = run_cli(capsys, ["gen", "glued-cliques", "2", "3"])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, ["decide", "-", "--json"])
    assert code == 1
    report = json.loads(out)
    verdict = pipeline_decide(generate_family("glued-cliques", 2, 3))
    assert report["verdict"] == verdict.status == "NOT_CHOOSABLE"
    assert report["certificate"] == verdict.certificate
    # the text report opens as README's sample output shows
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, ["decide", "-"])
    assert code == 1
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    start = lines.index("$ choosability gen glued-cliques 2 3 | choosability decide -") + 1
    assert out.splitlines()[:6] == lines[start : start + 6]
    assert lines[start + 6] == "..."


# malformed input

@st.composite
def mutated_problem_text(draw):
    """A small problem's text with up to three tokens dropped, repeated or
    replaced by a negative or huge number, or with lines added."""
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    s = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    text = format_problem(Problem(n=n, s=tuple(s), edges=tuple(edges)))
    lines = [line.split() for line in text.splitlines()]
    numbers = st.one_of(st.integers(-2, 9), st.integers(-(2**70), 2**70)).map(str)
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "repeat", "number", "line"]))
        if kind == "line":
            lines.insert(row, draw(st.lists(numbers, max_size=3)))
        elif lines[row]:
            col = draw(st.integers(0, len(lines[row]) - 1))
            if kind == "drop":
                del lines[row][col]
            elif kind == "repeat":
                lines[row].insert(col, lines[row][col])
            else:
                lines[row][col] = draw(numbers)
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


@given(mutated_problem_text())
@settings(max_examples=150, deadline=None)
def test_malformed_problems_end_in_an_exit_code(text):
    for argv in (["decide"], ["coefficients"], ["oracle", "choosable"], ["bench"]):
        with mock.patch("sys.stdin", io.StringIO(text)):
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([*argv, "-"])
        assert code in (0, 1, 2, 3), (argv, text)
