"""Tests of the benchmark itself: smoke runs and the output checks.

Run with ``python3 -m pytest perfbench``.
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import run  # noqa: E402
from choosability import cli, generate_family, format_problem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_pass_count_is_odd_and_set_by_seconds_alone():
    # a faster program must be timed over the same passes as a slower one
    assert [run.pass_count("random", s) for s in (0.1, 20, 30, 60)] == [3, 3, 5, 9]
    assert run.pass_count("cliques", 20) == 7


def test_times_are_scaled_by_the_measured_speed():
    import speed

    # a host running at half the reference speed halves every time
    assert speed.scale([speed.UNIT_S * 2] * 3) == 0.5
    assert speed.scale([]) == 1.0
    p = run.Pass(0.5, {0: (3.0, None, []), 1: (1.0, None, [])})
    assert (p.measured, p.wall, p.seconds(1)) == (4.0, 2.0, 0.5)
    assert speed.sample(2) > 0


def test_without_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _decide(tmp_path, p, *flags):
    path = tmp_path / "p.prob"
    path.write_text(format_problem(p))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["decide", str(path), *flags, "--json"])
    return rc, json.loads(out.getvalue())


def _errors(p, rc, report):
    return check.check_decide(p, rc, json.dumps(report), 3.0).errors


def test_bad_assignment_with_flipped_vector_is_caught(tmp_path):
    p = generate_family("glued-cliques", 2, 3)
    rc, report = _decide(tmp_path, p)
    assert report["certificate"]["kind"] == "BadAssignment"
    assert _errors(p, rc, report) == []
    for i, entry in enumerate(report["certificate"]["pattern"]):
        for v in range(p.n):
            bad = copy.deepcopy(report)
            vec = bad["certificate"]["pattern"][i]["vector"]
            vec[v] ^= 1
            assert _errors(p, rc, bad), (i, v)


def test_colorable_assignment_is_caught(tmp_path):
    p = generate_family("glued-cliques", 2, 3)
    rc, report = _decide(tmp_path, p)
    # one color on every vertex, the rest on single vertices: covers the
    # lists exactly and is colorable
    pattern = [{"vector": [1] * p.n, "multiplicity": 1}]
    for v in range(p.n):
        for _ in range(p.s[v] - 1):
            pattern.append({"vector": [int(u == v) for u in range(p.n)], "multiplicity": 1})
    report["certificate"]["pattern"] = pattern
    assert any("colorable" in e or "colors" in e for e in _errors(p, rc, report))


def test_witness_with_wrong_coefficient_is_caught(tmp_path):
    p = generate_family("cycle-triangles", 3)
    rc, report = _decide(tmp_path, p, "--mode", "standard")
    assert report["certificate"]["kind"] == "WitnessMonomial"
    assert _errors(p, rc, report) == []
    report["certificate"]["coefficient"] += 1
    assert _errors(p, rc, report)


def test_wrong_exit_code_is_caught(tmp_path):
    p = generate_family("glued-cliques", 2, 3)
    rc, report = _decide(tmp_path, p)
    assert _errors(p, 0, report)


def test_disagreement_with_brute_force_is_caught(tmp_path):
    p = generate_family("glued-cliques", 2, 3)
    rc, report = _decide(tmp_path, p)
    assert report["verdict"] == "NOT_CHOOSABLE"
    calls = (("decide",), ("oracle", "choosable"))
    decide_out = (rc, json.dumps(report))
    lying_oracle = (0, json.dumps({"choosable": True, "witness": None}))
    checked = check.check_instance(p, calls, [decide_out, lying_oracle], 3.0)
    assert any("brute force" in e for e in checked[0].errors)
