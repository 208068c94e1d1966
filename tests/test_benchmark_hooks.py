"""The benchmark's tracer finds every hook it patches, and restores them.

``perfbench/spans.py`` wraps public functions and methods of the package
by name; a rename in ``src/`` breaks ``perfbench/run.py --trace 1``.
These tests load the tracer by path, without writing into perfbench/.
"""

import importlib.util
import pathlib
import sys

import pytest

import choosability
from choosability import generate_family, order_vertices, poly

from _examples import fan

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans):
    """Every attribute of the traced modules and of the package classes
    they define: the places the tracer may patch."""
    owners = list(spans._MODULES)
    for module in spans._MODULES:
        owners += [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__.startswith("choosability")
        ]
    return {
        (id(owner), attr): value for owner in owners for attr, value in vars(owner).items()
    }


def test_install_then_uninstall_restores_every_binding(spans):
    before = _bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {(id(owner), attr) for owner, attr, _ in tracer._patches}
        during = _bindings(spans)
    finally:
        tracer.uninstall()
    assert _bindings(spans) == before
    keys = before.keys() | during.keys()
    changed = {key for key in keys if before.get(key) is not during.get(key)}
    assert changed == patched
    # the kernels span wraps both edge products
    for name in ("multiply_edge_standard", "multiply_edge_extended"):
        assert (id(poly), name) in changed


def test_traced_runs_reach_the_kernel_hooks(spans):
    glued = generate_family("glued-cliques", 2, 3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # looked up at call time, as the command line does, so the
        # patched binding runs
        verdict = choosability.pipeline_decide(generate_family("cycle-triangles", 3))
        poly.run_truncated_product(glued, order_vertices(glued, "INPUT"), mode="extended")
    finally:
        tracer.uninstall()
    self_s, counts = tracer.take()
    assert verdict.status == "CHOOSABLE"
    assert counts["kernels.calls"] > 0 and counts["kernels.bytes_computed"] > 0
    assert counts["poly.monomials"] > 0
    assert {"kernels", "poly.product", "decide.pipeline"} <= set(self_s)


def test_traced_decide_counts_feasible_vectors_and_patterns(spans):
    # fan() reaches the scan and the pattern search; the tracer reads their
    # counts off the arguments and results, so a changed signature or
    # return type must fail here rather than zero the counters
    p = fan()
    tracer = spans.Tracer()
    tracer.install()
    try:
        verdict = choosability.pipeline_decide(p)
    finally:
        tracer.uninstall()
    self_s, counts = tracer.take()
    assert verdict.status == "NOT_CHOOSABLE"
    assert verdict.details["feasible_vectors"] == 3
    assert counts["decide.feasible_found"] == verdict.details["feasible_vectors"]
    assert counts["decide.feasible_scanned"] == 1 << p.n
    assert counts["decide.patterns"] == verdict.details["pattern_count"] == 1
    assert {"decide.feasible", "decide.patterns"} <= set(self_s)
