"""Spans and counts at the module boundaries of ``choosability``.

``Tracer.install`` replaces the public functions at each layer boundary
with wrappers that record a span ``[name, start, end, parent]``; the
program itself is not modified and ``uninstall`` restores every binding.
Spans are kept in memory for one instance, then folded into per-name
self times: a span's duration minus the part its child spans cover.

Counts are taken from the arguments and results of the same calls, so a
ratio is measured where the work happens.
"""

from __future__ import annotations

import argparse
import functools
import time
from collections import Counter

import choosability
from choosability import cli, decide, graphs, oracle, poly

# span name -> the per-layer metric its self time adds to
SELF_METRICS = {
    "bench": "bench.self_s",
    "cli": "cli.self_s",
    "cli.parse": "cli.parse_s",
    "graphs.order": "graphs.order_s",
    "poly.product": "poly.self_s",
    "kernels": "kernels.s",
    "poly.prune": "poly.prune_s",
    "decide": "decide.self_s",
    "decide.pipeline": "decide.self_s",
    "decide.rows": "decide.rows_s",
    "decide.feasible": "decide.feasible_s",
    "decide.patterns": "decide.patterns_s",
    "decide.coloring": "decide.coloring_s",
    "oracle.brute": "oracle.brute_s",
}

UNKNOWN_REASONS = (
    "NoWitness",
    "NoConstraints",
    "FeasibleSearchTooLarge",
    "TooManyPatterns",
    "Overflow",
    "UnverifiedTransfer",
)

_MODULES = (choosability, cli, decide, graphs, oracle, poly)
_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ recording

    def span(self, name, fn, before=None, after=None, failed=None):
        """Wrap fn so every call records a span named ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, fn, after):
        """Wrap fn to count its calls without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def fold(self):
        """Add the recorded spans' self times to ``self_s`` and drop them.

        A span cut short by the instance time limit has no end and is
        skipped.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end and parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end:
                self.self_s[name] += end - start - child[i]
        self.spans.clear()
        self._stack.clear()

    def take(self):
        """Self times and counts since the last take, then reset."""
        self.fold()
        out = (Counter(self.self_s), Counter(self.counts))
        self.self_s.clear()
        self.counts.clear()
        return out

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def _everywhere(self, fn, wrapper):
        """Rebind fn in every module that imported it by name."""
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        c = self.counts

        def product_stats(args, result):
            stats = result[1]
            c["poly.branches"] += stats.branches
            c["poly.monomials"] += stats.total_monomials
            c["poly.peak_terms"] = max(c["poly.peak_terms"], stats.peak_terms)

        def kernel_terms(args, result):
            terms, layout = args[0], args[3]
            c["kernels.calls"] += 1
            c["kernels.terms_in"] += len(terms)
            c["kernels.terms_out"] += len(result)
            c["kernels.bytes_computed"] += (len(terms) + len(result)) * (
                8 * layout.words + 8
            )

        def prune_check(args, result):
            c["poly.prune_checks"] += 1
            c["poly.prune_drops"] += not result

        def restart():
            if self.inside("decide.pipeline"):
                c["decide.restarts"] += 1

        def row_offered(args, result):
            c["decide.rows_offered"] += 1
            c["decide.rows_kept"] += bool(result)

        def feasible(args, result):
            c["decide.feasible_found"] += len(result)
            c["decide.feasible_scanned"] += 1 << args[1]

        def patterns(args, result):
            c["decide.patterns"] += len(result)

        def cap_hit(exc):
            if isinstance(exc, decide.PatternCapExceeded):
                c["decide.pattern_cap_hits"] += 1

        def coloring(args, result):
            c["decide.colorings"] += 1
            c["decide.bad"] += result is None

        color_span = self.span("decide.coloring", oracle.color_from_pattern, after=coloring)
        color_plain = oracle.color_from_pattern

        def color_from_pattern(*args, **kwargs):
            # the brute-force oracle colors every pattern it enumerates;
            # those calls are its own work, counted but not spanned
            if self.inside("oracle.brute"):
                c["oracle.brute_colorings"] += 1
                return color_plain(*args, **kwargs)
            return color_span(*args, **kwargs)

        span = self.span
        self._everywhere(cli.main, span("cli", cli.main))
        for fn in (cli.build_parser, cli.read_problem):
            self._everywhere(fn, span("cli.parse", fn))
        self._patch(
            cli._Parser, "parse_args", span("cli.parse", argparse.ArgumentParser.parse_args)
        )
        self._everywhere(graphs.order_vertices, span("graphs.order", graphs.order_vertices))
        self._everywhere(
            poly.run_truncated_product,
            span("poly.product", poly.run_truncated_product, after=product_stats),
        )
        for fn in (poly.multiply_edge_standard, poly.multiply_edge_extended):
            self._everywhere(fn, span("kernels", fn, after=kernel_terms))
        self._everywhere(poly._prune_unreachable, span("poly.prune", poly._prune_unreachable))
        self._everywhere(
            oracle.orientable_within_budget,
            self.counted(oracle.orientable_within_budget, prune_check),
        )
        self._everywhere(
            decide.pipeline_decide,
            span("decide.pipeline", decide.pipeline_decide, before=restart),
        )
        for fn in (
            decide.standard_alon_tarsi,
            decide.collect_constraints,
            decide.find_deletable_edges,
        ):
            self._everywhere(fn, span("decide", fn))
        self._patch(
            decide._FirstTermSink, "__call__", span("decide", decide._FirstTermSink.__call__)
        )
        self._patch(
            decide._ConstraintSink,
            "__call__",
            span("decide.rows", decide._ConstraintSink.__call__),
        )
        self._patch(
            decide.ConstraintBasis, "add", self.counted(decide.ConstraintBasis.add, row_offered)
        )
        self._everywhere(
            decide.enumerate_feasible_vectors,
            span("decide.feasible", decide.enumerate_feasible_vectors, after=feasible),
        )
        self._everywhere(
            decide.enumerate_assignment_patterns,
            span(
                "decide.patterns",
                decide.enumerate_assignment_patterns,
                after=patterns,
                failed=cap_hit,
            ),
        )
        self._everywhere(oracle.color_from_pattern, color_from_pattern)
        self._everywhere(
            oracle.brute_force_choosable,
            span("oracle.brute", oracle.brute_force_choosable),
        )


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(self_s, counts, unknown, errors, traced_wall, untraced_wall):
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``unknown`` counts UNKNOWN verdicts by reason and ``errors`` failed
    instances by kind, both over the same pass.
    """
    by_metric = Counter()
    for name, seconds in self_s.items():
        by_metric[SELF_METRICS[name]] += seconds
    c = counts
    out = {name: (by_metric[name], "s") for name in sorted(set(SELF_METRICS.values()))}
    out.update(
        {
            "poly.branches": (c["poly.branches"], "count"),
            "poly.monomials": (c["poly.monomials"], "count"),
            "poly.peak_terms": (c["poly.peak_terms"], "count"),
            "poly.prune_checks": (c["poly.prune_checks"], "count"),
            "poly.prune_drop_ratio": (
                _ratio(c["poly.prune_drops"], c["poly.prune_checks"]), "ratio"
            ),
            "kernels.calls": (c["kernels.calls"], "count"),
            "kernels.terms_out": (c["kernels.terms_out"], "count"),
            "kernels.ns_per_term": (
                1e9 * _ratio(by_metric["kernels.s"], c["kernels.terms_out"]), "ns"
            ),
            "kernels.bytes_computed": (c["kernels.bytes_computed"], "bytes"),
            "decide.rows_offered": (c["decide.rows_offered"], "count"),
            "decide.rows_kept_ratio": (
                _ratio(c["decide.rows_kept"], c["decide.rows_offered"]), "ratio"
            ),
            "decide.feasible_ratio": (
                _ratio(c["decide.feasible_found"], c["decide.feasible_scanned"]), "ratio"
            ),
            "decide.patterns": (c["decide.patterns"], "count"),
            "decide.pattern_cap_hits": (c["decide.pattern_cap_hits"], "count"),
            "decide.colorings": (c["decide.colorings"], "count"),
            "decide.bad_ratio": (_ratio(c["decide.bad"], c["decide.colorings"]), "ratio"),
            "decide.restarts": (c["decide.restarts"], "count"),
            "oracle.brute_colorings": (c["oracle.brute_colorings"], "count"),
        }
    )
    for reason in UNKNOWN_REASONS:
        out["decide.unknown." + reason] = (unknown.pop(reason, 0), "count")
    out["decide.unknown.other"] = (sum(unknown.values()), "count")
    for kind in ("RecursionError", "timeout"):
        out["errors." + kind] = (errors.pop(kind, 0), "count")
    out["errors.other"] = (sum(errors.values()), "count")
    self_sum = sum(by_metric.values())
    out.update(
        {
            "trace.wall_s": (traced_wall, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.self_sum_s": (self_sum, "s"),
        }
    )
    return out
