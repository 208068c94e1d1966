"""Command-line frontend.

Subcommands: decide (run the decision pipeline or a single stage),
coefficients (dump final truncated-product terms), oracle (independent
slow cross-checks), bench (compare ordering heuristics), gen (emit a
problem file for a built-in family).  `-` reads the problem from stdin.
Each command but gen builds one report and prints it as text or, under
`--json`, as one line of JSON with sorted keys.  Exit codes: 0
CHOOSABLE, 1 NOT_CHOOSABLE, 2 UNKNOWN, 3 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from numpy._core import multiarray as np_multiarray

from . import decide as decide_mod
from . import oracle as oracle_mod
from .graphs import (
    DEFAULT_HEURISTIC,
    FAMILIES,
    FIXED_HEURISTICS,
    HEURISTICS,
    Problem,
    format_problem,
    generate_family,
    order_vertices,
    parse_problem,
)
from .poly import (
    DEFAULT_BRANCH_LIMIT,
    CoefficientOverflow,
    iter_terms,
    run_truncated_product,
)

EXIT_CODES = {
    decide_mod.CHOOSABLE: 0,
    decide_mod.NOT_CHOOSABLE: 1,
    decide_mod.UNKNOWN: 2,
}
EXIT_ERROR = 3


def read_problem(path: str) -> Problem:
    if path == "-":
        return parse_problem(sys.stdin.read(), name="<stdin>")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_problem(text, name=path.rsplit("/", 1)[-1].removesuffix(".prob"))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 means UNKNOWN here, so
    usage problems exit 3 like every other input error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every call shares it."""
    ap = _Parser(
        prog="choosability",
        description="Decide list-colorability and choosability of small "
        "graphs via truncated graph-polynomial coefficients.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # the problem and --json, for the commands whose only positional is the
    # problem: oracle takes its action first, so it declares its own
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("problem", help="problem file, or - for stdin")
    common.add_argument("--json", action="store_true", help="print the report as one JSON line")
    # plus the settings of a product run, for decide and coefficients
    product_flags = argparse.ArgumentParser(add_help=False, parents=[common])
    product_flags.add_argument("--heuristic", choices=HEURISTICS, default=DEFAULT_HEURISTIC)
    product_flags.add_argument(
        "--branch-limit",
        type=int,
        default=DEFAULT_BRANCH_LIMIT,
        metavar="N",
        help="terms a list may hold after a vertex turn before it splits into "
        "parts of whole prefixes, growing 1, 2, 4, ... terms up to N (in decide's "
        "standard stage, min(N, %d)); 0 disables splitting" % decide_mod.WITNESS_SPLIT,
    )

    sp = sub.add_parser("decide", parents=[product_flags], help="run the decision pipeline")
    sp.add_argument("--mode", choices=decide_mod.MODES, default="pipeline")
    sp.add_argument(
        "--pattern-cap", type=int, default=decide_mod.DEFAULT_PATTERN_CAP, metavar="C"
    )
    sp.add_argument(
        "--prune-matching",
        action="store_true",
        help="in the standard product, drop terms whose degree budgets cannot "
        "hold the edges still to multiply",
    )
    sp.set_defaults(run=_cmd_decide)

    sp = sub.add_parser(
        "coefficients", parents=[product_flags], help="print every final truncated-product term"
    )
    sp.add_argument("--mode", choices=("standard", "extended"), default="standard")
    sp.set_defaults(run=_cmd_coefficients)

    sp = sub.add_parser("oracle", help="independent slow cross-checks")
    sp.add_argument(
        "action", choices=("coefficient", "table", "choosable"),
        help="coefficient: signed orientation count for one degree vector; "
        "table: all of them; choosable: exhaustive decision",
    )
    sp.add_argument("problem", help="problem file, or - for stdin")
    sp.add_argument(
        "degrees", nargs="*", type=int,
        help="degree vector f(0) .. f(n-1) (coefficient action only)",
    )
    sp.add_argument("--json", action="store_true", help="print the answer as one JSON line")
    sp.set_defaults(run=_cmd_oracle)

    sp = sub.add_parser("bench", parents=[common], help="compare ordering heuristics")
    sp.add_argument(
        "--heuristics",
        default=",".join(FIXED_HEURISTICS),
        help="comma-separated list (default: all but AUTO, which picks one of them)",
    )
    sp.set_defaults(run=_cmd_bench)

    sp = sub.add_parser("gen", help="emit a problem file for a family")
    sp.add_argument("family", choices=FAMILIES)
    sp.add_argument("params", nargs="+", type=int)
    sp.add_argument("-o", "--output", default="-", help="file, or - for stdout")
    sp.set_defaults(run=_cmd_gen)

    return ap


def _config(args, *names) -> dict:
    """The run settings a command takes: --mode, --heuristic,
    --branch-limit (0 is None) and the flags in ``names``."""
    config = {name: getattr(args, name) for name in ("mode", "heuristic", *names)}
    config["branch_limit"] = args.branch_limit or None
    return config


def _report(p: Problem, config: dict, args, **fields) -> dict:
    """The problem and the run settings, which the reports of decide and
    coefficients echo, plus fields."""
    output = "json" if args.json else "text"
    return {
        "problem": {"name": p.name, "n": p.n, "m": p.m},
        "config": dict(config, output=output),
        **fields,
    }


def _print_pattern(pattern) -> None:
    """A bad list assignment, as ``oracle.pattern_json`` encodes it."""
    for entry in pattern:
        print("  vector %s x%d" % (entry["vector"], entry["multiplicity"]))


def _emit(args, report: dict, print_text) -> None:
    """Print ``report`` as one line of JSON with sorted keys under --json,
    and otherwise as ``print_text(report)`` prints it."""
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print_text(report)


# the line under a certificate of each kind that holds no pattern
_CERT_LINES = {"WitnessMonomial": "f = %(f)s  coefficient = %(coefficient)d",
               "AllPatternsColorable": "patterns checked: %(count)d"}


def _print_decide(report: dict) -> None:
    prob = report["problem"]
    label = prob["name"] or "<unnamed>"
    print("problem: %s (n=%d, m=%d)" % (label, prob["n"], prob["m"]))
    cfg = report["config"]
    print(
        "config: mode=%s heuristic=%s branch-limit=%s"
        % (cfg["mode"], cfg["heuristic"], cfg["branch_limit"])
    )
    print("verdict: %s" % report["verdict"])
    cert = report["certificate"]
    if cert is not None:
        print("certificate: %s" % cert["kind"])
        if cert["kind"] == "BadAssignment":
            _print_pattern(cert["pattern"])
        elif "components" in cert:
            for part in cert["components"]:
                line = _CERT_LINES[part["kind"]] % part
                print("  component %s: %s, %s" % (part["vertices"], part["kind"], line))
        else:
            print("  " + _CERT_LINES[cert["kind"]] % cert)
    if report["reason"]:
        print("reason: %s" % report["reason"])
    details = report["details"]
    for key in (
        "nested_lists",
        "constraint_rank",
        "constraint_rows_offered",
        "feasible_vectors",
        "pattern_count",
        "deletable_edges",
    ):
        if key in details:
            print("%s: %s" % (key.replace("_", " "), details[key]))
    if "reductions" in details:
        print("reductions: " + " ".join("%s=%s" % kv for kv in details["reductions"].items()))
    if "degree_bound" in details:
        print("degree bound: m=%(m)d room=%(room)d" % details["degree_bound"])
    if "ordering" in details:
        print("ordering: %(heuristic)s estimate=%(estimate)d" % details["ordering"])
    for key in ("standard_stats", "extended_stats"):
        if key in details:
            run = key.replace("_stats", " run")
            stats = "monomials=%(total_monomials)d peak=%(peak_terms)d branches=%(branches)d"
            print("%s: %s" % (run, stats % details[key]))


def _cmd_decide(args) -> int:
    p = read_problem(args.problem)
    config = _config(args, "pattern_cap", "prune_matching")
    verdict = decide_mod.pipeline_decide(p, **config)
    report = _report(
        p,
        config,
        args,
        verdict=verdict.status,
        certificate=verdict.certificate,
        reason=verdict.reason,
        details=verdict.details,
    )
    _emit(args, report, _print_decide)
    return EXIT_CODES[verdict.status]


def _print_terms(report: dict) -> None:
    for term in report["terms"]:
        mark = "-" if term["marker"] is None else str(term["marker"])
        print("%s %s %d" % (" ".join(str(x) for x in term["f"]), mark, term["coefficient"]))


def _cmd_coefficients(args) -> int:
    p = read_problem(args.problem)
    config = _config(args)
    ordering = order_vertices(p, config["heuristic"])
    terms = []

    def sink(layout, part):
        terms.extend(
            {"f": f, "marker": marker, "coefficient": coeff}
            for f, marker, coeff in iter_terms(layout, part)
        )

    try:
        run_truncated_product(
            p,
            ordering,
            mode=config["mode"],
            branch_limit=config["branch_limit"],
            sink=sink,
        )
    except CoefficientOverflow as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CODES[decide_mod.UNKNOWN]
    # unmarked terms before the marked terms of the same degrees
    terms.sort(key=lambda t: (t["f"], t["marker"] is not None, t["marker"] or 0))
    _emit(args, _report(p, config, args, terms=terms), _print_terms)
    return 0


def _print_table(report: dict) -> None:
    for entry in report["entries"]:
        f = " ".join(str(x) for x in entry["f"])
        print("%s %d %d" % (f, entry["coefficient"], entry["orientations"]))


def _print_choosable(report: dict) -> None:
    print("choosable" if report["choosable"] else "not choosable")
    _print_pattern(report["witness"] or [])


def _cmd_oracle(args) -> int:
    if args.degrees and args.action != "coefficient":
        raise ValueError("oracle %s takes no degree vector" % args.action)
    p = read_problem(args.problem)
    if args.action == "coefficient":
        coeff = oracle_mod.direct_coefficient(p, tuple(args.degrees))
        _emit(args, {"f": args.degrees, "coefficient": coeff}, lambda r: print(coeff))
        return 0
    if args.action == "table":
        entries = [
            {"f": list(f), "coefficient": signed, "orientations": count}
            for f, (signed, count) in sorted(oracle_mod.coefficient_table(p).items())
        ]
        _emit(args, {"entries": entries}, _print_table)
        return 0
    # choosable
    try:
        ok, witness = oracle_mod.brute_force_choosable(p)
    except oracle_mod.OracleLimitError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return EXIT_CODES[decide_mod.UNKNOWN]
    pattern = None if ok else oracle_mod.pattern_json(witness)
    _emit(args, {"choosable": ok, "witness": pattern}, _print_choosable)
    return 0 if ok else 1


def bench_orderings(p: Problem, heuristics=FIXED_HEURISTICS) -> list[dict]:
    """Total monomial counts per ordering heuristic, with the estimate
    each ordering carries.

    Runs the standard-mode product to completion at the default branch
    limit, once per heuristic named.  When INPUT is among them, each
    count is also given relative to INPUT's.  The counts do not depend
    on the limit; the limit bounds the terms held at once, not the time,
    which grows with the count.
    """
    # every name is checked before any product runs
    orderings = {h: order_vertices(p, h) for h in dict.fromkeys(heuristics)}
    rows = []
    for h, ordering in orderings.items():
        row = {
            "heuristic": h,
            "order": list(ordering.order),
            "estimate": ordering.estimate,
            "monomials": None,
            "relative_percent": None,
            "error": None,
        }
        try:
            _, stats = run_truncated_product(p, ordering, mode="standard")
            row["monomials"] = stats.total_monomials
        except CoefficientOverflow as exc:
            row["error"] = str(exc)
        rows.append(row)
    baseline = next((r["monomials"] for r in rows if r["heuristic"] == "INPUT"), None)
    for row in rows:
        if row["monomials"] is not None and baseline:
            row["relative_percent"] = 100.0 * row["monomials"] / baseline
    return rows


def _print_bench(report: dict) -> None:
    print("%-10s %14s %14s %10s" % ("heuristic", "estimate", "monomials", "relative"))
    for row in report["rows"]:
        count = "overflow" if row["error"] is not None else row["monomials"]
        rel = row["relative_percent"]
        rel = "-" if rel is None else "%.1f%%" % rel
        print("%-10s %14d %14s %10s" % (row["heuristic"], row["estimate"], count, rel))
    print("AUTO takes %s" % report["auto"])


def _cmd_bench(args) -> int:
    p = read_problem(args.problem)
    heuristics = [h.strip() for h in args.heuristics.split(",") if h.strip()]
    if not heuristics:
        raise ValueError("--heuristics names no heuristic")
    report = {
        "problem": {"name": p.name, "n": p.n, "m": p.m},
        "rows": bench_orderings(p, heuristics),
        "auto": order_vertices(p, "AUTO").heuristic,
    }
    _emit(args, report, _print_bench)
    return 0


def _cmd_gen(args) -> int:
    p = generate_family(args.family, *args.params)
    text = format_problem(p)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def main(argv=None) -> int:
    # numpy asks the kernel for transparent huge pages on arrays of 4 MB and
    # up; whether they come, at the fault or later from khugepaged, depends
    # on the host's free memory, so one product could run 20% faster in one
    # process than in the next.  The CLI's runs take ordinary pages.
    np_multiarray._set_madvise_hugepage(False)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # a ProblemFormatError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash exits 3 as well, never with a verdict's code
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
