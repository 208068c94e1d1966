#!/usr/bin/env python3
"""Choosability benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload {product,cliques,random,all}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]

Each instance is decided by calling ``choosability.cli.main([...,
"-", "--json"])`` in this process, with the problem on stdin and stdout
captured, so argument parsing, deciding and report assembly are timed and
interpreter start-up is not.  A run makes a fixed number of passes, each
deciding every instance once in order; the number comes from
``--seconds`` and the constant ``PASS_SECONDS`` alone, so it does not
depend on how fast the program is.  ``wall_s`` is the median pass time.
On the interpreter-bound workloads every time is reported in reference
seconds: the host's speed is sampled between instances (see speed.py)
and each pass is scaled by it.
Every output is checked outside the timed region (see check.py); a wrong
verdict or a certificate that fails its check makes the command exit 1.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
instance untraced and traced, back to back, in as many passes, and
reports the per-layer metrics (see spans.py) and the tracing overhead.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
``--smoke`` runs tiny instances, for the benchmark's own tests.
``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import os

# one thread: the benchmark measures a single client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("product", "cliques", "random")
SETUP_SAMPLES = 11
# Seconds one pass over each workload takes on the reference machine
# (2-vCPU x86_64 VM, Python 3.11, numpy backend).  Only these constants
# and --seconds set the number of passes, so a faster program is not
# timed over more of them.
PASS_SECONDS = {"product": 7.0, "cliques": 2.4, "random": 6.0}
# Units in the speed sample taken before each instance and after the
# last: enough to follow the host, at about 5% of a pass.  None on
# product: its time is mostly numpy kernels over hundreds of MB, which
# the interpreter-bound unit does not follow (a stretch where the unit
# ran 1.5x faster sped product up by about 1.15x), so its times are
# reported as measured.
SPEED_UNITS = {"product": 0, "cliques": 8, "random": 1}
SETUP_SPEED_SAMPLES = 10  # one-unit samples either side of a set-up
MIN_PASSES = 3
CHECK_BUDGET = 3.0  # seconds per certificate re-check before it counts as unverified
DECIDED = ("CHOOSABLE", "NOT_CHOOSABLE")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "decide_p50_ms": "ms",
    "decide_p99_ms": "ms",
    "decided_frac": "ratio",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _use_checkout_source():
    """Import choosability from this checkout's src/, never from elsewhere."""
    if not (SRC / "choosability" / "__init__.py").is_file():
        sys.exit("perfbench: no choosability package under %s" % SRC)
    sys.path.insert(0, str(SRC))


def probe_setup(workload, seed, smoke) -> float:
    """Reference seconds to import choosability and build the problem texts.

    The host's speed is sampled in the same process, either side of the
    timed set-up.
    """
    before = [speed.sample(1) for _ in range(SETUP_SPEED_SAMPLES)]
    start = time.perf_counter()
    import workloads

    workloads.build(workload, seed, smoke)
    measured = time.perf_counter() - start
    after = [speed.sample(1) for _ in range(SETUP_SPEED_SAMPLES)]
    return measured * speed.scale(before + after)


def setup_sample(args) -> float:
    """Set-up time of one fresh process, as a CLI user pays it."""
    cmd = [sys.executable, __file__, "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


@dataclass
class Pass:
    """One timed pass: every instance run once, and the host's speed then."""

    scale: float  # reference seconds per measured second
    results: dict  # instance index -> (measured seconds, error kind, outputs)

    def seconds(self, i) -> float:
        return self.scale * self.results[i][0]

    @property
    def measured(self) -> float:
        return sum(r[0] for r in self.results.values())

    @property
    def wall(self) -> float:
        """The pass time in reference seconds."""
        return self.scale * self.measured


# ---------------------------------------------------------------- passes


def run_instance(cli, inst, limit, check_mod):
    """Run the instance's CLI calls; returns (seconds, error kind, outputs).

    An exception or a time-out is a failed instance, recorded by kind.
    """
    outputs = []
    error = None
    stdin = sys.stdin
    start = time.perf_counter()
    try:
        with check_mod.time_limit(limit):
            for argv in inst.argvs():
                out = io.StringIO()
                sys.stdin = io.StringIO(inst.text)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
                outputs.append((rc, out.getvalue()))
    except check_mod.TimeLimitExceeded:
        error = "timeout"
    except Exception as exc:  # a crash of the program under test
        error = type(exc).__name__
    finally:
        sys.stdin = stdin
    return time.perf_counter() - start, error, outputs


class Bench:
    """One workload's instances, its passes and their checked outputs."""

    def __init__(self, args, instances):
        import check
        import workloads
        from choosability import cli

        self.instances = instances
        self.limit = workloads.TIME_LIMITS[args.workload]
        self.units = SPEED_UNITS[args.workload]
        self.cli = cli
        self.check = check
        self.checked = {}  # (instance index, outputs) -> list of Checked
        self.problems = []  # check failures, as text
        self.first_error = {}  # error kind -> instance label
        self.unverified = []  # decided answers no second path confirmed

    def run(self, i, runner=run_instance):
        """One run of instance i, from a clean garbage collector.

        The benchmark's own objects are frozen out of the collector, so a
        run's collections do not depend on what ran before.
        """
        gc.collect()
        gc.freeze()
        return runner(self.cli, self.instances[i], self.limit, self.check)

    def sample_speed(self, speeds):
        if self.units:
            speeds.append(speed.sample(self.units))

    def run_pass(self) -> Pass:
        """Run every instance once, in order, then check their outputs.

        The host's speed is sampled between instances and after the last;
        the pass wall is the sum of the instances' timed runs.
        """
        speeds, results = [], {}
        for i in range(len(self.instances)):
            self.sample_speed(speeds)
            results[i] = self.run(i)
        self.sample_speed(speeds)
        self.verify(results)
        return Pass(speed.scale(speeds), results)

    def verify(self, results):
        """Check every output; identical outputs are checked once."""
        for i, (_, error, outputs) in results.items():
            inst = self.instances[i]
            if error is not None:
                self.first_error.setdefault(error, inst.label)
                continue
            key = (i, tuple(outputs))
            if key in self.checked:
                continue
            checked = self.check.check_instance(
                inst.problem, inst.calls, outputs, CHECK_BUDGET
            )
            self.checked[key] = checked
            for call, c in zip(inst.calls, checked):
                self.problems += ["%s %s: %s" % (inst.label, call[0], e) for e in c.errors]
                if c.verdict in DECIDED and not c.verified:
                    self.unverified.append("%s %s" % (inst.label, call[0]))

    def decide_result(self, i, outputs):
        return self.checked[(i, tuple(outputs))][0]


def pass_count(workload, seconds) -> int:
    """Timed passes in a run: odd, so the median pass is a real one."""
    n = max(MIN_PASSES, int(seconds / PASS_SECONDS[workload]))
    return n if n % 2 else n - 1


def _percentile(samples, q):
    """Inclusive percentile, q in (0, 100); a single sample is its own."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(bench, passes, setup_s):
    """End-to-end metrics over the timed passes, in reference seconds
    (which are measured seconds where the workload takes no speed samples).

    ``wall_s`` is the median pass time; an instance's latency is its
    median over the passes.
    """
    latency = median_latencies_ms(passes)
    attempted = len(passes) * len(bench.instances)
    failed = sum(r[1] is not None for p in passes for r in p.results.values())
    first = passes[0].results
    decided = sum(
        1
        for i, (_, error, outputs) in first.items()
        if error is None and bench.decide_result(i, outputs).verdict in DECIDED
    )
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "decide_p50_ms": statistics.median(latency),
        "decide_p99_ms": _percentile(latency, 99),
        "decided_frac": decided / len(bench.instances),
        "completed_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, attempted, failed


def median_latencies_ms(passes):
    """Each instance's median time over the passes, in reference ms, by index."""
    return [
        1000.0 * statistics.median(p.seconds(i) for p in passes)
        for i in sorted(passes[0].results)
    ]


def instance_rows(bench, passes):
    """Median time, verdict, reason and monomials of each instance."""
    rows = []
    for i, ms in enumerate(median_latencies_ms(passes)):
        inst = bench.instances[i]
        _, error, outputs = passes[0].results[i]
        row = {"instance": inst.label, "ms": ms}
        if error is not None:
            row.update(verdict="ERROR", reason=error, monomials=None)
        else:
            dec = bench.decide_result(i, outputs)
            row.update(verdict=dec.verdict, reason=dec.reason, monomials=dec.monomials)
        rows.append(row)
    return rows


def report_untraced(args, bench) -> int:
    count = pass_count(args.workload, args.seconds)
    samples = 1 if args.smoke else SETUP_SAMPLES
    setup, passes = [], []
    for k in range(count):
        # the set-up samples are spread over the run, so their median sees
        # the host's speed at the same moments as the passes
        setup += [setup_sample(args) for _ in range(k, samples, count)]
        passes.append(bench.run_pass())
    metrics, attempted, failed = end_to_end(bench, passes, statistics.median(setup))
    rows = instance_rows(bench, passes)
    if args.workload in ("product", "cliques"):
        line = "%-52s %10s  %-14s %-24s %12s"
        print(line % ("instance", "median ms", "verdict", "reason", "monomials"))
        for row in rows:
            print(line % (row["instance"], "%.1f" % row["ms"], row["verdict"],
                          row["reason"] or "-", row["monomials"]))
    print("latency samples: %d instances, each the median of %d passes"
          % (len(rows), len(passes)))
    print_passes(passes)
    return finish(args, bench, metrics, attempted, failed, {
        "passes": [p.wall for p in passes],
        "measured_passes": [p.measured for p in passes],
        "scales": [p.scale for p in passes],
        "instances": rows,
    })


def print_passes(passes, label="pass"):
    print("%s s, reference (measured x scale): %s" % (label, ", ".join(
        "%.3f (%.3f x %.3f)" % (p.wall, p.measured, p.scale) for p in passes)))


def report_traced(args, bench) -> int:
    """Untraced and traced passes, as many of each as an untraced run makes.

    Each instance runs untraced and traced back to back, taking the first
    place in turn, so the host's speed changes fall on both sides alike.
    The host's speed is sampled before each pair, and one scale per pass
    turns both sides' times, self times included, into reference seconds.
    The per-layer metrics come from the traced pass with the median time;
    the overhead is the median traced pass minus the median untraced one.
    """
    import spans

    tracer = spans.Tracer()
    traced_run = tracer.span("bench", run_instance)
    plain, traced = [], []
    for k in range(pass_count(args.workload, args.seconds)):
        speeds, plain_results, traced_results = [], {}, {}
        self_s, counts, peak = Counter(), Counter(), 0
        for i in range(len(bench.instances)):
            bench.sample_speed(speeds)
            for traced_now in ((i + k) % 2 == 1, (i + k) % 2 == 0):
                if not traced_now:
                    plain_results[i] = bench.run(i)
                    continue
                tracer.install()
                try:
                    traced_results[i] = bench.run(i, traced_run)
                finally:
                    tracer.uninstall()
                inst_self, inst_counts = tracer.take()
                peak = max(peak, inst_counts.pop("poly.peak_terms", 0))
                self_s.update(inst_self)
                counts.update(inst_counts)
        bench.sample_speed(speeds)
        counts["poly.peak_terms"] = peak
        bench.verify(plain_results)
        bench.verify(traced_results)
        scale = speed.scale(speeds)
        plain.append(Pass(scale, plain_results))
        traced.append((Pass(scale, traced_results),
                       Counter({name: scale * s for name, s in self_s.items()}), counts))
    median_pass, self_s, counts = sorted(traced, key=lambda t: t[0].wall)[len(traced) // 2]
    unknown, errors = Counter(), Counter()
    for i, (_, error, outputs) in median_pass.results.items():
        if error is not None:
            errors[error] += 1
        elif bench.decide_result(i, outputs).verdict == "UNKNOWN":
            unknown[bench.decide_result(i, outputs).reason] += 1
    layers = spans.layer_metrics(
        self_s, counts, unknown, errors, median_pass.wall,
        statistics.median(p.wall for p in plain),
    )
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
    gap = metrics["trace.self_sum_s"]["value"] - metrics["trace.untraced_wall_s"]["value"]
    print("tracing overhead %.4f s per pass; layer self times minus untraced wall %.4f s"
          % (metrics["trace.overhead_s"]["value"], gap))
    print_passes(plain, "untraced pass")
    print_passes([t[0] for t in traced], "traced pass")
    attempted = 2 * len(bench.instances) * len(plain)
    passes = plain + [t[0] for t in traced]
    failed = sum(r[1] is not None for p in passes for r in p.results.values())
    return finish(args, bench, metrics, attempted, failed, {
        "passes": [p.wall for p in plain],
        "traced_passes": [t[0].wall for t in traced],
        "scales": [p.scale for p in plain],
    })


def environment():
    import numpy

    from choosability import current_backend

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": current_backend(),
        "machine": platform.machine(),
    }


def run_workload(args) -> int:
    import workloads

    bench = Bench(args, workloads.build(args.workload, args.seed, args.smoke))
    if args.trace:
        return report_traced(args, bench)
    return report_untraced(args, bench)


def finish(args, bench, metrics, attempted, failed, extra) -> int:
    correct = not bench.problems
    for problem in bench.problems[:20]:
        print("CHECK FAILED: %s" % problem)
    for kind, label in sorted(bench.first_error.items()):
        print("failed instances: %s (first: %s)" % (kind, label))
    print("certificates not independently verified: %d" % len(bench.unverified))
    for name, m in metrics.items():
        print("%-32s %16.6f %s" % (name, m["value"], m["unit"]))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, smoke=args.smoke, environment=environment(),
                      failed_kinds=bench.first_error, unverified=bench.unverified, **extra)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints their metrics by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", "%s.%s.json" % (args.out, workload)]
        print("== %s" % workload, flush=True)
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
        if done.returncode not in (0, 1) or not lines:
            sys.stderr.write(done.stderr)
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, name)] = m
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instances")
    ap.add_argument("--out", help="also write a detailed JSON record here")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _use_checkout_source()
    if args.probe_setup:
        print(probe_setup(args.workload, args.seed, args.smoke))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
