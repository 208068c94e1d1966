"""Seeded inputs for each benchmark workload.

A workload is a list of instances.  An instance is one problem, in the
CLI's text format, plus the CLI calls made on it; the benchmark passes the
text on stdin (``-``), runs the calls in order and times them as one unit.
Importing this module imports ``choosability``, so the set-up probe in
``run.py`` times both.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from choosability import Problem, format_problem, generate_family

DECIDE = ("decide",)
STANDARD_FULL = ("decide", "--mode", "standard", "--branch-limit", "0")
STANDARD = ("decide", "--mode", "standard")
STANDARD_PRUNE = ("decide", "--mode", "standard", "--prune-matching")
ORACLE = ("oracle", "choosable")
BRANCHY_2000 = ("decide", "--branch-limit", "2000")
BRANCHY_100 = ("decide", "--branch-limit", "100")

# Seconds one instance may run before it counts as failed.  Pattern
# enumeration has no node bound, so an instance can run for minutes.
TIME_LIMITS = {"product": 60.0, "cliques": 60.0, "random": 2.0}


@dataclass(frozen=True)
class Instance:
    label: str
    problem: Problem
    calls: tuple[tuple[str, ...], ...]
    text: str = ""

    def argvs(self):
        """Full argument vectors for ``choosability.cli.main``."""
        for call in self.calls:
            yield [*call, "-", "--json"]


def _family(call, family, *params):
    flags = " ".join(call[1:])
    label = "%s(%s)%s" % (
        family, ",".join(map(str, params)), " " + flags if flags else ""
    )
    return Instance(label, generate_family(family, *params), (call,))


def random_problem(rng, n_range, m_cap, s_range, name=""):
    """A copy of ``random_problem`` in ``tests/_examples.py``.

    Copied, not imported, to freeze the benchmark's corpora: a change to
    the test helpers must not change what the benchmark measures.
    """
    n = rng.randint(*n_range)
    max_m = min(m_cap, n * (n - 1) // 2)
    m = rng.randint(n - 1, max_m)
    edges = tuple(sorted(rng.sample(list(itertools.combinations(range(n), 2)), m)))
    s = tuple(rng.randint(*s_range) for _ in range(n))
    return Problem(n=n, s=s, edges=edges, name=name)


def relabel(p: Problem, rng) -> Problem:
    """The same graph and lists under a random vertex permutation."""
    perm = list(range(p.n))
    rng.shuffle(perm)
    edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in p.edges))
    s = [0] * p.n
    for v in range(p.n):
        s[perm[v]] = p.s[v]
    return Problem(n=p.n, s=tuple(s), edges=edges, name=p.name)


def product(rng, smoke):
    if smoke:
        return [
            _family(STANDARD_FULL, "cycle-triangles", 5),
            _family(STANDARD_PRUNE, "cycle-triangles", 4),
            _family(DECIDE, "grid-diag", 3),
        ]
    return [
        _family(STANDARD_FULL, "cycle-triangles", 8),
        _family(STANDARD_FULL, "cycle-triangles", 7),
        _family(STANDARD, "cycle-triangles", 6),
        _family(STANDARD_PRUNE, "cycle-triangles", 6),
        _family(STANDARD, "grid-diag", 3),
        _family(STANDARD_PRUNE, "grid-diag", 3),
        _family(DECIDE, "grid-diag", 4),
        _family(DECIDE, "grid-diag", 5),
        _family(DECIDE, "cycle-triangles", 10),
    ]


def cliques(rng, smoke):
    if smoke:
        pairs, minus = [(2, 4), (3, 3)], [(2, 4)]
    else:
        pairs = [(2, 5), (3, 4), (4, 4), (6, 3), (8, 3)]
        minus = [(2, 6), (3, 5)]
    return (
        [_family(DECIDE, "glued-cliques", a, b) for a, b in pairs]
        + [_family(DECIDE, "glued-cliques-minus-edge", a, b) for a, b in minus]
        + ([] if smoke else [
            # glued-cliques(2,6) at the default limit splits into 9,481
            # branches but takes 14 s, too long to repeat in one run;
            # small limits give the same thousand-branch pattern of tiny
            # extended-mode merges in under a second
            _family(BRANCHY_2000, "glued-cliques", 2, 5),
            _family(BRANCHY_100, "glued-cliques", 3, 4),
        ])
    )


# The random corpus is drawn once from a fixed seed; a run's seed relabels
# its vertices.  Fresh draws would make a run's time depend on how many of
# the rare slow instances its seed happens to hit.
RANDOM_CORPUS_SEED = 20230116
RANDOM_SIZE = 1000
# Problems with at most this total list size also get the brute-force
# oracle, which measures the oracle layer and checks their verdicts.
# Brute force grows steeply with the total: at 10 (81 problems) a pass
# spends about 0.5 s in it and no call takes 0.1 s; at 12 some take 0.7 s.
ORACLE_MAX_TOTAL = 10


def random_mix(rng, smoke):
    base = random.Random(RANDOM_CORPUS_SEED)
    count, top = (40, 8) if smoke else (RANDOM_SIZE, 12)
    out = []
    for i in range(count):
        p = random_problem(base, (4, top), 24, (1, 4), name="rnd%d" % i)
        calls = (DECIDE, ORACLE) if sum(p.s) <= ORACLE_MAX_TOTAL else (DECIDE,)
        out.append(Instance(p.name, relabel(p, rng), calls))
    return out


BUILDERS = {
    "product": product,
    "cliques": cliques,
    "random": random_mix,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, smoke: bool = False):
    """Generate the workload's instances and their problem texts.

    The seed relabels the vertices of the random corpus.  The family
    workloads are fixed graphs: relabelling them would change the vertex
    ordering, and with it the product size, by up to 350 times.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    return [
        Instance(inst.label, inst.problem, inst.calls, format_problem(inst.problem))
        for inst in BUILDERS[workload](rng, smoke)
    ]
