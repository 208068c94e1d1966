"""Problem representation, parsing, vertex orderings, and family generators."""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass


FIXED_HEURISTICS = ("INPUT", "VSEP", "MD", "MD+PROC", "OVER", "LIST", "LIST+DEG", "MDR")
HEURISTICS = FIXED_HEURISTICS + ("AUTO",)

DEFAULT_HEURISTIC = "AUTO"

# The estimate past which AUTO leaves MD+PROC for VSEP.  MD+PROC reads below
# 1e4 on the 1,000 problems of the benchmark's `random` workload (seed 1), at
# most 1.05e4 on `cliques`, 437 on the test corpora and 1.45e4 on grid-diag(4).
# cycle-triangles(5) to (14) read 1.55e5 and up, and under VSEP 5.8e3 to
# 2.55e4 (34.3 M monomials to 29 k on (8)).  grid-diag(5) reads 4.36e5, and
# 3.96e5 under VSEP, so it keeps MD+PROC.  Any limit in [2.55e4, 1.55e5) makes
# the same choices on these; [2.11e4, 3.96e5) does on cycle-triangles(6)-(12).
AUTO_ESTIMATE_LIMIT = 10**5


class ProblemFormatError(ValueError):
    """Raised when a problem file or construction parameter is invalid;
    ``edge`` is the index of the offending edge, if an edge is at fault."""

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


def _integer(x, edge=None):
    """x as an int; a bool or any other non-integer is a ProblemFormatError."""
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Integral)):
        raise ProblemFormatError("expected an integer, got %r" % (x,), edge)
    return int(x)


@dataclass(frozen=True)
class Problem:
    """A graph with a list size attached to every vertex.

    Vertices are 0..n-1.  Edges are unordered pairs, stored as (min, max)
    tuples.  The reference orientation directs every edge from its
    lower-indexed endpoint to its higher-indexed endpoint; all coefficient
    signs elsewhere in the package are relative to that convention.
    """

    n: int
    s: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n))
        object.__setattr__(self, "s", tuple(map(_integer, self.s)))
        if self.n < 1:
            raise ProblemFormatError("need at least one vertex")
        if len(self.s) != self.n:
            raise ProblemFormatError(
                "expected %d list sizes, got %d" % (self.n, len(self.s))
            )
        for v, sv in enumerate(self.s):
            if sv < 1:
                raise ProblemFormatError("list size of vertex %d must be >= 1" % v)
            if sv.bit_length() > 64:
                raise ProblemFormatError("list size %d does not fit in a 64-bit field" % sv)
        norm = {}  # the normalized edges, in order
        for i, (u, v) in enumerate(self.edges):
            if type(u) is not int or type(v) is not int:
                u, v = _integer(u, i), _integer(v, i)
            if u == v:
                raise ProblemFormatError("self-loop at vertex %d" % u, i)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ProblemFormatError("edge {%d,%d} out of range" % (u, v), i)
            e = (u, v) if u < v else (v, u)
            if e in norm:
                raise ProblemFormatError("duplicate edge {%d,%d}" % e, i)
            norm[e] = None
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def induced(self, vertices, s) -> "Problem":
        """The subgraph on ascending ``vertices``, lists s[v], renumbered in
        order: that keeps every edge's orientation."""
        index = {v: i for i, v in enumerate(vertices)}
        edges = tuple((index[u], index[v]) for u, v in self.edges if {u, v} <= index.keys())
        return Problem(len(vertices), tuple(s[v] for v in vertices), edges, self.name)

    def without_edges(self, removed) -> "Problem":
        gone = {(min(u, v), max(u, v)) for u, v in removed}
        kept = tuple(e for e in self.edges if e not in gone)
        if len(kept) != self.m - len(gone):
            raise ValueError("some edges to remove are not present")
        return Problem(self.n, self.s, kept, self.name)


@dataclass(frozen=True)
class VertexOrdering:
    """Processing order: order[i] is the original index of the i-th vertex."""

    order: tuple[int, ...]
    heuristic: str = "INPUT"

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("ordering is not a permutation")


def parse_problem(text: str, name: str = "") -> Problem:
    """Parse the text problem format.

    Line 1: `n m`.  Line 2: n list sizes.  Then m lines `u v` with 0-based
    endpoints.  Lines starting with '#' are comments; blank lines are
    skipped.  Token, list-size and edge errors carry the 1-based number of
    the line at fault: ``Problem`` names the edge at fault, or none for a size.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped))

    def ints(row, expect, what):
        lineno, line = row
        parts = line.split()
        if len(parts) != expect:
            raise ProblemFormatError(
                "line %d: expected %d %s, got %r" % (lineno, expect, what, line)
            )
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise ProblemFormatError("line %d: non-integer in %r" % (lineno, line))

    if not rows:
        raise ProblemFormatError("empty problem")
    n, m = ints(rows[0], 2, "integers (n m)")
    if n < 1 or m < 0:
        raise ProblemFormatError("line %d: invalid n or m" % rows[0][0])
    if len(rows) < 2:
        raise ProblemFormatError("missing list-size line")
    s = ints(rows[1], n, "list sizes")
    body = rows[2:]
    if len(body) != m:
        raise ProblemFormatError("expected %d edge lines, found %d" % (m, len(body)))
    edges = tuple(tuple(ints(row, 2, "endpoints")) for row in body)
    try:
        return Problem(n, tuple(s), edges, name)
    except ProblemFormatError as exc:
        lineno = rows[1][0] if exc.edge is None else body[exc.edge][0]
        raise ProblemFormatError("line %d: %s" % (lineno, exc), exc.edge) from None


def format_problem(p: Problem) -> str:
    lines = []
    if p.name:
        lines.append("# %s" % p.name)
    lines.append("%d %d" % (p.n, p.m))
    lines.append(" ".join(str(sv) for sv in p.s))
    for u, v in p.edges:
        lines.append("%d %d" % (u, v))
    return "\n".join(lines) + "\n"


def order_vertices(p: Problem, heuristic: str = DEFAULT_HEURISTIC) -> VertexOrdering:
    """Greedy processing order under one of the named selection rules.

    INPUT keeps the input order.  The greedy rules pick the next vertex by:
    MD smallest degree in the not-yet-processed part; MD+PROC additionally
    prefers more already-processed neighbors; OVER smallest number of edges
    leaving the processed prefix after the pick; LIST smallest list size,
    then smallest remaining degree; LIST+DEG smallest list size plus
    remaining degree; VSEP fewest unprocessed vertices touching the
    processed prefix after the pick, then smallest remaining degree.
    MDR is MD reversed.  All remaining ties pick the smallest original index.

    AUTO keeps MD+PROC unless its ``product_estimate`` exceeds
    ``AUTO_ESTIMATE_LIMIT`` and VSEP's does not; then it takes VSEP.  The
    ordering names the rule used.
    """
    if heuristic not in HEURISTICS:
        raise ValueError("unknown heuristic %r" % heuristic)
    if heuristic == "AUTO":
        chosen = order_vertices(p, "MD+PROC")
        if product_estimate(p, chosen.order) > AUTO_ESTIMATE_LIMIT:
            vsep = order_vertices(p, "VSEP")
            if product_estimate(p, vsep.order) <= AUTO_ESTIMATE_LIMIT:
                return vsep
        return chosen
    if heuristic == "INPUT":
        return VertexOrdering(tuple(range(p.n)), heuristic)
    if heuristic == "MDR":
        inner = order_vertices(p, "MD")
        return VertexOrdering(tuple(reversed(inner.order)), heuristic)

    adj = p.adjacency()
    remaining = set(range(p.n))
    rem = [len(a) for a in adj]  # unprocessed neighbors
    proc = [0] * p.n  # processed neighbors
    fresh = [len(a) for a in adj]  # unprocessed, unmarked neighbors
    marked = set()  # remaining vertices with a processed neighbor
    order = []
    keys = {
        "MD": lambda v: (rem[v], v),
        "MD+PROC": lambda v: (rem[v], -proc[v], v),
        "OVER": lambda v: (rem[v] - proc[v], v),
        "LIST": lambda v: (p.s[v], rem[v], v),
        "LIST+DEG": lambda v: (p.s[v] + rem[v], v),
        "VSEP": lambda v: (len(marked) - (v in marked) + fresh[v], rem[v], v),
    }
    key = keys[heuristic]

    for _ in range(p.n):
        v = min(remaining, key=key)
        order.append(v)
        remaining.discard(v)
        if v in marked:
            marked.discard(v)
        else:
            for w in adj[v]:
                fresh[w] -= 1
        for u in adj[v]:
            rem[u] -= 1
            proc[u] += 1
            if u in remaining and u not in marked:
                marked.add(u)
                for w in adj[u]:
                    fresh[w] -= 1
    return VertexOrdering(tuple(order), heuristic)


def product_estimate(p: Problem, order) -> int:
    """A cheap guess at the truncated product's size in this order: the
    sum over the vertex turns of the product of s(v) over the frontier,
    the processed vertices that still have an unprocessed neighbor."""
    adj = p.adjacency()
    unprocessed = [len(a) for a in adj]
    done = [False] * p.n
    frontier, total = 1, 0
    for v in order:
        done[v] = True
        for u in adj[v]:
            if done[u]:
                unprocessed[u] -= 1
                unprocessed[v] -= 1
                if not unprocessed[u]:
                    frontier //= p.s[u]
        if unprocessed[v]:
            frontier *= p.s[v]
        total += frontier
    return total


def blocks(adj, vertices) -> list[tuple[list[int], list[tuple[int, ...]]]]:
    """The components of the graph on ``vertices`` (``adj`` names no other
    vertex) by lowest vertex, each as its vertices and its blocks, maximal
    2-connected subgraphs and bridges, all ascending.  Hopcroft and
    Tarjan's walk, on explicit stacks so a long cycle needs no recursion."""
    disc, low, out = {}, {}, []
    for root in sorted(vertices):
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack, found, walk = [root], [], [(root, -1, iter(sorted(adj[root])))]
        while walk:
            v, parent, nbrs = walk[-1]
            for w in nbrs:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    stack.append(w)
                    walk.append((w, v, iter(sorted(adj[w]))))
                    break
                if w != parent:
                    low[v] = min(low[v], disc[w])
            else:
                walk.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        cut = stack.index(v)
                        found.append(tuple(sorted(stack[cut:] + [parent])))
                        del stack[cut:]
        out.append((sorted({root}.union(*found)), sorted(found)))
    return out


def _glued_cliques(a: int, b: int, drop_last_edge: bool, name: str) -> Problem:
    if a < 2 or b < 3:
        raise ProblemFormatError("need a >= 2 and b >= 3")
    n = a * (b - 1) + 1
    edges = []
    for i in range(a):
        block = range(i * (b - 1), i * (b - 1) + b)
        for x in block:
            for y in block:
                if x < y:
                    edges.append((x, y))
    if drop_last_edge:
        edges.remove((n - 2, n - 1))
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return Problem(n, tuple(deg), tuple(edges), name)


def _grid_diag(a: int, name: str) -> Problem:
    if a < 2:
        raise ProblemFormatError("need a >= 2")
    n = a * a + 4

    def vid(r, c):
        return r * a + c

    edges = []
    for r in range(a):
        for c in range(a):
            if c + 1 < a:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < a:
                edges.append((vid(r, c), vid(r + 1, c)))
    # one diagonal per cell, lower-left to upper-right
    for r in range(a - 1):
        for c in range(a - 1):
            edges.append((vid(r + 1, c), vid(r, c + 1)))
    sides = [
        [vid(0, c) for c in range(a)],       # first row
        [vid(a - 1, c) for c in range(a)],   # last row
        [vid(r, 0) for r in range(a)],       # first column
        [vid(r, a - 1) for r in range(a)],   # last column
    ]
    for k, side in enumerate(sides):
        apex = a * a + k
        for v in side:
            edges.append((v, apex))
    corners = {vid(0, 0), vid(0, a - 1), vid(a - 1, 0), vid(a - 1, a - 1)}
    outer = corners | {a * a + k for k in range(4)}
    s = tuple(3 if v in outer else 5 for v in range(n))
    return Problem(n, s, tuple(edges), name)


def _cycle_triangles(n: int, name: str) -> Problem:
    # chords of length 1 would duplicate cycle edges
    if n < 2:
        raise ProblemFormatError("need n >= 2")
    nv = 3 * n
    edges = [(i, (i + 1) % nv) for i in range(nv)]
    edges += [(i, (i + n) % nv) for i in range(nv)]
    dedup = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return Problem(nv, (3,) * nv, tuple(dedup), name)


def generate_family(family: str, *params: int) -> Problem:
    """Build a named test-family instance.

    glued-cliques(a, b): a copies of K_b sharing consecutive single
    vertices, list sizes equal to degrees.  glued-cliques-minus-edge(a, b):
    the same with the edge between the last two vertices removed (list
    sizes are the degrees of the resulting graph).  grid-diag(a): a x a
    grid with one diagonal per cell and four apex vertices joined to the
    boundary rows/columns; list size 3 on apexes and grid corners, 5
    elsewhere.  cycle-triangles(n): cycle on 3n vertices plus the chords
    {i, i+n}, list size 3 everywhere.
    """
    label = "%s(%s)" % (family, ",".join(str(x) for x in params))
    builders = {
        "glued-cliques": lambda a, b: _glued_cliques(a, b, False, label),
        "glued-cliques-minus-edge": lambda a, b: _glued_cliques(a, b, True, label),
        "grid-diag": lambda a: _grid_diag(a, label),
        "cycle-triangles": lambda n: _cycle_triangles(n, label),
    }
    if family not in builders:
        raise ProblemFormatError("unknown family %r" % family)
    names = list(inspect.signature(builders[family]).parameters)
    if len(params) != len(names):
        raise ProblemFormatError(
            "%s needs the parameters (%s); got %d" % (family, ", ".join(names), len(params))
        )
    return builders[family](*params)


FAMILIES = ("glued-cliques", "glued-cliques-minus-edge", "grid-diag", "cycle-triangles")
