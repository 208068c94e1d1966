"""Packed degree vectors, sorted term lists, and truncated products.

A polynomial is held as a strictly sorted list of terms.  Every term packs
its degree vector into fixed-width bit fields of one or more 64-bit words,
laid out so that comparing the word sequences big-endian equals comparing
the degree vectors lexicographically in processing order.  Extended runs
add one field at the end for an optional tight marker: code 0 means no
marker, code i+1 means the vertex at processing position i.  A marked term
with packed degrees f' stands for the monomial x^(f' + 1_v) where v is the
marked vertex and f'(v) = s(v) - 1; an unmarked term stands for x^f'.
Standard runs never set a marker, so their layout has no marker field.

Processing an edge multiplies the polynomial by (x_head - x_tail) and
truncates: any degree reaching s(v), beyond the single marked coordinate,
drops the term.  ``run_truncated_product`` multiplies edges in per-vertex
turns.  When the live term count exceeds the branch limit, it cuts the list
between runs of equal degrees on the already-processed vertices (prefixes)
and runs the parts depth first, from the lexicographically largest prefix
down.
The first part is the largest prefix alone; each later part takes whole
adjacent prefixes until it holds at least 2, 4, 8, ... terms, capped at the
branch limit, so a list of thousands of tiny prefixes makes a few dozen
parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Problem, VertexOrdering
from .kernels import emit_bump, emit_mark, merge2


class CoefficientOverflow(ArithmeticError):
    """A coefficient left the signed 64-bit range during a merge."""


class DegreeLayout:
    """Bit-field layout for packed degree vectors under one ordering.

    The only owner of the packed-key format.  With ``marked`` the keys end
    in a tight-marker field, which extended runs need; without it
    ``marker_bits`` and ``marker_mask`` are 0 and every term is unmarked.
    """

    def __init__(self, problem: Problem, ordering: VertexOrdering, marked: bool = True):
        if len(ordering.order) != problem.n:
            raise ValueError("ordering size does not match problem")
        self.problem = problem
        self.ordering = ordering
        n = problem.n
        order = ordering.order
        self.bits = max(problem.s).bit_length()  # at most 64, as Problem checks
        per_word = 64 // self.bits
        self.field_mask = (1 << self.bits) - 1

        # field for processing position i, most significant field first
        self.pos_word = [i // per_word for i in range(n)]
        self.pos_shift = [64 - self.bits * ((i % per_word) + 1) for i in range(n)]

        self.marker_bits = n.bit_length() if marked else 0
        last_word = self.pos_word[n - 1]
        used = 64 - self.pos_shift[n - 1]
        if used + self.marker_bits <= 64:
            self.marker_word = last_word
            self.marker_shift = used + self.marker_bits
        else:
            self.marker_word = last_word + 1
            self.marker_shift = self.marker_bits
        self.marker_shift = 64 - self.marker_shift
        self.marker_mask = (1 << self.marker_bits) - 1
        self.words = self.marker_word + 1

        # original-vertex views of the per-position tables
        self.v_word = [0] * n
        self.v_shift = [0] * n
        self.v_code = [0] * n
        for i, v in enumerate(order):
            self.v_word[v] = self.pos_word[i]
            self.v_shift[v] = self.pos_shift[i]
            self.v_code[v] = i + 1

        # prefix_masks[i] keeps the degree fields of positions 0..i
        self.prefix_masks = np.zeros((n, self.words), dtype=np.uint64)
        acc = [0] * self.words
        for i in range(n):
            acc[self.pos_word[i]] |= self.field_mask << self.pos_shift[i]
            self.prefix_masks[i] = [np.uint64(x) for x in acc]


@dataclass
class TermList:
    """Strictly sorted term array: packed keys plus nonzero coefficients."""

    keys: np.ndarray
    coeffs: np.ndarray

    def __len__(self):
        return len(self.coeffs)

    @classmethod
    def unit(cls, layout: DegreeLayout) -> "TermList":
        return cls(
            np.zeros((1, layout.words), dtype=np.uint64),
            np.ones(1, dtype=np.int64),
        )


def unpack_terms(layout: DegreeLayout, terms: TermList):
    """Final terms as (degrees, markers, coeffs) in original indexing.

    degrees is an int64 array of shape (terms, n); markers holds the marked
    original vertex per term, or -1 when unmarked.
    """
    n = layout.problem.n
    count = len(terms)
    degrees = np.empty((count, n), dtype=np.int64)
    for v in range(n):
        col = (terms.keys[:, layout.v_word[v]] >> np.uint64(layout.v_shift[v]))
        degrees[:, v] = (col & np.uint64(layout.field_mask)).astype(np.int64)
    codes = (
        terms.keys[:, layout.marker_word] >> np.uint64(layout.marker_shift)
    ) & np.uint64(layout.marker_mask)
    codes = codes.astype(np.int64)
    order = np.asarray(layout.ordering.order, dtype=np.int64)
    markers = np.where(codes == 0, -1, order[np.maximum(codes - 1, 0)])
    return degrees, markers, terms.coeffs.copy()


def iter_terms(layout: DegreeLayout, terms: TermList):
    """Yield (degree tuple, marker vertex or None, coefficient)."""
    degrees, markers, coeffs = unpack_terms(layout, terms)
    for i in range(len(coeffs)):
        marker = None if markers[i] < 0 else int(markers[i])
        yield tuple(int(x) for x in degrees[i]), marker, int(coeffs[i])


def multiply_edge_standard(terms: TermList, u: int, v: int, layout: DegreeLayout) -> TermList:
    """Truncated product with (x_head - x_tail) for the edge {u, v}."""
    tail, head = (u, v) if u < v else (v, u)
    hk, hc = emit_bump(terms.keys, terms.coeffs, layout, head, False)
    tk, tc = emit_bump(terms.keys, terms.coeffs, layout, tail, True)
    keys, coeffs, overflow = merge2(hk, hc, tk, tc)
    if overflow:
        raise CoefficientOverflow("edge {%d,%d}" % (u, v))
    return TermList(keys, coeffs)


def multiply_edge_extended(terms: TermList, u: int, v: int, layout: DegreeLayout) -> TermList:
    """Like the standard product, but a degree reaching s(v) - 1 on an
    unmarked term becomes a tight marker instead of being dropped; terms
    that would acquire a second tight coordinate are dropped.  Raises
    ValueError on a layout without a marker field."""
    tail, head = (u, v) if u < v else (v, u)
    ak, ac = emit_bump(terms.keys, terms.coeffs, layout, head, False)
    bk, bc = emit_mark(terms.keys, terms.coeffs, layout, head, False)
    ck, cc = emit_bump(terms.keys, terms.coeffs, layout, tail, True)
    dk, dc = emit_mark(terms.keys, terms.coeffs, layout, tail, True)
    hk, hc, over1 = merge2(ak, ac, bk, bc)
    tk, tc, over2 = merge2(ck, cc, dk, dc)
    keys, coeffs, over3 = merge2(hk, hc, tk, tc)
    if over1 or over2 or over3:
        raise CoefficientOverflow("edge {%d,%d}" % (u, v))
    return TermList(keys, coeffs)


@dataclass
class RunStats:
    """Counters accumulated over a whole truncated-product run."""

    total_monomials: int = 0
    peak_terms: int = 0
    branches: int = 1

    def record(self, count: int):
        self.total_monomials += count
        if count > self.peak_terms:
            self.peak_terms = count


OUTCOME_COMPLETED = "completed"
OUTCOME_ABORTED = "aborted"

# Terms a segment may hold after a turn before the run splits it.
DEFAULT_BRANCH_LIMIT = 100000


def run_truncated_product(
    problem: Problem,
    ordering: VertexOrdering,
    mode: str = "standard",
    branch_limit: int | None = DEFAULT_BRANCH_LIMIT,
    sink=None,
    prune_matching: bool = False,
):
    """Multiply all edges in per-vertex turns, splitting past the limit.

    At the turn of the vertex at position i, the edges joining it to
    later-position vertices are multiplied in, in increasing position of
    the far endpoint.  After a turn, if the term count exceeds
    branch_limit, the list splits into parts that run independently.  A
    part is a run of whole prefixes, the degrees of positions 0..i, which
    no later edge can change.  Walking down from the largest prefix, a
    part takes prefixes until it holds at least ``need`` terms; ``need``
    starts at 1 and doubles after each part, up to branch_limit.  Prefix
    fields are the most significant, so parts deliver in descending key
    order, and terms that could still meet (a tight group shares its
    base) never straddle two parts.  Completed parts hand their final
    terms to ``sink``, which returns True to stop the whole run (early
    termination).  ``RunStats.branches`` counts the parts.

    branch_limit None disables splitting.  prune_matching applies only to
    standard mode: at every turn boundary, terms whose remaining degree
    budget cannot absorb the unprocessed edges are dropped.

    Returns (outcome, RunStats); outcome says whether the sink stopped the
    run early.
    """
    if mode not in ("standard", "extended"):
        raise ValueError("mode must be standard or extended")
    if branch_limit is not None and branch_limit < 1:
        raise ValueError("branch limit must be positive")
    layout = DegreeLayout(problem, ordering, marked=mode == "extended")
    adj = problem.adjacency()
    position = problem.n * [0]
    for i, v in enumerate(ordering.order):
        position[v] = i
    plan = []
    for i, v in enumerate(ordering.order):
        far = sorted((w for w in adj[v] if position[w] > i), key=lambda w: position[w])
        plan.append([(v, w) for w in far])
    multiply = multiply_edge_standard if mode == "standard" else multiply_edge_extended
    stats = RunStats(branches=0)
    n = problem.n

    prune = prune_matching and mode == "standard"
    hakimi = {}  # the turns' Hakimi sets, None where a turn skips the prune

    # (part, position of its next turn); a split pushes its parts smallest
    # prefix first, so the largest runs next.  A part counts as a branch
    # when it is popped, so a run the sink stops counts the parts it began.
    # The turns are inline so that no name holds a list once its product
    # with the next edge exists.
    stack = [(TermList.unit(layout), 0)]
    while stack:
        terms, i = stack.pop()
        stats.branches += 1
        while i < n and len(terms):
            for u, w in plan[i]:
                terms = multiply(terms, u, w, layout)
                stats.record(len(terms))
                if len(terms) == 0:
                    break
            else:
                if prune and i not in hakimi:
                    hakimi[i] = _turn_sets(problem, position, i)
                if hakimi.get(i) is not None:
                    terms = _prune_unreachable(layout, terms, hakimi[i])
            i += 1
            if branch_limit is not None and len(terms) > branch_limit and i < n:
                masked = terms.keys & layout.prefix_masks[i - 1]
                change = np.any(masked[1:] != masked[:-1], axis=1)
                bounds = np.concatenate(([0], np.flatnonzero(change) + 1))
                parts = []
                b, need = len(terms), 1
                while b > 0:
                    # the fewest whole prefixes ending at b that hold >= need terms
                    k = np.searchsorted(bounds, b - need, "right") - 1
                    a = int(bounds[max(k, 0)])
                    parts.append((TermList(terms.keys[a:b], terms.coeffs[a:b]), i))
                    b, need = a, min(2 * need, branch_limit)
                stack += reversed(parts)
                break
        else:
            if len(terms) and sink is not None and sink(layout, terms):
                return OUTCOME_ABORTED, stats
    return OUTCOME_COMPLETED, stats


# Turns whose remaining graph has more vertices than this skip the prune:
# the Hakimi test enumerates every vertex set of that graph.
HAKIMI_MAX_VERTICES = 18
# Elements per block of the term-by-set budget sums, which bounds the
# memory the prune adds to a turn.
_HAKIMI_BLOCK = 1 << 21


def subset_sums(values):
    """The sum of values[j] over the bits j of each mask, indexed by mask."""
    sums = np.zeros(1 << len(values), dtype=values.dtype)
    for j, value in enumerate(values):
        np.add(sums[: 1 << j], value, out=sums[1 << j : 2 << j])
    return sums


def _turn_sets(problem, position, i):
    """The Hakimi sets after the turn at position i, or None to skip it."""
    remaining = [e for e in problem.edges if position[e[0]] > i and position[e[1]] > i]
    vertices = {v for e in remaining for v in e}
    if not remaining or len(vertices) > HAKIMI_MAX_VERTICES:
        return None
    # each multiplied edge has raised one of its endpoints' degrees by one
    done = [0] * problem.n
    for u, w in problem.edges:
        if position[u] <= i or position[w] <= i:
            done[u] += 1
            done[w] += 1
    floor = {v: max(problem.s[v] - 1 - done[v], 0) for v in vertices}
    sets = HakimiSets(remaining, floor)
    return sets if len(sets.masks) else None


class HakimiSets:
    """The vertex sets of one turn's remaining graph worth testing.

    Hakimi (1965): a graph can be oriented with outdegree at most b(v) at
    every vertex if and only if e(X) <= sum of b over X for every vertex
    set X, where e(X) counts the edges inside X.  A set with a vertex that
    has no neighbour inside it is implied by the set without that vertex
    (b is never negative), so it is left out.  So is every set that the
    budget floor, a lower bound on b known in advance, already satisfies.
    """

    def __init__(self, remaining_edges, floor):
        self.vertices = sorted({v for e in remaining_edges for v in e})
        index = {v: j for j, v in enumerate(self.vertices)}
        adjacent = [0] * len(self.vertices)
        for u, w in remaining_edges:
            adjacent[index[u]] |= 1 << index[w]
            adjacent[index[w]] |= 1 << index[u]
        self.degrees = [nbrs.bit_count() for nbrs in adjacent]
        # built one vertex at a time over all sets X of the vertices so
        # far, indexed by mask: adding j to X adds |X & N(j)| edges, makes
        # j lonely when that is 0, and ends the loneliness of j's neighbours
        edges_in = np.zeros(1, dtype=np.int64)
        lonely = np.zeros(1, dtype=np.int64)
        for j, nbrs in enumerate(adjacent):
            shared = np.arange(1 << j) & nbrs
            edges_in = np.concatenate((edges_in, edges_in + np.bitwise_count(shared)))
            lonely = np.concatenate(
                (lonely, (lonely & ~nbrs) | np.where(shared == 0, 1 << j, 0))
            )
        floor = [min(floor[v], d) for v, d in zip(self.vertices, self.degrees)]
        least = subset_sums(np.array(floor, dtype=np.int64))
        self.masks = np.flatnonzero((lonely == 0) & (edges_in > least))
        self.edges_in = edges_in[self.masks].astype(np.float32)

    def members(self, masks):
        """0/1 matrix of shape (vertices, len(masks)): j is in set x."""
        octets = masks.astype("<u4").view(np.uint8).reshape(-1, 4)
        k = len(self.vertices)
        bits = np.unpackbits(octets, axis=1, count=k, bitorder="little")
        return bits.T.astype(np.float32)


def _prune_unreachable(layout, terms, sets):
    """Drop terms that no orientation of the remaining edges can complete.

    A term with degrees f can still reach a witness only if the remaining
    edges can be oriented so that every vertex v gains at most
    b(v) = s(v) - 1 - f(v) outgoing edges.  Checked exactly by the Hakimi
    inequalities of ``sets``; sets that every term satisfies (judged by
    the smallest budget per vertex) are skipped.
    """
    s = layout.problem.s
    mask = np.uint64(layout.field_mask)
    # a budget past v's remaining degree is never used; capped, every sum
    # stays below 2^24 and so is exact in float32
    budgets = np.empty((len(terms), len(sets.vertices)), dtype=np.float32, order="F")
    for j, v in enumerate(sets.vertices):
        field = (terms.keys[:, layout.v_word[v]] >> np.uint64(layout.v_shift[v])) & mask
        budgets[:, j] = np.minimum(s[v] - 1 - field.astype(np.int64), sets.degrees[j])
    tight = sets.edges_in > subset_sums(budgets.min(axis=0))[sets.masks]
    if not tight.any():
        return terms
    members = sets.members(sets.masks[tight])
    edges_in = sets.edges_in[tight]
    keep = np.empty(len(terms), dtype=bool)
    rows = max(1, _HAKIMI_BLOCK // len(edges_in))
    for a in range(0, len(terms), rows):
        keep[a : a + rows] = (budgets[a : a + rows] @ members >= edges_in).all(axis=1)
    if keep.all():
        return terms
    keep = np.flatnonzero(keep)
    return TermList(terms.keys[keep], terms.coeffs[keep])
