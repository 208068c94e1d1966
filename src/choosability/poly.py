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

Kernels: ``emit_bump`` and ``emit_mark`` select, then raise or mark, one
vertex's field in a term array pair (``keys`` as above, int64 ``coeffs``);
``merge2`` merges two sorted pairs.  Selections use np.flatnonzero: a
gather by index is several times faster than a boolean mask on millions
of terms.  A sum past int64, or at INT64_MIN (whose negation wraps), sets
a flag in ``merge2``; the edge products, which know the edge, raise on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Problem, VertexOrdering

INT64_MIN = np.iinfo(np.int64).min


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


def emit_bump(keys, coeffs, layout, v, negate):
    """Terms whose degree at vertex v is at most s(v) - 2, with that degree
    raised by one; coefficients negated when ``negate`` is set."""
    word, shift = layout.v_word[v], layout.v_shift[v]
    limit = np.uint64((layout.problem.s[v] - 1) << shift)
    take = np.flatnonzero((keys[:, word] & np.uint64(layout.field_mask << shift)) < limit)
    out_k = keys[take]
    out_c = -coeffs[take] if negate else coeffs[take]
    out_k[:, word] += np.uint64(1 << shift)
    return out_k, out_c


def emit_mark(keys, coeffs, layout, v, negate):
    """Unmarked terms whose degree at vertex v is s(v) - 1, marked at v;
    coefficients negated when ``negate`` is set."""
    if not layout.marker_bits:
        raise ValueError("layout has no marker field")
    word, shift = layout.v_word[v], layout.v_shift[v]
    mword, mshift = layout.marker_word, layout.marker_shift
    tight = np.uint64((layout.problem.s[v] - 1) << shift)
    field = keys[:, word] & np.uint64(layout.field_mask << shift)
    unmarked = (keys[:, mword] & np.uint64(layout.marker_mask << mshift)) == 0
    take = np.flatnonzero((field == tight) & unmarked)
    out_k = keys[take]
    out_c = -coeffs[take] if negate else coeffs[take]
    out_k[:, mword] |= np.uint64(layout.v_code[v] << mshift)
    return out_k, out_c


def merge2(keys_a, coeffs_a, keys_b, coeffs_b):
    """Merge two strictly increasing term arrays, combining equal keys.

    Returns (keys, coeffs, overflow_flag); zero coefficients are dropped.
    """
    if len(coeffs_a) == 0:
        return keys_b.copy(), coeffs_b.copy(), False
    if len(coeffs_b) == 0:
        return keys_a.copy(), coeffs_a.copy(), False
    width = keys_a.shape[1]
    if width == 1:
        # timsort finds the two sorted runs and merges them in linear time
        keys = np.concatenate((keys_a[:, 0], keys_b[:, 0]))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        same = keys[1:] == keys[:-1]
    else:
        keys = np.vstack((keys_a, keys_b))
        # big-endian words viewed as one opaque field compare bytewise, as
        # the word sequences do, so timsort merges the two runs
        fields = keys.astype(">u8").view(np.dtype((np.void, 8 * width)))[:, 0]
        order = np.argsort(fields, kind="stable")
        del fields  # lowers the peak memory of the largest merges
        keys = keys[order]
        same = keys[1:, 0] == keys[:-1, 0]
        for w in range(1, width):
            same &= keys[1:, w] == keys[:-1, w]
    coeffs = np.concatenate((coeffs_a, coeffs_b))[order]
    del order  # lowers the peak memory of the largest merges
    overflow = False
    # inputs have unique keys, so equal-key runs have length at most 2
    if same.any():
        head = np.flatnonzero(same)
        tail = head + 1
        a = coeffs[head]
        b = coeffs[tail]
        total = a + b
        # a sum wrapped exactly when its sign differs from both addends'
        if np.any(((a ^ total) & (b ^ total)) < 0) or np.any(total == INT64_MIN):
            overflow = True
        coeffs[head] = total
        # the second of each pair is now counted in the first: drop it
        # with the zeros
        coeffs[tail] = 0
    nonzero = coeffs != 0
    if not nonzero.all():
        nonzero = np.flatnonzero(nonzero)
        keys = keys[nonzero]
        coeffs = coeffs[nonzero]
    return keys.reshape(-1, width), coeffs, overflow


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


def check_limit(value, name: str, none_ok: bool = False):
    """ValueError unless ``value`` is an int >= 1, or None when ``none_ok``.
    A bool or float is refused: a cap of 1.5 never equals the count it caps."""
    if not ((value is None and none_ok) or (type(value) is int and value >= 1)):
        raise ValueError("the %s must be %san int >= 1" % (name, "None or " * none_ok))


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
    standard mode: after each turn that leaves edges, terms whose degree
    budgets, summed over the remaining graph, cannot hold its edges are
    dropped (``_prune_unreachable``).  The final terms do not change.

    Returns (outcome, RunStats); outcome says whether the sink stopped the
    run early.
    """
    if mode not in ("standard", "extended"):
        raise ValueError("mode must be standard or extended")
    check_limit(branch_limit, "branch limit", none_ok=True)
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
    turn_bounds = [_turn_bound(problem, position, i) if prune else None for i in range(n)]

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
                if turn_bounds[i] is not None:
                    terms = _prune_unreachable(layout, terms, turn_bounds[i])
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


def _turn_bound(problem, position, i):
    """The prune's test after the turn at position i, or None when no term
    can fail it.  Of a remaining vertex's summand min(s - 1 - f, d) only
    the floor min(max(s - 1 - done, 0), d) is known for every term, done
    counting the multiplied edges at it; the summand equals its floor
    unless done > 0 and the floor is below d.  Those vertices, the
    frontier, are read per term, as min(s - 1 - f, d) = s - 1 - max(f, c)
    with c = max(s - 1 - d, 0).  Returns the frontier's (v, c) pairs and
    the largest sum of max(f, c) over them that passes."""
    s = problem.s
    degree = [0] * problem.n
    done = [0] * problem.n  # each multiplied edge raised one endpoint's degree
    for u, w in problem.edges:
        count = degree if position[u] > i and position[w] > i else done
        count[u] += 1
        count[w] += 1
    floors = [min(max(s[v] - 1 - done[v], 0), d) for v, d in enumerate(degree)]
    slack = sum(floors) - sum(degree) // 2
    if slack >= 0:
        return None
    frontier = [v for v, d in enumerate(degree) if done[v] and floors[v] < d]
    # the frontier's summands must reach the sum of its floors less the slack
    most = sum(s[v] - 1 - floors[v] for v in frontier) + slack
    return [(v, max(s[v] - 1 - degree[v], 0)) for v in frontier], most


def _prune_unreachable(layout, terms, bound):
    """Drop terms whose degree budget cannot hold the remaining edges.

    Each remaining edge raises one endpoint's degree, so a term with
    degrees f can finish only if the sum over the remaining vertices of
    min(s(v) - 1 - f(v), d(v)), d(v) the degree in the remaining graph,
    is at least its edge count: Hakimi's (1965) orientation inequality for
    the one set of all remaining vertices.  ``bound`` is the part of it
    that varies (``_turn_bound``).  The final terms do not change.
    """
    frontier, most = bound
    mask = np.uint64(layout.field_mask)
    total = np.zeros(len(terms), dtype=np.uint64)
    for v, c in frontier:
        field = terms.keys[:, layout.v_word[v]] >> np.uint64(layout.v_shift[v])
        field &= mask
        total += np.maximum(field, np.uint64(c), out=field)
    keep = total <= most
    if keep.all():
        return terms
    keep = np.flatnonzero(keep)
    return TermList(terms.keys[keep], terms.coeffs[keep])
