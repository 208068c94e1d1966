"""Packed degree vectors, sorted term lists, and truncated products.

A polynomial is held as a strictly sorted list of terms.  Every term packs
its degree vector as mixed-radix digits in one or more 64-bit words, one
digit per processing position, most significant first, so that comparing
the word sequences big-endian equals comparing the degree vectors
lexicographically in processing order (``DegreeLayout``).  Extended runs
add one lowest digit for an optional tight marker: code 0 means no
marker, code v+1 means vertex v, whatever its position.  A marked term
with packed degrees f' stands for the monomial x^(f' + 1_v) where v is the
marked vertex and f'(v) = s(v) - 1; an unmarked term stands for x^f'.
Standard runs never set a marker, so their layout has no marker digit.

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

Kernels: an edge product selects, per endpoint, the terms whose digit
it raises or marks, gathers them by index in one pass, and ``merge2``
sorts them once, combines equal keys and drops zeros.  ``TermList.bound``
caps |coefficient| and doubles per edge; only when twice the bound,
refreshed from the terms, could leave int64 does ``merge2`` test the
sums, and the edge product raises ``CoefficientOverflow`` on its flag.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .graphs import Problem, VertexOrdering

INT64_MIN = np.iinfo(np.int64).min
INT64_MAX = np.iinfo(np.int64).max


class CoefficientOverflow(ArithmeticError):
    """A coefficient left the signed 64-bit range during a merge."""


class DegreeLayout:
    """Mixed-radix layout for packed degree vectors under one ordering.

    The only owner of the packed-key format.  Each processing position is
    a digit, most significant first; with ``marked`` a tight-marker digit
    of radix n + 1, which extended runs need, comes last, else ``marker``
    is None.  Digits fill 64-bit words in turn while a word's radices
    multiply to at most 2^64 and each weight, the product of the radices
    after a digit in its word, stays below 2^64.  The radices are powers of
    two, at or above s(v) and n + 1, unless the exact values take fewer
    words: a power-of-two span reduces with a mask, any other with a
    division.  A degree digit never exceeds s(v) - 1, and a radix above
    2^64, a list size past 2^64, is refused: it is the one limit the format
    sets on a problem.  ``place[v]`` is vertex v's (word, weight, span),
    span = weight * radix; ``marker`` is the marker's, weight 1, and a term
    marked at vertex v holds v + 1 in it.
    """

    def __init__(self, problem: Problem, ordering: VertexOrdering, marked: bool = True):
        if len(ordering.order) != problem.n:
            raise ValueError("ordering size does not match problem")
        self.problem = problem
        exact = [problem.s[v] for v in ordering.order] + [problem.n + 1] * marked
        if max(exact) > 2**64:
            raise ValueError("list size %d does not fit in a 64-bit field" % max(problem.s))
        # on equal word counts min keeps the first, the powers of two
        digits = min(_place([1 << (r - 1).bit_length() for r in exact]), _place(exact),
                     key=lambda places: places[-1][0])
        self.words = digits[-1][0] + 1
        self.marker = digits[-1] if marked else None
        place = dict(zip(ordering.order, digits))
        self.place = [place[v] for v in range(problem.n)]
        # for the edge products, per vertex: (word, mask, span) as ``_low``
        # takes them, the least bumped-out digit (s(v) - 1) * weight, the
        # weight and the marker code v + 1, all ``_uint64``; then the marker's
        self.select = [
            (w, *_reduce(span), *_uint64((s - 1) * weight, weight, v + 1))
            for v, ((w, weight, span), s) in enumerate(zip(self.place, problem.s))
        ]
        self.marker_low = self.marker and (self.marker[0], *_reduce(self.marker[2]))

    def degrees(self, key) -> tuple[int, ...]:
        """One key's degree vector in original indexing, decoded in Python
        ints: on one term far cheaper than ``unpack_terms``."""
        key = key.tolist()
        return tuple(key[word] % span // weight for word, weight, span in self.place)


def _place(radices):
    """(word, weight, span) per digit, filling words as ``DegreeLayout`` says."""
    words = [[]]
    product = 1
    for r in radices:
        # the first digit of a word has the largest weight, product // lead
        if words[-1] and (product * r > 2**64 or product * r // words[-1][0] >= 2**64):
            words.append([])
            product = 1
        words[-1].append(r)
        product *= r
    places = []
    for w, word in enumerate(words):
        span = math.prod(word)
        for r in word:
            places.append((w, span // r, span))
            span //= r
    return places


def _uint64(*values):
    """0-d uint64 arrays: numpy combines them with arrays faster than scalars."""
    return [np.array(x, np.uint64) for x in values]


def _reduce(span):
    """(mask, None) for a power-of-two span, else (None, span), as uint64."""
    return (*_uint64(span - 1), None) if span & (span - 1) == 0 else (None, *_uint64(span))


def _low(col, mask, span):
    """col % span on uint64 keys, by ``mask`` = span - 1 when ``span`` is
    None: numpy's % is several times slower than & or //."""
    return col & mask if span is None else col - col // span * span


def _largest(coeffs) -> int:
    """The largest |coefficient|, 0 for none."""
    return max(int(coeffs.max()), -int(coeffs.min())) if len(coeffs) else 0


def merge2(keys, coeffs, exact):
    """Sort a term array made of strictly increasing runs whose equal keys
    come at most in pairs, combine the pairs and drop zeros.  Keys are one
    column for a one-word layout.  Returns (keys, coeffs, overflow); only
    when ``exact`` is set are the sums tested, and overflow says that one
    left int64 or is INT64_MIN, whose negation wraps.
    """
    if keys.ndim == 1:
        # timsort finds the sorted runs and merges them in linear time
        order = keys.argsort(kind="stable")
        keys = keys[order]
        same = keys[1:] == keys[:-1]
    else:
        # big-endian words viewed as one opaque field compare bytewise, as
        # the word sequences do, so timsort merges the runs
        fields = keys.astype(">u8").view(np.dtype((np.void, 8 * keys.shape[1])))[:, 0]
        order = fields.argsort(kind="stable")
        del fields  # lowers the peak memory of the largest merges
        keys = keys.take(order, axis=0)  # several times faster than keys[order]
        same = keys[1:, 0] == keys[:-1, 0]
        for w in range(1, keys.shape[1]):
            same &= keys[1:, w] == keys[:-1, w]
    coeffs = coeffs[order]
    del order  # lowers the peak memory of the largest merges
    head = same.nonzero()[0]
    overflow = False
    if len(head):
        second = head + 1
        a, b = coeffs[head], coeffs[second]
        coeffs[head] = total = a + b
        # a sum wrapped exactly when its sign differs from both addends'
        overflow = exact and bool((((a ^ total) & (b ^ total)) < 0).any())
        # the second of each pair is counted in the first: drop it with the zeros
        coeffs[second] = 0
        keep = coeffs.nonzero()[0]
        keys = keys[keep] if keys.ndim == 1 else keys.take(keep, axis=0)
        coeffs = coeffs[keep]
    return keys, coeffs, overflow or (exact and bool((coeffs == INT64_MIN).any()))


@dataclass
class TermList:
    """Strictly sorted term array: packed keys plus nonzero coefficients
    above INT64_MIN, and ``bound`` >= every |coefficient|, taken from them
    when not given."""

    keys: np.ndarray
    coeffs: np.ndarray
    bound: int | None = None

    def __post_init__(self):
        if self.bound is None:
            self.bound = _largest(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    @classmethod
    def unit(cls, layout: DegreeLayout) -> "TermList":
        return cls(np.zeros((1, layout.words), dtype=np.uint64), np.ones(1, dtype=np.int64), 1)


def unpack_terms(layout: DegreeLayout, terms: TermList):
    """Final terms as (degrees, markers, coeffs) in original indexing.

    degrees is an int64 array of shape (terms, n); markers holds the marked
    original vertex per term, or -1 when unmarked.
    """
    n = layout.problem.n
    count = len(terms)
    degrees = np.empty((count, n), dtype=np.int64)
    for v, (word, mask, span, _, weight, _) in enumerate(layout.select):
        degrees[:, v] = _low(terms.keys[:, word], mask, span) // weight
    # without a marker digit, a zero mask reads 0 in every key
    mword, mmask, mspan = layout.marker_low or (0, *_uint64(0), None)
    markers = _low(terms.keys[:, mword], mmask, mspan).astype(np.int64) - 1
    return degrees, markers, terms.coeffs.copy()


def iter_terms(layout: DegreeLayout, terms: TermList):
    """Yield (degree tuple, marker vertex or None, coefficient)."""
    degrees, markers, coeffs = unpack_terms(layout, terms)
    for i in range(len(coeffs)):
        marker = None if markers[i] < 0 else int(markers[i])
        yield tuple(int(x) for x in degrees[i]), marker, int(coeffs[i])


def multiply_edge_standard(terms: TermList, u: int, v: int, layout: DegreeLayout) -> TermList:
    """Truncated product with (x_head - x_tail) for the edge {u, v}."""
    return _multiply_edge(terms, u, v, layout, False)


def multiply_edge_extended(terms: TermList, u: int, v: int, layout: DegreeLayout) -> TermList:
    """Like the standard product, but a degree reaching s(v) - 1 on an
    unmarked term becomes a tight marker instead of being dropped; terms
    that would acquire a second tight coordinate are dropped.  Raises
    ValueError on a layout without a marker digit."""
    if layout.marker is None:
        raise ValueError("layout has no marker field")
    return _multiply_edge(terms, u, v, layout, True)


def _multiply_edge(terms, u, v, layout, extended):
    """One selection pass per endpoint, one gather and one merge.  A term
    marked at an endpoint has digit s - 1 there and is never bumped at it,
    so an endpoint's bump and mark runs share no key: equal keys come in
    pairs.  Sums are tested only when ``terms.bound``, refreshed, allows
    one past int64."""
    tail, head = (u, v) if u < v else (v, u)
    # a one-word layout works on the key column: a 1-D gather is faster
    one = layout.words == 1
    keys = terms.keys[:, 0] if one else terms.keys
    if extended:
        mword, mmask, mspan = layout.marker_low
        free = _low(keys if one else keys[:, mword], mmask, mspan) == 0
    runs = []  # (indices, word, step) per run, the head's first
    for w in (head, tail):
        word, mask, span, limit, weight, code = layout.select[w]
        digit = _low(keys if one else keys[:, word], mask, span)
        runs.append(((digit < limit).nonzero()[0], word, weight))
        if extended:
            runs.append((((digit >= limit) & free).nonzero()[0], mword, code))
    take = np.concatenate([run for run, _, _ in runs])
    keys = keys[take] if one else keys.take(take, axis=0)
    coeffs = terms.coeffs[take]
    start = 0
    for i, (run, word, step) in enumerate(runs):
        if 2 * i == len(runs):
            tail_coeffs = coeffs[start:]
            np.negative(tail_coeffs, out=tail_coeffs)
        (keys if one else keys[:, word])[start:start + len(run)] += step
        start += len(run)
    del runs, take, digit  # lowers the peak memory of the largest merges
    bound = terms.bound if 2 * terms.bound <= INT64_MAX else _largest(terms.coeffs)
    keys, coeffs, overflow = merge2(keys, coeffs, 2 * bound > INT64_MAX)
    if overflow:
        raise CoefficientOverflow("edge {%d,%d}" % (u, v))
    return TermList(keys.reshape(len(coeffs), layout.words), coeffs, 2 * bound)


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


# Terms a segment may hold after a turn before the run splits it.
DEFAULT_BRANCH_LIMIT = 100000
# The witness search (``decide.standard_alon_tarsi``) splits past this many
# terms when the branch limit is larger: its first term ends the run, and a
# small part reaches it sooner (grid-diag(4): 24,038 monomials, not 735,842).
# A search that finds none pays for the parts; README gives the sweep.
WITNESS_SPLIT = 2048


def check_limit(value, name: str, none_ok: bool = False):
    """``value`` as an int, or None when ``none_ok``; ValueError unless it
    is an integer >= 1, numpy's included.  A bool or float is refused: a
    cap of 1.5 never equals the count it caps."""
    if (value is None and none_ok) or (type(value) is int and value >= 1):
        return value
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ValueError("the %s must be %san int >= 1" % (name, "None or " * none_ok))
    return int(value)


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
    digits are the most significant, so parts deliver in descending key
    order, and terms that could still meet (a tight group shares its
    base) never straddle two parts.  Completed parts hand their final
    terms to ``sink``, which returns True to stop the whole run (early
    termination).  ``RunStats.branches`` counts the parts.

    branch_limit None disables splitting.  prune_matching applies only to
    standard mode: after each turn that leaves edges, terms whose degree
    budgets, summed over the remaining graph, cannot hold its edges are
    dropped (``_prune_unreachable``).  The final terms do not change.

    Returns (stopped, RunStats); stopped says whether the sink stopped the
    run early.
    """
    if mode not in ("standard", "extended"):
        raise ValueError("mode must be standard or extended")
    branch_limit = check_limit(branch_limit, "branch limit", none_ok=True)
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
                # the prefix: the words before position i - 1's, and its word // weight
                word, weight, _ = layout.place[ordering.order[i - 1]]
                head = terms.keys[:, word] // np.uint64(weight)
                change = head[1:] != head[:-1]
                change |= np.any(terms.keys[1:, :word] != terms.keys[:-1, :word], axis=1)
                bounds = np.concatenate(([0], np.flatnonzero(change) + 1))
                parts = []
                b, need = len(terms), 1
                while b > 0:
                    # the fewest whole prefixes ending at b that hold >= need terms
                    k = np.searchsorted(bounds, b - need, "right") - 1
                    a = int(bounds[max(k, 0)])
                    parts.append((TermList(terms.keys[a:b], terms.coeffs[a:b], terms.bound), i))
                    b, need = a, min(2 * need, branch_limit)
                stack += reversed(parts)
                break
        else:
            if len(terms) and sink is not None and sink(layout, terms):
                return True, stats
    return False, stats


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
    total = np.zeros(len(terms), dtype=np.uint64)
    for v, c in frontier:
        word, mask, span, _, weight, _ = layout.select[v]
        digit = _low(terms.keys[:, word], mask, span) // weight
        total += np.maximum(digit, np.uint64(c), out=digit)
    keep = total <= most
    if keep.all():
        return terms
    keep = np.flatnonzero(keep)
    return TermList(terms.keys.take(keep, axis=0), terms.coeffs[keep], terms.bound)
