"""Ground-truth checks by direct enumeration.

Everything here is independent of the packed-term engine: coefficients
come from orientation counting, colorability from backtracking search, and
choosability from exhaustive enumeration of list assignments up to color
renaming.  Intended for small instances and for validating the fast path.

Its enumeration, ``walk_patterns``, is also the pipeline's pattern
search, and ``pattern_colorer`` its coloring search; the tests check both
against independent reference searches.  Only ``color_from_pattern``, the
certificate checker, trims huge multiplicities.  The oracle still reads
no coefficient, constraint row or feasible vector.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .graphs import Problem


class OracleLimitError(ValueError):
    """An enumeration was refused because it exceeds the configured limits."""


def direct_coefficient(p: Problem, f) -> int:
    """Signed count of orientations with outdegree f(v) at every vertex.

    Backtracks over edge orientations, always handling a forced edge first
    when one exists (an endpoint that cannot take the edge, or that needs
    every remaining incident edge).  Each factor is (x_max - x_min), so an
    edge directed out of its lower endpoint picks the negated variable:
    the sign of an orientation is -1 to the number of edges directed from
    lower to higher endpoint.  The search recurses once per edge, so past
    half the recursion limit in edges it raises OracleLimitError.
    """
    f = list(f)
    if len(f) != p.n:
        raise ValueError("expected %d degree values, got %d" % (p.n, len(f)))
    if p.m > sys.getrecursionlimit() // 2:
        raise OracleLimitError("%d edges: past half the recursion limit" % p.m)
    if any(x < 0 for x in f) or sum(f) != p.m:
        return 0
    need = f[:]
    left = p.degrees()
    if any(need[v] > left[v] for v in range(p.n)):
        return 0
    edges = list(p.edges)
    unoriented = set(range(p.m))

    def pick_edge():
        for j in unoriented:
            u, v = edges[j]
            if need[u] == 0 or need[v] == 0:
                return j
            if need[u] == left[u] or need[v] == left[v]:
                return j
        return next(iter(unoriented))

    def walk() -> int:
        if not unoriented:
            return 1  # signs are multiplied in along the way
        j = pick_edge()
        u, v = edges[j]
        unoriented.discard(j)
        left[u] -= 1
        left[v] -= 1
        total = 0
        # tail u: as-reference, picks -x_u
        if need[u] > 0:
            need[u] -= 1
            if need[u] <= left[u] and need[v] <= left[v]:
                total -= walk()
            need[u] += 1
        # tail v: flipped, picks +x_v
        if need[v] > 0:
            need[v] -= 1
            if need[u] <= left[u] and need[v] <= left[v]:
                total += walk()
            need[v] += 1
        left[u] += 1
        left[v] += 1
        unoriented.add(j)
        return total

    return walk()


def _orientation_codes(p: Problem):
    """Outdegree vectors of all 2^m orientations, nibble-packed per vertex.

    Bit j of the orientation index set means edge j is directed from its
    higher endpoint to its lower one (flipped).
    """
    if p.n > 15:
        raise OracleLimitError("orientation sweep supports at most 15 vertices")
    if p.m > 22:
        raise OracleLimitError("orientation sweep supports at most 22 edges")
    idx = np.arange(1 << p.m, dtype=np.int64)
    codes = np.zeros(1 << p.m, dtype=np.int64)
    for j, (u, v) in enumerate(p.edges):
        flipped = (idx >> j) & 1
        codes += np.where(flipped == 1, 1 << (4 * v), 1 << (4 * u))
    return idx, codes


def coefficient_table(p: Problem) -> dict[tuple[int, ...], tuple[int, int]]:
    """All-orientation sweep: maps f to (signed sum, orientation count).

    Every f realized by at least one orientation appears; a missing f has
    no orientation, hence coefficient 0.  ``np.unique`` counts each f's
    orientations and one ``np.bincount`` those of sign +1: the ones with an
    even number of edges in the reference direction, m less the bits of
    the index.  The signed sum is twice those less the count.
    """
    idx, codes = _orientation_codes(p)
    uniq, inverse, counts = np.unique(codes, return_inverse=True, return_counts=True)
    positive = inverse[((np.bitwise_count(idx) ^ p.m) & 1) == 0]
    sums = 2 * np.bincount(positive, minlength=len(uniq)) - counts
    table = {}
    for code, total, count in zip(uniq, sums, counts):
        f = tuple((int(code) >> (4 * v)) & 15 for v in range(p.n))
        table[f] = (int(total), int(count))
    return table


def _match_edges_to_slots(edge_list, slots):
    """Kuhn's augmenting paths; True iff every edge gets its own slot."""
    match = [-1] * len(slots)

    def augment(i, seen):
        u, v = edge_list[i]
        for k, sv in enumerate(slots):
            if sv != u and sv != v:
                continue
            if k in seen:
                continue
            seen.add(k)
            if match[k] == -1 or augment(match[k], seen):
                match[k] = i
                return True
        return False

    for i in range(len(edge_list)):
        if not augment(i, set()):
            return False
    return True


def orientable_within_budget(edge_list, budget) -> bool:
    """Can edge_list be oriented with outdegree at most budget[v] at each v?"""
    slots = []
    for v, cap in budget.items():
        if cap > 0:
            slots.extend([v] * min(cap, len(edge_list)))
    if len(edge_list) > len(slots):
        return False
    return _match_edges_to_slots(edge_list, slots)


def color_from_pattern(p: Problem, pattern):
    """Try to properly color p from the lists a pattern describes.

    The pattern is a sequence of (0/1 tuple, multiplicity) pairs; it
    yields one abstract color per unit of multiplicity, present on vertex
    v when vector[v] is 1.  Returns a per-vertex color index list or None.
    As the certificate checker it takes any multiplicity.  A vertex with
    more colors than neighbours can always be colored last, so a vector's
    units past one more than the largest degree on its support are left
    out before ``pattern_colorer`` colors, and the colors mapped back:
    that keeps the answer, and a huge multiplicity costs no more than a
    small one.
    """
    degrees = p.degrees()
    trimmed, units = [], []  # units: the pattern's index of each color kept
    t = 0
    for vec, mult in pattern:
        kept = min(int(mult), 1 + max((degrees[v] for v in range(p.n) if vec[v]), default=-1))
        trimmed.append((vec, kept))
        units.extend(range(t, t + kept))
        t += int(mult)
    coloring = pattern_colorer(p)(trimmed)
    return None if coloring is None else [units[c] for c in coloring]


def pattern_colorer(p: Problem):
    """A function that colors p from a pattern's lists, as
    ``color_from_pattern`` does, but with the multiplicities as given:
    the color index list, or None.  p's adjacency is built once, and each
    vector's support the first time a pattern holds it.  The pipeline and
    ``brute_force_choosable`` color through it: their multiplicities are
    list sizes, at most deg(v) after R1 or small by the oracle's limits."""
    n, adj = p.n, p.adjacency()
    supports = {}  # the vertices of each vector, built when first met

    def color(pattern):
        lists = [0] * n
        t = 0
        for vec, mult in pattern:
            sup = supports.get(vec)
            if sup is None:
                sup = supports[vec] = [v for v, x in enumerate(vec) if x]
            colors = ((1 << mult) - 1) << t
            for v in sup:
                lists[v] |= colors
            t += mult
        return _color_lists(n, adj, lists)

    return color


def _color_lists(n, adj, lists):
    """Proper coloring from bitmask lists (bit t of lists[v]: v may take t).

    One greedy pass, vertices with the fewest colors first, colors most
    list assignments; when it gets stuck, a search that picks the vertex
    with the fewest remaining colors first decides.  Returns a per-vertex
    color index list or None.
    """
    counts = [x.bit_count() for x in lists]
    color = [-1] * n
    taken = [0] * n  # the colors of each vertex's colored neighbours
    for v in sorted(range(n), key=counts.__getitem__):
        free = lists[v] & ~taken[v]
        if not free:
            break
        bit = free & -free
        color[v] = bit.bit_length() - 1
        for u in adj[v]:
            taken[u] |= bit
    else:
        return color
    color = [-1] * n
    avail = lists[:]

    def walk() -> bool:
        best = -1
        best_count = 1 << 62
        for v in range(n):
            if color[v] >= 0:
                continue
            c = avail[v].bit_count()
            if c == 0:
                return False
            if c < best_count:
                best, best_count = v, c
        if best == -1:
            return True
        v = best
        options = avail[v]
        while options:
            bit = options & -options
            options ^= bit
            color[v] = bit.bit_length() - 1
            saved = []
            for u in adj[v]:
                if color[u] < 0 and avail[u] & bit:
                    saved.append((u, avail[u]))
                    avail[u] ^= bit
            if walk():
                return True
            for u, old in saved:
                avail[u] = old
            color[v] = -1
        return False

    return color[:] if walk() else None


def _candidate_order(masks, n: int):
    """The distinct nonzero masks, densest first, then the largest
    vector read with vertex 0 as its most significant digit."""
    masks = np.sort(np.asarray(masks, dtype=np.int64))
    keep = masks != 0
    keep[1:] &= masks[1:] != masks[:-1]
    masks = masks[keep]
    reversed_bits = np.zeros_like(masks)
    for v in range(n):
        reversed_bits |= (masks >> v & 1) << (n - 1 - v)
    order = np.lexsort((reversed_bits, np.bitwise_count(masks)))
    return masks[order[::-1]]


def walk_patterns(masks, s, visit, max_nodes=None):
    """The first multiset of nonzero vectors, given by their masks, with
    componentwise sum s that ``visit`` accepts, or None.

    Over all nonzero masks these are the list assignments with sizes s up
    to color renaming, which is all that colorability depends on.  A
    pattern is a tuple of (0/1 tuple, multiplicity) pairs, passed to
    ``visit`` as it is found and not kept: a walk can meet millions.
    Vectors go densest first, multiplicities counted down.  Past max_nodes
    search calls, a pattern's own included, raises OracleLimitError.

    ``pos`` is the mask of vertices whose residual is still positive and
    ``suffix[i]`` the union of the masks from i on.  A node walks the
    candidates from its start: it stops once ``pos`` leaves ``suffix[i]``
    (nothing left can cover some vertex), passes over a mask that meets a
    finished vertex, and otherwise tries the multiplicities from the
    largest down to 1.  Multiplicity 0 is the next loop step, so the
    recursion is at most sum(s) deep.  Supports and tuples are built only
    for the candidates a node tries.
    """
    n = len(s)
    cand = _candidate_order(masks, n)
    suffix = np.bitwise_or.accumulate(cand[::-1])[::-1].tolist() + [0]
    cand = cand.tolist()
    # (support, 0/1 tuple) of each candidate, built when first tried
    tried = [None] * len(cand)
    residual = list(s)
    chosen = []
    left = math.inf if max_nodes is None else max_nodes

    def search(start: int, pos: int):
        """Extend ``chosen``; the pattern ``visit`` accepts, or None."""
        nonlocal left
        left -= 1
        if left < 0:
            raise OracleLimitError("node budget exhausted")
        if not pos:
            pattern = tuple(chosen)
            return pattern if visit(pattern) else None
        for i in range(start, len(cand)):
            if pos & ~suffix[i]:
                return None
            mask = cand[i]
            if mask & ~pos:
                continue
            if tried[i] is None:
                vec = tuple(mask >> v & 1 for v in range(n))
                tried[i] = ([v for v in range(n) if vec[v]], vec)
            sup, vec = tried[i]
            top = min(map(residual.__getitem__, sup))
            done = 0  # only the largest multiplicity finishes a vertex
            for v in sup:
                residual[v] -= top
                if not residual[v]:
                    done |= 1 << v
            chosen.append((vec, top))
            hit = search(i + 1, pos & ~done)
            mult = top
            while hit is None and mult > 1:
                mult -= 1
                for v in sup:
                    residual[v] += 1
                chosen[-1] = (vec, mult)
                hit = search(i + 1, pos)
            if hit is not None:
                return hit
            chosen.pop()
            for v in sup:
                residual[v] += 1
        return None

    return search(0, sum(1 << v for v, r in enumerate(s) if r))


def pattern_json(pattern):
    """A pattern as JSON: how every report gives a bad list assignment."""
    return [{"vector": list(vec), "multiplicity": int(mult)} for vec, mult in pattern]


def brute_force_choosable(
    p: Problem, max_vertices: int = 8, max_total: int = 24, max_nodes: int = 5_000_000
):
    """``walk_patterns`` over every nonzero mask on p's vertices, each
    pattern colored as it is found: (True, None) when every one colors,
    else (False, the first that does not).  Refuses inputs beyond the
    size limits, and searches past max_nodes calls, with OracleLimitError."""
    if p.n > max_vertices:
        raise OracleLimitError("too many vertices for brute force")
    if sum(p.s) > max_total:
        raise OracleLimitError("total list size too large for brute force")
    color = pattern_colorer(p)
    witness = walk_patterns(np.arange(1 << p.n), p.s, lambda pat: color(pat) is None, max_nodes)
    return (True, None) if witness is None else (False, witness)
