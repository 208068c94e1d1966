"""Reference helpers that only the tests use: packing single keys by hand,
a sortedness check on term lists, a bounded-orientation count, the
greedy vertex orderings recounted from scratch at every pick, and the
feasible scan over all 2^n masks."""

import numpy as np

from choosability.decide import DEFAULT_FEASIBLE_CAP, SCAN_PRIMES, FeasibleSearchTooLarge
from choosability.oracle import _orientation_codes


def pack(layout, f, marker=None) -> np.ndarray:
    """Pack a degree vector given in original vertex indexing, marked at
    vertex ``marker`` unless it is None, digit by digit in Python ints."""
    words = [0] * layout.words
    for v, fv in enumerate(f):
        if not (0 <= fv < layout.problem.s[v]):
            raise ValueError("degree %d out of range at vertex %d" % (fv, v))
        word, weight, _ = layout.place[v]
        words[word] += fv * weight
    if marker is not None:
        words[layout.marker[0]] += marker + 1
    return np.array(words, dtype=np.uint64)


def unpack(layout, key) -> tuple[int, ...]:
    return tuple(
        int(key[word]) % span // weight for word, weight, span in layout.place
    )


def is_strictly_sorted(terms) -> bool:
    """Whether the packed keys of a term list strictly ascend, word 0
    most significant."""
    if len(terms) < 2:
        return True
    prev = terms.keys[:-1]
    cur = terms.keys[1:]
    greater = np.zeros(len(terms) - 1, dtype=bool)
    decided = np.zeros(len(terms) - 1, dtype=bool)
    for w in range(terms.keys.shape[1]):
        greater |= ~decided & (cur[:, w] > prev[:, w])
        decided |= cur[:, w] != prev[:, w]
    return bool((greater & decided).all() and decided.all())


def count_bounded_orientations(p, caps) -> int:
    """Number of orientations with outdegree at most caps(v) everywhere."""
    _, codes = _orientation_codes(p)
    ok = np.ones(len(codes), dtype=bool)
    for v in range(p.n):
        ok &= ((codes >> (4 * v)) & 15) <= caps[v]
    return int(ok.sum())


def greedy_order(p, heuristic) -> tuple[int, ...]:
    """A greedy rule of ``order_vertices`` that counts each candidate's
    neighbors anew at every pick."""
    adj = p.adjacency()
    remaining = set(range(p.n))
    processed = set()
    marked = set()  # remaining vertices with a processed neighbor

    def rem_deg(v):
        return sum(1 for u in adj[v] if u in remaining)

    def proc_nbrs(v):
        return sum(1 for u in adj[v] if u in processed)

    def vsep_after(v):
        count = len(marked) - (1 if v in marked else 0)
        return count + sum(1 for u in adj[v] if u in remaining and u not in marked)

    key = {
        "MD": lambda v: (rem_deg(v), v),
        "MD+PROC": lambda v: (rem_deg(v), -proc_nbrs(v), v),
        "OVER": lambda v: (rem_deg(v) - proc_nbrs(v), v),
        "LIST": lambda v: (p.s[v], rem_deg(v), v),
        "LIST+DEG": lambda v: (p.s[v] + rem_deg(v), v),
        "VSEP": lambda v: (vsep_after(v), rem_deg(v), v),
    }[heuristic]
    order = []
    while remaining:
        v = min(remaining, key=key)
        order.append(v)
        remaining.discard(v)
        processed.add(v)
        marked.discard(v)
        marked.update(u for u in adj[v] if u in remaining)
    return tuple(order)


def subset_sums(values):
    """The sum of values[j] over the bits j of each mask, indexed by mask."""
    sums = np.zeros(1 << len(values), dtype=values.dtype)
    for j, value in enumerate(values):
        np.add(sums[: 1 << j], value, out=sums[1 << j : 2 << j])
    return sums


def feasible_vectors_over_all_masks(basis, n: int, cap: int = DEFAULT_FEASIBLE_CAP):
    """All chi in {0,1}^n satisfying every retained row exactly, as the
    int64 array of their masks (bit v set when chi(v) = 1), ascending.

    Each row's subset sums over all 2^n masks are taken modulo the first
    of ``SCAN_PRIMES`` whose product exceeds the sum of its absolute
    values; a sum that vanishes modulo each is zero.  Residues are below
    2^31, so the sums are exact in int64.  Raises FeasibleSearchTooLarge
    when n exceeds the cap, the 2^n arrays cannot be allocated, or the
    primes do not cover a row (no int64 row while 2^n masks fit).
    """
    if n > cap:
        raise FeasibleSearchTooLarge("n=%d exceeds the cap %d" % (n, cap))
    try:
        keep = np.ones(1 << n, dtype=bool)
        for cr in basis.rows:
            bound, modulus = sum(map(abs, cr.row)), 1
            for q in SCAN_PRIMES:
                if modulus > bound:
                    break
                modulus *= q
                sums = subset_sums(np.array([x % q for x in cr.row], dtype=np.int64))
                keep &= np.remainder(sums, q, out=sums) == 0
                del sums  # freed before the next sums are built
            if modulus <= bound:
                raise FeasibleSearchTooLarge("a row's absolute values sum to %d" % bound)
        return np.flatnonzero(keep).astype(np.int64, copy=False)
    except (MemoryError, ValueError) as exc:
        # numpy raises ValueError past its largest array dimension
        raise FeasibleSearchTooLarge("2^%d masks: %s" % (n, exc)) from exc
