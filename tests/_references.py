"""Reference helpers that only the tests use: packing single keys by hand,
a sortedness check on term lists, a bounded-orientation count, and the
greedy vertex orderings recounted from scratch at every pick."""

import numpy as np

from choosability.oracle import _orientation_codes


def pack(layout, f) -> np.ndarray:
    """Pack a degree vector given in original vertex indexing."""
    words = [0] * layout.words
    for v, fv in enumerate(f):
        if not (0 <= fv <= layout.problem.s[v]):
            raise ValueError("degree %d out of range at vertex %d" % (fv, v))
        words[layout.v_word[v]] |= fv << layout.v_shift[v]
    return np.array(words, dtype=np.uint64)


def unpack(layout, key) -> tuple[int, ...]:
    return tuple(
        int((int(key[layout.v_word[v]]) >> layout.v_shift[v]) & layout.field_mask)
        for v in range(layout.problem.n)
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
