"""Hot kernels for packed term arrays: stream emission and sorted merge.

All primitives operate on a term array pair: ``keys`` is a (terms, words)
uint64 array of packed degree vectors (strictly increasing as big-endian
word sequences) and ``coeffs`` the matching int64 coefficients.

The emit kernels take ``(keys, coeffs, layout, v, negate)`` and read every
bit position they need from the ``poly.DegreeLayout``: the word, shift and
width of vertex v's degree field, its list size, and the marker field.
``emit_mark`` refuses a layout without a marker field, since it would
otherwise write marker codes over degree fields.

Overflow policy: a combined coefficient that wraps past the int64 range,
or lands exactly on INT64_MIN (whose negation would wrap later), raises a
flag that callers turn into an error.

Selections index with np.flatnonzero rather than a boolean mask: a
gather by index runs several times faster than boolean indexing on
arrays of millions of terms.
"""

from __future__ import annotations

import numpy as np

INT64_MIN = np.iinfo(np.int64).min


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
        order = np.lexsort(tuple(keys[:, w] for w in range(width - 1, -1, -1)))
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


def current_backend():
    """Always "numpy"; kept only because the benchmark records it."""
    return "numpy"
