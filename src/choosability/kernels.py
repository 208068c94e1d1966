"""Hot kernels for packed term arrays: stream emission and sorted merge.

All primitives operate on a term array pair: ``keys`` is a (terms, words)
uint64 array of packed degree vectors (strictly increasing as big-endian
word sequences) and ``coeffs`` the matching int64 coefficients.

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


def emit_bump(keys, coeffs, fw, fs, fmask, slim, aw, ainc, negate):
    """Terms with field value <= slim, with that field incremented by ainc.

    Needs -1 <= slim < fmask, as list sizes of at least 1 give.
    """
    limit = np.uint64((slim + 1) << fs)
    take = np.flatnonzero((keys[:, fw] & np.uint64(fmask << fs)) < limit)
    out_k = keys[take]
    out_c = -coeffs[take] if negate else coeffs[take]
    out_k[:, aw] += np.uint64(ainc)
    return out_k, out_c


def emit_mark(keys, coeffs, fw, fs, fmask, starget, mw, mfield, mset, negate):
    """Unmarked terms with field value == starget, with the marker set."""
    field = keys[:, fw] & np.uint64(fmask << fs)
    unmarked = (keys[:, mw] & np.uint64(mfield)) == 0
    take = np.flatnonzero((field == np.uint64(starget << fs)) & unmarked)
    out_k = keys[take]
    out_c = -coeffs[take] if negate else coeffs[take]
    out_k[:, mw] |= np.uint64(mset)
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
