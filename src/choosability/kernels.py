"""Hot kernels for packed term arrays: stream emission and sorted merge.

Two interchangeable implementations of the same three primitives exist: a
numba-compiled one and a pure-numpy one.  The active one is chosen by
``set_backend`` or the ``CHOOSABILITY_BACKEND`` environment variable
("numba", "numpy", or "auto"; auto prefers numba when it is importable).

All primitives operate on a term array pair: ``keys`` is a (terms, words)
uint64 array of packed degree vectors (strictly increasing as big-endian
word sequences) and ``coeffs`` the matching int64 coefficients.

Overflow policy: a combined coefficient that wraps past the int64 range,
or lands exactly on INT64_MIN (whose negation would wrap later), raises a
flag that callers turn into an error.
"""

from __future__ import annotations

import os

import numpy as np

INT64_MIN = np.iinfo(np.int64).min
INT64_MAX = np.iinfo(np.int64).max

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False


# ---------------------------------------------------------------- numpy

# Selections index with np.flatnonzero rather than a boolean mask: a
# gather by index runs several times faster than boolean indexing on
# arrays of millions of terms.

def _emit_bump_np(keys, coeffs, fw, fs, fmask, slim, aw, ainc, negate):
    """Terms with field value <= slim, with that field incremented by ainc.

    Needs -1 <= slim < fmask, as list sizes of at least 1 give.
    """
    limit = np.uint64((slim + 1) << fs)
    take = np.flatnonzero((keys[:, fw] & np.uint64(fmask << fs)) < limit)
    out_k = keys[take]
    out_c = -coeffs[take] if negate else coeffs[take]
    out_k[:, aw] += np.uint64(ainc)
    return out_k, out_c


def _emit_mark_np(keys, coeffs, fw, fs, fmask, starget, mw, mfield, mset, negate):
    """Unmarked terms with field value == starget, with the marker set."""
    field = keys[:, fw] & np.uint64(fmask << fs)
    unmarked = (keys[:, mw] & np.uint64(mfield)) == 0
    take = np.flatnonzero((field == np.uint64(starget << fs)) & unmarked)
    out_k = keys[take]
    out_c = -coeffs[take] if negate else coeffs[take]
    out_k[:, mw] |= np.uint64(mset)
    return out_k, out_c


def _merge2_np(keys_a, coeffs_a, keys_b, coeffs_b):
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


# ---------------------------------------------------------------- numba

if HAVE_NUMBA:

    @njit(cache=True)
    def _emit_bump_nb(keys, coeffs, fw, fs, fmask, slim, aw, ainc, negate):
        nterms, width = keys.shape
        out_k = np.empty((nterms, width), dtype=np.uint64)
        out_c = np.empty(nterms, dtype=np.int64)
        cnt = 0
        for t in range(nterms):
            val = np.int64((keys[t, fw] >> fs) & fmask)
            if val <= slim:
                for w in range(width):
                    out_k[cnt, w] = keys[t, w]
                out_k[cnt, aw] = out_k[cnt, aw] + ainc
                out_c[cnt] = -coeffs[t] if negate else coeffs[t]
                cnt += 1
        return out_k[:cnt], out_c[:cnt]

    @njit(cache=True)
    def _emit_mark_nb(keys, coeffs, fw, fs, fmask, starget, mw, mfield, mset, negate):
        nterms, width = keys.shape
        out_k = np.empty((nterms, width), dtype=np.uint64)
        out_c = np.empty(nterms, dtype=np.int64)
        cnt = 0
        for t in range(nterms):
            val = np.int64((keys[t, fw] >> fs) & fmask)
            if val == starget and (keys[t, mw] & mfield) == 0:
                for w in range(width):
                    out_k[cnt, w] = keys[t, w]
                out_k[cnt, mw] = out_k[cnt, mw] | mset
                out_c[cnt] = -coeffs[t] if negate else coeffs[t]
                cnt += 1
        return out_k[:cnt], out_c[:cnt]

    @njit(cache=True)
    def _merge2_nb(keys_a, coeffs_a, keys_b, coeffs_b):
        na = keys_a.shape[0]
        nb = keys_b.shape[0]
        width = keys_a.shape[1]
        out_k = np.empty((na + nb, width), dtype=np.uint64)
        out_c = np.empty(na + nb, dtype=np.int64)
        ia = 0
        ib = 0
        cnt = 0
        overflow = False
        while ia < na and ib < nb:
            cmp = 0
            for w in range(width):
                if keys_a[ia, w] < keys_b[ib, w]:
                    cmp = -1
                    break
                if keys_a[ia, w] > keys_b[ib, w]:
                    cmp = 1
                    break
            if cmp < 0:
                for w in range(width):
                    out_k[cnt, w] = keys_a[ia, w]
                out_c[cnt] = coeffs_a[ia]
                ia += 1
                cnt += 1
            elif cmp > 0:
                for w in range(width):
                    out_k[cnt, w] = keys_b[ib, w]
                out_c[cnt] = coeffs_b[ib]
                ib += 1
                cnt += 1
            else:
                a = coeffs_a[ia]
                b = coeffs_b[ib]
                # signed wrap is undefined in compiled code: bound-check
                # before adding instead of inspecting a wrapped result
                if b > 0 and a > INT64_MAX - b:
                    overflow = True
                    total = INT64_MAX
                elif b < 0 and a < INT64_MIN - b:
                    overflow = True
                    total = INT64_MIN
                else:
                    total = a + b
                    if total == INT64_MIN:
                        overflow = True
                if total != 0:
                    for w in range(width):
                        out_k[cnt, w] = keys_a[ia, w]
                    out_c[cnt] = total
                    cnt += 1
                ia += 1
                ib += 1
        while ia < na:
            for w in range(width):
                out_k[cnt, w] = keys_a[ia, w]
            out_c[cnt] = coeffs_a[ia]
            ia += 1
            cnt += 1
        while ib < nb:
            for w in range(width):
                out_k[cnt, w] = keys_b[ib, w]
            out_c[cnt] = coeffs_b[ib]
            ib += 1
            cnt += 1
        return out_k[:cnt], out_c[:cnt], overflow

    def _emit_bump_nb_wrap(keys, coeffs, fw, fs, fmask, slim, aw, ainc, negate):
        return _emit_bump_nb(
            keys,
            coeffs,
            np.int64(fw),
            np.uint64(fs),
            np.uint64(fmask),
            np.int64(slim),
            np.int64(aw),
            np.uint64(ainc),
            negate,
        )

    def _emit_mark_nb_wrap(keys, coeffs, fw, fs, fmask, starget, mw, mfield, mset, negate):
        return _emit_mark_nb(
            keys,
            coeffs,
            np.int64(fw),
            np.uint64(fs),
            np.uint64(fmask),
            np.int64(starget),
            np.int64(mw),
            np.uint64(mfield),
            np.uint64(mset),
            negate,
        )


class _Impl:
    def __init__(self, name, emit_bump, emit_mark, merge2):
        self.name = name
        self.emit_bump = emit_bump
        self.emit_mark = emit_mark
        self.merge2 = merge2


_IMPLS = {"numpy": _Impl("numpy", _emit_bump_np, _emit_mark_np, _merge2_np)}
if HAVE_NUMBA:
    _IMPLS["numba"] = _Impl("numba", _emit_bump_nb_wrap, _emit_mark_nb_wrap, _merge2_nb)

_backend = None


def available_backends():
    return tuple(sorted(_IMPLS))


def set_backend(name):
    """Force a backend ("numba" or "numpy"); None reverts to the default."""
    global _backend
    if name is not None and name not in _IMPLS:
        raise ValueError(
            "backend %r not available (have: %s)" % (name, ", ".join(sorted(_IMPLS)))
        )
    _backend = name


def current_backend():
    if _backend is not None:
        return _backend
    env = os.environ.get("CHOOSABILITY_BACKEND", "auto").lower()
    if env == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if env not in _IMPLS:
        raise ValueError(
            "CHOOSABILITY_BACKEND=%r not available (have: %s, or auto)"
            % (env, ", ".join(sorted(_IMPLS)))
        )
    return env


def get_impl():
    return _IMPLS[current_backend()]
