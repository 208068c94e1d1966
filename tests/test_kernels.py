"""The emit and merge kernels on packed term arrays."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from choosability.kernels import INT64_MIN, emit_bump, emit_mark, merge2

INT64_MAX = 2**63 - 1


def test_merge2_combines_and_drops_zeros():
    ka = np.array([[1], [3]], dtype=np.uint64)
    ca = np.array([5, -2], dtype=np.int64)
    kb = np.array([[2], [3]], dtype=np.uint64)
    cb = np.array([1, 2], dtype=np.int64)
    keys, coeffs, overflow = merge2(ka, ca, kb, cb)
    assert keys.tolist() == [[1], [2]]
    assert coeffs.tolist() == [5, 1]
    assert overflow is False


def test_merge2_flags_positive_overflow():
    half = np.array([2**62], dtype=np.int64)
    key = np.array([[9]], dtype=np.uint64)
    _, _, overflow = merge2(key, half, key, half)
    assert overflow


def test_merge2_flags_int64_min():
    key = np.array([[9]], dtype=np.uint64)
    a = np.array([INT64_MIN + 1], dtype=np.int64)
    b = np.array([-1], dtype=np.int64)
    _, _, overflow = merge2(key, a, key, b)
    assert overflow


# keys spread over the whole unsigned range, drawn from a small pool so
# that the two runs share keys; coefficients near the int64 limits
_KEYS = st.sets(st.integers(0, 30).map(lambda x: x * (2**64 // 31)), max_size=12)
_COEFFS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.sampled_from([2**62, -(2**62), INT64_MAX, INT64_MIN + 1, INT64_MIN, -1, 1]),
)


@st.composite
def _term_run(draw):
    keys = sorted(draw(_KEYS))
    coeffs = [draw(_COEFFS) for _ in keys]
    return (
        np.array(keys, dtype=np.uint64).reshape(-1, 1),
        np.array(coeffs, dtype=np.int64),
    )


def _wrap(c):
    return (c + 2**63) % 2**64 - 2**63


def _reference_merge(ka, ca, kb, cb):
    """The merge over Python ints: sums wrap like int64, and a pair whose
    exact sum is not in (INT64_MIN, INT64_MAX] flags overflow."""
    terms = dict(zip(ka[:, 0].tolist(), ca.tolist()))
    overflow = False
    for key, c in zip(kb[:, 0].tolist(), cb.tolist()):
        if key in terms:
            exact = terms[key] + c
            overflow |= not INT64_MIN < exact <= INT64_MAX
            terms[key] = _wrap(exact)
        else:
            terms[key] = c
    kept = sorted((k, c) for k, c in terms.items() if c != 0)
    return [k for k, _ in kept], [c for _, c in kept], overflow


@given(_term_run(), _term_run())
@settings(max_examples=400, deadline=None)
def test_merge2_single_word_path_matches_lexsort_path(run_a, run_b):
    (ka, ca), (kb, cb) = run_a, run_b
    keys, coeffs, overflow = merge2(ka, ca, kb, cb)
    # a zero leading word sends the same terms down the multi-word path
    pad = lambda k: np.hstack((np.zeros_like(k), k))
    keys2, coeffs2, overflow2 = merge2(pad(ka), ca, pad(kb), cb)
    assert keys.shape == (len(coeffs), 1) and keys2.shape == (len(coeffs2), 2)
    assert keys.dtype == np.uint64 and coeffs.dtype == np.int64
    assert keys2[:, 0].tolist() == [0] * len(coeffs2)
    assert keys2[:, 1].tolist() == keys[:, 0].tolist()
    assert coeffs2.tolist() == coeffs.tolist()
    assert overflow2 == overflow
    expected = _reference_merge(ka, ca, kb, cb)
    assert (keys[:, 0].tolist(), coeffs.tolist(), overflow) == expected


def test_emit_bump_filters_and_increments():
    # single word, field at bits 4..7, addend at bit 0
    keys = np.array([[0x10], [0x20], [0x30]], dtype=np.uint64)
    coeffs = np.array([1, 2, 3], dtype=np.int64)
    out_k, out_c = emit_bump(keys, coeffs, 0, 4, 0xF, 2, 0, 1, True)
    assert out_k.tolist() == [[0x11], [0x21]]
    assert out_c.tolist() == [-1, -2]


def test_emit_mark_skips_marked_terms():
    # field at bits 4..7, marker field at bits 0..3
    keys = np.array([[0x20], [0x21], [0x30]], dtype=np.uint64)
    coeffs = np.array([1, 2, 3], dtype=np.int64)
    out_k, out_c = emit_mark(keys, coeffs, 0, 4, 0xF, 2, 0, 0xF, 0x5, False)
    assert out_k.tolist() == [[0x25]]
    assert out_c.tolist() == [1]
