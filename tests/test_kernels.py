"""The emit and merge kernels on packed term arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosability import Problem, VertexOrdering
from choosability.poly import INT64_MIN, emit_bump, emit_mark, merge2
from choosability.poly import DegreeLayout, TermList, iter_terms

from _references import pack

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
_WORD = st.integers(0, 30).map(lambda x: x * (2**64 // 31))
_KEYS = st.sets(_WORD, max_size=12)
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


def _combined(ka, ca, kb, cb):
    """The terms of both runs by key (a tuple of words), summed over
    Python ints: sums wrap like int64, and a pair whose exact sum is not
    in (INT64_MIN, INT64_MAX] flags overflow.  Zero sums are dropped."""
    terms = dict(zip(map(tuple, ka.tolist()), ca.tolist()))
    overflow = False
    for key, c in zip(map(tuple, kb.tolist()), cb.tolist()):
        if key in terms:
            exact = terms[key] + c
            overflow |= not INT64_MIN < exact <= INT64_MAX
            terms[key] = _wrap(exact)
        else:
            terms[key] = c
    return {k: c for k, c in terms.items() if c != 0}, overflow


def _reference_merge(ka, ca, kb, cb):
    """The single-word merge over Python ints."""
    terms, overflow = _combined(ka, ca, kb, cb)
    kept = sorted(terms.items())
    return [k for (k,), _ in kept], [c for _, c in kept], overflow


def _lexsort_merge(ka, ca, kb, cb):
    """The multi-word merge over Python ints, in np.lexsort order with
    word 0 most significant."""
    terms, overflow = _combined(ka, ca, kb, cb)
    keys = np.array(list(terms), dtype=np.uint64).reshape(-1, ka.shape[1])
    order = np.lexsort(keys.T[::-1])
    coeffs = list(terms.values())
    return keys[order].tolist(), [coeffs[i] for i in order], overflow


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


@st.composite
def _wide_term_runs(draw):
    """Two runs of keys of 2 or 3 words; the high words come from a pool
    of three, so many keys differ only in their low word."""
    width = draw(st.sampled_from([2, 3]))
    high = st.sampled_from([0, 1, 2**64 - 1])
    word = st.tuples(*[high] * (width - 1), _WORD)
    runs = []
    for _ in range(2):
        keys = sorted(draw(st.sets(word, max_size=12)))
        coeffs = [draw(_COEFFS) for _ in keys]
        runs.append((
            np.array(keys, dtype=np.uint64).reshape(-1, width),
            np.array(coeffs, dtype=np.int64),
        ))
    return runs


@given(_wide_term_runs())
@settings(max_examples=400, deadline=None)
def test_merge2_multi_word_path_matches_lexsort(runs):
    (ka, ca), (kb, cb) = runs
    keys, coeffs, overflow = merge2(ka, ca, kb, cb)
    assert keys.shape == (len(coeffs), ka.shape[1])
    assert keys.dtype == np.uint64 and coeffs.dtype == np.int64
    assert (keys.tolist(), coeffs.tolist(), overflow) == _lexsort_merge(ka, ca, kb, cb)


def _layout_and_terms(entries, marked=True):
    """A two-vertex layout and a sorted term list of (f, marker, coeff)."""
    p = Problem(n=2, s=(3, 3), edges=())
    layout = DegreeLayout(p, VertexOrdering(order=(0, 1)), marked=marked)
    keys = [pack(layout, f, marker) for f, marker, _ in entries]
    order = sorted(range(len(keys)), key=lambda i: tuple(int(x) for x in keys[i]))
    keys = np.stack([keys[i] for i in order])
    coeffs = np.array([entries[i][2] for i in order], dtype=np.int64)
    return layout, keys, coeffs


def test_emit_bump_filters_and_increments():
    layout, keys, coeffs = _layout_and_terms(
        [((0, 0), None, 1), ((0, 1), None, 2), ((0, 2), None, 3), ((2, 1), 0, 4)]
    )
    # vertex 1 has s = 3: degrees 0 and 1 are raised, degree 2 is dropped,
    # and the raise leaves the marker digit alone
    out_k, out_c = emit_bump(keys, coeffs, layout, 1, True)
    assert list(iter_terms(layout, TermList(out_k, out_c))) == [
        ((0, 1), None, -1),
        ((0, 2), None, -2),
        ((2, 2), 0, -4),
    ]
    out_k, out_c = emit_bump(keys, coeffs, layout, 0, False)
    assert list(iter_terms(layout, TermList(out_k, out_c))) == [
        ((1, 0), None, 1),
        ((1, 1), None, 2),
        ((1, 2), None, 3),
    ]


def test_emit_mark_skips_marked_terms():
    layout, keys, coeffs = _layout_and_terms(
        [((0, 1), None, 1), ((0, 2), None, 2), ((2, 2), 0, 3), ((1, 2), None, 4)]
    )
    # vertex 1 is tight at degree 2; the term already marked at 0 is skipped
    out_k, out_c = emit_mark(keys, coeffs, layout, 1, False)
    assert list(iter_terms(layout, TermList(out_k, out_c))) == [
        ((0, 2), 1, 2),
        ((1, 2), 1, 4),
    ]
    out_k, out_c = emit_mark(keys, coeffs, layout, 1, True)
    assert out_c.tolist() == [-2, -4]


def test_emit_mark_refuses_a_layout_without_a_marker_field():
    layout, keys, coeffs = _layout_and_terms([((0, 2), None, 1)], marked=False)
    assert layout.marker is None
    with pytest.raises(ValueError, match="no marker field"):
        emit_mark(keys, coeffs, layout, 1, False)
