"""The edge products and the merge on packed term arrays."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosability import Problem, VertexOrdering, parse_problem, poly
from choosability.poly import INT64_MIN, CoefficientOverflow, DegreeLayout, TermList
from choosability.poly import iter_terms, merge2, multiply_edge_extended
from choosability.poly import multiply_edge_standard, run_truncated_product

from _examples import coefficient_corpus
from _references import is_strictly_sorted, pack

INT64_MAX = 2**63 - 1
TIGHT_12 = Path(__file__).with_name("tight-12.prob")


def _column(keys):
    return np.array(keys, dtype=np.uint64)


def test_merge2_combines_and_drops_zeros():
    # runs [1, 3] and [2, 3]: the pair at 3 cancels
    keys, coeffs, overflow = merge2(
        _column([1, 3, 2, 3]), np.array([5, -2, 1, 2], dtype=np.int64), True
    )
    assert keys.tolist() == [1, 2]
    assert coeffs.tolist() == [5, 1]
    assert overflow is False


def test_merge2_flags_positive_overflow():
    half = np.array([2**62, 2**62], dtype=np.int64)
    _, _, overflow = merge2(_column([9, 9]), half, True)
    assert overflow
    # without ``exact`` the caller vouches that no sum can leave int64
    _, _, overflow = merge2(_column([9, 9]), half, False)
    assert not overflow


def test_merge2_flags_int64_min():
    coeffs = np.array([INT64_MIN + 1, -1], dtype=np.int64)
    _, _, overflow = merge2(_column([9, 9]), coeffs, True)
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
    in (INT64_MIN, INT64_MAX], or a term left at INT64_MIN, flags
    overflow.  Zero sums are dropped."""
    terms = dict(zip(map(tuple, ka.tolist()), ca.tolist()))
    overflow = False
    for key, c in zip(map(tuple, kb.tolist()), cb.tolist()):
        if key in terms:
            exact = terms[key] + c
            overflow |= not INT64_MIN < exact <= INT64_MAX
            terms[key] = _wrap(exact)
        else:
            terms[key] = c
    overflow |= INT64_MIN in terms.values()
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
    coeffs_ab = np.concatenate((ca, cb))
    keys, coeffs, overflow = merge2(np.concatenate((ka, kb))[:, 0], coeffs_ab, True)
    # a zero leading word sends the same terms down the multi-word path
    pad = lambda k: np.hstack((np.zeros_like(k), k))
    keys2, coeffs2, overflow2 = merge2(np.vstack((pad(ka), pad(kb))), coeffs_ab, True)
    assert keys.shape == (len(coeffs),) and keys2.shape == (len(coeffs2), 2)
    assert keys.dtype == np.uint64 and coeffs.dtype == np.int64
    assert keys2[:, 0].tolist() == [0] * len(coeffs2)
    assert keys2[:, 1].tolist() == keys.tolist()
    assert coeffs2.tolist() == coeffs.tolist()
    assert overflow2 == overflow
    expected = _reference_merge(ka, ca, kb, cb)
    assert (keys.tolist(), coeffs.tolist(), overflow) == expected


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
    keys, coeffs, overflow = merge2(np.vstack((ka, kb)), np.concatenate((ca, cb)), True)
    assert keys.shape == (len(coeffs), ka.shape[1])
    assert keys.dtype == np.uint64 and coeffs.dtype == np.int64
    assert (keys.tolist(), coeffs.tolist(), overflow) == _lexsort_merge(ka, ca, kb, cb)


# ---------------------------------------------------------- edge products

def _layout_and_terms(entries, marked=True, s=(3, 3), order=None, bound=None):
    """A layout for lists ``s`` and a sorted term list of (f, marker, coeff)."""
    p = Problem(n=len(s), s=s, edges=())
    order = tuple(range(len(s))) if order is None else order
    layout = DegreeLayout(p, VertexOrdering(order=order), marked=marked)
    keys = [pack(layout, f, marker) for f, marker, _ in entries]
    order = sorted(range(len(keys)), key=lambda i: tuple(int(x) for x in keys[i]))
    keys = np.stack([keys[i] for i in order]).reshape(len(keys), layout.words)
    coeffs = np.array([entries[i][2] for i in order], dtype=np.int64)
    return layout, TermList(keys, coeffs, bound)


def test_standard_edge_bumps_each_endpoint_below_its_limit():
    layout, terms = _layout_and_terms(
        [((0, 0), None, 1), ((0, 1), None, 2), ((0, 2), None, 3), ((1, 0), None, 2),
         ((2, 1), None, 4)],
        marked=False,
    )
    # head 1 raises degrees 0 and 1 and drops 2; tail 0 likewise, negated;
    # (1, 0) raised at 1 meets (0, 1) raised at 0 and cancels
    out = multiply_edge_standard(terms, 1, 0, layout)
    assert list(iter_terms(layout, out)) == [
        ((0, 1), None, 1),
        ((0, 2), None, 2),
        ((1, 0), None, -1),
        ((1, 2), None, -3),
        ((2, 0), None, -2),
        ((2, 2), None, 4),
    ]
    assert out.bound == 2 * terms.bound == 8


def test_extended_edge_marks_only_unmarked_tight_terms():
    layout, terms = _layout_and_terms(
        [((0, 1), None, 1), ((0, 2), None, 2), ((2, 2), 0, 3), ((1, 2), None, 4)]
    )
    # at head 1 the unmarked tight terms are marked and the term marked at
    # 0 is dropped; at tail 0 it is dropped again, as it is marked there
    out = multiply_edge_extended(terms, 0, 1, layout)
    assert list(iter_terms(layout, out)) == [
        ((0, 2), None, 1),
        ((0, 2), 1, 2),
        ((1, 1), None, -1),
        ((1, 2), None, -2),
        ((1, 2), 1, 4),
        ((2, 2), None, -4),
    ]


def test_extended_edge_refuses_a_layout_without_a_marker_field():
    layout, terms = _layout_and_terms([((0, 2), None, 1)], marked=False)
    assert layout.marker is None
    with pytest.raises(ValueError, match="no marker field"):
        multiply_edge_extended(terms, 0, 1, layout)


def _reference_edge(s, entries, u, v, extended):
    """The truncated product of {(f, marker): coeff} with (x_head -
    x_tail) over Python ints, with the exact coefficients."""
    tail, head = min(u, v), max(u, v)
    out = {}
    for (f, marker), c in entries.items():
        for w, sign in ((head, 1), (tail, -1)):
            if f[w] <= s[w] - 2:
                key = (f[:w] + (f[w] + 1,) + f[w + 1:], marker)
            elif extended and marker is None:
                key = (f, w)
            else:
                continue
            out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _check_edge(layout, terms, u, v, extended):
    """Run one edge product against ``_reference_edge``; the product
    raises exactly when an exact coefficient leaves int64."""
    s = layout.problem.s
    entries = {(f, m): c for f, m, c in iter_terms(layout, terms)}
    expected = _reference_edge(s, entries, u, v, extended)
    multiply = multiply_edge_extended if extended else multiply_edge_standard
    if any(not INT64_MIN < c <= INT64_MAX for c in expected.values()):
        with pytest.raises(CoefficientOverflow):
            multiply(terms, u, v, layout)
        return
    out = multiply(terms, u, v, layout)
    assert out.keys.shape == (len(out), layout.words) and is_strictly_sorted(out)
    got = {(f, m): c for f, m, c in iter_terms(layout, out)}
    assert got == expected
    assert all(abs(c) <= out.bound for c in expected.values())


# list sizes whose layouts take one word, words of power-of-two radices,
# and words of exact radices, marked or not
SHAPES = {
    "one-word": ((3, 2, 4, 3, 5), 1, True),
    "powers-of-two": ((2**20,) * 4, 2, True),
    "exact-radices": ((2**21 + 1,) * 9, 3, False),
}
# near 2^62 a bound doubled once reaches int64's limit; INT64_MIN is left
# out, as no product makes it and its negation wraps before any sum
_EDGE_COEFFS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.sampled_from([2**61, 2**62 - 1, 2**62, 2**62 + 1, -(2**62), INT64_MAX, INT64_MIN + 1]),
)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("extended", [False, True], ids=["standard", "extended"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_edge_products_match_a_dict_reference(shape, extended, data):
    s, words, powers = SHAPES[shape]
    n = len(s)
    order = tuple(data.draw(st.permutations(range(n))))
    digit = [st.one_of(st.sampled_from(sorted({0, 1, r - 2, r - 1})), st.integers(0, r - 1))
             for r in s]
    entries = {}
    for f in data.draw(st.lists(st.tuples(*digit), max_size=14)):
        marker = data.draw(st.sampled_from([None, *range(n)])) if extended else None
        if marker is not None:
            f = f[:marker] + (s[marker] - 1,) + f[marker + 1:]
        entries[f, marker] = data.draw(_EDGE_COEFFS)
    if not entries:
        return
    entries = [(f, m, c) for (f, m), c in entries.items()]
    # a bound given at 2^62 or above is refreshed from the coefficients
    high = data.draw(st.sampled_from([None, 2**62, 2**63]))
    bound = None if high is None else max(high, max(abs(c) for *_, c in entries))
    layout, terms = _layout_and_terms(entries, extended, s, order, bound)
    spans = [span for *_, span in layout.place + [layout.marker] * extended]
    assert layout.words >= words
    assert all(span & (span - 1) == 0 for span in spans) == powers
    u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    _check_edge(layout, terms, u, v, extended)


@pytest.mark.parametrize("extended", [False, True], ids=["standard", "extended"])
def test_every_edge_of_real_products_matches_the_dict_reference(monkeypatch, extended):
    """Each edge product of the runs on the coefficient corpus and on
    tests/tight-12.prob, checked against the reference on its input."""
    problems = coefficient_corpus() + [parse_problem(TIGHT_12.read_text())]
    name = "multiply_edge_extended" if extended else "multiply_edge_standard"
    calls = []

    def checked(terms, u, v, layout):
        calls.append(len(terms))
        _check_edge(layout, terms, u, v, extended)
        return original(terms, u, v, layout)

    original = getattr(poly, name)
    monkeypatch.setattr(poly, name, checked)
    for p in problems:
        ordering = VertexOrdering(order=tuple(range(p.n)))
        run_truncated_product(p, ordering, "extended" if extended else "standard", None)
    assert len(calls) > 1000 and max(calls) > 1000


def _pair(head_coeff, tail_coeff, bound=None):
    """Terms (0, 1) and (1, 0) whose products on the edge {0, 1} meet at
    (1, 1): head_coeff from (1, 0), minus tail_coeff from (0, 1)."""
    return _layout_and_terms(
        [((1, 0), None, head_coeff), ((0, 1), None, tail_coeff)], marked=False, bound=bound
    )


def test_a_sum_past_int64_raises_and_a_sum_that_fits_does_not(monkeypatch):
    exact = []

    def spy(keys, coeffs, check):
        exact.append(check)
        return merge2(keys, coeffs, check)

    monkeypatch.setattr(poly, "merge2", spy)
    # INT64_MAX - (-1) leaves int64
    layout, terms = _pair(INT64_MAX, -1)
    with pytest.raises(CoefficientOverflow, match=r"edge \{0,1\}"):
        multiply_edge_standard(terms, 0, 1, layout)
    # INT64_MAX - 1 fits, though the bound calls for the exact test
    layout, terms = _pair(INT64_MAX, 1)
    out = multiply_edge_standard(terms, 0, 1, layout)
    assert dict(((f, c) for f, _, c in iter_terms(layout, out)))[(1, 1)] == INT64_MAX - 1
    assert exact == [True, True]
    # a bound far above the coefficients is refreshed from them: no test
    layout, terms = _pair(5, 3, bound=2**62)
    out = multiply_edge_standard(terms, 0, 1, layout)
    assert exact[-1] is False and out.bound == 10
    # below 2^62 the bound doubles per edge without a look at the terms
    layout, terms = _pair(2**61, 3)
    out = multiply_edge_standard(terms, 0, 1, layout)
    assert exact[-1] is False and out.bound == 2**62
    # ... and the next edge refreshes it from the terms, at most 2^61
    out = multiply_edge_standard(out, 0, 1, layout)
    assert exact[-1] is False and out.bound == 2**62
    # a refreshed bound of 2^62 still calls for the test; the sums fit
    layout, terms = _pair(2**62, 3)
    multiply_edge_standard(terms, 0, 1, layout)
    assert exact[-1] is True


def test_a_term_list_built_without_a_bound_is_still_checked():
    keys = np.zeros((2, 1), dtype=np.uint64)
    assert TermList(keys, np.array([3, -7], dtype=np.int64)).bound == 7
    assert TermList(keys[:0], np.zeros(0, dtype=np.int64)).bound == 0
    layout, terms = _pair(INT64_MAX - 2, -3)
    assert terms.bound == INT64_MAX - 2
    with pytest.raises(CoefficientOverflow):
        multiply_edge_standard(terms, 0, 1, layout)
