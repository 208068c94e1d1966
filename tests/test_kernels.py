"""Backend selection and numba/numpy kernel equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosability import available_backends, current_backend, set_backend
from choosability.kernels import INT64_MAX, INT64_MIN, _IMPLS, _merge2_np, get_impl


@pytest.fixture(autouse=True)
def restore_backend():
    from choosability import kernels

    before = kernels._backend
    yield
    kernels._backend = before


def test_numpy_backend_always_available():
    assert "numpy" in available_backends()


def test_set_backend_switches_impl():
    for name in available_backends():
        set_backend(name)
        assert current_backend() == name
        assert get_impl().name == name


def test_set_backend_rejects_unknown():
    with pytest.raises(ValueError):
        set_backend("fortran")


def test_env_var_controls_default(monkeypatch):
    monkeypatch.setenv("CHOOSABILITY_BACKEND", "numpy")
    set_backend(None)
    assert current_backend() == "numpy"


def test_env_var_rejects_unknown(monkeypatch):
    monkeypatch.setenv("CHOOSABILITY_BACKEND", "cobol")
    set_backend(None)
    with pytest.raises(ValueError):
        current_backend()


def _random_terms(rng, count, words):
    packed = rng.integers(0, 1 << 16, size=(count, words)).astype(np.uint64)
    view = [tuple(int(x) for x in row) for row in packed]
    uniq = sorted(set(view))
    keys = np.array(uniq, dtype=np.uint64).reshape(len(uniq), words)
    coeffs = rng.integers(-50, 51, size=len(uniq)).astype(np.int64)
    coeffs[coeffs == 0] = 7
    return keys, coeffs


@pytest.mark.parametrize("words", [1, 3])
def test_merge2_equivalent_across_backends(words):
    if len(available_backends()) < 2:
        pytest.skip("single backend build")
    rng = np.random.default_rng(5)
    for _ in range(25):
        ka, ca = _random_terms(rng, 40, words)
        kb, cb = _random_terms(rng, 40, words)
        results = []
        for name in available_backends():
            impl = _IMPLS[name]
            keys, coeffs, overflow = impl.merge2(ka, ca, kb, cb)
            results.append((keys.tolist(), coeffs.tolist(), overflow))
        assert results[0] == results[1]


def test_merge2_combines_and_drops_zeros():
    impl = _IMPLS["numpy"]
    ka = np.array([[1], [3]], dtype=np.uint64)
    ca = np.array([5, -2], dtype=np.int64)
    kb = np.array([[2], [3]], dtype=np.uint64)
    cb = np.array([1, 2], dtype=np.int64)
    keys, coeffs, overflow = impl.merge2(ka, ca, kb, cb)
    assert keys.tolist() == [[1], [2]]
    assert coeffs.tolist() == [5, 1]
    assert overflow is False or overflow == 0


@pytest.mark.parametrize("name", sorted(_IMPLS))
def test_merge2_flags_positive_overflow(name):
    impl = _IMPLS[name]
    half = np.array([2**62], dtype=np.int64)
    key = np.array([[9]], dtype=np.uint64)
    _, _, overflow = impl.merge2(key, half, key, half)
    assert overflow


@pytest.mark.parametrize("name", sorted(_IMPLS))
def test_merge2_flags_int64_min(name):
    impl = _IMPLS[name]
    key = np.array([[9]], dtype=np.uint64)
    a = np.array([INT64_MIN + 1], dtype=np.int64)
    b = np.array([-1], dtype=np.int64)
    _, _, overflow = impl.merge2(key, a, key, b)
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
    keys, coeffs, overflow = _merge2_np(ka, ca, kb, cb)
    # a zero leading word sends the same terms down the multi-word path
    pad = lambda k: np.hstack((np.zeros_like(k), k))
    keys2, coeffs2, overflow2 = _merge2_np(pad(ka), ca, pad(kb), cb)
    assert keys.shape == (len(coeffs), 1) and keys2.shape == (len(coeffs2), 2)
    assert keys.dtype == np.uint64 and coeffs.dtype == np.int64
    assert keys2[:, 0].tolist() == [0] * len(coeffs2)
    assert keys2[:, 1].tolist() == keys[:, 0].tolist()
    assert coeffs2.tolist() == coeffs.tolist()
    assert overflow2 == overflow
    expected = _reference_merge(ka, ca, kb, cb)
    assert (keys[:, 0].tolist(), coeffs.tolist(), overflow) == expected


def test_emit_bump_filters_and_increments():
    impl = _IMPLS["numpy"]
    # single word, field at bits 4..7, addend at bit 0
    keys = np.array([[0x10], [0x20], [0x30]], dtype=np.uint64)
    coeffs = np.array([1, 2, 3], dtype=np.int64)
    out_k, out_c = impl.emit_bump(keys, coeffs, 0, 4, 0xF, 2, 0, 1, True)
    assert out_k.tolist() == [[0x11], [0x21]]
    assert out_c.tolist() == [-1, -2]


def test_emit_mark_skips_marked_terms():
    impl = _IMPLS["numpy"]
    # field at bits 4..7, marker field at bits 0..3
    keys = np.array([[0x20], [0x21], [0x30]], dtype=np.uint64)
    coeffs = np.array([1, 2, 3], dtype=np.int64)
    out_k, out_c = impl.emit_mark(keys, coeffs, 0, 4, 0xF, 2, 0, 0xF, 0x5, False)
    assert out_k.tolist() == [[0x25]]
    assert out_c.tolist() == [1]


def test_full_run_matches_across_backends():
    if len(available_backends()) < 2:
        pytest.skip("single backend build")
    import random

    from choosability import collect_constraints, standard_alon_tarsi

    from _examples import random_problem

    rng = random.Random(99)
    problems = [random_problem(rng, name="bk%d" % i) for i in range(8)]
    per_backend = []
    for name in available_backends():
        set_backend(name)
        outcome = []
        for p in problems:
            witness, _ = standard_alon_tarsi(p)
            basis, w2, _ = collect_constraints(p)
            outcome.append((witness, w2, [(r.base, r.row) for r in basis.rows]))
        per_backend.append(outcome)
    assert per_backend[0] == per_backend[1]
