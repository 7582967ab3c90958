import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einlog.oracle import brute_einsum
from einlog.tensor import (EinsumSpec, TensorError, einsum, label_planes, sigmoid,
                           softmax_lastaxis)


def test_identity_contraction():
    eye = [[1.0, 0.0], [0.0, 1.0]]
    m = [[2.0, 3.0], [4.0, 5.0]]
    out = einsum("ab,bc->ac", [eye, m])
    assert np.array_equal(out, np.array(m))


def test_sum_product_vector_matrix():
    # brute-force triple loop oracle for "a,ab->b"
    a = np.array([0.5, 0.5])
    ab = np.ones((2, 2))
    want = np.zeros(2)
    for i in range(2):
        for j in range(2):
            want[j] += a[i] * ab[i, j]
    got = einsum("a,ab->b", [a, ab])
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(got, [1.0, 1.0])


def test_broadcast_output_letter():
    out = einsum("a->ab", [np.array([1.0, 2.0])], extents={"b": 3})
    assert out.shape == (2, 3)
    assert np.array_equal(out, [[1, 1, 1], [2, 2, 2]])


def test_broadcast_requires_extent():
    with pytest.raises(TensorError, match="no declared extent"):
        einsum("a->ab", [np.array([1.0, 2.0])])


def test_repeated_input_letter_is_diagonal():
    m = np.arange(9.0).reshape(3, 3)
    out = einsum("aa->a", [m])
    assert np.array_equal(out, np.diag(m))


def test_inconsistent_extents_rejected():
    with pytest.raises(TensorError, match="inconsistent extent"):
        einsum("ab,bc->ac", [np.ones((2, 3)), np.ones((4, 2))])


SPECS = ["ab,bc->ac", "a,ab->b", "ab,ab->", "abc->b", "aa->a", "ab,cb->ac",
         "abc,bc->a", "a,b,c->abc", "ab->ba", "abc,cb->ab"]


@pytest.mark.parametrize("spec", SPECS)
def test_matches_nested_loop_evaluator(spec):
    rng = np.random.default_rng(hash(spec) % 2**32)
    parsed = EinsumSpec.parse(spec)
    letters = sorted({c for s in parsed.inputs for c in s} | set(parsed.output))
    ext = {c: rng.integers(2, 5) for c in letters}
    ins = [rng.random(tuple(ext[c] for c in s)) for s in parsed.inputs]
    got = einsum(parsed, ins, ext)
    want = brute_einsum(parsed, ins, ext)
    assert np.allclose(got, want, atol=1e-12)


@given(st.integers(0, 2**31 - 1), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=30, deadline=None)
def test_einsum_is_multilinear(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    a = rng.random((3, 4))
    b = rng.random((3, 4))
    c = rng.random((4, 2))
    lhs = einsum("ab,bc->ac", [alpha * a + beta * b, c])
    rhs = alpha * einsum("ab,bc->ac", [a, c]) + beta * einsum("ab,bc->ac", [b, c])
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_input_permutation_invariance():
    rng = np.random.default_rng(7)
    x, y = rng.random((3, 4)), rng.random((4, 5))
    a = einsum("ab,bc->ac", [x, y])
    b = einsum("bc,ab->ac", [y, x])
    assert np.allclose(a, b, atol=1e-12)


def test_slice_equals_onehot_contraction():
    rng = np.random.default_rng(3)
    m = rng.random((3, 3))
    onehot = np.zeros(3)
    onehot[1] = 1.0
    sliced = m[1]
    contracted = einsum("a,ab->b", [onehot, m])
    assert np.allclose(sliced, contracted, atol=1e-12)


def test_softmax_symmetry_and_normalization():
    out = softmax_lastaxis(np.array([0.0, 0.0]))
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(4, 5, 3)) * 10
    q = softmax_lastaxis(logits)
    assert np.max(np.abs(q.sum(axis=-1) - 1.0)) < 1e-12


def test_exp_normalize_equals_softmax():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(6, 4))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    manual = e / e.sum(axis=-1, keepdims=True)
    assert np.allclose(manual, softmax_lastaxis(logits), atol=1e-12)


def _reduction_softmax(arr):
    e = np.exp(arr - arr.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("labels", [2, 3, 5])
@pytest.mark.parametrize("arity", [0, 1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_slice_softmax_equals_reduction_form_bitwise(labels, arity, scale):
    # at scale 1e3 most labels underflow to exp(...) == 0 after the shift
    rng = np.random.default_rng(100 * labels + arity)
    logits = rng.normal(size=(7,) * arity + (labels,)) * scale
    logits.flat[::3] = scale * np.sign(logits.flat[::3])   # exact ties at +-scale
    before = logits.copy()
    q = softmax_lastaxis(logits)
    assert np.array_equal(q, _reduction_softmax(logits))
    assert np.array_equal(logits, before)                  # input left untouched
    assert np.max(np.abs(q.sum(axis=-1) - 1.0)) <= 1e-15
    if scale > 1.0:
        assert (q == 0.0).any()


def _in_layout(arr, layout):
    """A copy of ``arr`` in C order or label-plane order."""
    if layout == "c":
        return np.array(arr, order="C")
    out = label_planes(arr.shape)
    np.copyto(out, arr)
    return out


def _is_label_plane(arr):
    return np.moveaxis(arr, -1, 0).flags.c_contiguous


def test_label_planes_are_contiguous_label_slices():
    t = label_planes((4, 3, 5, 2))
    assert t.shape == (4, 3, 5, 2) and t.dtype == np.float64
    assert _is_label_plane(t) and not t.flags.c_contiguous
    assert all(t[..., k].flags.c_contiguous for k in range(2))
    assert not label_planes((3, 2), np.zeros).any()


# from one row of labels (arity 0) up to tables of 17,161 and 68,921 cells
@pytest.mark.parametrize("labels", [2, 3, 5])
@pytest.mark.parametrize("cells", [(), (5,), (5, 5, 5), (131, 131), (41, 41, 41)])
def test_softmax_out_equals_reduction_form_bitwise_in_either_layout(labels, cells):
    rng = np.random.default_rng(10 * labels + len(cells))
    logits = rng.normal(size=cells + (labels,)) * 30
    logits.flat[::4] = 30.0                                # exact ties
    want = _reduction_softmax(logits)
    for layout in ("c", "label-plane"):
        arr = _in_layout(logits, layout)
        fresh = softmax_lastaxis(arr)
        assert fresh.strides == arr.strides                # keeps the input's layout
        assert np.array_equal(fresh, want)
        got = softmax_lastaxis(arr, out=arr)               # in place
        assert got is arr and np.array_equal(arr, want)
    for src in ("c", "label-plane"):                       # into another table
        out = label_planes(logits.shape)
        assert softmax_lastaxis(_in_layout(logits, src), out=out) is out
        assert np.array_equal(out, want)


@pytest.mark.parametrize("cells", [(), (5,), (131, 131), (41, 41, 41)])
def test_sigmoid_matches_binary_softmax(cells):
    rng = np.random.default_rng(len(cells))
    e = np.asarray(rng.normal(size=cells) * 20)           # x0 - x1
    want = _reduction_softmax(np.stack([e, np.zeros(cells)], axis=-1))[..., 1]
    assert np.max(np.abs(sigmoid(e) - want), initial=0.0) <= 1e-15
    # at e <= 0 both forms compute 1 / (1 + exp(e)), so they agree bit for bit
    assert np.array_equal(sigmoid(e)[e <= 0], want[e <= 0])
    strided = np.stack([e, e], axis=-1)[..., 1]
    assert np.array_equal(sigmoid(strided), sigmoid(e))
    arr = e.copy()
    assert sigmoid(arr, out=arr) is arr and np.array_equal(arr, sigmoid(e))


def test_sigmoid_saturates_without_warnings():
    d = np.array([-1e308, -800.0, -745.5, 745.5, 800.0, 1e308, 0.0])
    with np.errstate(all="raise"):
        got = sigmoid(d)
    assert got.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.5]
