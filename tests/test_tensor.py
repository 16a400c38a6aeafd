"""The Tensor value type and the array operations of ``autodiff`` run untaped."""

import numpy as np
import pytest

from actionseg import autodiff as ad
from actionseg.errors import ShapeError
from actionseg.tensor import Tensor


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert ad.matmul(eye, m).value.tolist() == [[3.0, 4.0], [5.0, 6.0]]


def test_matmul_zero():
    out = ad.matmul(Tensor.zeros((2, 3)), Tensor.ones((3, 2))).value
    assert out.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_matmul_hand():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]])).value
    assert out.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        ad.matmul(Tensor.zeros((2, 3)), Tensor.zeros((4, 2)))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_associativity_random_chains():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m, k, n, p = rng.integers(1, 6, size=4)
        a = Tensor(rng.normal(size=(m, k)))
        b = Tensor(rng.normal(size=(k, n)))
        c = Tensor(rng.normal(size=(n, p)))
        left = ad.matmul(ad.matmul(a, b), c).value
        right = ad.matmul(a, ad.matmul(b, c)).value
        assert np.max(np.abs(left.data - right.data)) <= 1e-9


def test_elementwise_add_hand():
    assert ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).value.tolist() == [4.0, 6.0]


def test_elementwise_mul_zero():
    x = Tensor([[1.5, -2.0], [0.25, 9.0]])
    assert ad.mul(x, Tensor.zeros((2, 2))).value.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_elementwise_bias_broadcast():
    m = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    bias = Tensor([[10.0, 20.0, 30.0]])
    out = ad.add(m, bias).value
    assert out.tolist() == [[11.0, 22.0, 33.0], [14.0, 25.0, 36.0]]
    flat_bias = Tensor([10.0, 20.0, 30.0])
    assert ad.add(m, flat_bias).value.tolist() == out.tolist()
    assert ad.add(flat_bias, m).value.tolist() == out.tolist()


def test_elementwise_shape_error():
    with pytest.raises(ShapeError):
        ad.add(Tensor.zeros((2, 3)), Tensor.zeros((3, 2)))


@pytest.mark.parametrize("call, exc, message", [
    (lambda: ad.matmul(Tensor.zeros((2, 3)), Tensor.zeros((4, 2))),
     ShapeError, "matmul shape mismatch: (2, 3) @ (4, 2)"),
    (lambda: ad.matmul(Tensor.zeros(3), Tensor.zeros((3, 2))),
     ShapeError, "matmul shape mismatch: (3,) @ (3, 2)"),
    (lambda: ad.add(Tensor.zeros((2, 3)), Tensor.zeros((3, 2))),
     ShapeError, "elementwise shape mismatch: (2, 3) vs (3, 2)"),
    (lambda: ad.add(Tensor.zeros(2), Tensor.zeros((2, 3))),
     ShapeError, "elementwise shape mismatch: (2,) vs (2, 3)"),
    (lambda: ad.mul(Tensor.zeros((2, 3)), Tensor.zeros((2, 1))),
     ShapeError, "elementwise shape mismatch: (2, 3) vs (2, 1)"),
    (lambda: ad.add(Tensor.zeros((1, 2, 3)), Tensor.zeros(3)),
     ShapeError, "elementwise shape mismatch: (1, 2, 3) vs (3,)"),
    (lambda: ad.concat(Tensor.zeros((2, 3)), Tensor.zeros((2, 4)), 0),
     ShapeError, "concat shape mismatch on axis 0: (2, 3) vs (2, 4)"),
    (lambda: ad.concat(Tensor.zeros((2, 3)), Tensor.zeros(3), 0),
     ShapeError, "concat shape mismatch on axis 0: (2, 3) vs (3,)"),
    (lambda: ad.concat(Tensor.zeros((2, 3)), Tensor.zeros((2, 3)), 2),
     ShapeError, "concat shape mismatch on axis 2: (2, 3) vs (2, 3)"),
    (lambda: ad.slice_axis(Tensor.zeros((2, 3)), 2, 0, 1),
     ShapeError, "slice axis 2 out of range for shape (2, 3)"),
    (lambda: ad.slice_axis(Tensor([1.0, 2.0]), 0, 1, 4),
     ShapeError, "slice bounds [1, 4) invalid for axis 0 of shape (2,)"),
    (lambda: ad.slice_axis(Tensor([1.0, 2.0]), 0, 1, 1),
     ShapeError, "slice bounds [1, 1) invalid for axis 0 of shape (2,)"),
])
def test_shape_errors_name_the_shapes(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert str(err.value) == message


def test_concat_slice_examples():
    assert ad.concat(Tensor([1.0]), Tensor([2.0]), 0).value.tolist() == [1.0, 2.0]
    assert ad.slice_axis(Tensor([1.0, 2.0, 3.0]), 0, 1, 3).value.tolist() == [2.0, 3.0]


def test_slice_and_transpose_return_copies():
    t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    for out in (ad.slice_axis(t, 0, 0, 1), ad.slice_axis(t, 1, 1, 3)):
        assert not np.shares_memory(out.value.data, t.data)
        assert out.value.data.flags["C_CONTIGUOUS"]


def test_concat_slice_round_trip_random():
    rng = np.random.default_rng(2)
    for _ in range(30):
        ndim = int(rng.integers(1, 4))
        shape_a = tuple(rng.integers(1, 5, size=ndim))
        axis = int(rng.integers(ndim))
        shape_b = list(shape_a)
        shape_b[axis] = int(rng.integers(1, 5))
        a = Tensor(rng.normal(size=shape_a))
        b = Tensor(rng.normal(size=tuple(shape_b)))
        joined = ad.concat(a, b, axis).value
        back_a = ad.slice_axis(joined, axis, 0, shape_a[axis]).value
        back_b = ad.slice_axis(joined, axis, shape_a[axis], joined.shape[axis]).value
        assert np.array_equal(back_a.data, a.data)
        assert np.array_equal(back_b.data, b.data)


def test_slice_bounds_error():
    with pytest.raises(ShapeError):
        ad.slice_axis(Tensor([1.0, 2.0]), 0, 1, 4)


def test_zero_size_dimension_rejected():
    for shape in [(0, 3), (3, 0), (0,), (2, 0, 4)]:
        for make in (Tensor, Tensor._wrap):
            with pytest.raises(ShapeError):
                make(np.empty(shape))


@pytest.mark.parametrize("arr", [
    np.arange(6.0).reshape(2, 3),
    np.arange(6.0).reshape(2, 3).T,
    np.arange(12.0).reshape(3, 4)[:, ::2],
    np.arange(6, dtype=np.float32).reshape(3, 2),
    np.arange(6).reshape(2, 3),
    np.arange(4.0).astype(">f8"),
    np.asarray(2.5),
    np.float64(2.5),
], ids=["contiguous", "transposed", "strided", "float32", "int", "big-endian", "0-d", "scalar"])
def test_wrap_gives_a_c_contiguous_read_only_float64_array(arr):
    t = Tensor._wrap(arr)
    assert type(t.data) is np.ndarray and t.data.dtype == np.float64
    assert t.data.dtype.isnative and t.data.flags.c_contiguous and not t.data.flags.writeable
    assert t.shape == np.shape(arr) and np.array_equal(t.data, arr)


def test_operations_preserve_finiteness():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(4, 4)) * 1e6)
    b = Tensor(rng.normal(size=(4, 4)) * 1e6)
    for out in (ad.matmul(a, b), ad.add(a, b), ad.mul(a, b), ad.concat(a, b, 1)):
        assert np.all(np.isfinite(out.value.data))


def test_tensors_are_immutable_buffers():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0
    with pytest.raises(ValueError):
        ad.add(t, t).value.data[0] = 5.0
