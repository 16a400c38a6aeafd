"""The Tensor value type, and ops run untaped on it."""

import numpy as np
import pytest

from actionseg import autodiff as ad
from actionseg import layers as L
from actionseg.errors import ShapeError
from actionseg.tensor import Tensor


@pytest.mark.parametrize("call, exc, message", [
    (lambda: ad.slice_axis(np.zeros((2, 3)), 2, 0, 1),
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
    t = Tensor([1.0, 2.0, 3.0])
    head, tail = ad.slice_axis(t, 0, 0, 1).value, ad.slice_axis(t, 0, 1, 3).value
    assert tail.tolist() == [2.0, 3.0]
    assert np.concatenate([head.data, tail.data]).tolist() == [1.0, 2.0, 3.0]


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
        joined = Tensor(np.concatenate([a.data, b.data], axis))
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
    conv = L.Conv1DParams(ad.Variable(b.data.reshape(4, 4, 1)), ad.Variable(a.data[0]))
    dense = L.DenseParams(ad.Variable(b), ad.Variable(a.data[0]))
    # one hidden unit whose weights and biases come from b
    unit = L.LSTMParams(**{name: ad.Variable({"W_x": b.data[:1], "W_h": b.data[:1, :1]}.get(name[:3], b.data[0, :1]))
                           for name in L.LSTM_FIELDS})
    for out in (L.conv1d_same(a, conv), L.upsample_conv1d_same(a, conv), L.norm_relu(a), L.max_pool_time(a),
                L.softmax_time(a), L.time_softmax_dense(a, dense), L.bilstm(a, unit, unit),
                ad.slice_axis(a, 1, 0, 2)):
        assert np.all(np.isfinite(out.value.data))


def test_tensors_are_immutable_buffers():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0
    with pytest.raises(ValueError):
        L.norm_relu(Tensor([[1.0, 2.0]])).value.data[0, 0] = 5.0
