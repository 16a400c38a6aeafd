import math
import tracemalloc

import numpy as np
import pytest

from actionseg import autodiff as ad
from actionseg import layers as L
from actionseg.autodiff import Variable, finite_diff_check, sum_all
from actionseg.errors import ContractError, ShapeError
from actionseg.tensor import Tensor

RNG = np.random.default_rng(20)


def conv_params(filters, channels, width, rng=None, kernels=None, bias=None):
    rng = rng or RNG
    k = kernels if kernels is not None else rng.normal(size=(filters, channels, width)) * 0.5
    b = bias if bias is not None else rng.normal(size=filters) * 0.2
    return L.Conv1DParams(Variable(k), Variable(b))


def lstm_params(hidden, in_dim, rng=None, scale=0.4, overrides=None):
    rng = rng or RNG
    fields = {}
    for g in ("i", "f", "o", "c"):
        fields[f"W_x{g}"] = Variable(rng.normal(size=(hidden, in_dim)) * scale)
        fields[f"W_h{g}"] = Variable(rng.normal(size=(hidden, hidden)) * scale)
        fields[f"b_{g}"] = Variable(rng.normal(size=hidden) * 0.1)
    fields.update(overrides or {})
    return L.LSTMParams(**fields)


def zero_lstm_params(hidden, in_dim, **bias_values):
    fields = {}
    for g in ("i", "f", "o", "c"):
        fields[f"W_x{g}"] = Variable(np.zeros((hidden, in_dim)))
        fields[f"W_h{g}"] = Variable(np.zeros((hidden, hidden)))
        fields[f"b_{g}"] = Variable(np.full(hidden, bias_values.get(g, 0.0)))
    return L.LSTMParams(**fields)


# convolution


def test_conv_identity_kernel():
    p = conv_params(1, 1, 1, kernels=np.ones((1, 1, 1)), bias=np.zeros(1))
    out = L.conv1d_same(Variable([[1.0], [2.0], [3.0]]), p)
    assert out.value.tolist() == [[1.0], [2.0], [3.0]]


def test_conv_zero_kernel_bias_only():
    p = conv_params(1, 2, 3, kernels=np.zeros((1, 2, 3)), bias=np.array([5.0]))
    out = L.conv1d_same(Variable(np.ones((4, 2))), p)
    assert out.value.tolist() == [[5.0]] * 4


def test_conv_hand_example_with_zero_padding():
    p = conv_params(1, 1, 3, kernels=np.ones((1, 1, 3)), bias=np.zeros(1))
    out = L.conv1d_same(Variable([[1.0], [2.0], [3.0], [4.0]]), p)
    assert out.value.data.ravel().tolist() == [3.0, 6.0, 9.0, 7.0]


def test_conv_channel_mismatch():
    with pytest.raises(ShapeError):
        L.conv1d_same(Variable(np.ones((4, 3))), conv_params(2, 2, 3))


def test_conv_preserves_length_for_long_kernels():
    for t_len, width in [(3, 5), (4, 6), (5, 7), (6, 8)]:
        p = conv_params(2, 1, width)
        out = L.conv1d_same(Variable(RNG.normal(size=(t_len, 1))), p)
        assert out.value.shape == (t_len, 2)


def test_conv_even_kernel_padding_split():
    # width 2: floor(L/2) = 1 zero on the left, none on the right
    p = conv_params(1, 1, 2, kernels=np.ones((1, 1, 2)), bias=np.zeros(1))
    out = L.conv1d_same(Variable([[1.0], [2.0], [4.0]]), p)
    assert out.value.data.ravel().tolist() == [1.0, 3.0, 6.0]


def _conv_reference(x, kernels, bias):
    # out[t, j] = bias[j] + sum over (ch, tau) of kernels[j, ch, tau] * x[t + tau - width//2, ch]
    t_len, cin = x.shape
    filters, _, width = kernels.shape
    out = np.empty((t_len, filters))
    for t in range(t_len):
        for j in range(filters):
            acc = bias[j]
            for ch in range(cin):
                for tau in range(width):
                    src = t + tau - width // 2
                    if 0 <= src < t_len:
                        acc += kernels[j, ch, tau] * x[src, ch]
            out[t, j] = acc
    return out


@pytest.mark.parametrize("t_len, width", [(9, 1), (9, 2), (9, 3), (12, 30), (40, 30)])
def test_conv_matches_naive_loop_reference(t_len, width):
    rng = np.random.default_rng(100 + width + t_len)
    x = rng.normal(size=(t_len, 3))
    kernels = rng.normal(size=(4, 3, width))
    bias = rng.normal(size=4)
    out = L.conv1d_same(Variable(x), conv_params(4, 3, width, kernels=kernels, bias=bias))
    assert np.allclose(out.value.data, _conv_reference(x, kernels, bias), rtol=0.0, atol=1e-12)


def test_conv_taped_memory_stays_below_a_patch_matrix():
    t_len, channels, width = 2048, 96, 30
    rng = np.random.default_rng(101)
    x = Variable(rng.normal(size=(t_len, channels)))
    p = conv_params(channels, channels, width, rng=rng)
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            loss = sum_all(L.conv1d_same(x, p))
        tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a (T, C_in * width) patch matrix alone would take 47 MB
    assert peak < 16e6, peak / 1e6


# normalized rectifier


def test_norm_relu_examples():
    out = L.norm_relu(Variable([[-1.0, 0.0, 2.0]])).value.data.ravel()
    assert out[0] == 0.0 and out[1] == 0.0
    assert abs(out[2] - 2.0 / (2.0 + 1e-5)) < 1e-15

    allneg = L.norm_relu(Variable([[-3.0, -0.5]])).value.data
    assert np.array_equal(allneg, np.zeros((1, 2)))

    single = L.norm_relu(Variable([[4.0]])).value.item()
    assert abs(single - 4.0 / (4.0 + 1e-5)) < 1e-15


def test_norm_relu_range_and_max():
    x = RNG.normal(size=(6, 5)) * 3
    out = L.norm_relu(Variable(x)).value.data
    assert np.all(out >= 0.0) and np.all(out < 1.0)
    m = max(x.max(), 0.0)
    assert abs(out.max() - m / (m + 1e-5)) < 1e-12


# pooling and upsampling


def test_max_pool_examples():
    out = L.max_pool_time(Variable([[1.0], [3.0], [2.0], [5.0]]))
    assert out.value.data.ravel().tolist() == [3.0, 5.0]
    out = L.max_pool_time(Variable([[0.0, 9.0], [7.0, 1.0]]))
    assert out.value.tolist() == [[7.0, 9.0]]
    out = L.max_pool_time(Variable([[-3.0], [-1.0]]))
    assert out.value.data.ravel().tolist() == [-1.0]


def test_max_pool_odd_length_rejected():
    with pytest.raises(ContractError):
        L.max_pool_time(Variable(np.ones((3, 2))))


def test_upsample_examples():
    out = L.upsample_repeat(Variable([[1.0, 2.0], [3.0, 4.0]]))
    assert out.value.tolist() == [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]
    out = L.upsample_repeat(Variable([[7.0]]))
    assert out.value.tolist() == [[7.0], [7.0]]


def test_pool_upsample_round_trip_identity():
    for _ in range(10):
        x = RNG.normal(size=(RNG.integers(1, 7), RNG.integers(1, 5)))
        back = L.max_pool_time(L.upsample_repeat(Variable(x))).value.data
        assert np.array_equal(back, x)


# recurrent unit


def test_lstm_zero_parameters_give_zero_hidden_states():
    p = zero_lstm_params(3, 2)
    out = L.lstm_forward(Variable(RNG.normal(size=(5, 2))), p)
    assert np.array_equal(out.value.data, np.zeros((5, 3)))


def test_lstm_gate_saturation_oracle():
    p = zero_lstm_params(1, 1, i=-20.0, f=20.0, o=20.0)
    out = L.lstm_forward(Variable(np.zeros((6, 1))), p, c0=Tensor([1.0]))
    sig20 = 1.0 / (1.0 + math.exp(-20.0))
    assert np.allclose(out.value.data, math.tanh(1.0) * sig20, atol=1e-6)


def test_lstm_hand_computed_step():
    p = zero_lstm_params(1, 1)
    for name, var in p.blocks():
        if name.startswith("W"):
            var.value = Tensor([[0.5]])
    out = L.lstm_forward(Variable([[1.0]]), p)
    sig = 1.0 / (1.0 + math.exp(-0.5))
    c1 = sig * math.tanh(0.5)
    h1 = sig * math.tanh(c1)
    assert abs(out.value.item() - h1) < 1e-12
    assert abs(c1 - 0.2877) < 5e-4  # sanity on the hand arithmetic


def test_lstm_shape_mismatch():
    with pytest.raises(ShapeError):
        L.lstm_forward(Variable(np.ones((4, 3))), lstm_params(2, 2))


def test_bilstm_zero_params_and_width():
    x = Variable(RNG.normal(size=(5, 3)))
    out = L.bilstm(x, zero_lstm_params(4, 3), zero_lstm_params(4, 3))
    assert out.value.shape == (5, 8)
    assert np.array_equal(out.value.data, np.zeros((5, 8)))


def test_bilstm_output_width_is_twice_hidden():
    x = Variable(RNG.normal(size=(4, 8)))
    out = L.bilstm(x, lstm_params(64, 8), lstm_params(64, 8))
    assert out.value.shape == (4, 128)


def test_bilstm_hidden_size_mismatch():
    with pytest.raises(ShapeError):
        L.bilstm(Variable(np.ones((4, 2))), lstm_params(3, 2), lstm_params(4, 2))


def test_bilstm_time_reversal_symmetry_exact():
    rng = np.random.default_rng(31)
    P = lstm_params(3, 2, rng)
    Q = lstm_params(3, 2, rng)
    x = rng.normal(size=(6, 2))
    lhs = L.bilstm(Variable(x[::-1].copy()), P, Q).value.data
    rhs = L.bilstm(Variable(x), Q, P).value.data
    swapped = np.concatenate([rhs[:, 3:], rhs[:, :3]], axis=1)
    assert np.array_equal(lhs, swapped[::-1])


# softmax read-out


def test_softmax_uniform_for_zero_logits():
    p = L.DenseParams(Variable(np.zeros((4, 3))), Variable(np.zeros(4)))
    out = L.time_softmax_dense(Variable(np.ones((2, 3))), p)
    assert np.allclose(out.value.data, 0.25, atol=1e-15)


def test_softmax_hand_example():
    out = L.softmax_time(Variable([[math.log(2.0), 0.0]])).value.data
    assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_softmax_shift_invariance_and_row_sums():
    z = RNG.normal(size=(7, 5)) * 40
    a = L.softmax_time(Variable(z)).value.data
    b = L.softmax_time(Variable(z + 123.456)).value.data
    assert np.max(np.abs(a - b)) <= 1e-12
    assert np.max(np.abs(a.sum(axis=1) - 1.0)) <= 1e-12
    assert np.array_equal(a.argmax(axis=1), z.argmax(axis=1))


def test_dense_shape_mismatch():
    p = L.DenseParams(Variable(np.zeros((4, 3))), Variable(np.zeros(4)))
    with pytest.raises(ShapeError):
        L.time_softmax_dense(Variable(np.ones((2, 5))), p)


# dropout


def test_dropout_rate_zero_is_identity():
    x = Variable(RNG.normal(size=(4, 3)))
    rng = np.random.default_rng(0)
    for fn in (L.dropout, L.spatial_dropout):
        assert fn(x, 0.0, rng, True) is x
        assert fn(x, 0.0, rng, False) is x


def test_dropout_inference_is_identity():
    x = Variable(RNG.normal(size=(4, 3)))
    for fn in (L.dropout, L.spatial_dropout):
        assert fn(x, 0.7, np.random.default_rng(0), False) is x


def test_dropout_rate_one_rejected():
    x = Variable(np.ones((2, 2)))
    with pytest.raises(ContractError):
        L.dropout(x, 1.0, np.random.default_rng(0), True)


def test_spatial_dropout_zeroes_whole_channels():
    x = Variable(np.ones((6, 8)))
    out = L.spatial_dropout(x, 0.5, np.random.default_rng(3), True).value.data
    for ch in range(8):
        col = out[:, ch]
        assert np.all(col == col[0])


def test_dropout_monte_carlo_unbiased():
    x = np.ones((4, 3))
    for fn in (L.dropout, L.spatial_dropout):
        rng = np.random.default_rng(1)
        acc = np.zeros_like(x)
        for _ in range(10000):
            acc += fn(Variable(x), 0.5, rng, True).value.data
        acc /= 10000
        assert np.max(np.abs(acc - x)) <= 0.02


# the master numerical invariant: every backward matches central differences


def _fd(f, x0, eps=1e-5):
    return finite_diff_check(f, Tensor(x0), eps)


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(40)
    x0 = rng.normal(size=(7, 3))
    k0 = rng.normal(size=(2, 3, 4)) * 0.5
    b0 = rng.normal(size=2) * 0.2

    def wrt_x(v):
        return sum_all(ad.mul(out := L.conv1d_same(v, conv_params(2, 3, 4, rng=np.random.default_rng(41))), out))
    assert _fd(wrt_x, x0) <= 1e-6

    xvar = Variable(x0)
    def wrt_k(v):
        p = L.Conv1DParams(v, Variable(b0))
        out = L.conv1d_same(xvar, p)
        return sum_all(ad.mul(out, out))
    assert _fd(wrt_k, k0) <= 1e-6

    def wrt_b(v):
        p = L.Conv1DParams(Variable(k0), v)
        out = L.conv1d_same(xvar, p)
        return sum_all(ad.mul(out, out))
    assert _fd(wrt_b, b0) <= 1e-6


@pytest.mark.parametrize("t_len, width", [(6, 1), (5, 9)])
def test_conv_gradients_match_finite_differences_at_extreme_widths(t_len, width):
    rng = np.random.default_rng(60 + width)
    x0 = rng.normal(size=(t_len, 3))
    k0 = rng.normal(size=(2, 3, width)) * 0.5
    b0 = rng.normal(size=2) * 0.2
    xvar = Variable(x0)

    def loss(x, k, b):
        out = L.conv1d_same(x, L.Conv1DParams(k, b))
        return sum_all(ad.mul(out, out))
    assert _fd(lambda v: loss(v, Variable(k0), Variable(b0)), x0) <= 1e-6
    assert _fd(lambda v: loss(xvar, v, Variable(b0)), k0) <= 1e-6
    assert _fd(lambda v: loss(xvar, Variable(k0), v), b0) <= 1e-6


def test_norm_relu_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    x0 = rng.normal(size=(6, 4))
    weight = Variable(rng.normal(size=(6, 4)))

    def f(v):
        return sum_all(ad.mul(L.norm_relu(v), weight))
    assert _fd(f, x0) <= 1e-4


def test_pool_and_upsample_gradients_match_finite_differences():
    rng = np.random.default_rng(43)
    x0 = rng.normal(size=(8, 3))
    w = Variable(rng.normal(size=(4, 3)))
    w2 = Variable(rng.normal(size=(16, 3)))

    assert _fd(lambda v: sum_all(ad.mul(L.max_pool_time(v), w)), x0) <= 1e-5
    assert _fd(lambda v: sum_all(ad.mul(L.upsample_repeat(v), w2)), x0) <= 1e-6


def test_lstm_gradients_match_finite_differences_every_block():
    rng = np.random.default_rng(44)
    x0 = rng.normal(size=(6, 2))
    p = lstm_params(3, 2, np.random.default_rng(45))

    def wrt_x(v):
        out = L.lstm_forward(v, p)
        return sum_all(ad.mul(out, out))
    assert _fd(wrt_x, x0) <= 1e-5

    xvar = Variable(x0)
    for name, var in p.blocks():
        def wrt_block(v, name=name):
            fields = dict(p.blocks())
            fields[name] = v
            out = L.lstm_forward(xvar, L.LSTMParams(**fields))
            return sum_all(ad.mul(out, out))
        assert _fd(wrt_block, var.value.data) <= 1e-5, name


def test_lstm_gradients_match_finite_differences_from_nonzero_initial_states():
    # the t=0 row of the backward pass reads c0 from the cell history
    rng = np.random.default_rng(51)
    x0 = rng.normal(size=(5, 2))
    p = lstm_params(3, 2, np.random.default_rng(52))
    h0, c0 = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3))

    def wrt_x(v):
        out = L.lstm_forward(v, p, h0=h0, c0=c0)
        return sum_all(ad.mul(out, out))
    assert _fd(wrt_x, x0) <= 1e-5

    xvar = Variable(x0)
    for name, var in p.blocks():
        def wrt_block(v, name=name):
            fields = dict(p.blocks())
            fields[name] = v
            out = L.lstm_forward(xvar, L.LSTMParams(**fields), h0=h0, c0=c0)
            return sum_all(ad.mul(out, out))
        assert _fd(wrt_block, var.value.data) <= 1e-5, name


def test_bilstm_gradient_matches_finite_differences():
    rng = np.random.default_rng(46)
    x0 = rng.normal(size=(5, 2))
    fwd = lstm_params(2, 2, np.random.default_rng(47))
    bwd = lstm_params(2, 2, np.random.default_rng(48))

    def f(v):
        out = L.bilstm(v, fwd, bwd)
        return sum_all(ad.mul(out, out))
    assert _fd(f, x0) <= 1e-5


def test_softmax_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(49)
    d0 = rng.normal(size=(5, 3))
    w0 = rng.normal(size=(4, 3))
    b0 = rng.normal(size=4)
    target = Variable(rng.normal(size=(5, 4)))

    dvar = Variable(d0)
    def wrt_d(v):
        p = L.DenseParams(Variable(w0), Variable(b0))
        return sum_all(ad.mul(L.time_softmax_dense(v, p), target))
    assert _fd(wrt_d, d0) <= 1e-5

    def wrt_w(v):
        p = L.DenseParams(v, Variable(b0))
        return sum_all(ad.mul(L.time_softmax_dense(dvar, p), target))
    assert _fd(wrt_w, w0) <= 1e-5

    def wrt_b(v):
        p = L.DenseParams(Variable(w0), v)
        return sum_all(ad.mul(L.time_softmax_dense(dvar, p), target))
    assert _fd(wrt_b, b0) <= 1e-5


def test_dropout_gradient_matches_finite_differences_with_frozen_mask():
    rng = np.random.default_rng(50)
    x0 = rng.normal(size=(6, 4))
    w = Variable(rng.normal(size=(6, 4)))
    for fn in (L.dropout, L.spatial_dropout):
        def f(v, fn=fn):
            out = fn(v, 0.4, np.random.default_rng(7), True)
            return sum_all(ad.mul(out, w))
        assert _fd(f, x0) <= 1e-6
