import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import expit

from actionseg import autodiff as ad
from actionseg import layers as L
from actionseg.autodiff import Variable, finite_diff_check
from actionseg.errors import ContractError, ShapeError
from actionseg.model import ModelConfig, build
from actionseg.tensor import Tensor
from actionseg.train import AdamState, adam_step
from memory_helpers import TracedMemory
from tape_helpers import dot, embed, repeat_frames
from worker_helpers import blas_build, one_thread_pool, skip_unless_golden_build

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


def identity_conv(channels):
    """Width-1 kernels that copy each channel, zero bias: ``upsample_conv1d_same`` only repeats rows."""
    return conv_params(channels, channels, 1, kernels=np.eye(channels)[:, :, None],
                       bias=np.zeros(channels))


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
    with TracedMemory() as mem:
        with ad.Tape() as tape:
            out = L.conv1d_same(x, p)
            loss = dot(out, np.ones(out.shape))
        tape.backward(loss)
    peak = mem.peak
    # a (T, C_in * width) patch matrix alone would take 47 MB
    assert peak < 16e6, peak / 1e6


def _correlate_reference(x, kernels, bias, w, upsample):
    """Output, input gradient and kernel gradient of sum(out * w), by np.correlate per (filter, channel)."""
    filters, cin, width = kernels.shape
    xu = np.repeat(x, 2, axis=0) if upsample else x
    left = width // 2
    xp = np.pad(xu, ((left, width - 1 - left), (0, 0)))
    out = np.tile(bias, (len(xu), 1))
    dk = np.empty_like(kernels)
    dxp = np.zeros_like(xp)
    for j in range(filters):
        for c in range(cin):
            out[:, j] += np.correlate(xp[:, c], kernels[j, c], "valid")
            dk[j, c] = np.correlate(xp[:, c], w[:, j], "valid")
            dxp[:, c] += np.convolve(w[:, j], kernels[j, c])
    dx = dxp[left:left + len(xu)]
    return out, (dx[0::2] + dx[1::2] if upsample else dx), dk


def _taped_conv(op, x0, k0, b0, w):
    x = Variable(x0, trainable=True)
    p = conv_params(*k0.shape, kernels=k0, bias=b0)
    with ad.Tape() as tape:
        out = op(x, p)
        loss = dot(out, Variable(w))
    tape.backward(loss)
    return out.value.data, x._grad, p.kernels._grad, p.bias._grad


# (op, frames, in_channels, filters, frequency-domain path taken) at width 30
_BOTH_PATHS = [
    (L.conv1d_same, 40, 5, 6, False),
    (L.conv1d_same, 600, 32, 48, True),
    (L.upsample_conv1d_same, 20, 5, 6, False),
    (L.upsample_conv1d_same, 600, 48, 32, True),
]


@pytest.mark.parametrize("op, s_len, cin, filters, dft", _BOTH_PATHS)
def test_conv_matches_a_correlate_reference_on_both_paths(op, s_len, cin, filters, dft):
    rng = np.random.default_rng(s_len + cin)
    x0 = rng.normal(size=(s_len, cin))
    k0 = rng.normal(size=(filters, cin, 30))
    b0 = rng.normal(size=filters)
    upsample = op is L.upsample_conv1d_same
    # the (offsets, phases*filters) of the M that the op reads
    offsets, rows = (16, 2 * filters) if upsample else (30, filters)
    assert bool(L._dft_length(s_len, offsets, cin, rows)) == dft
    w = rng.normal(size=((2 if upsample else 1) * s_len, filters))
    got = _taped_conv(op, x0, k0, b0, w)
    want = (*_correlate_reference(x0, k0, b0, w, upsample), w.sum(axis=0))
    for g, r in zip(got, want):
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


@given(s_len=st.integers(1, 80), cin=st.integers(1, 4), filters=st.integers(1, 4),
       width=st.integers(1, 31), upsample=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(s_len=35, cin=2, filters=3, width=30, upsample=False, seed=0)  # one whole block
@example(s_len=36, cin=2, filters=3, width=30, upsample=False, seed=0)  # one row into a second
@example(s_len=1, cin=1, filters=1, width=1, upsample=True, seed=0)
def test_both_conv_algorithms_agree_at_every_shape(s_len, cin, filters, width, upsample, seed):
    # each algorithm forced at every shape, whichever the rule would pick
    rng = np.random.default_rng(seed)
    op = L.upsample_conv1d_same if upsample else L.conv1d_same
    x0 = rng.normal(size=(s_len, cin))
    k0 = rng.normal(size=(filters, cin, width))
    b0 = rng.normal(size=filters)
    w = rng.normal(size=((2 if upsample else 1) * s_len, filters))
    results = []
    for rule in (lambda *shape: 0, lambda s, offsets, c, pf: 1 << (2 * offsets - 1).bit_length()):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(L, "_dft_length", rule)
            results.append(_taped_conv(op, x0, k0, b0, w))
    for direct, dft in zip(*results):
        assert np.max(np.abs(dft - direct)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("op, s_len, cin, filters", [c[:4] for c in _BOTH_PATHS if c[4]])
def test_conv_gradients_match_finite_differences_on_the_frequency_domain_path(op, s_len, cin, filters):
    # the whole input and kernels would take tens of thousands of probes, so
    # only a corner of each is the probed variable, embedded in the rest
    rng = np.random.default_rng(70 + s_len)
    x0 = rng.normal(size=(s_len, cin))
    k0 = rng.normal(size=(filters, cin, 30)) * 0.2
    b0 = rng.normal(size=filters)

    def loss(x, k, b):
        out = op(x, L.Conv1DParams(k, b))
        return dot(out, out)

    assert _fd(lambda v: loss(embed(v, x0, np.s_[:1]), Variable(k0), Variable(b0)), x0[:1]) <= 1e-4
    assert _fd(lambda v: loss(Variable(x0), embed(v, k0, np.s_[:1, :1]), Variable(b0)), k0[:1, :1]) <= 1e-4
    assert _fd(lambda v: loss(Variable(x0), Variable(k0), embed(v, b0, np.s_[:4])), b0[:4]) <= 1e-4


def test_the_rule_keeps_toy_sizes_and_short_inputs_on_the_direct_path():
    # (frames, offsets, in_channels, phases*filters)
    for shape in [(8, 3, 3, 64), (8, 3, 64, 96), (4, 3, 96, 192), (260, 9, 16, 64), (250, 30, 64, 64),
                  (125, 30, 64, 96), (62, 16, 128, 192)]:
        assert L._dft_length(*shape) == 0, shape
    for shape in [(2500, 30, 64, 64), (1250, 30, 64, 96), (625, 16, 96, 192), (1250, 16, 96, 128),
                  (2048, 30, 96, 96)]:
        assert L._dft_length(*shape) == 1 << (2 * shape[1] - 1).bit_length(), shape


@pytest.mark.parametrize("op", [L.conv1d_same, L.upsample_conv1d_same])
def test_conv_gives_no_input_gradient_to_a_leaf_that_is_not_trainable(op):
    rng = np.random.default_rng(102)
    x0 = rng.normal(size=(6, 3))
    k0 = rng.normal(size=(2, 3, 4))
    b0 = rng.normal(size=2)
    grads = {}
    for trainable in (False, True):
        x = Variable(x0, trainable=trainable)
        p = conv_params(2, 3, 4, kernels=k0, bias=b0)
        with ad.Tape() as tape:
            out = op(x, p)
            loss = dot(out, out)
        tape.backward(loss)
        grads[trainable] = (x._grad, p.kernels._grad, p.bias._grad)
    assert grads[False][0] is None
    assert grads[True][0] is not None
    assert np.array_equal(grads[False][1], grads[True][1])
    assert np.array_equal(grads[False][2], grads[True][2])


# upsampling convolution


@given(s_len=st.integers(1, 12), channels=st.integers(1, 5), filters=st.integers(1, 5),
       width=st.integers(1, 31), seed=st.integers(0, 2 ** 32 - 1))
@example(s_len=1, channels=2, filters=3, width=30, seed=0)
@example(s_len=3, channels=1, filters=1, width=2, seed=1)
def test_upsample_conv_equals_conv_of_the_repeated_input(s_len, channels, filters, width, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(s_len, channels))
    p = conv_params(filters, channels, width, rng=rng)
    w = rng.normal(size=(2 * s_len, filters))
    results = []
    for op in (lambda v: L.upsample_conv1d_same(v, p),
               lambda v: L.conv1d_same(repeat_frames(v), p)):
        x = Variable(x0, trainable=True)
        with ad.Tape() as tape:
            out = op(x)
            loss = dot(out, Variable(w))
        tape.backward(loss)
        results.append([out.value.data, x._grad, p.kernels._grad, p.bias._grad])
        p.kernels.zero_grad()
        p.bias.zero_grad()
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (got, want)


def test_upsample_conv_checks_shapes():
    p = conv_params(2, 3, 4)
    with pytest.raises(ShapeError):
        L.upsample_conv1d_same(Variable(np.ones((4, 2))), p)
    with pytest.raises(ShapeError):
        L.upsample_conv1d_same(Variable(np.ones(4)), p)


def _shadow(block):
    """A copy of ``block`` whose fields are fresh variables over its tensors."""
    return dataclasses.replace(block, **{f.name: Variable(getattr(block, f.name).value)
                                         for f in dataclasses.fields(block)})


def test_merged_kernels_follow_the_kernel_tensor():
    model = build(ModelConfig(input_dim=3, num_classes=2, variant="conv_only", k=1, conv_len=5,
                              seed=3))
    p = model.table[1].blocks["dec1.conv"]
    x = Variable(np.random.default_rng(103).normal(size=(4, p.kernels.shape[1])))

    def matches_reference(params):
        got = L.upsample_conv1d_same(x, params).value.data
        want = L.conv1d_same(repeat_frames(x), params).value.data
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    first = p.merged_kernels()
    assert not first.flags.writeable
    assert p.merged_kernels() is first
    adam_step([p.kernels], [np.ones(p.kernels.shape)], AdamState(lr=0.1))
    second = p.merged_kernels()
    assert second is not first and not np.array_equal(second, first)
    assert matches_reference(p)

    # the copies the gradient report makes: a checked block's, and the shadow's
    for q in (dataclasses.replace(p, kernels=Variable(p.kernels.value)), _shadow(p)):
        assert q is not p
        assert q.merged_kernels() is not second
        assert np.array_equal(q.merged_kernels(), second)
    doubled = dataclasses.replace(p, kernels=Variable(2.0 * p.kernels.value.data))
    assert matches_reference(doubled)
    assert p.merged_kernels() is second


def test_assigning_one_field_of_a_block_copy_rebuilds_only_what_it_feeds():
    # the gradient report assigns each probe to one field of one copy
    model = build(ModelConfig(input_dim=3, num_classes=2, variant="conv_only", k=1, conv_len=5,
                              seed=3))
    q = dataclasses.replace(model.table[1].blocks["dec1.conv"])
    first = q.merged_kernels()
    q.bias = Variable(q.bias.value.data + 1.0)
    assert q.merged_kernels() is first
    # matched by identity: equal values in a new tensor rebuild too
    q.kernels = Variable(Tensor(q.kernels.value.data))
    second = q.merged_kernels()
    assert second is not first and np.array_equal(second, first)
    q.kernels = Variable(2.0 * q.kernels.value.data)
    assert np.array_equal(q.merged_kernels(), 2.0 * first)


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


def _max_pool_reference(xd, g):
    # the earliest maximal frame of each pair, by argmax, and its gradient routing
    t_len, channels = xd.shape
    pairs = xd.reshape(t_len // 2, 2, channels)
    winners = pairs.argmax(axis=1)[:, None, :]
    dpairs = np.zeros_like(pairs)
    np.put_along_axis(dpairs, winners, g[:, None, :], axis=1)
    return np.take_along_axis(pairs, winners, axis=1)[:, 0, :], dpairs.reshape(t_len, channels)


# ties, both zeros, two NaNs told apart by their sign bit, and both infinities
_POOL_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, -np.nan, np.inf, -np.inf])


@given(pairs=st.integers(1, 6), channels=st.integers(1, 4), data=st.data())
@example(pairs=4, channels=1, data=None)
def test_max_pool_matches_argmax_bit_for_bit_with_ties_zeros_nan_and_inf(pairs, channels, data):
    size = 2 * pairs * channels
    if data is None:  # each pair: a tie, -0.0 first, a NaN second, a NaN first
        values = [2.5, 2.5, -0.0, 0.0, 1.0, np.nan, -np.nan, np.inf]
    else:
        values = data.draw(st.lists(_POOL_VALUES, min_size=size, max_size=size))
    xd = np.array(values, dtype=np.float64).reshape(2 * pairs, channels)
    g = np.arange(1.0, pairs * channels + 1).reshape(pairs, channels)
    want, want_grad = _max_pool_reference(xd, g)
    x = Variable(xd, trainable=True)
    with ad.Tape() as tape, np.errstate(invalid="ignore"):  # the loss may be inf - inf
        out = L.max_pool_time(x)
        loss = dot(out, Variable(g))
    tape.backward(loss)
    assert out.value.data.tobytes() == want.tobytes()
    assert x._grad.tobytes() == want_grad.tobytes()


def test_max_pool_odd_length_rejected():
    with pytest.raises(ContractError):
        L.max_pool_time(Variable(np.ones((3, 2))))


def test_upsample_examples():
    # with identity kernels the upsampling convolution is the upsampling alone
    out = L.upsample_conv1d_same(Variable([[1.0, 2.0], [3.0, 4.0]]), identity_conv(2))
    assert out.value.tolist() == [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]
    out = L.upsample_conv1d_same(Variable([[7.0]]), identity_conv(1))
    assert out.value.tolist() == [[7.0], [7.0]]


def test_pool_upsample_round_trip_identity():
    for _ in range(10):
        x = RNG.normal(size=(RNG.integers(1, 7), RNG.integers(1, 5)))
        up = L.upsample_conv1d_same(Variable(x), identity_conv(x.shape[1]))
        back = L.max_pool_time(up).value.data
        assert np.array_equal(back, x)


# recurrent unit


def test_lstm_gate_saturation_oracle():
    # a pulse at frame 0 opens the input gate and writes a candidate of 1
    # into the cell; the closed input gate and the open forget gate then
    # hold it, so every hidden state after the pulse reads tanh(1) through
    # the open output gate. The backward direction meets the pulse last.
    p = zero_lstm_params(1, 1, i=-20.0, f=20.0, o=20.0)
    p.W_xi.value = Tensor([[40.0]])
    p.W_xc.value = Tensor([[20.0]])
    pulse = np.zeros((6, 1))
    pulse[0] = 1.0
    out = L.bilstm(Variable(pulse), p, p).value.data
    held = math.tanh(1.0) / (1.0 + math.exp(-20.0))
    assert np.allclose(out[:, 0], held, atol=1e-6)
    assert np.allclose(out[:, 1], [held, 0, 0, 0, 0, 0], atol=1e-6)


def test_lstm_hand_computed_step():
    p = zero_lstm_params(1, 1)
    for name, var in p.blocks():
        if name.startswith("W"):
            var.value = Tensor([[0.5]])
    out = L.bilstm(Variable([[1.0]]), p, p)
    sig = 1.0 / (1.0 + math.exp(-0.5))
    c1 = sig * math.tanh(0.5)
    h1 = sig * math.tanh(c1)
    assert np.max(np.abs(out.value.data - h1)) < 1e-12  # one step, so both directions
    assert abs(c1 - 0.2877) < 5e-4  # sanity on the hand arithmetic


def test_lstm_shape_mismatch():
    with pytest.raises(ShapeError):
        L.bilstm(Variable(np.ones((4, 3))), lstm_params(2, 2), lstm_params(2, 2))


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


def _taped_bilstm(op, x0, fwd, bwd, w):
    """Output and input gradient of dot(op(x, fwd, bwd), w); block gradients stay on the blocks."""
    x = Variable(x0, trainable=True)
    with ad.Tape() as tape:
        out = op(x, fwd, bwd)
        loss = dot(out, w)
    tape.backward(loss)
    return out.value.data, x._grad


def _lstm_reference(x, p, g):
    """One LSTM direction over the rows of ``x``, a step at a time in numpy.

    Returns the hidden states (T, H) and, for the output gradient ``g``,
    the gradients of ``x`` and of every block of ``p`` in field order, by
    textbook backpropagation through time.
    """
    w = {name: var.value.data for name, var in p.blocks()}
    t_len, hidden = len(x), p.hidden
    h, c = np.zeros((t_len + 1, hidden)), np.zeros((t_len + 1, hidden))  # row t+1: after step t
    gates = []
    for t in range(t_len):
        i, f, o, cand = (w[f"W_x{k}"] @ x[t] + w[f"W_h{k}"] @ h[t] + w[f"b_{k}"] for k in "ifoc")
        i, f, o, cand = expit(i), expit(f), expit(o), np.tanh(cand)
        c[t + 1] = f * c[t] + i * cand
        h[t + 1] = o * np.tanh(c[t + 1])
        gates.append((i, f, o, cand))
    grads = {name: np.zeros_like(arr) for name, arr in w.items()}
    dx = np.zeros_like(x)
    dh, dc = np.zeros(hidden), np.zeros(hidden)
    for t in reversed(range(t_len)):
        i, f, o, cand = gates[t]
        tc = np.tanh(c[t + 1])
        dh = dh + g[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        pre = {"i": dc * cand * i * (1.0 - i), "f": dc * c[t] * f * (1.0 - f),
               "o": dh * tc * o * (1.0 - o), "c": dc * i * (1.0 - cand * cand)}
        dh = np.zeros(hidden)
        for k, a in pre.items():
            grads[f"W_x{k}"] += np.outer(a, x[t])
            grads[f"W_h{k}"] += np.outer(a, h[t])
            grads[f"b_{k}"] += a
            dx[t] += w[f"W_x{k}"].T @ a
            dh += w[f"W_h{k}"].T @ a
        dc = dc * f
    return h[1:], dx, [grads[name] for name in L.LSTM_FIELDS]


def _bilstm_composite(x0, fwd, bwd, w):
    """Output, input gradient and the 24 block gradients of dot(bilstm(x0, fwd, bwd), w).

    Two :func:`_lstm_reference` runs joined in numpy: ``bwd`` runs on the
    reversed frames, and its output and input gradient are reversed back.
    """
    out_f, dx_f, grads_f = _lstm_reference(x0, fwd, w[:, :fwd.hidden])
    out_b, dx_b, grads_b = _lstm_reference(x0[::-1], bwd, w[::-1, fwd.hidden:])
    return [np.concatenate([out_f, out_b[::-1]], axis=1), dx_f + dx_b[::-1], *grads_f, *grads_b]


def _upsample_bilstm_composite(x0, fwd, bwd, w):
    """:func:`_bilstm_composite` on each row of ``x0`` repeated twice; a row's gradient sums its copies'."""
    out, dx, *grads = _bilstm_composite(np.repeat(x0, 2, axis=0), fwd, bwd, w)
    return [out, dx[0::2] + dx[1::2], *grads]


@given(s_len=st.integers(1, 12), channels=st.integers(1, 5), hidden=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(s_len=1, channels=1, hidden=1, seed=0)
@example(s_len=12, channels=5, hidden=5, seed=1)
def test_fused_bilstm_ops_equal_their_composites(s_len, channels, hidden, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(s_len, channels))
    fwd, bwd = lstm_params(hidden, channels, rng), lstm_params(hidden, channels, rng)
    blocks = [var for p in (fwd, bwd) for _, var in p.blocks()]
    pairs = [(s_len, L.bilstm, _bilstm_composite),
             (2 * s_len, L.upsample_bilstm, _upsample_bilstm_composite)]
    for t_len, fused, composite in pairs:
        w = rng.normal(size=(t_len, 2 * hidden))
        fused_results = [*_taped_bilstm(fused, x0, fwd, bwd, w)] + [var._grad for var in blocks]
        for var in blocks:
            var.zero_grad()
        composite_results = composite(x0, fwd, bwd, w)
        assert len(fused_results) == len(composite_results) == 26
        for got, want in zip(fused_results, composite_results):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (fused, got, want)


def test_upsample_bilstm_checks_shapes():
    with pytest.raises(ShapeError):
        L.upsample_bilstm(Variable(np.ones(4)), lstm_params(3, 2), lstm_params(3, 2))
    with pytest.raises(ShapeError):
        L.upsample_bilstm(Variable(np.ones((4, 3))), lstm_params(3, 2), lstm_params(3, 2))
    with pytest.raises(ShapeError):
        L.upsample_bilstm(Variable(np.ones((4, 2))), lstm_params(3, 2), lstm_params(4, 2))


def test_stacked_lstm_weights_follow_the_gate_tensors():
    model = build(ModelConfig(input_dim=3, num_classes=2, variant="full", k=1, hidden=3, seed=4))
    p, bwd = model.table[1].blocks["dec1.lstm.fwd"], model.table[1].blocks["dec1.lstm.bwd"]
    x = Variable(np.random.default_rng(104).normal(size=(4, p.input_dim)))

    def matches_reference(params):
        fresh = L.LSTMParams(**{name: Variable(var.value.data.copy()) for name, var in params.blocks()})
        got = L.upsample_bilstm(x, params, bwd).value.data
        return np.array_equal(got, L.upsample_bilstm(x, fresh, bwd).value.data)

    first = p.stacked()
    assert not any(arr.flags.writeable for arr in first)
    assert p.stacked() is first
    adam_step([p.W_hf], [np.ones(p.W_hf.shape)], AdamState(lr=0.1))
    second = p.stacked()
    assert second is not first and not np.array_equal(second.wh_t, first.wh_t)
    assert matches_reference(p)

    # the copies the gradient report makes: a checked block's, and the shadow's
    for q in (dataclasses.replace(p, W_hf=Variable(p.W_hf.value)), _shadow(p)):
        assert q is not p
        assert q.stacked() is not second
        assert all(np.array_equal(a, b) for a, b in zip(q.stacked(), second))
    doubled = dataclasses.replace(p, W_xo=Variable(2.0 * p.W_xo.value.data))
    assert matches_reference(doubled)
    assert p.stacked() is second


def test_stacked_weights_are_views_only_of_gate_rows_in_field_order():
    rng = np.random.default_rng(106)
    hidden, in_dim = 3, 2
    rows = rng.normal(size=(4, hidden, in_dim))
    rows.setflags(write=False)
    in_order = lstm_params(hidden, in_dim, rng, overrides={
        name: Variable(Tensor._wrap(row)) for name, row in zip(("W_xi", "W_xf", "W_xo", "W_xc"), rows)})
    assert np.shares_memory(in_order.stacked().wx, rows)
    assert np.array_equal(in_order.stacked().wx, rows.reshape(4 * hidden, in_dim))

    # rows 1, 0, 2, 3 as W_xi, W_xf, W_xo, W_xc: stacked, not read as the array
    swapped = dataclasses.replace(in_order, W_xi=in_order.W_xf, W_xf=in_order.W_xi)
    wx = swapped.stacked().wx
    assert not np.shares_memory(wx, rows) and not wx.flags.writeable
    assert np.array_equal(wx, np.concatenate([rows[1], rows[0], rows[2], rows[3]]))
    x = Variable(rng.normal(size=(5, in_dim)))
    fresh = L.LSTMParams(**{name: Variable(var.value.data.copy()) for name, var in swapped.blocks()})
    assert np.array_equal(L.bilstm(x, swapped, in_order).value.data,
                          L.bilstm(x, fresh, in_order).value.data)


def test_upsample_bilstm_untaped_memory_stays_below_the_composite():
    s_len, channels, hidden = 1000, 128, 64
    rng = np.random.default_rng(105)
    x = Variable(rng.normal(size=(s_len, channels)))
    fwd, bwd = lstm_params(hidden, channels, rng), lstm_params(hidden, channels, rng)
    with TracedMemory() as mem:
        out = L.upsample_bilstm(x, fwd, bwd)
    peak = mem.peak
    assert out.value.shape == (2 * s_len, 2 * hidden)
    # a Bi-LSTM on the repeated input computed as two one-direction passes,
    # with reversed copies and a concatenation, peaked at 16.9 MB at these
    # sizes (stacked weights included); the fused op must not need more
    assert peak < 16.9e6, peak / 1e6


def test_upsample_bilstm_backward_works_in_the_forward_buffers():
    s_len, channels, hidden = 1000, 128, 64
    rng = np.random.default_rng(106)
    x = Variable(rng.normal(size=(s_len, channels)), trainable=True)
    fwd, bwd = lstm_params(hidden, channels, rng), lstm_params(hidden, channels, rng)
    with TracedMemory() as mem:
        with ad.Tape() as tape:
            out = L.upsample_bilstm(x, fwd, bwd)
            loss = dot(out, np.ones(out.shape))
        held = mem.held()
        tape.backward(loss)
    peak = mem.peak
    assert x.grad.shape == (s_len, channels)
    # the backward's peak above what the forward holds: 20.98 MB with a
    # second gate-sized buffer for the gate gradient, tanh(c) and the
    # factors' temporaries; 5.35 MB working in the forward's buffers, and
    # 2.91 MB once the input gradient is handed over without a copy
    assert peak - held < 10e6, (peak - held) / 1e6


def test_upsample_bilstm_taped_step_holds_each_step_sized_array_once():
    s_len, channels, hidden = 1250, 128, 64
    rng = np.random.default_rng(108)
    x = Variable(rng.normal(size=(s_len, channels)), trainable=True)
    fwd, bwd = lstm_params(hidden, channels, rng), lstm_params(hidden, channels, rng)
    w = Variable(rng.normal(size=(2 * s_len, 2 * hidden)))
    with TracedMemory() as mem:
        with ad.Tape() as tape:
            loss = dot(L.upsample_bilstm(x, fwd, bwd), w)
        tape.backward(loss)
    assert x.grad.shape == (s_len, channels)
    # forward plus backward, the stacked weights and the output gradient
    # included: 24.70 MB with the output a copy of the hidden states, the
    # factors, the copy of f and the step-ordered output gradient made for
    # all steps at once and every buffer kept to the end of the rule; 19.45
    # MB with the hidden states held once, those three made a block of
    # steps at a time, and the cell and hidden states let go of once read
    assert mem.peak < 20.5e6, mem.peak / 1e6


# (frames per input row, op) of each LSTM op
_LSTM_OPS = [(1, L.bilstm), (2, L.upsample_bilstm)]


@given(s_len=st.integers(1, 300), channels=st.integers(1, 3), hidden=st.integers(1, 6),
       op=st.integers(0, len(_LSTM_OPS) - 1), seed=st.integers(0, 2 ** 32 - 1))
@example(s_len=1, channels=1, hidden=1, op=1, seed=0)
@example(s_len=64, channels=2, hidden=3, op=0, seed=1)
@example(s_len=300, channels=3, hidden=6, op=1, seed=2)
def test_the_bptt_block_length_moves_no_gradient_bit(s_len, channels, hidden, op, seed):
    repeat, run = _LSTM_OPS[op]
    t_len = repeat * s_len
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(s_len, channels))
    fwd, bwd = lstm_params(hidden, channels, rng), lstm_params(hidden, channels, rng)
    w = rng.normal(size=(t_len, 2 * hidden))
    blocks = [var for p in (fwd, bwd) for _, var in p.blocks()]
    results = []
    for block in (1, 3, 64, t_len):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(L, "_BPTT_BLOCK", block)
            out, dx = _taped_bilstm(run, x0, fwd, bwd, w)
        results.append([out.tobytes(), dx.tobytes()] + [var._grad.tobytes() for var in blocks])
        for var in blocks:
            var.zero_grad()
    assert len(results[0]) == 2 + 24
    assert all(r == results[0] for r in results[1:])


def test_upsample_bilstm_untaped_keeps_no_step_history():
    s_len, channels, hidden = 1000, 128, 64
    rng = np.random.default_rng(107)
    x = Variable(rng.normal(size=(s_len, channels)))
    fwd, bwd = lstm_params(hidden, channels, rng), lstm_params(hidden, channels, rng)
    with TracedMemory() as mem:
        out = L.upsample_bilstm(x, fwd, bwd)
    peak = mem.peak
    assert out.value.shape == (2 * s_len, 2 * hidden)
    # 15.1 MB (stacked weights included) with every step's gates, cell and
    # hidden states kept and the output concatenated from them; 7.2 MB with
    # the projection of the S input rows, one gate and cell row, and h
    # written into the output; 4.85 MB with the projection a block of at
    # most 256 input rows at a time
    assert peak < 5e6, peak / 1e6


def test_bilstm_untaped_memory_does_not_grow_with_the_projection():
    s_len, channels, hidden = 2000, 128, 64
    rng = np.random.default_rng(109)
    x = Variable(rng.normal(size=(s_len, channels)))
    fwd, bwd = lstm_params(hidden, channels, rng), lstm_params(hidden, channels, rng)
    with TracedMemory() as mem:
        out = L.bilstm(x, fwd, bwd)
    peak = mem.peak
    assert out.value.shape == (s_len, 2 * hidden)
    # 13.28 MB (stacked weights included) with the (T, 4, 2, H) projection
    # of every input row and one direction's (T, 4H) product; 4.85 MB with
    # a block of at most 256 input rows of each, the 2 MB output included
    assert peak < 6e6, peak / 1e6


@given(s_len=st.integers(1, 40), channels=st.integers(1, 5), hidden=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
@example(s_len=1, channels=1, hidden=1, seed=0)
@example(s_len=7, channels=3, hidden=6, seed=1)
def test_untaped_lstm_ops_give_the_taped_bytes(s_len, channels, hidden, seed):
    rng = np.random.default_rng(seed)
    x = Variable(rng.normal(size=(s_len, channels)))
    fwd, bwd = lstm_params(hidden, channels, rng), lstm_params(hidden, channels, rng)
    for repeat, op in _LSTM_OPS:
        untaped = op(x, fwd, bwd).value.data
        with ad.Tape():
            taped = op(x, fwd, bwd).value.data
        assert untaped.shape == taped.shape and len(taped) == repeat * s_len
        assert untaped.tobytes() == taped.tobytes(), op


@pytest.mark.parametrize("block", [1, 3, L._PROJ_BLOCK])
def test_untaped_lstm_ops_give_the_taped_bytes_across_projection_blocks(block, monkeypatch):
    rng = np.random.default_rng(110 + block)
    fwd, bwd = lstm_params(3, 2, rng), lstm_params(3, 2, rng)
    monkeypatch.setattr(L, "_PROJ_BLOCK", block)
    for s_len in (block - 1, block, block + 1, 2 * block + 1):
        if s_len == 0:
            continue
        x = Variable(rng.normal(size=(s_len, 2)))
        for _, op in _LSTM_OPS:
            untaped = op(x, fwd, bwd).value.data
            with ad.Tape():
                taped = op(x, fwd, bwd).value.data
            with monkeypatch.context() as mp:
                mp.setattr(L, "_PROJ_BLOCK", s_len)
                whole = op(x, fwd, bwd).value.data
            assert untaped.tobytes() == taped.tobytes(), (op, s_len)
            # a block of a few rows may round differently from the whole product
            assert np.max(np.abs(untaped - whole)) <= 1e-14, (op, s_len)


# Whether a block of rows, or of columns, of a GEMM gives the bits of the
# whole product depends on the BLAS build's kernels and on its thread count.
# The tests that pin it run in a worker with BLAS on one thread, and skip on
# another build than the one it was measured on.
@pytest.fixture(scope="module")
def one_thread():
    with pytest.MonkeyPatch.context() as mp, one_thread_pool(1, mp) as pool:
        yield pool


def _projection_blocks_keep_the_bits(hidden, channels, s_len):
    """Per LSTM op, whether the default projection blocks give the bytes of one whole block."""
    rng = np.random.default_rng(s_len + hidden)
    x = Variable(rng.normal(size=(s_len, channels)))
    fwd, bwd = lstm_params(hidden, channels, rng), lstm_params(hidden, channels, rng)
    same = []
    for _, op in _LSTM_OPS:
        blocked = op(x, fwd, bwd).value.data
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(L, "_PROJ_BLOCK", s_len)
            whole = op(x, fwd, bwd).value.data
        same.append(blocked.tobytes() == whole.tobytes())
    return same


@pytest.mark.parametrize("hidden, channels", [(4, 96), (64, 128)])
@pytest.mark.parametrize("s_len", [300, 1001])
def test_the_default_projection_blocks_give_the_bytes_of_one_whole_block(hidden, channels, s_len,
                                                                         one_thread):
    skip_unless_golden_build(blas_build())
    assert len(L._row_blocks(s_len)) > 1
    same = one_thread.submit(_projection_blocks_keep_the_bits, hidden, channels, s_len).result()
    assert same == [True] * len(_LSTM_OPS), same


def test_projection_blocks_are_balanced_and_cover_the_rows():
    for s_len in [1, 255, 256, 257, 300, 511, 512, 513, 1001, 2020]:
        blocks = L._row_blocks(s_len)
        assert blocks[0][0] == 0 and blocks[-1][1] == s_len
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        lengths = [stop - start for start, stop in blocks]
        assert max(lengths) <= L._PROJ_BLOCK and max(lengths) - min(lengths) <= 1
        assert len(blocks) == 1 or min(lengths) >= 128, s_len


# (n, rows per block, step, left zero rows, frames, columns): the input
# blocks of the forward and backward, then the output-gradient blocks of
# the backward, at the model's frequency-domain shapes for width 30
_SPECTRA_SHAPES = [
    (64, 64, 35, 15, 2000, 64),
    (32, 32, 17, 8, 1250, 96),
    (64, 64, 35, 0, 2000 + 64, 96),
    (64, 35, 35, 0, 2000, 64),
    (32, 17, 17, 0, 1250, 192),
]


def _grouped_spectra_keep_the_bits(n, size, step, left, s_len, cols):
    """Per group size, whether :func:`L._block_spectra` gives the bytes of the whole product."""
    rng = np.random.default_rng(s_len + cols)
    a = rng.normal(size=(s_len, cols))
    blocks = -(-(s_len + left) // step)
    dft = L._dft(n)
    dft_rows = dft.fwd if size == n else dft.conj[:, :size]
    padded = np.zeros((blocks * step + size, cols))
    padded[left:left + s_len] = a
    whole = np.concatenate([padded[b * step:b * step + size] for b in range(blocks)], axis=1)
    want = (dft_rows @ whole).reshape(n // 2 + 1, 2, blocks, cols)
    same = {}
    for group_bytes in (1, 3 * 8 * size * cols, L._DFT_GROUP_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(L, "_DFT_GROUP_BYTES", group_bytes)
            got = L._block_spectra(dft_rows, a, left, blocks, step, size)
        same[group_bytes] = got.tobytes() == want.tobytes()
    return same


@pytest.mark.parametrize("n, size, step, left, s_len, cols", _SPECTRA_SHAPES)
def test_block_spectra_a_group_at_a_time_give_the_bytes_of_whole_ones(n, size, step, left, s_len,
                                                                       cols, one_thread):
    skip_unless_golden_build(blas_build())
    same = one_thread.submit(_grouped_spectra_keep_the_bits, n, size, step, left, s_len, cols).result()
    assert all(same.values()), same


def test_conv_untaped_frequency_domain_memory_holds_no_padded_input():
    s_len, channels, width = 2000, 64, 30
    assert L._dft_length(s_len, width, channels, channels)
    rng = np.random.default_rng(111)
    x = Variable(rng.normal(size=(s_len, channels)))
    p = conv_params(channels, channels, width, rng=rng)
    with TracedMemory() as mem:
        out = L.conv1d_same(x, p)
    peak = mem.peak
    assert out.value.shape == (s_len, channels)
    # 6.56 MB with a padded copy of the input held to the end and a copy of
    # all its blocks; 5.50 MB with the blocks' spectra formed from the input
    # itself, a group of blocks at a time
    assert peak < 6e6, peak / 1e6


def test_conv_taped_frequency_domain_keeps_no_padded_input():
    s_len, channels, width = 2000, 64, 30
    assert L._dft_length(s_len, width, channels, channels)
    rng = np.random.default_rng(112)
    x = Variable(rng.normal(size=(s_len, channels)))
    p = conv_params(channels, channels, width, rng=rng)
    L.conv1d_same(x, p)
    with TracedMemory() as mem:
        with ad.Tape():
            out = L.conv1d_same(x, p)
            held = mem.held()
    assert out.value.shape == (s_len, channels)
    # 2.10 MB with the rule keeping a padded copy of the input beside the
    # 1.02 MB output; 1.04 MB with the rule keeping the input itself
    assert held < 1.5e6, held / 1e6


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
    # and draws nothing from the rng
    x = Variable(RNG.normal(size=(4, 3)))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for fn in (L.dropout, L.spatial_dropout):
        assert fn(x, 0.0, rng) is x
    assert rng.bit_generator.state == state


def test_dropout_rate_one_rejected():
    x = Variable(np.ones((2, 2)))
    with pytest.raises(ContractError):
        L.dropout(x, 1.0, np.random.default_rng(0))


def test_spatial_dropout_zeroes_whole_channels():
    x = Variable(np.ones((6, 8)))
    out = L.spatial_dropout(x, 0.5, np.random.default_rng(3)).value.data
    for ch in range(8):
        col = out[:, ch]
        assert np.all(col == col[0])


def test_spatial_dropout_rejects_an_input_that_is_not_frames_by_channels():
    for shape in [(2,), (2, 3, 4)]:
        for rate in (0.5, 0.0):
            with pytest.raises(ShapeError):
                L.spatial_dropout(Variable(np.ones(shape)), rate, np.random.default_rng(0))


def test_dropout_gives_the_bits_of_the_float_mask_nan_and_inf_included():
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, -1.5, 2.0, 1e308])
    xd, g = np.resize(special, (16, 8)), np.resize(special[::-1], (16, 8))
    scale = 1.0 / (1.0 - 0.3)
    for fn, mask_shape in ((L.dropout, (16, 8)), (L.spatial_dropout, (1, 8))):
        x = Variable(xd, trainable=True)
        with np.errstate(all="ignore"):
            with ad.Tape() as tape:
                out = fn(x, 0.3, np.random.default_rng(5))
                loss = dot(out, g)
            tape.backward(loss)
            keep = np.random.default_rng(5).random(mask_shape) >= 0.3
            assert out.value.data.tobytes() == (xd * (keep * scale)).tobytes()
            assert x._grad.tobytes() == (g * (keep * scale)).tobytes()


def test_dropout_monte_carlo_unbiased():
    x = np.ones((4, 3))
    for fn in (L.dropout, L.spatial_dropout):
        rng = np.random.default_rng(1)
        acc = np.zeros_like(x)
        for _ in range(10000):
            acc += fn(Variable(x), 0.5, rng).value.data
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
        return dot(out := L.conv1d_same(v, conv_params(2, 3, 4, rng=np.random.default_rng(41))), out)
    assert _fd(wrt_x, x0) <= 1e-6

    xvar = Variable(x0)
    def wrt_k(v):
        p = L.Conv1DParams(v, Variable(b0))
        out = L.conv1d_same(xvar, p)
        return dot(out, out)
    assert _fd(wrt_k, k0) <= 1e-6

    def wrt_b(v):
        p = L.Conv1DParams(Variable(k0), v)
        out = L.conv1d_same(xvar, p)
        return dot(out, out)
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
        return dot(out, out)
    assert _fd(lambda v: loss(v, Variable(k0), Variable(b0)), x0) <= 1e-6
    assert _fd(lambda v: loss(xvar, v, Variable(b0)), k0) <= 1e-6
    assert _fd(lambda v: loss(xvar, Variable(k0), v), b0) <= 1e-6


@pytest.mark.parametrize("s_len, width", [(5, 1), (4, 2), (6, 3), (7, 30)])
def test_upsample_conv_gradients_match_finite_differences(s_len, width):
    rng = np.random.default_rng(80 + width)
    x0 = rng.normal(size=(s_len, 3))
    k0 = rng.normal(size=(2, 3, width)) * 0.5
    b0 = rng.normal(size=2) * 0.2
    xvar = Variable(x0)

    def loss(x, k, b):
        out = L.upsample_conv1d_same(x, L.Conv1DParams(k, b))
        return dot(out, out)
    assert _fd(lambda v: loss(v, Variable(k0), Variable(b0)), x0) <= 1e-6
    assert _fd(lambda v: loss(xvar, v, Variable(b0)), k0) <= 1e-6
    assert _fd(lambda v: loss(xvar, Variable(k0), v), b0) <= 1e-6


def test_norm_relu_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    x0 = rng.normal(size=(6, 4))
    weight = Variable(rng.normal(size=(6, 4)))

    def f(v):
        return dot(L.norm_relu(v), weight)
    assert _fd(f, x0) <= 1e-4


def test_pool_and_upsample_gradients_match_finite_differences():
    rng = np.random.default_rng(43)
    x0 = rng.normal(size=(8, 3))
    w = Variable(rng.normal(size=(4, 3)))
    w2 = Variable(rng.normal(size=(16, 3)))

    assert _fd(lambda v: dot(L.max_pool_time(v), w), x0) <= 1e-5
    assert _fd(lambda v: dot(L.upsample_conv1d_same(v, identity_conv(3)), w2), x0) <= 1e-6


def test_bilstm_gradient_matches_finite_differences():
    # dx and every block of both directions, for the op and its upsampling form
    rng = np.random.default_rng(46)
    x0 = rng.normal(size=(5, 2))
    units = {"fwd": lstm_params(2, 2, np.random.default_rng(47)),
             "bwd": lstm_params(2, 2, np.random.default_rng(48))}
    xvar = Variable(x0)
    for op in (L.bilstm, L.upsample_bilstm):
        def loss(v, fwd, bwd, op=op):
            out = op(v, fwd, bwd)
            return dot(out, out)
        assert _fd(lambda v: loss(v, units["fwd"], units["bwd"]), x0) <= 1e-5, op
        for direction, p in units.items():
            for name, var in p.blocks():
                def wrt_block(v, direction=direction, p=p, name=name, loss=loss):
                    swapped = {**units, direction: L.LSTMParams(**{**dict(p.blocks()), name: v})}
                    return loss(xvar, swapped["fwd"], swapped["bwd"])
                assert _fd(wrt_block, var.value.data) <= 1e-5, (op, direction, name)


def test_softmax_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(49)
    d0 = rng.normal(size=(5, 3))
    w0 = rng.normal(size=(4, 3))
    b0 = rng.normal(size=4)
    target = Variable(rng.normal(size=(5, 4)))

    dvar = Variable(d0)
    def wrt_d(v):
        p = L.DenseParams(Variable(w0), Variable(b0))
        return dot(L.time_softmax_dense(v, p), target)
    assert _fd(wrt_d, d0) <= 1e-5

    def wrt_w(v):
        p = L.DenseParams(v, Variable(b0))
        return dot(L.time_softmax_dense(dvar, p), target)
    assert _fd(wrt_w, w0) <= 1e-5

    def wrt_b(v):
        p = L.DenseParams(Variable(w0), v)
        return dot(L.time_softmax_dense(dvar, p), target)
    assert _fd(wrt_b, b0) <= 1e-5


def test_dropout_gradient_matches_finite_differences_with_frozen_mask():
    rng = np.random.default_rng(50)
    x0 = rng.normal(size=(6, 4))
    w = Variable(rng.normal(size=(6, 4)))
    for fn in (L.dropout, L.spatial_dropout):
        def f(v, fn=fn):
            out = fn(v, 0.4, np.random.default_rng(7))
            return dot(out, w)
        assert _fd(f, x0) <= 1e-6
