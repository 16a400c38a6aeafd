"""Building blocks of the segmentation network, each with forward and backward rules.

All operations act on (frames x channels) matrices with time as the leading
axis, take :class:`~actionseg.autodiff.Variable` inputs (plain tensors are
wrapped as constants), and register a hand-derived backward rule on the
active tape. Every rule here is validated against central finite differences
in the test suite; that check is the master numerical invariant of the
project.

Non-differentiable points are handled deterministically: the rectifier uses
subgradient 0 at exactly 0, and max pooling (and the rectifier's layer-wide
maximum) route their gradient to the earliest maximal index.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .autodiff import Variable, as_variable, record, taping
from .errors import ContractError, ShapeError
from .tensor import Tensor

__all__ = [
    "Conv1DParams",
    "LSTMParams",
    "DenseParams",
    "conv1d_same",
    "norm_relu",
    "max_pool_time",
    "upsample_repeat",
    "lstm_forward",
    "bilstm",
    "softmax_time",
    "time_softmax_dense",
    "dropout",
    "spatial_dropout",
]

NORM_RELU_EPS = 1e-5


@dataclass
class Conv1DParams:
    """A bank of 1D filters: kernels (filters, in_channels, width), bias (filters,)."""

    kernels: Variable
    bias: Variable

    def __post_init__(self):
        kshape = self.kernels.value.shape
        bshape = self.bias.value.shape
        if len(kshape) != 3:
            raise ShapeError(f"conv kernels must be rank 3, got shape {kshape}")
        if bshape != (kshape[0],):
            raise ShapeError(f"conv bias shape {bshape} does not match {kshape[0]} filters")

    @property
    def filters(self) -> int:
        return self.kernels.value.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernels.value.shape[1]

    @property
    def width(self) -> int:
        return self.kernels.value.shape[2]


@dataclass
class LSTMParams:
    """Gate weights of one recurrent unit.

    Input weights W_x* are (hidden, in_dim), recurrent weights W_h* are
    (hidden, hidden), biases are (hidden,); the gate order everywhere is
    input, forget, output, candidate.
    """

    W_xi: Variable
    W_xf: Variable
    W_xo: Variable
    W_xc: Variable
    W_hi: Variable
    W_hf: Variable
    W_ho: Variable
    W_hc: Variable
    b_i: Variable
    b_f: Variable
    b_o: Variable
    b_c: Variable

    def __post_init__(self):
        h, d = self.W_xi.value.shape
        for name, want in zip(LSTM_FIELDS, [(h, d)] * 4 + [(h, h)] * 4 + [(h,)] * 4):
            got = getattr(self, name).value.shape
            if got != want:
                raise ShapeError(f"{name} shape {got} != {want}")

    @property
    def hidden(self) -> int:
        return self.W_xi.value.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_xi.value.shape[1]

    def blocks(self) -> list[tuple[str, Variable]]:
        return [(n, getattr(self, n)) for n in LSTM_FIELDS]


# The LSTMParams field names in declaration order: W_x*, W_h*, b_*, each in
# gate order. This is also the order of the initial draws and of the
# checkpoint layout.
LSTM_FIELDS = tuple(f.name for f in fields(LSTMParams))


@dataclass
class DenseParams:
    """Per-frame linear read-out: W (classes, in_dim), b (classes,)."""

    W: Variable
    b: Variable

    def __post_init__(self):
        w = self.W.value.shape
        if len(w) != 2 or self.b.value.shape != (w[0],):
            raise ShapeError(f"dense params mismatch: W {w}, b {self.b.value.shape}")


def conv1d_same(x, p: Conv1DParams) -> Variable:
    """Stride-1 temporal convolution with zero padding that preserves length.

    out[t, j] = bias[j] + sum over (ch, tau) of kernels[j, ch, tau] *
    padded_x[t + tau, ch], with width//2 zeros on the left and the remainder
    on the right.
    """
    x = as_variable(x)
    xd = x.value.data
    if xd.ndim != 2:
        raise ShapeError(f"conv input must be (frames, channels), got shape {x.value.shape}")
    t_len, cin = xd.shape
    if cin != p.in_channels:
        raise ShapeError(f"conv channel mismatch: input has {cin}, kernels expect {p.in_channels}")
    filters, _, width = p.kernels.value.shape
    left = width // 2

    padded = np.zeros((t_len + width - 1, cin), dtype=np.float64)
    padded[left:left + t_len] = xd
    # windows[t, ch, tau] == padded[t + tau, ch]
    windows = np.lib.stride_tricks.sliding_window_view(padded, width, axis=0)
    patches = windows.reshape(t_len, cin * width)
    kflat = p.kernels.value.data.reshape(filters, cin * width)
    out = Variable(Tensor._wrap(patches @ kflat.T + p.bias.value.data))

    if taping():
        kernels, bias = p.kernels, p.bias
        def bw(g):
            ad._accum(kernels, (g.T @ patches).reshape(filters, cin, width))
            ad._accum(bias, g.sum(axis=0))
            dpatches = (g @ kflat).reshape(t_len, cin, width)
            dpadded = np.zeros_like(padded)
            for tau in range(width):
                dpadded[tau:tau + t_len] += dpatches[:, :, tau]
            ad._accum(x, dpadded[left:left + t_len])
        record(out, (x, kernels, bias), bw)
    return out


def norm_relu(x) -> Variable:
    """Rectify, then divide by the layer-wide maximum activation plus 1e-5.

    Outputs lie in [0, 1); an all-negative input maps to zeros. The maximum
    is taken over the whole (frames x channels) output of this one sequence.
    """
    x = as_variable(x)
    xd = x.value.data
    r = np.maximum(xd, 0.0)
    m = float(r.max())
    s = m + NORM_RELU_EPS
    out = Variable(Tensor._wrap(r / s))

    if taping():
        def bw(g):
            dr = g / s
            if m > 0.0:
                # the maximum itself is an input: d(out)/d(max) = -r / s^2,
                # routed to the earliest maximal entry
                amax = np.unravel_index(np.argmax(r), r.shape)
                dr[amax] -= (g * r).sum() / (s * s)
            ad._accum(x, dr * (xd > 0.0))
        record(out, (x,), bw)
    return out


def max_pool_time(x) -> Variable:
    """Halve the time axis by taking the max of each adjacent frame pair."""
    x = as_variable(x)
    xd = x.value.data
    if xd.ndim != 2:
        raise ShapeError(f"max_pool_time input must be (frames, channels), got {x.value.shape}")
    t_len, channels = xd.shape
    if t_len % 2 != 0:
        raise ContractError(f"max_pool_time needs an even frame count, got {t_len}")
    pairs = xd.reshape(t_len // 2, 2, channels)
    winners = pairs.argmax(axis=1)  # argmax takes the earliest on ties
    out_arr = np.take_along_axis(pairs, winners[:, None, :], axis=1)[:, 0, :]
    out = Variable(Tensor._wrap(out_arr))

    if taping():
        def bw(g):
            dpairs = np.zeros_like(pairs)
            np.put_along_axis(dpairs, winners[:, None, :], g[:, None, :], axis=1)
            ad._accum(x, dpairs.reshape(t_len, channels))
        record(out, (x,), bw)
    return out


def upsample_repeat(x) -> Variable:
    """Double the time axis by repeating each frame twice."""
    x = as_variable(x)
    xd = x.value.data
    if xd.ndim != 2 or xd.shape[0] < 1:
        raise ContractError(f"upsample_repeat needs a non-empty (frames, channels) input, got {x.value.shape}")
    t_len, channels = xd.shape
    out = Variable(Tensor._wrap(np.repeat(xd, 2, axis=0)))

    if taping():
        def bw(g):
            ad._accum(x, g.reshape(t_len, 2, channels).sum(axis=1))
        record(out, (x,), bw)
    return out


def _stack_params(p: LSTMParams):
    arrs = [getattr(p, n).value.data for n in LSTM_FIELDS]
    return np.concatenate(arrs[:4]), np.concatenate(arrs[4:8]), np.concatenate(arrs[8:])


def _state_vec(v, hidden: int, what: str) -> np.ndarray:
    if v is None:
        return np.zeros(hidden, dtype=np.float64)
    arr = v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)
    if arr.shape != (hidden,):
        raise ShapeError(f"{what} shape {arr.shape} does not match hidden size {hidden}")
    return arr.astype(np.float64)


def lstm_forward(x, p: LSTMParams, h0=None, c0=None) -> Variable:
    """Run one recurrent unit over the sequence; returns the hidden states (T, H).

    Per step: i, f, o are sigmoid gates, the candidate is a tanh, the cell is
    c_t = f_t*c_{t-1} + i_t*g_t and the output is h_t = o_t*tanh(c_t). The
    initial states default to zeros and receive no gradient.
    """
    x = as_variable(x)
    xd = x.value.data
    if xd.ndim != 2 or xd.shape[1] != p.input_dim:
        raise ShapeError(f"lstm input shape {x.value.shape} does not match expected (*, {p.input_dim})")
    t_len = xd.shape[0]
    hidden = p.hidden
    wx, wh, b = _stack_params(p)
    h_prev = _state_vec(h0, hidden, "h0")
    c_prev = _state_vec(c0, hidden, "c0")

    pre = xd @ wx.T + b  # (T, 4H), recurrent term added per step
    wh_t = np.ascontiguousarray(wh.T)
    gates = np.empty((t_len, 4 * hidden), dtype=np.float64)
    cells = np.empty((t_len, hidden), dtype=np.float64)
    tanh_c = np.empty((t_len, hidden), dtype=np.float64)
    hs = np.empty((t_len, hidden), dtype=np.float64)
    h_lag = np.empty((t_len, hidden), dtype=np.float64)  # h_{t-1} per step

    h = h_prev
    c = c_prev.copy()
    for t in range(t_len):
        h_lag[t] = h
        a = gates[t]
        np.matmul(h, wh_t, out=a)
        a += pre[t]
        expit(a[:3 * hidden], out=a[:3 * hidden])
        np.tanh(a[3 * hidden:], out=a[3 * hidden:])
        c *= a[hidden:2 * hidden]
        c += a[:hidden] * a[3 * hidden:]
        cells[t] = c
        tc = np.tanh(c, out=tanh_c[t])
        h = np.multiply(a[2 * hidden:3 * hidden], tc, out=hs[t])

    out = Variable(Tensor._wrap(hs))

    if taping():
        # bind the block variables now: the params object may be re-pointed
        # at other variables by the time backward runs
        block_vars = [var for _, var in p.blocks()]
        c0_arr = c_prev
        def bw(g):
            i_s = gates[:, :hidden]
            f_s = gates[:, hidden:2 * hidden]
            o_s = gates[:, 2 * hidden:3 * hidden]
            g_s = gates[:, 3 * hidden:]
            da = np.empty((t_len, 4 * hidden), dtype=np.float64)
            dh_next = np.zeros(hidden, dtype=np.float64)
            dc = np.zeros(hidden, dtype=np.float64)
            for t in range(t_len - 1, -1, -1):
                dh = g[t] + dh_next
                dc = dc + dh * o_s[t] * (1.0 - tanh_c[t] ** 2)
                cp = cells[t - 1] if t > 0 else c0_arr
                da[t, :hidden] = dc * g_s[t] * i_s[t] * (1.0 - i_s[t])
                da[t, hidden:2 * hidden] = dc * cp * f_s[t] * (1.0 - f_s[t])
                da[t, 2 * hidden:3 * hidden] = dh * tanh_c[t] * o_s[t] * (1.0 - o_s[t])
                da[t, 3 * hidden:] = dc * i_s[t] * (1.0 - g_s[t] ** 2)
                dh_next = da[t] @ wh
                dc = dc * f_s[t]
            dwx = da.T @ xd
            dwh = da.T @ h_lag
            db = da.sum(axis=0)
            for k in range(4):
                rows = slice(k * hidden, (k + 1) * hidden)
                ad._accum(block_vars[k], dwx[rows])        # W_x*
                ad._accum(block_vars[4 + k], dwh[rows])    # W_h*
                ad._accum(block_vars[8 + k], db[rows])     # b_*
            ad._accum(x, da @ wx)
        record(out, (x,) + tuple(block_vars), bw)
    return out


def bilstm(x, fwd: LSTMParams, bwd: LSTMParams) -> Variable:
    """Two recurrent passes, one per time direction, concatenated to (T, 2H).

    The backward-direction unit consumes the reversed sequence and its
    outputs are re-reversed to forward time order before concatenation.
    """
    if fwd.hidden != bwd.hidden:
        raise ShapeError(f"direction hidden sizes differ: {fwd.hidden} vs {bwd.hidden}")
    x = as_variable(x)
    h_f = lstm_forward(x, fwd)
    h_b = ad.reverse_time(lstm_forward(ad.reverse_time(x), bwd))
    return ad.concat(h_f, h_b, axis=1)


def softmax_time(z) -> Variable:
    """Row-wise softmax with max subtraction; each row sums to 1."""
    z = as_variable(z)
    zd = z.value.data
    if zd.ndim != 2:
        raise ShapeError(f"softmax_time input must be (frames, classes), got {z.value.shape}")
    shifted = zd - zd.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Variable(Tensor._wrap(y))

    if taping():
        def bw(g):
            ad._accum(z, (g - (g * y).sum(axis=1, keepdims=True)) * y)
        record(out, (z,), bw)
    return out


def time_softmax_dense(d, p: DenseParams) -> Variable:
    """Per-frame class probabilities: softmax(W @ d_t + b) at every time step."""
    d = as_variable(d)
    dd = d.value.data
    classes, in_dim = p.W.value.shape
    if dd.ndim != 2 or dd.shape[1] != in_dim:
        raise ShapeError(f"dense input shape {d.value.shape} does not match expected (*, {in_dim})")
    w = p.W.value.data
    logits = Variable(Tensor._wrap(dd @ w.T + p.b.value.data))

    if taping():
        weight, bias = p.W, p.b
        def bw(g):
            ad._accum(d, g @ w)
            ad._accum(weight, g.T @ dd)
            ad._accum(bias, g.sum(axis=0))
        record(logits, (d, weight, bias), bw)
    return softmax_time(logits)


def _dropout_impl(x, rate: float, rng, training: bool, mask_shape) -> Variable:
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    x = as_variable(x)
    if not training or rate == 0.0:
        return x
    xd = x.value.data
    scale = 1.0 / (1.0 - rate)
    mask = (rng.random(mask_shape(xd.shape)) >= rate) * scale
    out = Variable(Tensor._wrap(xd * mask))

    if taping():
        def bw(g):
            ad._accum(x, g * mask)
        record(out, (x,), bw)
    return out


def dropout(x, rate: float, rng, training: bool) -> Variable:
    """Zero independent elements with probability ``rate``; survivors are rescaled.

    Inference mode is the identity, so the expected training output equals
    the input.
    """
    return _dropout_impl(x, rate, rng, training, lambda s: s)


def spatial_dropout(x, rate: float, rng, training: bool) -> Variable:
    """Dropout that zeroes whole channels: one mask column shared by all frames."""
    return _dropout_impl(x, rate, rng, training, lambda s: (1, s[1]))
