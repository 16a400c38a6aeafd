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
    on the right. It is computed as one GEMM per kernel tap (kn2row):
    out = bias + sum over tau of padded_x[tau:tau+T] @ kernels[:, :, tau].T,
    on shifted views of the padded input, so no (T, in_channels*width) patch
    matrix is built. The backward pass runs the same per-tap GEMMs: each
    tap's kernel gradient is g.T @ padded_x[tau:tau+T], and the input
    gradient adds g @ kernels[:, :, tau] into rows tau:tau+T of the padded
    input's gradient.
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
    kd = p.kernels.value.data

    padded = np.zeros((t_len + width - 1, cin), dtype=np.float64)
    padded[left:left + t_len] = xd
    out_arr = padded[:t_len] @ kd[:, :, 0].T
    tap = np.empty_like(out_arr)
    for tau in range(1, width):
        out_arr += np.matmul(padded[tau:tau + t_len], kd[:, :, tau].T, out=tap)
    out_arr += p.bias.value.data
    out = Variable(Tensor._wrap(out_arr))

    if taping():
        kernels, bias = p.kernels, p.bias
        def bw(g):
            dk = np.empty((width, filters, cin), dtype=np.float64)
            dpadded = np.zeros_like(padded)
            tap = np.empty((t_len, cin), dtype=np.float64)
            for tau in range(width):
                rows = slice(tau, tau + t_len)
                np.matmul(g.T, padded[rows], out=dk[tau])
                dpadded[rows] += np.matmul(g, kd[:, :, tau], out=tap)
            ad._accum(kernels, dk.transpose(1, 2, 0))
            ad._accum(bias, g.sum(axis=0))
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


# Gate order of the LSTM backward pass, as indices into the forward order
# (i, f, o, g). The permutation is its own inverse, so it also maps a forward
# gate to its row block in the backward order.
_BWD_GATES = [0, 1, 3, 2]


def _state_vec(v, hidden: int, what: str) -> np.ndarray:
    if v is None:
        return np.zeros(hidden, dtype=np.float64)
    arr = v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)
    if arr.shape != (hidden,):
        raise ShapeError(f"{what} shape {arr.shape} does not match hidden size {hidden}")
    return arr.astype(np.float64)


def lstm_forward(x, p: LSTMParams, h0=None, c0=None) -> Variable:
    """Run one recurrent unit over the sequence; returns the hidden states (T, H).

    Per step: i, f, o are sigmoid gates, the candidate g is a tanh, the cell
    is c_t = f_t*c_{t-1} + i_t*g_t and the output is h_t = o_t*tanh(c_t). The
    initial states default to zeros and receive no gradient. The input GEMM
    is done once for all steps; the hidden and cell histories are kept in
    (T+1, H) buffers whose row 0 holds h0 and c0.

    The backward pass first computes every gate-derivative factor for all T
    at once: g*i(1-i), c_{t-1}*f(1-f) and i(1-g^2) scale the cell gradient,
    tanh(c)*o(1-o) scales the hidden gradient, and o(1-tanh^2 c) carries the
    hidden gradient into the cell. Each step of the loop then only adds,
    scales and makes one (1, 4H) @ (4H, H) product, writing into buffers
    that exist already.
    """
    x = as_variable(x)
    xd = x.value.data
    if xd.ndim != 2 or xd.shape[1] != p.input_dim:
        raise ShapeError(f"lstm input shape {x.value.shape} does not match expected (*, {p.input_dim})")
    t_len = xd.shape[0]
    hidden = p.hidden
    wx, wh, b = _stack_params(p)

    pre = xd @ wx.T + b  # (T, 4H), recurrent term added per step
    wh_t = np.ascontiguousarray(wh.T)
    gates = np.empty((t_len, 4 * hidden), dtype=np.float64)
    i_s, f_s, o_s, g_s = gates.reshape(t_len, 4, hidden).transpose(1, 0, 2)
    sig = gates[:, :3 * hidden]
    hs = np.empty((t_len + 1, hidden), dtype=np.float64)  # hs[t + 1] = h_t
    cs = np.empty((t_len + 1, hidden), dtype=np.float64)  # cs[t + 1] = c_t
    hs[0] = _state_vec(h0, hidden, "h0")
    cs[0] = _state_vec(c0, hidden, "c0")
    tanh_c = np.empty((t_len, hidden), dtype=np.float64)
    ig = np.empty(hidden, dtype=np.float64)

    for t in range(t_len):
        a = gates[t]
        np.matmul(hs[t], wh_t, out=a)
        a += pre[t]
        expit(sig[t], out=sig[t])
        np.tanh(g_s[t], out=g_s[t])
        c = np.multiply(f_s[t], cs[t], out=cs[t + 1])
        c += np.multiply(i_s[t], g_s[t], out=ig)
        np.multiply(o_s[t], np.tanh(c, out=tanh_c[t]), out=hs[t + 1])

    out = Variable(Tensor._wrap(hs[1:]))

    if taping():
        # bind the block variables now: the params object may be re-pointed
        # at other variables by the time backward runs
        block_vars = [var for _, var in p.blocks()]
        def bw(g):
            # the backward pass orders the gates i, f, g, o, so that the three
            # gates scaled by the cell gradient are one block
            fac = np.empty((t_len, 4, hidden), dtype=np.float64)
            fac[:, 0] = g_s * i_s * (1.0 - i_s)
            fac[:, 1] = cs[:-1] * f_s * (1.0 - f_s)
            fac[:, 2] = i_s * (1.0 - g_s * g_s)
            fac[:, 3] = tanh_c * o_s * (1.0 - o_s)
            h_to_c = o_s * (1.0 - tanh_c * tanh_c)
            fac_c, fac_h = fac[:, :3], fac[:, 3]
            da = np.empty((t_len, 4 * hidden), dtype=np.float64)
            da_c, da_h = da.reshape(t_len, 4, hidden)[:, :3], da[:, 3 * hidden:]
            wh_b, wx_b = (w.reshape(4, hidden, -1)[_BWD_GATES].reshape(4 * hidden, -1) for w in (wh, wx))
            dh = np.zeros(hidden, dtype=np.float64)
            dc = np.zeros(hidden, dtype=np.float64)
            tmp = np.empty(hidden, dtype=np.float64)
            for t in range(t_len - 1, -1, -1):
                dh += g[t]
                dc += np.multiply(dh, h_to_c[t], out=tmp)
                np.multiply(fac_c[t], dc, out=da_c[t])
                np.multiply(fac_h[t], dh, out=da_h[t])
                np.matmul(da[t], wh_b, out=dh)
                dc *= f_s[t]
            dwx = da.T @ xd
            dwh = da.T @ hs[:-1]
            db = da.sum(axis=0)
            for k, pos in enumerate(_BWD_GATES):
                rows = slice(pos * hidden, (pos + 1) * hidden)
                ad._accum(block_vars[k], dwx[rows])        # W_x*
                ad._accum(block_vars[4 + k], dwh[rows])    # W_h*
                ad._accum(block_vars[8 + k], db[rows])     # b_*
            ad._accum(x, da @ wx_b)
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
