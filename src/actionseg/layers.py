"""Building blocks of the segmentation network, each with forward and backward rules.

The module holds the operations that the network's stages run
(:mod:`actionseg.model`), and no other. A decoder layer upsamples by
repeating each input row twice; that repeat runs inside the layer's
convolution or Bi-LSTM, :func:`upsample_conv1d_same` or
:func:`upsample_bilstm`, which never build the repeated input.

All operations act on (frames x channels) matrices with time as the leading
axis, take :class:`~actionseg.autodiff.Variable` inputs (plain tensors are
wrapped as constants), and register a hand-derived backward rule on the
active tape. A rule captures its parents' nodes and the arrays it reads,
never a variable, so an output that no rule reads is freed as soon as its
caller drops it. Every rule here is validated against central finite
differences in the test suite; that check is the master numerical invariant
of the project.

Each loop is written once: both convolutions run on :func:`_convolution`
and both Bi-LSTMs on :func:`_recurrence`. The convolution core has two
algorithms, one GEMM per input offset for short inputs and short kernels,
and overlap-save correlation in the frequency domain for long ones;
:func:`_dft_length` picks one per call from the shapes, by a count of
multiply-adds calibrated once and recorded in its docstring. The
upsampled convolution's merged kernels are memoized on the kernel tensor
by :func:`_memo`. The LSTM gates have one order, that of the
:class:`LSTMParams` fields, in the stacked weights, the forward pass and
the backward pass alike. The stacked weights are views, not copies: a
model's gate tensors are the rows of one array per group of four
(``LSTM_GROUPS``), and :meth:`LSTMParams.stacked` reads those arrays.

Scratch that would grow with the input is formed a block at a time, in
blocks long enough to keep the bits of the whole: the Bi-LSTM's input
projection a block of at most 256 input rows at a time
(:func:`_row_blocks`), and the frequency-domain convolution's copies of
its input blocks a group of blocks at a time (:func:`_block_spectra`).
Untaped, the Bi-LSTM then holds one block of projections; the
frequency-domain convolution builds no padded input, taped or not.

Non-differentiable points are handled deterministically: the rectifier uses
subgradient 0 at exactly 0, and max pooling (and the rectifier's layer-wide
maximum) route their gradient to the earliest maximal index.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .autodiff import Variable, as_variable, node_of, record, taping
from .errors import ContractError, ShapeError
from .tensor import Tensor

__all__ = [
    "Conv1DParams",
    "LSTMParams",
    "DenseParams",
    "conv1d_same",
    "upsample_conv1d_same",
    "norm_relu",
    "max_pool_time",
    "bilstm",
    "upsample_bilstm",
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

    def merged_kernels(self) -> np.ndarray:
        """Read-only (offsets, 2*filters, in_channels): the taps summed per input offset.

        Row block r of entry d sums the taps through which output phase r of
        an upsampled convolution reads input offset d (:func:`_phase_taps`).
        Memoized on the kernel tensor (:func:`_memo`).
        """
        return _memo(self, "_merged", (self.kernels.value,), _merge_taps)


def _merge_taps(kt: Tensor) -> np.ndarray:
    filters, cin, width = kt.shape
    taps, _ = _phase_taps(width)
    return (taps @ kt.data.reshape(filters * cin, width).T).reshape(-1, 2 * filters, cin)


def _memo(owner, slot: str, key: tuple, build):
    """``build(*key)``, kept on ``owner`` as ``slot`` while the key's tensors stay.

    It keeps the merged kernels of :meth:`Conv1DParams.merged_kernels`; the
    stacked LSTM weights are views of the gate tensors' own arrays
    (:meth:`LSTMParams.stacked`). Keys are tuples of tensors, matched by
    identity; tensors are immutable, so an entry is current exactly while
    the parameters hold its tensors. ``adam_step`` installs new ones, so
    training rebuilds once per step. The entry lives in the owner's
    ``__dict__`` and nowhere else, so a copy of a block
    (``dataclasses.replace``, as the gradient report makes once per checked
    block) starts with no entry and builds from its own tensors. Assigning
    a new variable to the bias of a block keeps its entry: the gradient
    report's bias probes reuse their copy's merged kernels. The key is
    held, so no id in it can be reused; key and value are stored in one
    assignment, so a concurrent caller sees the old pair or the new one; and
    the value's array is read-only.
    """
    cached = owner.__dict__.get(slot)
    if cached is not None and all(map(operator.is_, cached[0], key)):
        return cached[1]
    value = build(*key)
    value.setflags(write=False)
    setattr(owner, slot, (key, value))
    return value


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
        if self.W_xi.value.ndim != 2:
            raise ShapeError(f"W_xi shape {self.W_xi.value.shape} is not (hidden, in_dim)")
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

    def stacked(self) -> "StackedGates":
        """The gate weights stacked gate by gate, read-only (see :class:`StackedGates`).

        Each group of four fields, the W_x*, the W_h* and the b_*, is read
        as one (4, ...) array: the array whose rows its tensors are, in
        field order, as ``build``, ``load_checkpoint`` and ``adam_step``
        leave them, so the stacked weights are views and no copy is held;
        or else the four stacked afresh (:func:`_gate_rows`). The result is
        kept on the block while its 12 tensors stay, matched by identity
        as in :func:`_memo`. On a miss, a group whose four tensors did not
        change keeps its array from the stale entry: a gradient-check probe
        of one field rebuilds only that field's group.
        """
        key = _LSTM_TENSORS(self)
        old_key, old_rows, value = self.__dict__.get("_stacked", ((None,) * 12, (None,) * 3, None))
        if all(map(operator.is_, old_key, key)):
            return value
        wx, wh, b = (rows if all(map(operator.is_, old_key[i:i + 4], key[i:i + 4]))
                     else _gate_rows(key[i:i + 4]) for i, rows in zip((0, 4, 8), old_rows))
        hidden = wh.shape[1]
        value = StackedGates(wx.reshape(4 * hidden, -1), b, wh.reshape(4 * hidden, hidden).T)
        # one assignment: a concurrent caller sees the old entry or the new one
        self._stacked = key, (wx, wh, b), value
        return value


class StackedGates(NamedTuple):
    """One unit's gate weights as the recurrence reads them, read-only.

    Row block k of ``wx`` (4H, in_dim) and row k of ``b`` (4, H) hold gate
    k in the field order; they give the input projection x @ wx.T + b.
    ``wh_t`` (H, 4H) is the recurrent matrix, the transpose of the (4H, H)
    W_h rows. All three are views of the arrays that
    :meth:`LSTMParams.stacked` reads, so a model keeps each weight once.
    The recurrence copies every direction's ``wh_t`` into one C-ordered
    array per call, forward and backward (:func:`_recurrent_weights`).
    """

    wx: np.ndarray
    b: np.ndarray
    wh_t: np.ndarray


def _rows_of(arrays: list[np.ndarray]) -> np.ndarray | None:
    """The read-only array whose rows, in order, are ``arrays``, or None if there is none.

    ``arrays`` are C-contiguous, as a tensor's are. The bases are compared
    first, so arrays that are not rows of one array cost no address reads.
    """
    base = arrays[0].base
    if (type(base) is not np.ndarray or base.flags.writeable or not base.flags.c_contiguous
            or base.dtype != arrays[0].dtype or base.shape != (len(arrays), *arrays[0].shape)
            or any(a.base is not base for a in arrays)):
        return None
    start, stride = base.ctypes.data, base.strides[0]
    return base if all(a.ctypes.data == start + k * stride for k, a in enumerate(arrays)) else None


def _gate_rows(gates: tuple[Tensor, ...]) -> np.ndarray:
    """The gates' arrays as the rows of one read-only array: the one they are rows of, or a new stack."""
    arrays = [t.data for t in gates]
    rows = _rows_of(arrays)
    if rows is None:
        # np.stack's Python-level checks cost more than this at the toy sizes
        rows = np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)
        rows.setflags(write=False)
    return rows


# The LSTMParams field names in declaration order: W_x*, W_h*, b_*, each in
# gate order. This is also the order of the initial draws and of the
# checkpoint layout.
LSTM_FIELDS = tuple(f.name for f in fields(LSTMParams))
# the 12 tensors of an LSTMParams in field order, in one C-level call
_LSTM_TENSORS = operator.attrgetter(*(f"{name}.value" for name in LSTM_FIELDS))
# The LSTMParams fields whose tensors are the rows of one array: the W_x*,
# the W_h* and the b_*, each group in gate order (see LSTMParams.stacked).
LSTM_GROUPS = (LSTM_FIELDS[0:4], LSTM_FIELDS[4:8], LSTM_FIELDS[8:12])


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
    on the right: the one-phase case of :func:`_convolution`, whose offsets
    are the taps, with M[tau] = kernels[:, :, tau], a view.
    """
    return _convolution(x, p, upsample=False)


def upsample_conv1d_same(x, p: Conv1DParams) -> Variable:
    """``conv1d_same`` of ``x`` with each input row repeated twice, computed at the input rate.

    The output has 2S frames for the S rows of ``x``; frames 2m and 2m+1 of
    the repeated input are both row m. Output frames 2m and 2m+1 read only
    input frames m+d, so the taps that land on the same input frame are
    summed first, into ``p.merged_kernels()``: the two-phase case of
    :func:`_convolution`.
    Width 30 takes 16 GEMMs on S rows instead of 30 on 2S rows, and the
    repeated input is never built.
    """
    return _convolution(x, p, upsample=True)


def _wants_grad(x: Variable) -> bool:
    # a leaf that is not trainable reports no gradient (see Variable), so an
    # op skips the GEMMs of its input gradient
    return x.trainable or x._backward is not None


@lru_cache(maxsize=None)
def _phase_taps(width: int) -> tuple[np.ndarray, int]:
    """0/1 map (2*offsets, width) from kernel taps to (input offset, output phase), and its padding.

    Upsampling by repetition, then a ``conv1d_same`` of this width, makes
    output frame 2m+r (phase r) read input frame m + d - left through tap
    tau exactly when d = (r + tau - width//2) // 2 + left, where ``left``,
    the second value returned, is the number of zero frames that pad the
    input on the left. Row 2d+r marks the taps of offset d and phase r.
    Every tap feeds each phase once, so the map has two ones per column.
    """
    half = width // 2
    left = (half + 1) // 2
    taps = np.zeros(((width - half) // 2 + left + 1, 2, width), dtype=np.float64)
    for r in (0, 1):
        for tau in range(width):
            taps[(r + tau - half) // 2 + left, r, tau] = 1.0
    taps.flags.writeable = False
    return taps.reshape(-1, width), left


def _convolution(x, p: Conv1DParams, upsample: bool) -> Variable:
    """Both convolutions: out = bias + sum over offsets d of padded_x[d:d+S] @ M[d].T.

    M is (offsets, phases*filters, in_channels), and ``left`` zero rows
    come before the S input rows of ``padded_x``; the (S, phases*filters)
    sum, reshaped, is the (phases*S, filters) output. One phase: M holds
    the taps, M[tau] = kernels[:, :, tau], a view, and ``left`` is width//2.
    ``upsample``, two phases: M is ``p.merged_kernels()`` and ``left``
    comes from :func:`_phase_taps`.

    Two algorithms give the sum and its gradients, M's and the input's (an
    untrainable leaf gets none), and :func:`_dft_length` picks one per call
    from the shapes:

    - direct (:func:`_correlate`, :func:`_correlate_grads`): one GEMM per
      offset on shifted views of the padded input (kn2row), forward and
      backward.
    - frequency domain (:func:`_dft_correlate`, :func:`_dft_grads`):
      overlap-save correlation, one complex product per frequency bin for
      each of the three sums; for long inputs and long kernels it does a
      fraction of the direct path's multiply-adds.

    The frequency-domain path reads its blocks from the input itself
    (:func:`_block_spectra`), forward and backward, so it builds no padded
    input. A tape's rule keeps the input (on the direct path the padded
    input) and M, no other array, and the input's node only when it owes
    the input a gradient; the backward pass recomputes what else it needs.
    M's gradient folds onto the taps by a transposed view, or one GEMM with
    the phase map.
    """
    x = as_variable(x)
    xd = x.value.data
    filters, cin, width = p.kernels.value.shape
    if xd.ndim != 2:
        raise ShapeError(f"conv input must be (frames, channels), got shape {x.value.shape}")
    if xd.shape[1] != cin:
        raise ShapeError(f"conv channel mismatch: input has {xd.shape[1]}, kernels expect {cin}")
    s_len = xd.shape[0]
    if upsample:
        taps, left = _phase_taps(width)
        m = p.merged_kernels()
    else:
        left, m = width // 2, p.kernels.value.data.transpose(2, 0, 1)
    offsets, pf, _ = m.shape
    n = _dft_length(s_len, offsets, cin, pf)

    if not n:
        padded = np.zeros((s_len + offsets - 1, cin), dtype=np.float64)
        padded[left:left + s_len] = xd
    out_arr = _dft_correlate(xd, left, m, n) if n else _correlate(padded, m, s_len)
    out_arr = out_arr.reshape(-1, filters)
    out_arr += p.bias.value.data
    out = Variable(Tensor._wrap(out_arr))

    if taping():
        kernels, bias = node_of(p.kernels), node_of(p.bias)
        src = node_of(x) if _wants_grad(x) else None
        wants_dx = src is not None
        kept = xd if n else padded  # the one input array the rule keeps
        def bw(g):
            g_s = g.reshape(s_len, pf)
            if n:
                dm, dpadded = _dft_grads(g_s, kept, left, m, n, wants_dx)
            else:
                dm, dpadded = _correlate_grads(g_s, kept, m, wants_dx)
            if upsample:
                dk = (dm.reshape(2 * offsets, filters * cin).T @ taps).reshape(filters, cin, width)
            else:
                dk = dm.transpose(1, 2, 0)
            ad._accum(kernels, dk)
            ad._accum(bias, g.sum(axis=0))
            if wants_dx:
                ad._accum(src, dpadded[left:left + s_len])
        record(out, bw)
    return out


def _correlate(padded: np.ndarray, m: np.ndarray, s_len: int) -> np.ndarray:
    """(S, pf) sum over d of padded[d:d+S] @ m[d].T, one GEMM per offset.

    The operands are shifted views, so no patch matrix is built.
    """
    m_t = m.transpose(0, 2, 1)  # m_t[d] is m[d].T, the same view
    out = padded[:s_len] @ m_t[0]
    tap = np.empty_like(out)
    for d in range(1, m.shape[0]):
        out += np.matmul(padded[d:d + s_len], m_t[d], tap)
    return out


def _correlate_grads(g: np.ndarray, padded: np.ndarray, m: np.ndarray, wants_dx: bool):
    """M's gradient, and padded's if ``wants_dx`` (else None), one GEMM per offset each.

    dM[d] = g.T @ padded[d:d+S], and g @ m[d] is added into rows d:d+S of
    padded's gradient, for the output gradient g (S, pf).
    """
    s_len = g.shape[0]
    dm = np.empty(m.shape, dtype=np.float64)
    dpadded = np.zeros_like(padded) if wants_dx else None
    tap = np.empty((s_len, padded.shape[1]), dtype=np.float64)
    for d in range(m.shape[0]):
        rows = slice(d, d + s_len)
        np.matmul(g.T, padded[rows], out=dm[d])
        if wants_dx:
            dpadded[rows] += np.matmul(g, m[d], out=tap)
    return dm, dpadded


@lru_cache(maxsize=4096)
def _dft_length(s_len: int, offsets: int, cin: int, pf: int) -> int:
    """The block length n if the frequency-domain path is the cheaper one here, else 0.

    n = 2^ceil(log2(2*offsets)), so a block of n padded rows gives n -
    offsets + 1 output rows. The rule counts the multiply-adds of the
    forward sum on each path (each backward sum costs about as much again,
    on either path). The direct path does S*offsets*cin*pf. The frequency-
    domain path works on n + 2 real spectrum rows, the real and imaginary
    parts of n/2 + 1 bins: it transforms the n rows of each input block and
    the offsets rows of M, makes four real products per bin, and transforms
    back the n - offsets + 1 output rows of each block. The answer depends
    on the four ints alone, so the last 4096 shapes' answers are cached.

    Calibrated once, on a 2-core x86-64 VM with OpenBLAS on one thread, by
    timing both paths, forward and backward, at layer shapes of the model
    from S = 64 to 1024 (132 shapes). There a multiply-add of the
    frequency-domain path costs about two of the direct path's, which runs
    larger GEMMs and copies less; the frequency-domain path costs about
    1.5e6 multiply-adds more per call, the direct path 1e4 per offset. The
    S from which the frequency domain was measured faster, and the S from
    which the rule takes it:

    =========================================  ========  ======
    layer (offsets, in_channels -> pf)         measured  rule
    =========================================  ========  ======
    encoder, w=30 (30, 64 -> 64)               288       267
    encoder, w=30 (30, 64 -> 96)               288-416   238
    upsampled decoder, w=30 (16, 96 -> 128)    224-352   199
    upsampled decoder, w=30 (16, 128 -> 192)   352       170
    encoder, w=9 (9, 64 -> 96)                 288       646
    encoder, w=9 (9, 16 -> 64)                 512       never
    upsampled decoder, w=9 (5, 64 -> 128)      512       never
    w=3, toy sizes (3, 8 -> 16)                never     never
    w=30, few channels (30, 8 -> 8)            64        never
    =========================================  ========  ======

    Over those 132 shapes the rule's choices took 2.7 % more time than the
    faster path each time would have; always the direct path 26 % more.

    The calibration assumes one BLAS thread. With more, the direct path's
    larger GEMMs gain more from the extra cores, and the rule can pick the
    slower path: on the same VM with two threads, at S=1250, 16 offsets,
    96 -> 128, the direct path took 8.5 + 18.7 ms forward + backward and
    the frequency-domain path, which the rule picks, 10.2 + 20.1 ms.
    """
    n = 1 << (2 * offsets - 1).bit_length()
    step = n - offsets + 1
    blocks = -(-s_len // step)
    direct = s_len * offsets * cin * pf
    dft = (n + 2) * (blocks * (n * cin + step * pf + 2 * cin * pf) + offsets * pf * cin)
    return n if 2 * dft + 1.5e6 < direct + 1e4 * offsets else 0


# bytes of the spectra of one group of frequency bins
_DFT_GROUP_BYTES = 2 << 20


class _DFT(NamedTuple):
    """Real DFT matrices of one block length n, over the bins k = 0..n/2.

    A spectrum is split into real rows: row 2k holds the real part of bin
    k and row 2k+1 its imaginary part, so that its products are real GEMMs.
    ``fwd @ x`` is the spectrum of the n rows of x and ``conj @ x`` its
    conjugate; ``inv @ s`` is the real signal, n rows, of the spectrum s,
    and ``inv_conj @ s`` that of its conjugate. At the block lengths of the
    model's kernels (n = 32 and 64 for width 30) these products took about a third
    to a half of the time of ``np.fft`` on the many short transforms of a
    call.
    """

    fwd: np.ndarray
    conj: np.ndarray
    inv: np.ndarray
    inv_conj: np.ndarray


@lru_cache(maxsize=None)
def _dft(n: int) -> _DFT:
    k = np.arange(n // 2 + 1)
    angle = (2 * np.pi / n) * (np.outer(k, np.arange(n)) % n)  # (bins, n)
    cos, sin = np.cos(angle), np.sin(angle)
    # irfft's weights: bins 0 and n/2 count once, the others twice (for their mirror bins)
    w = np.where((k == 0) | (2 * k == n), 1.0, 2.0)[:, None] / n
    mats = [np.stack(parts, axis=1).reshape(-1, n) for parts in
            ((cos, -sin), (cos, sin), (w * cos, -w * sin), (w * cos, w * sin))]
    mats[2:] = [np.ascontiguousarray(a.T) for a in mats[2:]]
    for a in mats:
        a.flags.writeable = False
    return _DFT(*mats)


def _spectra(dft_rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """``dft_rows @ cols`` as split spectra (bins, 2, columns // width, width)."""
    return (dft_rows @ cols).reshape(len(dft_rows) // 2, 2, -1, width)


def _block_spectra(dft_rows: np.ndarray, a: np.ndarray, left: int, blocks: int, step: int,
                   size: int) -> np.ndarray:
    """Split spectra (bins, 2, blocks, columns): ``dft_rows`` times each block of ``a``.

    Block b is the ``size`` rows from row b*step - left of ``a``, where the
    rows before and after ``a`` are zeros: ``left`` rows of zero padding in
    front, and behind as many as the last block reaches. The blocks are
    copied side by side and transformed a group at a time, a group's copy
    taking about ``_DFT_GROUP_BYTES``, so no copy of all the blocks, and no
    padded copy of ``a``, is made. A group holds whole blocks of ``columns``
    each, and a product on so many columns has the bits of the whole one.
    """
    cols = a.shape[1]
    spectra = np.empty((len(dft_rows), blocks * cols), dtype=np.float64)
    group = max(1, _DFT_GROUP_BYTES // (8 * size * cols))
    for b0 in range(0, blocks, group):
        count = min(group, blocks - b0)
        first = b0 * step - left
        rows = np.zeros(((count - 1) * step + size, cols), dtype=np.float64)
        lo, hi = max(first, 0), min(first + len(rows), len(a))
        rows[lo - first:hi - first] = a[lo:hi]
        block_cols = np.ascontiguousarray(_blocks(rows, 0, count, step, size)).reshape(size, -1)
        np.matmul(dft_rows, block_cols, out=spectra[:, b0 * cols:(b0 + count) * cols])
        del rows, block_cols
    return spectra.reshape(len(dft_rows) // 2, 2, blocks, cols)


def _bin_groups(n: int, blocks: int, cin: int, pf: int) -> list[slice]:
    """The bins a group at a time: a group's per-bin spectra take about ``_DFT_GROUP_BYTES``."""
    bins = n // 2 + 1
    count = max(1, _DFT_GROUP_BYTES // (16 * (blocks * (cin + pf) + pf * cin)))
    return [slice(k, min(bins, k + count)) for k in range(0, bins, count)]


def _bin_products(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per frequency bin, the complex product a @ b of split spectra, into ``out``.

    ``a`` is (bins, 2, rows, inner) and ``b`` (bins, 2, inner, cols), the
    second axis real and imaginary part; so is ``out``. Four real GEMMs
    per bin.
    """
    (ar, ai), (br, bi), (re, im) = (s.transpose(1, 0, 2, 3) for s in (a, b, out))
    tmp = np.empty_like(re)
    np.matmul(ar, br, out=re)
    re -= np.matmul(ai, bi, out=tmp)
    np.matmul(ar, bi, out=im)
    im += np.matmul(ai, br, out=tmp)
    return out


def _blocks(a: np.ndarray, first: int, count: int, step: int, size: int) -> np.ndarray:
    """(size, count, columns) view of ``a``: block b holds rows (first + b)*step onwards.

    Blocks of more than ``step`` rows overlap; the caller keeps every view
    inside ``a``.
    """
    row, col = a.strides
    return np.lib.stride_tricks.as_strided(a[first * step:], (size, count, a.shape[1]),
                                           (row, step * row, col))


def _dft_correlate(xd: np.ndarray, left: int, m: np.ndarray, n: int) -> np.ndarray:
    """:func:`_correlate` by overlap-save correlation in the frequency domain.

    The padded input is ``xd`` after ``left`` zero rows, with zeros behind.
    Block b is its rows b*L to b*L+n, L = n - offsets + 1; its circular
    correlation with M, by the spectra of both, one (blocks, cin) @ (cin,
    pf) product with M's conjugate per frequency bin, holds output rows b*L
    to b*L+L in its first L rows (overlap-save). The blocks' spectra are
    formed from ``xd`` itself, a group of blocks at a time
    (:func:`_block_spectra`), so the padded input is never built.
    """
    s_len = xd.shape[0]
    offsets, pf, cin = m.shape
    step = n - offsets + 1
    blocks = -(-s_len // step)
    dft = _dft(n)
    xs = _block_spectra(dft.fwd, xd, left, blocks, step, n)
    ys = np.empty((n // 2 + 1, 2, blocks, pf), dtype=np.float64)
    m_rows = m.reshape(offsets, -1)
    for k in _bin_groups(n, blocks, cin, pf):
        ms = _spectra(dft.conj[2 * k.start:2 * k.stop, :offsets], m_rows, cin)
        _bin_products(xs[k], ms.transpose(0, 1, 3, 2), ys[k])
    del xs, ms
    out = np.empty((blocks * step, pf), dtype=np.float64)
    _blocks(out, 0, blocks, step, step)[...] = (dft.inv[:step] @ ys.reshape(n + 2, -1)).reshape(step, blocks, pf)
    return out[:s_len]


def _dft_grads(g: np.ndarray, xd: np.ndarray, left: int, m: np.ndarray, n: int, wants_dx: bool):
    """:func:`_correlate_grads` in the frequency domain, on the blocks of :func:`_dft_correlate`.

    The input is ``xd`` after ``left`` zero rows, as in
    :func:`_dft_correlate`. The input gradient returned is that of the
    padded input: blocks*L + offsets - 1 rows, from the first zero row.

    Per frequency bin, M's gradient is the sum over blocks of conj(G_b).T @
    X_b, for the spectra G_b of the output gradient's blocks and X_b of the
    input's. Block b's input gradient is G_b @ M, n rows from row b*L,
    which overlap the next block's and are added (overlap-add). Both come
    from conj(G_b): the second as the conjugate of conj(G_b) @ conj(M).
    Both spectra are formed a group of blocks at a time
    (:func:`_block_spectra`) from ``xd`` and ``g`` themselves, which read
    zeros past their ends, so no padded copy of either is made.
    """
    s_len = g.shape[0]
    offsets, pf, cin = m.shape
    step = n - offsets + 1
    blocks = -(-s_len // step)
    dft = _dft(n)
    gs = _block_spectra(dft.conj[:, :step], g, 0, blocks, step, step)
    xs = _block_spectra(dft.fwd, xd, left, blocks, step, n)
    m_rows = m.reshape(offsets, -1)
    dm = np.zeros((offsets, pf * cin), dtype=np.float64)
    dxs = np.empty((n // 2 + 1, 2, blocks, cin), dtype=np.float64) if wants_dx else None
    for k in _bin_groups(n, blocks, cin, pf):
        dms = _bin_products(gs[k].transpose(0, 1, 3, 2), xs[k],
                            np.empty((k.stop - k.start, 2, pf, cin), dtype=np.float64))
        dms = dms.reshape(2 * len(dms), -1)
        # added into dm a slice of columns at a time, so no product outgrows dms
        cols = max(1, dms.size // offsets)
        for j in range(0, dm.shape[1], cols):
            dm[:, j:j + cols] += dft.inv[:offsets, 2 * k.start:2 * k.stop] @ dms[:, j:j + cols]
        del dms
        if wants_dx:
            ms = _spectra(dft.conj[2 * k.start:2 * k.stop, :offsets], m_rows, cin)
            _bin_products(gs[k], ms, dxs[k])
            del ms
    del gs, xs
    if not wants_dx:
        return dm.reshape(m.shape), None
    dx_blocks = (dft.inv_conj @ dxs.reshape(n + 2, -1)).reshape(n, blocks, cin)
    del dxs
    dpadded = np.zeros((blocks * step + offsets - 1, cin), dtype=np.float64)
    _blocks(dpadded, 0, blocks, step, step)[...] += dx_blocks[:step]
    _blocks(dpadded, 1, blocks, step, offsets - 1)[...] += dx_blocks[step:]
    return dm.reshape(m.shape), dpadded


def norm_relu(x) -> Variable:
    """Rectify, then divide by the layer-wide maximum activation plus 1e-5.

    Outputs lie in [0, 1); an all-negative input maps to zeros. The maximum
    is taken over the whole (frames x channels) output of this one sequence.
    """
    x = as_variable(x)
    xd = x.value.data
    r = np.maximum(xd, 0.0)
    m = float(np.maximum.reduce(r, axis=None))  # r.max(), without its Python-level wrapper
    s = m + NORM_RELU_EPS
    out = Variable(Tensor._wrap(r / s))

    if taping():
        src = node_of(x)
        def bw(g):
            dr = g / s
            if m > 0.0:
                # the maximum itself is an input: d(out)/d(max) = -r / s^2,
                # routed to the earliest maximal entry
                amax = np.unravel_index(np.argmax(r), r.shape)
                dr[amax] -= (g * r).sum() / (s * s)
            # r > 0 exactly where x > 0, NaN and -0.0 included, so the
            # rule keeps r alone and not the input
            ad._accum(src, dr * (r > 0.0))
        record(out, bw)
    return out


def max_pool_time(x) -> Variable:
    """Halve the time axis by taking the max of each adjacent frame pair.

    The earlier frame of a pair wins unless the later one is greater, or
    the later one is NaN and the earlier one is not. So a tie, -0.0 against
    0.0 included, keeps the earlier frame and its sign, and a NaN wins over
    any number, the earlier NaN over a later one: the earliest maximal
    index, as ``argmax`` picks it. The output holds the winner's value, bit
    for bit, and the gradient goes to the winner.
    """
    x = as_variable(x)
    xd = x.value.data
    if xd.ndim != 2:
        raise ShapeError(f"max_pool_time input must be (frames, channels), got {x.value.shape}")
    t_len, channels = xd.shape
    if t_len % 2 != 0:
        raise ContractError(f"max_pool_time needs an even frame count, got {t_len}")
    even, odd = xd[0::2], xd[1::2]
    keep = even >= odd
    keep |= np.isnan(even)
    out = Variable(Tensor._wrap(np.where(keep, even, odd)))

    if taping():
        src = node_of(x)
        def bw(g):
            dx = np.zeros((t_len, channels), dtype=np.float64)
            np.copyto(dx[0::2], g, where=keep)
            np.copyto(dx[1::2], g, where=~keep)
            ad._accum(src, dx)
        record(out, bw)
    return out


def _steps(a: np.ndarray, d: int) -> np.ndarray:
    # direction d's rows in the order it steps through them: direction 1 runs backward in time
    return a[::-1] if d else a


# most input rows per block of the input projection
_PROJ_BLOCK = 256


def _row_blocks(s_len: int) -> list[tuple[int, int]]:
    """The S input rows as (start, stop) blocks of balanced lengths, at most ``_PROJ_BLOCK`` each.

    So S <= 256 is one block, and no block is under 128 rows once S > 256;
    the first block is a longest one. A block of rows of a GEMM gets the
    bits of the whole product's rows when it is long enough, and short ones
    need not: with OpenBLAS, a block of up to 4 rows differed at N = 256
    output columns, and one of up to 75 at N = 16 and 96 or 128 input
    columns.
    """
    count = -(-s_len // _PROJ_BLOCK)
    if count <= 1:
        return [(0, s_len)]
    base, longer = divmod(s_len, count)
    bounds = [j * base + min(j, longer) for j in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _project(xd: np.ndarray, stacks: list[StackedGates], start: int, stop: int,
             out: np.ndarray) -> None:
    """Steps ``start:stop`` of every direction's input projection plus bias, into ``out``.

    ``out`` is (stop - start, repeats, 4, n, H): the rows of one step of
    each direction, the same for each of its repeats. Direction 0's step s
    reads input row s, direction 1's row S-1-s; each direction's product is
    one GEMM on rows of ``xd`` in frame order, so both paths of
    :func:`_recurrence` get the same bits from the same blocks.
    """
    s_len = len(xd)
    for d, w in enumerate(stacks):
        proj = xd[s_len - stop:s_len - start] if d else xd[start:stop]
        proj = (proj @ w.wx.T).reshape(stop - start, 1, 4, -1)
        np.add(_steps(proj, d), w.b, out[:, :, :, d])
        del proj


def _recurrence(x, units: tuple[LSTMParams, ...], upsample: bool = False) -> Variable:
    """One LSTM per direction over the frames, all directions in one loop; returns (T, n*H).

    ``units[0]`` steps through the frames in order and ``units[1]`` in
    reverse; the output holds each direction's hidden states in frame
    order, side by side. With ``upsample`` the frames are the input rows
    each repeated twice, but the input projection x @ W_x.T + b is computed
    on the un-repeated rows. Every direction starts from zero hidden and
    cell states.

    There is one step loop; what differs is the rows it walks over. Either
    way the steps write the hidden states into one (T+2, n, H) buffer ``hs``
    whose first and last rows stay zero: row t+1 holds every direction's h
    after step t, row t the h that step reads. After the loop direction 1 is
    put in frame order in place, and rows 1..T are the output, a view.

    Both paths form the projection plus bias with :func:`_project`, one
    block of input rows at a time (:func:`_row_blocks`: at most 256 rows,
    so S <= 256 is one block), the same blocks on both paths, so they get
    the same bits.

    - Taped: the gate buffer (T, 4, n, H) holds each step's projection plus
      bias, repeated for ``upsample``, filled block by block, and the step
      turns it into the gates in place; ``cs`` (T+1, n, H) keeps every
      cell state, row 0 the zero initial one. Per-step history is kept
      only for a tape, which BPTT reads, and the output buffer is the only
      copy of the hidden states.
    - Untaped: one buffer holds the projection plus bias of one block of
      input rows, refilled as the steps reach the next block, and step t
      reads its row, that of input row t // 2 with ``upsample``; each step
      adds the recurrent term into one reused gate row and updates one cell
      row in place. So no scratch grows with T, only the output.

    Each step's gate row is laid out gate x direction x unit, so one call of
    ``expit`` covers the three sigmoid gates of every direction and one call
    of every other elementwise function covers all directions; the
    recurrent product h @ W_h.T is one stacked matmul, a GEMV per direction,
    into a reused row. tanh(c) is not kept; the backward pass recomputes
    it. The loops pass every ``out`` positionally: at a few units per
    direction a step costs its calls, not its arithmetic.

    The backward pass works in the forward's buffers, which the tape lets
    it do because a rule runs once. :func:`_gate_grads` turns the gate
    buffer into the gate gradient by BPTT, a block of steps at a time, and
    overwrites ``cs`` on the way. The rule then lets go of ``cs``; it reads
    each direction's h_{t-1} in step order from the output buffer, row t for
    direction 0 and row T+1-t for direction 1, both of them zero at t = 0,
    forms both W_h gradients and lets go of the output buffer too. The rows
    keep the gate order of the forward pass, so row block k of each W_x, W_h
    and bias gradient is the k-th field of its group. Each step wrote its
    gate gradient back direction-major, so the products of every direction
    read its (T, 4H) rows as a strided view of the gate buffer. With
    ``upsample`` the row pairs of the gate gradient are summed in place,
    into the even rows, before the W_x and input-gradient GEMMs. Direction
    1's W_x gradient reads a copy of the input in its step order, and its
    share of the input gradient is computed into that copy.
    """
    x = as_variable(x)
    xd = x.value.data
    stacks = [p.stacked() for p in units]
    n, hidden = len(units), units[0].hidden
    if xd.ndim != 2 or any(w.wx.shape != (4 * hidden, xd.shape[1]) for w in stacks):
        raise ShapeError(f"lstm input shape {x.value.shape} does not fit units of (hidden, input) "
                         f"sizes {[(p.hidden, p.input_dim) for p in units]}")
    s_len = xd.shape[0]
    repeat = 2 if upsample else 1
    t_len = repeat * s_len
    taped = taping()
    blocks = _row_blocks(s_len)

    if taped:
        # the projection plus bias of every step, which the steps turn into the gates
        proj_rows = np.empty((t_len, 4, n, hidden), dtype=np.float64)
        slots = proj_rows.reshape(s_len, repeat, 4, n, hidden)
        for start, stop in blocks:
            _project(xd, stacks, start, stop, slots[start:stop])
    else:
        # one block of input rows' projection plus bias, which its steps read
        proj_rows = np.empty((blocks[0][1], 4, n, hidden), dtype=np.float64)

        def block_rows():
            for start, stop in blocks:
                rows = proj_rows[:stop - start]
                _project(xd, stacks, start, stop, rows[:, None])
                # each row handed to ``repeat`` steps, without indexing in Python
                yield itertools.chain.from_iterable(zip(*[rows] * repeat))
    # untaped, the gates and the cell state are one row each
    gates = proj_rows if taped else np.empty((4, n, hidden), dtype=np.float64)
    sig = gates.reshape(-1, 4 * n * hidden)[:, :3 * n * hidden]  # flat: expit is slower on a 3D view
    i_s, f_s, o_s, g_s = gates.swapaxes(0, -3)
    # hs[t + 1] and cs[t + 1] are h and c after step t; hs's rows 0 and T+1
    # and cs's row 0 stay zero
    hs = np.zeros((t_len + 2, n, hidden), dtype=np.float64)
    cs = np.zeros((t_len + 1, n, hidden) if taped else (n, hidden), dtype=np.float64)
    if taped:
        step_rows = (gates, gates, sig, g_s, f_s, i_s, o_s, cs[:-1], cs[1:])
    else:
        # step t reads its input row's projection, the buffer refilled a
        # block at a time, and every step the same rows
        step_rows = (itertools.chain.from_iterable(block_rows()),
                     *map(itertools.repeat, (gates, sig, g_s, f_s, i_s, o_s, cs, cs)))
    wh_t = _recurrent_weights(stacks)
    rec = np.empty((n, 1, 4 * hidden), dtype=np.float64)
    rec_g = rec.reshape(n, 4, hidden).transpose(1, 0, 2)  # rec in the gate row's layout
    tmp = np.empty((n, hidden), dtype=np.float64)  # i*g, then tanh(c)

    # zip hands each step its rows as views, without indexing in Python
    for p, a, sg, cd, f, i, o, c_prev, c, h, h_prev in zip(
            *step_rows, hs[1:-1], hs[:-2].reshape(t_len, n, 1, hidden)):
        np.matmul(h_prev, wh_t, rec)
        np.add(p, rec_g, a)
        expit(sg, sg)
        np.tanh(cd, cd)
        np.multiply(f, c_prev, c)
        c += np.multiply(i, cd, tmp)
        np.multiply(o, np.tanh(c, tmp), h)
    # wh_t is a copy of both W_h.T; untaped, the projection block goes too (p,
    # the last step's row of it, included) before direction 1 is put in frame order
    del wh_t, p, proj_rows, step_rows
    body = hs[1:-1]
    body[:, 1:] = body[::-1, 1:]
    out = Variable(Tensor._wrap(body.reshape(t_len, n * hidden)))
    if not taped:
        return out

    # bind the block variables' nodes now: the params objects may be
    # re-pointed at other variables by the time backward runs
    block_nodes = [node_of(var) for p in units for _, var in p.blocks()]
    src = node_of(x) if _wants_grad(x) else None
    def bw(g):
        nonlocal cs, hs
        da = _gate_grads(gates, cs, g, _recurrent_weights(stacks).transpose(0, 2, 1))
        cs = None
        # each direction's h_{t-1} in step order: rows 0..T-1, or T+1 down to 2
        a_s = [da[:, d] for d in range(n)]
        dwhs = [a.T @ _steps(hs[2 * d:t_len + 2 * d, d], d) for d, a in enumerate(a_s)]
        hs = None
        for d, (w, a, dwh) in enumerate(zip(stacks, a_s, dwhs)):
            db = a.sum(axis=0)
            if upsample:
                a = np.add(a[0::2], a[1::2], a[0::2])
            # direction 1's own copy: its share of the input gradient is computed into it
            x_steps = xd[::-1].copy() if d else xd
            dwx = a.T @ x_steps
            # row block k of each gradient is the k-th field of its group
            grads = (*dwx.reshape(4, hidden, -1), *dwh.reshape(4, hidden, hidden),
                     *db.reshape(4, hidden))
            for node, grad in zip(block_nodes[12 * d:12 * (d + 1)], grads):
                ad._accum(node, grad)
            if src is not None:
                if d == 0:
                    dx = a @ w.wx
                else:
                    dx += _steps(np.matmul(a, w.wx, x_steps), d)
        if src is not None:
            ad._accum(src, dx)
    record(out, bw)
    return out


def _recurrent_weights(stacks: list[StackedGates]) -> np.ndarray:
    """Every direction's ``wh_t`` in one C-ordered (n, H, 4H) array.

    The recurrence's GEMVs read this layout, forward, and its transpose,
    backward: the operand's strides, not only its values, set their bits.
    """
    hidden = stacks[0].wh_t.shape[0]
    out = np.empty((len(stacks), hidden, 4 * hidden), dtype=np.float64)
    for d, w in enumerate(stacks):
        out[d] = w.wh_t
    return out


# steps per block in which _gate_grads forms its factors
_BPTT_BLOCK = 64


def _gate_grads(gates: np.ndarray, cs: np.ndarray, g: np.ndarray, wh: np.ndarray) -> np.ndarray:
    """The gate gradient (T, n, 4H), by BPTT in the forward's gate buffer, which it overwrites.

    ``gates`` (T, 4, n, H) holds the activations i, f, o, g of every step
    and ``cs`` (T+1, n, H) the cell states, row 0 the zero initial ones; ``g`` is
    the output gradient (T, n*H) in frame order, ``wh`` (n, 4H, H) the
    recurrent weights.

    The steps are walked in blocks of ``_BPTT_BLOCK``, from the last block.
    For block [t0, t1) the gate-derivative factors overwrite their gates:
    g*i(1-i), c_{t-1}*f(1-f), o(1-tanh^2 c) and i(1-g^2), after f is copied
    aside for the cell gradient; then tanh(c)*o(1-o) overwrites the block's
    cell states. So the block reads ``cs[t0:t1]`` and overwrites
    ``cs[t0+1:t1+1]``, and row t0 is overwritten only by the block before,
    which runs later. Then each step of the block, from its last, adds the
    o row times the hidden gradient to the cell gradient, scales its gate
    row by the cell gradient into a direction-major scratch row, sets the o
    gate there to o's factor times the hidden gradient, runs the recurrent
    GEMV on that row and copies it back over the step's own gates. So the
    buffer read as (T, n, 4H) ends up holding the gate gradient of each
    direction and step, and ``cs`` holds nothing the caller can use.

    The copy of f, the factors' scratch and the output gradient in step
    order are made a block at a time, so no array of the size of one gate
    is made. Every function here acts on each element alone, so the bits
    are those of whole-length passes whatever the block length.
    """
    t_len, _, n, hidden = gates.shape
    g = g.reshape(t_len, n, hidden)
    g_steps = [_steps(g[:, d], d) for d in range(n)]
    dh, dc = np.zeros((2, n, hidden), dtype=np.float64)
    dh_rec = dh.reshape(n, 1, hidden)
    tmp = np.empty((n, hidden), dtype=np.float64)
    row = np.empty((n, 1, 4 * hidden), dtype=np.float64)
    row_g = row.reshape(n, 4, hidden).transpose(1, 0, 2)  # row in the gate row's layout
    row_o = row_g[2]
    da = gates.reshape(t_len, n, 4 * hidden)
    for t0 in reversed(range(0, t_len, _BPTT_BLOCK)):
        t1 = min(t0 + _BPTT_BLOCK, t_len)
        block = gates[t0:t1]
        f_keep, tc = _gate_factors(block, cs[t0:t1 + 1])
        dh_in = np.stack([gs[t0:t1] for gs in g_steps], axis=1)
        for g_t, a, a_o, tc_o, f, da_t in zip(dh_in[::-1], block[::-1], block[::-1, 2], tc[::-1],
                                              f_keep[::-1], da[t0:t1].reshape(t1 - t0, n, 1, -1)[::-1]):
            dh += g_t
            dc += np.multiply(dh, a_o, tmp)
            np.multiply(a, dc, row_g)
            np.multiply(tc_o, dh, row_o)
            np.matmul(row, wh, dh_rec)
            da_t[...] = row
            dc *= f
    return da


def _gate_factors(gates: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors of :func:`_gate_grads` for the steps of ``gates``, in place; returns (f, tanh(c)*o(1-o)).

    ``gates`` (b, 4, n, H) is a block of steps and ``cs`` (b+1, n, H) their
    cell states, the one before the block first. The first value returned
    is a copy of f, the second is ``cs[1:]``.
    """
    i_s, f_s, o_s, g_s = gates.transpose(1, 0, 2, 3)
    f_keep = f_s.copy()
    tmp = np.multiply(g_s, i_s)
    np.multiply(g_s, g_s, g_s)
    np.subtract(1.0, g_s, g_s)
    np.multiply(i_s, g_s, g_s)  # i(1-g^2)
    np.subtract(1.0, i_s, i_s)
    np.multiply(tmp, i_s, i_s)  # (g*i)(1-i)
    np.multiply(cs[:-1], f_keep, tmp)
    np.subtract(1.0, f_s, f_s)
    np.multiply(tmp, f_s, f_s)  # (c*f)(1-f)
    tc = np.tanh(cs[1:], cs[1:])
    np.multiply(tc, tc, tmp)
    np.subtract(1.0, tmp, tmp)
    np.multiply(o_s, tmp, tmp)  # o(1-tanh^2 c)
    tc *= o_s
    np.subtract(1.0, o_s, o_s)
    tc *= o_s  # (tanh(c)*o)(1-o)
    o_s[...] = tmp
    return f_keep, tc


def bilstm(x, fwd: LSTMParams, bwd: LSTMParams) -> Variable:
    """Two recurrent units, one per time direction, side by side: (T, 2H).

    Per step of a unit: i, f, o are sigmoid gates, the candidate g is a
    tanh, the cell is c_t = f_t*c_{t-1} + i_t*g_t and the output is h_t =
    o_t*tanh(c_t), from zero initial states h_0 and c_0. ``fwd`` reads the
    frames in order and ``bwd`` in reverse, by index; each direction's
    hidden states are written in frame order, ``fwd``'s in the first H
    columns. Both directions run in one loop, whose steps serve the two at
    once (:func:`_recurrence`); the backward pass is described there and in
    :func:`_gate_grads`. An input that is a leaf and not trainable gets no
    gradient.
    """
    return _recurrence(x, (fwd, bwd))


def upsample_bilstm(x, fwd: LSTMParams, bwd: LSTMParams) -> Variable:
    """``bilstm`` of ``x`` with each input row repeated twice, the input projection at the input rate.

    Frames 2m and 2m+1 of the repeated input are both row m of ``x``, so the
    input projection x @ W_x.T + b is computed on the S rows of ``x`` and
    repeated, and the repeated input is never built. The recurrence runs
    over all 2S frames. The backward pass sums the row pairs of the gate
    gradient before the W_x and input-gradient GEMMs, since each input row
    fed two frames. This mirrors :func:`upsample_conv1d_same`.
    """
    return _recurrence(x, (fwd, bwd), upsample=True)


def softmax_time(z) -> Variable:
    """Row-wise softmax with max subtraction; each row sums to 1."""
    z = as_variable(z)
    zd = z.value.data
    if zd.ndim != 2:
        raise ShapeError(f"softmax_time input must be (frames, classes), got {z.value.shape}")
    # the ufuncs' own reductions, in place: ndarray.max and .sum reach them
    # through a Python-level wrapper, and the values are the same
    y = np.subtract(zd, np.maximum.reduce(zd, axis=1, keepdims=True))
    np.exp(y, y)
    y /= np.add.reduce(y, axis=1, keepdims=True)
    out = Variable(Tensor._wrap(y))

    if taping():
        src = node_of(z)
        def bw(g):
            ad._accum(src, (g - (g * y).sum(axis=1, keepdims=True)) * y)
        record(out, bw)
    return out


def time_softmax_dense(d, p: DenseParams) -> Variable:
    """Per-frame class probabilities: softmax(W @ d_t + b) at every time step."""
    d = as_variable(d)
    dd = d.value.data
    classes, in_dim = p.W.value.shape
    if dd.ndim != 2 or dd.shape[1] != in_dim:
        raise ShapeError(f"dense input shape {d.value.shape} does not match expected (*, {in_dim})")
    w = p.W.value.data
    z = dd @ w.T
    z += p.b.value.data
    logits = Variable(Tensor._wrap(z))

    if taping():
        src, weight, bias = node_of(d), node_of(p.W), node_of(p.b)
        def bw(g):
            ad._accum(src, g @ w)
            ad._accum(weight, g.T @ dd)
            ad._accum(bias, g.sum(axis=0))
        record(logits, bw)
    return softmax_time(logits)


def _dropout_impl(x, rate: float, rng, spatial: bool) -> Variable:
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    x = as_variable(x)
    xd = x.value.data
    if spatial and xd.ndim != 2:
        raise ShapeError(f"spatial_dropout input must be (frames, channels), got {x.value.shape}")
    if rate == 0.0:
        return x
    scale = 1.0 / (1.0 - rate)
    # kept as bool, an eighth of a float mask. Multiplying by the mask, then
    # by scale in place, gives the bits of multiplying by keep * scale, NaN
    # and inf included: a kept entry is v * scale either way, and a dropped
    # one v * 0.0, a signed zero or NaN, which scale leaves as it is.
    keep = rng.random((1, xd.shape[1]) if spatial else xd.shape) >= rate
    out_arr = np.multiply(xd, keep)
    out_arr *= scale
    out = Variable(Tensor._wrap(out_arr))

    if taping():
        src = node_of(x)
        def bw(g):
            dx = np.multiply(g, keep)
            dx *= scale
            ad._accum(src, dx)
        record(out, bw)
    return out


def dropout(x, rate: float, rng) -> Variable:
    """Zero independent elements with probability ``rate``; survivors are rescaled.

    The expected output equals the input. Rate 0 returns ``x`` and draws
    nothing from ``rng``; a pass without dropout does not call it.
    """
    return _dropout_impl(x, rate, rng, spatial=False)


def spatial_dropout(x, rate: float, rng) -> Variable:
    """Dropout that zeroes whole channels: one mask column shared by all frames.

    The input must be (frames, channels), at rate 0 too.
    """
    return _dropout_impl(x, rate, rng, spatial=True)
