"""Assembly of the encoder-decoder segmentation network and its variants.

Every variant shares the same temporal-convolutional encoder: depth ``k``
layers of conv -> normalized ReLU -> spatial dropout -> width-2 max pooling,
with 32 + 32*i filters at layer i. The variants differ in where recurrence
sits on the decoding side:

* ``full``      - every decoder layer is upsample -> Bi-LSTM.
* ``high``      - one Bi-LSTM at the most-compressed point between encoder
                  and decoder; the decoder layers are convolutional.
* ``low``       - convolutional decoder except the last layer, which is a
                  Bi-LSTM.
* ``conv_only`` - purely convolutional baseline (``high`` minus its middle
                  Bi-LSTM); used to measure what recurrence adds.

All variants end with a per-frame softmax read-out. Inputs whose length is
not a multiple of 2**k are padded by repeating the final frame and outputs
are trimmed back, so the output always has one row per input frame.

A decoder layer's upsample and its convolution or Bi-LSTM run as one op
that works at the input rate: :func:`~actionseg.layers.upsample_conv1d_same`
convolves the un-repeated input with merged kernels, and
:func:`~actionseg.layers.upsample_bilstm` projects the un-repeated input
into the gates and repeats the projection. Neither builds the repeated
input. The layer table still lists the upsample and the convolution or
Bi-LSTM as two rows.

Each variant is written once, as the ordered stage table that :func:`build`
makes (``Model.table``, one :class:`Stage` per wiring layer). Parameter names
and order, :meth:`Model.forward`, :func:`describe` and the gradient checker's
restart points are all read off that table. The table is first planned from
the config alone (``_plan``: every parameter's name, shape and initializer,
no array), then filled from one source: the seeded draws in :func:`build`,
or the file's records in :func:`load_checkpoint`, which so draws nothing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import layers as ly
from .autodiff import Variable, slice_axis
from .errors import ConfigError, ContractError, LoadError, ShapeError
from .layers import LSTM_FIELDS, Conv1DParams, DenseParams, LSTMParams
from .tensor import Tensor

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "Stage",
    "Model",
    "build",
    "describe",
    "format_describe",
    "save_checkpoint",
    "load_checkpoint",
]

VARIANTS = ("full", "high", "low", "conv_only")

_CHECKPOINT_MAGIC = b"ASEGCKP1"
_CHECKPOINT_VERSION = 1

_NORM_ACT = "norm_relu+spatial_dropout"
# describe() puts a stage's parameter count on its one row of these kinds
_PARAM_KINDS = ("conv1d_same", "bilstm", "time_softmax_dense")


@dataclass
class ModelConfig:
    """Hyperparameters fixing a model's wiring, sizes and initialization seed."""

    input_dim: int
    num_classes: int
    variant: str = "full"
    k: int = 2
    conv_len: int = 30
    hidden: int = 64
    dropout_conv: float = 0.3
    dropout_lstm: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for field in ("input_dim", "num_classes", "k", "conv_len", "hidden", "seed"):
            value = getattr(self, field)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{field} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not 1 <= self.k <= 4:
            raise ConfigError(f"k must be in [1, 4], got {self.k}")
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.conv_len < 1:
            raise ConfigError(f"conv_len must be >= 1, got {self.conv_len}")
        if self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        for field in ("dropout_conv", "dropout_lstm"):
            rate = getattr(self, field)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{field} must be in [0, 1), got {rate}")

    def filters(self, i: int) -> int:
        """Filter count of encoder layer i (1-based)."""
        return 32 + 32 * i


@dataclass
class Stage:
    """One wiring layer of the network: one entry of the stage table.

    ``name`` is the parameter prefix (``enc{i}``, ``mid``, ``dec{i}``, ``out``);
    ``rows`` are its (name, kind) lines of :func:`describe`; ``blocks`` maps
    each typed block's name prefix (``enc1.conv``, ``mid.lstm.fwd``) to the
    block; ``forward(v, training, rng, *blocks)`` runs the stage;
    ``shapes(t, width)`` gives the output shape after each row.
    """

    name: str
    rows: tuple[tuple[str, str], ...]
    blocks: dict[str, object]
    forward: Callable[..., Variable]
    shapes: Callable[[int, int], list[tuple[int, int]]]

    @cached_property
    def param_fields(self) -> dict[str, tuple[str, str]]:
        """Parameter name -> (block prefix, field), block by block in field order."""
        return {f"{prefix}.{f.name}": (prefix, f.name)
                for prefix, block in self.blocks.items() for f in dataclasses.fields(block)}

    def params(self) -> list[tuple[str, Variable]]:
        return [(name, getattr(self.blocks[prefix], field))
                for name, (prefix, field) in self.param_fields.items()]

    def swap(self, name: str, var: Variable) -> "Stage":
        """A copy of this stage, with a copy of one block, whose parameter ``name`` is ``var``.

        ``var`` must have the shape of the parameter it replaces, or
        ShapeError is raised. The block's other fields passed its checks when
        it was built, so that comparison is the only check the copy needs:
        both copies are made field by field (:func:`_with`), which runs no
        ``__post_init__``. The new block starts with no memoized weights
        (``layers._memo``). The gradient check makes one swap per probe.
        """
        prefix, field = self.param_fields[name]
        block = self.blocks[prefix]
        want = getattr(block, field).value.shape
        if var.value.shape != want:
            raise ShapeError(f"{name} shape {var.value.shape} != {want}")
        return _with(self, blocks={**self.blocks, prefix: _with(block, **{field: var})})

    def shadow(self) -> "Stage":
        """A copy of this stage whose parameters are fresh variables over the same values."""
        return _with(self, blocks={
            prefix: _with(block, **{f: Variable(getattr(block, f).value) for f in block.__dataclass_fields__})
            for prefix, block in self.blocks.items()})

    def __call__(self, v, training: bool = False, rng=None) -> Variable:
        return self.forward(v, training, rng, *self.blocks.values())


def _with(obj, **changes):
    """A copy of the dataclass instance ``obj``, its fields set as in ``obj`` and then ``changes``.

    Neither ``__init__`` nor ``__post_init__`` runs, and nothing but the
    fields is copied: no memo or cached property kept in ``obj.__dict__``.
    """
    copy = object.__new__(type(obj))
    copy.__dict__.update({f: obj.__dict__[f] for f in obj.__dataclass_fields__}, **changes)
    return copy


class Model:
    """Wired parameter set for one configuration: the stage table ``table``.

    ``params`` maps stable names to the table's trainable variables in table
    order, which is the checkpoint layout. Parameters are mutated only by the
    optimizer between passes, so inference over shared read-only parameters
    is safe from concurrent callers. That holds only because the tape stack
    is per thread and the gradient check runs on shadow copies of the
    stages, whose variables are not the model's.
    """

    def __init__(self, config: ModelConfig, table: list[Stage]):
        self.config = config
        self.table = table
        self.params: dict[str, Variable] = {}
        for stage in table:
            for name, var in stage.params():
                var.name = name
                var.trainable = True
                self.params[name] = var

    def parameter_count(self) -> int:
        return sum(v.value.size for v in self.params.values())

    def prepare_input(self, x) -> tuple[np.ndarray, int]:
        """Validate the feature matrix and pad its length to a multiple of 2**k."""
        cfg = self.config
        # a Tensor's buffer is already read-only; anything else is copied, because
        # the pass wraps the array in a Tensor, which freezes it
        arr = x.data if isinstance(x, Tensor) else np.array(x, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != cfg.input_dim:
            raise ShapeError(
                f"input shape {arr.shape} does not match expected (frames, {cfg.input_dim})"
            )
        t_len = arr.shape[0]
        pad = (-t_len) % (2 ** cfg.k)
        if pad:
            arr = np.concatenate([arr, np.repeat(arr[-1:], pad, axis=0)], axis=0)
        return arr, t_len

    def forward(self, x, training: bool = False, rng=None) -> Variable:
        """Per-frame class probabilities, shape (frames, num_classes).

        The time axis is padded to the next multiple of 2**k by repeating the
        last frame and trimmed back after the softmax. ``rng`` is required
        when training with a nonzero dropout rate.
        """
        arr, t_len = self.prepare_input(x)
        cfg = self.config
        if training and rng is None and (cfg.dropout_conv > 0 or cfg.dropout_lstm > 0):
            raise ContractError("training forward with dropout needs an rng")
        v = Variable(Tensor._wrap(arr))
        for stage in self.table:
            v = stage(v, training, rng)
        if v.value.shape[0] != t_len:
            v = slice_axis(v, 0, 0, t_len)
        return v


class _Param(NamedTuple):
    """One parameter before it has a value: its shape and its initializer.

    The initial value is uniform in +/-``limit`` when ``limit`` is set, and
    otherwise all ones if ``ones``, else all zeros.
    """

    shape: tuple[int, ...]
    limit: float | None = None
    ones: bool = False


class _Block(NamedTuple):
    """A typed parameter block before it has values: its class and its fields' ``_Param``s."""

    cls: type
    params: dict[str, _Param]


def _glorot(shape: tuple[int, ...], fan_in: int, fan_out: int) -> _Param:
    return _Param(shape, np.sqrt(6.0 / (fan_in + fan_out)))


def _lstm_block(hidden: int, in_dim: int) -> _Block:
    w_x = _glorot((hidden, in_dim), in_dim, hidden)
    w_h = _glorot((hidden, hidden), hidden, hidden)
    # forget gate starts open to stabilize early recurrent training
    b, b_f = _Param((hidden,)), _Param((hidden,), ones=True)
    # in field order, so W_x*, then W_h* draw first
    return _Block(LSTMParams, {name: w_x if name.startswith("W_x") else w_h if name.startswith("W_h")
                               else b_f if name == "b_f" else b for name in LSTM_FIELDS})


def _plan(cfg: ModelConfig) -> list[Stage]:
    """The variant's stage table with ``_Block``s in place of blocks: every name and shape, no array."""
    two_h = 2 * cfg.hidden

    def conv_block(prefix, filters, channels):
        w = cfg.conv_len
        kernels = _glorot((filters, channels, w), channels * w, filters * w)
        return {prefix: _Block(Conv1DParams, {"kernels": kernels, "bias": _Param((filters,))})}

    def bilstm_blocks(prefix, channels):
        return {f"{prefix}.fwd": _lstm_block(cfg.hidden, channels),
                f"{prefix}.bwd": _lstm_block(cfg.hidden, channels)}

    def encode(v, training, rng, conv):
        v = ly.norm_relu(ly.conv1d_same(v, conv))
        v = ly.spatial_dropout(v, cfg.dropout_conv, rng, training)
        return ly.max_pool_time(v)

    def decode_conv(v, training, rng, conv):
        # upsample -> conv1d_same as one op that convolves at the input rate
        v = ly.norm_relu(ly.upsample_conv1d_same(v, conv))
        return ly.spatial_dropout(v, cfg.dropout_conv, rng, training)

    def decode_lstm(v, training, rng, fwd, bwd):
        # upsample -> bilstm as one op that projects the input at the input rate
        v = ly.upsample_bilstm(v, fwd, bwd)
        return ly.dropout(v, cfg.dropout_lstm, rng, training)

    def decode_lstm_last(v, training, rng, fwd, bwd):
        # recurrent dropout sits between recurrent layers, not ahead of the
        # read-out; the last layer of the conv-free decoder skips it
        return ly.upsample_bilstm(v, fwd, bwd)

    table, width = [], cfg.input_dim
    for i in range(1, cfg.k + 1):
        f = cfg.filters(i)
        table.append(Stage(f"enc{i}", ((f"enc{i}.conv", "conv1d_same"), (f"enc{i}.act", _NORM_ACT),
                                       (f"enc{i}.pool", "max_pool_time")),
                           conv_block(f"enc{i}.conv", f, width), encode,
                           lambda t, w, f=f: [(t, f), (t, f), (t // 2, f)]))
        width = f

    if cfg.variant == "high":
        table.append(Stage("mid", (("mid.lstm", "bilstm"),), bilstm_blocks("mid.lstm", width),
                           lambda v, training, rng, fwd, bwd: ly.bilstm(v, fwd, bwd),
                           lambda t, w: [(t, two_h)]))
        width = two_h

    for i in range(1, cfg.k + 1):
        up = (f"dec{i}.up", "upsample_repeat")
        if cfg.variant == "full" or (cfg.variant == "low" and i == cfg.k):
            fn = decode_lstm_last if cfg.variant == "full" and i == cfg.k else decode_lstm
            table.append(Stage(f"dec{i}", (up, (f"dec{i}.lstm", "bilstm")),
                               bilstm_blocks(f"dec{i}.lstm", width), fn,
                               lambda t, w: [(2 * t, w), (2 * t, two_h)]))
            width = two_h
        else:
            f = cfg.filters(cfg.k + 1 - i)
            table.append(Stage(f"dec{i}", (up, (f"dec{i}.conv", "conv1d_same"), (f"dec{i}.act", _NORM_ACT)),
                               conv_block(f"dec{i}.conv", f, width), decode_conv,
                               lambda t, w, f=f: [(2 * t, w), (2 * t, f), (2 * t, f)]))
            width = f

    w = _glorot((cfg.num_classes, width), width, cfg.num_classes)
    table.append(Stage("out", (("out", "time_softmax_dense"),),
                       {"out": _Block(DenseParams, {"W": w, "b": _Param((cfg.num_classes,))})},
                       lambda v, training, rng, dense: ly.time_softmax_dense(v, dense),
                       lambda t, w: [(t, cfg.num_classes)]))
    return table


def _plan_params(plan: list[Stage]) -> dict[str, _Param]:
    """Parameter name -> ``_Param``, in table order: the checkpoint layout."""
    return {f"{prefix}.{field}": param for stage in plan for prefix, block in stage.blocks.items()
            for field, param in block.params.items()}


def _assemble(cfg: ModelConfig, plan: list[Stage], value: Callable[[str, _Param], np.ndarray]) -> Model:
    """The model of ``plan`` whose parameter ``name`` holds ``value(name, param)``, asked in table order."""
    return Model(cfg, [Stage(stage.name, stage.rows, {
        prefix: block.cls(**{field: Variable(Tensor._wrap(value(f"{prefix}.{field}", param)))
                             for field, param in block.params.items()})
        for prefix, block in stage.blocks.items()}, stage.forward, stage.shapes) for stage in plan])


def build(config: ModelConfig) -> Model:
    """Initialize all parameters for ``config`` and wire the variant's stage table.

    Weights are uniform in +/-sqrt(6 / (fan_in + fan_out)); biases start at
    zero except the recurrent forget gates, which start at one. Parameters
    are drawn in table order. The encoder comes first and is identical for
    every variant, so two variants built from the same seed share encoder
    parameters exactly.
    """
    init = np.random.default_rng(config.seed)

    def draw(name: str, p: _Param) -> np.ndarray:
        if p.limit is None:
            return np.ones(p.shape) if p.ones else np.zeros(p.shape)
        return init.uniform(-p.limit, p.limit, size=p.shape)

    return _assemble(config, _plan(config), draw)


def describe(model: Model, ref_t: int | None = None) -> list[tuple[str, str, tuple[int, int], int]]:
    """Layer table: (name, kind, output shape at the reference length, param count).

    The rows, their shapes and the parameter counts are read off the stage
    table; a stage's parameter count goes on its one row that holds them.
    """
    cfg = model.config
    t = ref_t if ref_t is not None else 4 * 2 ** cfg.k
    if t < 1:
        raise ContractError(f"reference length must be positive, got {t}")
    if t % 2 ** cfg.k != 0:
        raise ContractError(f"reference length {t} must be a multiple of {2 ** cfg.k}")
    rows = [("input", "input", (t, cfg.input_dim), 0)]
    for stage in model.table:
        n = sum(var.value.size for _, var in stage.params())
        for (name, kind), shape in zip(stage.rows, stage.shapes(*rows[-1][2])):
            rows.append((name, kind, shape, n if kind in _PARAM_KINDS else 0))
    return rows


def format_describe(model: Model, ref_t: int | None = None) -> str:
    rows = describe(model, ref_t)
    lines = [f"{'layer':<14} {'kind':<28} {'output':<12} {'params':>10}"]
    for name, kind, shape, n in rows:
        lines.append(f"{name:<14} {kind:<28} {str(shape):<12} {n:>10}")
    lines.append(f"{'total':<14} {'':<28} {'':<12} {model.parameter_count():>10}")
    return "\n".join(lines)


def save_checkpoint(model: Model, path) -> None:
    """Write parameters plus config: versioned header, named shapes, float64 LE data."""
    config_blob = json.dumps(dataclasses.asdict(model.config), sort_keys=True).encode("utf-8")
    chunks = [_CHECKPOINT_MAGIC, struct.pack("<II", _CHECKPOINT_VERSION, len(config_blob)), config_blob,
              struct.pack("<I", len(model.params))]
    for name, var in model.params.items():
        raw = name.encode("utf-8")
        arr = var.value.data
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint, validating every tensor shape.

    The config block fixes every parameter's name and shape (``_plan``).
    Each record is checked against them, and its size against the file's
    length, before its array is allocated; so a file whose config claims a
    large model allocates nothing it does not hold. The record is then
    read straight into that array, so a load holds each byte once: the
    records sit at any byte offset, and numpy computes on unaligned views
    neither as fast nor with the same bits as on aligned arrays. A file
    that cannot be read, a directory included, is a LoadError.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(path, fh)
    except OSError as exc:
        raise LoadError(f"{path}: cannot read: {exc.strerror}") from exc


def _read_checkpoint(path, fh) -> Model:
    size = os.fstat(fh.fileno()).st_size

    def take(fmt):
        n = struct.calcsize(fmt)
        raw = fh.read(n) if fh.tell() + n <= size else b""
        if len(raw) != n:
            raise LoadError(f"{path}: truncated checkpoint")
        return struct.unpack(fmt, raw)

    (raw,) = take(f"<{len(_CHECKPOINT_MAGIC)}s")
    if raw != _CHECKPOINT_MAGIC:
        raise LoadError(f"{path}: not a checkpoint file (bad magic {raw!r})")
    version, config_len = take("<II")
    if version != _CHECKPOINT_VERSION:
        raise LoadError(f"{path}: unsupported checkpoint version {version}")
    (raw,) = take(f"<{config_len}s")
    try:
        config = ModelConfig(**json.loads(raw.decode("utf-8")))
    except (TypeError, ValueError, ConfigError) as exc:
        raise LoadError(f"{path}: bad config block: {exc}") from exc

    plan = _plan(config)
    expected = _plan_params(plan)
    arrays: dict[str, np.ndarray] = {}
    (n_tensors,) = take("<I")
    for _ in range(n_tensors):
        (name_len,) = take("<H")
        (raw,) = take(f"<{name_len}s")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LoadError(f"{path}: parameter name {raw!r} is not UTF-8") from exc
        (ndim,) = take("<B")
        shape = take(f"<{ndim}I")
        if name in arrays:
            raise LoadError(f"{path}: parameter {name!r} is stored twice")
        if name not in expected:
            raise LoadError(f"{path}: unknown parameter {name!r} for this config")
        if shape != expected[name].shape:
            raise LoadError(f"{path}: parameter {name!r} has shape {shape}, "
                            f"config expects {expected[name].shape}")
        if fh.tell() + 8 * math.prod(shape) > size:
            raise LoadError(f"{path}: truncated checkpoint")
        arr = np.empty(shape, dtype="<f8")
        # through a byte view: an array exporting its own buffer keeps a
        # description of it for as long as it lives
        if fh.readinto(arr.view(np.uint8)) != arr.nbytes:
            raise LoadError(f"{path}: truncated checkpoint")
        arrays[name] = arr.astype(np.float64, copy=False)
    missing = expected.keys() - arrays.keys()
    if missing:
        raise LoadError(f"{path}: missing parameters: {sorted(missing)}")
    if fh.tell() != size:
        raise LoadError(f"{path}: trailing bytes after checkpoint payload")
    return _assemble(config, plan, lambda name, p: arrays[name])
