"""Reverse-mode differentiation over the tensor primitives.

The graph is built as it runs: while a :class:`Tape` is active, every
operation appends its output node to the tape's ordered record. ``backward``
replays that record in reverse creation order, which is a valid reverse
topological order because a node is always created after its parents.
Gradients accumulate additively when a node feeds several consumers, and the
fixed replay order makes two identical runs produce bit-identical gradients.

With no tape active, the same operations just compute values and record
nothing, which is how inference runs without retaining a graph. The stack of
active tapes is per thread, so a tape records only the operations of the
thread that entered it.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Tensor

__all__ = [
    "Variable",
    "Tape",
    "add",
    "sub",
    "mul",
    "matmul",
    "transpose",
    "concat",
    "slice_axis",
    "reverse_time",
    "sum_all",
    "reduce_sum",
    "finite_diff_check",
]

_ids = itertools.count()


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_TAPES = _TapeStack()


class Variable:
    """A value plus its accumulated gradient and, while taping, a backward rule.

    Leaf variables (``parents == ()``) carry data into the graph; mark them
    ``trainable`` to have :meth:`Tape.backward` report their gradients.
    """

    __slots__ = ("value", "vid", "name", "trainable", "parents", "_backward", "_grad")

    def __init__(self, value, trainable: bool = False, name: str | None = None):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.vid = next(_ids)
        self.name = name
        self.trainable = trainable
        self.parents: tuple["Variable", ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def grad(self) -> Tensor:
        if self._grad is None:
            return Tensor.zeros(self.value.shape)
        return Tensor._wrap(self._grad.copy())

    def zero_grad(self) -> None:
        self._grad = None

    def __repr__(self) -> str:
        tag = self.name or f"v{self.vid}"
        return f"Variable({tag}, shape={self.shape})"


class Tape:
    """Ordered record of operations for one forward pass."""

    def __init__(self):
        self.ops: list[Variable] = []
        self._leaves: dict[int, Variable] = {}

    def __enter__(self) -> "Tape":
        _TAPES.tapes.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPES.tapes.pop()

    def backward(self, loss: Variable) -> dict[int, Tensor]:
        """Propagate d(loss) to every node; returns {vid: grad} for trainable leaves.

        ``loss`` must be a single-element variable. Leaves that never received
        a gradient report zeros (a disconnected variable is not an error).
        The op record is cleared afterwards; leaf gradients stay accumulated
        on the variables until ``zero_grad``.
        """
        if loss.value.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        _accum(loss, np.ones(loss.value.shape, dtype=np.float64))
        for node in reversed(self.ops):
            g = node._grad
            if g is None or node._backward is None:
                continue
            node._backward(g)
        out = {}
        for vid, leaf in self._leaves.items():
            g = leaf._grad
            out[vid] = Tensor.zeros(leaf.value.shape) if g is None else Tensor._wrap(g.copy())
        self.ops.clear()
        self._leaves.clear()
        return out


def _accum(v: Variable, arr: np.ndarray) -> None:
    # Always copy on first write: backward rules may hand the same array to
    # several parents.
    if v._grad is None:
        v._grad = np.array(arr, dtype=np.float64)
    else:
        v._grad += arr


def record(out: Variable, parents: tuple[Variable, ...], backward) -> Variable:
    """Attach a backward rule to ``out`` and append it to the active tape."""
    tape = _TAPES.tapes[-1]
    out.parents = parents
    out._backward = backward
    tape.ops.append(out)
    for p in parents:
        if p.trainable and not p.parents:
            tape._leaves.setdefault(p.vid, p)
    return out


def taping() -> bool:
    return bool(_TAPES.tapes)


def as_variable(x) -> Variable:
    if isinstance(x, Variable):
        return x
    return Variable(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape == (g.shape[1],):
        return g.sum(axis=0)
    if shape == (1, g.shape[1]):
        return g.sum(axis=0, keepdims=True)
    raise ShapeError(f"cannot reduce gradient of shape {g.shape} to {shape}")


def add(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(T.add(a.value, b.value))
    if taping():
        def bw(g):
            _accum(a, _unbroadcast(g, a.value.shape))
            _accum(b, _unbroadcast(g, b.value.shape))
        record(out, (a, b), bw)
    return out


def sub(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(T.sub(a.value, b.value))
    if taping():
        def bw(g):
            _accum(a, _unbroadcast(g, a.value.shape))
            _accum(b, _unbroadcast(-g, b.value.shape))
        record(out, (a, b), bw)
    return out


def mul(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(T.mul(a.value, b.value))
    if taping():
        ad, bd = a.value.data, b.value.data
        def bw(g):
            _accum(a, _unbroadcast(g * bd, a.value.shape))
            _accum(b, _unbroadcast(g * ad, b.value.shape))
        record(out, (a, b), bw)
    return out


def matmul(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(T.matmul(a.value, b.value))
    if taping():
        ad, bd = a.value.data, b.value.data
        def bw(g):
            _accum(a, g @ bd.T)
            _accum(b, ad.T @ g)
        record(out, (a, b), bw)
    return out


def transpose(a) -> Variable:
    a = as_variable(a)
    out = Variable(T.transpose(a.value))
    if taping():
        def bw(g):
            _accum(a, g.T)
        record(out, (a,), bw)
    return out


def concat(a, b, axis: int) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(T.concat(a.value, b.value, axis))
    if taping():
        split = a.value.shape[axis]
        def bw(g):
            _accum(a, np.take(g, range(split), axis=axis))
            _accum(b, np.take(g, range(split, g.shape[axis]), axis=axis))
        record(out, (a, b), bw)
    return out


def slice_axis(a, axis: int, start: int, stop: int) -> Variable:
    a = as_variable(a)
    out = Variable(T.slice_axis(a.value, axis, start, stop))
    if taping():
        shape = a.value.shape
        def bw(g):
            full = np.zeros(shape, dtype=np.float64)
            idx = [slice(None)] * len(shape)
            idx[axis] = slice(start, stop)
            full[tuple(idx)] = g
            _accum(a, full)
        record(out, (a,), bw)
    return out


def reverse_time(a) -> Variable:
    """Flip the leading (time) axis."""
    a = as_variable(a)
    out = Variable(Tensor._wrap(a.value.data[::-1].copy()))
    if taping():
        def bw(g):
            _accum(a, g[::-1])
        record(out, (a,), bw)
    return out


def sum_all(a) -> Variable:
    a = as_variable(a)
    out = Variable(Tensor._wrap(np.asarray(a.value.data.sum())))
    if taping():
        shape = a.value.shape
        def bw(g):
            _accum(a, np.broadcast_to(g, shape))
        record(out, (a,), bw)
    return out


def reduce_sum(a, axis: int) -> Variable:
    a = as_variable(a)
    out = Variable(T.reduce(a.value, axis, "sum"))
    if taping():
        shape = a.value.shape
        def bw(g):
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), shape))
        record(out, (a,), bw)
    return out


def finite_diff_check(f, x, eps: float = 1e-5) -> float:
    """Max relative error between f's tape gradient and central differences.

    ``f`` maps one Variable to a scalar Variable and must be a pure function
    of its argument (any internal randomness has to be fixed). The relative
    error per coordinate is |analytic - numeric| / max(|analytic|, |numeric|,
    1e-8); the maximum over coordinates is returned.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    tape = Tape()
    with tape:
        vx = Variable(x, trainable=True)
        out = f(vx)
    if out.value.size != 1:
        raise ContractError(f"finite_diff_check needs a scalar-valued f, got shape {out.value.shape}")
    tape.backward(out)
    analytic = (np.zeros(x.shape) if vx._grad is None else vx._grad).ravel()

    # One reusable probe buffer: with no tape active nothing retains a
    # reference to it between evaluations, so mutating in place is safe.
    work = x.data.copy()
    flat = work.ravel()
    probe = object.__new__(Tensor)
    probe.data = work
    numeric = np.empty(flat.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fu = f(Variable(probe)).value.item()
        flat[i] = orig - eps
        fd = f(Variable(probe)).value.item()
        flat[i] = orig
        numeric[i] = (fu - fd) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
