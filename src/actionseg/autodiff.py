"""The array operations of the package and their reverse-mode differentiation.

Each operation is written once, here: it checks its operand shapes, computes
its value with numpy into a fresh read-only :class:`~actionseg.tensor.Tensor`
and, while a tape is active, records its backward rule. Elementwise
operations accept one broadcasting rule, a row bias (shape (N,) or (1, N))
against an (M, N) matrix, stated in ``_pointwise``; every other pair of
shapes must match exactly.

The graph is built as it runs: while a :class:`Tape` is active, every
operation appends its output node to the tape's ordered record. ``backward``
replays that record in reverse creation order, which is a valid reverse
topological order because a node is always created after its parents.
Gradients accumulate additively when a node feeds several consumers, and the
fixed replay order makes two identical runs produce bit-identical gradients.
Backward consumes the graph as it goes: each node leaves the record and
drops its rule and its parents before its rule runs, so what only that rule
read is freed right after it, and a layer's rule may work in its forward
buffers. What stays are the leaf gradients and the nodes the caller holds,
each with its value and gradient.

With no tape active, the same operations just compute values and record
nothing, which is how inference runs without retaining a graph. The stack of
active tapes is per thread, so a tape records only the operations of the
thread that entered it.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor

__all__ = [
    "Variable",
    "Tape",
    "add",
    "mul",
    "matmul",
    "concat",
    "slice_axis",
    "sum_all",
    "finite_diff_check",
]

class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_TAPES = _TapeStack()


class Variable:
    """A value plus its accumulated gradient and, while taping, a backward rule.

    Leaf variables (``parents == ()``) carry data into the graph; mark them
    ``trainable`` to have :meth:`Tape.backward` accumulate their gradients.
    A node whose graph backward has consumed is a leaf too: fed to a new
    graph, it is a constant.
    """

    __slots__ = ("value", "name", "trainable", "parents", "_backward", "_grad")

    def __init__(self, value, trainable: bool = False, name: str | None = None):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
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
        return f"Variable({self.name or 'unnamed'}, shape={self.shape})"


class Tape:
    """Ordered record of operations for one forward pass."""

    def __init__(self):
        self.ops: list[Variable] = []

    def __enter__(self) -> "Tape":
        _TAPES.tapes.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPES.tapes.pop()

    def backward(self, loss: Variable) -> None:
        """Propagate d(loss) to every node, accumulating into each ``_grad``.

        ``loss`` must be a single-element variable. A leaf that never received
        a gradient reads zeros through ``grad`` (a disconnected variable is not
        an error).

        Backward consumes the record: it pops each node and clears its rule
        and ``parents`` before running the rule, holding no reference to the
        node meanwhile. So a rule runs once, and an activation, op output or
        intermediate gradient is freed once the last rule that reads it has
        run. Afterwards ``ops`` is empty, leaf gradients stay accumulated on
        the variables until ``zero_grad``, and a node the caller still holds
        (the loss, say) keeps its value and its own gradient.
        """
        if loss.value.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        _accum(loss, np.ones(loss.value.shape, dtype=np.float64))
        ops = self.ops
        while ops:
            node = ops.pop()
            rule, g = node._backward, node._grad
            node._backward, node.parents = None, ()
            del node
            if rule is not None and g is not None:
                rule(g)


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
    return out


def taping() -> bool:
    return bool(_TAPES.tapes)


def as_variable(x) -> Variable:
    if isinstance(x, Variable):
        return x
    return Variable(x)


def _pointwise(ufunc, a: Variable, b: Variable) -> Tensor:
    """Apply ``ufunc`` elementwise under the one broadcasting rule of the package.

    Shapes must match exactly, except a row bias: an operand of shape (N,) or
    (1, N) against an (M, N) matrix. :func:`_unbroadcast` relies on this.
    """
    sa, sb = a.shape, b.shape
    if sa != sb and not any(len(mat) == 2 and bias in ((mat[1],), (1, mat[1]))
                            for mat, bias in ((sa, sb), (sb, sa))):
        raise ShapeError(f"elementwise shape mismatch: {sa} vs {sb}")
    return Tensor._wrap(ufunc(a.value.data, b.value.data))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # _pointwise admits only a row bias, which is summed over the rows
    return g if g.shape == shape else g.sum(axis=0).reshape(shape)


def add(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(_pointwise(np.add, a, b))
    if taping():
        def bw(g):
            _accum(a, _unbroadcast(g, a.value.shape))
            _accum(b, _unbroadcast(g, b.value.shape))
        record(out, (a, b), bw)
    return out


def mul(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(_pointwise(np.multiply, a, b))
    if taping():
        ad, bd = a.value.data, b.value.data
        def bw(g):
            _accum(a, _unbroadcast(g * bd, a.value.shape))
            _accum(b, _unbroadcast(g * ad, b.value.shape))
        record(out, (a, b), bw)
    return out


def matmul(a, b) -> Variable:
    """Matrix product of an (M, K) and a (K, N) operand."""
    a, b = as_variable(a), as_variable(b)
    ad, bd = a.value.data, b.value.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    out = Variable(Tensor._wrap(ad @ bd))
    if taping():
        def bw(g):
            _accum(a, g @ bd.T)
            _accum(b, ad.T @ g)
        record(out, (a, b), bw)
    return out


def concat(a, b, axis: int) -> Variable:
    a, b = as_variable(a), as_variable(b)
    sa, sb = a.shape, b.shape
    if (len(sa) != len(sb) or not 0 <= axis < len(sa)
            or any(d != axis and sa[d] != sb[d] for d in range(len(sa)))):
        raise ShapeError(f"concat shape mismatch on axis {axis}: {sa} vs {sb}")
    out = Variable(Tensor._wrap(np.concatenate([a.value.data, b.value.data], axis=axis)))
    if taping():
        split = sa[axis]
        def bw(g):
            _accum(a, np.take(g, range(split), axis=axis))
            _accum(b, np.take(g, range(split, g.shape[axis]), axis=axis))
        record(out, (a, b), bw)
    return out


def slice_axis(a, axis: int, start: int, stop: int) -> Variable:
    """Sub-range [start, stop) along one axis, as a copy; bounds must be non-empty and in range."""
    a = as_variable(a)
    shape = a.shape
    if not 0 <= axis < len(shape):
        raise ShapeError(f"slice axis {axis} out of range for shape {shape}")
    if not 0 <= start < stop <= shape[axis]:
        raise ShapeError(f"slice bounds [{start}, {stop}) invalid for axis {axis} of shape {shape}")
    idx = tuple(slice(start, stop) if d == axis else slice(None) for d in range(len(shape)))
    out = Variable(Tensor._wrap(a.value.data[idx].copy()))
    if taping():
        def bw(g):
            full = np.zeros(shape, dtype=np.float64)
            full[idx] = g
            _accum(a, full)
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


def finite_diff_check(f, x, eps: float = 1e-5) -> float:
    """Max relative error between f's tape gradient and central differences.

    ``f`` maps one Variable to a scalar Variable and must be a pure function
    of its argument (any internal randomness has to be fixed). The relative
    error per coordinate is |analytic - numeric| / max(|analytic|, |numeric|,
    1e-8); the maximum over coordinates is returned.

    Every evaluation receives its own Tensor object, so a memo keyed on
    tensor identity (``layers._memo``) never sees one object with two
    values. The probes' tensors share one read-only view of a single
    buffer, so no data is copied per probe.
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

    # One reusable probe buffer: with no tape active nothing reads it again
    # after an evaluation, so mutating it in place is safe.
    work = x.data.copy()
    flat = work.ravel()
    view = work.view()
    view.flags.writeable = False

    def evaluate() -> float:
        probe = object.__new__(Tensor)
        probe.data = view
        return f(Variable(probe)).value.item()

    numeric = np.empty(flat.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fu = evaluate()
        flat[i] = orig - eps
        fd = evaluate()
        flat[i] = orig
        numeric[i] = (fu - fd) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
