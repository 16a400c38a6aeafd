"""Reverse-mode differentiation: the variable, its node, the tape and the gradient check.

The operations of the network are written in :mod:`actionseg.layers`, and
its loss in :mod:`actionseg.train`. Each checks its operand shapes, computes
its value with numpy into a fresh read-only :class:`~actionseg.tensor.Tensor`
and, while a tape is active, records its backward rule with :func:`record`.
The one operation written here is :func:`slice_axis`, with which the model
trims its padded output.

The graph is built as it runs, and its record is kept apart from the
values. An operation returns a :class:`Variable` that owns its value; while
a :class:`Tape` is active it also gets a node (``Variable.node``), which
holds the backward rule and the gradient, and the operation appends that
node to the tape's ordered record. Each rule captures its parents' nodes
and only the arrays it reads. So the tape keeps rules and gradients, and no
value: an op output lives as long as the caller holds it or a rule reads
it, and no longer.

``backward`` replays the record in reverse creation order, which is a valid
reverse topological order because a node is always created after its
parents. Gradients accumulate additively when a node feeds several
consumers, and the fixed replay order makes two identical runs produce
bit-identical gradients. Backward consumes the graph as it goes: each node
leaves the record and drops its rule before the rule runs, so what only
that rule read is freed right after it, and a layer's rule may work in its
forward buffers. What stays are the leaf gradients and the nodes of the
variables the caller holds, each with its gradient.

With no tape active, the same operations just compute values and record
nothing, which is how inference runs without retaining a graph. The stack of
active tapes is per thread, so a tape records only the operations of the
thread that entered it.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor

__all__ = ["Node", "Variable", "Tape", "slice_axis", "finite_diff_check"]

class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_TAPES = _TapeStack()


class Node:
    """The graph record of one variable: its backward rule and its gradient.

    A node holds no value. :func:`record` makes the node of a taped op
    output; a leaf, or an output made with no tape active, gets one on first
    use (:func:`node_of`).
    """

    __slots__ = ("_backward", "_grad")

    def __init__(self, backward: Callable[[np.ndarray], None] | None = None):
        self._backward = backward
        self._grad: np.ndarray | None = None


class Variable:
    """A value, and while it is in a graph, the :class:`Node` that records it there.

    The variable owns its value; the node holds the backward rule and the
    accumulated gradient, which ``_backward``, ``_grad`` and ``grad`` read
    through. The tape holds nodes and a rule holds its parents' nodes, so
    neither keeps a value alive: an op output's value lives as long as the
    caller holds the variable or a rule reads the array.

    Leaf variables (no backward rule) carry data into the graph; mark them
    ``trainable`` to have :meth:`Tape.backward` accumulate their gradients.
    A node whose graph backward has consumed is a leaf too: fed to a new
    graph, it is a constant.
    """

    __slots__ = ("value", "name", "trainable", "node")

    def __init__(self, value, trainable: bool = False, name: str | None = None):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.name = name
        self.trainable = trainable
        self.node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def _backward(self) -> Callable[[np.ndarray], None] | None:
        return None if self.node is None else self.node._backward

    @_backward.setter
    def _backward(self, rule) -> None:
        node_of(self)._backward = rule

    @property
    def _grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node._grad

    @_grad.setter
    def _grad(self, arr) -> None:
        node_of(self)._grad = arr

    @property
    def grad(self) -> Tensor:
        if self._grad is None:
            return Tensor._wrap(np.zeros(self.value.shape))
        return Tensor._wrap(self._grad.copy())

    def zero_grad(self) -> None:
        if self.node is not None:
            self.node._grad = None

    def __repr__(self) -> str:
        return f"Variable({self.name or 'unnamed'}, shape={self.shape})"


class Tape:
    """Ordered record of the nodes of one forward pass."""

    def __init__(self):
        self.ops: list[Node] = []

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

        The record holds nodes: rules and gradients, no value. Backward
        consumes it: it pops each node and clears its rule before running
        it, holding no reference to the node meanwhile. So a rule runs once,
        and an array a rule read, or an intermediate gradient, is freed once
        the last rule that reads it has run. Afterwards ``ops`` is empty, leaf gradients stay accumulated on
        the variables until ``zero_grad``, and a variable the caller still
        holds (the loss, say) keeps its value and its own gradient.
        """
        if loss.value.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        _accum(loss, np.ones(loss.value.shape, dtype=np.float64))
        ops = self.ops
        while ops:
            node = ops.pop()
            rule, g = node._backward, node._grad
            node._backward = None
            del node
            if rule is not None and g is not None:
                rule(g)


def _accum(v: Node | Variable, arr: np.ndarray) -> None:
    # The first gradient is kept as given, not copied, and later ones are
    # added into it in place. So a rule must hand each parent a float64
    # array that the rule made, does not read again and gives no other
    # parent; disjoint row blocks of one fresh array count as separate arrays.
    # A rule hands it its parents' nodes; a variable reaches its node
    # through ``Variable._grad``.
    if v._grad is None:
        v._grad = arr
    else:
        v._grad += arr


def node_of(v: Variable) -> Node:
    """``v``'s node, made now if ``v`` has none yet (a leaf, or an untaped output)."""
    node = v.node
    if node is None:
        node = v.node = Node()
    return node


def record(out: Variable, backward) -> Variable:
    """Give ``out`` a node with ``backward``, and append it to the active tape.

    ``backward`` is to capture its parents' nodes (:func:`node_of`) and the
    arrays it reads, not the variables, so that it keeps no value it does
    not read.
    """
    node = out.node = Node(backward)
    _TAPES.tapes[-1].ops.append(node)
    return out


def taping() -> bool:
    return bool(_TAPES.tapes)


def as_variable(x) -> Variable:
    if isinstance(x, Variable):
        return x
    return Variable(x)


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
        src = node_of(a)
        def bw(g):
            full = np.zeros(shape, dtype=np.float64)
            full[idx] = g
            _accum(src, full)
        record(out, bw)
    return out


def finite_diff_check(f, x, eps: float = 1e-5) -> float:
    """Max relative error between f's tape gradient and central differences.

    ``f`` maps one Variable to a scalar Variable and must be a pure function
    of its argument (any internal randomness has to be fixed). The relative
    error per coordinate is |analytic - numeric| / max(|analytic|, |numeric|,
    1e-8); the maximum over coordinates is returned.

    Every evaluation receives its own Tensor object, so an entry keyed on
    tensor identity (``Conv1DParams.merged_kernels``,
    ``LSTMParams.stacked``) never sees one object with two values. The
    probes' tensors share one read-only view of a single buffer, so no data
    is copied per probe; as the buffer changes between probes, no tape may
    be active (ContractError), or its rules would read it.
    """
    if taping():
        raise ContractError("finite_diff_check must run with no tape active")
    if not 0 < eps < math.inf:
        raise ContractError(f"eps must be finite and positive, got {eps}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    tape = Tape()
    with tape:
        vx = Variable(x, trainable=True)
        out = f(vx)
    if out.value.size != 1:
        raise ContractError(f"finite_diff_check needs a scalar-valued f, got shape {out.value.shape}")
    tape.backward(out)
    analytic = (np.zeros(x.shape) if vx._grad is None else vx._grad).ravel()

    # One reusable probe buffer: with no tape active (checked on entry)
    # nothing reads it again after an evaluation, so it is mutated in place.
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
