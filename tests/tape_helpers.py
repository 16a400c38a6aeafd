"""Taped ops that the tests build their losses and probes from."""

import numpy as np

from actionseg.autodiff import Variable, _accum, as_variable, record, taping
from actionseg.tensor import Tensor


def dot(a, b) -> Variable:
    """sum(a * b) over all entries, as a scalar variable.

    Each operand that is trainable or computed gets the other operand times
    the output gradient; a constant gets nothing. Value and gradients are
    bit for bit those of summing the elementwise product.
    """
    a, b = as_variable(a), as_variable(b)
    a_data, b_data = a.value.data, b.value.data
    assert a_data.shape == b_data.shape, (a_data.shape, b_data.shape)
    out = Variable(Tensor._wrap(np.asarray((a_data * b_data).sum())))
    if taping():
        def bw(g):
            for v, other in ((a, b_data), (b, a_data)):
                if v.trainable or v._backward is not None:
                    _accum(v, g * other)
        record(out, bw)
    return out


def embed(v, base: np.ndarray, index) -> Variable:
    """``base`` with the entries ``base[index]`` taken from ``v``; only ``v`` gets a gradient.

    Lets a finite-difference check probe one corner of a large operand.
    """
    v = as_variable(v)
    arr = np.array(base, dtype=np.float64)
    assert arr[index].shape == v.shape, (arr[index].shape, v.shape)
    arr[index] = v.value.data
    out = Variable(Tensor._wrap(arr))
    if taping():
        record(out, lambda g: _accum(v, g[index].copy()))
    return out


def repeat_frames(x) -> Variable:
    """Each row of ``x`` twice in a row: the upsampling that the decoder's ops fuse.

    The gradient of an input row is the sum of the gradients of its two copies.
    """
    x = as_variable(x)
    xd = x.value.data
    out = Variable(Tensor._wrap(np.repeat(xd, 2, axis=0)))
    if taping():
        record(out, lambda g: _accum(x, g.reshape(len(xd), 2, -1).sum(axis=1)))
    return out
