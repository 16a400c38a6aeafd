"""Dense 64-bit real arrays: the value type every layer computes on.

Tensors are immutable values: every operation returns a fresh Tensor and the
underlying buffer is marked read-only, so concurrent use on distinct inputs
needs no locking. Storage is row-major with time as the leading axis for all
sequence data (frames x channels).

This module holds only the value type. The operations are written once, in
:mod:`actionseg.layers`: with no tape active (:mod:`actionseg.autodiff`) they
just compute values, so they serve inference as well as training.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ShapeError

__all__ = ["Tensor"]


class Tensor:
    """Immutable dense array of float64 values.

    The flat buffer always holds exactly prod(shape) elements and every
    dimension is >= 1. Rank-0 tensors (shape ()) represent scalars.
    """

    __slots__ = ("data",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        _check_dims(arr.shape)
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path: takes ownership of a freshly computed array. Every
        # op pays for it, so an array that is already a C-contiguous float64
        # ndarray (nearly all) is only checked, not passed through np.asarray,
        # and setflags is called directly (``flags.writeable = False`` calls it
        # through a Python-level method lookup).
        if type(arr) is not np.ndarray or arr.dtype is not _FLOAT64 or not arr.flags.c_contiguous:
            arr = np.asarray(arr, dtype=np.float64, order="C")
        _check_dims(arr.shape)
        arr.setflags(write=False)
        out = object.__new__(cls)
        out.data = arr
        return out

    @classmethod
    def zeros(cls, shape: Sequence[int] | int) -> "Tensor":
        return cls._wrap(np.zeros(shape, dtype=np.float64))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return self.data.item()

    def tolist(self):
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, data={self.data.tolist()!r})"


_FLOAT64 = np.dtype(np.float64)


def _check_dims(shape: tuple[int, ...]) -> None:
    if 0 in shape:  # an array's sizes are never negative
        raise ShapeError(f"all dimension sizes must be >= 1, got shape {shape}")
