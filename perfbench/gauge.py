"""Host-speed gauge: a fixed reference kernel, sampled through the measuring window.

On a shared VM the same code runs up to 1.8 times slower, in CPU time, for
seconds to minutes while other tenants load the host's cores and caches, and
a whole 25-second run can fall in such a stretch: the fastest timing of a
part then varied by 20-25 % between runs, and the median by more. The gauge
measures the host's speed beside the program instead of hoping for a quiet
moment. Between timed parts it runs a fixed kernel, at most every ``EVERY``
seconds, and a timing is scaled by ``REF_S`` over the kernel's median time
in the ``AROUND`` seconds either side of it: the time the part would take on
a host on which the kernel takes ``REF_S``.

The kernel is a sample of the kinds of work the engine does — recurrent
cells of small numpy calls at the gradcheck and at the model sizes, a GEMM
of an im2col-sized operand, large elementwise ufuncs and plain interpreter
work — written with numpy and Python only, so no change to the program
changes its cost. A slower program reads slower by its own factor; a slower
host slows both, and the scaling cancels most of it (pure-Python work
gains somewhat more than the kernel when the host is quiet).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

EVERY = 0.1     # wall seconds between two samples
AROUND = 0.3    # wall seconds either side of a timing whose samples scale it
# The kernel's median CPU time on the 2-core x86-64 VM the bounds were set
# on, so that scaled figures there read close to plain CPU milliseconds.
REF_S = 4.4e-3

_rng = np.random.default_rng(0)
_CELLS = [(_rng.normal(size=(t, d)), 0.1 * _rng.normal(size=(d, 4 * h)),
           0.1 * _rng.normal(size=(h, 4 * h))) for t, d, h in ((16, 3, 4), (24, 64, 64))]
_PATCHES, _KERNELS = _rng.normal(size=(2048, 192)), _rng.normal(size=(192, 64))
_ACTS = _rng.normal(size=(2048, 64))


def _cell_loop(x, w_x, w_h):
    hidden = w_h.shape[0]
    h, c = np.zeros(hidden), np.zeros(hidden)
    xw = x @ w_x
    for t in range(len(x)):
        z = xw[t] + h @ w_h
        i, f, o = (1.0 / (1.0 + np.exp(-z[k * hidden:(k + 1) * hidden])) for k in range(3))
        c = f * c + i * np.tanh(z[3 * hidden:])
        h = o * np.tanh(c)
    return h


def kernel() -> None:
    for cell in _CELLS:
        _cell_loop(*cell)
    _PATCHES @ _KERNELS
    np.tanh(_ACTS) * _ACTS + _ACTS
    table: dict[int, int] = {}
    for i in range(1500):
        table[i % 64] = table.get(i % 64, 0) + i * i


class Gauge:
    """Kernel timings (CPU seconds) with their wall-clock stamps, in time order."""

    def __init__(self):
        self.stamps: list[float] = []
        self.seconds: list[float] = []
        self._last = -float("inf")

    def poll(self) -> None:
        """Take a sample if ``EVERY`` seconds have passed since the last one."""
        if time.perf_counter() - self._last >= EVERY:
            started = time.process_time()
            kernel()
            self.seconds.append(time.process_time() - started)
            self._last = time.perf_counter()
            self.stamps.append(self._last)

    def scale(self, start: float, end: float) -> float:
        """Factor for a timing that ran from wall time ``start`` to ``end``."""
        lo = bisect.bisect_left(self.stamps, start - AROUND)
        hi = bisect.bisect_right(self.stamps, end + AROUND)
        near = self.seconds[lo:hi] or [self.seconds[min(lo, len(self.seconds) - 1)]]
        return REF_S / statistics.median(near)
