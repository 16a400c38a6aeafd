"""The tests' one way to measure memory: tracemalloc around a block."""

import tracemalloc


class TracedMemory:
    """Traces the allocations of a ``with`` block; ``peak`` holds their peak in bytes after it.

    ``held()`` returns the bytes allocated in the block and not yet freed,
    and starts the peak afresh from there.
    """

    def __enter__(self) -> "TracedMemory":
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    def held(self) -> int:
        current = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return current
