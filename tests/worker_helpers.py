"""The tests' one way to run work in other processes: spawned workers, BLAS on one thread."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor


def one_thread_pool(workers, monkeypatch):
    """A pool of spawned workers, each running BLAS on one thread.

    The workers already share the cores; with numpy's default thread count
    each would also start a BLAS thread per core, and the oversubscribed
    threads spin. One thread also fixes the bits of a product: OpenBLAS
    splits a large GEMM by its thread count.
    """
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"))
