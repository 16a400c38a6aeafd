"""The tests' one way to run work in other processes: spawned workers, BLAS on one thread.

Also the build whose bits the byte-pinning tests were recorded with (numpy,
the bits of its ufuncs and its BLAS), and the check that skips them, naming
both builds, on another one.
"""

import ctypes
import glob
import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.special import expit

# (numpy version, OpenBLAS configuration as the library reports it at run time,
# sha256 of the elementwise functions' bits on a fixed probe)
GOLDEN_BUILD = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
                "0afd3d691079da6201cd77bd0b90af3150b83eadbbce2928410b5c8c33e8bcc4")


def one_thread_pool(workers, monkeypatch):
    """A pool of spawned workers, each running BLAS on one thread.

    The workers already share the cores; with numpy's default thread count
    each would also start a BLAS thread per core, and the oversubscribed
    threads spin. One thread also fixes the bits of a product: OpenBLAS
    splits a large GEMM by its thread count.
    """
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"))


def blas_build() -> tuple[str, str, str]:
    """(numpy version, OpenBLAS configuration, elementwise bits) of this process.

    A numpy wheel bundles its OpenBLAS beside the package; its run-time
    configuration, read from the loaded library, names the kernels chosen
    for this CPU. Elsewhere the build-time configuration stands in. numpy's
    own ufuncs pick their SIMD kernels at run time too (``np.exp`` gives
    other bits without AVX-512), from the dispatch targets this CPU has and
    ``NPY_DISABLE_CPU_FEATURES`` leaves on. Some targets move no bits, so
    the key holds the bits themselves: a sha256 of every elementwise
    function the package calls, on 100,000 seeded values.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", f"{blas['name']} {blas['version']}")
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
            get_config = getattr(lib, name, None)
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                config = get_config().decode()
                break
    x = np.random.default_rng(0).normal(0.0, 4.0, 100_000)
    bits = hashlib.sha256()
    for f, v in ((np.exp, x), (np.log, np.abs(x)), (np.tanh, x), (np.sqrt, np.abs(x)),
                 (np.cos, x), (np.sin, x), (expit, x)):
        bits.update(f(v).tobytes())
    return np.__version__, config, bits.hexdigest()


def skip_unless_golden_build(here: tuple[str, str, str]) -> None:
    """Skip the calling test, naming both builds, unless ``here`` is :data:`GOLDEN_BUILD`."""
    if here != GOLDEN_BUILD:
        pytest.skip(f"these bits were recorded with numpy {GOLDEN_BUILD[0]} (elementwise bits "
                    f"{GOLDEN_BUILD[2][:12]}) and {GOLDEN_BUILD[1]!r}; this build has numpy "
                    f"{here[0]} (elementwise bits {here[2][:12]}) and {here[1]!r}")
