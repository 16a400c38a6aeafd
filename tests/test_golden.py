"""Golden digests: the bytes of one seeded taped training step per variant.

A digest is the sha256 of the probabilities and every parameter gradient,
in table order, of one taped step with dropout on, at 1375 frames, d=64,
w=30 and H=64. At that length the convolutions take the frequency-domain
path and each Bi-LSTM backward walks several blocks of steps. A change that
moves any of those bits fails here; a change that moves them on purpose
records new digests and says which moved.

The bits depend on the BLAS build, whose kernels are chosen for the CPU at
run time, and on its thread count. So the step runs in a spawned worker with
BLAS on one thread, and on a build other than the one the digests were
recorded with the test skips and names both.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest

from actionseg.autodiff import Tape
from actionseg.model import VARIANTS, ModelConfig, build
from actionseg.train import cross_entropy_loss
from worker_helpers import one_thread_pool

# (numpy version, OpenBLAS configuration as the library reports it at run time)
GOLDEN_BUILD = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64")
GOLDEN_STEPS = {
    "full": "8c6c50920cdc341a1446d09c62d8599dd8f176ea4d2b0ba489d10f063b11b168",
    "high": "ec5b53991138498a7e7c2624c1c5e1361e17ae7feecae1f6772f6fcbf38e6a29",
    "low": "07b36083d3a918ff124b1ae44771dae2489c75644d6345acdb262af51bd33ab2",
    "conv_only": "0906f50458860c15d79174c59ea79ba2853f59d014110eebc1a0284db4746388",
}


def _blas_build() -> tuple[str, str]:
    """(numpy version, OpenBLAS configuration), read from the loaded library where it can be.

    A numpy wheel bundles its OpenBLAS beside the package; its run-time
    configuration names the kernels chosen for this CPU. Elsewhere the
    build-time configuration stands in.
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
    return np.__version__, config


def _step_digest(variant: str) -> tuple[tuple[str, str], str]:
    """(this build, the digest of one seeded taped step of ``variant``)."""
    model = build(ModelConfig(input_dim=64, num_classes=10, variant=variant, k=2, conv_len=30,
                              hidden=64, seed=41))
    rng = np.random.default_rng(42)
    x = rng.normal(size=(1375, 64))
    labels = rng.integers(0, 10, size=1375)
    tape = Tape()
    with tape:
        probs = model.forward(x, training=True, rng=np.random.default_rng(43))
        loss = cross_entropy_loss(probs, labels)
    tape.backward(loss)
    digest = hashlib.sha256(probs.value.data.tobytes())
    for var in model.params.values():
        digest.update(var._grad.tobytes())
    return _blas_build(), digest.hexdigest()


def test_a_seeded_taped_step_gives_the_golden_bytes(monkeypatch):
    with one_thread_pool(min(2, os.cpu_count() or 1), monkeypatch) as pool:
        results = dict(zip(VARIANTS, pool.map(_step_digest, VARIANTS)))
    builds = {found for found, _ in results.values()}
    assert len(builds) == 1, builds
    (here,) = builds
    if here != GOLDEN_BUILD:
        pytest.skip(f"golden digests were recorded with numpy {GOLDEN_BUILD[0]} and "
                    f"{GOLDEN_BUILD[1]!r}; this build has numpy {here[0]} and {here[1]!r}")
    assert {v: digest for v, (_, digest) in results.items()} == GOLDEN_STEPS
