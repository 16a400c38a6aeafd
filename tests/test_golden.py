"""Golden digests: the bytes of seeded runs per variant.

Five digests per variant, each pinned by sha256:

- one untaped ``model.forward`` at 2000 frames, d=64, w=30 and H=64: the
  probabilities. That is the inference path: the convolutions in the
  frequency domain and the recurrence that keeps no per-step history.
- one taped training step with dropout on, at 1375 frames, d=64, w=30 and
  H=64: the probabilities and every parameter gradient, in table order. At
  that length the convolutions take the frequency-domain path and each
  Bi-LSTM backward walks several blocks of steps.
- the gradient check's rows, ``repr(finite_difference_report(...))``, at
  k=1, d=2, 2 classes, w=3, H=2 and 6 frames.
- a seeded 3-epoch ``train`` with dropout 0.2 at k=2, w=5, H=8 on videos of
  about 60 frames: the checkpoint's bytes, then ``report.kv``'s.
- ``actionseg eval --split val`` on that run's dataset, saved as text and
  loaded back, and a checkpoint of the same training run on it: the bytes of
  ``report.kv``, from the feature text to the scores.

A change that moves any of those bits fails here; a change that moves them
on purpose records new digests and says which moved.

The bits depend on the BLAS build, whose kernels are chosen for the CPU at
run time, and on its thread count, and on the SIMD kernels numpy's own
ufuncs pick at run time. So the runs go to spawned workers with BLAS on one
thread, and on a build other than the one the digests were recorded with
(``worker_helpers.GOLDEN_BUILD``, which holds all three) the tests skip and
name both.
"""

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from actionseg.autodiff import Tape
from actionseg.cli import main
from actionseg.data import SynthConfig, load_dataset, save_dataset, synth_generate
from actionseg.model import VARIANTS, ModelConfig, build
from actionseg.train import cross_entropy_loss, finite_difference_report, train
from worker_helpers import GOLDEN_BUILD, blas_build, one_thread_pool, skip_unless_golden_build

GOLDEN_FORWARDS = {
    "full": "1b419c44137356691636b5455f9e7f38d4b5fe7403692d48180b5c56a8e8aeec",
    "high": "c38ee0e7262cde2f0d8b83ccdeb75508fad79615c8b7ff40a8a8d19b3e18ab78",
    "low": "1fd208eec9689294bcd3b46991f3e318a54440bfc693b4e2b71cba6106701e4d",
    "conv_only": "94a9d29700bba45b7959e924958a06adbce40b65d95f5d4791ce0725fab319a5",
}
GOLDEN_STEPS = {
    "full": "8c6c50920cdc341a1446d09c62d8599dd8f176ea4d2b0ba489d10f063b11b168",
    "high": "ec5b53991138498a7e7c2624c1c5e1361e17ae7feecae1f6772f6fcbf38e6a29",
    "low": "07b36083d3a918ff124b1ae44771dae2489c75644d6345acdb262af51bd33ab2",
    "conv_only": "0906f50458860c15d79174c59ea79ba2853f59d014110eebc1a0284db4746388",
}
# at k=1 and without dropout, "full" and "low" are the same network: one Bi-LSTM decoder layer
GOLDEN_REPORTS = {
    "full": "7573b90d5d833301b8282c1d40c0d8df2d1a2808190038968b7d99b1441d7b6f",
    "high": "bf7daf585e5e18e7f84173aa48870868fb3798c22c039774bcc07c837bd52689",
    "low": "7573b90d5d833301b8282c1d40c0d8df2d1a2808190038968b7d99b1441d7b6f",
    "conv_only": "5c91ee9f9947745e5bbb7e416525932ea8d0c9fa1877ff06f8d7bedb1276d89d",
}
GOLDEN_TRAINS = {
    "full": "bd7ad318fd9856f36bbe6c327db6a3086fe26ceb990ee71d4ba33ad628bb906e",
    "high": "6697f9b9d94b2b93bb99b78aa8aa14eff0b4c711cf331f67c7bce239c0c9832f",
    "low": "067fb547f644811d5ba2a2a4f626fdfc798e605da6720c5d7a20cfcd5da23d86",
    "conv_only": "653740136507f1dee93890a360c48b098808cfeada01c9af08f99a78f848e571",
}
GOLDEN_EVALS = {
    "full": "151327607686748964847b99b3087b48ee3448c553a84bed77d9b1802e9cc5f8",
    "high": "e095ffbddd3a17a5f7e4c00574aeb9a95d227c5b65279d8df0396f9c1f44cacf",
    "low": "c21dcbcdb0cdb99c33c50e23a0e7aaccc7eae2590fc7aa35bb6a190d7a552c57",
    "conv_only": "b0fe459f10c11f21254fe6d99c6b3e1f890e5c33cd047fcf356a899c6a264f1c",
}


def _forward_digest(variant: str) -> tuple[tuple[str, str, str], str]:
    """(this build, the digest of one seeded untaped forward of ``variant``)."""
    model = build(ModelConfig(input_dim=64, num_classes=10, variant=variant, k=2, conv_len=30,
                              hidden=64, seed=49))
    x = np.random.default_rng(50).normal(size=(2000, 64))
    probs = model.forward(x, training=False)
    return blas_build(), hashlib.sha256(probs.value.data.tobytes()).hexdigest()


def _step_digest(variant: str) -> tuple[tuple[str, str, str], str]:
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
    return blas_build(), digest.hexdigest()


def _report_digest(variant: str) -> tuple[tuple[str, str, str], str]:
    """(this build, the digest of ``variant``'s gradient-check rows at a toy size)."""
    model = build(ModelConfig(input_dim=2, num_classes=2, variant=variant, k=1, conv_len=3,
                              hidden=2, seed=44))
    rng = np.random.default_rng(45)
    rows = finite_difference_report(model, rng.normal(size=(6, 2)), rng.integers(0, 2, size=6))
    return blas_build(), hashlib.sha256(repr(rows).encode()).hexdigest()


def _train_dataset():
    return synth_generate(SynthConfig(num_classes=4, actions_per_video=5, sub_actions=(2, 3),
                                      frames_per_sub=(4, 6), feature_dim=6,
                                      videos_per_split={"train": 2, "val": 1}, seed=46))


def _train_run(variant: str, ds, checkpoint: Path):
    """The seeded 3-epoch run of ``variant`` on ``ds``, checkpointed at ``checkpoint``; its report."""
    model = build(ModelConfig(input_dim=6, num_classes=4, variant=variant, k=2, conv_len=5,
                              hidden=8, dropout_conv=0.2, dropout_lstm=0.2, seed=47))
    return train(model, ds.split("train"), ds.split("val"), epochs=3, seed=48,
                 checkpoint_path=checkpoint)


def _train_digest(variant: str) -> tuple[tuple[str, str, str], str]:
    """(this build, the digest of the checkpoint and ``report.kv`` of a seeded 3-epoch run)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        report = _train_run(variant, _train_dataset(), path)
        digest = hashlib.sha256(path.read_bytes())
    digest.update(report.to_kv().encode())
    return blas_build(), digest.hexdigest()


def _eval_digest(variant: str) -> tuple[tuple[str, str, str], str]:
    """(this build, the digest of ``eval``'s ``report.kv`` on the training run's text dataset)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = save_dataset(_train_dataset(), tmp / "data")
        checkpoint = tmp / "checkpoint.bin"
        _train_run(variant, load_dataset(manifest), checkpoint)
        config = tmp / "run.cfg"
        config.write_text(f"[data]\nmanifest = {manifest}\n")
        code = main(["eval", "--config", str(config), "--checkpoint", str(checkpoint),
                     "--split", "val", "--out", str(tmp / "eval")])
        assert code == 0, code
        digest = hashlib.sha256((tmp / "eval" / "report.kv").read_bytes())
    return blas_build(), digest.hexdigest()


@pytest.fixture(scope="module")
def pool():
    with pytest.MonkeyPatch.context() as mp, one_thread_pool(min(2, os.cpu_count() or 1), mp) as pool:
        yield pool


def _expect_golden(pool, digest, golden: dict[str, str]) -> None:
    """Run ``digest`` per variant in ``pool``; skip on another build, else compare with ``golden``."""
    results = dict(zip(VARIANTS, pool.map(digest, VARIANTS)))
    builds = {found for found, _ in results.values()}
    assert len(builds) == 1, builds
    (here,) = builds
    skip_unless_golden_build(here)
    assert {v: digest for v, (_, digest) in results.items()} == golden


def test_a_seeded_untaped_forward_gives_the_golden_bytes(pool):
    _expect_golden(pool, _forward_digest, GOLDEN_FORWARDS)


def test_a_seeded_taped_step_gives_the_golden_bytes(pool):
    _expect_golden(pool, _step_digest, GOLDEN_STEPS)


def test_the_gradient_check_gives_the_golden_rows(pool):
    _expect_golden(pool, _report_digest, GOLDEN_REPORTS)


def test_a_seeded_training_run_gives_the_golden_bytes(pool):
    _expect_golden(pool, _train_digest, GOLDEN_TRAINS)


def test_eval_of_a_text_dataset_gives_the_golden_report(pool):
    _expect_golden(pool, _eval_digest, GOLDEN_EVALS)


def test_the_build_key_holds_numpys_simd_dispatch(monkeypatch):
    # without AVX-512, np.exp gives other bits for 4.6 % of inputs, and four of
    # the golden digests move, while OpenBLAS still picks its SkylakeX kernels
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4")
    with one_thread_pool(1, monkeypatch) as pool:
        here = pool.submit(blas_build).result()
    assert here != GOLDEN_BUILD
    assert "X86_V4" not in here[2].split()
