import sys
import threading

import numpy as np
import pytest

from actionseg.autodiff import Tape, Variable
from actionseg.errors import ConfigError, LoadError, ShapeError
from actionseg.model import (VARIANTS, ModelConfig, build, describe, format_describe,
                             load_checkpoint, save_checkpoint)

RNG = np.random.default_rng(60)

LSTM_FIELDS = ("W_xi", "W_xf", "W_xo", "W_xc", "W_hi", "W_hf", "W_ho", "W_hc",
               "b_i", "b_f", "b_o", "b_c")


def _conv(prefix):
    return [f"{prefix}.kernels", f"{prefix}.bias"]


def _bilstm(prefix):
    return [f"{prefix}.{d}.{f}" for d in ("fwd", "bwd") for f in LSTM_FIELDS]


_ENC = _conv("enc1.conv") + _conv("enc2.conv")
_OUT = ["out.W", "out.b"]
# parameter names in order at k=2: the checkpoint layout
GOLDEN_NAMES = {
    "full": _ENC + _bilstm("dec1.lstm") + _bilstm("dec2.lstm") + _OUT,
    "high": _ENC + _bilstm("mid.lstm") + _conv("dec1.conv") + _conv("dec2.conv") + _OUT,
    "low": _ENC + _conv("dec1.conv") + _bilstm("dec2.lstm") + _OUT,
    "conv_only": _ENC + _conv("dec1.conv") + _conv("dec2.conv") + _OUT,
}


def toy_config(variant="full", **kw):
    base = dict(input_dim=3, num_classes=2, variant=variant, k=2, conv_len=3,
                hidden=4, dropout_conv=0.0, dropout_lstm=0.0, seed=13)
    base.update(kw)
    return ModelConfig(**base)


def test_encoder_filter_counts():
    cfg = toy_config()
    assert (cfg.filters(1), cfg.filters(2)) == (64, 96)
    m = build(cfg)
    assert m.params["enc1.conv.kernels"].value.shape == (64, 3, 3)
    assert m.params["enc2.conv.kernels"].value.shape == (96, 64, 3)


def test_full_decoder_width_is_twice_hidden():
    m = build(toy_config(hidden=64, input_dim=8))
    rows = {name: shape for name, _, shape, _ in describe(m)}
    assert rows["dec1.lstm"][1] == 128 and rows["dec2.lstm"][1] == 128


def test_high_and_conv_only_share_names_except_middle_block():
    high = build(toy_config("high"))
    conv = build(toy_config("conv_only"))
    high_names = set(high.params)
    conv_names = set(conv.params)
    assert conv_names <= high_names
    assert all(n.startswith("mid.lstm.") for n in high_names - conv_names)
    assert len(high_names - conv_names) == 24


def test_high_lists_exactly_one_bilstm():
    rows = describe(build(toy_config("high")))
    assert sum(1 for _, kind, _, _ in rows if kind == "bilstm") == 1


def test_describe_parameter_count_example():
    m = build(ModelConfig(input_dim=128, num_classes=17, variant="full", k=2,
                          conv_len=30, hidden=64))
    counts = {name: n for name, _, _, n in describe(m)}
    assert counts["enc1.conv"] == 64 * (128 * 30) + 64 == 245824


def test_describe_internal_lengths_at_t100():
    m = build(ModelConfig(input_dim=128, num_classes=17, variant="full", k=2,
                          conv_len=30, hidden=64))
    shapes = {name: shape for name, _, shape, _ in describe(m, ref_t=100)}
    assert shapes["enc1.pool"][0] == 50
    assert shapes["enc2.pool"][0] == 25
    assert shapes["dec1.lstm"][0] == 50
    assert shapes["dec2.lstm"][0] == 100
    assert shapes["out"] == (100, 17)


def test_parameter_count_deterministic_across_builds():
    a = build(toy_config())
    b = build(toy_config())
    assert a.parameter_count() == b.parameter_count()
    for name in a.params:
        assert np.array_equal(a.params[name].value.data, b.params[name].value.data)


def test_variants_share_encoder_given_same_seed():
    models = {v: build(toy_config(v)) for v in VARIANTS}
    ref = models["full"]
    for v, m in models.items():
        for name in ("enc1.conv.kernels", "enc1.conv.bias", "enc2.conv.kernels", "enc2.conv.bias"):
            assert np.array_equal(m.params[name].value.data, ref.params[name].value.data), (v, name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_parameter_names_and_order_at_k2(variant):
    assert list(build(toy_config(variant)).params) == GOLDEN_NAMES[variant]


@pytest.mark.parametrize("variant", VARIANTS)
def test_describe_stage_shapes_match_stages(variant):
    m = build(toy_config(variant))
    t = 4 * 2 ** m.config.k
    described = {}  # the last row of each stage is the stage's output
    for name, _, shape, _ in describe(m, ref_t=t)[1:]:
        described[name.split(".")[0]] = shape
    cur = Variable(RNG.normal(size=(t, 3)))
    produced = []
    for stage in m.stages():
        cur = stage(cur)
        produced.append(cur.value.shape)
    assert produced == list(described.values())


def test_tapes_are_per_thread():
    # while one thread holds a tape, forwards on other threads record nothing
    # onto it, and a tape entered on another thread records only that thread
    m = build(toy_config("full", k=1))
    x = RNG.normal(size=(8, 3))
    ref = Tape()
    with ref:
        m.forward(x)
    counts, errors = [], []

    def infer():
        try:
            m.forward(x)
            tape = Tape()
            with tape:
                m.forward(x)
            counts.append(len(tape.ops))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    held = Tape()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with held:
            workers = [threading.Thread(target=infer) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and errors == []
    assert len(held.ops) == 0
    assert counts == [len(ref.ops)] * 4


def test_variants_share_encoder_outputs_given_same_seed():
    from actionseg.autodiff import Variable

    x = RNG.normal(size=(16, 3))
    outputs = []
    for v in VARIANTS:
        m = build(toy_config(v))
        arr, _ = m.prepare_input(x)
        cur = Variable(arr)
        for stage in m.stages()[:m.config.k]:
            cur = stage(cur)
        outputs.append(cur.value.data)
    for out in outputs[1:]:
        assert np.array_equal(out, outputs[0])


def test_forward_output_lengths_and_probability_rows():
    for variant in VARIANTS:
        m = build(toy_config(variant))
        for t_len in (1, 2, 3, 99, 100):
            x = RNG.normal(size=(t_len, 3))
            out = m.forward(x).value
            assert out.shape == (t_len, 2), (variant, t_len)
            assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) <= 1e-12


def test_forward_pads_and_trims():
    m = build(toy_config())
    x = RNG.normal(size=(99, 3))
    padded, t_len = m.prepare_input(x)
    assert padded.shape == (100, 3) and t_len == 99
    assert np.array_equal(padded[-1], padded[98])


def test_forward_zero_input_is_valid_distribution():
    m = build(toy_config(num_classes=5))
    out = m.forward(np.zeros((12, 3))).value.data
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_forward_feature_width_mismatch():
    m = build(toy_config())
    with pytest.raises(ShapeError):
        m.forward(RNG.normal(size=(8, 5)))


def test_forward_deterministic_given_seed():
    x = RNG.normal(size=(17, 3))
    a = build(toy_config()).forward(x).value.data
    b = build(toy_config()).forward(x).value.data
    assert np.array_equal(a, b)


def test_forget_gate_bias_starts_at_one():
    m = build(toy_config("full"))
    assert np.array_equal(m.params["dec1.lstm.fwd.b_f"].value.data, np.ones(4))
    assert np.array_equal(m.params["dec1.lstm.fwd.b_i"].value.data, np.zeros(4))


def test_config_validation():
    with pytest.raises(ConfigError):
        toy_config(variant="bogus")
    with pytest.raises(ConfigError):
        toy_config(k=0)
    with pytest.raises(ConfigError):
        toy_config(k=5)
    with pytest.raises(ConfigError):
        toy_config(dropout_conv=1.0)
    with pytest.raises(ConfigError):
        toy_config(num_classes=1)


def test_checkpoint_round_trip(tmp_path):
    m = build(toy_config("low"))
    x = RNG.normal(size=(10, 3))
    before = m.forward(x).value.data
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(m, path)
    restored = load_checkpoint(path)
    assert restored.config == m.config
    for name in m.params:
        assert np.array_equal(restored.params[name].value.data, m.params[name].value.data)
    assert np.array_equal(restored.forward(x).value.data, before)


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    m = build(toy_config())
    save_checkpoint(m, tmp_path / "a.bin")
    save_checkpoint(m, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_checkpoint_truncated_rejected(tmp_path):
    m = build(toy_config())
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(m, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-20])
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    m = build(toy_config())
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(m, path)
    blob = path.read_bytes()
    # flip hidden=4 to hidden=5 inside the embedded config: stored tensor
    # shapes no longer match the rebuilt model
    patched = blob.replace(b'"hidden": 4', b'"hidden": 5', 1)
    assert patched != blob
    path.write_bytes(patched)
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\0" * 64)
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_format_describe_mentions_every_stage():
    text = format_describe(build(toy_config("high")))
    for token in ("enc1.conv", "enc2.conv", "mid.lstm", "dec1.conv", "dec2.conv", "out", "total"):
        assert token in text
