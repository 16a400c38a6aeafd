import dataclasses
import hashlib
import json
import struct
import sys
import tempfile
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from actionseg import layers
from actionseg.autodiff import Tape, Variable
from actionseg.errors import ConfigError, ContractError, LoadError, ShapeError
from actionseg.layers import Conv1DParams, DenseParams, LSTMParams
from actionseg.model import (VARIANTS, ModelConfig, build, describe, format_describe,
                             load_checkpoint, save_checkpoint)
from actionseg.tensor import Tensor
from actionseg.train import AdamState, adam_step, cross_entropy_loss, predict
from memory_helpers import TracedMemory

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
    for stage in m.table:
        cur = stage(cur)
        produced.append(cur.value.shape)
    assert produced == list(described.values())


def test_training_forward_with_dropout_needs_an_rng():
    x = RNG.normal(size=(8, 3))
    with pytest.raises(ContractError):
        build(toy_config(dropout_conv=0.3)).forward(x, training=True)
    assert build(toy_config()).forward(x, training=True).value.shape == (8, 2)


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
        for stage in m.table[:m.config.k]:
            cur = stage(cur)
        outputs.append(cur.value.data)
    for out in outputs[1:]:
        assert np.array_equal(out, outputs[0])


def test_every_exported_layer_op_runs_in_some_variant(monkeypatch):
    # an op that no stage calls, in a taped step with dropout or an untaped
    # forward of any variant, is code the network does not run
    ops = [name for name in layers.__all__ if not isinstance(getattr(layers, name), type)]
    called = set()
    for name in ops:
        def spy(*args, _name=name, _op=getattr(layers, name), **kwargs):
            called.add(_name)
            return _op(*args, **kwargs)
        monkeypatch.setattr(layers, name, spy)
    x = np.random.default_rng(7).normal(size=(9, 3))
    for variant in VARIANTS:
        model = build(ModelConfig(input_dim=3, num_classes=2, variant=variant, k=2, conv_len=3,
                                  hidden=2, dropout_conv=0.2, dropout_lstm=0.2, seed=5))
        with Tape() as tape:
            probs = model.forward(x, training=True, rng=np.random.default_rng(6))
            loss = cross_entropy_loss(probs, np.arange(9) % 2)
        tape.backward(loss)
        model.forward(x, training=False)
    assert sorted(set(ops) - called) == []


def test_an_untaped_forward_calls_no_dropout_op(monkeypatch):
    # an inference forward passes its stages no rng, so they run no dropout
    def called(*args, **kwargs):
        raise AssertionError("a dropout op ran in an inference forward")

    monkeypatch.setattr(layers, "dropout", called)
    monkeypatch.setattr(layers, "spatial_dropout", called)
    x = np.random.default_rng(8).normal(size=(9, 3))
    for variant in VARIANTS:
        model = build(toy_config(variant, dropout_conv=0.2, dropout_lstm=0.2))
        assert model.forward(x).value.shape == (9, 2)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_training_forward_at_rate_zero_needs_no_rng_and_gives_the_inference_bytes(variant):
    model = build(toy_config(variant))
    x = np.random.default_rng(8).normal(size=(9, 3))
    got = model.forward(x, training=True).value.data
    assert got.tobytes() == model.forward(x).value.data.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_an_inference_forward_draws_nothing_from_a_given_rng(variant):
    model = build(toy_config(variant, dropout_conv=0.2, dropout_lstm=0.2))
    x = np.random.default_rng(8).normal(size=(9, 3))
    r = np.random.default_rng(9)
    state = r.bit_generator.state
    got = model.forward(x, training=False, rng=r).value.data
    assert r.bit_generator.state == state
    assert got.tobytes() == model.forward(x).value.data.tobytes()
    model.forward(x, training=True, rng=r)  # a training pass does draw
    assert r.bit_generator.state != state


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


def test_a_taped_step_holds_the_same_memory_whether_or_not_the_length_needs_padding():
    # the first conv takes the frequency-domain path here, whose rule keeps
    # its input: a padded copy at 999 frames, and at 1000 a copy too, never
    # the caller's Tensor, which would save its 512 kB only when T % 4 == 0
    m = build(toy_config(input_dim=64, num_classes=4, conv_len=30, hidden=8))
    x = RNG.normal(size=(1000, 64))

    def step(t_len):
        features = Tensor(x[:t_len])
        tape = Tape()
        with TracedMemory() as mem:
            with tape:
                loss = cross_entropy_loss(m.forward(features), np.arange(t_len) % 4)
            tape.backward(loss)
        for v in m.params.values():
            v.zero_grad()
        return mem.peak

    step(999), step(1000)  # the first calls fill the layers' caches
    peaks = {t_len: step(t_len) for t_len in (999, 1000)}
    assert abs(peaks[1000] - peaks[999]) < 100e3, peaks


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
    for field, value in [("k", 1.5), ("k", True), ("hidden", 4.0), ("conv_len", "3"),
                         ("input_dim", None), ("num_classes", [2]), ("seed", -1), ("seed", 0.5),
                         ("seed", False)]:
        with pytest.raises(ConfigError, match=field):
            toy_config(**{field: value})


def test_parameter_blocks_reject_a_wrongly_shaped_field():
    model = build(toy_config("high"))
    kinds = {type(block) for stage in model.table for block in stage.blocks.values()}
    assert kinds == {Conv1DParams, LSTMParams, DenseParams}
    for stage in model.table:
        before = stage.params()
        for prefix, block in stage.blocks.items():
            values = {f.name: getattr(block, f.name) for f in dataclasses.fields(block)}
            for field, var in values.items():
                name = f"{prefix}.{field}"
                # an LSTM block has 12 fields; its error names the one at fault
                match = rf"\b{field}\b" if isinstance(block, LSTMParams) else None
                for shape in (var.shape[::-1] + (1,), var.shape[1:] or (var.shape[0] + 1,)):
                    wrong = Variable(np.zeros(shape))
                    with pytest.raises(ShapeError, match=match):
                        type(block)(**{**values, field: wrong})
                    with pytest.raises(ShapeError, match=match):
                        dataclasses.replace(block, **{field: wrong})
                probe = Variable(var.value)
                copy = dataclasses.replace(block, **{field: probe})
                swapped = dataclasses.replace(stage, blocks={**stage.blocks, prefix: copy}).params()
                assert [n for n, _ in swapped] == [n for n, _ in before]
                assert all(v is (probe if n == name else w) for (n, v), (_, w) in zip(swapped, before))
        assert stage.params() == before


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


# sha256 of every parameter's bytes in table order for toy_config(variant):
# the Glorot draws of the seeded PCG64 stream, in order
GOLDEN_DRAWS = {
    "full": "e80d1e8c695725710f8e5d6d91ec35bc46d29009a53220dc1659d3ded107a281",
    "high": "a2da62642c7b22f28e0d9bc077452caf43bcd8bb5c09ada24203a8445a1d0e1b",
    "low": "175bf3279ea2e5c174fd9df4dbf4788335c7e0a713023a2bd1c669e458a82e3a",
    "conv_only": "c78ea6ce603848667345556708e3b1fc33ec1dd42ed6ba0d7d64743909782fa4",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_build_draws_the_golden_weights(variant):
    m = build(toy_config(variant))
    blob = b"".join(var.value.data.tobytes() for var in m.params.values())
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DRAWS[variant]


def test_loaded_parameters_are_aligned_arrays_of_their_own(tmp_path):
    # records sit at any byte offset of the file; numpy's matmul on an
    # unaligned view runs slower and, for the convolutions, gives other bits
    m = build(toy_config("high"))
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(m, path)
    for name, var in load_checkpoint(path).params.items():
        arr = var.value.data
        assert arr.flags.aligned and not arr.flags.writeable, name
        # its own data, or a row of an aligned read-only array with its own (the
        # LSTM gate groups), and never a view of the file's bytes
        base = arr if arr.flags.owndata else arr.base
        assert base.flags.owndata and base.flags.aligned and not base.flags.writeable, name
        assert base is arr or any(row.ctypes.data == arr.ctypes.data and row.shape == arr.shape
                                  for row in base), name
        assert arr.dtype == np.float64 and np.array_equal(arr, m.params[name].value.data), name


def _assert_gate_groups_are_shared(model):
    """Each LSTM block's W_x*, W_h* and b_* are consecutive rows of one read-only array each,
    and its stacked weights are views of those arrays."""
    units = [block for stage in model.table for block in stage.blocks.values()
             if isinstance(block, LSTMParams)]
    assert units
    for unit in units:
        stacked = unit.stacked()
        for group, view in zip((LSTM_FIELDS[:4], LSTM_FIELDS[4:8], LSTM_FIELDS[8:]),
                               (stacked.wx, stacked.wh_t, stacked.b)):
            arrays = [getattr(unit, name).value.data for name in group]
            base = arrays[0].base
            assert isinstance(base, np.ndarray) and base.shape == (4, *arrays[0].shape), group
            assert not base.flags.writeable, group
            for k, arr in enumerate(arrays):
                assert arr.base is base and arr.ctypes.data == base[k].ctypes.data, (group, k)
                assert np.shares_memory(view, arr), (group, k)


@pytest.mark.parametrize("variant", ["full", "high", "low"])
def test_lstm_gate_weights_are_held_once(tmp_path, variant):
    built = build(toy_config(variant))
    _assert_gate_groups_are_shared(built)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(built, path)
    _assert_gate_groups_are_shared(load_checkpoint(path))
    state = AdamState(lr=0.01)
    params = list(built.params.values())
    for _ in range(2):
        adam_step(params, [np.full(p.shape, 0.5) for p in params], state)
    _assert_gate_groups_are_shared(built)


def test_an_untaped_predict_holds_no_copy_of_the_weights(tmp_path):
    # the stacked LSTM weights were copies kept on the model: 1.45 MB at this size
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(build(ModelConfig(input_dim=64, num_classes=10, variant="full", k=2,
                                      conv_len=30, hidden=64, seed=3)), path)
    warm, model = load_checkpoint(path), load_checkpoint(path)
    x = np.random.default_rng(61).normal(size=(1000, 64))
    predict(warm, x)  # fills the module caches (_dft, _phase_taps) at these shapes
    with TracedMemory() as mem:
        labels = predict(model, x)
        held = mem.held()
    assert labels.shape == (1000,)
    assert held < 0.1e6, held


def test_checkpoint_with_a_parameter_stored_twice_is_rejected(tmp_path):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(build(toy_config("conv_only")), path)
    blob = path.read_bytes()
    (size,) = struct.unpack_from("<I", blob, 12)
    count_at = 16 + size
    (count,) = struct.unpack_from("<I", blob, count_at)
    first = count_at + 4
    (name_len,) = struct.unpack_from("<H", blob, first)
    (ndim,) = struct.unpack_from("<B", blob, first + 2 + name_len)
    shape = struct.unpack_from(f"<{ndim}I", blob, first + 3 + name_len)
    end = first + 3 + name_len + 4 * ndim + 8 * int(np.prod(shape))
    record = bytearray(blob[first:end])
    record[-8:] = struct.pack("<d", 42.0)  # the later copy would win
    path.write_bytes(blob[:count_at] + struct.pack("<I", count + 1) + blob[first:] + bytes(record))
    with pytest.raises(LoadError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: parameter 'enc1.conv.kernels' is stored twice"


def test_checkpoint_claiming_a_large_model_allocates_only_what_it_holds(tmp_path):
    # a full model at hidden 400 holds 46 MB of weights; this file holds none
    config = ModelConfig(input_dim=64, num_classes=10, variant="full", k=2, conv_len=30, hidden=400)
    raw = json.dumps(dataclasses.asdict(config), sort_keys=True).encode("utf-8")
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(b"ASEGCKP1" + struct.pack("<II", 1, len(raw)) + raw + struct.pack("<I", 0))
    assert path.stat().st_size == 167
    with TracedMemory() as mem:
        with pytest.raises(LoadError, match="missing parameters"):
            load_checkpoint(path)
    assert mem.peak < 1e6, mem.peak


@pytest.mark.parametrize("variant", ["full", "conv_only"])
def test_checkpoint_load_holds_each_byte_once(tmp_path, variant):
    # the 3.92 MB full checkpoint peaked at 7.90 MB when the whole file was
    # read and each record copied out of it
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(build(ModelConfig(input_dim=64, num_classes=10, variant=variant, k=2,
                                      conv_len=30, hidden=64, seed=3)), path)
    with TracedMemory() as mem:
        load_checkpoint(path)
    assert mem.peak < 1.2 * path.stat().st_size, mem.peak / path.stat().st_size


@lru_cache(maxsize=None)
def _checkpoint_parts(variant: str) -> tuple[bytes, dict, bytes]:
    """(magic + version, config, tensor records) of a small model's checkpoint."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save_checkpoint(build(ModelConfig(input_dim=2, num_classes=3, variant=variant, k=1,
                                          conv_len=2, hidden=2, seed=5)), path)
        blob = path.read_bytes()
    (size,) = struct.unpack_from("<I", blob, 12)
    return blob[:12], json.loads(blob[16:16 + size]), blob[16 + size:]


def _checkpoint_bytes(variant: str, raw_config: bytes | None = None, **changes) -> bytes:
    head, config, records = _checkpoint_parts(variant)
    if raw_config is None:
        raw_config = json.dumps({**config, **changes}, sort_keys=True).encode("utf-8")
    return head + struct.pack("<I", len(raw_config)) + raw_config + records


_JSON_VALUES = st.one_of(st.integers(-3, 40), st.floats(), st.booleans(), st.none(),
                         st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
                         st.sampled_from(VARIANTS))


@st.composite
def _mutated_checkpoints(draw) -> bytes:
    variant = draw(st.sampled_from(VARIANTS))
    _, config, _ = _checkpoint_parts(variant)
    config = dict(config)
    for key in draw(st.lists(st.sampled_from(sorted(config) + ["extra"]), max_size=3)):
        if draw(st.booleans()):
            config[key] = draw(_JSON_VALUES)
        else:
            config.pop(key, None)
    raw = json.dumps(config, sort_keys=True).encode("utf-8")
    raw = draw(st.one_of(st.just(raw), st.binary(max_size=24)))
    blob = bytearray(_checkpoint_bytes(variant, raw))
    # byte edits in the header, the config block or the first records, where
    # the sizes, names and shapes sit; a cut; stray bytes at the end
    regions = [(lo, hi) for lo, hi in [(6, 16), (16, 16 + len(raw)), (16 + len(raw), len(blob))]
               if hi > lo]
    for lo, hi in draw(st.lists(st.sampled_from(regions), max_size=3)):
        blob[draw(st.integers(lo, min(hi, lo + 64) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.one_of(st.none(), st.integers(0, len(blob))))
    return bytes(blob[:cut]) + draw(st.binary(max_size=8))


def test_checkpoint_bytes_load_or_raise_load_error(tmp_path):
    path = tmp_path / "checkpoint.bin"

    @given(_mutated_checkpoints())
    @example(_checkpoint_bytes("full", k=1.5))
    @example(_checkpoint_bytes("low", seed=-1))
    @example(_checkpoint_bytes("high", hidden=True))
    @example(_checkpoint_bytes("conv_only", raw_config=b"[1, 2]"))
    def loads_or_raises_load_error(blob):
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except LoadError:
            pass

    loads_or_raises_load_error()


def test_format_describe_mentions_every_stage():
    text = format_describe(build(toy_config("high")))
    for token in ("enc1.conv", "enc2.conv", "mid.lstm", "dec1.conv", "dec2.conv", "out", "total"):
        assert token in text
