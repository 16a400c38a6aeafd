import pytest

import actionseg.layers
from actionseg.cli import main
from actionseg.model import ModelConfig, build, save_checkpoint

SYNTH_CFG = """
[synth]
classes = 4
actions_per_video = 4
sub_actions = 2,2
frames_per_sub = 4,6
feature_dim = 5
noise = 0.05
videos = train:2,test:1
seed = 31
"""

RUN_CFG = """
[data]
manifest = {manifest}
train_split = train
val_split = test

[model]
variant = full
k = 2
conv_len = 3
hidden = 8
dropout_conv = 0.0
dropout_lstm = 0.0

[train]
epochs = {epochs}
lr = {lr}
seed = 7
"""


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "synth.cfg").write_text(SYNTH_CFG)
    assert main(["synth", "--config", str(tmp_path / "synth.cfg"), "--out", str(tmp_path / "ds")]) == 0
    return tmp_path


def write_run_cfg(tmp_path, epochs=3, lr=2e-3, name="run.cfg"):
    cfg = tmp_path / name
    cfg.write_text(RUN_CFG.format(manifest=tmp_path / "ds" / "manifest.txt", epochs=epochs, lr=lr))
    return cfg


def kv_of(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def test_synth_writes_dataset_and_resolved_config(workdir):
    names = {p.name for p in (workdir / "ds").iterdir()}
    assert "manifest.txt" in names and "resolved.cfg" in names
    assert "train_0000.features.txt" in names and "train_0000.labels.txt" in names


def test_synth_unknown_key_exits_2_naming_key(tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text("[synth]\nclasses = 4\nwobble = 1\n")
    assert main(["synth", "--config", str(tmp_path / "bad.cfg"), "--out", str(tmp_path / "o")]) == 2
    assert "wobble" in capsys.readouterr().err


def test_synth_rerun_is_byte_identical(workdir):
    assert main(["synth", "--config", str(workdir / "synth.cfg"), "--out", str(workdir / "ds2")]) == 0
    for f in sorted((workdir / "ds").iterdir()):
        assert f.read_bytes() == (workdir / "ds2" / f.name).read_bytes()


def test_train_writes_reports_and_checkpoint(workdir):
    cfg = write_run_cfg(workdir, epochs=5)
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "run")]) == 0
    out = workdir / "run"
    assert (out / "checkpoint.bin").exists() and (out / "resolved.cfg").exists()
    kv = kv_of(out / "report.kv")
    assert kv["epochs"] == "5"
    assert "epoch.5.loss" in kv and "final.val.acc" in kv


def test_train_missing_manifest_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG.format(manifest=tmp_path / "nope" / "manifest.txt", epochs=1, lr=1e-3))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_train_divergence_exits_3_with_diagnostic(workdir, capsys):
    cfg = write_run_cfg(workdir, epochs=3, lr=1e308)
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "boom")]) == 3
    err = capsys.readouterr().err
    assert "epoch" in err and "sequence" in err


def test_train_unknown_config_key_exits_2(workdir, capsys):
    cfg = write_run_cfg(workdir)
    cfg.write_text(cfg.read_text() + "\nmystery = 1\n")
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "o")]) == 2
    assert "mystery" in capsys.readouterr().err


def test_eval_report_keys_and_bad_split(workdir, capsys):
    cfg = write_run_cfg(workdir, epochs=2)
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "run")]) == 0
    rc = main(["eval", "--config", str(cfg), "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
               "--out", str(workdir / "ev")])
    assert rc == 0
    kv = kv_of(workdir / "ev" / "report.kv")
    for key in ("acc", "edit", "f1@10", "f1@25", "f1@50"):
        assert key in kv
    rc = main(["eval", "--config", str(cfg), "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
               "--split", "nonesuch", "--out", str(workdir / "ev2")])
    assert rc == 2
    assert "nonesuch" in capsys.readouterr().err


def test_eval_on_training_split_after_overfit(workdir):
    cfg = write_run_cfg(workdir, epochs=60)
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "long")]) == 0
    rc = main(["eval", "--config", str(cfg), "--checkpoint", str(workdir / "long" / "checkpoint.bin"),
               "--split", "train", "--out", str(workdir / "evtrain")])
    assert rc == 0
    kv = kv_of(workdir / "evtrain" / "report.kv")
    assert float(kv["acc"]) >= 99.0


def test_predict_outputs_and_determinism(workdir):
    cfg = write_run_cfg(workdir, epochs=2)
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "run")]) == 0
    feat = workdir / "ds" / "test_0000.features.txt"
    for out in ("p1", "p2"):
        rc = main(["predict", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                   "--features", str(feat), "--labels", str(workdir / "ds" / "test_0000.labels.txt"),
                   "--out", str(workdir / out)])
        assert rc == 0
    t_len = int(feat.read_text().splitlines()[0].split()[0])
    labels = (workdir / "p1" / "labels.txt").read_text().splitlines()
    assert len(labels) == t_len
    assert (workdir / "p1" / "labels.txt").read_bytes() == (workdir / "p2" / "labels.txt").read_bytes()
    assert (workdir / "p1" / "timeline.txt").read_bytes() == (workdir / "p2" / "timeline.txt").read_bytes()


def test_predict_feature_width_mismatch_exits_2(workdir, tmp_path):
    cfg = write_run_cfg(workdir, epochs=1)
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "run")]) == 0
    bad = tmp_path / "bad.features.txt"
    bad.write_text("2 3\n0.0 0.0 0.0\n1.0 1.0 1.0\n")
    rc = main(["predict", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
               "--features", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_predict_non_utf8_parameter_name_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "checkpoint.bin"
    save_checkpoint(build(ModelConfig(input_dim=2, num_classes=2, k=1, conv_len=2, hidden=2)), ckpt)
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob.replace(b"enc1.conv.kernels", b"\xffnc1.conv.kernels", 1))
    feat = tmp_path / "x.features.txt"
    feat.write_text("2 2\n0.0 0.0\n1.0 1.0\n")
    rc = main(["predict", "--checkpoint", str(ckpt), "--features", str(feat), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_gradcheck_passes_on_small_config(capsys):
    rc = main(["gradcheck", "--variant", "full", "--depth", "1", "--frames", "4", "--dim", "2",
               "--classes", "2", "--conv-len", "2", "--hidden", "2",
               "--seed", "101", "--data-seed", "11"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "enc1.conv.kernels" in out and "out.W" in out and "worst" in out


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    true_norm_relu = actionseg.layers.norm_relu

    def corrupted(x):
        out = true_norm_relu(x)
        if out._backward is not None:
            bw = out._backward
            out._backward = lambda g: bw(g * 1.05)
        return out

    monkeypatch.setattr(actionseg.layers, "norm_relu", corrupted)
    rc = main(["gradcheck", "--variant", "full", "--depth", "1", "--frames", "4", "--dim", "2",
               "--classes", "2", "--conv-len", "2", "--hidden", "2",
               "--seed", "101", "--data-seed", "11"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_inspect_from_config_and_checkpoint(workdir, capsys):
    cfg = write_run_cfg(workdir, epochs=1)
    assert main(["inspect", "--config", str(cfg)]) == 0
    assert "enc1.conv" in capsys.readouterr().out
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "run")]) == 0
    assert main(["inspect", "--checkpoint", str(workdir / "run" / "checkpoint.bin")]) == 0
    assert main(["inspect"]) == 2


@pytest.mark.parametrize("ref_frames", ["0", "-4"])
def test_inspect_non_positive_ref_frames_exits_2(tmp_path, ref_frames, capsys):
    ckpt = tmp_path / "checkpoint.bin"
    save_checkpoint(build(ModelConfig(input_dim=2, num_classes=2, k=1, conv_len=2, hidden=2)), ckpt)
    assert main(["inspect", "--checkpoint", str(ckpt), "--ref-frames", ref_frames]) == 2
    captured = capsys.readouterr()
    assert "reference length" in captured.err and captured.out == ""


def test_train_rerun_byte_identical_outputs(workdir):
    cfg = write_run_cfg(workdir, epochs=3)
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "r1")]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "r2")]) == 0
    for name in ("report.kv", "checkpoint.bin", "resolved.cfg"):
        assert (workdir / "r1" / name).read_bytes() == (workdir / "r2" / name).read_bytes()
