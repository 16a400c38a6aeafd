import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import actionseg.layers
from actionseg.cli import _SYNTH_KEYS, RunConfig, _render, main, parse_run_config, parse_synth_config
from actionseg.errors import ConfigError
from actionseg.model import VARIANTS, ModelConfig, build, save_checkpoint

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


def test_eval_on_an_empty_split_exits_2_naming_it(workdir, capsys):
    manifest = workdir / "ds" / "manifest.txt"
    manifest.write_text(manifest.read_text() + "\n[split held_out]\n")
    ckpt = workdir / "checkpoint.bin"
    save_checkpoint(build(ModelConfig(input_dim=5, num_classes=4, k=2, conv_len=3, hidden=8)), ckpt)
    cfg = write_run_cfg(workdir, epochs=1)
    rc = main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--split", "held_out",
               "--out", str(workdir / "ev")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "split 'held_out' is empty" in err
    assert "mismatch" not in err
    assert not (workdir / "ev" / "report.kv").exists()


@pytest.mark.parametrize("input_dim, num_classes, named", [
    (6, 4, "checkpoint expects feature dim 6, manifest has 5"),
    (5, 3, "checkpoint expects 3 classes, manifest has 4"),
], ids=["feature-dim", "classes"])
def test_eval_with_a_checkpoint_that_does_not_fit_the_manifest_exits_2(workdir, capsys, input_dim,
                                                                       num_classes, named):
    ckpt = workdir / "checkpoint.bin"
    save_checkpoint(build(ModelConfig(input_dim=input_dim, num_classes=num_classes, k=1, conv_len=2,
                                      hidden=2)), ckpt)
    cfg = write_run_cfg(workdir, epochs=1)
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(workdir / "ev")]) == 2
    captured = capsys.readouterr()
    assert f"error: {named}" in captured.err and captured.out == ""
    assert not (workdir / "ev" / "report.kv").exists()


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


@pytest.mark.parametrize("features, labels, named", [
    ("dir", None, "cannot read"),
    ("latin1", None, "not UTF-8"),
    ("ok", "dir", "cannot read"),
    ("ok", "latin1", "not UTF-8"),
], ids=["features-dir", "features-latin1", "labels-dir", "labels-latin1"])
def test_predict_unreadable_or_non_utf8_dataset_file_exits_2(tmp_path, features, labels, named, capsys):
    ckpt = tmp_path / "checkpoint.bin"
    save_checkpoint(build(ModelConfig(input_dim=2, num_classes=2, k=1, conv_len=2, hidden=2)), ckpt)
    files = {"dir": tmp_path / "d", "latin1": tmp_path / "x.latin1.txt", "ok": tmp_path / "x.features.txt"}
    files["dir"].mkdir()
    files["latin1"].write_bytes("café\n".encode("latin-1"))
    files["ok"].write_text("2 2\n0.0 0.0\n1.0 1.0\n")
    argv = ["predict", "--checkpoint", str(ckpt), "--features", str(files[features]),
            "--out", str(tmp_path / "o")]
    if labels is not None:
        argv += ["--labels", str(files[labels])]
    assert main(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inspect", "predict"])
def test_a_checkpoint_that_is_a_directory_exits_2(tmp_path, command, capsys):
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.mkdir()
    feat = tmp_path / "x.features.txt"
    feat.write_text("2 2\n0.0 0.0\n1.0 1.0\n")
    argv = {"inspect": ["inspect", "--checkpoint", str(ckpt)],
            "predict": ["predict", "--checkpoint", str(ckpt), "--features", str(feat),
                        "--out", str(tmp_path / "o")]}[command]
    assert main(argv) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["synth", "train", "eval", "predict"])
def test_an_out_path_that_is_or_lies_under_a_file_exits_2_naming_it(workdir, command, under, capsys):
    taken = workdir / "taken"
    taken.write_text("")
    out = taken / "run" if under else taken
    ckpt = workdir / "checkpoint.bin"
    save_checkpoint(build(ModelConfig(input_dim=5, num_classes=4, k=2, conv_len=3, hidden=8)), ckpt)
    cfg = str(write_run_cfg(workdir, epochs=1))
    argv = {"synth": ["synth", "--config", str(workdir / "synth.cfg")],
            "train": ["train", "--config", cfg],
            "eval": ["eval", "--config", cfg, "--checkpoint", str(ckpt)],
            "predict": ["predict", "--checkpoint", str(ckpt),
                        "--features", str(workdir / "ds" / "test_0000.features.txt")]}[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: {out}: cannot make output directory" in capsys.readouterr().err
    assert taken.read_text() == ""


def test_gradcheck_passes_on_small_config(capsys):
    rc = main(["gradcheck", "--variant", "full", "--depth", "1", "--frames", "4", "--dim", "2",
               "--classes", "2", "--conv-len", "2", "--hidden", "2",
               "--seed", "101", "--data-seed", "11"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "enc1.conv.kernels" in out and "out.W" in out and "worst" in out


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradcheck_on_a_length_that_needs_padding_passes(variant, capsys):
    # 5 frames pad to 6 at depth 1, so the report trims the padded output
    model = build(ModelConfig(input_dim=3, num_classes=2, variant=variant, k=1))
    assert model.prepare_input(np.zeros((5, 3)))[0].shape[0] == 6
    assert main(["gradcheck", "--variant", variant, "--depth", "1", "--frames", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[::2] == ["worst", "ok"]


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


@pytest.mark.parametrize("errs", [(1e-6, float("nan"), 2e-6), (float("nan"), 1e-6), (1e-6, float("inf"))])
def test_gradcheck_fails_on_a_row_that_is_not_within_tolerance(monkeypatch, capsys, errs):
    rows = [(f"block{i}", err) for i, err in enumerate(errs)]
    monkeypatch.setattr("actionseg.cli.finite_difference_report", lambda *args, **kw: rows)
    assert main(["gradcheck", "--variant", "conv_only", "--depth", "1", "--frames", "4"]) == 1
    worst = capsys.readouterr().out.splitlines()[-1].split()
    assert worst[0] == "worst" and worst[1] == ("inf" if math.inf in errs else "nan")
    assert worst[2] == "FAIL"


@pytest.mark.parametrize("frames", ["0", "-3"])
def test_gradcheck_frame_count_below_one_exits_2(frames, capsys):
    assert main(["gradcheck", "--frames", frames]) == 2
    captured = capsys.readouterr()
    assert "--frames must be at least 1" in captured.err and captured.out == ""


@pytest.mark.parametrize("flag, value", [("--eps", "nan"), ("--eps", "inf"), ("--eps", "0"),
                                         ("--eps", "-1e-5"), ("--tolerance", "nan"),
                                         ("--tolerance", "inf"), ("--tolerance", "-1e-4")])
def test_gradcheck_step_or_tolerance_out_of_range_exits_2_naming_the_flag(flag, value, monkeypatch,
                                                                          capsys):
    def report(*args, **kw):
        raise AssertionError("the report ran")

    monkeypatch.setattr("actionseg.cli.finite_difference_report", report)
    assert main(["gradcheck", "--depth", "1", "--frames", "4", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert f"error: {flag} must be finite" in captured.err and captured.out == ""


@pytest.mark.parametrize("flag, value", [("--eps", "-1e-5"), ("--tolerance", "-1e-3"),
                                         ("--eps", "-inf")])
def test_gradcheck_negative_number_as_its_own_token_is_a_usage_error(flag, value, monkeypatch, capsys):
    # argparse takes "-1e-5" for an option; "--eps=-1e-5" gets the range error
    def report(*args, **kw):
        raise AssertionError("the report ran")

    monkeypatch.setattr("actionseg.cli.finite_difference_report", report)
    with pytest.raises(SystemExit) as exited:
        main(["gradcheck", "--depth", "1", "--frames", "4", flag, value])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert f"{flag}: expected one argument" in captured.err and captured.out == ""


def test_train_lr_that_is_not_finite_exits_2_naming_the_key(workdir, capsys):
    cfg = write_run_cfg(workdir, lr=math.inf)
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "o")]) == 2
    assert "[train] lr" in capsys.readouterr().err
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("split", ["train", "test"])
def test_train_with_an_empty_split_exits_2_before_any_step(workdir, split, capsys):
    manifest = workdir / "ds" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    start = lines.index(f"[split {split}]") + 1
    while start < len(lines) and lines[start] and not lines[start].startswith("["):
        del lines[start]
    manifest.write_text("\n".join(lines) + "\n")
    cfg = write_run_cfg(workdir, epochs=1)
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "run")]) == 2
    what = {"train": "training", "test": "validation"}[split]
    assert f"the {what} set is empty" in capsys.readouterr().err
    assert not (workdir / "run" / "checkpoint.bin").exists()


def test_inspect_from_config_and_checkpoint(workdir, capsys):
    cfg = write_run_cfg(workdir, epochs=1)
    assert main(["inspect", "--config", str(cfg)]) == 0
    assert "enc1.conv" in capsys.readouterr().out
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "run")]) == 0
    ckpt = str(workdir / "run" / "checkpoint.bin")
    assert main(["inspect", "--checkpoint", ckpt]) == 0
    for argv in (["inspect"], ["inspect", "--checkpoint", ckpt, "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2


@pytest.mark.parametrize("ref_frames", ["0", "-4"])
def test_inspect_non_positive_ref_frames_exits_2(tmp_path, ref_frames, capsys):
    ckpt = tmp_path / "checkpoint.bin"
    save_checkpoint(build(ModelConfig(input_dim=2, num_classes=2, k=1, conv_len=2, hidden=2)), ckpt)
    assert main(["inspect", "--checkpoint", str(ckpt), "--ref-frames", ref_frames]) == 2
    captured = capsys.readouterr()
    assert "reference length" in captured.err and captured.out == ""


@pytest.mark.parametrize("field, value", [("k", 1.5), ("seed", -1), ("hidden", True)])
def test_inspect_checkpoint_with_a_malformed_config_field_exits_2(tmp_path, field, value, capsys):
    ckpt = tmp_path / "checkpoint.bin"
    save_checkpoint(build(ModelConfig(input_dim=2, num_classes=2, k=1, conv_len=2, hidden=2)), ckpt)
    blob = ckpt.read_bytes()
    start = len(b"ASEGCKP1") + 8
    version, size = struct.unpack_from("<II", blob, start - 8)
    config = json.loads(blob[start:start + size])
    config[field] = value
    raw = json.dumps(config, sort_keys=True).encode("utf-8")
    ckpt.write_bytes(blob[:start - 8] + struct.pack("<II", version, len(raw)) + raw + blob[start + size:])
    assert main(["inspect", "--checkpoint", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert f"{field} must be" in captured.err and captured.out == ""


def test_train_rerun_byte_identical_outputs(workdir):
    cfg = write_run_cfg(workdir, epochs=3)
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "r1")]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(workdir / "r2")]) == 0
    for name in ("report.kv", "checkpoint.bin", "resolved.cfg"):
        assert (workdir / "r1" / name).read_bytes() == (workdir / "r2" / name).read_bytes()


def test_rerun_from_resolved_config_of_a_relative_config(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    (workdir / "cfgs").mkdir()
    (workdir / "cfgs" / "run.cfg").write_text(RUN_CFG.format(manifest="../ds/manifest.txt",
                                                             epochs=2, lr=2e-3))
    assert main(["train", "--config", "cfgs/run.cfg", "--out", "out1"]) == 0
    assert main(["train", "--config", "out1/resolved.cfg", "--out", "out2"]) == 0
    for name in ("report.kv", "checkpoint.bin", "resolved.cfg"):
        assert (workdir / "out1" / name).read_bytes() == (workdir / "out2" / name).read_bytes()
    manifest = parse_run_config("out1/resolved.cfg").manifest
    assert manifest.is_absolute() and manifest.resolve() == (workdir / "ds" / "manifest.txt").resolve()


@pytest.mark.parametrize("key, value", [("k", "0"), ("k", "5"), ("hidden", "0"), ("conv_len", "0"),
                                        ("dropout_conv", "1.5"), ("dropout_lstm", "nan"),
                                        ("variant", "wide")])
def test_model_values_are_checked_at_parse_time(workdir, key, value, capsys):
    cfg = write_run_cfg(workdir)
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in cfg.read_text().splitlines()]
    cfg.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"\[model\]") as err:
        parse_run_config(cfg)
    assert key in str(err.value)
    ckpt = workdir / "checkpoint.bin"
    save_checkpoint(build(ModelConfig(input_dim=5, num_classes=4, k=1, conv_len=2, hidden=2)), ckpt)
    rc = main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(workdir / "ev")])
    assert rc == 2
    assert "[model]" in capsys.readouterr().err
    assert not (workdir / "ev" / "resolved.cfg").exists()


@pytest.mark.parametrize("command", ["synth", "train"])
def test_non_utf8_config_exits_2(tmp_path, command, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[synth]\nclasses = 4\xff\n" if command == "synth" else
                    b"[data]\nmanifest = m\xe9.txt\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("[data]\nmanifest = m.txt\n[extra]\nx = 1\n", ["[extra]"]),
    ("[data]\nmanifest = m.txt\n[train]\nepoch = 1\n", ["'epoch'", "[train]"]),
    ("[model]\nk = 1\n", ["'manifest'", "[data]"]),
    ("[data]\nmanifest = m.txt\n[train]\nlr = fast\n", ["'lr'", "[train]"]),
    ("[data]\nmanifest = m.txt\n[metrics]\nthresholds = 10,x\n", ["'thresholds'", "[metrics]"]),
], ids=["unknown-section", "unknown-key", "missing-key", "bad-value", "bad-list-value"])
def test_run_config_errors_name_the_section_and_key(tmp_path, text, named):
    (tmp_path / "run.cfg").write_text(text)
    with pytest.raises(ConfigError) as err:
        parse_run_config(tmp_path / "run.cfg")
    for part in named:
        assert part in str(err.value)


@pytest.mark.parametrize("command, text, named", [
    ("train", "[data]\nmanifest = m.txt\nval_split = a\n  b\n", ["'val_split'", "[data]"]),
    ("train", "[data]\nmanifest = m.txt\n[metrics]\nthresholds = 10,\n  25\n", ["'thresholds'", "[metrics]"]),
    ("synth", "[synth]\nvideos = train:2,\n  test:1\n", ["'videos'", "[synth]"]),
], ids=["string", "list", "synth"])
def test_a_value_over_continuation_lines_exits_2(tmp_path, command, text, named, capsys):
    # configparser joins continuation lines into one value, which resolved.cfg
    # could not write back on one line
    (tmp_path / "any.cfg").write_text(text)
    assert main([command, "--config", str(tmp_path / "any.cfg"), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line break" in err and all(part in err for part in named)
    assert not (tmp_path / "o" / "resolved.cfg").exists()


def test_config_that_cannot_be_read_exits_2(tmp_path, capsys):
    for config in (tmp_path / "nope.cfg", tmp_path):
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "cannot read config file" in capsys.readouterr().err


def test_synth_resolved_config_rereads_to_the_same_config(workdir):
    first = parse_synth_config(workdir / "synth.cfg")
    assert parse_synth_config(workdir / "ds" / "resolved.cfg") == first
    assert first.noise == 0.05 and first.ambiguous_pairs == [] and first.dependency_rule == {}


def test_readme_config_examples_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    run_text, synth_text = re.findall(r"```ini\n(.*?)```", readme, re.S)
    (tmp_path / "run.cfg").write_text(run_text)
    (tmp_path / "synth.cfg").write_text(synth_text)
    assert parse_run_config(tmp_path / "run.cfg").model.conv_len == 30
    assert parse_synth_config(tmp_path / "synth.cfg").dependency_rule == {0: 2, 1: 3}


# Config bytes for the parser properties: random bytes; sections of lines
# drawn from each file's keys, with typical, bad and random values; and a
# valid config with one line replaced. Text is also spliced with stray bytes.
RUN_LINES = {
    "data": ["manifest = m.txt", "manifest =", "train_split = train", "val_split = a b"],
    "model": ["variant = low", "variant = wide", "k = 1", "k = 0", "conv_len = 3", "hidden = 2",
              "hidden = 1e3", "dropout_conv = 0.5", "dropout_lstm = 1.5"],
    "train": ["epochs = 3", "epochs = -1", "lr = 0.01", "lr = nan", "lr = inf", "seed = 7"],
    "metrics": ["thresholds = 10,25", "thresholds = 0", "thresholds = ,", "thresholds = 99"],
    "extra": ["x = 1"],
}
SYNTH_LINES = {
    "synth": ["classes = 5", "classes = 1", "actions_per_video = 6", "actions_per_video = 0",
              "sub_actions = 2,2", "sub_actions = 3,1", "sub_actions = 1,2,3", "frames_per_sub = 4,6",
              "feature_dim = 3", "noise = 0.1", "noise = nan", "pairs = 2:3", "pairs = 2:2",
              "pairs =", "rule = 0>2,1>3", "rule = 0>", "videos = train:2,test:1", "videos = :1",
              "videos =", "seed = 3", "seed = x"],
    "data": ["x = 1"],
}


def config_bytes(sections, valid):
    def keyed(lines):
        key = st.sampled_from(sorted({line.split(" =")[0] for line in lines}))
        return st.builds("{} = {}".format, key, st.text(max_size=12))

    def section(name):
        line = st.one_of(st.sampled_from(sections[name]), keyed(sections[name]))
        body = st.lists(line, max_size=8, unique_by=lambda text: text.split("=")[0].strip())
        return body.map(lambda body: "\n".join([f"[{name}]", *body]))

    lines = [line for block in sections.values() for line in block]
    line = st.one_of(st.sampled_from(lines), keyed(lines), st.text(max_size=16))

    names = st.lists(st.sampled_from(sorted(sections)), unique=True, max_size=len(sections))
    blocks = names.flatmap(lambda names: st.tuples(*map(section, names))).map("\n".join)
    base = valid.strip().splitlines()
    mutated = st.tuples(st.integers(0, len(base) - 1), line).map(
        lambda edit: "\n".join(base[:edit[0]] + [edit[1]] + base[edit[0] + 1:]))
    text = st.one_of(blocks, mutated).map(str.encode)
    spliced = st.tuples(text, st.binary(min_size=1, max_size=3), st.integers(0, 200)).map(
        lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])
    return st.one_of(st.binary(max_size=120), text, spliced)


VALID_RUN = RUN_CFG.format(manifest="m.txt", epochs=3, lr=0.01)


@pytest.mark.parametrize("parse, render, sections, valid", [
    (parse_run_config, RunConfig.render, RUN_LINES, VALID_RUN),
    (parse_synth_config, lambda cfg: _render(_SYNTH_KEYS, lambda section: cfg), SYNTH_LINES, SYNTH_CFG),
], ids=["run.cfg", "synth.cfg"])
def test_config_parsers_load_or_raise_config_error(tmp_path_factory, parse, render, sections, valid):
    """Every input loads or raises ConfigError; what loads renders to text that parses back to it."""
    path = tmp_path_factory.mktemp("cfg") / "any.cfg"
    resolved = path.with_name("resolved.cfg")

    @given(config_bytes(sections, valid))
    @example(valid.encode())
    @example(valid.replace("val_split = test", "val_split = a\n  b").encode())
    def loads_or_raises_config_error(blob):
        path.write_bytes(blob)
        try:
            config = parse(path)
        except ConfigError:
            return
        resolved.write_text(render(config), encoding="utf-8")
        assert parse(resolved) == config

    loads_or_raises_config_error()
