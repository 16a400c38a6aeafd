"""Operator entry point: generate data, train, evaluate, predict, inspect, verify.

Commands read a plain-text ``key = value`` config with one section per
concern; every run writes its fully resolved config next to its outputs so a
result can always be reproduced from the output directory alone. Exit codes:
0 success, 1 verification failure, 2 usage/config error, 3 runtime
divergence.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .data import (SynthConfig, export_timeline, load_dataset, load_features,
                   save_dataset, synth_generate)
from .errors import ConfigError, ContractError, LoadError, ShapeError
from .model import VARIANTS, ModelConfig, build, format_describe, load_checkpoint
from .metrics import evaluate
from .train import TrainingDiverged, finite_difference_report, predict, train

__all__ = ["RunConfig", "parse_run_config", "parse_synth_config", "main"]


class Key(NamedTuple):
    """One key of a config file: ``parse`` reads its text (``ValueError`` if bad)
    and ``render`` writes it back. The config object holds the value in
    ``field``, or in the field named like the key, and gives its default and check.
    """

    section: str
    name: str
    parse: Callable[[str], Any] = str
    render: Callable[[Any], str] = str
    field: str = ""

    @property
    def attr(self) -> str:
        return self.field or self.name


def _split(text: str, sep: str, pair_sep: str) -> list[tuple[str, str]]:
    """``"a:b;c:d"`` split at ``;`` and ``:`` gives ``[("a", "b"), ("c", "d")]``."""
    pairs = []
    for chunk in text.split(sep) if text else []:
        a, found, b = chunk.partition(pair_sep)
        if not found:
            raise ValueError(chunk)
        pairs.append((a, b))
    return pairs


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _render_ints(values) -> str:
    return ",".join(str(v) for v in values)


def _parse_range(text: str) -> tuple[int, int]:
    lo, hi = _parse_ints(text)  # a ValueError unless there are exactly two
    return lo, hi


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    return [(int(a), int(b)) for a, b in _split(text, ";", ":")]


def _render_pairs(pairs) -> str:
    return ";".join(f"{a}:{b}" for a, b in pairs)


def _parse_rule(text: str) -> dict[int, int]:
    return {int(a): int(b) for a, b in _split(text, ",", ">")}


def _render_rule(rule) -> str:
    return ",".join(f"{a}>{b}" for a, b in rule.items())


def _parse_videos(text: str) -> dict[str, int]:
    videos = {name.strip(): int(count) for name, count in _split(text, ",", ":")}
    if "" in videos:
        raise ValueError("a split without a name")
    return videos


def _render_videos(videos) -> str:
    return ",".join(f"{name}:{count}" for name, count in videos.items())


_RUN_KEYS = (
    Key("data", "manifest", Path),
    Key("data", "train_split"),
    Key("data", "val_split"),
    Key("model", "variant"),
    Key("model", "k", int),
    Key("model", "conv_len", int),
    Key("model", "hidden", int),
    Key("model", "dropout_conv", float, repr),
    Key("model", "dropout_lstm", float, repr),
    Key("train", "epochs", int),
    Key("train", "lr", float, repr),
    Key("train", "seed", int),
    Key("metrics", "thresholds", _parse_ints, _render_ints),
)

_SYNTH_KEYS = (
    Key("synth", "classes", int, field="num_classes"),
    Key("synth", "actions_per_video", int),
    Key("synth", "sub_actions", _parse_range, _render_ints),
    Key("synth", "frames_per_sub", _parse_range, _render_ints),
    Key("synth", "feature_dim", int),
    Key("synth", "noise", float, repr),
    Key("synth", "pairs", _parse_pairs, _render_pairs, field="ambiguous_pairs"),
    Key("synth", "rule", _parse_rule, _render_rule, field="dependency_rule"),
    Key("synth", "videos", _parse_videos, _render_videos, field="videos_per_split"),
    Key("synth", "seed", int),
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved training/evaluation settings; every value is checked at parse time.

    ``model`` holds the ``[model]`` section with :class:`ModelConfig`'s defaults and
    checks; :meth:`model_config` adds the data's sizes and the ``[train]`` seed.
    """

    manifest: Path
    model: ModelConfig
    train_split: str = "train"
    val_split: str = "test"
    epochs: int = 200
    lr: float = 1e-3
    seed: int = 0
    thresholds: tuple[int, ...] = (10, 25, 50)

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"[train] epochs must be >= 0, got {self.epochs}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"[train] lr must be finite and > 0, got {self.lr}")
        for t in self.thresholds:
            if not 0 < t < 100:
                raise ConfigError(f"[metrics] thresholds must lie in (0, 100), got {t}")

    def model_config(self, input_dim: int, num_classes: int) -> ModelConfig:
        return dataclasses.replace(self.model, input_dim=input_dim, num_classes=num_classes,
                                   seed=self.seed)

    def render(self) -> str:
        return _render(_RUN_KEYS, lambda section: self.model if section == "model" else self)


def _read(path: Path, keys) -> dict[Key, Any]:
    """The parsed value of every key the file sets; any other section or key is an error."""
    try:
        text = path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 (byte {exc.start})") from exc
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    table = {(key.section, key.name): key for key in keys}
    given = {}
    for section in cp.sections():
        if section not in {key.section for key in keys}:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for name, value in cp[section].items():
            key = table.get((section, name))
            if key is None:
                raise ConfigError(f"{path}: unknown key {name!r} in section [{section}]")
            if "\n" in value:  # continuation lines, which resolved.cfg cannot write back
                raise ConfigError(f"{path}: value of {name!r} in [{section}] contains a line break")
            try:
                given[key] = key.parse(value)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value {value!r} for {name!r} in [{section}]") from exc
    return given


def _fields(cls, keys, given: dict[Key, Any]) -> dict[str, Any]:
    """The given values of keys as cls's keyword arguments; cls's defaults fill the rest."""
    required = {f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    out = {}
    for key in keys:
        if key in given:
            out[key.attr] = given[key]
        elif key.attr in required:
            raise ConfigError(f"missing required config key {key.name!r} in section [{key.section}]")
    return out


def _checked(section: str, cls, **fields):
    """cls(**fields), with the section named in a failed check."""
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _render(keys, holder) -> str:
    """The config text of every key, its value read from ``holder(section)``."""
    sections: dict[str, list[str]] = {}
    for key in keys:
        value = key.render(getattr(holder(key.section), key.attr))
        sections.setdefault(key.section, [f"[{key.section}]"]).append(f"{key.name} = {value}")
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"


def parse_run_config(path) -> RunConfig:
    """Read a ``run.cfg``; a relative manifest path is made absolute against the config's directory."""
    path = Path(path)
    given = _read(path, _RUN_KEYS)
    model_keys = [key for key in _RUN_KEYS if key.section == "model"]
    run_keys = [key for key in _RUN_KEYS if key.section != "model"]
    # the smallest valid sizes stand in for the data's until model_config
    model = _checked("model", ModelConfig, input_dim=1, num_classes=2,
                     **_fields(ModelConfig, model_keys, given))
    fields = _fields(RunConfig, run_keys, given)
    fields["manifest"] = path.absolute().parent / fields["manifest"]
    return RunConfig(model=model, **fields)


def parse_synth_config(path) -> SynthConfig:
    given = _read(Path(path), _SYNTH_KEYS)
    return _checked("synth", SynthConfig, **_fields(SynthConfig, _SYNTH_KEYS, given))


def _out_dir(arg) -> Path:
    out = Path(arg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it, or no permission
        raise ConfigError(f"{out}: cannot make output directory: {exc.strerror}") from exc
    return out


def cmd_synth(args) -> int:
    cfg = parse_synth_config(args.config)
    out = _out_dir(args.out)
    dataset = synth_generate(cfg)
    manifest_path = save_dataset(dataset, out, binary=args.binary)
    (out / "resolved.cfg").write_text(_render(_SYNTH_KEYS, lambda section: cfg), encoding="utf-8")
    frames = sum(len(s) for s in dataset.samples.values())
    print(f"wrote {len(dataset.samples)} samples ({frames} frames) under {manifest_path.parent}")
    return 0


def cmd_train(args) -> int:
    rc = parse_run_config(args.config)
    out = _out_dir(args.out)
    dataset = load_dataset(rc.manifest)
    train_set = dataset.split(rc.train_split)
    val_set = dataset.split(rc.val_split)
    man = dataset.manifest
    model = build(rc.model_config(man.feature_dim, len(man.class_names)))
    report = train(model, train_set, val_set, epochs=rc.epochs, seed=rc.seed, lr=rc.lr,
                   thresholds=rc.thresholds, background=man.background,
                   checkpoint_path=out / "checkpoint.bin")
    (out / "report.txt").write_text(report.to_text())
    (out / "report.kv").write_text(report.to_kv())
    (out / "resolved.cfg").write_text(rc.render(), encoding="utf-8")
    print(f"trained {rc.model.variant} for {len(report.epochs)} epochs; "
          f"final val acc {report.final.accuracy:.3f}; outputs in {out}")
    return 0


def cmd_eval(args) -> int:
    rc = parse_run_config(args.config)
    out = _out_dir(args.out)
    dataset = load_dataset(rc.manifest)
    split = args.split if args.split is not None else rc.val_split
    seqs = dataset.split(split)
    if not seqs:
        raise ContractError(f"split {split!r} is empty")
    man = dataset.manifest
    model = load_checkpoint(args.checkpoint)
    if model.config.input_dim != man.feature_dim:
        raise LoadError(f"checkpoint expects feature dim {model.config.input_dim}, "
                        f"manifest has {man.feature_dim}")
    if model.config.num_classes != len(man.class_names):
        raise LoadError(f"checkpoint expects {model.config.num_classes} classes, "
                        f"manifest has {len(man.class_names)}")
    preds = [predict(model, s.features) for s in seqs]
    report = evaluate(preds, [s.labels for s in seqs], rc.thresholds,
                      background=man.background, ids=[s.id for s in seqs])
    (out / "report.txt").write_text(report.to_text())
    (out / "report.kv").write_text(report.to_kv())
    (out / "resolved.cfg").write_text(rc.render(), encoding="utf-8")
    print(report.to_text(), end="")
    return 0


def cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    features = load_features(args.features)
    gt = None
    if args.labels is not None:
        from .data import _load_labels
        gt = _load_labels(Path(args.labels), model.config.num_classes)
    out = _out_dir(args.out)
    pred = predict(model, features)
    names = [f"class{i}" for i in range(model.config.num_classes)]
    (out / "labels.txt").write_text("\n".join(str(int(v)) for v in pred) + "\n")
    timeline = export_timeline(pred, gt, names)
    (out / "timeline.txt").write_text(timeline)
    print(timeline, end="")
    return 0


def cmd_gradcheck(args) -> int:
    if args.frames < 1:
        raise ContractError(f"--frames must be at least 1, got {args.frames}")
    if not 0 < args.eps < math.inf:
        raise ContractError(f"--eps must be finite and > 0, got {args.eps}")
    if not 0 <= args.tolerance < math.inf:
        raise ContractError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    cfg = ModelConfig(input_dim=args.dim, num_classes=args.classes, variant=args.variant,
                      k=args.depth, conv_len=args.conv_len, hidden=args.hidden,
                      dropout_conv=0.0, dropout_lstm=0.0, seed=args.seed)
    model = build(cfg)
    rng = np.random.default_rng(args.data_seed)
    x = rng.normal(size=(args.frames, args.dim))
    labels = rng.integers(0, args.classes, size=args.frames)
    rows = finite_difference_report(model, x, labels, eps=args.eps)
    worst = float(np.max([err for _, err in rows]))  # a NaN row makes the worst NaN
    print(f"{'parameter block':<24} {'rel err':>12}  status")
    for name, err in rows:
        print(f"{name:<24} {err:>12.3e}  {'ok' if err <= args.tolerance else 'FAIL'}")
    print(f"{'worst':<24} {worst:>12.3e}  {'ok' if worst <= args.tolerance else 'FAIL'}")
    return 0 if worst <= args.tolerance else 1


def cmd_inspect(args) -> int:
    if args.checkpoint is not None:
        model = load_checkpoint(args.checkpoint)
    else:
        rc = parse_run_config(args.config)
        man = load_dataset(rc.manifest).manifest
        model = build(rc.model_config(man.feature_dim, len(man.class_names)))
    print(format_describe(model, args.ref_frames))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="actionseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--binary", action="store_true", help="write packed binary feature files")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model and write checkpoint + reports")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="label one feature file with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", default=None, help="optional reference labels for the timeline")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of every parameter block")
    p.add_argument("--variant", default="full", choices=VARIANTS)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--conv-len", type=int, default=3)
    p.add_argument("--hidden", type=int, default=4)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("inspect", help="print the layer table of a model")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--ref-frames", type=int, default=None)
    p.set_defaults(fn=cmd_inspect)
    return parser


# the options whose value may be a negative number
_NUMBER_OPTIONS = ("--eps", "--tolerance")


def _attach_numbers(argv: list[str]) -> list[str]:
    """``argv`` with each of ``_NUMBER_OPTIONS`` and a negative number after it joined as ``flag=value``.

    argparse reads a token that starts with '-' as a value only if it looks
    like ``-5`` or ``-0.5``, so ``--eps -1e-5`` failed with "expected one
    argument" before the flag's range check could name it.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _NUMBER_OPTIONS and token.startswith("-") and _is_number(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_numbers(sys.argv[1:] if argv is None else argv))
    if args.command == "inspect" and (args.checkpoint is None) == (args.config is None):
        print("inspect needs exactly one of --checkpoint or --config", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, LoadError, ShapeError, ContractError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
