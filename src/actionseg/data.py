"""Dataset ingestion and the synthetic procedural-activity benchmark.

File formats (all plain text, one sample per file pair):

* features: first line ``T d``, then T lines of d space-separated reals,
  each read to the bits Python's ``float()`` gives it. A file in the shape
  :func:`save_dataset` writes (ASCII; one space between values and one
  ``\n`` after each row; decimals, with e-notation rare) is converted a
  block of rows at a time in whole-array numpy passes; every other file
  goes through a row-by-row ``float()`` parse, which accepts every
  spelling ``float()`` does and names the line of the first bad value.
  A packed binary alternative is accepted for large files: magic ``TRIC``,
  little-endian uint32 version/T/d, then T*d little-endian float64 values.
* labels: T lines, one integer class id per line.
* manifest: ``key = value`` lines followed by ``[split NAME]`` blocks listing
  sample ids. Keys: ``version``, ``feature_dim``, ``classes`` (comma-
  separated, index-ordered), optional ``background`` (class id) and
  ``shared_splits`` (``allow``/``deny``; splits may only share sample ids
  when set to ``allow``).

The synthetic generator builds videos as action sequences in which every
action emits a run of sub-action prototypes plus Gaussian noise. Ambiguous
class pairs share all their prototypes, and which pair member actually
occurs late in a video is decided by a dependency rule applied to the
video's first action; per-frame features alone therefore cannot beat chance
on those segments, which gives a context-free classifier an analytic
accuracy ceiling of 100 * (1 - p/2) for an ambiguous frame fraction p under
a balanced rule.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, LoadError
from .metrics import segments_from_labels
from .tensor import Tensor

__all__ = [
    "SequenceSample",
    "DatasetManifest",
    "Dataset",
    "SynthConfig",
    "load_dataset",
    "load_features",
    "save_dataset",
    "synth_generate",
    "synth_prototypes",
    "export_timeline",
    "ambiguous_frame_fraction",
    "frame_local_ceiling",
]

_FEATURE_MAGIC = b"TRIC"
_FEATURE_VERSION = 1

# the whole-array lane for text features (``_convert_rows``): the bytes it
# reads, the bytes of rows it converts per pass, and the powers of ten it
# divides by. x87 long double has a 64-bit significand, stored in the first
# 8 of its 16 bytes; every integer below 2**63 and 10**k for k <= 27
# (5**27 < 2**64) are exact in it, so the products of cumprod are too
_LANE_BYTES = b"0123456789.+-e \n"
_LANE_CHUNK = 1 << 16
_LANE_LONG_DOUBLE = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_LANE_INT_LIMIT = 10 ** 18  # at or beyond it the int64 parse may have saturated

_GLYPHS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


@dataclass
class SequenceSample:
    """One video: a (frames, dim) feature matrix and per-frame class ids."""

    id: str
    features: Tensor
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ContractError(f"sample {self.id!r}: features must be rank 2")
        if self.labels.shape != (self.features.shape[0],):
            raise ContractError(
                f"sample {self.id!r}: {self.features.shape[0]} feature rows but "
                f"{self.labels.size} labels"
            )

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class DatasetManifest:
    class_names: list[str]
    feature_dim: int
    splits: dict[str, list[str]] = field(default_factory=dict)
    background: int | None = None
    shared_splits: bool = False

    def __post_init__(self):
        if len(self.class_names) < 2:
            raise LoadError(f"manifest needs at least 2 classes, got {len(self.class_names)}")
        if self.feature_dim < 1:
            raise LoadError(f"manifest feature_dim must be >= 1, got {self.feature_dim}")
        if self.background is not None and not 0 <= self.background < len(self.class_names):
            raise LoadError(f"manifest background id {self.background} outside class range")


@dataclass
class Dataset:
    manifest: DatasetManifest
    samples: dict[str, SequenceSample]

    def split(self, name: str) -> list[SequenceSample]:
        if name not in self.manifest.splits:
            raise LoadError(f"split {name!r} not in manifest (have {sorted(self.manifest.splits)})")
        return [self.samples[sid] for sid in self.manifest.splits[name]]


def save_dataset(dataset: Dataset, out_dir, binary: bool = False) -> Path:
    """Write manifest plus per-sample feature/label files; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    man = dataset.manifest
    lines = [
        "version = 1",
        f"feature_dim = {man.feature_dim}",
        f"classes = {','.join(man.class_names)}",
    ]
    if man.background is not None:
        lines.append(f"background = {man.background}")
    if man.shared_splits:
        lines.append("shared_splits = allow")
    for name, ids in man.splits.items():
        lines.append("")
        lines.append(f"[split {name}]")
        lines.extend(ids)
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")

    for sid, sample in dataset.samples.items():
        arr = sample.features.data
        if binary:
            with open(out / f"{sid}.features.bin", "wb") as fh:
                fh.write(_FEATURE_MAGIC)
                fh.write(struct.pack("<III", _FEATURE_VERSION, arr.shape[0], arr.shape[1]))
                fh.write(arr.astype("<f8").tobytes())
        else:
            rows = [f"{arr.shape[0]} {arr.shape[1]}"]
            # the repr of each Python float: the shortest text that parses back to its bits
            rows += [" ".join(map(repr, row)) for row in arr.tolist()]
            (out / f"{sid}.features.txt").write_text("\n".join(rows) + "\n")
        (out / f"{sid}.labels.txt").write_text(
            "\n".join(str(int(v)) for v in sample.labels) + "\n")
    return out / "manifest.txt"


def _read(path: Path) -> bytes:
    """The whole file; a file that cannot be read is a :class:`LoadError`."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise LoadError(f"{path}: cannot read: {exc.strerror}") from exc


def _read_text(path: Path, blob: bytes | None = None) -> str:
    """The file's text, from ``blob`` if already read; bytes not UTF-8 are a :class:`LoadError`."""
    blob = _read(path) if blob is None else blob
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: not UTF-8 (byte {exc.start})") from exc


def _parse_manifest(path: Path) -> DatasetManifest:
    keys: dict[str, str] = {}
    splits: dict[str, list[str]] = {}
    current: list[str] | None = None
    seen_anywhere: dict[str, str] = {}
    shared = False

    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            head = line[1:-1].split()
            if len(head) != 2 or head[0] != "split":
                raise LoadError(f"{path}:{lineno}: bad section header {line!r}")
            if head[1] in splits:
                raise LoadError(f"{path}:{lineno}: duplicate split {head[1]!r}")
            current = splits.setdefault(head[1], [])
            continue
        if current is not None:
            sid = line
            if sid in current:
                raise LoadError(f"{path}:{lineno}: duplicate sample {sid!r} within one split")
            current.append(sid)
            continue
        if "=" not in line:
            raise LoadError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in keys:
            raise LoadError(f"{path}:{lineno}: duplicate key {key!r}")
        if key not in ("version", "feature_dim", "classes", "background", "shared_splits"):
            raise LoadError(f"{path}:{lineno}: unknown manifest key {key!r}")
        keys[key] = value

    for required in ("version", "feature_dim", "classes"):
        if required not in keys:
            raise LoadError(f"{path}: missing manifest key {required!r}")
    if keys["version"] != "1":
        raise LoadError(f"{path}: unsupported manifest version {keys['version']!r}")
    try:
        feature_dim = int(keys["feature_dim"])
    except ValueError as exc:
        raise LoadError(f"{path}: feature_dim is not an integer: {keys['feature_dim']!r}") from exc
    class_names = [c.strip() for c in keys["classes"].split(",")]
    if any(not c for c in class_names):
        raise LoadError(f"{path}: empty class name in {keys['classes']!r}")
    background = None
    if "background" in keys:
        try:
            background = int(keys["background"])
        except ValueError as exc:
            raise LoadError(f"{path}: background is not an integer: {keys['background']!r}") from exc
    if "shared_splits" in keys:
        if keys["shared_splits"] not in ("allow", "deny"):
            raise LoadError(f"{path}: shared_splits must be allow or deny, got {keys['shared_splits']!r}")
        shared = keys["shared_splits"] == "allow"

    if not shared:
        for name, ids in splits.items():
            for sid in ids:
                if sid in seen_anywhere:
                    raise LoadError(
                        f"{path}: sample {sid!r} appears in splits {seen_anywhere[sid]!r} and "
                        f"{name!r}; set 'shared_splits = allow' to permit this")
                seen_anywhere[sid] = name

    return DatasetManifest(class_names=class_names, feature_dim=feature_dim, splits=splits,
                           background=background, shared_splits=shared)


def _load_features_text(path: Path, text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise LoadError(f"{path}:1: empty feature file")
    head = lines[0].split()
    if len(head) != 2:
        raise LoadError(f"{path}:1: expected 'T d' header, got {lines[0]!r}")
    try:
        t_len, dim = int(head[0]), int(head[1])
    except ValueError as exc:
        raise LoadError(f"{path}:1: non-integer header {lines[0]!r}") from exc
    if t_len < 1 or dim < 1:
        raise LoadError(f"{path}:1: header sizes must be positive, got {lines[0]!r}")
    if len(lines) - 1 != t_len:
        raise LoadError(f"{path}: header promises {t_len} rows, file has {len(lines) - 1}")
    # every value takes a character and a separator, so this bounds the
    # array allocated below by the size of the text
    if 2 * t_len * dim > len(text):
        raise LoadError(f"{path}: header promises {t_len}x{dim} values, "
                        f"more than {len(text)} characters can hold")
    out = np.empty((t_len, dim), dtype=np.float64)
    # the rows are checked for non-finite values once, at the end, or before
    # a row that does not parse is reported, so the first error in the file
    # is the one reported
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != dim:
            _check_finite_rows(path, out[:i])
            raise LoadError(f"{path}:{i + 2}: expected {dim} values, got {len(parts)}")
        try:
            # numpy converts each string with Python's float(), in one call per row
            out[i] = parts
        except ValueError as exc:
            _check_finite_rows(path, out[:i])
            raise LoadError(f"{path}:{i + 2}: non-numeric value") from exc
    _check_finite_rows(path, out)
    return out


def _check_finite_rows(path: Path, rows: np.ndarray) -> None:
    """LoadError naming the file line of the first row with a non-finite value, if any."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise LoadError(f"{path}:{int(np.argmin(finite)) + 2}: non-finite feature value")


def _convert_rows(fh) -> np.ndarray | None:
    """The features of a text file in the shape ``save_dataset`` writes, or None for any other.

    One pass checks that every byte is one the lane reads, before any value
    is converted; a second converts blocks of whole rows (``_convert_chunk``),
    so the text is never held whole. None asks the caller for the row loop,
    which accepts every other spelling and reports every error; a file is
    declined whole, never half converted.
    """
    if not _LANE_LONG_DOUBLE:
        return None
    size = 0
    for block in iter(lambda: fh.read(_LANE_CHUNK), b""):
        if block.translate(None, _LANE_BYTES):
            return None
        # e-notation throughout, as np.savetxt writes by default, is declined
        # before the rest of the file is read
        if not size and 16 * block.count(b"e") > block.count(b" ") + block.count(b"\n"):
            return None
        size += len(block)
    fh.seek(0)
    try:
        t_len, dim = (int(v) for v in fh.readline().split())
    except ValueError:
        return None
    if t_len < 1 or dim < 1 or 2 * t_len * dim > size:
        return None
    out = np.empty((t_len, dim), dtype=np.float64)
    flat = out.reshape(-1)
    row = 0
    for lines in iter(lambda: fh.readlines(_LANE_CHUNK), []):
        end = row + len(lines)
        if end > t_len or not _convert_chunk(b"".join(lines), dim, flat[row * dim:end * dim]):
            return None
        row = end
    return out if row == t_len else None


def _convert_chunk(chunk: bytes, dim: int, dest: np.ndarray) -> bool:
    """Write the values of ``chunk``'s rows into ``dest`` with ``float()``'s bits; False if it cannot.

    Each token ``[+-]I.F`` is the integer ``IF`` divided by ``10**len(F)``
    in long double: both are exact, so the one division rounds the true
    quotient once to 64 bits, and rounding that to a double gives the
    double nearest the true value unless the 64-bit quotient lies exactly
    halfway between two doubles (low 11 significand bits ``0x400``);
    Clinger, PLDI 1990. Those quotients, e-notation tokens and integers the
    int64 parse cannot hold exactly go through ``float()`` one at a time. A
    chunk where more than one token in 16 does is declined: the lane loses
    to the row loop at about one in 8.
    """
    n = dest.size
    v = np.frombuffer(chunk, dtype=np.uint8)
    seps = np.flatnonzero(v <= 32)  # the only such bytes read are " " and "\n"
    # d tokens a row, with a "\n" after the last
    if seps.size != n or (v[seps[dim - 1::dim]] != 10).any():
        return False
    starts = np.empty_like(seps)
    starts[0] = 0
    np.add(seps[:-1], 1, out=starts[1:])
    first = v[starts]
    neg = first == 45
    signed = neg | (first == 43)
    text, odd = chunk, []
    if chunk.find(b"e") >= 0:
        odd = np.searchsorted(seps, np.flatnonzero(v == 101)).tolist()
        if 16 * len(odd) > n:
            return False
        # "0.0...0" in place of each e-notation token keeps the passes below
        # regular; float() gives its value at the end
        buf = bytearray(chunk)
        for i in odd:
            lo, hi = int(starts[i]), int(seps[i])
            buf[lo:hi] = (b"0." + b"0" * (hi - lo))[:hi - lo]
        text = bytes(buf)
        v = np.frombuffer(text, dtype=np.uint8)
        signed[odd] = False
    # one "." in every token, signs only in front, and at least one digit
    dots = np.flatnonzero(v == 46)
    if (dots.size != n or (dots < starts).any() or (dots >= seps).any()
            or np.count_nonzero(v == 45) + np.count_nonzero(v == 43) != np.count_nonzero(signed)
            or (seps - starts - signed < 2).any()):
        return False
    frac = np.subtract(seps, dots, out=dots)
    frac -= 1
    ints = np.fromstring(text.translate(None, b"."), dtype=np.int64, sep=" ")
    quot = _POW10.take(frac, mode="clip")
    np.divide(ints, quot, out=quot)
    redo = (quot.view(np.uint64)[::2] & 0x7FF) == 0x400
    redo |= frac >= _POW10.size
    redo |= ints >= _LANE_INT_LIMIT
    redo |= ints <= -_LANE_INT_LIMIT
    redo[odd] = True
    dest[:] = quot
    dest[neg & (ints == 0)] = -0.0
    redo = np.flatnonzero(redo)
    if 16 * redo.size > n:
        return False
    for i in redo.tolist():
        try:
            dest[i] = float(chunk[starts[i]:seps[i]])
        except ValueError:
            return False
    return bool(np.isfinite(dest[redo]).all())


def _load_features_binary(path: Path, fh) -> np.ndarray:
    """The values of a ``TRIC`` file whose magic ``fh`` has read, read straight into their array."""
    head = fh.read(12)
    if len(head) < 12:
        raise LoadError(f"{path}: truncated header")
    version, t_len, dim = struct.unpack("<III", head)
    if version != _FEATURE_VERSION:
        raise LoadError(f"{path}: unsupported feature file version {version}")
    if t_len < 1 or dim < 1:
        raise LoadError(f"{path}: header sizes must be positive, got {t_len}x{dim}")
    expected = 16 + 8 * t_len * dim
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise LoadError(f"{path}: expected {expected} bytes, found {size}")
    arr = np.empty((t_len, dim), dtype="<f8")
    if fh.readinto(arr.view(np.uint8)) != arr.nbytes:  # a byte view, as in load_checkpoint
        raise LoadError(f"{path}: expected {expected} bytes, found fewer")
    if not np.all(np.isfinite(arr)):
        raise LoadError(f"{path}: non-finite feature value")
    return arr.astype(np.float64, copy=False)


def _load_labels(path: Path, num_classes: int) -> np.ndarray:
    values = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            v = int(line)
        except ValueError as exc:
            raise LoadError(f"{path}:{lineno}: non-integer label {line!r}") from exc
        if not 0 <= v < num_classes:
            raise LoadError(f"{path}:{lineno}: label {v} outside [0, {num_classes})")
        values.append(v)
    if not values:
        raise LoadError(f"{path}: no labels")
    return np.asarray(values, dtype=np.int64)


def load_features(path) -> Tensor:
    """Load one feature file, text or packed binary (sniffed by magic bytes)."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            if fh.read(len(_FEATURE_MAGIC)) == _FEATURE_MAGIC:
                return Tensor._wrap(_load_features_binary(path, fh))
            fh.seek(0)
            out = _convert_rows(fh)
            if out is not None:
                return Tensor._wrap(out)
            fh.seek(0)
            blob = fh.read()
    except OSError as exc:
        raise LoadError(f"{path}: cannot read: {exc.strerror}") from exc
    text = _read_text(path, blob)
    del blob  # the row loop holds the text and its lines, not the bytes as well
    return Tensor._wrap(_load_features_text(path, text))


def load_dataset(manifest_path) -> Dataset:
    """Load and validate a dataset; errors name the offending file and line."""
    manifest_path = Path(manifest_path)
    manifest = _parse_manifest(manifest_path)
    base = manifest_path.parent

    samples: dict[str, SequenceSample] = {}
    for ids in manifest.splits.values():
        for sid in ids:
            if sid in samples:
                continue
            found = [f for f in (base / f"{sid}.features.txt", base / f"{sid}.features.bin")
                     if f.exists()]
            if not found:
                raise LoadError(f"{base}: missing features file for sample {sid!r}")
            if len(found) == 2:
                raise LoadError(f"{base}: sample {sid!r} has both {found[0].name} and {found[1].name}")
            fname = found[0]
            feats = load_features(fname)
            if feats.shape[1] != manifest.feature_dim:
                raise LoadError(
                    f"{fname}: feature dimension {feats.shape[1]} does not match manifest "
                    f"feature_dim {manifest.feature_dim}")
            labels_path = base / f"{sid}.labels.txt"
            if not labels_path.exists():
                raise LoadError(f"{base}: missing labels file for sample {sid!r}")
            labels = _load_labels(labels_path, len(manifest.class_names))
            if labels.size != feats.shape[0]:
                raise LoadError(
                    f"{labels_path}: {labels.size} labels but {feats.shape[0]} feature rows")
            samples[sid] = SequenceSample(sid, feats, labels)
    return Dataset(manifest, samples)


@dataclass
class SynthConfig:
    """Recipe for a procedural-activity dataset with plantable long-range dependencies.

    ``ambiguous_pairs`` lists class pairs that share every sub-action
    prototype, so their frames are indistinguishable; ``dependency_rule``
    maps the identity of a video's first non-filler action to the pair
    member that appears as the video's final action.

    Dependency videos are laid out as

        filler, context, filler, decoy, filler..., dependent

    where context and decoy are two different rule keys. Both keys occur in
    every video, so which classes are present, how often, and how strongly
    they activate any fixed detector is identical across rule outcomes; only
    the order of the two early segments carries the signal, and the filler
    gaps keep that order outside any local receptive field. Solving the
    dependent segment therefore requires carrying ordered context across
    time, which is the behavior the benchmark isolates.
    """

    num_classes: int
    actions_per_video: int
    sub_actions: tuple[int, int]
    frames_per_sub: tuple[int, int]
    feature_dim: int
    noise: float = 0.05
    ambiguous_pairs: list[tuple[int, int]] = field(default_factory=list)
    dependency_rule: dict[int, int] = field(default_factory=dict)
    videos_per_split: dict[str, int] = field(default_factory=lambda: {"train": 10, "test": 5})
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if not 0 <= self.noise < np.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        for name in ("sub_actions", "frames_per_sub"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ConfigError(f"{name} range ({lo}, {hi}) is empty or non-positive")
        if not self.videos_per_split or any(n < 1 for n in self.videos_per_split.values()):
            raise ConfigError("videos_per_split needs at least one split with a positive count")
        members = set()
        for a, b in self.ambiguous_pairs:
            if a == b or not (0 <= a < self.num_classes and 0 <= b < self.num_classes):
                raise ConfigError(f"ambiguous pair ({a}, {b}) invalid for {self.num_classes} classes")
            if a in members or b in members:
                raise ConfigError(f"class reused across ambiguous pairs: ({a}, {b})")
            members.update((a, b))
        if bool(self.ambiguous_pairs) != bool(self.dependency_rule):
            raise ConfigError("ambiguous_pairs and dependency_rule must be given together")
        for key, value in self.dependency_rule.items():
            if not 0 <= key < self.num_classes:
                raise ConfigError(f"dependency rule key {key} outside class range")
            if value not in members:
                raise ConfigError(f"dependency rule target {value} is not an ambiguous class")
            if key in members:
                raise ConfigError(f"dependency rule key {key} may not be an ambiguous class")
        if self.ambiguous_pairs:
            if len(self.dependency_rule) < 2:
                raise ConfigError("the dependency rule needs at least 2 context classes, "
                                  "so that a decoy context can appear in every video")
            if self.actions_per_video < 6:
                raise ConfigError("dependency videos need at least 6 actions for the "
                                  "filler, context, filler, decoy, filler, dependent layout")
            if not self._filler_classes():
                raise ConfigError("no filler classes left outside the rule and the ambiguous pairs")

    def _filler_classes(self) -> list[int]:
        reserved = set(self.dependency_rule) | {c for pair in self.ambiguous_pairs for c in pair}
        return [c for c in range(self.num_classes) if c not in reserved]

    def ambiguous_classes(self) -> set[int]:
        return {c for pair in self.ambiguous_pairs for c in pair}


def _unit_ball(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return v * rng.random() ** (1.0 / dim)


def _draw_prototypes(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    protos = np.empty((cfg.num_classes, cfg.sub_actions[1], cfg.feature_dim))
    for c in range(cfg.num_classes):
        for j in range(cfg.sub_actions[1]):
            protos[c, j] = _unit_ball(rng, cfg.feature_dim)
    for a, b in cfg.ambiguous_pairs:
        protos[b] = protos[a]
    return protos


def synth_prototypes(cfg: SynthConfig) -> np.ndarray:
    """The (class, sub_action, dim) prototype array a given config generates."""
    return _draw_prototypes(cfg, np.random.default_rng(cfg.seed))


def synth_generate(cfg: SynthConfig) -> Dataset:
    """Generate a dataset purely from the seed; identical seeds are byte-identical."""
    rng = np.random.default_rng(cfg.seed)
    protos = _draw_prototypes(cfg, rng)
    rule_keys = sorted(cfg.dependency_rule)
    fillers = cfg._filler_classes()

    def filler() -> int:
        return fillers[rng.integers(len(fillers))]

    def sample_video(sid: str) -> SequenceSample:
        if cfg.dependency_rule:
            context = rule_keys[rng.integers(len(rule_keys))]
            others = [k for k in rule_keys if k != context]
            decoy = others[rng.integers(len(others))]
            middle = [filler() for _ in range(cfg.actions_per_video - 5)]
            actions = [filler(), context, filler(), decoy, *middle, cfg.dependency_rule[context]]
        else:
            actions = [int(rng.integers(cfg.num_classes)) for _ in range(cfg.actions_per_video)]
        feats = []
        labels = []
        for action in actions:
            n_sub = int(rng.integers(cfg.sub_actions[0], cfg.sub_actions[1] + 1))
            for j in range(n_sub):
                n_frames = int(rng.integers(cfg.frames_per_sub[0], cfg.frames_per_sub[1] + 1))
                block = protos[action, j] + cfg.noise * rng.normal(size=(n_frames, cfg.feature_dim))
                feats.append(block)
                labels.extend([action] * n_frames)
        return SequenceSample(sid, Tensor._wrap(np.concatenate(feats, axis=0)),
                              np.asarray(labels, dtype=np.int64))

    samples: dict[str, SequenceSample] = {}
    splits: dict[str, list[str]] = {}
    for split, count in cfg.videos_per_split.items():
        ids = []
        for i in range(count):
            sid = f"{split}_{i:04d}"
            samples[sid] = sample_video(sid)
            ids.append(sid)
        splits[split] = ids

    manifest = DatasetManifest(
        class_names=[f"c{i}" for i in range(cfg.num_classes)],
        feature_dim=cfg.feature_dim,
        splits=splits,
    )
    return Dataset(manifest, samples)


def ambiguous_frame_fraction(samples, ambiguous_classes) -> float:
    """Fraction of frames whose reference label belongs to an ambiguous pair."""
    amb = set(ambiguous_classes)
    hits = 0
    total = 0
    for s in samples:
        hits += int(np.isin(s.labels, list(amb)).sum())
        total += len(s)
    if total == 0:
        raise ContractError("no frames given")
    return hits / total


def frame_local_ceiling(samples, ambiguous_classes) -> float:
    """Best possible accuracy of any per-frame classifier under a balanced rule.

    Shared prototypes make ambiguous frames a coin flip for any classifier
    that sees one frame at a time: 100 * (1 - p/2) for ambiguous fraction p.
    """
    p = ambiguous_frame_fraction(samples, ambiguous_classes)
    return 100.0 * (1.0 - p / 2.0)


def _glyph(label: int) -> str:
    return _GLYPHS[label] if 0 <= label < len(_GLYPHS) else "#"


def export_timeline(pred, gt, class_names) -> str:
    """Render aligned per-frame glyph rows plus a segment summary table.

    Class i is the i-th glyph of A-Z a-z 0-9 (a background class too), any
    other id ``#``. ``gt`` may be None to render a prediction-only timeline;
    otherwise both sequences must have the same nonzero length and the
    summary lists the reference segments with their per-segment agreement.
    """
    pred = np.asarray(pred)
    if pred.ndim != 1 or pred.size == 0:
        raise ContractError("timeline needs a non-empty prediction sequence")
    lines = []
    if gt is not None:
        gt = np.asarray(gt)
        if gt.shape != pred.shape:
            raise ContractError(f"timeline length mismatch: {pred.shape} vs {gt.shape}")
        lines.append("gt    " + "".join(_glyph(v) for v in gt))
    lines.append("pred  " + "".join(_glyph(v) for v in pred))
    if gt is not None:
        agree = 100.0 * float(np.count_nonzero(pred == gt)) / pred.size
        lines.append(f"frame agreement: {agree:.3f}%")

    basis = gt if gt is not None else pred
    title = "segments (reference):" if gt is not None else "segments (predicted):"
    lines.append("")
    lines.append(title)
    header = f"  {'#':>3} {'class':<16} {'start':>6} {'end':>6} {'frames':>6}"
    if gt is not None:
        header += f" {'match%':>8}"
    lines.append(header)
    for i, seg in enumerate(segments_from_labels(basis)):
        name = class_names[seg.label] if 0 <= seg.label < len(class_names) else str(seg.label)
        row = f"  {i:>3} {name:<16} {seg.start:>6} {seg.end:>6} {len(seg):>6}"
        if gt is not None:
            match = 100.0 * float(np.count_nonzero(pred[seg.start:seg.end] == seg.label)) / len(seg)
            row += f" {match:>8.3f}"
        lines.append(row)
    return "\n".join(lines) + "\n"
