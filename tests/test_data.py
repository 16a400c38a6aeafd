import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actionseg import data
from actionseg.data import (Dataset, DatasetManifest, SequenceSample, SynthConfig,
                            ambiguous_frame_fraction, export_timeline, frame_local_ceiling,
                            load_dataset, load_features, save_dataset, synth_generate,
                            synth_prototypes)
from actionseg.errors import ConfigError, ContractError, LoadError
from actionseg.tensor import Tensor
from memory_helpers import TracedMemory

RNG = np.random.default_rng(80)


def small_dataset(background=None, shared=False):
    samples = {}
    for i, split in enumerate(("train", "train", "test")):
        sid = f"s{i}"
        feats = RNG.normal(size=(6 + i, 3))
        labels = RNG.integers(0, 3, size=6 + i)
        samples[sid] = SequenceSample(sid, Tensor(feats), labels)
    manifest = DatasetManifest(class_names=["bg", "walk", "run"], feature_dim=3,
                               splits={"train": ["s0", "s1"], "test": ["s2"]},
                               background=background, shared_splits=shared)
    return Dataset(manifest, samples)


def test_save_load_round_trip_text(tmp_path):
    ds = small_dataset(background=0)
    manifest_path = save_dataset(ds, tmp_path)
    back = load_dataset(manifest_path)
    assert back.manifest == ds.manifest
    for sid, sample in ds.samples.items():
        assert np.array_equal(back.samples[sid].features.data, sample.features.data)
        assert np.array_equal(back.samples[sid].labels, sample.labels)


def test_save_load_round_trip_binary(tmp_path):
    ds = small_dataset()
    manifest_path = save_dataset(ds, tmp_path, binary=True)
    back = load_dataset(manifest_path)
    for sid, sample in ds.samples.items():
        assert np.array_equal(back.samples[sid].features.data, sample.features.data)


def test_load_features_sniffs_format(tmp_path):
    ds = small_dataset()
    save_dataset(ds, tmp_path / "t")
    save_dataset(ds, tmp_path / "b", binary=True)
    a = load_features(tmp_path / "t" / "s0.features.txt")
    b = load_features(tmp_path / "b" / "s0.features.bin")
    assert np.array_equal(a.data, b.data)


def test_text_features_are_parsed_without_holding_the_file_bytes(tmp_path):
    rng = np.random.default_rng(81)
    sample = SequenceSample("v", Tensor(rng.normal(size=(1000, 64))), np.zeros(1000, dtype=np.int64))
    save_dataset(Dataset(DatasetManifest(["a", "b"], 64, {"test": ["v"]}), {"v": sample}), tmp_path)
    path = tmp_path / "v.features.txt"
    with TracedMemory() as mem:
        feats = load_features(path)
    peak = mem.peak
    assert np.array_equal(feats.data, sample.features.data)
    # the 1.26 MB file peaks at 0.77 times its size: the 0.51 MB output and
    # one block of rows in flight; the row loop held the text and its lines
    # as well, 2.51 times
    assert peak < 1.0 * path.stat().st_size, peak / path.stat().st_size


def test_binary_features_are_read_straight_into_their_array(tmp_path):
    rng = np.random.default_rng(82)
    sample = SequenceSample("v", Tensor(rng.normal(size=(1000, 64))), np.zeros(1000, dtype=np.int64))
    save_dataset(Dataset(DatasetManifest(["a", "b"], 64, {"test": ["v"]}), {"v": sample}), tmp_path,
                 binary=True)
    path = tmp_path / "v.features.bin"
    with TracedMemory() as mem:
        feats = load_features(path)
    peak = mem.peak
    assert np.array_equal(feats.data, sample.features.data)
    assert feats.data.flags.owndata and feats.data.flags.aligned
    # the file's bytes are held once, in the output
    assert peak < 1.2 * path.stat().st_size, peak / path.stat().st_size


@pytest.mark.parametrize("binary, renamed", [(True, ("s0.features.bin", "s0.features.txt")),
                                              (False, ("s1.features.txt", "s1.features.bin"))])
def test_load_dataset_reads_features_by_content_not_extension(tmp_path, binary, renamed):
    ds = small_dataset()
    manifest_path = save_dataset(ds, tmp_path, binary=binary)
    (tmp_path / renamed[0]).rename(tmp_path / renamed[1])
    back = load_dataset(manifest_path)
    for sid, sample in ds.samples.items():
        assert np.array_equal(back.samples[sid].features.data, sample.features.data)


def test_sample_with_both_feature_files_rejected(tmp_path):
    ds = small_dataset()
    manifest_path = save_dataset(ds, tmp_path)
    save_dataset(ds, tmp_path, binary=True)
    with pytest.raises(LoadError, match="has both s0.features.txt and s0.features.bin"):
        load_dataset(manifest_path)


def test_label_out_of_range_names_line(tmp_path):
    ds = small_dataset()
    manifest_path = save_dataset(ds, tmp_path)
    labels_file = tmp_path / "s1.labels.txt"
    lines = labels_file.read_text().splitlines()
    lines[2] = "7"
    labels_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError) as err:
        load_dataset(manifest_path)
    assert "s1.labels.txt:3" in str(err.value)


def test_feature_dimension_mismatch_rejected(tmp_path):
    ds = small_dataset()
    manifest_path = save_dataset(ds, tmp_path)
    text = manifest_path.read_text().replace("feature_dim = 3", "feature_dim = 4")
    manifest_path.write_text(text)
    with pytest.raises(LoadError) as err:
        load_dataset(manifest_path)
    assert "feature_dim" in str(err.value)


def test_missing_sample_file_rejected(tmp_path):
    ds = small_dataset()
    manifest_path = save_dataset(ds, tmp_path)
    (tmp_path / "s2.features.txt").unlink()
    with pytest.raises(LoadError) as err:
        load_dataset(manifest_path)
    assert "s2" in str(err.value)


def test_unknown_manifest_key_rejected(tmp_path):
    ds = small_dataset()
    manifest_path = save_dataset(ds, tmp_path)
    manifest_path.write_text(manifest_path.read_text() + "wibble = 3\n")
    with pytest.raises(LoadError) as err:
        load_dataset(manifest_path)
    assert "wibble" in str(err.value)


MANIFEST = ["version = 1", "feature_dim = 3", "classes = bg,walk,run", "background = 0",
            "shared_splits = deny", "", "[split train]", "s0", "s1", "", "[split test]", "s2"]


@pytest.mark.parametrize("lineno, text, named", [
    (7, "[split]", "bad section header"),
    (11, "[split train]", "duplicate split 'train'"),
    (9, "s0", "duplicate sample 's0' within one split"),
    (1, "version = 2", "unsupported manifest version '2'"),
    (2, "feature_dim = 3.0", "feature_dim is not an integer"),
    (3, "classes = bg,,run", "empty class name"),
    (4, "background = none", "background is not an integer"),
    (5, "shared_splits = maybe", "shared_splits must be allow or deny"),
], ids=["section-header", "duplicate-split", "duplicate-sample", "version", "feature-dim",
        "empty-class", "background", "shared-splits"])
def test_a_manifest_defect_names_its_file_and_line(tmp_path, lineno, text, named):
    lines = list(MANIFEST)
    lines[lineno - 1] = text
    path = tmp_path / "manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{path}:{lineno}: {named}")


def test_overlapping_splits_default_error_allowed_when_marked(tmp_path):
    ds = small_dataset()
    ds.manifest.splits["test"] = ["s2", "s0"]  # s0 shared with train
    manifest_path = save_dataset(ds, tmp_path)
    with pytest.raises(LoadError) as err:
        load_dataset(manifest_path)
    assert "shared_splits" in str(err.value)

    ds_marked = small_dataset(shared=True)
    ds_marked.manifest.splits["test"] = ["s2", "s0"]
    manifest_path = save_dataset(ds_marked, tmp_path / "marked")
    back = load_dataset(manifest_path)
    assert back.manifest.splits["test"] == ["s2", "s0"]


def test_split_lookup_missing_name():
    ds = small_dataset()
    with pytest.raises(LoadError):
        ds.split("validation")


@pytest.mark.parametrize("name", ["manifest.txt", "s1.features.txt", "s1.labels.txt"])
def test_non_utf8_dataset_file_raises_load_error(tmp_path, name):
    save_dataset(small_dataset(), tmp_path)
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + b"\xff\n")
    with pytest.raises(LoadError, match="not UTF-8"):
        load_dataset(tmp_path / "manifest.txt")


def test_unreadable_dataset_file_raises_load_error(tmp_path):
    manifest_path = save_dataset(small_dataset(), tmp_path / "ds")
    for path in (tmp_path / "nope.txt", tmp_path):
        with pytest.raises(LoadError, match="cannot read"):
            load_features(path)
        with pytest.raises(LoadError, match="cannot read"):
            load_dataset(path)
    (tmp_path / "ds" / "s0.labels.txt").unlink()
    (tmp_path / "ds" / "s0.labels.txt").mkdir()
    with pytest.raises(LoadError, match="cannot read"):
        load_dataset(manifest_path)


@pytest.mark.parametrize("text, named", [
    ("2 2\n0.0 1.0\n1.0 0.0\n2.0 2.0\n", "header promises 2 rows, file has 3"),
    ("2 2\n0.0 1.0\n", "header promises 2 rows, file has 1"),
    ("0 2\n", "header sizes must be positive"),
    ("1 -2\n0.0\n", "header sizes must be positive"),
    ("1 99999999999\n0.0\n", "header promises 1x99999999999 values"),
], ids=["extra-row", "missing-row", "no-rows", "negative-width", "huge-width"])
def test_text_features_must_match_their_header(tmp_path, text, named):
    path = tmp_path / "x.features.txt"
    path.write_text(text)
    with pytest.raises(LoadError) as err:
        load_features(path)
    assert str(path) in str(err.value) and named in str(err.value)


@pytest.mark.parametrize("rows, named", [
    (["0.0 1.0", "inf 0.0", "1.0 x", "2.0 2.0"], ":3: non-finite feature value"),
    (["0.0 1.0", "1.0 1.0", "2.0 x", "nan 2.0"], ":4: non-numeric value"),
    (["0.0 1.0", "1.0 nan", "2.0", "3.0 3.0"], ":3: non-finite feature value"),
    (["0.0 1.0", "1.0 1.0", "-inf 0", "3.0 3.0"], ":4: non-finite feature value"),
], ids=["non-finite-first", "non-numeric-first", "before-a-short-row", "last-check"])
def test_text_features_report_the_first_bad_row_in_file_order(tmp_path, rows, named):
    path = tmp_path / "x.features.txt"
    path.write_text("\n".join(["4 2", *rows]) + "\n")
    with pytest.raises(LoadError) as err:
        load_features(path)
    assert str(err.value) == f"{path}{named}"


def test_text_writer_matches_the_per_value_repr_writer(tmp_path):
    values = [-0.0, 5e-324, 0.1, 1 / 3, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]
    feats = np.array([values, values[::-1]])
    sample = SequenceSample("v", Tensor(feats), np.zeros(2, dtype=np.int64))
    save_dataset(Dataset(DatasetManifest(["a", "b"], len(values), {"test": ["v"]}), {"v": sample}),
                 tmp_path)
    rows = [f"{feats.shape[0]} {feats.shape[1]}"]
    rows += [" ".join(repr(float(v)) for v in row) for row in feats]
    text = (tmp_path / "v.features.txt").read_bytes()
    assert text == ("\n".join(rows) + "\n").encode()
    assert load_features(tmp_path / "v.features.txt").data.tobytes() == feats.tobytes()


def _reference_text_features(path, text: str) -> np.ndarray:
    """``load_features`` of a text file with a well-formed header, one ``float()`` per token."""
    lines = text.splitlines()
    t_len, dim = map(int, lines[0].split())
    if len(lines) - 1 != t_len:
        raise LoadError(f"{path}: header promises {t_len} rows, file has {len(lines) - 1}")
    if 2 * t_len * dim > len(text):
        raise LoadError(f"{path}: header promises {t_len}x{dim} values, "
                        f"more than {len(text)} characters can hold")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != dim:
            raise LoadError(f"{path}:{lineno}: expected {dim} values, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise LoadError(f"{path}:{lineno}: non-numeric value") from None
        if not all(np.isfinite(row)):
            raise LoadError(f"{path}:{lineno}: non-finite feature value")
        rows.append(row)
    return np.array(rows, dtype=np.float64)


# legal spellings that float() accepts beyond the shortest repr, and illegal ones;
# "\xa0" splits tokens, and "\x1c" and "\x0b" split lines as well
_ODD_TOKENS = ["1_0", "١", " +.5", "Infinity", "1e400", "-0", "5e-324", "nan", "-inf", "0001.5e-3"]
_BAD_TOKENS = ["nan(1)", "0x1p3", "1e", "", "1.0,2.0", "1__0", "--1", "1e5.5", "\x00"]
_SEPARATORS = [" ", " ", " ", "  ", "\t", "\xa0", "\x1c", " \x0b "]


@st.composite
def _feature_texts(draw) -> str:
    dim = draw(st.integers(1, 4))
    good = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.sampled_from(_ODD_TOKENS))
    token = st.one_of(good, st.sampled_from(_BAD_TOKENS))
    row = st.one_of(st.lists(good, min_size=dim, max_size=dim),
                    st.lists(token, min_size=dim, max_size=dim),
                    st.lists(token, max_size=dim + 2))
    rows = draw(st.lists(st.tuples(row, st.sampled_from(_SEPARATORS)), min_size=1, max_size=6))
    body = [sep.join(tokens) for tokens, sep in rows]
    return "\n".join([f"{len(body)} {dim}", *body]) + "\n"


@given(_feature_texts())
@example("2 3\n1_0 ١ +.5\nInfinity 0 1\n")
@example("2 3\n1 2 3\n4 5 nan(1)\n")
@example("3 2\n1e400 x\n1 2\n1.0,2.0 3\n")
@example("2 2\n0.1 5e-324\n-0.0 1e16\n")
def test_text_feature_rows_parse_as_float_does(text):
    # the guard on every numpy version the package allows: the row loop
    # converts a row in one numpy call, the lane in whole-array passes, and
    # both must give float()'s bits and errors
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.features.txt"
        path.write_text(text, encoding="utf-8")
        try:
            want = _reference_text_features(path, text)
        except LoadError as exc:
            with pytest.raises(LoadError) as err:
                load_features(path)
            assert str(err.value) == str(exc)
        else:
            assert load_features(path).data.tobytes() == want.tobytes()


# the whole-array lane: files in the shape save_dataset writes are converted
# in blocks of rows, with float()'s bits; every other file takes the row loop


def _write_features(path, rows) -> str:
    """Write rows of tokens as ``save_dataset`` lays them out; returns the text."""
    text = "\n".join([f"{len(rows)} {len(rows[0])}", *(" ".join(r) for r in rows)]) + "\n"
    path.write_text(text)
    return text


def _lane_only(monkeypatch):
    """Make the row loop fail, so that a load can only succeed in the lane."""
    def row_loop(path, text):
        raise AssertionError(f"{path} was declined by the whole-array lane")
    monkeypatch.setattr(data, "_load_features_text", row_loop)


@st.composite
def _saved_matrices(draw) -> np.ndarray:
    """Matrices whose saved reprs mix plain decimals with some e-notation, ±0.0 and subnormals."""
    dim = draw(st.sampled_from([1, 3, 64]))
    # a value takes about 20 bytes, so some files span one to three blocks of rows
    blocks = draw(st.sampled_from([0, 0, 1, 3]))
    rows = draw(st.integers(1, 40)) + blocks * data._LANE_CHUNK // (20 * dim)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-4, 14))
    arr = rng.normal(size=(rows, dim)) * scale
    special = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-5, 1.5e16, -1e22]))
    for value in draw(st.lists(special, max_size=6)):
        arr.flat[draw(st.integers(0, arr.size - 1))] = value
    return arr


@settings(max_examples=60, deadline=None)
@given(_saved_matrices())
def test_saved_feature_files_load_as_float_reads_them(arr):
    sample = SequenceSample("v", Tensor(arr), np.zeros(arr.shape[0], dtype=np.int64))
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(Dataset(DatasetManifest(["a", "b"], arr.shape[1], {"t": ["v"]}), {"v": sample}),
                     tmp)
        path = Path(tmp) / "v.features.txt"
        want = _reference_text_features(path, path.read_text())
        got = load_features(path).data
    assert got.tobytes() == want.tobytes() == arr.tobytes()


# decimals the lane must send to float(): 2**53 + 1, 2**52 + 0.5 and
# -(2**49 + 1/16) lie exactly halfway between two doubles; 19 and 20 digits
# overflow or nearly overflow int64; 28 and more fraction digits are beyond
# the exact powers of ten. Plain spellings the lane converts itself
_LANE_EDGE_TOKENS = ["9007199254740993.0", "4503599627370496.5", "-562949953421312.0625",
                     "1234567890123456789.0", "-9999999999999999999.5", "99999999999999999999.0",
                     "0.0000000000000000000000000001", "0.12345678901234567890123456789",
                     "-0.000000000000000000000000000049406564584124654", ".5", "5.", "+1.5",
                     "-.25", "+0.0", "-0.0", "007.500", "1e-05", "5e-324", "1.7976931348623157e+308"]


def test_lane_gives_floats_bits_for_edge_decimals(tmp_path, monkeypatch):
    rng = np.random.default_rng(83)
    rows = [[repr(v) for v in row] for row in rng.normal(size=(40, 64)).tolist()]
    for i, token in enumerate(_LANE_EDGE_TOKENS):
        rows[i][(7 * i) % 64] = token
    path = tmp_path / "x.features.txt"
    text = _write_features(path, rows)
    want = _reference_text_features(path, text)
    _lane_only(monkeypatch)
    got = load_features(path).data
    assert got.tobytes() == want.tobytes()
    assert got[0, 0] == 9007199254740992.0 and np.signbit(got[14, 34])


def test_lane_spans_several_blocks_with_the_row_loops_bytes(tmp_path, monkeypatch):
    rng = np.random.default_rng(84)
    arr = rng.normal(size=(300, 64)) * np.logspace(-3, 3, 64)
    arr[::37, 5] = 2e-5  # e-notation in several blocks
    arr[150, :] = -0.0
    sample = SequenceSample("v", Tensor(arr), np.zeros(300, dtype=np.int64))
    save_dataset(Dataset(DatasetManifest(["a", "b"], 64, {"t": ["v"]}), {"v": sample}), tmp_path)
    path = tmp_path / "v.features.txt"
    assert path.stat().st_size > 4 * data._LANE_CHUNK
    with monkeypatch.context() as patched:
        _lane_only(patched)
        got = load_features(path).data
    monkeypatch.setattr(data, "_LANE_LONG_DOUBLE", False)  # what a platform without x87 gets
    assert got.tobytes() == load_features(path).data.tobytes() == arr.tobytes()


@pytest.mark.parametrize("edit", [
    lambda text: text.replace(" ", "\t"),
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text.replace("0.", "\u0660.", 1),  # float() reads Arabic-Indic digits
    lambda text: text.replace("1", "1_1", 1),
    lambda text: text.replace(" ", "\xa0", 1),
    lambda text: text.replace(".", ".5x", 1),
    lambda text: text.rstrip("\n"),
    lambda text: text + "\n",
], ids=["tabs", "crlf", "unicode-digit", "underscore", "nbsp", "letter", "no-final-newline",
        "blank-last-line"])
def test_files_the_lane_declines_load_as_float_reads_them(tmp_path, edit):
    rng = np.random.default_rng(87)
    rows = [[repr(v) for v in row] for row in rng.normal(size=(100, 64)).tolist()]
    path = tmp_path / "x.features.txt"
    text = edit(_write_features(path, rows))
    path.write_text(text, encoding="utf-8")
    try:
        want = _reference_text_features(path, text)
    except LoadError as exc:
        with pytest.raises(LoadError) as err:
            load_features(path)
        assert str(err.value) == str(exc)
    else:
        assert load_features(path).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("token, named", [
    ("1e400", "non-finite feature value"),
    ("1.2.3", "non-numeric value"),
    ("4-2.0", "non-numeric value"),
    ("-.", "non-numeric value"),
    ("1e5e5", "non-numeric value"),
    ("1.0+", "non-numeric value"),
    ("1.2.3 45", "non-numeric value"),  # as many dots as values, not one in each
    ("45 1.2.3", "non-numeric value"),
])
def test_a_bad_token_in_a_late_block_names_its_line(tmp_path, token, named):
    rng = np.random.default_rng(85)
    rows = [[repr(v) for v in row] for row in rng.normal(size=(300, 64)).tolist()]
    tokens = token.split()
    rows[261][17:17 + len(tokens)] = tokens
    path = tmp_path / "x.features.txt"
    text = _write_features(path, rows)
    assert text.index(token) > 3 * data._LANE_CHUNK
    with pytest.raises(LoadError) as err:
        load_features(path)
    assert str(err.value) == f"{path}:263: {named}"
    with pytest.raises(LoadError) as ref:
        _reference_text_features(path, text)
    assert str(ref.value) == str(err.value)


def test_a_long_row_before_a_short_one_is_reported(tmp_path):
    # the two rows hold 128 values between them, as two rows of 64 do
    rng = np.random.default_rng(86)
    rows = [[repr(v) for v in row] for row in rng.normal(size=(300, 64)).tolist()]
    rows[261].append(rows[262].pop())
    path = tmp_path / "x.features.txt"
    _write_features(path, rows)
    with pytest.raises(LoadError) as err:
        load_features(path)
    assert str(err.value) == f"{path}:263: expected 64 values, got 65"


class _CountingFile:
    """A binary file that counts the bytes its reads return."""

    def __init__(self, fh):
        self._fh, self.returned = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def read(self, *args):
        out = self._fh.read(*args)
        self.returned += len(out)
        return out

    def readline(self, *args):
        out = self._fh.readline(*args)
        self.returned += len(out)
        return out

    def readlines(self, *args):
        out = self._fh.readlines(*args)
        self.returned += sum(map(len, out))
        return out


def test_a_saved_text_file_is_read_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(88)
    sample = SequenceSample("v", Tensor(rng.normal(size=(300, 64))), np.zeros(300, dtype=np.int64))
    save_dataset(Dataset(DatasetManifest(["a", "b"], 64, {"t": ["v"]}), {"v": sample}), tmp_path)
    path = tmp_path / "v.features.txt"
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(_CountingFile(open(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(data, "open", counting_open, raising=False)
    _lane_only(monkeypatch)
    assert load_features(path).data.tobytes() == sample.features.data.tobytes()
    # the four bytes of the magic sniff, read again after the rewind, then each byte once
    assert [f.returned for f in opened] == [path.stat().st_size + len(data._FEATURE_MAGIC)]


# chunks as _convert_rows hands them over: whole lines, as readlines returns
# them, with room for `dim` values a line; tokens in the lane's shape, other
# strings of its bytes, and bytes outside its alphabet
_LANE_DECIMALS = st.builds(lambda sign, whole, frac: f"{sign}{whole}.{frac}".encode(),
                           st.sampled_from(["", "-", "+"]), st.text("0123456789", max_size=21),
                           st.text("0123456789", max_size=30))
_ODD_BYTES = [b"\t", b"\r", b"\x00", b"\xa0", b"\xc2\xa0", b"x", b"E", b"a", b"\x0b", b"\x1c"]


@st.composite
def _lane_chunks(draw) -> tuple[bytes, int]:
    dim = draw(st.integers(1, 4))
    token = st.one_of(st.floats(allow_nan=False).map(lambda v: repr(v).encode()), _LANE_DECIMALS,
                      st.text("0123456789.+-e", max_size=6).map(str.encode))
    odd = st.tuples(token, st.sampled_from(_ODD_BYTES), st.integers(0, 8)).map(
        lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        width = draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1]))
        tokens = draw(st.lists(st.one_of(token, token, token, odd), min_size=width, max_size=width))
        lines.append(draw(st.sampled_from([b" ", b" ", b" ", b"  "])).join(tokens) + b"\n")
    if draw(st.booleans()):  # the last line of a file without a final newline
        lines[-1] = lines[-1][:-1]
    return b"".join(lines), dim


@given(_lane_chunks())
@example((b"1.5a\n", 1))
@example((b"1.5\t2.5\n", 2))
@example((b"1.5 2.5\n3.5\r\n", 2))
@example((b"-0.0 12345678901234567890.5\n", 2))
def test_the_chunk_converter_gives_floats_bits_or_declines(case):
    chunk, dim = case
    lines = chunk.count(b"\n") + (not chunk.endswith(b"\n"))
    dest = np.full(lines * dim, np.nan)
    if data._convert_chunk(chunk, dim, dest):
        assert chunk.endswith(b"\n")
        rows = [line.split(b" ") for line in chunk[:-1].split(b"\n")]
        assert {len(row) for row in rows} == {dim}
        want = np.array([float(token) for row in rows for token in row])
        assert dest.tobytes() == want.tobytes()


# every dataset parser loads its input or raises LoadError, whatever the bytes


def _line_bytes(pool, base):
    """Bytes built from ``pool`` lines and random text, edits of ``base``, or random bytes."""
    line = st.one_of(st.sampled_from(pool), st.text(max_size=12))
    text = st.one_of(st.lists(line, max_size=10).map("\n".join),
                     st.tuples(st.integers(0, len(base) - 1), line).map(
                         lambda edit: "\n".join(base[:edit[0]] + [edit[1]] + base[edit[0] + 1:])))
    blob = text.map(str.encode)
    spliced = st.tuples(blob, st.binary(min_size=1, max_size=3), st.integers(0, 80)).map(
        lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])
    return st.one_of(st.binary(max_size=80), blob, spliced)


_FEATURE_LINES = ["2 2", "3 2", "1 2", "0 2", "2 0", "1 -1", "2", "2 2 2", "x 2",
                  "1 99999999999", "0.5 1.0", "1 2 3", "nan 1", "1e400 0", "", "-0 7"]
_LABEL_LINES = ["0", "1", "2", "3", "-1", "1.5", "x", "", " 1 "]
_MANIFEST_LINES = ["version = 1", "version = 2", "feature_dim = 2", "feature_dim = 0",
                   "feature_dim = x", "classes = a,b,c", "classes = a", "classes = a,,b",
                   "background = 1", "background = 9", "background = b", "shared_splits = allow",
                   "shared_splits = maybe", "[split train]", "[split test]", "[split]", "[other x]",
                   "s0", "s1", "gone", "# note", "", "wibble = 1", "no equals"]


@st.composite
def _tric_bytes(draw) -> bytes:
    version = draw(st.sampled_from([0, 1, 1, 2]))
    t_len, dim = draw(st.integers(0, 3)), draw(st.sampled_from([0, 1, 2, 2 ** 32 - 1]))
    values = draw(st.lists(st.floats(), min_size=t_len * dim if dim < 4 else 0, max_size=6))
    blob = b"TRIC" + struct.pack("<III", version, t_len, dim) + struct.pack(f"<{len(values)}d", *values)
    cut = draw(st.one_of(st.none(), st.integers(0, len(blob))))
    return blob[:cut] + draw(st.binary(max_size=4))


def _valid_pair(directory):
    """Write samples s0 (text features) and s1 (binary features): 2 frames, 2 dims, classes < 3."""
    for sid, binary in (("s0", False), ("s1", True)):
        sample = SequenceSample(sid, Tensor(np.eye(2)), np.array([0, 2]))
        manifest = DatasetManifest(["a", "b", "c"], 2, {"all": [sid]})
        save_dataset(Dataset(manifest, {sid: sample}), directory, binary=binary)


@pytest.mark.parametrize("kind", ["tric", "text-features", "labels", "manifest"])
def test_dataset_parsers_load_or_raise_load_error(tmp_path, kind):
    _valid_pair(tmp_path)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("version = 1\nfeature_dim = 2\nclasses = a,b,c\n\n[split train]\ns0\ns1\n")
    target, load, pool = {
        "tric": ("s1.features.bin", lambda: load_features(tmp_path / "s1.features.bin"), None),
        "text-features": ("s0.features.txt", lambda: load_features(tmp_path / "s0.features.txt"),
                          _FEATURE_LINES),
        "labels": ("s0.labels.txt", lambda: load_dataset(manifest), _LABEL_LINES),
        "manifest": ("manifest.txt", lambda: load_dataset(manifest), _MANIFEST_LINES),
    }[kind]
    valid = (tmp_path / target).read_bytes()
    load()
    strategy = _tric_bytes() if pool is None else _line_bytes(pool, valid.decode().splitlines())

    @given(strategy)
    @example(valid)
    @example(valid + b"\xff")
    def loads_or_raises_load_error(blob):
        (tmp_path / target).write_bytes(blob)
        try:
            load()
        except LoadError:
            pass

    loads_or_raises_load_error()


# synthetic generator


def synth_cfg(**kw):
    base = dict(num_classes=5, actions_per_video=6, sub_actions=(2, 2), frames_per_sub=(4, 6),
                feature_dim=6, noise=0.05, ambiguous_pairs=[(2, 3)],
                dependency_rule={0: 2, 1: 3}, videos_per_split={"train": 4, "test": 2}, seed=11)
    base.update(kw)
    return SynthConfig(**base)


def test_synth_deterministic_and_seed_sensitive(tmp_path):
    a = synth_generate(synth_cfg())
    b = synth_generate(synth_cfg())
    save_dataset(a, tmp_path / "a")
    save_dataset(b, tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
    c = synth_generate(synth_cfg(seed=12))
    assert not np.array_equal(c.samples["train_0000"].features.data,
                              a.samples["train_0000"].features.data)


def test_synth_videos_follow_dependency_layout():
    cfg = synth_cfg()
    ds = synth_generate(cfg)
    for sample in ds.samples.values():
        non_filler = [l for l in dict.fromkeys(sample.labels.tolist()) if l != 4]
        context = non_filler[0]
        assert context in (0, 1)
        assert sample.labels[0] == 4
        assert sample.labels[-1] == cfg.dependency_rule[context]
        # the decoy context class appears too
        assert (1 - context) in sample.labels


def test_synth_noise_free_nearest_prototype_is_perfect():
    cfg = SynthConfig(num_classes=5, actions_per_video=4, sub_actions=(2, 3),
                      frames_per_sub=(2, 4), feature_dim=6, noise=0.0,
                      videos_per_split={"train": 3}, seed=9)
    ds = synth_generate(cfg)
    protos = synth_prototypes(cfg)
    flat = protos.reshape(-1, cfg.feature_dim)
    n_sub = protos.shape[1]
    for sample in ds.samples.values():
        dists = np.linalg.norm(sample.features.data[:, None, :] - flat[None], axis=2)
        pred = dists.argmin(axis=1) // n_sub
        assert np.array_equal(pred, sample.labels)


def test_ambiguous_pair_shares_prototypes_and_ceiling_binds():
    cfg = synth_cfg(videos_per_split={"train": 30}, seed=23)
    protos = synth_prototypes(cfg)
    assert np.array_equal(protos[2], protos[3])

    ds = synth_generate(cfg)
    seqs = ds.split("train")
    amb = cfg.ambiguous_classes()
    p = ambiguous_frame_fraction(seqs, amb)
    ceiling = frame_local_ceiling(seqs, amb)
    assert 0 < p < 1
    assert ceiling == 100.0 * (1 - p / 2)

    # the best frame-local classifier (nearest prototype with a fixed tie
    # rule) lands at the ceiling up to noise and per-video imbalance
    flat = protos.reshape(-1, cfg.feature_dim)
    n_sub = protos.shape[1]
    hit = tot = 0
    for s in seqs:
        d = np.linalg.norm(s.features.data[:, None, :] - flat[None], axis=2)
        pred = d.argmin(axis=1) // n_sub
        hit += int(np.count_nonzero(pred == s.labels))
        tot += len(s)
    acc = 100.0 * hit / tot
    assert acc <= ceiling + 2.0
    assert abs(acc - ceiling) <= 6.0


def test_frame_local_softmax_cannot_beat_chance_on_ambiguous_segments():
    # a per-frame classifier trained on the raw features has to coin-flip the
    # shared-prototype pair, pinning it at the analytic ceiling overall
    cfg = synth_cfg(videos_per_split={"train": 20}, seed=29, frames_per_sub=(5, 7))
    ds = synth_generate(cfg)
    seqs = ds.split("train")
    X = np.concatenate([s.features.data for s in seqs])
    y = np.concatenate([s.labels for s in seqs])

    rng = np.random.default_rng(0)
    W = rng.normal(size=(cfg.num_classes, cfg.feature_dim)) * 0.01
    b = np.zeros(cfg.num_classes)
    onehot = np.eye(cfg.num_classes)[y]
    for _ in range(400):
        logits = X @ W.T + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / len(y)
        W -= 2.0 * (g.T @ X)
        b -= 2.0 * g.sum(axis=0)

    pred = (X @ W.T + b).argmax(axis=1)
    amb_mask = np.isin(y, sorted(cfg.ambiguous_classes()))
    amb_acc = 100.0 * np.mean(pred[amb_mask] == y[amb_mask])
    overall = 100.0 * np.mean(pred == y)
    ceiling = frame_local_ceiling(seqs, cfg.ambiguous_classes())
    assert amb_acc <= 65.0  # chance is 50 on the shared-prototype pair
    assert overall <= ceiling + 2.0


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        synth_cfg(dependency_rule={0: 2, 1: 9})  # target not ambiguous
    with pytest.raises(ConfigError):
        synth_cfg(dependency_rule={2: 2, 1: 3})  # key inside the pair
    with pytest.raises(ConfigError):
        synth_cfg(ambiguous_pairs=[(2, 3), (3, 4)])  # class reused
    with pytest.raises(ConfigError):
        synth_cfg(ambiguous_pairs=[], dependency_rule={0: 2})  # rule without pairs
    with pytest.raises(ConfigError):
        synth_cfg(actions_per_video=4)  # too short for the dependency layout
    with pytest.raises(ConfigError):
        synth_cfg(dependency_rule={0: 2})  # no decoy possible
    with pytest.raises(ConfigError):
        synth_cfg(num_classes=4)  # no filler class left
    with pytest.raises(ConfigError):
        synth_cfg(sub_actions=(3, 2))  # empty range
    for noise in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ConfigError, match="noise"):
            synth_cfg(noise=noise)


# timeline export


def test_timeline_identical_rows_for_identical_inputs():
    labels = np.array([0, 0, 1, 1, 1, 0])
    text = export_timeline(labels, labels, ["a", "b"])
    lines = text.splitlines()
    assert lines[0].split()[-1] == lines[1].split()[-1]
    assert "100.000%" in lines[2]


def test_timeline_summary_has_one_line_per_segment():
    gt = np.array([0, 0, 1, 1, 1, 0])
    pred = np.array([0, 0, 1, 1, 0, 0])
    text = export_timeline(pred, gt, ["a", "b"])
    seg_lines = [l for l in text.splitlines() if l.startswith("  ") and not l.lstrip().startswith("#")]
    assert len(seg_lines) == 3


def test_timeline_prediction_only():
    pred = np.array([0, 1, 1])
    text = export_timeline(pred, None, ["a", "b"])
    assert "pred" in text and "gt" not in text
    assert "segments (predicted):" in text


def test_timeline_empty_or_mismatched_rejected():
    with pytest.raises(ContractError):
        export_timeline(np.array([]), None, [])
    with pytest.raises(ContractError):
        export_timeline(np.array([0, 1]), np.array([0]), ["a", "b"])
