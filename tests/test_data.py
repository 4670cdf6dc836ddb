"""Dataset loading, padding, synthesis, and split tests."""

import json
import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgrin import data as dd
from lgrin.errors import ConfigError, DataError, SplitError, read_text


def write_dataset(tmp_path, rows_per_sample, labels, feature_dim=3,
                  num_classes=2, target_length=4):
    entries = []
    for i, (rows, label) in enumerate(zip(rows_per_sample, labels)):
        name = f"s{i}.csv"
        with open(tmp_path / name, "w") as fh:
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        entries.append({"features": name, "label": label, "id": f"s{i}"})
    doc = {"name": "t", "num_classes": num_classes, "feature_dim": feature_dim,
           "target_length": target_length, "samples": entries}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    return manifest


class TestLoadDataset:
    def test_happy_path(self, tmp_path):
        manifest = write_dataset(tmp_path,
                                 [[[1, 2, 3], [4, 5, 6]], [[7, 8, 9]]],
                                 [0, 1])
        ds = dd.load_dataset(manifest)
        assert len(ds.samples) == 2
        npt.assert_array_equal(ds.samples[0].features, [[1, 2, 3], [4, 5, 6]])
        assert ds.samples[1].label == 1

    def test_width_mismatch_names_file(self, tmp_path):
        manifest = write_dataset(tmp_path, [[[1, 2]]], [0])
        with pytest.raises(DataError, match=r"s0\.csv"):
            dd.load_dataset(manifest)

    def test_empty_samples(self, tmp_path):
        manifest = write_dataset(tmp_path, [], [])
        with pytest.raises(DataError, match="empty dataset"):
            dd.load_dataset(manifest)

    def test_missing_feature_file(self, tmp_path):
        manifest = write_dataset(tmp_path, [[[1, 2, 3]]], [0])
        (tmp_path / "s0.csv").unlink()
        with pytest.raises(DataError, match="not found"):
            dd.load_dataset(manifest)

    def test_non_numeric_cell_names_line(self, tmp_path):
        manifest = write_dataset(tmp_path, [[[1, 2, 3]]], [0])
        (tmp_path / "s0.csv").write_text("1,2,3\n1,oops,3\n")
        with pytest.raises(DataError, match=r"s0\.csv:2"):
            dd.load_dataset(manifest)

    def test_label_out_of_range(self, tmp_path):
        manifest = write_dataset(tmp_path, [[[1, 2, 3]]], [5])
        with pytest.raises(DataError, match="label"):
            dd.load_dataset(manifest)

    def test_num_classes_not_integer(self, tmp_path):
        manifest = write_dataset(tmp_path, [[[1, 2, 3]]], [0], num_classes="two")
        with pytest.raises(DataError, match="must be integers"):
            dd.load_dataset(manifest)

    def test_features_outside_dataset_directory(self, tmp_path):
        (tmp_path / "ds").mkdir()
        manifest = write_dataset(tmp_path / "ds", [[[1, 2, 3]]], [0])
        (tmp_path / "outside.csv").write_text("1,2,3\n")
        doc = json.loads(manifest.read_text())
        doc["samples"][0]["features"] = "../outside.csv"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="outside the dataset directory"):
            dd.load_dataset(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            dd.load_dataset(tmp_path / "nope.json")

    def test_roundtrip_exact(self, tmp_path):
        ds = dd.synth_generate(dd.SynthSpec(num_classes=2, per_class=3, m=5,
                                            p=4, noise=0.7, seed=9))
        manifest = dd.save_dataset(ds, tmp_path / "out")
        again = dd.load_dataset(manifest)
        assert again.name == ds.name
        for a, b in zip(ds.samples, again.samples):
            npt.assert_array_equal(a.features, b.features)
            assert (a.label, a.id) == (b.label, b.id)

    def test_save_refuses_overwrite(self, tmp_path):
        ds = dd.synth_generate(dd.SynthSpec(num_classes=2, per_class=1, m=3,
                                            p=2, seed=0))
        dd.save_dataset(ds, tmp_path / "out")
        with pytest.raises(ConfigError, match="refusing"):
            dd.save_dataset(ds, tmp_path / "out")
        dd.save_dataset(ds, tmp_path / "out", force=True)

    def test_atomic_write_failure_keeps_previous_file(self, tmp_path):
        path = dd.atomic_write(tmp_path / "f.txt", lambda fh: fh.write(b"old"))

        def write_then_fail(fh):
            fh.write(b"new, but only ha")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            dd.atomic_write(path, write_then_fail)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]
        dd.atomic_write(path, lambda fh: fh.write(b"new"))
        assert path.read_bytes() == b"new"

    def test_atomic_write_error_names_target(self, tmp_path):
        (tmp_path / "afile").write_text("")
        target = tmp_path / "afile" / "m.json"
        with pytest.raises(OSError) as info:
            dd.atomic_write(target, lambda fh: fh.write(b"x"))
        assert str(info.value).startswith(f"cannot write {target}: ")
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_atomic_write_creates_missing_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "m.json"
        assert dd.atomic_write_text(target, "{}\n") == target
        assert target.read_text() == "{}\n"
        assert [p.name for p in target.parent.iterdir()] == ["m.json"]

    def test_interrupted_save_leaves_no_manifest(self, tmp_path, monkeypatch):
        ds = dd.synth_generate(dd.SynthSpec(num_classes=2, per_class=2, m=3,
                                            p=2, seed=0))
        real_fsync, syncs = os.fsync, []

        def fsync(fd):
            syncs.append(fd)
            if len(syncs) == 3:  # the third CSV
                raise OSError(28, "No space left on device")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        out = tmp_path / "out"
        third = out / f"{ds.samples[2].id}.csv"
        with pytest.raises(OSError) as info:
            dd.save_dataset(ds, out)
        assert str(info.value) == f"cannot write {third}: No space left on device"
        # the first two CSVs are whole, and nothing names or holds the third
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(f"{s.id}.csv" for s in ds.samples[:2])
        for s in ds.samples[:2]:
            npt.assert_array_equal(dd._read_csv_matrix(out / f"{s.id}.csv", 2),
                                   s.features)
        monkeypatch.setattr(os, "fsync", real_fsync)
        again = dd.load_dataset(dd.save_dataset(ds, out))
        assert [s.id for s in again.samples] == [s.id for s in ds.samples]

    def test_failed_forced_save_leaves_no_manifest(self, tmp_path, monkeypatch):
        def dataset(value):
            return dd.GraphDataset(
                samples=[dd.SequenceSample(np.full((2, 2), value), 0, sid)
                         for sid in "abc"],
                num_classes=2, feature_dim=2, target_length=2, name="abc")

        manifest = dd.save_dataset(dataset(1.0), tmp_path / "out")
        real_fsync, syncs = os.fsync, []

        def fsync(fd):
            syncs.append(fd)
            if len(syncs) == 2:  # the second CSV
                raise OSError(28, "No space left on device")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError, match="b.csv"):
            dd.save_dataset(dataset(2.0), tmp_path / "out", force=True)
        # a.csv is new and b.csv, c.csv old, but no manifest names that mix
        with pytest.raises(DataError, match="manifest not found"):
            dd.load_dataset(manifest)

    @staticmethod
    def two_samples(id_a, id_b):
        return dd.GraphDataset(
            samples=[dd.SequenceSample(np.zeros((2, 2)), 0, id_a),
                     dd.SequenceSample(np.ones((2, 2)), 1, id_b)],
            num_classes=2, feature_dim=2, target_length=2, name="pair")

    def test_save_rejects_repeated_id(self, tmp_path):
        with pytest.raises(DataError, match=r"^pair: sample id 'a' repeats$"):
            dd.save_dataset(self.two_samples("a", "a"), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sid", ["../escaped", "sub/x", "..", "", "a\\b"])
    def test_save_rejects_id_that_is_not_a_file_name(self, tmp_path, sid):
        with pytest.raises(DataError, match="not a plain file name"):
            dd.save_dataset(self.two_samples("a", sid), tmp_path / "out")
        assert list(tmp_path.iterdir()) == []


def per_line_reference(path, expected_width):
    """The per-cell parser that the C reader replaces, kept as it was."""
    text = read_text(path, DataError, "feature file")
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != expected_width:
            raise DataError(f"{path}:{lineno}: expected {expected_width} "
                            f"columns, found {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
    if not rows:
        raise DataError(f"{path}: no frames")
    return np.array(rows, dtype=np.float64)


def parse_outcome(parse, path, width):
    """What ``parse`` makes of the file: its array's shape, dtype and bits,
    or its DataError message."""
    try:
        values = parse(path, width)
    except DataError as exc:
        return "DataError", str(exc)
    return values.shape, values.dtype, values.tobytes()


def assert_parses_like_reference(path, raw, width):
    path.write_bytes(raw.encode("utf-8"))
    assert parse_outcome(dd._read_csv_matrix, path, width) == \
        parse_outcome(per_line_reference, path, width), repr(raw)


# whole files (written as UTF-8 bytes, so "\r" reaches read_text) and their width
PARSE_TABLE = [
    ("negative-zero", "-0.0,0.0\n", 2),
    ("subnormals", "4.9e-324,2.2250738585072009e-308\n-5e-324,1e-320\n", 2),
    ("subnormal-halfway", "2.4703282292062328e-324,2.4703282292062327e-324\n", 2),
    ("largest-double", "1.7976931348623157e308,-1.7976931348623157e308\n", 2),
    ("overflow", "1e400,-1e400\n", 2),
    ("nan", "nan,-nan\nNaN,+nan\n", 2),
    ("inf", "inf,-Infinity\nINF,+iNfInItY\n", 2),
    ("round-trip-digits", "0.10000000000000001,2.7182818284590451\n", 2),
    ("long-digit-strings", "1" + "0" * 400 + ",0." + "0" * 400 + "1\n", 2),
    ("spaces-around-cells", " 1 ,\t2\t\n", 2),
    ("underscore", "1_0,2\n", 2),
    ("arabic-indic-digits", "\u0661\u0662,2\n", 2),
    ("fullwidth-digits", "\uff11\uff12,2\n", 2),
    *[(f"control-{ord(c):02x}-{where}", text, 2) for c in "\x1c\x1d\x1e\x1f"
      for where, text in [("end", f"1{c},2\n"), ("start", f"{c}1,2\n"),
                          ("middle", f"1{c}5,2\n"), ("line-end", f"1,2{c}\n")]],
    ("nul", "1\x00,2\n", 2),
    ("blank-lines", "\n1,2\n\n\n3,4\n\n", 2),
    ("whitespace-only-line", "1,2\n \t \n3,4\n", 2),
    ("crlf", "1,2\r\n3,4\r\n", 2),
    ("bare-cr", "1,2\r3,4\r", 2),
    ("no-final-newline", "1,2\n3,4", 2),
    ("one-column", "5\n6\n", 1),
    ("trailing-comma", "1,2,\n", 2),
    ("wrong-width-line-2", "1,2\n3\n", 2),
    ("non-numeric-line-2", "1,2\n3,x\n", 2),
    ("empty-cell", "1,,2\n", 3),
    ("hex", "0x1p3,1\n", 2),
    ("comment-mark", "1,2\n#3,4\n", 2),
    ("empty-file", "", 2),
    ("blank-only-file", "\n \n\t\n", 2),
]


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "a.csv"


# the whitespace Python strips: ASCII, Unicode, and the four control
# characters around a cell that np.loadtxt strips and Python float does not
SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028"
# and what else parsers tend to differ on: line endings, separators, NUL,
# quotes, comment marks, non-ASCII digits, the letters of nan and inf
ODD = SPACES + "\r\n,\x00_#\"\u0661\uff11.eE+-naif"
NUMBER = st.one_of(st.floats().map(repr), st.floats().map(lambda v: f"{v:.17g}"),
                   st.integers(-10**20, 10**20).map(str))


@st.composite
def csv_texts(draw):
    """A feature file of the drawn width, its cells padded with plain or any
    spaces, then up to two odd insertions."""
    width = draw(st.integers(1, 3))
    pad = st.text(draw(st.sampled_from([" \t", SPACES])), max_size=2)
    row = st.lists(st.tuples(pad, NUMBER, pad).map("".join),
                   min_size=width, max_size=width).map(",".join)
    lines = draw(st.lists(st.one_of(row, row, pad), max_size=4))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + draw(st.text(ODD, min_size=1, max_size=2)) + text[pos:]
    return text, width


class TestCsvParser:
    """The C reader with its fallback gives the per-line parser's bits or
    its DataError message."""

    @pytest.mark.parametrize("raw, width", [row[1:] for row in PARSE_TABLE],
                             ids=[row[0] for row in PARSE_TABLE])
    def test_table(self, tmp_path, raw, width):
        assert_parses_like_reference(tmp_path / "a.csv", raw, width)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(csv_texts())
    def test_random_texts(self, csv_file, case):
        raw, width = case
        assert_parses_like_reference(csv_file, raw, width)


class TestPadOrTruncate:
    def test_cyclic_padding(self):
        f = np.array([[1.0], [2.0], [3.0]])
        out = dd.pad_or_truncate(dd.SequenceSample(f, 0, "a"), 5)
        npt.assert_array_equal(out.features, [[1], [2], [3], [1], [2]])

    def test_exact_length_noop(self):
        f = np.arange(6.0).reshape(3, 2)
        s = dd.SequenceSample(f, 0, "a")
        assert dd.pad_or_truncate(s, 3) is s

    def test_singleton_repeats(self):
        out = dd.pad_or_truncate(dd.SequenceSample([[7.0, 8.0]], 0, "a"), 3)
        npt.assert_array_equal(out.features, [[7, 8], [7, 8], [7, 8]])

    def test_truncates_to_first_m(self):
        f = np.arange(10.0).reshape(5, 2)
        out = dd.pad_or_truncate(dd.SequenceSample(f, 0, "a"), 2)
        npt.assert_array_equal(out.features, f[:2])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for t in (1, 3, 4, 9):
            s = dd.SequenceSample(rng.normal(size=(t, 2)), 0, "a")
            once = dd.pad_or_truncate(s, 6)
            twice = dd.pad_or_truncate(once, 6)
            npt.assert_array_equal(once.features, twice.features)

    def test_modular_rule(self):
        rng = np.random.default_rng(1)
        for t in (1, 2, 5):
            f = rng.normal(size=(t, 3))
            out = dd.pad_or_truncate(dd.SequenceSample(f, 0, "a"), 8)
            for i in range(8):
                npt.assert_array_equal(out.features[i], f[i % t])


class TestSynth:
    def test_deterministic(self):
        spec = dd.SynthSpec(num_classes=3, per_class=4, m=10, p=5,
                            noise=0.2, seed=13)
        a, b = dd.synth_generate(spec), dd.synth_generate(spec)
        for sa, sb in zip(a.samples, b.samples):
            npt.assert_array_equal(sa.features, sb.features)
            assert sa.id == sb.id

    def test_counts_balanced(self):
        ds = dd.synth_generate(dd.SynthSpec(num_classes=4, per_class=50,
                                            m=6, p=2, seed=0))
        assert len(ds.samples) == 200
        labels = ds.labels()
        assert all((labels == c).sum() == 50 for c in range(4))

    def test_noiseless_matches_formula(self):
        spec = dd.SynthSpec(num_classes=2, per_class=2, m=12, p=3,
                            noise=0.0, seed=21)
        ds = dd.synth_generate(spec)
        # the generator's first draw is the (class, feature) phase table
        phases = np.random.default_rng(spec.seed).uniform(
            0.0, 2 * np.pi, (spec.num_classes, spec.p))
        t = np.arange(12)
        s = ds.samples[0]  # class 0, frequency 1
        expected = np.sin(2 * np.pi * 1 * t[:, None] / 12 + phases[0][None, :])
        assert np.max(np.abs(s.features - expected)) == 0.0

    def test_noiseless_same_class_identical(self):
        ds = dd.synth_generate(dd.SynthSpec(num_classes=2, per_class=2, m=8,
                                            p=2, noise=0.0, seed=5))
        npt.assert_array_equal(ds.samples[0].features, ds.samples[1].features)

    def test_fft_nearest_centroid_oracle(self):
        # distinct class frequencies are linearly separable in the
        # frequency domain: nearest centroid on per-feature FFT magnitude
        # classifies a fresh noiseless draw perfectly
        spec = dd.SynthSpec(num_classes=4, per_class=10, m=16, p=3,
                            noise=0.0, seed=2)
        ds = dd.synth_generate(spec)
        mags = np.array([np.abs(np.fft.rfft(s.features, axis=0)).ravel()
                         for s in ds.samples])
        labels = ds.labels()
        centroids = np.array([mags[labels == c].mean(axis=0) for c in range(4)])
        preds = np.argmin(
            ((mags[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1)
        assert (preds == labels).all()

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            dd.SynthSpec(num_classes=1, per_class=5, m=8, p=4)
        with pytest.raises(ConfigError):
            dd.SynthSpec(num_classes=2, per_class=5, m=8, p=1)
        with pytest.raises(ConfigError):
            dd.SynthSpec(num_classes=2, per_class=5, m=8, p=4, noise=-0.1)


class TestCvSplit:
    def make(self, n_per_class=50, classes=2):
        samples = [dd.SequenceSample(np.zeros((3, 2)), c, f"c{c}s{i}")
                   for c in range(classes) for i in range(n_per_class)]
        return dd.GraphDataset(samples, classes, 2, 3)

    def test_ten_fold_partition(self):
        ds = self.make(50, 2)  # 100 samples
        splits = dd.cv_split(ds, 10, seed=0)
        assert len(splits) == 10
        all_test = []
        for train, test in splits:
            assert len(test) == 10
            assert set(train).isdisjoint(test)
            assert sorted(train + test) == list(range(100))
            all_test.extend(test)
        assert sorted(all_test) == list(range(100))

    def test_deterministic(self):
        ds = self.make(20, 3)
        assert dd.cv_split(ds, 5, seed=7) == dd.cv_split(ds, 5, seed=7)

    def test_stratified(self):
        ds = self.make(30, 3)
        labels = ds.labels()
        for _, test in dd.cv_split(ds, 5, seed=1):
            counts = np.bincount(labels[test], minlength=3)
            assert (counts == 6).all()

    def test_small_class_rejected(self):
        samples = ([dd.SequenceSample(np.zeros((2, 2)), 0, f"a{i}")
                    for i in range(10)]
                   + [dd.SequenceSample(np.zeros((2, 2)), 1, "b0")])
        ds = dd.GraphDataset(samples, 2, 2, 2)
        with pytest.raises(SplitError, match="class 1"):
            dd.cv_split(ds, 3, seed=0)

    def test_bad_k(self):
        ds = self.make(5, 2)
        with pytest.raises(SplitError):
            dd.cv_split(ds, 1, seed=0)
        with pytest.raises(SplitError):
            dd.cv_split(ds, 11, seed=0)
