"""Command-line front end tests: exit codes, emitted artifacts, determinism."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from lgrin import cli
from lgrin import model as mm
from lgrin import training as tr
from lgrin.data import load_dataset


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    assert run("synth", "--classes", "3", "--per-class", "4", "--m", "8",
               "--p", "4", "--noise", "0.05", "--seed", "7",
               "--out", str(out)) == 0
    return out


@pytest.fixture
def run_config(tmp_path, dataset_dir):
    doc = {
        "model": {"m": 8, "p": 4, "c": 3, "inception_layers": 1,
                  "etas": [[8, 4]], "seed": 2},
        "train": {"epochs": 4, "batch_size": 8, "seed": 1},
        "data": {"manifest": str(dataset_dir / "manifest.json")},
        "output_dir": str(tmp_path / "run"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def trained(tmp_path, run_config):
    assert run("train", "--config", str(run_config)) == 0
    out = tmp_path / "run"
    return out / "checkpoint.npz", out / "report.json"


def fail_fsync(monkeypatch, failing=1):
    """Make the ``failing``-th fsync of the run fail as on a full disk."""
    syncs = []

    def fsync(fd):
        syncs.append(fd)
        if len(syncs) == failing:
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", fsync)


class TestSynth:
    def test_writes_all_csvs_and_manifest(self, dataset_dir):
        csvs = sorted(dataset_dir.glob("*.csv"))
        assert len(csvs) == 12
        ds = load_dataset(dataset_dir / "manifest.json")
        assert len(ds.samples) == 12

    def test_refuses_overwrite_without_force(self, dataset_dir):
        code = run("synth", "--classes", "3", "--per-class", "4", "--m", "8",
                   "--p", "4", "--out", str(dataset_dir))
        assert code == 1
        code = run("synth", "--classes", "3", "--per-class", "4", "--m", "8",
                   "--p", "4", "--out", str(dataset_dir), "--force")
        assert code == 0

    def test_byte_identical_rerun(self, tmp_path):
        args = ("synth", "--classes", "2", "--per-class", "2", "--m", "5",
                "--p", "3", "--noise", "0.3", "--seed", "9")
        run(*args, "--out", str(tmp_path / "a"))
        run(*args, "--out", str(tmp_path / "b"))
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


class TestTrain:
    def test_happy_path_artifacts(self, trained):
        ckpt, report = trained
        assert sorted(p.name for p in ckpt.parent.iterdir()) == [
            "checkpoint.npz", "report.json"]
        doc = json.loads(report.read_text())
        assert len(doc["report"]["loss_curve"]) == 4
        assert doc["parameter_count"] > 0

    def test_missing_manifest_exit_2(self, tmp_path, run_config, capsys):
        doc = json.loads(run_config.read_text())
        doc["data"]["manifest"] = str(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("train", "--config", str(bad)) == 2
        assert "missing.json" in capsys.readouterr().err

    def test_override_honored_in_echo(self, tmp_path, run_config):
        assert run("train", "--config", str(run_config),
                   "--override", "train.epochs=1",
                   "--override", f"output_dir={tmp_path / 'run2'}") == 0
        doc = json.loads((tmp_path / "run2" / "report.json").read_text())
        assert doc["run_config"]["train"]["epochs"] == 1
        assert len(doc["report"]["loss_curve"]) == 1

    def test_unknown_key_rejected(self, tmp_path, run_config, capsys):
        doc = json.loads(run_config.read_text())
        doc["model"]["frobnicate"] = 1
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(doc))
        assert run("train", "--config", str(bad)) == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_baseline_arch(self, tmp_path, run_config):
        assert run("train", "--config", str(run_config),
                   "--override", "model.arch=baseline_gcn",
                   "--override", f"output_dir={tmp_path / 'rb'}") == 0
        model = mm.load_checkpoint(tmp_path / "rb" / "checkpoint.npz")
        assert model.config.arch == "baseline_gcn"

    def test_output_dir_under_file_fails_before_training(self, tmp_path, run_config,
                                                         monkeypatch, capsys):
        monkeypatch.setattr(tr, "train", lambda *args: pytest.fail("the run trained"))
        (tmp_path / "afile").write_text("")
        assert run("train", "--config", str(run_config),
                   "--override", f"output_dir={tmp_path / 'afile' / 'run'}") == 2
        one_line_error(capsys, "afile")


class TestEval:
    def test_reproduces_final_train_accuracy(self, trained, dataset_dir,
                                             capsys):
        ckpt, report = trained
        assert run("eval", "--checkpoint", str(ckpt),
                   "--data", str(dataset_dir / "manifest.json")) == 0
        metrics = json.loads(capsys.readouterr().out)
        final = json.loads(report.read_text())["report"]["final_accuracy"]
        assert abs(metrics["unweighted_accuracy"] - final) < 1e-12

    def test_confusion_row_sums_are_class_counts(self, trained, dataset_dir,
                                                 capsys):
        ckpt, _ = trained
        run("eval", "--checkpoint", str(ckpt),
            "--data", str(dataset_dir / "manifest.json"))
        metrics = json.loads(capsys.readouterr().out)
        rows = np.array(metrics["confusion"]).sum(axis=1)
        npt.assert_array_equal(rows, [4, 4, 4])
        hits = np.diag(metrics["confusion"])
        assert metrics["per_class_recall"] == [int(k) / 4 for k in hits]
        assert metrics["mean_class_recall"] == sum(metrics["per_class_recall"]) / 3

    def test_mismatched_width_exit_2(self, trained, tmp_path):
        ckpt, _ = trained
        other = tmp_path / "other"
        run("synth", "--classes", "3", "--per-class", "2", "--m", "8",
            "--p", "5", "--out", str(other))
        assert run("eval", "--checkpoint", str(ckpt),
                   "--data", str(other / "manifest.json")) == 2

    def test_writes_metrics_file(self, trained, dataset_dir, tmp_path):
        ckpt, _ = trained
        out = tmp_path / "metrics.json"
        run("eval", "--checkpoint", str(ckpt),
            "--data", str(dataset_dir / "manifest.json"), "--out", str(out))
        assert "unweighted_accuracy" in json.loads(out.read_text())

    def test_failed_write_leaves_no_file(self, trained, dataset_dir, tmp_path,
                                         monkeypatch, capsys):
        ckpt, _ = trained
        out = tmp_path / "metrics" / "metrics.json"
        fail_fsync(monkeypatch)
        assert run("eval", "--checkpoint", str(ckpt), "--data",
                   str(dataset_dir / "manifest.json"), "--out", str(out)) == 2
        one_line_error(capsys, "No space left on device")
        assert list(out.parent.iterdir()) == []


    def test_out_under_file_fails_before_evaluating(self, trained, dataset_dir, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setattr(tr, "evaluate", lambda *args: pytest.fail("eval ran"))
        ckpt, _ = trained
        (tmp_path / "afile").write_text("")
        capsys.readouterr()
        assert run("eval", "--checkpoint", str(ckpt), "--data",
                   str(dataset_dir / "manifest.json"),
                   "--out", str(tmp_path / "afile" / "m.json")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "afile" in captured.err

    def test_failed_write_prints_nothing(self, trained, dataset_dir, tmp_path,
                                         monkeypatch, capsys):
        ckpt, _ = trained
        fail_fsync(monkeypatch)
        capsys.readouterr()
        assert run("eval", "--checkpoint", str(ckpt), "--data",
                   str(dataset_dir / "manifest.json"),
                   "--out", str(tmp_path / "metrics.json")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "No space left on device" in captured.err


class TestAblate:
    def test_grid_rows_and_param_counts(self, tmp_path, run_config):
        grid = json.dumps({"adjacency_mode": ["learnable", "binary"],
                           "pooling_mode": ["learnable_full", "max"]})
        out = tmp_path / "ablation.csv"
        assert run("ablate", "--config", str(run_config), "--grid", grid,
                   "--out", str(out), "--holdout-folds", "4",
                   "--override", "train.epochs=2") == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 5  # header + 4 cells
        combos = set()
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            combos.add((row["adjacency_mode"], row["pooling_mode"]))
            cfg = mm.ModelConfig(m=8, p=4, c=3, inception_layers=1,
                                 etas=[(8, 4)],
                                 adjacency_mode=row["adjacency_mode"],
                                 pooling_mode=row["pooling_mode"])
            assert int(row["parameter_count"]) == \
                mm.closed_form_parameter_count(cfg)
        assert combos == {("learnable", "learnable_full"), ("learnable", "max"),
                          ("binary", "learnable_full"), ("binary", "max")}

    def test_lambda_sweep_rows(self, tmp_path, run_config):
        grid = json.dumps({"lambdas": [[0.1, 0.1, 1e-4], [0.01, 0.1, 1e-4],
                                       [1.0, 0.1, 1e-4]]})
        out = tmp_path / "lambdas.csv"
        assert run("ablate", "--config", str(run_config), "--grid", grid,
                   "--out", str(out), "--holdout-folds", "4",
                   "--override", "train.epochs=1") == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert {line.split(",")[4] for line in lines[1:]} == \
            {"0.1", "0.01", "1.0"}

    def test_failed_write_leaves_no_file(self, tmp_path, run_config, monkeypatch,
                                         capsys):
        out = tmp_path / "grid" / "ablation.csv"
        fail_fsync(monkeypatch)
        assert run("ablate", "--config", str(run_config), "--grid", "{}",
                   "--out", str(out), "--holdout-folds", "4",
                   "--override", "train.epochs=1") == 2
        one_line_error(capsys, "No space left on device")
        assert list(out.parent.iterdir()) == []

    def test_bad_grid_cell_fails_before_any_training(self, tmp_path, run_config,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(tr, "train", lambda *args: pytest.fail("a cell trained"))
        grid = '{"adjacency_mode": ["learnable", "magic"]}'
        assert run("ablate", "--config", str(run_config), "--grid", grid,
                   "--out", str(tmp_path / "grid.csv"), "--holdout-folds", "4") == 1
        one_line_error(capsys, "unknown adjacency_mode 'magic'")

    def test_out_under_file_fails_before_any_training(self, tmp_path, run_config,
                                                      monkeypatch, capsys):
        monkeypatch.setattr(tr, "train", lambda *args: pytest.fail("a cell trained"))
        (tmp_path / "afile").write_text("")
        assert run("ablate", "--config", str(run_config), "--grid", "{}",
                   "--out", str(tmp_path / "afile" / "g.csv"), "--holdout-folds", "4") == 2
        one_line_error(capsys, "afile")

    @pytest.mark.parametrize("grid, trained_etas", [
        ('{"adjacency_mode": ["learnable"]}', [((4, 2), (8, 6))]),
        # a depth sweep repeats the base's first pair, except at the base's depth
        ('{"layers": [1, 2, 3]}', [((4, 2),), ((4, 2), (8, 6)), ((4, 2),) * 3]),
    ], ids=["no-sweep", "depth-sweep"])
    def test_cell_without_etas_sweep_trains_base_etas(self, tmp_path, run_config,
                                                     monkeypatch, grid, trained_etas):
        seen, real_train = [], tr.train

        def recording_train(model, dataset, cfg):
            seen.append(model.config.etas)
            return real_train(model, dataset, cfg)

        monkeypatch.setattr(tr, "train", recording_train)
        out = tmp_path / "etas.csv"
        assert run("ablate", "--config", str(run_config), "--grid", grid,
                   "--out", str(out), "--holdout-folds", "4",
                   "--override", "train.epochs=1", "--override", "model.inception_layers=2",
                   "--override", "model.etas=[[4, 2], [8, 6]]") == 0
        assert seen == trained_etas
        assert {line.split(",")[2] for line in out.read_text().splitlines()[1:]} == \
            {"default"}


class TestGradcheck:
    def write_config(self, tmp_path):
        doc = {"model": {"m": 6, "p": 5, "c": 3, "inception_layers": 1,
                         "etas": [[8, 4]], "seed": 1}}
        path = tmp_path / "gc.json"
        path.write_text(json.dumps(doc))
        return path

    def test_pass_lists_every_group(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert run("gradcheck", "--config", str(path)) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        for name in mm.build_lgrin(mm.ModelConfig(
                m=6, p=5, c=3, inception_layers=1, etas=[(8, 4)])).registry:
            assert name in out

    def test_corrupted_gradient_fails_exit_3(self, tmp_path, capsys, corrupt_gradient):
        corrupt_gradient("pooling.p")
        path = self.write_config(tmp_path)
        assert run("gradcheck", "--config", str(path)) == 3
        assert "FAIL" in capsys.readouterr().out


class TestInspect:
    def test_adjacency_export(self, trained, capsys):
        ckpt, _ = trained
        assert run("inspect", "--checkpoint", str(ckpt),
                   "--what", "adjacency") == 0
        prefix = ckpt.with_suffix("")
        a = np.loadtxt(prefix.with_name(prefix.name + "_adjacency.csv"),
                       delimiter=",")
        assert a.shape == (8, 8)
        npt.assert_array_equal(a, a.T)
        assert a.min() >= 0.0

        pgm = prefix.with_name(prefix.name + "_adjacency.pgm")
        lines = pgm.read_text().splitlines()
        assert lines[0] == "P2" and lines[1] == "8 8" and lines[2] == "255"
        pixels = np.array([[int(v) for v in line.split()]
                           for line in lines[3:]])
        if a.max() > 0:
            # brightest pixel sits exactly where the adjacency peaks
            assert pixels.flat[a.argmax()] == 255
            npt.assert_array_equal(pixels,
                                   np.rint(a / a.max() * 255).astype(int))

    def test_invert_flag(self, trained):
        ckpt, _ = trained
        run("inspect", "--checkpoint", str(ckpt), "--what", "adjacency")
        prefix = ckpt.with_suffix("")
        pgm = prefix.with_name(prefix.name + "_adjacency.pgm")
        plain = pgm.read_text()
        run("inspect", "--checkpoint", str(ckpt), "--what", "adjacency",
            "--invert")
        inverted = pgm.read_text()
        a = np.array([[int(v) for v in line.split()]
                      for line in plain.splitlines()[3:]])
        b = np.array([[int(v) for v in line.split()]
                      for line in inverted.splitlines()[3:]])
        npt.assert_array_equal(a + b, np.full_like(a, 255))

    def test_salient_indices_in_range(self, trained, dataset_dir):
        ckpt, _ = trained
        assert run("inspect", "--checkpoint", str(ckpt), "--what", "salient",
                   "--data", str(dataset_dir / "manifest.json")) == 0
        prefix = ckpt.with_suffix("")
        lines = (prefix.with_name(prefix.name + "_salient.csv")
                 .read_text().strip().splitlines())
        assert lines[0] == "id,salient_node"
        assert len(lines) == 13
        for line in lines[1:]:
            node = int(line.split(",")[1])
            assert 0 <= node < 8

    def test_interrupted_salient_run_writes_nothing(self, trained, dataset_dir,
                                                    monkeypatch):
        # a run that fails on its third sample leaves no partial CSV behind
        ckpt, _ = trained
        real, calls = mm.argmax_plurality, []

        def fail_on_third(h):
            calls.append(h)
            if len(calls) == 3:
                raise RuntimeError("interrupted")
            return real(h)

        monkeypatch.setattr(mm, "argmax_plurality", fail_on_third)
        with pytest.raises(RuntimeError, match="interrupted"):
            run("inspect", "--checkpoint", str(ckpt), "--what", "salient",
                "--data", str(dataset_dir / "manifest.json"))
        assert sorted(p.name for p in ckpt.parent.iterdir()) == [
            "checkpoint.npz", "report.json"]

    @pytest.mark.parametrize("failing", [1, 2], ids=["csv", "pgm"])
    def test_failed_write_leaves_no_partial_file(self, trained, monkeypatch, capsys,
                                                 failing):
        ckpt, _ = trained
        fail_fsync(monkeypatch, failing)
        capsys.readouterr()
        assert run("inspect", "--checkpoint", str(ckpt), "--what", "adjacency") == 2
        one_line_error(capsys, "No space left on device")
        written = ["checkpoint_adjacency.csv"] if failing == 2 else []
        assert sorted(p.name for p in ckpt.parent.iterdir()) == sorted(
            ["checkpoint.npz", "report.json", *written])
        if written:
            assert np.loadtxt(ckpt.parent / written[0], delimiter=",").shape == (8, 8)

    def test_out_prefix_under_file_fails_before_any_forward_pass(
            self, trained, dataset_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mm, "salient_nodes", lambda *args: pytest.fail("forward ran"))
        ckpt, _ = trained
        (tmp_path / "afile").write_text("")
        capsys.readouterr()
        assert run("inspect", "--checkpoint", str(ckpt), "--what", "salient",
                   "--data", str(dataset_dir / "manifest.json"),
                   "--out-prefix", str(tmp_path / "afile" / "x")) == 2
        one_line_error(capsys, "afile")

    def test_out_prefix_directory_writes_beside_it(self, trained, tmp_path):
        ckpt, _ = trained
        (tmp_path / "adir").mkdir()
        assert run("inspect", "--checkpoint", str(ckpt), "--what", "adjacency",
                   "--out-prefix", str(tmp_path / "adir")) == 0
        assert (tmp_path / "adir_adjacency.csv").is_file()
        assert (tmp_path / "adir_adjacency.pgm").is_file()
        assert list((tmp_path / "adir").iterdir()) == []

    def test_salient_csv_quotes_ids(self, trained, dataset_dir):
        ckpt, _ = trained
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        ids = ["left,right", "two\nlines", 'say "hi"', "cr\rid"]
        for entry, sid in zip(manifest["samples"], ids):
            entry["id"] = sid
        (dataset_dir / "odd_ids.json").write_text(json.dumps(manifest))
        assert run("inspect", "--checkpoint", str(ckpt), "--what", "salient",
                   "--data", str(dataset_dir / "odd_ids.json")) == 0
        path = ckpt.with_name("checkpoint_salient.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "salient_node"]
        assert [row[0] for row in rows[1:]] == [e["id"] for e in manifest["samples"]]
        assert all(len(row) == 2 and 0 <= int(row[1]) < 8 for row in rows[1:])
        # plain ids are written as they are
        assert path.read_text().endswith(f"\n{manifest['samples'][-1]['id']},{rows[-1][1]}\n")

    def test_salient_mean_pooling_fails_before_reading_data(self, tmp_path, run_config,
                                                            dataset_dir, monkeypatch, capsys):
        assert run("train", "--config", str(run_config), "--override", "model.pooling_mode=mean",
                   "--override", f"output_dir={tmp_path / 'mean'}") == 0
        monkeypatch.setattr(cli, "load_dataset", lambda *args: pytest.fail("dataset read"))
        capsys.readouterr()
        assert run("inspect", "--checkpoint", str(tmp_path / "mean" / "checkpoint.npz"),
                   "--what", "salient", "--data", str(dataset_dir / "manifest.json")) == 1
        one_line_error(capsys, "salient nodes need a pooling mode with a max readout")

    def test_salient_requires_data(self, trained):
        ckpt, _ = trained
        assert run("inspect", "--checkpoint", str(ckpt),
                   "--what", "salient") == 1


class TestDeterminism:
    def test_same_seeds_same_checkpoint_bytes(self, tmp_path, run_config):
        blobs = []
        for out in ("first", "second"):
            assert run("train", "--config", str(run_config),
                       "--override", f"output_dir={tmp_path / out}") == 0
            blobs.append((tmp_path / out / "checkpoint.npz").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: with 2 OpenBLAS threads the (90, B*F) @ (B*F, 90) "
        "matmul behind the adjacency gradient rounds differently (~1e-16) "
        "for the second step's B=2 batch, and that step carries it into "
        "adjacency.raw"))
    def test_blas_thread_count_keeps_checkpoint_bytes(self, tmp_path):
        # one facial-scale training epoch of two Adam steps, once with 1 and
        # once with 2 BLAS threads, each in its own process (BLAS reads the
        # count at import)
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            config = tmp_path / f"threads{threads}.json"
            config.write_text(json.dumps({
                "model": {"m": 90, "p": 136, "c": 3, "seed": 0},
                "train": {"epochs": 1, "batch_size": 4, "seed": 0},
                "data": {"synth": {"num_classes": 3, "per_class": 2, "m": 90,
                                   "p": 136, "noise": 0.3, "seed": 1}},
                "output_dir": str(out)}))
            env = {**os.environ, "PYTHONPATH": pythonpath,
                   **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS"), threads)}
            subprocess.run([sys.executable, "-m", "lgrin.cli", "train",
                            "--config", str(config)],
                           env=env, check=True, capture_output=True)
            blobs.append((out / "checkpoint.npz").read_bytes())
        assert blobs[0] == blobs[1]


class TestUsageErrors:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run("eval", "--data", "x.json")
        assert exc.value.code == 1


def one_line_error(capsys, expected):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and expected in err, err


def checkpoint_arrays(ckpt):
    with np.load(ckpt) as zf:
        return {key: zf[key] for key in zf.files}


# JSON nested deeper than the parser's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A trained run next to one malformed file of each kind."""
    root = tmp_path_factory.mktemp("bad")
    assert run("synth", "--classes", "3", "--per-class", "4", "--m", "8", "--p", "4",
               "--noise", "0.05", "--seed", "7", "--out", str(root / "ds")) == 0
    doc = {"model": {"m": 8, "p": 4, "c": 3, "inception_layers": 1,
                     "etas": [[8, 4]], "seed": 2},
           "train": {"epochs": 1, "batch_size": 8, "seed": 1},
           "data": {"manifest": str(root / "ds" / "manifest.json")},
           "output_dir": str(root / "run")}
    (root / "run.json").write_text(json.dumps(doc))
    assert run("train", "--config", str(root / "run.json")) == 0
    (root / "weights5.json").write_text(json.dumps(
        {**doc, "train": {**doc["train"], "loss_weights": 5}}))
    (root / "synth_seed.json").write_text(json.dumps(
        {**doc, "data": {"synth": {"num_classes": 3, "per_class": 2, "m": 8, "p": 4,
                                   "seed": -3}}}))
    (root / "no_m.json").write_text(json.dumps(
        {**doc, "model": {k: v for k, v in doc["model"].items() if k != "m"}}))
    for name, classes, p in [("p5", 3, 5), ("c4", 4, 4)]:
        assert run("synth", "--classes", str(classes), "--per-class", "2", "--m", "8",
                   "--p", str(p), "--out", str(root / name)) == 0
    (root / "not_json.json").write_text("{")
    (root / "latin1.json").write_bytes(b'{"name": "caf\xe9"}')
    (root / "deep.json").write_text(DEEP_JSON)
    doc["model"]["frobnicate"] = 1
    (root / "unknown_key.json").write_text(json.dumps(doc))
    (root / "junk.npz").write_text("not a zip archive\n")
    arrays = checkpoint_arrays(root / "run" / "checkpoint.npz")
    meta = json.loads(str(arrays["meta"]))
    without = {key: {k: v for k, v in meta.items() if k != key} for key in ("arch", "config")}
    # <name>.npz is the trained checkpoint with one array replaced
    for name, key, value in [
            ("arch", "meta", {**meta, "arch": "transformer"}),
            ("no_arch", "meta", without["arch"]),
            ("no_config", "meta", without["config"]),
            ("config_key", "meta", {**meta, "config": {**meta["config"], "frobnicate": 1}}),
            ("arch_list", "meta", {**meta, "arch": ["lgrin"]}),
            ("config_arch", "meta", {**meta, "config": {**meta["config"], "arch": "lgrin"}}),
            ("etas_float", "meta", {**meta, "config": {**meta["config"], "etas": [[8.5, 4]]}}),
            ("meta_text", "meta", np.array("{not json")),
            ("meta_object", "meta", np.array([None])),
            ("meta_deep", "meta", np.array(DEEP_JSON)),
            ("head_string", "param/head.b", np.array(["0", "1", "x"])),
            ("head_object", "param/head.b", np.array([0.0, None, 1.0], dtype=object)),
            ("head_complex", "param/head.b", np.zeros(3, dtype=complex)),
            ("head_nan", "param/head.b", np.array([0.0, np.nan, 1.0])),
            ("head_shape", "param/head.b", np.zeros(4))]:
        if isinstance(value, dict):
            value = np.array(json.dumps(value))
        np.savez(root / f"{name}.npz", **{**arrays, key: value})
    manifest = json.loads((root / "ds" / "manifest.json").read_text())
    for name, features, csv in [("escape", "../run.json", None),
                                ("nul", "a\0.csv", None),
                                ("cell", "a.csv", b"1,x,3,4\n"),
                                ("width", "a.csv", b"1,2,3\n"),
                                ("latin1_csv", "a.csv", b"1,2,3,4\xe9\n"),
                                ("empty_csv", "a.csv", b""),
                                ("blank_csv", "a.csv", b"\n\r\n\r")]:
        (root / name).mkdir()
        (root / name / "manifest.json").write_text(json.dumps(
            {**manifest, "samples": [{"features": features, "label": 0, "id": "a"}]}))
        if csv is not None:
            (root / name / "a.csv").write_bytes(csv)
    first = manifest["samples"][0]
    for name, edit in [("samples5", {"samples": 5}),
                       ("label17", {"samples": [{**first, "label": 1.7}]}),
                       ("classes29", {"num_classes": 2.9}),
                       ("length_string", {"target_length": "8"})]:
        (root / "ds" / f"{name}.json").write_text(json.dumps({**manifest, **edit}))
    (root / "broken").mkdir()
    (root / "broken" / "manifest.json").write_text("{")
    (root / "adir").mkdir()
    return root


EVAL = "eval --checkpoint {r}/run/checkpoint.npz --data"
ABLATE = "ablate --config {r}/run.json --out {r}/grid.csv --grid"
TOO_DEEP = "invalid JSON (maximum recursion depth exceeded"

ERROR_TABLE = [
    # id, argv ({r} is the fixture directory; split on spaces), exit code,
    # text in the message
    ("config-missing", "train --config {r}/missing.json", 1, "config file not found"),
    ("config-not-json", "train --config {r}/not_json.json", 1, "invalid JSON"),
    ("config-not-utf8", "train --config {r}/latin1.json", 1,
     "latin1.json: config file is not UTF-8 text (invalid continuation byte"),
    ("config-too-deep", "train --config {r}/deep.json", 1, TOO_DEEP),
    ("config-unknown-key", "train --config {r}/unknown_key.json", 1, "frobnicate"),
    ("override-not-assignment", "train --config {r}/run.json --override train.epochs",
     1, "is not KEY=VALUE"),
    ("override-fractional", "train --config {r}/run.json --override train.epochs=1.5",
     1, "epochs must be an integer, got 1.5"),
    ("override-fractional-batch-size",
     "train --config {r}/run.json --override train.batch_size=2.5",
     1, "batch_size must be an integer, got 2.5"),
    ("override-fractional-m", "train --config {r}/run.json --override model.m=6.5",
     1, "m must be an integer, got 6.5"),
    ("override-etas-not-pairs", "train --config {r}/run.json --override model.etas=5",
     1, "bad model section"),
    ("override-section-not-object", "train --config {r}/run.json --override model=3",
     1, "model section must be a JSON object"),
    # an override value that does not parse as JSON is a string
    ("override-too-deep", "train --config {r}/run.json --override model=" + DEEP_JSON,
     1, "model section must be a JSON object"),
    ("grid-not-json", ABLATE + " {{", 1, "grid spec: invalid JSON"),
    ("grid-not-list", ABLATE + ' {{"layers":2}}', 1, "grid 'layers' must be a list"),
    ("grid-short-lambdas", ABLATE + ' {{"lambdas":[[0.1,0.1]]}}', 1, "must hold 3 numbers"),
    ("grid-etas-not-pair", ABLATE + ' {{"etas":[5]}}',
     1, "each grid etas entry must hold 2 integers"),
    ("grid-layers-not-int", ABLATE + ' {{"layers":["two"]}}',
     1, "each grid layers entry must be an integer"),
    ("grid-file-missing", ABLATE + " @{r}/missing.json", 2, "grid file not found"),
    ("grid-file-not-utf8", ABLATE + " @{r}/latin1.json", 2, "grid file is not UTF-8 text"),
    ("grid-too-deep", ABLATE + " @{r}/deep.json", 1, "grid spec: " + TOO_DEEP),
    # fewer than two folds is a usage error, found before the config is read;
    # more folds than samples is a data error
    ("holdout-folds-one", "ablate --config {r}/missing.json --grid {{}} --out {r}/grid.csv "
     "--holdout-folds 1", 1, "--holdout-folds must be at least 2, got 1"),
    ("holdout-folds-zero", ABLATE + " {{}} --holdout-folds 0",
     1, "--holdout-folds must be at least 2, got 0"),
    ("holdout-folds-above-samples", ABLATE + " {{}} --holdout-folds 13",
     2, "k=13 is not in [2, 12]"),
    ("manifest-missing", EVAL + " {r}/missing.json", 2, "manifest not found"),
    ("manifest-not-json", EVAL + " {r}/broken/manifest.json", 2, "invalid JSON"),
    ("manifest-not-utf8", EVAL + " {r}/latin1.json", 2, "manifest is not UTF-8 text"),
    ("manifest-too-deep", EVAL + " {r}/deep.json", 2, TOO_DEEP),
    ("manifest-escapes", EVAL + " {r}/escape/manifest.json",
     2, "outside the dataset directory"),
    ("manifest-nul-path", EVAL + " {r}/nul/manifest.json",
     2, "sample #0 features 'a\\x00.csv' is not a valid path"),
    ("manifest-samples-not-list", EVAL + " {r}/ds/samples5.json",
     2, "samples must be a list, got 5"),
    ("manifest-fractional-label", EVAL + " {r}/ds/label17.json",
     2, "sample #0 label must be an integer, got 1.7"),
    ("manifest-fractional-classes", EVAL + " {r}/ds/classes29.json",
     2, "must be integers, num_classes is 2.9"),
    ("manifest-length-string", EVAL + " {r}/ds/length_string.json",
     2, "must be integers, target_length is '8'"),
    ("csv-non-numeric", EVAL + " {r}/cell/manifest.json", 2, "non-numeric cell"),
    ("csv-width", EVAL + " {r}/width/manifest.json", 2, "expected 4 columns"),
    ("csv-not-utf8", EVAL + " {r}/latin1_csv/manifest.json",
     2, "a.csv: feature file is not UTF-8 text"),
    # np.loadtxt warns on a file without data; that would be a second line
    ("csv-empty", EVAL + " {r}/empty_csv/manifest.json", 2, "a.csv: no frames"),
    ("csv-blank-only", EVAL + " {r}/blank_csv/manifest.json", 2, "a.csv: no frames"),
    # eval loads the checkpoint before the dataset
    *[(f"checkpoint-{name}",
       f"eval --checkpoint {{r}}/{file}.npz --data {{r}}/ds/manifest.json", 1, message)
      for name, file, message in [
          ("not-npz", "junk", "not a model checkpoint"),
          ("unknown-arch", "arch", "unknown arch 'transformer'"),
          ("no-arch", "no_arch", "checkpoint meta has no 'arch'"),
          ("no-config", "no_config", "checkpoint meta has no 'config'"),
          ("unknown-config-key", "config_key", "bad checkpoint config"),
          ("arch-not-string", "arch_list", "unknown arch ['lgrin']"),
          ("config-holds-arch", "config_arch", "unknown keys ['arch']"),
          ("etas-not-integers", "etas_float", "etas must be pairs of integers"),
          ("meta-text", "meta_text", "checkpoint meta: invalid JSON"),
          ("meta-object", "meta_object", "checkpoint meta cannot be read"),
          ("meta-too-deep", "meta_deep", "checkpoint meta: " + TOO_DEEP),
          ("param-string", "head_string", "parameter 'head.b' has dtype <U1, not a real float"),
          ("param-object", "head_object", "parameter 'head.b' cannot be read"),
          ("param-complex", "head_complex", "parameter 'head.b' has dtype complex128"),
          ("param-nan", "head_nan", "parameter 'head.b' has non-finite values"),
          ("param-wrong-shape", "head_shape", "parameter 'head.b' shape (4,) != (3,)"),
      ]],
    ("diverging-run", "train --config {r}/run.json --override train.lr0=1e300 "
     "--override output_dir={r}/diverged", 3, "loss became non-finite"),
    # sections are checked after the overrides are applied
    ("override-data-not-object", "train --config {r}/run.json --override data=5",
     1, "data section must be a JSON object"),
    ("override-output-dir-not-string", "train --config {r}/run.json --override output_dir=5",
     1, "output_dir must be a path string"),
    ("override-output-dir-nul",
     r'train --config {r}/run.json --override output_dir="a\u0000b"',
     1, "output_dir must be a path string"),
    ("override-manifest-not-string", "train --config {r}/run.json --override data.manifest=5",
     1, "data manifest must be a path string"),
    ("loss-weights-not-object", "train --config {r}/weights5.json",
     1, "loss_weights must be a JSON object"),
    ("override-loss-weights-not-object",
     "train --config {r}/run.json --override train.loss_weights=5",
     1, "loss_weights must be a JSON object"),
    ("etas-ragged", "train --config {r}/run.json --override model.etas=[[1,2,3],[1,2]]",
     1, "etas must be pairs of integers"),
    ("etas-string", 'train --config {r}/run.json --override model.etas="ab"',
     1, "etas must be pairs of integers"),
    ("etas-not-integers", 'train --config {r}/run.json --override model.etas=[[16.7,"8"]]',
     1, "etas must be pairs of integers"),
    ("arch-not-string", "train --config {r}/run.json --override model.arch=[1]",
     1, "unknown arch [1]"),
    ("synth-fractional", "train --config {r}/run.json --override "
     'data={{"synth":{{"num_classes":3,"per_class":2.5,"m":8,"p":4}}}}',
     1, "per_class must be an integer"),
    ("synth-name-not-string", "train --config {r}/run.json --override "
     'data={{"synth":{{"num_classes":3,"per_class":2,"m":8,"p":4,"name":5}}}}',
     1, "name must be a string"),
    ("override-unknown-key", "train --config {r}/run.json --override bogus=1",
     1, "unknown keys ['bogus']"),
    ("override-unknown-data-key", "train --config {r}/run.json --override data.bogus=1",
     1, "bad data section: unknown keys ['bogus']"),
    ("ablate-model-without-m", "ablate --config {r}/no_m.json --grid {{}} --out {r}/grid.csv",
     1, "required positional argument: 'm'"),
    ("ablate-base-train-rejects", "ablate --config {r}/run.json --grid {{}} "
     "--override model.inception_layers=2 --out {r}/grid.csv", 1, "1 eta pairs for 2 layers"),
    # eval, inspect and train share one dataset check
    ("salient-width", "inspect --checkpoint {r}/run/checkpoint.npz --what salient "
     "--data {r}/p5/manifest.json", 2, "does not match model (8, 4)"),
    ("eval-more-classes", EVAL + " {r}/c4/manifest.json",
     2, "dataset has 4 classes, model head only 3"),
    ("train-width", "train --config {r}/run.json --override data.manifest={r}/p5/manifest.json "
     "--override output_dir={r}/mismatch", 2, "dataset (8, 5) does not match model (8, 4)"),
    # a config number must be finite and not a bool (JSON reads NaN, Infinity, true)
    *[(f"override-{key}-{value}", f"train --config {{r}}/run.json --override {key}={value} "
       "--override output_dir={r}/numbers", 1, message)
      for key, value, message in [
          ("model.mask_threshold", "NaN", "mask_threshold must be a finite number, got nan"),
          ("model.mask_threshold", "Infinity", "mask_threshold must be a finite number"),
          ("model.mask_threshold", "true", "mask_threshold must be a finite number, got True"),
          ("train.epsilon", "Infinity", "epsilon must be a finite number, got inf"),
          ("train.decay", "NaN", "decay must be a finite number, got nan"),
          ("train.decay", "-1", "decay must be in (0, 1], got -1"),
          ("train.decay", "0", "decay must be in (0, 1], got 0"),
          ("train.lr0", "NaN", "lr0 must be a finite number, got nan"),
          ("train.lr0", "Infinity", "lr0 must be a finite number, got inf"),
          ("train.lr0", "true", "lr0 must be a finite number, got True"),
          ("train.loss_weights.lambda1", "NaN", "lambda1 must be a finite number, got nan"),
          ("train.loss_weights.lambda1", "Infinity", "lambda1 must be a finite number"),
          ("train.loss_weights.lambda2", "true", "lambda2 must be a finite number, got True"),
      ]],
    ("override-lr0-beyond-float", "train --config {r}/run.json --override train.lr0=1"
     + "0" * 400, 1, "lr0 must be a finite number"),
    ("synth-noise-nan", "synth --classes 3 --per-class 2 --m 8 --p 4 --noise NaN "
     "--out {r}/noisy", 1, "noise must be a finite number, got nan"),
    ("gradcheck-eps-zero", "gradcheck --config {r}/run.json --eps 0",
     1, "--eps must be a positive finite number, got 0.0"),
    ("gradcheck-eps-negative", "gradcheck --config {r}/run.json --eps -1",
     1, "--eps must be a positive finite number, got -1.0"),
    ("gradcheck-threshold-nan", "gradcheck --config {r}/run.json --threshold nan",
     1, "--threshold must be a positive finite number, got nan"),
    # a seed is a non-negative integer wherever it is given
    ("override-model-seed-negative", "train --config {r}/run.json --override model.seed=-1",
     1, "bad model section: seed must be non-negative, got -1"),
    ("override-train-seed-negative", "train --config {r}/run.json --override train.seed=-1",
     1, "bad train section: seed must be non-negative, got -1"),
    ("synth-seed-negative-in-config", "train --config {r}/synth_seed.json",
     1, "bad synth section: seed must be non-negative, got -3"),
    ("synth-seed-negative", "synth --classes 3 --per-class 2 --m 8 --p 4 --seed -1 "
     "--out {r}/negative", 1, "seed must be non-negative, got -1"),
    ("gradcheck-seed-negative", "gradcheck --config {r}/run.json --seed -1",
     1, "--seed must be non-negative, got -1"),
    # an output path needs a file name, and is checked before anything is computed
    ("inspect-out-prefix-dot", "inspect --checkpoint {r}/run/checkpoint.npz --what salient "
     "--data {r}/ds/manifest.json --out-prefix .", 1, "--out-prefix needs a file name, got '.'"),
    ("inspect-out-prefix-root", "inspect --checkpoint {r}/run/checkpoint.npz --what adjacency "
     "--out-prefix /", 1, "--out-prefix needs a file name, got '/'"),
    ("eval-out-dot", EVAL + " {r}/ds/manifest.json --out .", 1, "--out needs a file name"),
    ("ablate-out-dot", "ablate --config {r}/run.json --grid {{}} --holdout-folds 4 --out .",
     1, "--out needs a file name"),
    ("eval-out-directory", EVAL + " {r}/ds/manifest.json --out {r}/adir",
     2, "adir is a directory"),
    ("ablate-out-directory", "ablate --config {r}/run.json --grid {{}} --holdout-folds 4 "
     "--out {r}/adir", 2, "adir is a directory"),
    ("data-manifest-and-synth", "train --config {r}/run.json --override "
     'data.synth={{"num_classes":3,"per_class":2,"m":8,"p":4}} --override output_dir={r}/both',
     1, "data section needs exactly one of 'manifest' or 'synth'"),
    # sizes whose byte count numpy rejects before allocating anything; train
    # checks its data against the model before building it
    ("train-m-oversized", "train --config {r}/run.json --override model.m=1000000000000 "
     "--override output_dir={r}/huge", 2,
     "dataset (8, 4) does not match model (1000000000000, 4)"),
    ("gradcheck-m-oversized", "gradcheck --config {r}/run.json --override model.m=1000000000000",
     1, "sizes too large for memory: array is too big"),
    ("synth-p-oversized", "synth --classes 3 --per-class 2 --m 8 --p 1000000000000000000 "
     "--out {r}/huge", 1, "sizes too large for memory: array is too big"),
    ("train-synth-p-oversized", "train --config {r}/run.json --override "
     'data={{"synth":{{"num_classes":3,"per_class":2,"m":8,"p":1000000000000000000}}}} '
     "--override output_dir={r}/huge", 1, "sizes too large for memory: array is too big"),
]


def expect_one_line(capsys, bad_inputs, argv, code, expected):
    # a process would print any warning on stderr, and an exception
    # escaping main would be its traceback
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cli.main(argv)
    err = capsys.readouterr().err
    assert got == code, err
    assert err.count("\n") == 1 and expected in err, err
    assert [str(w.message) for w in caught] == []
    assert not (bad_inputs / "grid.csv").exists()


class TestErrorTable:
    @pytest.mark.parametrize("argv, code, expected", [row[1:] for row in ERROR_TABLE],
                             ids=[row[0] for row in ERROR_TABLE])
    def test_one_line_and_exit_code(self, bad_inputs, capsys, monkeypatch, argv, code,
                                    expected):
        argv = argv.format(r=bad_inputs).split()
        if argv[0] in ("eval", "ablate"):  # each such error is found before any work
            for name in ("train", "evaluate"):
                monkeypatch.setattr(tr, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        expect_one_line(capsys, bad_inputs, argv, code, expected)

    def test_module_entry_point(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "lgrin.cli", "train", "--config",
                               str(tmp_path / "missing.json")],
                              env={**os.environ, "PYTHONPATH": pythonpath},
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.count("\n") == 1 and "config file not found" in proc.stderr


class TestAllocationErrors:
    def test_memory_error_is_one_line(self, bad_inputs, capsys, monkeypatch):
        def unable(spec):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000000000,) and data type float64")

        monkeypatch.setattr(cli, "synth_generate", unable)
        expect_one_line(capsys, bad_inputs, "synth --classes 3 --per-class 2 --m 8 --p 4 "
                        f"--out {bad_inputs}/never".split(), 1,
                        "sizes too large for memory: Unable to allocate 7.28 TiB")

    def test_other_value_errors_still_raise(self, bad_inputs, monkeypatch):
        def broken(spec):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "synth_generate", broken)
        with pytest.raises(ValueError, match="could not be broadcast"):
            cli.main(f"synth --classes 3 --per-class 2 --m 8 --p 4 "
                     f"--out {bad_inputs}/never".split())


class TestBadInputs:
    """One case per input kind, each also a table row. Here argv is a list, so
    a value may hold spaces, as the override and grid values do; the table
    splits its argv on spaces."""

    @pytest.mark.parametrize("file, expected", [("arch.npz", "unknown arch 'transformer'")],
                             ids=["unknown-arch"])
    def test_checkpoint_meta(self, bad_inputs, capsys, file, expected):
        expect_one_line(capsys, bad_inputs, ["eval", "--checkpoint", str(bad_inputs / file),
                                             "--data", str(bad_inputs / "ds" / "manifest.json")],
                        1, expected)

    @pytest.mark.parametrize("file, expected", [("junk.npz", "not a model checkpoint")],
                             ids=["not-npz"])
    def test_checkpoint_file(self, bad_inputs, capsys, file, expected):
        expect_one_line(capsys, bad_inputs, ["eval", "--checkpoint", str(bad_inputs / file),
                                             "--data", str(bad_inputs / "ds" / "manifest.json")],
                        1, expected)

    @pytest.mark.parametrize("override, expected", [
        ("train.epochs= 1.5", "epochs must be an integer, got 1.5"),
    ], ids=["fractional-epochs"])
    def test_model_override(self, bad_inputs, capsys, override, expected):
        expect_one_line(capsys, bad_inputs, ["train", "--config", str(bad_inputs / "run.json"),
                                             "--override", override], 1, expected)

    @pytest.mark.parametrize("grid, expected", [('{"layers": 2}', "grid 'layers' must be a list")],
                             ids=["value-not-list"])
    def test_ablate_grid(self, bad_inputs, capsys, grid, expected):
        expect_one_line(capsys, bad_inputs, ["ablate", "--config", str(bad_inputs / "run.json"),
                                             "--grid", grid, "--out", str(bad_inputs / "grid.csv")],
                        1, expected)
