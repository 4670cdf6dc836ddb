"""Command-line front end tests: exit codes, emitted artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from lgrin import cli
from lgrin import model as mm
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
        assert model.arch == "baseline_gcn"


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

    def test_corrupted_gradient_fails_exit_3(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert run("gradcheck", "--config", str(path),
                   "--corrupt", "pooling.p") == 3
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

    def test_salient_requires_data(self, trained):
        ckpt, _ = trained
        assert run("inspect", "--checkpoint", str(ckpt),
                   "--what", "salient") == 1


class TestDeterminism:
    @pytest.mark.xfail(strict=True, reason=(
        "known defect: with 2 OpenBLAS threads the (90, F) @ (F, 90) matmul "
        "behind the adjacency gradient rounds differently (~1e-16), and the "
        "second Adam step carries that into adjacency.raw; a one-step run "
        "would hide it"))
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


def one_line_error(capsys, expected):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and expected in err, err


def checkpoint_arrays(ckpt):
    with np.load(ckpt) as zf:
        return {key: zf[key] for key in zf.files}


def write_meta(path, arrays, text):
    np.savez(path, **{**arrays, "meta": np.array(text)})


class TestBadInputs:
    @pytest.mark.parametrize("edit, expected", [
        (lambda meta: meta.update(arch="transformer"), "unknown arch 'transformer'"),
        (lambda meta: meta.pop("arch"), "no 'arch'"),
        (lambda meta: meta.pop("config"), "no 'config'"),
        (lambda meta: meta["config"].update(frobnicate=1), "bad checkpoint config"),
    ], ids=["unknown-arch", "no-arch", "no-config", "unknown-config-key"])
    def test_checkpoint_meta(self, trained, dataset_dir, tmp_path, capsys,
                             edit, expected):
        ckpt, _ = trained
        arrays = checkpoint_arrays(ckpt)
        meta = json.loads(str(arrays["meta"]))
        edit(meta)
        bad = tmp_path / "bad.npz"
        write_meta(bad, arrays, json.dumps(meta))
        assert run("eval", "--checkpoint", str(bad),
                   "--data", str(dataset_dir / "manifest.json")) == 1
        one_line_error(capsys, expected)

    @pytest.mark.parametrize("write, expected", [
        (lambda path, arrays: write_meta(path, arrays, "{not json"),
         "checkpoint meta is not JSON"),
        (lambda path, arrays: path.write_text("not a zip archive\n"),
         "not a model checkpoint"),
    ], ids=["meta-not-json", "not-npz"])
    def test_checkpoint_file(self, trained, dataset_dir, tmp_path, capsys,
                             write, expected):
        ckpt, _ = trained
        bad = tmp_path / "bad.npz"
        write(bad, checkpoint_arrays(ckpt))
        assert run("eval", "--checkpoint", str(bad),
                   "--data", str(dataset_dir / "manifest.json")) == 1
        one_line_error(capsys, expected)

    @pytest.mark.parametrize("override, expected", [
        ("model.etas=5", "bad model section"),
        ("model=3", "model section must be a JSON object"),
        ("train.epochs=1.5", "epochs must be an integer, got 1.5"),
        ("train.batch_size=2.5", "batch_size must be an integer, got 2.5"),
        ("model.m=6.5", "m must be an integer, got 6.5"),
    ], ids=["etas-not-pairs", "section-not-object", "fractional-epochs",
            "fractional-batch-size", "fractional-m"])
    def test_model_override(self, run_config, capsys, override, expected):
        assert run("train", "--config", str(run_config),
                   "--override", override) == 1
        one_line_error(capsys, expected)

    @pytest.mark.parametrize("grid, expected", [
        ('{"layers": 2}', "must be a list"),
        ('{"lambdas": [[0.1, 0.1]]}', "must hold 3 numbers"),
        ('{"etas": [5]}', "each grid etas entry must hold 2 integers"),
        ('{"layers": ["two"]}', "each grid layers entry must be an integer"),
    ], ids=["value-not-list", "short-lambdas", "etas-not-pair", "layers-not-int"])
    def test_ablate_grid(self, tmp_path, run_config, capsys, grid, expected):
        assert run("ablate", "--config", str(run_config), "--grid", grid,
                   "--out", str(tmp_path / "grid.csv")) == 1
        one_line_error(capsys, expected)
        assert not (tmp_path / "grid.csv").exists()


class TestUsageErrors:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run("eval", "--data", "x.json")
        assert exc.value.code == 1
