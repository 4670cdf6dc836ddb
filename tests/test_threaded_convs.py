"""An inception layer's convolution node computes the same bits whether its
forward runs on the worker thread or on the caller.

``layers.THREAD_WORK`` is patched to pick the path: 0 sends every layer to
the worker, a huge value keeps every layer on the caller. A spy on the
private forward records which thread ran it, so a test of the worker path
fails if the worker never ran.
"""

import json
import os
import subprocess
import sys
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from lgrin import autodiff as ad
from lgrin import cli
from lgrin import layers as L
from lgrin import model as mm
from lgrin import training as tr
from lgrin.data import SynthSpec, save_dataset, synth_generate
from lgrin.objective import LossWeights

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the worker thread runs only where the process may use two CPUs")

PATHS = {"worker": 0, "caller": 1 << 62}
MODES = [(adj, pool) for adj in mm.ADJACENCY_MODES for pool in L.POOLING_MODES]
TRAIN = tr.TrainConfig(epochs=3, batch_size=8, seed=1)


@contextmanager
def path(name):
    """Run every inception layer's convolutions on the named path, and
    check that they ran there."""
    threads, real = [], L._conv_branches

    def spy(*args):
        threads.append(threading.current_thread() is threading.main_thread())
        return real(*args)

    with mock.patch.object(L, "THREAD_WORK", PATHS[name]), \
            mock.patch.object(L, "_conv_branches", spy):
        yield
    assert threads and set(threads) == {name == "caller"}


def dataset(m, p, c, per_class, seed):
    return synth_generate(SynthSpec(num_classes=c, per_class=per_class, m=m, p=p,
                                    noise=0.3, seed=seed))


def run_bits(config, tmp_path, name, fine_tune_from=None):
    """Loss curve (float hex), checkpoint bytes, held-out evaluation and
    salient nodes of one training run."""
    m, p = config.m, config.p
    if fine_tune_from is None:
        model, report = tr.train(mm.build_lgrin(config), dataset(m, p, config.c, 4, 7), TRAIN)
        test_ds = dataset(m, p, config.c, 3, 8)
    else:
        model, report = tr.fine_tune_head(fine_tune_from, dataset(m, p, 2, 6, 9), TRAIN)
        test_ds = dataset(m, p, 2, 3, 10)
    ckpt = mm.save_checkpoint(model, tmp_path / f"{name}.npz")
    test = mm.samples_for(model, test_ds)
    salient = mm.salient_nodes(model, test) if config.pooling_mode != "mean" else None
    return ([x.hex() for x in report.loss_curve], ckpt.read_bytes(),
            tr.evaluate(model, test), salient), model


def both_paths(config, tmp_path, fine_tune_from=None):
    bits = {}
    for name in PATHS:
        with path(name):
            bits[name], _ = run_bits(config, tmp_path, name, fine_tune_from)
    return bits


@pytest.mark.parametrize("adjacency_mode, pooling_mode", MODES)
def test_training_and_reads_keep_every_bit(adjacency_mode, pooling_mode, tmp_path):
    config = mm.ModelConfig(m=8, p=4, c=3, inception_layers=2, etas=((6, 4), (5, 3)),
                            adjacency_mode=adjacency_mode, pooling_mode=pooling_mode, seed=2)
    bits = both_paths(config, tmp_path)
    assert bits["worker"] == bits["caller"]


@pytest.mark.parametrize("config", [
    # layer 1 spans the graph from the start
    mm.ModelConfig(m=32, p=8, c=4, inception_layers=2, etas=((16, 8), (16, 8)), seed=0),
    # three layers; the third spans while the second does not
    mm.ModelConfig(m=24, p=8, c=4, inception_layers=3, etas=((6, 4), (5, 3), (4, 2)), seed=0),
], ids=["spans-at-1", "three-layers"])
def test_spanning_and_deeper_models_keep_every_bit(config, tmp_path):
    bits = both_paths(config, tmp_path)
    assert bits["worker"] == bits["caller"]


def test_fine_tuned_head_keeps_every_bit(tmp_path):
    # the body is constant, so the convolution node routes no gradient
    config = mm.ModelConfig(m=8, p=4, c=3, inception_layers=2, etas=((6, 4), (5, 3)),
                            adjacency_mode="weighted", seed=2)
    with path("caller"):
        _, base = run_bits(config, tmp_path, "base")
    bits = both_paths(config, tmp_path, fine_tune_from=base)
    assert bits["worker"] == bits["caller"]


@pytest.mark.parametrize("adjacency_mode, m", [("learnable", 24), ("learnable", 32),
                                               ("weighted", 24), ("binary", 24)])
def test_tape_is_the_same_on_both_paths(adjacency_mode, m):
    config = mm.ModelConfig(m=m, p=8, c=4, inception_layers=2, etas=((16, 8), (16, 8)),
                            adjacency_mode=adjacency_mode, seed=0)
    model = mm.build_lgrin(config)
    batch = mm.samples_for(model, dataset(m, 8, 4, 4, 3))
    ops = {}
    for name in PATHS:
        with path(name), ad.GradTape() as tape:
            mm.loss(model, batch, LossWeights())
        ops[name] = [node.backward.__qualname__ for node in tape.nodes]
    assert ops["worker"] == ops["caller"]
    assert ops["worker"].count("_conv_branches.<locals>.back") == 2


def test_gradient_check_is_the_same_on_both_paths():
    config = mm.ModelConfig(m=6, p=5, c=3, inception_layers=2, etas=((8, 4), (5, 3)), seed=1)
    checks = {}
    for name in PATHS:
        with path(name):
            checks[name] = tr.grad_check_random(config)
    assert checks["worker"] == checks["caller"]
    errors, margin, _ = checks["worker"]
    assert 1e-3 <= margin < np.inf and max(errors.values()) < 1e-4


def test_worker_exception_reaches_the_caller():
    # a first-layer weight one row short fails inside the private forward
    rng = np.random.default_rng(0)
    h = ad.constant(rng.normal(size=(5, 2, 4)))
    a = ad.constant(np.abs(rng.normal(size=(5, 5))))
    branches = (L.init_branch(3, 6, rng), L.init_branch(4, 2, rng))
    raised = {}
    for name in PATHS:
        with mock.patch.object(L, "THREAD_WORK", PATHS[name]):
            with pytest.raises(ValueError) as exc:
                L.inception_layer(h, a, *branches, np.ones((5, 5), bool))
        raised[name] = (exc.type, str(exc.value))
    assert raised["worker"] == raised["caller"] and "matmul" in raised["worker"][1]


def test_diverging_run_on_the_worker_is_one_line(tmp_path, capsys):
    # lr0=1e300 overflows the second step's forward on the worker, which
    # reads the training loop's np.errstate from the caller's context
    manifest = save_dataset(dataset(8, 4, 3, 4, 7), tmp_path / "ds")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"m": 8, "p": 4, "c": 3, "inception_layers": 1, "etas": [[8, 4]]},
        "train": {"epochs": 1, "batch_size": 8, "lr0": 1e300},
        "data": {"manifest": str(manifest)}, "output_dir": str(tmp_path / "run")}))
    with path("worker"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["train", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERIC and err.count("\n") == 1, err
    assert "loss became non-finite" in err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("name", PATHS)
def test_two_blas_threads_repeat_their_checkpoint(name, tmp_path):
    # one facial-scale epoch (M=90, P=136, two Adam steps) twice with two
    # BLAS threads, each in its own process; the worker path's runs overlap
    # the branch GEMMs with the max branch
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath,
           **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "2")}
    script = (
        "import sys; from lgrin import layers, model as mm, training as tr\n"
        "from lgrin.data import SynthSpec, synth_generate\n"
        f"layers.THREAD_WORK = {PATHS[name]}\n"
        "ds = synth_generate(SynthSpec(num_classes=3, per_class=4, m=90, p=136, noise=0.3,"
        " seed=1))\n"
        "model, _ = tr.train(mm.build_lgrin(mm.ModelConfig(m=90, p=136, c=3, seed=0)), ds,"
        " tr.TrainConfig(epochs=1, batch_size=6, seed=0))\n"
        "mm.save_checkpoint(model, sys.argv[1])\n")
    blobs = []
    for run in ("first", "second"):
        out = tmp_path / f"{run}.npz"
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True,
                       capture_output=True)
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
