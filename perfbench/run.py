"""lgrin benchmark: one workload per invocation, in one process.

    python3 perfbench/run.py --workload gen_train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and driven only through ``lgrin.data``, ``lgrin.model``,
``lgrin.training`` and ``lgrin.cli.main``. The seed makes the synthetic
dataset; model and training seeds are fixed, so the program receives only
the generated inputs.

Before measuring, the run trains a reference model and saves its checkpoint.
Then each workload is a closed loop with one caller: rounds of (train fresh
models -> [evaluate -> ``lgrin eval`` -> ``lgrin inspect --what salient``]
x reads) run back to back until ``--seconds`` is spent. Every operation's
output is checked, and every round must reproduce the first bit for bit.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced rounds and reports the per-module metrics;
spans are written to ``perfbench/out/trace_<workload>.npz``.
The last stdout line is the JSON result; the line before it records the
machine, a calibration loop timed at the start and end of the run, and
every sample behind the metrics.
"""

from __future__ import annotations

import os

# BLAS reads its thread count once, when numpy is first imported.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

NOISE = 0.3
BATCH = 16
MODEL_SEED = 0
TRAIN_SEED = 0
PROBE_EPOCHS = 1  # epochs of the fresh models trained every round
SETUP_REPS = 10  # at start; untraced runs add SETUP_REPS_PER_ROUND between rounds
SETUP_REPS_PER_ROUND = 4
HARNESS_SHARE_MAX = 0.0025  # of the traced round wall that no lgrin span may cover
READ_METRICS = {"eval_samples_per_s", "eval_cmd_samples_per_s", "salient_samples_per_s"}
OPS = ("matmul", "vecmat", "add", "mul", "scale", "transpose", "relu", "sum_all",
       "concat_features", "concat_vectors", "neighborhood_max", "readout",
       "weighted_readout", "cross_entropy_logits")


@dataclass(frozen=True)
class Workload:
    m: int
    p: int
    c: int
    etas: tuple | None  # None: the model's (128, 64) default per layer
    train_per_class: int
    test_per_class: int
    ref_epochs: int  # the reference model, trained once; the read path uses it
    reads: int  # read-path repetitions per round
    with_gcn: bool
    accuracy_floor: float


# Held-out accuracy is measured on a reference model trained once per run,
# long enough to be nearly seed-independent: at facial scale one epoch
# leaves the model at a tipping point between chance and partial separation,
# while after six epochs 56 of 60 facial runs scored 1.0 (0.83 at worst). Train throughput comes
# from short probe trainings in every round, so a run holds many of them.
WORKLOADS = {
    # criterion-06 fixture (500 train / 200 held out): tiny arrays, so per-op
    # Python overhead on the tape dominates; the only workload with the GCN
    "gen_train": Workload(24, 8, 4, ((16, 8), (16, 8)), 125, 50, 3, 2, True, 0.90),
    # facial scale: the same 655-node tape per step, but array work
    # (neighborhood_max, matmuls on 90 x 520 activations) dominates, in
    # training and in the forward-only read path alike
    "facial_train": Workload(90, 136, 6, None, 10, 4, 6, 1, False, 0.0),
}


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

_CALIB_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def calibrate_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python plus small-matmul loop."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        m = _CALIB_MATRIX
        for _ in range(50):
            m = np.tanh(m @ _CALIB_MATRIX)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads_pinned": BLAS_THREADS,
            "thread_env": {v: os.environ.get(v) for v in BLAS_VARS}}


# ---------------------------------------------------------------------------
# set-up and inputs
# ---------------------------------------------------------------------------

def fresh_import():
    """Import lgrin (and its CLI) from scratch; numpy stays loaded."""
    for name in [n for n in sys.modules if n == "lgrin" or n.startswith("lgrin.")]:
        del sys.modules[name]
    importlib.import_module("lgrin.cli")
    return sys.modules["lgrin"]


def build_models(lg, wl: Workload) -> list[tuple[str, object]]:
    cfg = lg.model.ModelConfig(m=wl.m, p=wl.p, c=wl.c, inception_layers=2,
                               etas=wl.etas, seed=MODEL_SEED)
    models = [("lgrin", lg.model.build_lgrin(cfg))]
    if wl.with_gcn:
        models.append(("gcn", lg.model.build_baseline_gcn(cfg)))
    return models


def setup_once(wl: Workload):
    """Seconds to import lgrin from scratch and build the models, and lgrin."""
    gc.collect()
    t0 = time.perf_counter()
    lg = fresh_import()
    build_models(lg, wl)
    return time.perf_counter() - t0, lg


@dataclass
class Inputs:
    train: object  # GraphDataset
    test: list  # padded SequenceSamples
    manifest: Path  # the held-out set as CSVs


def make_inputs(lg, wl: Workload, seed: int, work: Path) -> Inputs:
    spec = lg.data.SynthSpec(num_classes=wl.c,
                             per_class=wl.train_per_class + wl.test_per_class,
                             m=wl.m, p=wl.p, noise=NOISE, seed=seed)
    ds = lg.data.synth_generate(spec)
    train, test = [], []
    for c in range(wl.c):
        group = [s for s in ds.samples if s.label == c]
        train += group[:wl.train_per_class]
        test += group[wl.train_per_class:]
    gd = lg.data.GraphDataset
    test_ds = gd(test, wl.c, wl.p, wl.m, "bench-test")
    manifest = lg.data.save_dataset(test_ds, work / "heldout")
    return Inputs(train=gd(train, wl.c, wl.p, wl.m, "bench-train"),
                  test=[lg.data.pad_or_truncate(s, wl.m) for s in test],
                  manifest=manifest)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

class Ledger:
    """Operations attempted and failed; an operation fails if it raises or
    its output check reports a problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, what: str, fn, check=None):
        self.attempted += 1
        try:
            value = fn()
            problem = check(value) if check is not None else None
        except Exception:  # the harness keeps measuring and reports the failure
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()
            return None
        if problem:
            self.failed += 1
            print(f"check failed: {what}: {problem}", file=sys.stderr)
            return None
        return value


def timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def run_cli(lg, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lg.cli.main(argv)
    return code, buf.getvalue()


class Bench:
    """One workload run: the program, its inputs and what the rounds measured.

    ``samples`` maps each measurement to its values over the run. Outputs
    that are deterministic are kept from the first round, and every later
    round must reproduce them exactly.
    """

    def __init__(self, lg, wl: Workload, work: Path):
        self.lg, self.wl, self.work = lg, wl, work
        self.inputs: Inputs | None = None
        self.ledger = Ledger()
        self.first: dict = {}
        self.samples: dict[str, list[float]] = {}
        self.reference: dict | None = None  # label -> trained model
        self.ckpt = work / "checkpoint.npz"
        self.tracer = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def same_as_first(self, key: str, value) -> str | None:
        if key not in self.first:
            self.first[key] = value
            return None
        return None if self.first[key] == value else f"{key} differs from the first round"

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def round(self) -> bool:
        """One closed-loop pass; False if an operation failed."""
        with self.span("bench.train"):
            probes = self.train_models(PROBE_EPOCHS, "probe")
        if probes is None:
            return False
        for label, (_, dt) in probes.items():
            self.add(f"train_seconds.{label}", dt)
        return all(self.read_path() for _ in range(self.wl.reads))

    def train_models(self, epochs: int, what: str) -> dict | None:
        """Train fresh models; label -> ((model, report), seconds)."""
        lg = self.lg
        tcfg = lg.training.TrainConfig(epochs=epochs, batch_size=BATCH, seed=TRAIN_SEED)
        out = {}
        for label, model in build_models(lg, self.wl):
            if self.tracer is not None:
                self.tracer.label = label
            out[label] = self.ledger.attempt(
                f"{what} train {label}",
                lambda: timed(lambda: lg.training.train(model, self.inputs.train, tcfg)),
                lambda o: ("non-finite epoch loss"
                           if not all(np.isfinite(o[0][1].loss_curve))
                           else self.same_as_first(f"{what}.loss_curve.{label}",
                                                   o[0][1].loss_curve)))
            if self.tracer is not None:
                self.tracer.label = ""
            if out[label] is None:
                return None
        return out

    def train_reference(self) -> bool:
        """Train the reference models and save the lgrin checkpoint."""
        out = self.train_models(self.wl.ref_epochs, "reference")
        if out is None:
            return False
        (model, report), _ = out["lgrin"]
        if self.ledger.attempt("save checkpoint", lambda: self.lg.model.save_checkpoint(
                model, self.ckpt)) is None:
            return False
        self.first["final_loss"] = report.final_loss
        self.reference = {label: m for label, ((m, _), _) in out.items()}
        return True

    def read_path(self) -> bool:
        """evaluate -> lgrin eval -> lgrin inspect --what salient."""
        lg, wl, inputs, ckpt = self.lg, self.wl, self.inputs, self.ckpt
        n_test = len(inputs.test)
        eval_wall, acc = 0.0, {}
        with self.span("bench.evaluate"):
            for label, m in self.reference.items():
                floor = wl.accuracy_floor if label == "lgrin" else 0.0
                out = self.ledger.attempt(
                    f"evaluate {label}",
                    lambda: timed(lambda: lg.training.evaluate(m, inputs.test)),
                    lambda o: (f"held-out accuracy {o[0]['unweighted_accuracy']} "
                               f"< {floor}" if o[0]["unweighted_accuracy"] < floor
                               else self.same_as_first(f"evaluate.{label}", o[0])))
                if out is None:
                    return False
                acc[label], dt = out
                eval_wall += dt
        self.add("eval_samples_per_s", len(acc) * n_test / eval_wall)

        def check_eval(o):
            (code, text), _ = o
            if code != 0:
                return f"exit code {code}"
            doc = json.loads(text)
            if doc["n_samples"] != n_test:
                return f"n_samples {doc['n_samples']} != {n_test}"
            # the checkpoint round trip must reproduce in-memory evaluate exactly
            if (doc["unweighted_accuracy"] != acc["lgrin"]["unweighted_accuracy"]
                    or doc["confusion"] != acc["lgrin"]["confusion"]):
                return "lgrin eval differs from in-memory evaluate"
            return None

        with self.span("bench.eval_cmd"):
            out = self.ledger.attempt(
                "lgrin eval",
                lambda: timed(lambda: run_cli(lg, ["eval", "--checkpoint", str(ckpt),
                                                   "--data", str(inputs.manifest)])),
                check_eval)
        if out is None:
            return False
        self.add("eval_cmd_samples_per_s", n_test / out[1])

        salient_csv = self.work / "inspect_salient.csv"

        def check_salient(o):
            (code, _), _ = o
            if code != 0:
                return f"exit code {code}"
            lines = salient_csv.read_text(encoding="utf-8").splitlines()
            if lines[0] != "id,salient_node" or len(lines) != n_test + 1:
                return f"expected a header and {n_test} rows, got {len(lines)} lines"
            rows = [line.split(",") for line in lines[1:]]
            if [row[0] for row in rows] != [s.id for s in inputs.test]:
                return "sample ids out of order"
            if not all(0 <= int(row[1]) < wl.m for row in rows):
                return f"salient node outside [0, {wl.m})"
            return self.same_as_first("salient", lines)

        with self.span("bench.salient"):
            out = self.ledger.attempt(
                "lgrin inspect --what salient",
                lambda: timed(lambda: run_cli(lg, [
                    "inspect", "--checkpoint", str(ckpt), "--what", "salient",
                    "--data", str(inputs.manifest),
                    "--out-prefix", str(self.work / "inspect")])),
                check_salient)
        if out is None:
            return False
        self.add("salient_samples_per_s", n_test / out[1])
        return True


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_rounds(run_one, seconds: float, between=None) -> list[float]:
    """Run rounds back to back until another would overrun ``seconds``.

    Returns the wall time of each round. Tapes hold reference cycles
    (tensor -> tape -> node -> tensor) that only the cyclic collector frees,
    so each round starts from a collected heap and the rounds' garbage does
    not pile up from one round to the next.
    """
    walls = []
    started = time.perf_counter()
    while True:
        if between is not None:
            between()
        gc.collect()
        walls.append(timed(run_one)[1])
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return walls


def slow_tenth(values: list[float]) -> float:
    """10th percentile, interpolated between the observed values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def end_to_end(bench: Bench, setup_times: list[float]) -> dict:
    """Throughputs are the 10th percentile of the run's repetitions; set-up is its fastest.

    The host's speed drifts by up to 1.8x for seconds to minutes. The slow
    speed recurs in every run, while the share of fast stretches differs from
    run to run: the median or the best of ~15 repetitions of a 0.1-1 s call
    follows that share, and a slow repetition does not. A 35 ms set-up fits
    into a fast stretch in every run, so its fastest repetition, spread over
    the run, is the steady one.
    ``peak_rss_mb`` is the process high-water mark, which the reference
    training sets before any round runs.
    """
    s = bench.samples
    # each model's 90th-percentile training time, the 10th percentile of its throughput
    slow = [-slow_tenth([-t for t in v]) for k, v in s.items() if k.startswith("train_seconds.")]
    n_train = PROBE_EPOCHS * len(bench.inputs.train.samples)
    return {
        "setup_s": (min(setup_times), "s"),
        "train_samples_per_s": (len(slow) * n_train / sum(slow), "1/s"),
        "eval_samples_per_s": (slow_tenth(s["eval_samples_per_s"]), "1/s"),
        "eval_cmd_samples_per_s": (slow_tenth(s["eval_cmd_samples_per_s"]), "1/s"),
        "salient_samples_per_s": (slow_tenth(s["salient_samples_per_s"]), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_loss": (bench.first["final_loss"], "loss"),
        "test_accuracy": (bench.first["evaluate.lgrin"]["unweighted_accuracy"], "ratio"),
    }


def per_module(stats: dict, n_rounds: int, prepare_stats: dict,
               counts: dict, calib: float, overhead: float) -> dict:
    """Per-module metrics: self times per round, or per run for preparation."""

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2] / n_rounds

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0] / n_rounds

    # the largest lgrin step is a full batch; rounds that only read have none
    nodes, nbytes = max([(n, b) for label, n, b in counts["steps"] if label == "lgrin"],
                        default=(0, 0))
    densities = counts["densities"]
    bwd_calls = sum(c for name, (c, _, _) in stats.items() if name.endswith(".bwd"))
    records = stats["autodiff.record"][0]
    load_incl = stats["data.load_dataset"][1]
    out = {
        "autodiff.tape_nodes_per_step": (nodes, "nodes/step"),
        "autodiff.tape_bytes_per_step": (nbytes, "bytes/step"),
        "autodiff.record_s": (self_s("autodiff.record"), "s/round"),
        "autodiff.backward_s": (self_s("autodiff.backward"), "s/round"),
        "autodiff.backward_useful_ratio": (bwd_calls / records if records else 0.0, "ratio"),
        "autodiff.neighborhood_max.cells_scanned": (counts["cells_scanned"], "cells/round"),
    }
    for op in OPS:
        out[f"autodiff.{op}.fwd_s"] = (self_s(f"autodiff.{op}"), "s/round")
        out[f"autodiff.{op}.bwd_s"] = (self_s(f"autodiff.{op}.bwd"), "s/round")
        out[f"autodiff.{op}.calls"] = (calls(f"autodiff.{op}"), "calls/round")
    out.update({
        "adjacency.effective_adjacency_s": (self_s("adjacency.effective_adjacency"), "s/round"),
        "adjacency.neighbor_mask_s": (self_s("adjacency.neighbor_mask"), "s/round"),
        "adjacency.edge_density.first": (densities[0], "ratio"),
        "adjacency.edge_density.last": (densities[-1], "ratio"),
        "layers.inception_layer_s": (self_s("layers.inception_layer"), "s/round"),
        "layers.gstar_conv_s": (self_s("layers.gstar_conv"), "s/round"),
        "layers.pooling_layer_s": (self_s("layers.pooling_layer"), "s/round"),
        "objective.classification_loss_s": (self_s("objective.classification_loss"), "s/round"),
        "objective.graph_learning_loss_s": (self_s("objective.graph_learning_loss"), "s/round"),
        "model.forward_shared_s": (self_s("model.forward_shared"), "s/round"),
        "model.save_checkpoint_s": (prepare_stats["model.save_checkpoint"][2], "s"),
        "model.load_checkpoint_s": (self_s("model.load_checkpoint"), "s/round"),
        "model.salient_node_s": (self_s("model.salient_node"), "s/round"),
        "training.adam_step_s": (self_s("training.adam_step"), "s/round"),
        "training.adam_step.calls": (calls("training.adam_step"), "calls/round"),
        "training.evaluate_s": (self_s("training.evaluate"), "s/round"),
        "data.load_dataset_s": (self_s("data.load_dataset"), "s/round"),
        "data.load_cells_per_s": (counts["cells_loaded"] * n_rounds / load_incl, "1/s"),
        "data.save_dataset_s": (prepare_stats["data.save_dataset"][2], "s"),
        "data.synth_generate_s": (prepare_stats["data.synth_generate"][2], "s"),
        "data.pad_or_truncate_s": (self_s("data.pad_or_truncate"), "s/round"),
        "cli.eval_s": (self_s("cli.main.eval") + self_s("cli.cmd_eval"), "s/round"),
        "cli.inspect_salient_s": (self_s("cli.main.inspect") + self_s("cli.cmd_inspect"),
                                  "s/round"),
        "bench.calib_ms": (calib, "ms"),
        "bench.trace_overhead": (overhead, "ratio"),
    })
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    src = ROOT / "src"
    if not (src / "lgrin" / "__init__.py").is_file():
        print(f"error: no lgrin sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    declared = declared_metrics(bool(args.trace))
    calib_start = calibrate_ms()

    setup_times, lg = [], None
    for _ in range(SETUP_REPS):
        seconds, lg = setup_once(wl)
        setup_times.append(seconds)

    def more_setup():
        setup_times.extend(setup_once(wl)[0] for _ in range(SETUP_REPS_PER_ROUND))

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    bench = Bench(lg, wl, work)
    round_counts: list[dict] = []
    try:
        if not args.trace:
            bench.inputs = make_inputs(lg, wl, args.seed, work)
            walls = []
            if bench.train_reference():
                walls = measure_rounds(bench.round, args.seconds, between=more_setup)
            metrics = (end_to_end(bench, setup_times)
                       if READ_METRICS <= bench.samples.keys() else {})
        else:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            t0 = time.perf_counter()
            with tracer.span("bench.prepare"):
                bench.inputs = make_inputs(lg, wl, args.seed, work)
                prepared = bench.train_reference()
            prepare_wall = time.perf_counter() - t0
            prepare_stats = tracer.self_times()
            first_round_span = len(tracer.nid)
            tracer.pop_counts()
            tracer.uninstall()
            walls, pairs = [], []
            if not prepared:
                raise SystemExit("error: training the reference model failed")

            def traced_round():
                with tracer.span("bench.round"):
                    ok = bench.round()
                counts = tracer.pop_counts()
                if ok:
                    round_counts.append(counts)
                    # the counts are deterministic: every round repeats the first
                    bench.ledger.attempt(
                        "deterministic counts", lambda: counts,
                        lambda c: None if c == round_counts[0]
                        else "counts differ from the first traced round")
                return ok

            def untraced_then_traced():
                # adjacent rounds see the same host speed more often than
                # distant ones, so the overhead is taken per pair
                untraced = timed(bench.round)[1]
                tracer.install()
                bench.tracer = tracer
                gc.collect()
                traced = timed(traced_round)[1]
                tracer.uninstall()
                bench.tracer = None
                pairs.append(traced / untraced)
                walls.append(traced)

            measure_rounds(untraced_then_traced, args.seconds)
            stats = tracer.self_times(lo=first_round_span)
            # By construction of the wrappers, self times are non-negative and
            # add up to the wall of the traced blocks; these checks catch a
            # broken tracer. The harness check catches untraced program work:
            # a call into lgrin that no wrapper covers counts as the self time
            # of a bench.* span.
            nonneg, self_sum = tracer.self_time_check()
            traced_wall = prepare_wall + sum(walls)
            harness = sum(own for name, (_, _, own) in stats.items()
                          if name.startswith("bench."))
            round_wall = stats["bench.round"][1]
            bench.ledger.attempt(
                "span self times", lambda: None,
                lambda _: None if nonneg and 0.0 <= traced_wall - self_sum <= 0.01 * traced_wall
                else f"negative self time, or self times sum to {self_sum} "
                     f"against a traced wall of {traced_wall}")
            bench.ledger.attempt(
                "rounds covered by lgrin spans", lambda: None,
                lambda _: None if harness <= HARNESS_SHARE_MAX * round_wall
                else f"{harness:.4f} s of {round_wall:.4f} s traced round time "
                     f"ran outside every lgrin span")
            tracer.save(OUT_DIR / f"trace_{args.workload}.npz")
            metrics = {}
            if round_counts:
                metrics = per_module(stats, len(walls), prepare_stats, round_counts[0],
                                     statistics.median([calib_start, calibrate_ms()]),
                                     statistics.median(pairs))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "rounds": len(walls),
              "machine": machine_info(),
              "calib_ms": {"start": calib_start, "end": calibrate_ms()},
              "samples": bench.samples}
    if round_counts:
        record["tape_nodes_per_step"] = {
            label: max(n for lab, n, _ in round_counts[0]["steps"] if lab == label)
            for label in {lab for lab, _, _ in round_counts[0]["steps"]}}
    print(json.dumps(record))
    if not metrics:
        print("error: no round completed", file=sys.stderr)
        return 1
    if {k: u for k, (_, u) in metrics.items()} != declared:
        print("error: reported metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.ledger.failed == 0,
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
