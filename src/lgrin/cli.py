"""Batch command-line front end.

Every command is deterministic given its flags and seeds, and emits files
(or JSON on stdout); there is no interactive state. Exit codes: 0 success,
1 usage/config error, 2 data or I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import model as mm
from . import training as tr
from .data import (GraphDataset, SynthSpec, atomic_write_text, cv_split,
                   load_dataset, save_dataset, synth_generate)
from .errors import (ConfigError, ContractError, DataError, LgrinError,
                     NumericalError, SplitError, check_keys, config_from_json,
                     is_finite_number, is_int, parse_json, read_text)
from .objective import LossWeights

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# how numpy's ValueError begins when an array's byte count overflows
_NUMPY_TOO_BIG = ("array is too big", "Maximum allowed size exceeded")

_ABLATE_COLUMNS = ("adjacency_mode", "pooling_mode", "etas", "layers",
                   "lambda1", "lambda2", "lambda3", "accuracy",
                   "parameter_count", "model_seed", "train_seed")


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply dotted-path KEY=VALUE assignments; values parse as JSON."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            value = parse_json(raw, ValueError, key)
        except ValueError:  # a value that does not parse is a string
            value = raw
        parts = key.split(".")
        node = doc
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return doc


def _data_source(section, base_dir: Path) -> Path | SynthSpec:
    """The data section, not yet loaded: a manifest path (relative ones are
    relative to the config file) or a synthetic spec."""
    check_keys(section, ("manifest", "synth"), "data section")
    if len(section) != 1:
        raise ConfigError("data section needs exactly one of 'manifest' or 'synth'")
    if "manifest" in section:
        if not isinstance(section["manifest"], str):
            raise ConfigError(f"data manifest must be a path string, "
                              f"got {section['manifest']!r}")
        return base_dir / section["manifest"]
    return config_from_json(SynthSpec, section["synth"], "synth section")


def _output_dir(value) -> Path:
    if not isinstance(value, str) or "\0" in value:
        raise ConfigError(f"output_dir must be a path string, got {value!r}")
    return Path(value)


def _output_file(value: str | Path, flag: str, suffix: str = "") -> Path:
    """The output file ``value`` + ``suffix``, its parent directory made now,
    so that a bad location fails before the command computes anything.
    ``value`` needs a file name, and the file must not be a directory."""
    path = Path(value)
    if not path.name:
        raise ConfigError(f"{flag} needs a file name, got {str(value)!r}")
    path = path.with_name(path.name + suffix)
    if path.is_dir():
        raise IsADirectoryError(f"{flag}: {path} is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def load_run_config(path: str | Path, overrides: list[str]) -> tuple[dict, dict]:
    """Read a run config file, apply the overrides, then check it all once.

    Returns the document as overridden, which ``train`` echoes into its
    report, and its sections built: "model" as a ModelConfig, "train" as a
    TrainConfig, "data" as a manifest Path or a SynthSpec, and
    "output_dir" as a Path.
    """
    path = Path(path)
    doc = parse_json(read_text(path, ConfigError, "config file"), ConfigError, str(path))
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be a JSON object")
    sections = {"model": lambda s: config_from_json(mm.ModelConfig, s, "model section"),
                "train": lambda s: config_from_json(tr.TrainConfig, s, "train section"),
                "data": lambda s: _data_source(s, path.parent),
                "output_dir": _output_dir}
    apply_overrides(doc, overrides)
    check_keys(doc, sections, f"run config {path}")
    if "model" not in doc:
        raise ConfigError(f"{path}: missing required 'model' section")
    return doc, {key: build(doc[key]) for key, build in sections.items() if key in doc}


def _require(run: dict, key: str):
    if key not in run:
        raise ConfigError(f"config is missing required section {key!r}")
    return run[key]


def _dataset(source: Path | SynthSpec) -> GraphDataset:
    return synth_generate(source) if isinstance(source, SynthSpec) else load_dataset(source)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    spec = SynthSpec(num_classes=args.classes, per_class=args.per_class,
                     m=args.m, p=args.p, noise=args.noise, seed=args.seed,
                     name=args.name)
    ds = synth_generate(spec)
    manifest = save_dataset(ds, args.out, force=args.force)
    print(f"wrote {len(ds.samples)} samples to {manifest} (seed {args.seed})")
    return EXIT_OK


def cmd_train(args) -> int:
    doc, run = load_run_config(args.config, args.override)
    config = run["model"]
    cfg = _require(run, "train")
    ds = _dataset(_require(run, "data"))
    mm.check_dataset(config, ds)  # before the model is built
    out_dir = _require(run, "output_dir")
    out_dir.mkdir(parents=True, exist_ok=True)  # fail on it before training
    model, report = tr.train(mm.BUILDERS[config.arch](config), ds, cfg)
    ckpt = mm.save_checkpoint(model, out_dir / "checkpoint.npz")
    report_doc = {"report": dataclasses.asdict(report), "run_config": doc,
                  "parameter_count": mm.parameter_count(model)}
    report_path = atomic_write_text(out_dir / "report.json",
                                    json.dumps(report_doc, indent=2) + "\n")
    print(f"checkpoint: {ckpt}")
    print(f"report: {report_path}")
    print(f"final train accuracy: {report.final_accuracy:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    out = _output_file(args.out, "--out") if args.out else None
    model = mm.load_checkpoint(args.checkpoint)
    samples = mm.samples_for(model, load_dataset(args.data))
    metrics = tr.evaluate(model, samples)
    metrics["n_samples"] = len(samples)
    text = json.dumps(metrics, indent=2)
    if out:
        atomic_write_text(out, text + "\n")
    print(text)
    return EXIT_OK


# entry check and message per grid axis whose entries cmd_ablate unpacks;
# the mode axes need none, ModelConfig rejects an unknown mode
_GRID_ENTRY_RULES = {
    "etas": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(is_int, v)),
             "must hold 2 integers"),
    "layers": (is_int, "must be an integer"),
    "lambdas": (lambda v: isinstance(v, list) and len(v) == 3
                and all(map(is_finite_number, v)), "must hold 3 numbers"),
}


def _parse_grid(spec: str, axes: dict[str, list]) -> dict[str, list]:
    """The ablation axes: each list in the grid spec replaces its base axis."""
    if spec.startswith("@"):
        spec = read_text(spec[1:], DataError, "grid file")
    grid = parse_json(spec, ConfigError, "grid spec")
    check_keys(grid, axes, "grid spec")
    for key, values in grid.items():
        if not isinstance(values, list):
            raise ConfigError(f"grid {key!r} must be a list, got {values!r}")
        if key in _GRID_ENTRY_RULES:
            check, rule = _GRID_ENTRY_RULES[key]
            for entry in values:
                if not check(entry):
                    raise ConfigError(f"each grid {key} entry {rule}, got {entry!r}")
    return {**axes, **grid}


def cmd_ablate(args) -> int:
    out = _output_file(args.out, "--out")
    if args.holdout_folds < 2:
        raise ConfigError(f"--holdout-folds must be at least 2, got {args.holdout_folds}")
    _, run = load_run_config(args.config, args.override)
    base = run["model"]
    base_train = _require(run, "train")
    ds = _dataset(_require(run, "data"))
    axes = _parse_grid(args.grid, {
        "adjacency_mode": [base.adjacency_mode],
        "pooling_mode": [base.pooling_mode],
        "etas": [None],
        "layers": [base.inception_layers],
        "lambdas": [list(dataclasses.astuple(base_train.loss_weights))],
    })

    train_idx, test_idx = cv_split(ds, args.holdout_folds, base_train.seed)[0]
    train_ds = GraphDataset([ds.samples[i] for i in train_idx], ds.num_classes,
                            ds.feature_dim, ds.target_length, ds.name + "-train")
    test_ds = GraphDataset([ds.samples[i] for i in test_idx], ds.num_classes,
                           ds.feature_dim, ds.target_length, ds.name + "-test")

    # every cell's configs are built, and so checked, before any cell trains;
    # a cell without a filter sweep keeps the base's etas at the base's depth
    # and repeats the base's first pair at any other depth
    cells = [(dataclasses.replace(base, adjacency_mode=adj_mode, pooling_mode=pool_mode,
                                  inception_layers=n_layers,
                                  etas=([etas or base.etas[0]] * n_layers
                                        if etas or n_layers != base.inception_layers
                                        else base.etas)),
              dataclasses.replace(base_train,
                                  loss_weights=LossWeights(*[float(x) for x in lam])),
              etas, lam)
             for adj_mode, pool_mode, etas, n_layers, lam in itertools.product(*axes.values())]
    rows = []
    for config, cfg, etas, lam in cells:
        model, _ = tr.train(mm.BUILDERS[config.arch](config), train_ds, cfg)
        acc = tr.evaluate(model, mm.samples_for(model, test_ds))["unweighted_accuracy"]
        # one value per _ABLATE_COLUMNS entry, in that order
        rows.append((config.adjacency_mode, config.pooling_mode,
                     "default" if etas is None else f"{etas[0]}x{etas[1]}",
                     config.inception_layers, *lam, acc, mm.parameter_count(model),
                     config.seed, cfg.seed))
    atomic_write_text(out, "".join(",".join(str(v) for v in row) + "\n"
                                   for row in [_ABLATE_COLUMNS, *rows]))
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    for flag, value in (("--eps", args.eps), ("--threshold", args.threshold)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{flag} must be a positive finite number, got {value}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    _, run = load_run_config(args.config, args.override)
    weights = run["train"].loss_weights if "train" in run else None
    errors, margin, attempt = tr.grad_check_random(
        run["model"], eps=args.eps, seed=args.seed, weights=weights)
    worst = max(errors.values())
    for name in sorted(errors):
        print(f"{name:28s} max_rel_err={errors[name]:.3e}")
    print(f"kink margin: {margin:.3e} (seed {args.seed}, attempt {attempt})")
    status = "PASS" if worst < args.threshold else "FAIL"
    print(f"{status}: worst max_rel_err={worst:.3e} "
          f"(threshold {args.threshold:g})")
    if status == "FAIL":
        raise NumericalError(f"gradient check failed: {worst:.3e} "
                             f">= {args.threshold:g}")
    return EXIT_OK


def _pgm_text(values: np.ndarray, invert: bool) -> str:
    """ASCII P2 heatmap of a non-negative matrix, its peak mapped to 255."""
    vmax = float(values.max())
    pixels = (np.zeros_like(values) if vmax <= 0
              else np.rint(values / vmax * 255.0))
    pixels = pixels.astype(np.int64)
    if invert:
        pixels = 255 - pixels
    rows = "".join(" ".join(str(v) for v in row) + "\n" for row in pixels)
    return f"P2\n{values.shape[1]} {values.shape[0]}\n255\n{rows}"


def cmd_inspect(args) -> int:
    prefix = args.out_prefix or Path(args.checkpoint).with_suffix("")
    suffixes = (("_adjacency.csv", "_adjacency.pgm") if args.what == "adjacency"
                else ("_salient.csv",))
    paths = [_output_file(prefix, "--out-prefix", suffix) for suffix in suffixes]
    model = mm.load_checkpoint(args.checkpoint)
    if args.what == "adjacency":
        a_eff = mm.shared_effective_adjacency(model)
        if a_eff is None:
            raise ConfigError("weighted adjacency is per-sample; nothing "
                              "model-level to export")
        values = a_eff.values
        csv_text = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in values)
        pgm_text = _pgm_text(values, invert=args.invert)
        for path, text in zip(paths, (csv_text, pgm_text)):
            print(f"wrote {atomic_write_text(path, text)}")
        return EXIT_OK
    # salient node per sample
    if not args.data:
        raise ConfigError("--what salient requires --data")
    mm.check_max_readout(model)  # before the dataset is read
    samples = mm.samples_for(model, load_dataset(args.data))
    nodes = mm.salient_nodes(model, samples)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # quotes an id holding , " or \n, not \r
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
    writer.writerow(("id", "salient_node"))
    for s, k in zip(samples, nodes):
        (quoted if "\r" in s.id else writer).writerow((s.id, k))
    print(f"wrote {atomic_write_text(paths[0], buf.getvalue())}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lgrin",
                     description="Train and inspect learnable-graph "
                                 "inception models on sequence datasets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="frames per sample")
    p.add_argument("--p", type=int, required=True, help="features per frame")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="synth")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing dataset")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model from a run config file")
    p.add_argument("--config", required=True)
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE", help="dotted-path config override")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset manifest path")
    p.add_argument("--out", help="also write metrics JSON to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train/evaluate a grid of variants")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True,
                   help="JSON object (or @file) with any of adjacency_mode, "
                        "pooling_mode, etas, layers, lambdas lists")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--holdout-folds", type=int, default=5,
                   help="1/k of the data becomes the held-out split")
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck",
                       help="compare backward gradients to finite differences")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect", help="export learned structure artifacts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--what", choices=("adjacency", "salient"), required=True)
    p.add_argument("--data", help="dataset manifest (salient mode)")
    p.add_argument("--out-prefix", help="path prefix for emitted files")
    p.add_argument("--invert", action="store_true",
                   help="flip the heatmap so large weights render dark")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, SplitError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except LgrinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MemoryError, ValueError) as exc:
        # numpy cannot hold an array of the sizes asked for: a ValueError
        # when the byte count overflows, a MemoryError when it cannot be had
        if isinstance(exc, ValueError) and not str(exc).startswith(_NUMPY_TOO_BIG):
            raise
        print(f"error: sizes too large for memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
