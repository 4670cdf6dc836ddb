"""Batch command-line front end.

Every command is deterministic given its flags and seeds, and emits files
(or JSON on stdout); there is no interactive state. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import model as mm
from . import training as tr
from .data import (GraphDataset, SynthSpec, atomic_write, cv_split,
                   load_dataset, pad_or_truncate, save_dataset, synth_generate)
from .errors import (ConfigError, ContractError, DataError, LgrinError,
                     NumericalError, SplitError, is_int)
from .objective import LossWeights

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


_TOP_KEYS = {"model", "train", "data", "output_dir"}
_MODEL_KEYS = _field_names(mm.ModelConfig) | {"arch"}
_TRAIN_KEYS = _field_names(tr.TrainConfig)
_LOSS_WEIGHT_KEYS = _field_names(LossWeights)
_DATA_KEYS = {"manifest", "synth"}
_SYNTH_KEYS = _field_names(SynthSpec)
_ABLATE_COLUMNS = ("adjacency_mode", "pooling_mode", "etas", "layers",
                   "lambda1", "lambda2", "lambda3", "accuracy",
                   "parameter_count", "model_seed", "train_seed")


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_run_config(path: str | Path) -> dict:
    """Parse and structurally validate a run config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    _reject_unknown(doc, _TOP_KEYS, str(path))
    if "model" not in doc:
        raise ConfigError(f"{path}: missing required 'model' section")
    _reject_unknown(doc["model"], _MODEL_KEYS, f"{path} model section")
    if "train" in doc:
        _reject_unknown(doc["train"], _TRAIN_KEYS, f"{path} train section")
        if isinstance(doc["train"].get("loss_weights"), dict):
            _reject_unknown(doc["train"]["loss_weights"], _LOSS_WEIGHT_KEYS,
                            f"{path} loss_weights")
    if "data" in doc:
        _reject_unknown(doc["data"], _DATA_KEYS, f"{path} data section")
        if "synth" in doc["data"]:
            _reject_unknown(doc["data"]["synth"], _SYNTH_KEYS,
                            f"{path} synth section")
    doc["_base_dir"] = str(path.parent)
    return doc


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply dotted-path KEY=VALUE assignments; values parse as JSON."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key.split(".")
        node = doc
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"config is missing required section {key!r}")
    return doc[key]


def model_config_from_section(section: dict) -> tuple[mm.ModelConfig, str]:
    _reject_unknown(section, _MODEL_KEYS, "model section")
    section = dict(section)
    arch = section.pop("arch", "lgrin")
    if arch not in mm.BUILDERS:
        raise ConfigError(f"unknown arch {arch!r}")
    try:
        return mm.ModelConfig.from_dict(section), arch
    except TypeError as exc:
        raise ConfigError(f"bad model section: {exc}") from exc


def build_model_from_section(section: dict) -> mm.LGrinModel:
    config, arch = model_config_from_section(section)
    return mm.BUILDERS[arch](config)


def train_config_from_section(section: dict) -> tr.TrainConfig:
    try:
        return tr.TrainConfig.from_dict(section)
    except TypeError as exc:
        raise ConfigError(f"bad train section: {exc}") from exc


def dataset_from_section(section: dict, base_dir: str) -> GraphDataset:
    if "manifest" in section:
        manifest = Path(section["manifest"])
        if not manifest.is_absolute():
            manifest = Path(base_dir) / manifest
        return load_dataset(manifest)
    if "synth" in section:
        try:
            return synth_generate(SynthSpec(**section["synth"]))
        except TypeError as exc:
            raise ConfigError(f"bad synth section: {exc}") from exc
    raise ConfigError("data section needs either 'manifest' or 'synth'")


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


def _padded(ds: GraphDataset, m: int):
    return [pad_or_truncate(s, m) for s in ds.samples]


def cmd_train(args) -> int:
    doc = apply_overrides(load_run_config(args.config), args.override)
    model = build_model_from_section(_require(doc, "model"))
    cfg = train_config_from_section(_require(doc, "train"))
    ds = dataset_from_section(_require(doc, "data"), doc["_base_dir"])
    out_dir = Path(_require(doc, "output_dir"))
    model, report = tr.train(model, ds, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = mm.save_checkpoint(model, out_dir / "checkpoint.npz")
    echo = {k: v for k, v in doc.items() if k != "_base_dir"}
    report_doc = {"report": report.to_dict(), "run_config": echo,
                  "parameter_count": mm.parameter_count(model)}
    report_text = json.dumps(report_doc, indent=2) + "\n"
    report_path = atomic_write(out_dir / "report.json",
                               lambda fh: fh.write(report_text.encode("utf-8")))
    print(f"checkpoint: {ckpt}")
    print(f"report: {report_path}")
    print(f"final train accuracy: {report.final_accuracy:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = mm.load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    if ds.feature_dim != model.config.p or ds.target_length != model.config.m:
        raise DataError(f"dataset ({ds.target_length}, {ds.feature_dim}) does "
                        f"not match model ({model.config.m}, {model.config.p})")
    metrics = tr.evaluate(model, _padded(ds, model.config.m))
    metrics["n_samples"] = len(ds.samples)
    text = json.dumps(metrics, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


# entry check and message per grid axis whose entries cmd_ablate unpacks;
# the mode axes need none, ModelConfig rejects an unknown mode
_GRID_ENTRY_RULES = {
    "etas": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(is_int, v)),
             "must hold 2 integers"),
    "layers": (is_int, "must be an integer"),
    "lambdas": (lambda v: isinstance(v, list) and len(v) == 3
                and all(isinstance(x, (int, float)) for x in v), "must hold 3 numbers"),
}


def _parse_grid(spec: str, axes: dict[str, list]) -> dict[str, list]:
    """The ablation axes: each list in the grid spec replaces its base axis."""
    if spec.startswith("@"):
        spec = Path(spec[1:]).read_text(encoding="utf-8")
    try:
        grid = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"grid spec is not valid JSON: {exc}") from exc
    _reject_unknown(grid, set(axes), "grid spec")
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
    doc = apply_overrides(load_run_config(args.config), args.override)
    base_model_section = _require(doc, "model")
    _reject_unknown(base_model_section, _MODEL_KEYS, "model section")
    base_train = train_config_from_section(_require(doc, "train"))
    ds = dataset_from_section(_require(doc, "data"), doc["_base_dir"])
    axes = _parse_grid(args.grid, {
        "adjacency_mode": [base_model_section.get("adjacency_mode", "learnable")],
        "pooling_mode": [base_model_section.get("pooling_mode", "learnable_full")],
        "etas": [None],
        "layers": [base_model_section.get("inception_layers", 2)],
        "lambdas": [list(dataclasses.astuple(base_train.loss_weights))],
    })

    train_idx, test_idx = cv_split(ds, args.holdout_folds, base_train.seed)[0]
    train_ds = GraphDataset([ds.samples[i] for i in train_idx], ds.num_classes,
                            ds.feature_dim, ds.target_length, ds.name + "-train")
    test_samples = _padded(
        GraphDataset([ds.samples[i] for i in test_idx], ds.num_classes,
                     ds.feature_dim, ds.target_length, ds.name + "-test"),
        int(base_model_section["m"]))

    rows = []
    for adj_mode, pool_mode, etas, n_layers, lam in itertools.product(*axes.values()):
        section = dict(base_model_section)
        section["adjacency_mode"] = adj_mode
        section["pooling_mode"] = pool_mode
        section["inception_layers"] = n_layers
        if etas is not None:
            section["etas"] = [list(etas)] * n_layers
        elif section.get("etas") is not None:
            # depth sweep without a filter sweep repeats the base config's
            # first filter pair
            section["etas"] = [list(section["etas"][0])] * n_layers
        model = build_model_from_section(section)
        cfg = dataclasses.replace(
            base_train, loss_weights=LossWeights(*[float(x) for x in lam]))
        model, _ = tr.train(model, train_ds, cfg)
        acc = tr.evaluate(model, test_samples)["unweighted_accuracy"]
        # one value per _ABLATE_COLUMNS entry, in that order
        rows.append((adj_mode, pool_mode,
                     "default" if etas is None else f"{etas[0]}x{etas[1]}",
                     n_layers, *lam, acc, mm.parameter_count(model),
                     section.get("seed", 0), cfg.seed))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for row in [_ABLATE_COLUMNS, *rows]:
            fh.write(",".join(str(v) for v in row) + "\n")
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    doc = apply_overrides(load_run_config(args.config), args.override)
    config, arch = model_config_from_section(_require(doc, "model"))
    if arch != "lgrin":
        raise ConfigError("gradcheck runs on the lgrin architecture")
    weights = None
    if "train" in doc:
        weights = train_config_from_section(doc["train"]).loss_weights
    errors, margin, attempt = tr.grad_check_random(
        config, eps=args.eps, seed=args.seed, weights=weights,
        corrupt=args.corrupt)
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


def _write_pgm(path: Path, values: np.ndarray, invert: bool) -> None:
    vmax = float(values.max())
    pixels = (np.zeros_like(values) if vmax <= 0
              else np.rint(values / vmax * 255.0))
    pixels = pixels.astype(np.int64)
    if invert:
        pixels = 255 - pixels
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"P2\n{values.shape[1]} {values.shape[0]}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(v) for v in row) + "\n")


def cmd_inspect(args) -> int:
    model = mm.load_checkpoint(args.checkpoint)
    prefix = Path(args.out_prefix) if args.out_prefix else \
        Path(args.checkpoint).with_suffix("")
    prefix.parent.mkdir(parents=True, exist_ok=True)
    if args.what == "adjacency":
        a_eff = mm.shared_effective_adjacency(model)
        if a_eff is None:
            raise ConfigError("weighted adjacency is per-sample; nothing "
                              "model-level to export")
        values = a_eff.values
        csv_path = prefix.with_name(prefix.name + "_adjacency.csv")
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            for row in values:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        pgm_path = prefix.with_name(prefix.name + "_adjacency.pgm")
        _write_pgm(pgm_path, values, invert=args.invert)
        print(f"wrote {csv_path}")
        print(f"wrote {pgm_path}")
        return EXIT_OK
    # salient node per sample
    if not args.data:
        raise ConfigError("--what salient requires --data")
    ds = load_dataset(args.data)
    samples = _padded(ds, model.config.m)
    csv_path = prefix.with_name(prefix.name + "_salient.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,salient_node\n")
        for s in samples:
            fh.write(f"{s.id},{mm.salient_node(model, s)}\n")
    print(f"wrote {csv_path}")
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
    p.add_argument("--corrupt", help=argparse.SUPPRESS)  # negative-control hook
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
    except (DataError, SplitError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except LgrinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
