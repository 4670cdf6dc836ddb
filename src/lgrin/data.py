"""Dataset ingestion, cyclic length normalization, synthesis, and CV splits.

Datasets live on disk as a JSON manifest next to one headerless CSV per
sample (one row per frame, ``feature_dim`` columns). In memory a sample is
a (T, P) float64 matrix plus an integer class label; graphs are formed
downstream by padding or truncating every sample to the shared node count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .errors import ConfigError, DataError, SplitError


@dataclass
class SequenceSample:
    """Per-frame feature matrix (T, P) with a class label."""

    features: np.ndarray
    label: int
    id: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DataError(f"sample {self.id!r}: features must be a (T, P) "
                            f"matrix with T >= 1, got shape {self.features.shape}")

    @property
    def length(self) -> int:
        return self.features.shape[0]


@dataclass
class GraphDataset:
    samples: list[SequenceSample]
    num_classes: int
    feature_dim: int
    target_length: int
    name: str = "dataset"

    def validate(self) -> "GraphDataset":
        if not self.samples:
            raise DataError(f"{self.name}: empty dataset")
        for s in self.samples:
            if not 0 <= s.label < self.num_classes:
                raise DataError(f"{self.name}: sample {s.id!r} label {s.label} "
                                f">= num_classes {self.num_classes}")
            if s.features.shape[1] != self.feature_dim:
                raise DataError(f"{self.name}: sample {s.id!r} has width "
                                f"{s.features.shape[1]}, expected {self.feature_dim}")
            if not np.all(np.isfinite(s.features)):
                raise DataError(f"{self.name}: sample {s.id!r} has non-finite values")
        return self

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.intp)


_MANIFEST_KEYS = {"name", "num_classes", "feature_dim", "target_length", "samples"}


def _read_csv_matrix(path: Path, expected_width: int) -> np.ndarray:
    if not path.is_file():
        raise DataError(f"feature file not found: {path}")
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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


def load_dataset(manifest_path: str | Path) -> GraphDataset:
    """Load a dataset from its JSON manifest, validating every sample."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise DataError(f"manifest not found: {manifest_path}")
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or not _MANIFEST_KEYS.issubset(doc):
        missing = _MANIFEST_KEYS - set(doc) if isinstance(doc, dict) else _MANIFEST_KEYS
        raise DataError(f"{manifest_path}: missing manifest keys {sorted(missing)}")
    try:
        num_classes, feature_dim, target_length = (
            int(doc[key]) for key in ("num_classes", "feature_dim", "target_length"))
    except (TypeError, ValueError) as exc:
        raise DataError(f"{manifest_path}: num_classes, feature_dim and "
                        f"target_length must be integers ({exc})") from exc
    base = manifest_path.parent
    root = base.resolve()
    entries = doc["samples"]
    if not entries:
        raise DataError(f"{manifest_path}: empty dataset")
    samples = []
    for pos, entry in enumerate(entries):
        try:
            rel, label, sid = entry["features"], int(entry["label"]), entry["id"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{manifest_path}: sample #{pos} needs features, an "
                            f"integer label and an id ({exc!r})") from exc
        path = base / str(rel)
        if not path.resolve().is_relative_to(root):
            raise DataError(f"{manifest_path}: sample #{pos} features {rel!r} "
                            f"lie outside the dataset directory")
        features = _read_csv_matrix(path, feature_dim)
        samples.append(SequenceSample(features, label, str(sid)))
    ds = GraphDataset(samples=samples, num_classes=num_classes,
                      feature_dim=feature_dim, target_length=target_length,
                      name=str(doc["name"]))
    return ds.validate()


def atomic_write(path: str | Path, write: Callable[[BinaryIO], None]) -> Path:
    """Write a file through a temp file in its directory and ``os.replace``.

    Readers see either the previous file or the complete new one. If
    ``write`` raises, the previous file is left as it was and the temp
    file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def save_dataset(ds: GraphDataset, out_dir: str | Path, force: bool = False) -> Path:
    """Write manifest + per-sample CSVs; returns the manifest path.

    Numbers are written with 17 significant digits so a reload reproduces
    the float64 values exactly. Each sample's CSV is named after its id, so
    ids must be distinct plain file names.
    """
    seen: set[str] = set()
    for s in ds.samples:
        sid = str(s.id)
        if sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
            raise DataError(f"{ds.name}: sample id {sid!r} is not a plain file name")
        if sid in seen:
            raise DataError(f"{ds.name}: sample id {sid!r} repeats")
        seen.add(sid)
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists() and not force:
        raise ConfigError(f"refusing to overwrite {manifest_path} (use force)")
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for s in ds.samples:
        rel = f"{s.id}.csv"
        with open(out_dir / rel, "w", encoding="utf-8", newline="\n") as fh:
            for row in s.features:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        entries.append({"features": rel, "label": int(s.label), "id": s.id})
    doc = {"name": ds.name, "num_classes": ds.num_classes,
           "feature_dim": ds.feature_dim, "target_length": ds.target_length,
           "samples": entries}
    manifest_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def pad_or_truncate(s: SequenceSample, m: int) -> SequenceSample:
    """Normalize a sample to exactly m frames.

    Short sequences are extended cyclically with frames from their own
    beginning; long ones keep their first m frames.
    """
    t = s.length
    if t == m:
        return s
    if t > m:
        return SequenceSample(s.features[:m].copy(), s.label, s.id)
    reps = np.arange(m) % t
    return SequenceSample(s.features[reps].copy(), s.label, s.id)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic sinusoid benchmark generator."""

    num_classes: int
    per_class: int
    m: int
    p: int
    noise: float = 0.0
    seed: int = 0
    name: str = "synth"

    def __post_init__(self):
        if self.num_classes < 2 or self.p < 2:
            raise ConfigError("synthetic spec needs num_classes >= 2 and p >= 2")
        if self.per_class < 1 or self.m < 2:
            raise ConfigError("synthetic spec needs per_class >= 1 and m >= 2")
        if self.noise < 0:
            raise ConfigError("noise must be non-negative")


def synth_generate(spec: SynthSpec) -> GraphDataset:
    """Balanced multi-channel sinusoid classes with per-class phases.

    Feature j of frame t for class c is sin(2*pi*(c+1)*t/m + phase[c, j])
    plus Normal(0, noise). Phases are drawn once per (class, feature) from
    the seeded generator, so the whole dataset is deterministic per seed
    and distinct classes occupy distinct frequencies.
    """
    rng = np.random.default_rng(spec.seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(spec.num_classes, spec.p))
    t = np.arange(spec.m, dtype=np.float64)
    samples = []
    for c in range(spec.num_classes):
        freq = float(c + 1)
        base = np.sin(2.0 * np.pi * freq * t[:, None] / spec.m + phases[c][None, :])
        for i in range(spec.per_class):
            values = base
            if spec.noise > 0.0:
                values = base + rng.normal(0.0, spec.noise, size=(spec.m, spec.p))
            samples.append(SequenceSample(values.copy(), c, f"c{c}s{i:04d}"))
    ds = GraphDataset(samples=samples, num_classes=spec.num_classes,
                      feature_dim=spec.p, target_length=spec.m, name=spec.name)
    return ds.validate()


def class_phases(spec: SynthSpec) -> np.ndarray:
    """The (num_classes, p) phase table the generator would use."""
    rng = np.random.default_rng(spec.seed)
    return rng.uniform(0.0, 2.0 * np.pi, size=(spec.num_classes, spec.p))


def cv_split(ds: GraphDataset, k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """Stratified k-fold partition as (train_indices, test_indices) pairs."""
    n = len(ds.samples)
    if k < 2 or k > n:
        raise SplitError(f"k={k} is not in [2, {n}]")
    labels = ds.labels()
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size < k:
            raise SplitError(f"class {int(c)} has {idx.size} samples, fewer than k={k}")
        rng.shuffle(idx)
        for pos, sample_idx in enumerate(idx):
            folds[pos % k].append(int(sample_idx))
    splits = []
    for f in range(k):
        test = sorted(folds[f])
        train = sorted(i for g in range(k) if g != f for i in folds[g])
        splits.append((train, test))
    return splits
