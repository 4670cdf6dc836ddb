"""Model assembly, the forward pass, parameter accounting, and persistence.

A model is its config, its architecture name, its constant graph (if
any) and a registry: the one ordered name -> tensor map of every
learnable parameter (raw adjacency, per-layer branch weights, pooling
weights, linear head). The forward pass, the optimizer and checkpoints
all read parameters from the registry, and nothing else holds them. Two
architectures share the container: the full learnable-graph inception
network, and the plain GCN baseline (two renormalized propagation layers
over the binary chain with a max|mean readout). This is the only module
that tells them apart: ``BUILDERS`` maps each architecture name to its
constructor, ``forward_shared`` is the one forward pass for both, and
``graph_loss`` says which graph-learning terms a model trains.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adjacency as adjmod
from . import autodiff as ad
from . import layers as L
from .autodiff import Tensor
from .data import SequenceSample, atomic_write
from .errors import ConfigError, ContractError, ShapeError, check_int_fields
from .objective import LossWeights, graph_learning_loss

ADJACENCY_MODES = ("learnable", "binary", "weighted")
BASELINE_GCN_WIDTH = 64
CHECKPOINT_FORMAT = "lgrin-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    m: int
    p: int
    c: int
    inception_layers: int = 2
    etas: tuple[tuple[int, int], ...] | None = None
    adjacency_mode: str = "learnable"
    pooling_mode: str = "learnable_full"
    mask_threshold: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_int_fields(self)
        if self.m < 2 or self.p < 1 or self.c < 2:
            raise ConfigError(f"need m >= 2, p >= 1, c >= 2; "
                              f"got ({self.m}, {self.p}, {self.c})")
        if self.inception_layers < 1:
            raise ConfigError("inception_layers must be >= 1")
        if self.adjacency_mode not in ADJACENCY_MODES:
            raise ConfigError(f"unknown adjacency_mode {self.adjacency_mode!r}")
        if self.pooling_mode not in L.POOLING_MODES:
            raise ConfigError(f"unknown pooling_mode {self.pooling_mode!r}")
        if self.mask_threshold < 0:
            raise ConfigError("mask_threshold must be non-negative")
        etas = self.etas
        if etas is None:
            etas = tuple((128, 64) for _ in range(self.inception_layers))
        else:
            etas = tuple((int(a), int(b)) for a, b in etas)
        if len(etas) != self.inception_layers:
            raise ConfigError(f"{len(etas)} eta pairs for "
                              f"{self.inception_layers} layers")
        if any(a < 1 or b < 1 for a, b in etas):
            raise ConfigError("eta values must be >= 1")
        object.__setattr__(self, "etas", etas)

    def layer_widths(self) -> list[int]:
        """Input width of each inception layer plus the final width Q."""
        widths = [self.p]
        for e1, e2 in self.etas:
            widths.append(e1 + e2 + widths[-1])
        return widths

    def head_input_width(self) -> int:
        q = self.layer_widths()[-1]
        return 3 * q if self.pooling_mode == "learnable_full" else q

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["etas"] = [list(e) for e in self.etas]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if d.get("etas") is not None:
            d["etas"] = tuple(tuple(e) for e in d["etas"])
        return cls(**d)


@dataclass
class LGrinModel:
    config: ModelConfig
    arch: str  # "lgrin" | "baseline_gcn"
    graph: Tensor | None  # constant adjacency; None if learnable or per-sample
    registry: dict[str, Tensor]


def build_lgrin(config: ModelConfig) -> LGrinModel:
    """Assemble the full model with seeded Xavier weights.

    Weight matrices are uniform on +/- sqrt(6 / (fan_in + fan_out)),
    biases start at zero, the pooling vector starts as the uniform average
    1/M (so the untrained weighted readout coincides with mean pooling),
    and a learnable adjacency starts from Normal(0, 1) raw entries.
    """
    rng = np.random.default_rng(config.seed)
    reg: dict[str, Tensor] = {}
    graph = None  # weighted: built per sample from its features
    if config.adjacency_mode == "learnable":
        reg["adjacency.raw"] = ad.parameter(rng.standard_normal((config.m, config.m)))
    elif config.adjacency_mode == "binary":
        graph = adjmod.fixed_adjacency("binary", config.m)
    widths = config.layer_widths()
    for k, etas in enumerate(config.etas):
        for b, eta in enumerate(etas, start=1):
            reg.update(zip(_branch_keys(k, b), L.init_branch(widths[k], eta, rng)))
    if config.pooling_mode == "learnable_full":
        reg["pooling.p"] = ad.parameter(np.full(config.m, 1.0 / config.m))
    init_head(reg, config.head_input_width(), config.c, rng)
    return LGrinModel(config, "lgrin", graph, reg)


def build_baseline_gcn(config: ModelConfig) -> LGrinModel:
    """Two renormalized propagation layers over the binary chain graph.

    Both hidden widths are 64; the graph vector is [max | mean] readout,
    so the head input is 128. Neither the adjacency nor any pooling vector
    is learnable here.
    """
    rng = np.random.default_rng(config.seed)
    a_hat = adjmod.renormalized_adjacency(adjmod.fixed_adjacency("binary", config.m))
    reg = {"gcn.w0": ad.parameter(L.xavier_uniform(rng, config.p, BASELINE_GCN_WIDTH)),
           "gcn.w1": ad.parameter(L.xavier_uniform(rng, BASELINE_GCN_WIDTH,
                                                   BASELINE_GCN_WIDTH))}
    init_head(reg, 2 * BASELINE_GCN_WIDTH, config.c, rng)
    return LGrinModel(config, "baseline_gcn", a_hat, reg)


def init_head(reg: dict[str, Tensor], d_h: int, c: int,
              rng: np.random.Generator) -> None:
    """Set (or replace, keeping their place) the linear head's two entries."""
    reg["head.w"] = ad.parameter(L.xavier_uniform(rng, d_h, c))
    reg["head.b"] = ad.parameter(np.zeros(c))


def _branch_keys(k: int, b: int) -> list[str]:
    return [f"layer{k}.branch{b}.{name}" for name in L.BRANCH_KEYS]


BUILDERS = {"lgrin": build_lgrin, "baseline_gcn": build_baseline_gcn}


def shared_effective_adjacency(model: LGrinModel) -> Tensor | None:
    """The model-level effective adjacency, or None for per-sample modes.

    For the learnable mode this records the symmetrize+ReLU transform on
    the active tape so gradients reach the raw parameter; fixed modes
    return the stored constant.
    """
    raw = model.registry.get("adjacency.raw")
    return adjmod.effective_adjacency(raw) if raw is not None else model.graph


def _shared_graph(model: LGrinModel, samples: list[SequenceSample]
                  ) -> tuple[Tensor | None, np.ndarray | None, list[list[L.Branch]]]:
    """Check the samples, then build the shared adjacency, its mask and each
    inception layer's two branches (read from the registry) once."""
    m, p = model.config.m, model.config.p
    for s in samples:
        if s.features.shape != (m, p):
            raise ShapeError(f"sample {s.id!r} has shape "
                             f"{s.features.shape}, model expects ({m}, {p})")
    reg = model.registry
    layers = [] if model.arch == "baseline_gcn" else [
        [tuple(reg[key] for key in _branch_keys(k, b)) for b in (1, 2)]
        for k in range(model.config.inception_layers)]
    a_eff = shared_effective_adjacency(model)
    mask = None
    if layers and a_eff is not None:  # only inception layers read it
        mask = adjmod.neighbor_mask(a_eff, model.config.mask_threshold)
    return a_eff, mask, layers


def _forward_one(model: LGrinModel, sample: SequenceSample, a_eff: Tensor | None,
                 mask: np.ndarray | None, layers: list[list[L.Branch]]
                 ) -> tuple[Tensor, Tensor]:
    """Logits and final node embeddings for one checked sample."""
    reg = model.registry
    h = ad.constant(sample.features)
    if model.arch == "baseline_gcn":
        h = L.gcn_layer(L.gcn_layer(h, a_eff, reg["gcn.w0"]), a_eff, reg["gcn.w1"])
        pooled = ad.concat_vectors([ad.readout(h, "max"), ad.readout(h, "mean")])
    else:
        if a_eff is None:  # weighted adjacency is a function of this sample
            a_eff = adjmod.fixed_adjacency("weighted", model.config.m, h)
            mask = adjmod.neighbor_mask(a_eff, model.config.mask_threshold)
        for branches in layers:
            h = L.inception_layer(h, a_eff, *branches, mask)
        pooled = L.pooling_layer(h, reg.get("pooling.p"), model.config.pooling_mode)
    return ad.add(ad.vecmat(pooled, reg["head.w"]), reg["head.b"]), h


def forward_shared(model: LGrinModel,
                   samples: list[SequenceSample]) -> tuple[Tensor | None,
                                                           list[Tensor]]:
    """Per-sample logits plus the shared effective adjacency they used.

    The adjacency transform is recorded once per call, so batched training
    steps accumulate all their gradients into the single raw parameter.
    The first element is None when the adjacency is per-sample (weighted).
    """
    a_eff, mask, layers = _shared_graph(model, samples)
    return a_eff, [_forward_one(model, s, a_eff, mask, layers)[0] for s in samples]


def graph_loss(model: LGrinModel, a_eff: Tensor | None,
               weights: LossWeights) -> Tensor | None:
    """The graph-learning term this model trains, or None if it has none.

    The baseline learns no structure. An lgrin model drops the adjacency
    terms when its adjacency is per-sample (weighted) and the pooling term
    when its pooling is fixed; a fixed binary chain keeps its adjacency
    terms, which add a constant to the loss.
    """
    p = model.registry.get("pooling.p")
    if model.arch == "baseline_gcn" or (a_eff is None and p is None):
        return None
    return graph_learning_loss(a_eff, adjmod.structure_matrix(model.config.m),
                               p, weights)


def argmax_plurality(h: np.ndarray) -> int:
    """Row winning the most columnwise argmax votes, lowest index on ties."""
    winners = h.argmax(axis=0)
    counts = np.bincount(winners, minlength=h.shape[0])
    return int(counts.argmax())


def salient_node(model: LGrinModel, sample: SequenceSample) -> int:
    """Node contributing the most features to the final max readout.

    Counts, per feature column, which node's row of the final embedding
    matrix attains the columnwise maximum (first index on ties) and
    returns the plurality winner, lowest index on ties.
    """
    if model.arch == "lgrin" and model.config.pooling_mode == "mean":
        raise ConfigError("salient_node needs a pooling mode with a max readout")
    shared = _shared_graph(model, [sample])
    return argmax_plurality(_forward_one(model, sample, *shared)[1].values)


def parameter_count(model: LGrinModel) -> int:
    return sum(t.values.size for t in model.registry.values())


def closed_form_parameter_count(config: ModelConfig, arch: str = "lgrin") -> int:
    """Parameter count derived from the width laws, without building.

    Each convolution branch of width eta on input width F contributes
    F*eta + eta + eta^2 + eta; a learnable adjacency adds M^2, learnable
    pooling adds M, and the head adds D_h*C + C.
    """
    if arch == "baseline_gcn":
        return (config.p * BASELINE_GCN_WIDTH
                + BASELINE_GCN_WIDTH * BASELINE_GCN_WIDTH
                + 2 * BASELINE_GCN_WIDTH * config.c + config.c)
    total = 0
    widths = config.layer_widths()
    for k, (e1, e2) in enumerate(config.etas):
        f_in = widths[k]
        for eta in (e1, e2):
            total += f_in * eta + eta + eta * eta + eta
    if config.adjacency_mode == "learnable":
        total += config.m * config.m
    if config.pooling_mode == "learnable_full":
        total += config.m
    total += config.head_input_width() * config.c + config.c
    return total


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: LGrinModel, path: str | Path) -> Path:
    """Write config + named parameters to a single .npz container.

    Layout: key "meta" holds a JSON string with format name, version,
    architecture, and the model config; every parameter is stored as
    float64 under "param/<registry name>". Loading reproduces forward
    passes bit-exactly. The file is written atomically at exactly ``path``
    (no ``.npz`` suffix is appended).
    """
    path = Path(path)
    meta = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
            "arch": model.arch, "config": model.config.to_dict()}
    arrays = {"meta": np.array(json.dumps(meta)),
              **{f"param/{name}": t.values for name, t in model.registry.items()}}
    path.parent.mkdir(parents=True, exist_ok=True)
    return atomic_write(path, lambda fh: np.savez(fh, **arrays))


def load_checkpoint(path: str | Path) -> LGrinModel:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"checkpoint not found: {path}")
    try:
        zf = np.load(path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not a model checkpoint ({exc})") from exc
    if not isinstance(zf, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path}: not a model checkpoint")
    with zf:
        if "meta" not in zf:
            raise ConfigError(f"{path}: not a model checkpoint")
        try:
            meta = json.loads(str(zf["meta"]))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: checkpoint meta is not JSON ({exc})") from exc
        if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError(f"{path}: unknown checkpoint format")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version "
                              f"{meta.get('version')}")
        for key in ("arch", "config"):
            if key not in meta:
                raise ConfigError(f"{path}: checkpoint meta has no {key!r}")
        if meta["arch"] not in BUILDERS:
            raise ConfigError(f"{path}: unknown arch {meta['arch']!r}")
        try:
            config = ModelConfig.from_dict(meta["config"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad checkpoint config: {exc}") from exc
        model = BUILDERS[meta["arch"]](config)
        for name, tensor in model.registry.items():
            key = f"param/{name}"
            if key not in zf:
                raise ConfigError(f"{path}: missing parameter {name!r}")
            stored = zf[key]
            if stored.shape != tensor.values.shape:
                raise ContractError(f"{path}: parameter {name!r} shape "
                                    f"{stored.shape} != {tensor.values.shape}")
            tensor.values[...] = stored
    return model
