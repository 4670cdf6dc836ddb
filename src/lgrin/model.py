"""Model assembly, the forward pass, parameter accounting, and persistence.

A model is its config (which names its architecture), its constant
graph (if any) and a registry: the one ordered name -> tensor map of every
parameter (raw adjacency, per-layer branch weights, pooling weights,
linear head). The forward pass, the optimizer and checkpoints all read
parameters from the registry, and nothing else holds them. Training
updates the entries that require grad; a fine-tuned model holds its
frozen body as constants. Two architectures share the container: the
full learnable-graph inception network, and the plain GCN baseline (two
renormalized propagation layers over the binary chain with a max|mean
readout). This is the only module that tells them apart: ``BUILDERS``
maps each architecture name to its constructor, ``forward_shared`` is
the one forward pass for both (one graph per minibatch), and ``loss`` is
the one training objective, with the graph-learning terms each model
trains. ``check_dataset`` is the one check that a dataset fits a model.
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
from .data import GraphDataset, SequenceSample, atomic_write, pad_or_truncate
from .errors import (ConfigError, ContractError, DataError, ShapeError,
                     check_int_fields, check_keys, config_from_json, is_int,
                     parse_json)
from .objective import LossWeights, graph_learning_loss

ADJACENCY_MODES = ("learnable", "binary", "weighted")
BASELINE_GCN_WIDTH = 64
CHECKPOINT_FORMAT = "lgrin-checkpoint"
CHECKPOINT_VERSION = 1
FORWARD_CHUNK = 16  # samples per forward-only pass (evaluation, saliency)


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
    arch: str = "lgrin"  # a key of BUILDERS

    def __post_init__(self):
        check_int_fields(self)
        if not isinstance(self.arch, str) or self.arch not in BUILDERS:
            raise ConfigError(f"unknown arch {self.arch!r}")
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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        etas = self.etas
        if etas is None:
            etas = ((128, 64),) * self.inception_layers
        elif not (isinstance(etas, (list, tuple)) and all(
                isinstance(e, (list, tuple)) and len(e) == 2 and all(map(is_int, e))
                for e in etas)):
            raise TypeError(f"etas must be pairs of integers, got {etas!r}")
        etas = tuple(tuple(e) for e in etas)
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


@dataclass
class LGrinModel:
    config: ModelConfig
    graph: Tensor | None  # constant adjacency; None if learnable or per-sample
    registry: dict[str, Tensor]


def build_lgrin(config: ModelConfig) -> LGrinModel:
    """Assemble the full model with seeded Xavier weights.

    Weight matrices are uniform on +/- sqrt(6 / (fan_in + fan_out)),
    biases start at zero, the pooling vector starts as the uniform average
    1/M (so the untrained weighted readout coincides with mean pooling),
    and a learnable adjacency starts from Normal(0, 1) raw entries.
    """
    config = dataclasses.replace(config, arch="lgrin")
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
    return LGrinModel(config, graph, reg)


def build_baseline_gcn(config: ModelConfig) -> LGrinModel:
    """Two renormalized propagation layers over the binary chain graph.

    Both hidden widths are 64; the graph vector is [max | mean] readout,
    so the head input is 128. Neither the adjacency nor any pooling vector
    is learnable here.
    """
    config = dataclasses.replace(config, arch="baseline_gcn")
    rng = np.random.default_rng(config.seed)
    a_hat = adjmod.renormalized_adjacency(adjmod.fixed_adjacency("binary", config.m))
    reg = {"gcn.w0": ad.parameter(L.xavier_uniform(rng, config.p, BASELINE_GCN_WIDTH)),
           "gcn.w1": ad.parameter(L.xavier_uniform(rng, BASELINE_GCN_WIDTH,
                                                   BASELINE_GCN_WIDTH))}
    init_head(reg, 2 * BASELINE_GCN_WIDTH, config.c, rng)
    return LGrinModel(config, a_hat, reg)


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


def check_dataset(cfg: ModelConfig, dataset: GraphDataset) -> None:
    """A DataError unless the dataset's (target_length, feature_dim) is the
    config's (m, p) and its classes fit the head."""
    if (dataset.target_length, dataset.feature_dim) != (cfg.m, cfg.p):
        raise DataError(f"dataset ({dataset.target_length}, {dataset.feature_dim}) "
                        f"does not match model ({cfg.m}, {cfg.p})")
    if dataset.num_classes > cfg.c:
        raise DataError(f"dataset has {dataset.num_classes} classes, "
                        f"model head only {cfg.c}")


def samples_for(model: LGrinModel, dataset: GraphDataset) -> list[SequenceSample]:
    """The dataset's samples padded to M, once ``check_dataset`` passes."""
    check_dataset(model.config, dataset)
    return [pad_or_truncate(s, model.config.m) for s in dataset.samples]


def _stacked_features(model: LGrinModel, samples: list[SequenceSample]) -> Tensor:
    """The samples' node features as one constant (M, B, P) batch: finite
    (a DataError names the first sample that is not), with -0.0 read as 0.0."""
    m, p = model.config.m, model.config.p
    if not samples:
        raise ContractError("a forward pass needs at least one sample")
    for s in samples:
        if s.features.shape != (m, p):
            raise ShapeError(f"sample {s.id!r} has shape "
                             f"{s.features.shape}, model expects ({m}, {p})")
    x = np.stack([s.features for s in samples], axis=1)
    if not np.isfinite(x).all():
        bad = next(s for s in samples if not np.isfinite(s.features).all())
        raise DataError(f"sample {bad.id!r} has non-finite features")
    x += 0.0  # -0.0 -> 0.0
    return ad.constant(x)


def tail_spans(mask: np.ndarray, layers: int) -> list[bool]:
    """Per inception layer, whether the max branch's last P output columns
    are every node's column max of the sample features.

    The max branch passes its input through at full width, so the last P
    columns of layer k's input are a k-hop max of the features and those
    of its max output a (k+1)-hop max: node i's max over the nodes it
    reaches in k+1 steps of ``mask``, R_1 = mask and R_(k+1) = R_k @ mask.
    Layer k spans when R_(k+1) is all true, in every sample of a (B, M, M)
    stack of per-sample masks. The products stop once a layer spans, since
    every later one does (each node is its own neighbour). A kink-tracking
    tape gets no spanning layer, so it reads every column's tie margin.
    """
    tape = ad.active_tape()
    if tape is not None and tape.track_kinks:
        return [False] * layers
    step = mask.astype(np.float64)
    reach, spans = step, []
    for k in range(layers):
        if k and not spans[-1]:
            reach = np.minimum(reach @ step, 1.0)
        spans.append(bool(reach.all()))
    return spans


def _graph(model: LGrinModel, h: Tensor | None) -> tuple:
    """(shared adjacency, adjacency the layers read, its neighbour mask, per
    layer whether the max branch's tail spans): one forward pass's graph.

    The GCN reads its constant graph and has no mask. A weighted lgrin
    model's graph comes from the features ``h``; the other modes ignore it.
    """
    a_eff = shared_effective_adjacency(model)
    if model.config.arch == "baseline_gcn":
        return a_eff, a_eff, None, None
    a = a_eff if a_eff is not None else adjmod.fixed_adjacency("weighted", model.config.m, h)
    mask = adjmod.neighbor_mask(a, model.config.mask_threshold)
    return a_eff, a, mask, tail_spans(mask, model.config.inception_layers)


def forward_shared(model: LGrinModel, samples: list[SequenceSample], graph: tuple | None = None
                   ) -> tuple[Tensor | None, Tensor, Tensor]:
    """One forward graph for a minibatch: (shared adjacency, logits, embeddings).

    Activations are (M, B, F), so every op is recorded once per call
    whatever the batch size B, and batched training steps accumulate all
    their gradients into the single raw adjacency parameter. The logits are
    (B, C) and the final node embeddings (M, B, Q). The first element is
    None when the adjacency is per-sample (weighted); the forward then
    runs on a (B, M, M) stack of the samples' own adjacencies. At a layer
    whose max branch spans the graph (``tail_spans``), that branch gathers
    only the columns before the last P and gives every node the column max
    of those P, the same bits as the gather. ``graph`` is ``_graph``'s
    value for these samples, computed here when None.
    """
    h = _stacked_features(model, samples)
    reg = model.registry
    a_eff, a, mask, spans = graph if graph is not None else _graph(model, h)
    if model.config.arch == "baseline_gcn":
        for key in ("gcn.w0", "gcn.w1"):
            h = L.gcn_layer(h, a, reg[key])
        pooled = ad.concat_features([ad.readout(h, "max"), ad.readout(h, "mean")])
    else:
        for k in range(model.config.inception_layers):
            branches = [tuple(reg[key] for key in _branch_keys(k, b)) for b in (1, 2)]
            h = L.inception_layer(h, a, *branches, mask, model.config.p if spans[k] else 0)
        pooled = L.pooling_layer(h, reg.get("pooling.p"), model.config.pooling_mode)
    return a_eff, ad.relu_affine(pooled, reg["head.w"], reg["head.b"], relu=False), h


def forward_chunks(model: LGrinModel, samples: list[SequenceSample]):
    """Forward-only passes over consecutive chunks of FORWARD_CHUNK samples.

    Yields (logits, final node embeddings) per chunk, so evaluation and
    saliency hold one chunk's activations at a time, not the whole set's.
    The graph is computed once for all chunks, except a weighted lgrin
    model's, which each chunk's features give.
    """
    per_sample = model.config.arch == "lgrin" and model.config.adjacency_mode == "weighted"
    graph = None if per_sample else _graph(model, None)
    for start in range(0, len(samples), FORWARD_CHUNK):
        yield forward_shared(model, samples[start:start + FORWARD_CHUNK], graph)[1:]


def loss(model: LGrinModel, samples: list[SequenceSample],
         weights: LossWeights) -> tuple[Tensor, Tensor]:
    """The training objective for a minibatch: (total loss, (B, C) logits).

    Summed cross entropy over the samples' own labels, plus the
    graph-learning term the model trains, recorded on the active tape. The
    baseline learns no structure. An lgrin model drops the adjacency terms
    when its adjacency is per-sample (weighted) and the pooling term when
    its pooling is fixed; a fixed binary chain keeps its adjacency terms,
    which add a constant to the loss.
    """
    a_eff, logits, _ = forward_shared(model, samples)
    total = ad.cross_entropy_logits(logits, [s.label for s in samples])
    p = model.registry.get("pooling.p")
    if model.config.arch == "lgrin" and (a_eff is not None or p is not None):
        total = ad.add(total, graph_learning_loss(
            a_eff, adjmod.structure_matrix(model.config.m), p, weights))
    return total, logits


def argmax_plurality(h: np.ndarray) -> int:
    """Row winning the most columnwise argmax votes, lowest index on ties."""
    winners = h.argmax(axis=0)
    counts = np.bincount(winners, minlength=h.shape[0])
    return int(counts.argmax())


def check_max_readout(model: LGrinModel) -> None:
    """Raise ConfigError unless the model's readout is a max, which
    ``salient_nodes`` reads."""
    if model.config.arch == "lgrin" and model.config.pooling_mode == "mean":
        raise ConfigError("salient nodes need a pooling mode with a max readout")


def salient_nodes(model: LGrinModel, samples: list[SequenceSample]) -> list[int]:
    """Per sample, the node contributing the most features to the final max readout.

    Counts, per feature column, which node's row of the sample's final
    embedding matrix attains the columnwise maximum (first index on ties)
    and returns the plurality winner, lowest index on ties. The embeddings
    come from the chunked forward-only passes.
    """
    check_max_readout(model)
    return [argmax_plurality(h.values[:, b])
            for _, h in forward_chunks(model, samples) for b in range(h.shape[1])]


def parameter_count(model: LGrinModel) -> int:
    return sum(t.values.size for t in model.registry.values())


def closed_form_parameter_count(config: ModelConfig) -> int:
    """Parameter count derived from the width laws, without building.

    Each convolution branch of width eta on input width F contributes
    F*eta + eta + eta^2 + eta; a learnable adjacency adds M^2, learnable
    pooling adds M, and the head adds D_h*C + C.
    """
    if config.arch == "baseline_gcn":
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
    architecture, and the rest of the model config; every parameter is
    stored as float64 under "param/<registry name>". Loading reproduces
    forward passes bit-exactly. The file is written atomically at exactly ``path``
    (no ``.npz`` suffix is appended).
    """
    path = Path(path)
    config = dataclasses.asdict(model.config)
    meta = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
            "arch": config.pop("arch"), "config": config}
    arrays = {"meta": np.array(json.dumps(meta)),
              **{f"param/{name}": t.values for name, t in model.registry.items()}}
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
        try:  # an object array raises ValueError without pickle
            text = str(zf["meta"])
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{path}: checkpoint meta cannot be read ({exc})") from exc
        meta = parse_json(text, ConfigError, f"{path}: checkpoint meta")
        if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError(f"{path}: unknown checkpoint format")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version "
                              f"{meta.get('version')}")
        for key in ("arch", "config"):
            if key not in meta:
                raise ConfigError(f"{path}: checkpoint meta has no {key!r}")
        # the stored config is a ModelConfig without its arch, kept beside it
        where = f"checkpoint config in {path}"
        check_keys(meta["config"], [f.name for f in dataclasses.fields(ModelConfig)
                                    if f.name != "arch"], where)
        config = config_from_json(ModelConfig, {**meta["config"], "arch": meta["arch"]},
                                  where)
        model = BUILDERS[config.arch](config)
        for name, tensor in model.registry.items():
            key = f"param/{name}"
            if key not in zf:
                raise ConfigError(f"{path}: missing parameter {name!r}")
            try:  # an object array raises ValueError without pickle
                stored = zf[key]
            except (OSError, ValueError, zipfile.BadZipFile) as exc:
                raise ConfigError(f"{path}: parameter {name!r} cannot be "
                                  f"read ({exc})") from exc
            if stored.dtype.kind != "f":
                raise ConfigError(f"{path}: parameter {name!r} has dtype "
                                  f"{stored.dtype}, not a real float")
            if stored.shape != tensor.values.shape:
                raise ConfigError(f"{path}: parameter {name!r} shape "
                                  f"{stored.shape} != {tensor.values.shape}")
            if not np.all(np.isfinite(stored)):
                raise ConfigError(f"{path}: parameter {name!r} has non-finite values")
            tensor.values[...] = stored
    return model
