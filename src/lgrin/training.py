"""Optimizer, training loop, evaluation, gradient checking, fine-tuning.

One training run owns one model: every epoch shuffles the sample order
with the run's seeded generator, walks minibatches, replays each batch
forward against the single shared adjacency, and applies a bias-corrected
Adam update at the stepped learning rate. Everything is deterministic
given (model seed, data, train config).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as mm
from .autodiff import GradTape, Tensor
from .data import GraphDataset, SequenceSample, pad_or_truncate
from .errors import ConfigError, ContractError, NumericalError, check_int_fields
from .objective import LossWeights, classification_loss, total_loss

KINK_MARGIN = 1e-3


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    lr0: float = 0.01
    decay: float = 0.5
    decay_every: int = 50
    batch_size: int = 16
    loss_weights: LossWeights = LossWeights()
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        check_int_fields(self)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr0 <= 0 or self.batch_size < 1 or self.decay_every < 1:
            raise ConfigError("need lr0 > 0, batch_size >= 1, decay_every >= 1")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1 and self.epsilon > 0):
            raise ConfigError("invalid Adam hyperparameters")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["loss_weights"] = dataclasses.asdict(self.loss_weights)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if isinstance(d.get("loss_weights"), dict):
            d["loss_weights"] = LossWeights(**d["loss_weights"])
        return cls(**d)


@dataclass
class TrainReport:
    """Per-epoch curves plus final metrics for one training run.

    The accuracy curve tracks running accuracy of the predictions made
    while training each epoch; ``final_accuracy`` is a clean post-training
    pass over the training set, so re-evaluating the saved checkpoint on
    that set reproduces it exactly.
    """

    loss_curve: list[float]
    accuracy_curve: list[float]
    final_loss: float
    final_accuracy: float
    epochs: int
    total_steps: int
    wall_clock_seconds: float
    seed: int
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Stepped schedule: lr0 * decay^(epoch // decay_every)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.decay ** (epoch // cfg.decay_every)


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus the step counter."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def init(cls, registry: dict[str, Tensor]) -> "AdamState":
        return cls(step=0,
                   m={k: np.zeros_like(t.values) for k, t in registry.items()},
                   v={k: np.zeros_like(t.values) for k, t in registry.items()})


def adam_step(registry: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, cfg: TrainConfig) -> None:
    """Standard bias-corrected Adam update, in place."""
    missing = set(registry) - set(grads)
    if missing:
        raise ContractError(f"gradients missing for {sorted(missing)}")
    state.step += 1
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    correct1 = 1.0 - b1 ** t
    correct2 = 1.0 - b2 ** t
    for name, tensor in registry.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        tensor.values -= lr * (m / correct1) / (np.sqrt(v / correct2) + cfg.epsilon)


def registry_grads(registry: dict[str, Tensor],
                   grads: dict[Tensor, np.ndarray]) -> dict[str, np.ndarray]:
    """Gradient arrays by registry name; zeros where the loss did not reach."""
    return {name: grads[t] if t in grads else np.zeros_like(t.values)
            for name, t in registry.items()}


def _batch_objective(model: mm.LGrinModel, samples: list[SequenceSample],
                     labels: list[int],
                     weights: LossWeights) -> tuple[Tensor, list[Tensor]]:
    """Total loss for one minibatch on the active tape, plus per-sample logits."""
    a_eff, logits = mm.forward_shared(model, samples)
    loss = classification_loss(logits, labels)
    gl = mm.graph_loss(model, a_eff, weights)
    return (loss if gl is None else total_loss(loss, gl)), logits


def _check_compat(model: mm.LGrinModel, dataset: GraphDataset) -> None:
    if dataset.target_length != model.config.m:
        raise ConfigError(f"dataset target_length {dataset.target_length} "
                          f"!= model M {model.config.m}")
    if dataset.feature_dim != model.config.p:
        raise ConfigError(f"dataset feature_dim {dataset.feature_dim} "
                          f"!= model P {model.config.p}")
    if dataset.num_classes > model.config.c:
        raise ConfigError(f"dataset has {dataset.num_classes} classes, "
                          f"model head only {model.config.c}")


def train(model: mm.LGrinModel, dataset: GraphDataset, cfg: TrainConfig,
          trainable: set[str] | None = None) -> tuple[mm.LGrinModel, TrainReport]:
    """Run the full epoch loop, mutating the model's parameters in place.

    ``trainable`` restricts the Adam update to a subset of registry names
    (used by head fine-tuning); gradients are still computed everywhere.
    """
    _check_compat(model, dataset)
    started = time.perf_counter()
    padded = [pad_or_truncate(s, model.config.m) for s in dataset.samples]
    labels = [s.label for s in padded]
    n = len(padded)
    if trainable is None:
        trainable = set(model.registry)
    unknown = trainable - set(model.registry)
    if unknown:
        raise ConfigError(f"unknown trainable parameters {sorted(unknown)}")
    sub_registry = {k: v for k, v in model.registry.items() if k in trainable}
    state = AdamState.init(sub_registry)
    rng = np.random.default_rng(cfg.seed)

    loss_curve: list[float] = []
    acc_curve: list[float] = []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg, epoch)
        order = rng.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            batch = [padded[i] for i in idx]
            batch_labels = [labels[i] for i in idx]
            with GradTape() as tape:
                total, logits = _batch_objective(model, batch, batch_labels,
                                                 cfg.loss_weights)
            step_loss = total.item()
            if not math.isfinite(step_loss):
                raise NumericalError(f"loss became non-finite ({step_loss}) at "
                                     f"epoch {epoch}, batch {batch_index}")
            grads = registry_grads(sub_registry, ad.backward(total, tape))
            adam_step(sub_registry, grads, state, lr, cfg)
            epoch_loss += step_loss
            correct += sum(int(lg.values.argmax()) == y
                           for lg, y in zip(logits, batch_labels))
        for name, tensor in model.registry.items():
            if not np.all(np.isfinite(tensor.values)):
                raise NumericalError(f"parameter {name!r} became non-finite "
                                     f"at epoch {epoch}")
        loss_curve.append(epoch_loss / n)
        acc_curve.append(correct / n)

    final_accuracy = evaluate(model, padded)["unweighted_accuracy"]
    report = TrainReport(
        loss_curve=loss_curve, accuracy_curve=acc_curve,
        final_loss=loss_curve[-1], final_accuracy=final_accuracy,
        epochs=cfg.epochs, total_steps=state.step,
        wall_clock_seconds=time.perf_counter() - started,
        seed=cfg.seed, config=cfg.to_dict())
    return model, report


def confusion_from_predictions(labels: list[int], preds: list[int],
                               c: int) -> dict:
    """Unweighted accuracy plus confusion[true][pred] counts."""
    if len(labels) != len(preds):
        raise ContractError(f"{len(labels)} labels for {len(preds)} predictions")
    confusion = np.zeros((c, c), dtype=np.int64)
    for y, pred in zip(labels, preds):
        confusion[y, pred] += 1
    total = len(labels)
    correct = int(np.trace(confusion))
    return {"unweighted_accuracy": correct / total if total else 0.0,
            "confusion": confusion.tolist()}


def evaluate(model: mm.LGrinModel, samples: list[SequenceSample]) -> dict:
    """Unweighted accuracy and confusion counts over padded samples.

    Predictions are the argmax of the logits, lowest index on ties.
    """
    logits = mm.forward_shared(model, samples)[1]
    preds = [int(lg.values.argmax()) for lg in logits]
    return confusion_from_predictions([s.label for s in samples], preds,
                                      model.config.c)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def _loss_value(model: mm.LGrinModel, sample: SequenceSample,
                weights: LossWeights) -> float:
    """Forward-only objective value for the current parameter values."""
    return _batch_objective(model, [sample], [sample.label], weights)[0].item()


def grad_check(model: mm.LGrinModel, sample: SequenceSample, eps: float = 1e-5,
               weights: LossWeights | None = None,
               corrupt: str | None = None) -> tuple[dict[str, float], float]:
    """Max guarded relative error per parameter group, plus the kink margin.

    Backward gradients of the total loss are compared against central
    finite differences for every registry entry. The error denominator is
    floored at 1e-3 so that near-zero gradients are measured absolutely
    (finite differences resolve them to ~1e-9 at best). The second return
    value is the smallest ReLU/max margin seen on the forward pass; the
    comparison is only meaningful when it exceeds the perturbation scale.
    ``corrupt`` names a group whose analytic gradient is deliberately
    offset, as a negative control for the surrounding harness.
    """
    weights = weights if weights is not None else LossWeights()
    with GradTape(track_kinks=True) as tape:
        total, _ = _batch_objective(model, [sample], [sample.label], weights)
    grads = registry_grads(model.registry, ad.backward(total, tape))
    margin = tape.kink_margin()

    errors: dict[str, float] = {}
    for name, tensor in model.registry.items():
        analytic = grads[name]
        if corrupt == name:
            analytic = analytic + 1e-2
        fd = ad.finite_difference(
            lambda _: _loss_value(model, sample, weights), tensor.values, eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-3)
        errors[name] = float(np.max(np.abs(analytic - fd) / denom))
    return errors, margin


def grad_check_random(config: mm.ModelConfig, eps: float = 1e-5, seed: int = 0,
                      weights: LossWeights | None = None,
                      corrupt: str | None = None,
                      max_tries: int = 50) -> tuple[dict[str, float], float, int]:
    """Gradient check at a random kink-free point.

    Draws sample features uniform in [-2, 2] and rebuilds the model with a
    shifted seed until the forward pass stays at least KINK_MARGIN away
    from every ReLU/max kink, then checks there. Returns (per-group
    errors, margin, attempt index); deterministic per starting seed.
    """
    for attempt in range(max_tries):
        s = seed + attempt
        model = mm.build_lgrin(dataclasses.replace(config, seed=s))
        rng = np.random.default_rng(s + 10_000)
        features = rng.uniform(-2.0, 2.0, size=(config.m, config.p))
        label = int(rng.integers(config.c))
        sample = SequenceSample(features, label, f"gradcheck-{s}")
        errors, margin = grad_check(model, sample, eps=eps, weights=weights,
                                    corrupt=corrupt)
        if margin >= KINK_MARGIN:
            return errors, margin, attempt
    raise NumericalError(f"no kink-free point found in {max_tries} tries")


def fine_tune_head(model: mm.LGrinModel, target: GraphDataset,
                   cfg: TrainConfig) -> tuple[mm.LGrinModel, TrainReport]:
    """Adapt a trained model to a new corpus by retraining only the head.

    All non-head parameters are shared with the input model and frozen
    bit-exactly. If the target class count differs, the head is rebuilt at
    the new width and re-initialized from cfg.seed.
    """
    c = target.num_classes
    tuned = dataclasses.replace(model, config=dataclasses.replace(model.config, c=c),
                                registry=dict(model.registry))
    if c != model.config.c:
        mm.init_head(tuned.registry, model.registry["head.w"].shape[0], c,
                     np.random.default_rng(cfg.seed))
    return train(tuned, target, cfg, trainable={"head.w", "head.b"})
