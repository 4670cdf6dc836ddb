"""Optimizer, training loop, evaluation, gradient checking, fine-tuning.

One training run owns one model: every epoch shuffles the sample order
with the run's seeded generator, walks minibatches, runs each batch as one
forward graph against the single shared adjacency, and applies a
bias-corrected Adam update at the stepped learning rate. Everything is
deterministic given (model seed, data, train config).
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
from .data import GraphDataset, SequenceSample
from .errors import ConfigError, ContractError, NumericalError, check_int_fields
from .objective import LossWeights

KINK_MARGIN = 1e-3
GRAD_CHECK_TRIES = 50  # random points tried before a gradient check gives up


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
        if not 0 < self.decay <= 1:
            raise ConfigError(f"decay must be in (0, 1], got {self.decay}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1 and self.epsilon > 0):
            raise ConfigError("invalid Adam hyperparameters")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


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


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Stepped schedule: lr0 * decay^(epoch // decay_every)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.decay ** (epoch // cfg.decay_every)


@dataclass
class AdamState:
    """Adam's moment vectors over the parameter vector, plus the step count."""

    step: int
    m: np.ndarray
    v: np.ndarray


def adam_step(params: np.ndarray, g: np.ndarray, state: AdamState,
              lr: float, cfg: TrainConfig) -> None:
    """Standard bias-corrected Adam update of one parameter vector, in place."""
    if g.shape != params.shape:
        raise ContractError(f"gradient of shape {g.shape} for parameters "
                            f"of shape {params.shape}")
    state.step += 1
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    correct1 = 1.0 - b1 ** t
    correct2 = 1.0 - b2 ** t
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    params -= lr * (m / correct1) / (np.sqrt(v / correct2) + cfg.epsilon)


def registry_grads(registry: dict[str, Tensor],
                   grads: dict[Tensor, np.ndarray]) -> dict[str, np.ndarray]:
    """Gradient arrays by registry name; zeros where the loss did not reach."""
    return {name: grads[t] if t in grads else np.zeros_like(t.values)
            for name, t in registry.items()}


def train(model: mm.LGrinModel, dataset: GraphDataset,
          cfg: TrainConfig) -> tuple[mm.LGrinModel, TrainReport]:
    """Run the full epoch loop, mutating the model's parameters in place.

    Adam updates exactly the registry tensors that require grad, as one
    vector: at the start their values are copied, in registry order, into
    one contiguous array and each tensor is rebound to its view of it. A
    constant entry (a fine-tuned model's frozen body) stays outside and is
    never changed.
    """
    params = {k: t for k, t in model.registry.items() if t.requires_grad}
    if not params:
        raise ConfigError("model has no trainable parameters: every registry entry is constant")
    started = time.perf_counter()
    padded = mm.samples_for(model, dataset)
    labels = dataset.labels()
    n = len(padded)
    flat = np.concatenate([t.values.ravel() for t in params.values()])
    ends = np.cumsum([t.values.size for t in params.values()])
    for t, part in zip(params.values(), np.split(flat, ends[:-1])):
        t.values = part.reshape(t.shape)  # a view of flat
    state = AdamState(step=0, m=np.zeros_like(flat), v=np.zeros_like(flat))
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
            # a diverging step overflows in numpy; the checks below and at
            # the end of the epoch report it as one NumericalError instead
            with np.errstate(all="ignore"):
                with GradTape() as tape:
                    total, logits = mm.loss(model, batch, cfg.loss_weights)
                step_loss = total.item()
                if not math.isfinite(step_loss):
                    raise NumericalError(f"loss became non-finite ({step_loss}) at "
                                         f"epoch {epoch}, batch {batch_index}")
                grads = registry_grads(params, ad.backward(total, tape))
                adam_step(flat, np.concatenate([g.ravel() for g in grads.values()]),
                          state, lr, cfg)
            epoch_loss += step_loss
            correct += int(np.count_nonzero(logits.values.argmax(axis=1) == labels[idx]))
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
        seed=cfg.seed, config=dataclasses.asdict(cfg))
    return model, report


def confusion_from_predictions(labels: list[int], preds: list[int],
                               c: int) -> dict:
    """Accuracies plus confusion[true][pred] counts.

    ``unweighted_accuracy`` is ``trace / total``, the share of samples
    predicted correctly (what emotion work often calls weighted accuracy);
    ``per_class_recall[k]`` is the share of class k's samples predicted as
    k, ``None`` for a class absent from the labels; ``mean_class_recall``
    is the mean of the present classes' recalls, the unweighted accuracy
    proper, which differs from ``unweighted_accuracy`` on imbalanced sets.
    """
    if len(labels) != len(preds):
        raise ContractError(f"{len(labels)} labels for {len(preds)} predictions")
    confusion = np.zeros((c, c), dtype=np.int64)
    for y, pred in zip(labels, preds):
        confusion[y, pred] += 1
    total = len(labels)
    correct = int(np.trace(confusion))
    per_class = [int(hits) / int(n) if n else None
                 for hits, n in zip(np.diag(confusion), confusion.sum(axis=1))]
    present = [r for r in per_class if r is not None]
    return {"unweighted_accuracy": correct / total if total else 0.0,
            "per_class_recall": per_class,
            "mean_class_recall": sum(present) / len(present) if present else 0.0,
            "confusion": confusion.tolist()}


def evaluate(model: mm.LGrinModel, samples: list[SequenceSample]) -> dict:
    """Accuracies and confusion counts over padded samples (the keys of
    ``confusion_from_predictions``).

    Predictions are the argmax of the logits, lowest index on ties, from
    the chunked forward-only passes.
    """
    preds = [int(k) for logits, _ in mm.forward_chunks(model, samples)
             for k in logits.values.argmax(axis=1)]
    return confusion_from_predictions([s.label for s in samples], preds,
                                      model.config.c)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check_random(config: mm.ModelConfig, eps: float = 1e-5, seed: int = 0,
                      weights: LossWeights | None = None
                      ) -> tuple[dict[str, float], float, int]:
    """Gradient check of the training objective at a random kink-free point.

    Draws sample features uniform in [-2, 2] and rebuilds the model with a
    shifted seed until the forward pass stays at least KINK_MARGIN away
    from every ReLU/max kink. At that point only, backward gradients of
    the total loss are compared against central finite differences for
    every registry entry. The error denominator is floored at 1e-3 so that
    near-zero gradients are measured absolutely (finite differences
    resolve them to ~1e-9 at best). Returns (max guarded relative error
    per parameter group, kink margin, attempt index); deterministic per
    starting seed. Only the lgrin architecture is checked.
    """
    if config.arch != "lgrin":
        raise ConfigError("gradcheck runs on the lgrin architecture")
    weights = weights if weights is not None else LossWeights()
    for attempt in range(GRAD_CHECK_TRIES):
        s = seed + attempt
        model = mm.build_lgrin(dataclasses.replace(config, seed=s))
        rng = np.random.default_rng(s + 10_000)
        features = rng.uniform(-2.0, 2.0, size=(config.m, config.p))
        label = int(rng.integers(config.c))
        sample = SequenceSample(features, label, f"gradcheck-{s}")
        with GradTape(track_kinks=True) as tape:
            total, _ = mm.loss(model, [sample], weights)
        margin = tape.kink_margin()
        if margin >= KINK_MARGIN:
            break
    else:
        raise NumericalError(f"no kink-free point found in {GRAD_CHECK_TRIES} tries")

    grads = registry_grads(model.registry, ad.backward(total, tape))
    errors: dict[str, float] = {}
    for name, tensor in model.registry.items():
        analytic = grads[name]
        fd = ad.finite_difference(
            lambda _: mm.loss(model, [sample], weights)[0].item(), tensor.values, eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-3)
        errors[name] = float(np.max(np.abs(analytic - fd) / denom))
    return errors, margin, attempt


def fine_tune_head(model: mm.LGrinModel, target: GraphDataset,
                   cfg: TrainConfig) -> tuple[mm.LGrinModel, TrainReport]:
    """Adapt a trained model to a new corpus by retraining only the head.

    Trains and returns a new model; the input model is left unchanged. Its
    non-head entries are constants over the input's arrays, so they stay
    bit-exact and no gradient is taken through them. Its head is a fresh
    parameter copy, or is re-initialized from cfg.seed at the new width if
    the target class count differs.
    """
    c = target.num_classes
    registry = {name: ad.parameter(t.values) if name.startswith("head.")
                else ad.constant(t.values) for name, t in model.registry.items()}
    if c != model.config.c:
        mm.init_head(registry, registry["head.w"].shape[0], c,
                     np.random.default_rng(cfg.seed))
    return train(dataclasses.replace(model, config=dataclasses.replace(model.config, c=c),
                                     registry=registry), target, cfg)
