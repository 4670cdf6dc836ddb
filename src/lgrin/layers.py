"""Neural building blocks: graph convolution, inception, pooling, baseline.

The central operation propagates node features through the shared
adjacency and then applies a small two-layer MLP with an outer ReLU. An
inception layer propagates once, runs two such convolutions of different
widths on the result next to a 1-hop neighborhood max, and concatenates all
three along the feature axis, so its output width is always
eta1 + eta2 + F_in. Graph-level pooling reduces node embeddings either with
a fixed max/mean readout or with the learnable combination
[max | weighted sum | mean]. Node features are (M, B, F) minibatches (or a
single (M, F) sample); pooling returns one (B, ...) graph vector per sample.

Layers take their parameter tensors directly and hold no state: a
convolution branch is the tuple (w1, b1, w2, b2) and learnable pooling is
the per-node weight vector p. The model's registry owns every tensor.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError

Branch = tuple[Tensor, Tensor, Tensor, Tensor]
BRANCH_KEYS = ("w1", "b1", "w2", "b2")
POOLING_MODES = ("learnable_full", "max", "mean")


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_branch(f_in: int, eta: int, rng: np.random.Generator) -> Branch:
    """Fresh (w1, b1, w2, b2) for two weight layers F_in -> eta -> eta."""
    return (ad.parameter(xavier_uniform(rng, f_in, eta)), ad.parameter(np.zeros(eta)),
            ad.parameter(xavier_uniform(rng, eta, eta)), ad.parameter(np.zeros(eta)))


def gstar_conv(ah: Tensor, branch: Branch) -> Tensor:
    """Spectral graph convolution ReLU(MLP(A_eff @ H)), output width eta.

    Takes the propagated features ``ah = A_eff @ H``, which an inception
    layer computes once for both of its branches. Each of the two weight
    layers is one fused ``ReLU(x @ W + b)`` tape node.
    """
    w1, b1, w2, b2 = branch
    return ad.relu_affine(ad.relu_affine(ah, w1, b1), w2, b2)


def inception_layer(h: Tensor, a_eff: Tensor, branch1: Branch, branch2: Branch,
                    mask: np.ndarray, spanned_tail: int = 0) -> Tensor:
    """Concat of both convolution branches and the 1-hop neighborhood max.

    The max branch passes input features through unchanged widths, so the
    output is (M, ..., eta1 + eta2 + F_in) regardless of stacking depth.

    ``spanned_tail`` > 0 says that the last that many columns of ``h`` are
    a hop max of the sample features whose reach, one hop further through
    ``mask``, is every node (``model.tail_spans`` decides it). The branch's
    output there is then each sample's column max of the features at every
    node, and that is the max over the nodes of ``h``'s tail, since each
    node reaches itself. So the branch gathers only the leading columns
    (none at layer 0, whose input is all tail) and broadcasts that max. A
    max over the same values has the same bits: the input holds no NaN or
    -0.0.
    """
    ah = ad.propagate(a_eff, h)
    parts = [gstar_conv(ah, branch1), gstar_conv(ah, branch2)]
    if not spanned_tail:
        parts.append(ad.neighborhood_max(h, mask))
    else:
        lead = h.shape[-1] - spanned_tail
        if lead:
            parts.append(ad.neighborhood_max(ad.leading_features(h, lead), mask))
        tail = h.values[..., lead:].max(axis=0)
        parts.append(ad.constant(np.broadcast_to(tail, h.shape[:-1] + (spanned_tail,))))
    return ad.concat_features(parts)


def pooling_layer(h_k: Tensor, p: Tensor | None, mode: str) -> Tensor:
    """Reduce node embeddings (M, ..., Q) over the nodes to graph vectors.

    learnable_full concatenates [max | weighted sum | mean] into 3Q
    features, weighting the sum by p; max/mean return the single Q-wide
    readout used by the fixed-pooling comparisons.
    """
    if mode == "learnable_full":
        if p is None:
            raise ContractError("learnable_full pooling needs pooling weights")
        return ad.concat_features([
            ad.readout(h_k, "max"),
            ad.weighted_readout(h_k, p),
            ad.readout(h_k, "mean"),
        ])
    if mode in ("max", "mean"):
        return ad.readout(h_k, mode)
    raise ContractError(f"unknown pooling mode {mode!r}")


def gcn_layer(h: Tensor, a_hat: Tensor, w: Tensor) -> Tensor:
    """Baseline propagation ReLU(A_hat @ H @ W) over a fixed adjacency."""
    return ad.relu_affine(ad.propagate(a_hat, h), w)
