"""Neural building blocks: graph convolution, inception, pooling, baseline.

The central operation propagates node features through the shared
adjacency and then applies a small two-layer MLP with an outer ReLU. An
inception layer runs two such convolutions of different widths next to a
1-hop neighborhood max and concatenates all three along the feature axis,
so its output width is always eta1 + eta2 + F_in. Graph-level pooling
reduces node embeddings either with a fixed max/mean readout or with the
learnable combination [max | weighted sum | mean].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class MlpParams:
    """Two weight layers F_in -> eta -> eta with a ReLU between them."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, f_in: int, eta: int, rng: np.random.Generator,
             prefix: str = "mlp") -> "MlpParams":
        return cls(
            w1=ad.parameter(xavier_uniform(rng, f_in, eta), name=f"{prefix}.w1"),
            b1=ad.parameter(np.zeros(eta), name=f"{prefix}.b1"),
            w2=ad.parameter(xavier_uniform(rng, eta, eta), name=f"{prefix}.w2"),
            b2=ad.parameter(np.zeros(eta), name=f"{prefix}.b2"),
        )

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]


def mlp_apply(x: Tensor, mlp: MlpParams) -> Tensor:
    hidden = ad.relu(ad.add(ad.matmul(x, mlp.w1), mlp.b1))
    return ad.add(ad.matmul(hidden, mlp.w2), mlp.b2)


def gstar_conv(h: Tensor, a_eff: Tensor, mlp: MlpParams) -> Tensor:
    """Spectral graph convolution: ReLU(MLP(A_eff @ H)), output width eta."""
    return ad.relu(mlp_apply(ad.matmul(a_eff, h), mlp))


@dataclass
class InceptionParams:
    """Two convolution branches of different widths sharing one input."""

    branch1: MlpParams
    branch2: MlpParams

    @classmethod
    def init(cls, f_in: int, etas: tuple[int, int], rng: np.random.Generator,
             prefix: str = "layer") -> "InceptionParams":
        return cls(
            branch1=MlpParams.init(f_in, etas[0], rng, prefix=f"{prefix}.branch1"),
            branch2=MlpParams.init(f_in, etas[1], rng, prefix=f"{prefix}.branch2"),
        )


def inception_layer(h: Tensor, a_eff: Tensor, params: InceptionParams,
                    mask: np.ndarray) -> Tensor:
    """Concat of both convolution branches and the 1-hop neighborhood max.

    The max branch passes input features through unchanged widths, so the
    output is (M, eta1 + eta2 + F_in) regardless of stacking depth.
    """
    return ad.concat_features([
        gstar_conv(h, a_eff, params.branch1),
        gstar_conv(h, a_eff, params.branch2),
        ad.neighborhood_max(h, mask),
    ])


@dataclass
class PoolingParams:
    """Learnable per-node combination weights for graph-level pooling."""

    p: Tensor

    @classmethod
    def init(cls, m: int) -> "PoolingParams":
        # start as a uniform average so the untrained weighted readout
        # coincides with mean pooling
        return cls(p=ad.parameter(np.full(m, 1.0 / m), name="pooling.p"))


POOLING_MODES = ("learnable_full", "max", "mean")


def pooling_layer(h_k: Tensor, pool: PoolingParams | None, mode: str) -> Tensor:
    """Reduce node embeddings (M, Q) to one graph vector.

    learnable_full concatenates [max | weighted sum | mean] into a 3Q
    vector; max/mean return the single Q-wide readout used by the
    fixed-pooling comparisons.
    """
    if mode == "learnable_full":
        if pool is None:
            raise ContractError("learnable_full pooling needs PoolingParams")
        return ad.concat_vectors([
            ad.readout(h_k, "max"),
            ad.weighted_readout(h_k, pool.p),
            ad.readout(h_k, "mean"),
        ])
    if mode in ("max", "mean"):
        return ad.readout(h_k, mode)
    raise ContractError(f"unknown pooling mode {mode!r}")


def gcn_layer(h: Tensor, a_hat: Tensor, w: Tensor) -> Tensor:
    """Baseline propagation ReLU(A_hat @ H @ W) over a fixed adjacency."""
    return ad.relu(ad.matmul(ad.matmul(a_hat, h), w))
