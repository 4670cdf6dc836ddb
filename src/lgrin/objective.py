"""The graph learning loss and its weights.

The joint training objective (``model.loss``) adds this term to the summed
cross entropy of a minibatch. It regularizes the learned structure: a
temporal-locality penalty that charges each edge by the squared index
distance of its endpoints, a Frobenius penalty shrinking overall edge mass,
and an L2 penalty on the pooling weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError, check_int_fields


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 0.1
    lambda2: float = 0.1
    lambda3: float = 1e-4

    def __post_init__(self):
        check_int_fields(self)
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ConfigError("loss weights must be non-negative")


def graph_learning_loss(a_eff: Tensor | None, a_d: np.ndarray,
                        p: Tensor | None, w: LossWeights) -> Tensor:
    """lambda1 * sum(A_d o A) + lambda2 * ||A||_F^2 + lambda3 * ||p||_2^2.

    A None adjacency or pooling vector leaves its terms out; at least one
    of the two must be given.
    """
    m = a_d.shape[0]
    if a_eff is not None and a_eff.shape != (m, m):
        raise ShapeError(f"adjacency {a_eff.shape} vs structure {a_d.shape}")
    if p is not None and p.shape != (m,):
        raise ShapeError(f"pooling vector {p.shape} does not match M={m}")
    sums = []
    if a_eff is not None:
        sums.append((ad.sum_all(ad.mul(ad.constant(a_d), a_eff)), w.lambda1))
        sums.append((ad.sum_all(ad.mul(a_eff, a_eff)), w.lambda2))
    if p is not None:
        sums.append((ad.sum_all(ad.mul(p, p)), w.lambda3))
    return functools.reduce(ad.add, [ad.scale(total, lam) for total, lam in sums])

