"""The graph learning loss and its weights.

The joint training objective (``model.loss``) adds this term to the summed
cross entropy of a minibatch. It regularizes the learned structure: a
temporal-locality penalty that charges each edge by the squared index
distance of its endpoints, a Frobenius penalty shrinking overall edge mass,
and an L2 penalty on the pooling weights.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, ShapeError, check_int_fields


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
    """lambda1 * sum(A_d o A) + lambda2 * ||A||_F^2 + lambda3 * ||p||_2^2,
    as one tape node.

    A None adjacency or pooling vector leaves its terms out; at least one
    of the two must be given. The terms are added left to right, and the
    backward gives ``A`` the closed form ``2 * lambda2 * A + lambda1 * A_d``
    and ``p`` the closed form ``2 * lambda3 * p``, each doubled term formed
    as a sum of two equal halves.
    """
    m = a_d.shape[0]
    if a_eff is None and p is None:
        raise ContractError("graph learning loss needs an adjacency or a pooling vector")
    if a_eff is not None and a_eff.shape != (m, m):
        raise ShapeError(f"adjacency {a_eff.shape} vs structure {a_d.shape}")
    if p is not None and p.shape != (m,):
        raise ShapeError(f"pooling vector {p.shape} does not match M={m}")
    lam1, lam2, lam3 = map(float, (w.lambda1, w.lambda2, w.lambda3))
    inputs, terms = [], []
    if a_eff is not None:
        av = a_eff.values
        inputs.append(a_eff)
        terms += [(a_d * av).sum() * lam1, (av * av).sum() * lam2]
    if p is not None:
        pv = p.values
        inputs.append(p)
        terms.append((pv * pv).sum() * lam3)

    def back(g: np.ndarray):
        g = float(g)
        grads = []
        if a_eff is not None:
            half = (g * lam2) * av
            grads.append((half + half) + (g * lam1) * a_d)
        if p is not None:
            half = (g * lam3) * pv
            grads.append(half + half)
        return grads

    return ad._emit(tuple(inputs), np.asarray(functools.reduce(operator.add, terms)), back)
