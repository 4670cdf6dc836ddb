"""Construction and transforms of the shared M x M graph adjacency.

Three regimes are supported: a learnable adjacency (an unconstrained raw
parameter that is symmetrized and rectified on every forward pass), a fixed
binary chain where each node connects to its temporal neighbors, and a
fixed weighted matrix of squared distances between node attributes. The
module also provides the degree renormalization used by the plain-GCN
baseline and the quadratic temporal-distance structure matrix used by the
graph learning loss.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, LgrinError, ShapeError


def effective_adjacency(raw: Tensor) -> Tensor:
    """ReLU of the symmetrized raw parameter, ``relu((raw + raw.T) / 2)``,
    as one tape node.

    Symmetry is enforced by averaging raw with its transpose before
    rectifying, so the result is symmetric and non-negative for any square
    raw matrix while staying differentiable almost everywhere. On a
    kink-tracking tape the smallest ``|(raw + raw.T) / 2|`` is recorded as
    the ReLU margin. The backward gives raw ``g05 + g05.T``, where ``g05``
    is half the upstream gradient at the entries that stayed positive.
    """
    rv = raw.values
    if rv.ndim != 2 or rv.shape[0] != rv.shape[1]:
        raise ShapeError(f"raw adjacency must be square, got shape {rv.shape}")
    pre = (rv + rv.T) * 0.5
    ad._track_relu_margin(pre)
    pos = pre > 0.0

    def back(g: np.ndarray):
        g05 = (g * pos) * 0.5
        return (g05 + g05.T,)

    return ad._emit((raw,), np.where(pos, pre, 0.0), back)


def fixed_adjacency(kind: str, m: int, features: Tensor | None = None) -> Tensor:
    """Constant adjacency: 'binary' chain or 'weighted' squared-distance.

    binary:   entry (i, j) = 1 iff |i - j| = 1
    weighted: entry (i, j) = ||n_i - n_j||^2 over the given node features;
              (M, P) features give one (M, M) matrix, an (M, B, P) batch a
              (B, M, M) stack with one matrix per sample
    """
    if kind == "binary":
        idx = np.arange(m)
        values = (np.abs(idx[:, None] - idx[None, :]) == 1).astype(np.float64)
        return ad.constant(values)
    if kind == "weighted":
        if features is None:
            raise ConfigError("weighted adjacency requires node features")
        n = features.values
        if n.shape[0] != m:
            raise ConfigError(
                f"feature rows {n.shape[0]} do not match node count {m}")
        per_sample = n.reshape(m, -1, n.shape[-1]).transpose(1, 0, 2)
        dists = [np.einsum("ijk,ijk->ij", d, d)
                 for d in (x[:, None, :] - x[None, :, :] for x in per_sample)]
        return ad.constant(np.stack(dists).reshape(n.shape[1:-1] + (m, m)))
    raise ConfigError(f"unknown fixed adjacency kind {kind!r}")


def renormalized_adjacency(a: Tensor) -> Tensor:
    """Degree-normalized adjacency with self-loops, as a constant.

    Adds the identity, takes D as the diagonal degree matrix of the result,
    and returns D^(-1/2) (A + I) D^(-1/2). Requires a non-negative A.
    """
    av = a.values
    if np.any(av < 0):
        raise ContractError("renormalized_adjacency requires non-negative entries")
    with_self = av + np.eye(av.shape[0])
    deg = with_self.sum(axis=1)
    if np.any(deg <= 0):
        raise LgrinError("zero degree after adding self-loops")
    inv_sqrt = 1.0 / np.sqrt(deg)
    return ad.constant(inv_sqrt[:, None] * with_self * inv_sqrt[None, :])


@functools.lru_cache(maxsize=None)
def structure_matrix(m: int) -> np.ndarray:
    """Entry (i, j) = (i - j)^2 (0-based), built once per m and read-only.

    The graph loss asks for it on every training step; reusing one
    read-only array keeps those steps from allocating a fresh M x M
    matrix each time.
    """
    if m < 1:
        raise ConfigError(f"node count must be positive, got {m}")
    idx = np.arange(m, dtype=np.float64)
    values = (idx[:, None] - idx[None, :]) ** 2
    values.flags.writeable = False
    return values


def neighbor_mask(a_eff: Tensor, threshold: float = 0.0) -> np.ndarray:
    """Boolean 1-hop mask: weight above threshold, self always included.

    Works on one (M, M) adjacency or a (B, M, M) stack of them.
    """
    mask = a_eff.values > threshold
    diag = np.arange(mask.shape[-1])
    mask[..., diag, diag] = True
    return mask
