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

import contextvars
import os
import threading

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


# First-layer multiply-adds, h.size * (eta1 + eta2), from which an
# inception layer runs its convolution branches on a worker thread. On 2
# CPUs with 1 BLAS thread, a facial-scale layer-0 sample (2.35 M) ran 4-11%
# slower there and two samples (4.7 M) 4-6% faster; gen-scale layers (at
# most 0.3 M) ran 60-90% slower, so they stay on the calling thread.
THREAD_WORK = 1 << 22
_worker = None
_worker_lock = threading.Lock()


def _pool():
    """The one worker thread's executor, started on the first offloaded call."""
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(1, thread_name_prefix="lgrin-conv")
    return _worker


def _conv_branches(a: Tensor, h: Tensor, branches: tuple[Branch, Branch],
                   margins: list[float] | None):
    """``A @ H`` and both two-layer convolution branches on it, in numpy only.

    Returns the branches' outputs side by side, (M, ..., eta1 + eta2), and
    the closed-form backward over (a, h, *branch1, *branch2). Both use the
    expressions of ``ad.propagate`` and four ``ad.relu_affine`` nodes, and
    the gradient of ``A @ H`` is the sum of the two branches' terms, so
    every bit is theirs. Nothing here reads the tape or calls a public
    lgrin function, so the worker thread may run it; a ``margins`` list
    collects the four ReLU margins in tape order.
    """
    ah, propagate_back = ad._propagate(a.values, h.values)
    x = ah.reshape(-1, ah.shape[-1])
    e1 = branches[0][2].shape[1]
    cols = (slice(None, e1), slice(e1, None))
    out = np.empty((x.shape[0], e1 + branches[1][2].shape[1]))
    hidden, positive = [], []  # per branch: first layer's output, second's ReLU mask
    for (w1, b1, w2, b2), col in zip(branches, cols):
        hidden.append(ad._affine(x, w1.values, b1.values, True, margins))
        out[:, col] = c = ad._affine(hidden[-1], w2.values, b2.values, True, margins)
        positive.append(c > 0.0)
    need_ah = a.requires_grad or h.requires_grad

    def branch_back(g: np.ndarray, positive: np.ndarray, z: np.ndarray, w1: Tensor,
                    b1: Tensor, w2: Tensor):
        """One branch's (w1, b1, w2, b2) gradients, and its term of the
        gradient of ``A @ H`` or None."""
        need_z = need_ah or w1.requires_grad or b1.requires_grad
        gz, gz_in, gw2 = ad._affine_back(g, positive, z, w2.values, need_z)
        if not need_z:
            return [None, None, gw2, gz.sum(axis=0)], None
        gz1, gx, gw1 = ad._affine_back(gz_in, z > 0.0, x, w1.values, need_ah)
        return [gw1, gz1.sum(axis=0), gw2, gz.sum(axis=0)], gx

    def back(g: np.ndarray):
        g2 = g.reshape(out.shape)
        grads, g_ah = [], None
        for (w1, b1, w2, _), z, pos, col in zip(branches, hidden, positive, cols):
            branch_grads, gx = branch_back(g2[:, col], pos, z, w1, b1, w2)
            grads += branch_grads
            if gx is not None:  # the first term is made here, so it takes the second in place
                g_ah = gx if g_ah is None else np.add(g_ah, gx, out=g_ah)
        del gx  # before the backward of A @ H allocates the gradient of H
        ga_gh = (propagate_back(g_ah.reshape(ah.shape), a.requires_grad, h.requires_grad)
                 if need_ah else (None, None))
        return (*ga_gh, *grads)

    return out.reshape(ah.shape[:-1] + (out.shape[1],)), back


def inception_layer(h: Tensor, a_eff: Tensor, branch1: Branch, branch2: Branch,
                    mask: np.ndarray, spanned_tail: int = 0) -> Tensor:
    """Concat of both convolution branches and the 1-hop neighborhood max.

    The max branch passes input features through unchanged widths, so the
    output is (M, ..., eta1 + eta2 + F_in) regardless of stacking depth.

    ``A @ H`` and both two-weight-layer convolution branches on it are one
    tape node, recorded after the max branch's nodes. When its first-layer
    GEMMs hold at least ``THREAD_WORK`` multiply-adds
    (``h.size * (eta1 + eta2)``) and the process may run on two CPUs or
    more, that node's forward runs on one worker thread, in a copy of the
    caller's context (so ``np.errstate`` holds there), while this thread
    runs the max branch: numpy's BLAS calls release the GIL, and the max
    branch's node loop holds it between numpy calls. An exception on the
    worker is raised here. Both paths compute the same arrays and record
    the same tape, so no bit depends on which one ran.

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
    branches = (branch1, branch2)
    margins = [] if ad._tracking_tape() is not None else None
    job = None
    if (h.values.size * (branch1[0].shape[1] + branch2[0].shape[1]) >= THREAD_WORK
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1):
        job = _pool().submit(contextvars.copy_context().run, _conv_branches,
                             a_eff, h, branches, margins)
    if not spanned_tail:
        parts = [ad.neighborhood_max(h, mask)]
    else:
        lead = h.shape[-1] - spanned_tail
        parts = [ad.neighborhood_max(ad.leading_features(h, lead), mask)] if lead else []
        tail = h.values[..., lead:].max(axis=0)
        parts.append(ad.constant(np.broadcast_to(tail, h.shape[:-1] + (spanned_tail,))))
    out, back = (job.result() if job is not None
                 else _conv_branches(a_eff, h, branches, margins))
    ad._track_relu_margins(margins)
    convs = ad._emit((a_eff, h, *branch1, *branch2), out, back)
    return ad.concat_features([convs, *parts])


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
