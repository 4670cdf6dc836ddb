"""Reference forward pass: one graph per sample, as the model ran before
minibatches became a single (M, B, F) tape.

Each sample is its own (M, F) graph. Every inception branch propagates
``A_eff @ H`` itself, a branch layer is separate matmul, add and relu
nodes, the graph vector is a 1-D vector concatenated from its readouts,
the head is a vector-matrix product plus a bias, and the batch loss is a
left fold of per-sample cross entropies. The ops whose batched or fused
versions replaced them are copied here; the adjacency transform and the
graph loss come from the package. ``objective`` records on the active
tape, so its gradients can be compared with the batched objective's.
"""

import math

import numpy as np

from lgrin import adjacency as adjmod
from lgrin import autodiff as ad
from lgrin import layers as L
from lgrin import model as mm
from lgrin.objective import graph_learning_loss


def matmul(a, b):
    av, bv = a.values, b.values
    return ad._emit((a, b), av @ bv, lambda g: (g @ bv.T, av.T @ g))


def add(a, b):
    """Same-shaped operands, or a matrix plus a row vector (a bias)."""
    av, bv = a.values, b.values
    if av.shape == bv.shape:
        return ad._emit((a, b), av + bv, lambda g: (g, g))
    return ad._emit((a, b), av + bv, lambda g: (g, g.sum(axis=0)))


def relu(x):
    pos = x.values > 0.0
    return ad._emit((x,), np.where(pos, x.values, 0.0), lambda g: (g * pos,))


def vecmat(v, m):
    vv, mv = v.values, m.values
    return ad._emit((v, m), vv @ mv, lambda g: (mv @ g, np.outer(vv, g)))


def concat(parts, axis):
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
    return ad._emit(tuple(parts), np.concatenate([p.values for p in parts], axis=axis),
                    lambda g: np.split(g, splits, axis=axis))


def neighborhood_max(h, mask):
    """Per-node argmax over each 1-hop neighborhood, first index on ties."""
    hv = h.values
    m, f = hv.shape
    out = np.empty_like(hv)
    arg = np.empty((m, f), dtype=np.intp)
    cols = np.arange(f)
    for i in range(m):
        rows = np.flatnonzero(mask[i])
        sub = hv[rows]
        k = sub.argmax(axis=0)
        out[i] = sub[k, cols]
        arg[i] = rows[k]

    def back(g):
        gh = np.zeros_like(hv)
        for i in range(m):
            gh[arg[i], cols] += g[i]
        return (gh,)

    return ad._emit((h,), out, back)


def readout(h, mode):
    hv = h.values
    m, f = hv.shape
    if mode == "mean":
        return ad._emit((h,), hv.mean(axis=0), lambda g: (np.tile(g / m, (m, 1)),))
    idx, cols = hv.argmax(axis=0), np.arange(f)

    def back(g):
        gh = np.zeros_like(hv)
        gh[idx, cols] = g
        return (gh,)

    return ad._emit((h,), hv[idx, cols], back)


def weighted_readout(h, p):
    hv, pv = h.values, p.values
    return ad._emit((h, p), hv.T @ pv, lambda g: (np.outer(pv, g), hv @ g))


def cross_entropy(logits, label):
    lv = logits.values
    top = lv.max()
    exps = np.exp(lv - top)
    z = exps.sum()
    softmax = exps / z

    def back(g):
        gl = softmax * float(g)
        gl[label] -= float(g)
        return (gl,)

    return ad._emit((logits,), np.asarray(math.log(z) + top - lv[label]), back)


def gstar_conv(h, a_eff, branch):
    w1, b1, w2, b2 = branch
    hidden = relu(add(matmul(matmul(a_eff, h), w1), b1))
    return relu(add(matmul(hidden, w2), b2))


def forward_one(model, features, a_eff, mask):
    """Logits (C,) for one (M, P) sample."""
    reg = model.registry
    h = ad.constant(features)
    if model.config.arch == "baseline_gcn":
        for key in ("gcn.w0", "gcn.w1"):
            h = relu(matmul(matmul(a_eff, h), reg[key]))
        pooled = concat([readout(h, "max"), readout(h, "mean")], 0)
    else:
        if a_eff is None:  # weighted adjacency is a function of this sample
            a_eff = adjmod.fixed_adjacency("weighted", model.config.m, h)
            mask = adjmod.neighbor_mask(a_eff, model.config.mask_threshold)
        for k in range(model.config.inception_layers):
            b1, b2 = [tuple(reg[f"layer{k}.branch{b}.{n}"] for n in L.BRANCH_KEYS)
                      for b in (1, 2)]
            h = concat([gstar_conv(h, a_eff, b1), gstar_conv(h, a_eff, b2),
                        neighborhood_max(h, mask)], 1)
        mode = model.config.pooling_mode
        if mode == "learnable_full":
            pooled = concat([readout(h, "max"), weighted_readout(h, reg["pooling.p"]),
                             readout(h, "mean")], 0)
        else:
            pooled = readout(h, mode)
    return add(vecmat(pooled, reg["head.w"]), reg["head.b"])


def objective(model, samples, weights):
    """(total loss, per-sample logits) with the adjacency recorded once."""
    a_eff = mm.shared_effective_adjacency(model)
    mask = None
    if model.config.arch == "lgrin" and a_eff is not None:
        mask = adjmod.neighbor_mask(a_eff, model.config.mask_threshold)
    logits = [forward_one(model, s.features, a_eff, mask) for s in samples]
    loss = cross_entropy(logits[0], samples[0].label)
    for lg, s in zip(logits[1:], samples[1:]):
        loss = ad.add(loss, cross_entropy(lg, s.label))
    # the graph term of the batched objective: none for the baseline, and
    # only the terms of a shared adjacency and of a learnable pooling vector
    p = model.registry.get("pooling.p")
    if model.config.arch == "lgrin" and (a_eff is not None or p is not None):
        loss = ad.add(loss, graph_learning_loss(
            a_eff, adjmod.structure_matrix(model.config.m), p, weights))
    return loss, logits
