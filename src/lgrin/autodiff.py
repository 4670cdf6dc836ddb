"""Dense reverse-mode automatic differentiation on 64-bit numpy arrays.

The engine is define-by-run: a ``GradTape`` is opened as a context manager,
every operation executed inside it appends one node (in execution order,
which is therefore already topological), and ``backward`` replays the nodes
in reverse to accumulate gradients into the leaves the loss reached. A
tensor is only its values and a ``requires_grad`` flag: the tape points at
the tensors its nodes read and wrote, never the other way round, so a tape
is freed as soon as its caller drops it. Tapes are rebuilt on every forward
pass and are confined to a single thread.

Only the operations the model needs are provided. Activations are laid
out (M, B, F): nodes on axis 0, one minibatch of samples on axis 1, and
features on the last axis, so one forward graph serves a whole minibatch.
The graph ops (propagation, neighborhood max, readouts) act on axis 0 and
the dense ops (``relu_affine``, ``concat_features``) on the last axis, so a
single (M, F) sample goes through the same ops. The two closed-form
stages on the (M, M) adjacency, its symmetrize-and-rectify transform and
the graph-learning loss, are one op each in ``adjacency`` and
``objective``, recorded through ``_emit``. There is no broadcasting, and
there are no higher-order derivatives. All values are float64 so that
gradients can be checked against central finite differences at tight
tolerances.
"""

from __future__ import annotations

import ctypes
import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

_local = threading.local()

# glibc's mallopt parameters, from <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_heap_pages() -> None:
    """Pin glibc's mmap threshold at 32 MiB, its trim threshold at 64 MiB
    and its arena count at one.

    Every training step frees and then allocates again arrays of the same
    sizes. Left dynamic, glibc raises the mmap threshold only to the size
    of the largest block freed, so the next block of exactly that size is
    again a fresh ``mmap``, and it trims the heap top whenever more than
    twice the threshold is free. Either way each step's pages go back to
    the kernel and fault in again. 32 MiB is glibc's own ceiling for the
    dynamic threshold on 64-bit and 64 MiB keeps its 2x trim ratio; up to
    that much freed heap stays resident. The one arena keeps the thread
    that ``layers.inception_layer`` may start from holding a second heap
    of its own. No arithmetic changes. Without glibc (no ``mallopt``
    symbol) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_heap_pages()


def _tape_stack() -> list["GradTape"]:
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


def active_tape() -> "GradTape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """Dense float64 array; ``requires_grad`` marks leaf parameters and
    everything computed from them. Finished tensors are immutable by
    convention and safe to share read-only.

    ``const_tail`` counts the trailing last-axis columns that depend on no
    tensor requiring grad, so a gradient sent into them reaches nothing.
    Only ``concat_features`` and ``neighborhood_max`` set it; every other
    op leaves 0, so the count can only err towards routing more.
    """

    __slots__ = ("values", "requires_grad", "const_tail")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.const_tail = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(values) -> Tensor:
    """A learnable leaf tensor (owns its values across training steps)."""
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def constant(values) -> Tensor:
    """A non-learnable tensor; never receives gradient."""
    return Tensor(values, requires_grad=False)


class _Node:
    __slots__ = ("output", "inputs", "backward")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...],
                 backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.output = output
        self.inputs = inputs
        self.backward = backward


class GradTape:
    """Ordered record of executed operations.

    Append order is a topological order of the computation graph: every
    node's inputs were produced by earlier nodes or are leaves. With
    ``track_kinks`` the tape also records how close any ReLU or max
    operation came to a kink, which the finite-difference gradient checker
    uses to reject invalid points; training tapes leave it off.
    """

    def __init__(self, track_kinks: bool = False):
        self.nodes: list[_Node] = []
        self.track_kinks = track_kinks
        self.relu_margin = math.inf
        self.max_margin = math.inf

    def __enter__(self) -> "GradTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _tape_stack().pop()
        if popped is not self:
            raise ContractError("GradTape contexts closed out of order")

    def record(self, inputs: tuple[Tensor, ...], out_values: np.ndarray,
               backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
        out = Tensor(out_values, requires_grad=any(t.requires_grad for t in inputs))
        self.nodes.append(_Node(out, inputs, backward))
        return out

    def kink_margin(self) -> float:
        """Smallest distance to a ReLU zero-crossing or max tie seen so far."""
        return min(self.relu_margin, self.max_margin)


def _emit(inputs: tuple[Tensor, ...], out_values: np.ndarray,
          backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    tape = active_tape()
    if tape is None:
        return Tensor(out_values, requires_grad=any(t.requires_grad for t in inputs))
    return tape.record(inputs, out_values, backward)


def backward(loss: Tensor, tape: GradTape) -> dict[Tensor, np.ndarray]:
    """Reverse-mode gradients of a scalar loss, keyed by the leaves it reached.

    Each produced tensor's gradient is popped when its node runs, so what
    remains are the leaves; a leaf the loss does not reach is absent.
    Accumulation order is the reverse of execution order, so repeated runs
    are bit-identical.
    """
    if loss.values.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")

    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.values)}
    summed: set[Tensor] = set()  # tensors whose gradient is a sum made here
    for node in reversed(tape.nodes):
        g = grads.pop(node.output, None)
        if g is None:
            continue
        summed.discard(node.output)
        for t, gin in zip(node.inputs, node.backward(g)):
            if gin is None or not t.requires_grad:
                continue
            acc = grads.get(t)
            if acc is None:
                grads[t] = gin
            elif t in summed:
                acc += gin
            else:
                # backward outputs may alias each other (add returns the
                # upstream array for both operands), so only a sum made
                # here is updated in place
                grads[t] = acc + gin
                summed.add(t)
    return grads


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def propagate(a: Tensor, h: Tensor) -> Tensor:
    """Graph propagation ``A @ H`` over the node axis (axis 0) of ``h``.

    A shared (M, M) adjacency is one 2-D GEMM on ``h`` viewed as
    (M, B*F); a (B, M, M) stack holds one adjacency per sample of an
    (M, B, F) batch. The backward skips the gradient of an input that does
    not require one.
    """
    out, back = _propagate(a.values, h.values)
    return _emit((a, h), out, lambda g: back(g, a.requires_grad, h.requires_grad))


def _propagate(av: np.ndarray, hv: np.ndarray):
    """``propagate`` on arrays: ``A @ H`` and its backward
    ``back(g, need_a, need_h)``, which gives (gradient of A or None,
    gradient of H or None). It reads no tape, so any thread may run it."""
    m = hv.shape[0]
    if av.shape == (m, m):
        h2 = hv.reshape(m, -1)
        out = (av @ h2).reshape(hv.shape)

        def back(g: np.ndarray, need_a: bool, need_h: bool):
            g2 = g.reshape(m, -1)
            return (g2 @ h2.T if need_a else None,
                    (av.T @ g2).reshape(hv.shape) if need_h else None)
    elif av.ndim == 3 and hv.ndim == 3 and av.shape == (hv.shape[1], m, m):
        # one (M, M) @ (M, F) product per sample
        hb = hv.transpose(1, 0, 2)
        out = np.ascontiguousarray((av @ hb).transpose(1, 0, 2))

        def back(g: np.ndarray, need_a: bool, need_h: bool):
            gb = g.transpose(1, 0, 2)
            return (gb @ hb.transpose(0, 2, 1) if need_a else None,
                    np.ascontiguousarray((av.transpose(0, 2, 1) @ gb).transpose(1, 0, 2))
                    if need_h else None)
    else:
        raise ShapeError(f"propagate shapes do not match: adjacency {av.shape}, "
                         f"features {hv.shape}")
    return out, back


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shaped tensors; both operands receive the
    upstream array itself."""
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise ShapeError(f"add shapes differ: {av.shape} + {bv.shape}")

    def back(g: np.ndarray):
        return g, g

    return _emit((a, b), av + bv, back)


def _track_relu_margin(pre: np.ndarray) -> None:
    """On a kink-tracking tape, note how close ``pre`` came to ReLU's kink."""
    if _tracking_tape() is not None and pre.size:
        _track_relu_margins([float(np.min(np.abs(pre)))])


def _track_relu_margins(margins: Sequence[float] | None) -> None:
    """On a kink-tracking tape, fold in ``margins`` (distances to ReLU's
    kink that ``_affine`` collected), in order."""
    tracker = _tracking_tape() if margins else None
    if tracker is not None:
        for margin in margins:
            tracker.relu_margin = min(tracker.relu_margin, margin)


def _affine(x2: np.ndarray, w: np.ndarray, b: np.ndarray | None, relu: bool,
            margins: list[float] | None = None) -> np.ndarray:
    """``x2 @ w + b`` for a 2-D ``x2``, rectified in place when ``relu``
    (NaN and -0.0 become 0.0); a ``margins`` list first gets the smallest
    ``|x2 @ w + b|``. It reads no tape, so any thread may run it."""
    out = x2 @ w
    if b is not None:
        out += b
    if relu:
        if margins is not None and out.size:
            margins.append(float(np.min(np.abs(out))))
        np.fmax(out, 0.0, out=out)  # NaN -> 0.0
        out += 0.0  # -0.0 -> 0.0
    return out


def _affine_back(gz: np.ndarray, positive: np.ndarray | None, x2: np.ndarray, w: np.ndarray,
                 need_x: bool) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Backward of ``_affine`` for the 2-D upstream ``gz``: (gradient of the
    pre-activation, of ``x2`` or None unless ``need_x``, of ``w``).
    ``positive`` is the ReLU mask ``out > 0``, None without the ReLU; the
    bias gradient is the first one summed over rows."""
    if positive is not None:
        gz = gz * positive
    return gz, gz @ w.T if need_x else None, x2.T @ gz


def relu_affine(x: Tensor, w: Tensor, b: Tensor | None = None,
                relu: bool = True) -> Tensor:
    """``ReLU(x @ w + b)`` over the last axis of ``x``, as one tape node.

    ``x`` is (..., F) and ``w`` is (F, N); every leading row goes through
    one 2-D GEMM. Only the output is kept: the pre-activation is rectified
    in place, and the backward takes ``out > 0`` as the ReLU mask, which
    selects the same cells as ``x @ w + b > 0`` (NaN and 0 both rectify to
    0 and route no gradient). On a kink-tracking tape the smallest
    ``|x @ w + b|`` is recorded as the ReLU margin. ``b`` is optional.
    With ``relu=False`` the op is the affine map ``x @ w + b`` alone (the
    model's linear head): nothing is clamped and no margin is recorded.
    """
    xv, wv = x.values, w.values
    if xv.ndim < 1 or wv.ndim != 2 or wv.shape[0] != xv.shape[-1]:
        raise ShapeError(f"relu_affine shapes do not chain: {xv.shape} x {wv.shape}")
    f, n = wv.shape
    if b is not None and b.shape != (n,):
        raise ShapeError(f"relu_affine bias {b.shape} does not match width {n}")
    x2 = xv.reshape(-1, f)
    margins = [] if relu and _tracking_tape() is not None else None
    out = _affine(x2, wv, None if b is None else b.values, relu, margins)
    _track_relu_margins(margins)

    def back(g: np.ndarray):
        gz, gx, gw = _affine_back(g.reshape(-1, n), out > 0.0 if relu else None, x2, wv,
                                  x.requires_grad)
        grads = (None if gx is None else gx.reshape(xv.shape), gw)
        return grads if b is None else grads + (gz.sum(axis=0),)

    inputs = (x, w) if b is None else (x, w, b)
    return _emit(inputs, out.reshape(xv.shape[:-1] + (n,)), back)


def concat_features(parts: Sequence[Tensor]) -> Tensor:
    """Concatenation along the last (feature) axis of same-rank tensors
    whose other axes agree: (M, B, F_k) parts, or 1-D vectors.

    The output's ``const_tail`` is the width of the trailing parts that do
    not require grad plus the ``const_tail`` of the last part that does.
    """
    if not parts:
        raise ShapeError("concat_features needs at least one part")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.values.ndim < 1 or p.shape[:-1] != lead:
            raise ShapeError(
                f"concat_features shape mismatch: {[q.shape for q in parts]}")
    widths = [p.shape[-1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def back(g: np.ndarray):
        return np.split(g, splits, axis=-1)

    out = _emit(tuple(parts), np.concatenate([p.values for p in parts], axis=-1), back)
    for p in reversed(parts):
        if p.requires_grad:
            out.const_tail += p.const_tail
            break
        out.const_tail += p.shape[-1]
    return out


def leading_features(h: Tensor, width: int) -> Tensor:
    """The first ``width`` columns of the last axis of ``h``, as a view.

    Nothing is copied forward; the backward pads the gradient with zeros
    over the dropped columns.
    """
    hv = h.values
    if not 0 < width <= hv.shape[-1]:
        raise ShapeError(f"cannot take {width} leading columns of shape {hv.shape}")

    def back(g: np.ndarray):
        gh = np.zeros(hv.shape)
        gh[..., :width] = g
        return (gh,)

    return _emit((h,), hv[..., :width], back)


def _tracking_tape() -> "GradTape | None":
    tape = active_tape()
    return tape if tape is not None and tape.track_kinks else None


def _distinct_top_gap(mat: np.ndarray) -> float:
    """Gap between the max over axis 0 and the largest strictly smaller value,
    minimized over the remaining axes.

    Exact duplicates of the max are copies of one source (overlapping
    neighborhoods, clamped zeros) that move together under perturbation,
    so they do not count as a kink; only the distance to the nearest
    distinct competitor does. Columns with a single distinct value give no
    constraint (inf).
    """
    top = mat.max(axis=0)
    below = np.where(mat < top, mat, -np.inf)
    second = below.max(axis=0)
    finite = second > -np.inf
    if not finite.any():
        return math.inf
    return float((top[finite] - second[finite]).min())


def _track_max_margin(mat: np.ndarray) -> None:
    """On a kink-tracking tape, note how close a max over axis 0 came to a tie."""
    tracker = _tracking_tape()
    if tracker is not None and mat.shape[0] > 1:
        tracker.max_margin = min(tracker.max_margin, _distinct_top_gap(mat))


# Samples per block: a block of whole samples holds about BLOCK_CELLS
# float64 cells (512 KB) when a sample is smaller than that, so each node's
# gather reads a block that stays in a 2 MB per-core L2 cache.
BLOCK_CELLS = 1 << 16


def neighborhood_max(h: Tensor, neighbor_mask: np.ndarray) -> Tensor:
    """Node i of the output is the max of h over i's neighborhood, per cell.

    ``h`` is (M, ..., F) with the nodes on axis 0: one (M, F) sample or an
    (M, B, F) batch. ``neighbor_mask`` is a boolean (M, M) array shared by
    every sample, or for an (M, B, F) batch a (B, M, M) stack with one mask
    per sample; every node must select at least one neighbor. Each mask
    covers a group of samples (the shared mask the whole batch, a
    per-sample mask its own sample), walked in blocks of
    ``max(1, BLOCK_CELLS // (M*F))`` whole samples. Each block is made
    contiguous once, and every node's gather ``block[rows]`` and its max
    run on the block's (M, samples*F) view. ``h`` must hold no -0.0 or NaN
    (the model's features are finite with -0.0 read as 0.0, and every later
    input is rectified or copies them), so tied entries have equal bits and
    the output is a plain max.

    The gradient routes per cell to the lowest neighbor equal to the max.
    That index is found only when a gradient will be routed (``h`` requires
    grad on an active tape), and only in each sample's leading
    ``F - h.const_tail`` columns: the trailing ``const_tail`` columns depend
    on no parameter, so their gradient would be dropped. The output copies
    ``h.const_tail``, since column j of the output reads only column j of
    ``h``. Ranks ``M - node`` are kept in ``np.min_scalar_type(M)`` (uint8
    up to M=255). A kink-tracking tape reads the tie margin of every column.
    """
    hv = h.values
    m = hv.shape[0]
    mask = np.asarray(neighbor_mask, dtype=bool)
    if not (mask.shape == (m, m) or (hv.ndim == 3 and mask.shape == (hv.shape[1], m, m))):
        raise ShapeError(f"mask shape {mask.shape} does not match features {hv.shape}")
    counts = mask.sum(axis=-1)
    empty = np.nonzero(counts == 0)[-1]
    if empty.size:
        raise ContractError(f"empty neighborhood for node {empty[0]}")
    tape = active_tape()
    tracking = tape is not None and tape.track_kinks
    routed = tape is not None and h.requires_grad
    # (M, group, sample, F): the samples of group g share masks[g]
    masks = mask.reshape(-1, m, m)
    f = hv.shape[-1] if hv.ndim > 1 else 1
    samples = math.prod(hv.shape[1:-1])
    per_group = samples // len(masks)
    h4 = hv.reshape(m, len(masks), per_group, f)
    out = np.empty(hv.shape)
    out4 = out.reshape(h4.shape)
    # per routed output cell, the node of the input cell it copies
    r = f - h.const_tail
    rank_type = np.min_scalar_type(m)
    if routed:
        source = np.empty((m, samples, r), dtype=rank_type)
        source4 = source.reshape(m, len(masks), per_group, r)
    # every (group, node)'s neighbor rows, in mask order, and their ranks
    # m - node, largest at the lowest node
    ends = np.cumsum(counts.ravel()).tolist()
    nodes = np.nonzero(masks)[-1]
    ranks = (m - nodes).astype(rank_type)[:, None, None]
    neighbors = [(nodes[a:b], ranks[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    step = max(1, BLOCK_CELLS // max(1, m * f))
    for g in range(len(masks)):
        for s0 in range(0, per_group, step):
            block = np.ascontiguousarray(h4[:, g, s0:s0 + step])
            n = block.shape[1]
            flat = block.reshape(m, n * f)
            out_block = out4[:, g, s0:s0 + n].reshape(m, n * f)
            if routed:
                source_block = source4[:, g, s0:s0 + n]
            for i in range(m):
                rows, rank = neighbors[g * m + i]
                sub = flat[rows]
                out_block[i] = top = sub.max(axis=0)
                if routed:
                    # the lowest neighbor equal to the max has the largest rank
                    lead = sub.reshape(rows.size, n, f)[..., :r]
                    source_block[i] = m - ((lead == top.reshape(n, f)[:, :r]) * rank).max(axis=0)
                if tracking:
                    _track_max_margin(sub)

    def back(g: np.ndarray):
        if not routed:  # still one tape node per op; h gets no gradient
            return (None,)
        # bincount adds each input cell's terms in output-node order, as
        # the per-node reference in tests/test_properties.py does; the
        # constant tail columns get 0.0
        cells = np.multiply(source.reshape(m, samples * r), samples * f, dtype=np.intp)
        cells += (np.arange(samples)[:, None] * f + np.arange(r)).ravel()
        weights = g.reshape(m, samples, f)[..., :r]
        gh = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=hv.size)
        return (gh.reshape(hv.shape),)

    result = _emit((h,), out, back)
    result.const_tail = h.const_tail
    return result


def readout(h: Tensor, mode: str) -> Tensor:
    """Max or mean over the node axis (axis 0): (M, ..., F) to (..., F).

    The max takes its argmax only when a gradient will be routed (``h``
    requires grad on an active tape); otherwise it is ``max(axis=0)``, the
    same bits, since ``h`` holds no NaN or -0.0 (as in
    ``neighborhood_max``). A kink-tracking tape reads the tie margin either
    way.
    """
    hv = h.values
    if hv.ndim < 2:
        raise ShapeError(f"readout needs nodes and features, got shape {h.shape}")
    m = hv.shape[0]
    if mode == "mean":
        def back(g: np.ndarray):
            return (np.broadcast_to(g / m, hv.shape),)

        return _emit((h,), hv.mean(axis=0), back)
    if mode == "max":
        _track_max_margin(hv)
        if active_tape() is None or not h.requires_grad:
            return _emit((h,), hv.max(axis=0), lambda g: (None,))
        idx = hv.argmax(axis=0)[None]

        def back(g: np.ndarray):
            gh = np.zeros_like(hv)
            np.put_along_axis(gh, idx, g[None], axis=0)
            return (gh,)

        return _emit((h,), np.take_along_axis(hv, idx, axis=0)[0], back)
    raise ContractError(f"unknown readout mode {mode!r}")


def weighted_readout(h: Tensor, p: Tensor) -> Tensor:
    """Node-weighted sum of embeddings, sum_i p[i] * h[i]: (M, ..., F) to (..., F)."""
    hv, pv = h.values, p.values
    if pv.ndim != 1 or hv.ndim < 2 or pv.shape[0] != hv.shape[0]:
        raise ShapeError(f"weighted_readout shapes: h {hv.shape}, p {pv.shape}")
    h2 = hv.reshape(pv.shape[0], -1)

    def back(g: np.ndarray):
        return np.multiply.outer(pv, g), h2 @ g.ravel()

    return _emit((h, p), (pv @ h2).reshape(hv.shape[1:]), back)


def cross_entropy_logits(logits: Tensor, labels) -> Tensor:
    """Summed negative log-softmax of the true classes, with max-subtraction.

    ``logits`` is (B, C) with one integer label per row, or a single (C,)
    vector with one integer label.
    """
    lv = logits.values
    if lv.ndim not in (1, 2):
        raise ShapeError(f"logits must be (C,) or (B, C), got shape {logits.shape}")
    c = lv.shape[-1]
    y = np.asarray(labels)
    if y.shape != lv.shape[:-1] or not np.issubdtype(y.dtype, np.integer):
        raise ShapeError(f"labels of shape {y.shape} for logits {lv.shape}")
    y = y.reshape(-1)
    bad = y[(y < 0) | (y >= c)]
    if bad.size:
        raise IndexError(f"label {bad[0]} out of range for {c} classes")
    l2 = lv.reshape(-1, c)
    rows = np.arange(l2.shape[0])
    top = l2.max(axis=1, keepdims=True)
    exps = np.exp(l2 - top)
    z = exps.sum(axis=1, keepdims=True)
    softmax = exps / z
    loss = (np.log(z) + top)[:, 0] - l2[rows, y]

    def back(g: np.ndarray):
        gl = softmax * float(g)
        gl[rows, y] -= float(g)
        return (gl.reshape(lv.shape),)

    return _emit((logits,), np.asarray(loss.sum()), back)


def finite_difference(f: Callable[[np.ndarray], float], x: np.ndarray,
                      eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad
