"""Dense reverse-mode automatic differentiation on 64-bit numpy arrays.

The engine is define-by-run: a ``GradTape`` is opened as a context manager,
every operation executed inside it appends one node (in execution order,
which is therefore already topological), and ``backward`` replays the nodes
in reverse to accumulate gradients into the leaves the loss reached. A
tensor is only its values and a ``requires_grad`` flag: the tape points at
the tensors its nodes read and wrote, never the other way round, so a tape
is freed as soon as its caller drops it. Tapes are rebuilt on every forward
pass and are confined to a single thread.

Only the operations the model needs are provided; there is no broadcasting
beyond matrix-plus-row-vector addition, no views, and no higher-order
derivatives. All values are float64 so that gradients can be checked
against central finite differences at tight tolerances.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

_local = threading.local()


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
    """

    __slots__ = ("values", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

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
    for node in reversed(tape.nodes):
        g = grads.pop(node.output, None)
        if g is None:
            continue
        for t, gin in zip(node.inputs, node.backward(g)):
            if gin is None or not t.requires_grad:
                continue
            acc = grads.get(t)
            # never accumulate in place: backward outputs may alias each
            # other (add returns the upstream array for both operands)
            grads[t] = gin if acc is None else acc + gin
    return grads


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes do not chain: {a.shape} x {b.shape}")
    av, bv = a.values, b.values
    out = av @ bv

    def back(g: np.ndarray):
        return g @ bv.T, av.T @ g

    return _emit((a, b), out, back)


def vecmat(v: Tensor, m: Tensor) -> Tensor:
    """Row-vector times matrix: (K,) x (K,C) -> (C,)."""
    if v.values.ndim != 1 or m.values.ndim != 2 or v.shape[0] != m.shape[0]:
        raise ShapeError(f"vecmat shapes do not chain: {v.shape} x {m.shape}")
    vv, mv = v.values, m.values
    out = vv @ mv

    def back(g: np.ndarray):
        return mv @ g, np.outer(vv, g)

    return _emit((v, m), out, back)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts matrix + row vector (bias) operands."""
    av, bv = a.values, b.values
    if av.shape == bv.shape:
        def back(g: np.ndarray):
            return g, g
    elif av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        def back(g: np.ndarray):
            return g, g.sum(axis=0)
    else:
        raise ShapeError(f"add shapes incompatible: {av.shape} + {bv.shape}")
    return _emit((a, b), av + bv, back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shaped tensors."""
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise ShapeError(f"mul shapes differ: {av.shape} * {bv.shape}")

    def back(g: np.ndarray):
        return g * bv, g * av

    return _emit((a, b), av * bv, back)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar constant."""
    s = float(s)

    def back(g: np.ndarray):
        return (g * s,)

    return _emit((a,), a.values * s, back)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got shape {a.shape}")

    def back(g: np.ndarray):
        return (g.T,)

    return _emit((a,), a.values.T.copy(), back)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); subgradient at exactly 0 is 0."""
    xv = x.values
    tape = active_tape()
    if tape is not None and tape.track_kinks and xv.size:
        m = float(np.min(np.abs(xv)))
        if m < tape.relu_margin:
            tape.relu_margin = m
    pos = xv > 0.0

    def back(g: np.ndarray):
        return (g * pos,)

    return _emit((x,), np.where(pos, xv, 0.0), back)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, as a 0-d scalar tensor."""
    shape = x.values.shape

    def back(g: np.ndarray):
        return (np.full(shape, float(g)),)

    return _emit((x,), np.asarray(x.values.sum()), back)


def concat_features(parts: Sequence[Tensor]) -> Tensor:
    """Column-wise concatenation of 2-D tensors sharing a row count."""
    if not parts:
        raise ShapeError("concat_features needs at least one part")
    rows = parts[0].shape[0]
    for p in parts:
        if p.values.ndim != 2 or p.shape[0] != rows:
            raise ShapeError(
                f"concat_features row mismatch: {[q.shape for q in parts]}")
    widths = [p.shape[1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def back(g: np.ndarray):
        return np.split(g, splits, axis=1)

    return _emit(tuple(parts), np.concatenate([p.values for p in parts], axis=1), back)


def concat_vectors(parts: Sequence[Tensor]) -> Tensor:
    """Concatenation of 1-D tensors into one longer vector."""
    for p in parts:
        if p.values.ndim != 1:
            raise ShapeError(f"concat_vectors needs 1-D parts, got {p.shape}")
    lengths = [p.shape[0] for p in parts]
    splits = np.cumsum(lengths)[:-1]

    def back(g: np.ndarray):
        return np.split(g, splits)

    return _emit(tuple(parts), np.concatenate([p.values for p in parts]), back)


def _tracking_tape() -> "GradTape | None":
    tape = active_tape()
    return tape if tape is not None and tape.track_kinks else None


def _distinct_top_gap(mat: np.ndarray) -> float:
    """Per-column gap between the max and the largest strictly smaller value.

    Exact duplicates of the max are copies of one source (overlapping
    neighborhoods, clamped zeros) that move together under perturbation,
    so they do not count as a kink; only the distance to the nearest
    distinct competitor does. Columns with a single distinct value give no
    constraint (inf).
    """
    top = mat.max(axis=0)
    below = np.where(mat < top[None, :], mat, -np.inf)
    second = below.max(axis=0)
    finite = second > -np.inf
    if not finite.any():
        return math.inf
    return float((top[finite] - second[finite]).min())


def _unordered_ties(values: np.ndarray) -> bool:
    """True if equal entries may differ in their bits (-0.0 vs 0.0, NaNs).

    Only then does the choice among tied entries show in a max's output.
    """
    return bool(np.isnan(values).any() or (np.signbit(values) & (values == 0.0)).any())


def neighborhood_max(h: Tensor, neighbor_mask: np.ndarray) -> Tensor:
    """Row i of the output is the columnwise max of h over i's neighborhood.

    ``neighbor_mask`` is a boolean (M, M) array; every row must select at
    least one neighbor. Ties go to the lowest node index, signed zeros
    included: the output copies that entry and the gradient routes to it
    per (row, feature). The per-node argmax is taken only when it matters:
    when a gradient will be routed (``h`` requires grad on an active tape),
    when a kink-tracking tape needs the tie margins, or when ``h`` holds
    -0.0 or NaN. Otherwise a plain max per node gives the same bits.
    """
    hv = h.values
    m, f = hv.shape
    mask = np.asarray(neighbor_mask, dtype=bool)
    if mask.shape != (m, m):
        raise ShapeError(f"mask shape {mask.shape} does not match node count {m}")
    empty = np.flatnonzero(~mask.any(axis=1))
    if empty.size:
        raise ContractError(f"empty neighborhood for node {empty[0]}")
    out = np.empty_like(hv)
    tape = active_tape()
    if not ((tape is not None and (h.requires_grad or tape.track_kinks))
            or _unordered_ties(hv)):
        for i in range(m):
            out[i] = hv[mask[i]].max(axis=0)
        # still one tape node per op; h gets no gradient through it
        return _emit((h,), out, lambda g: (None,))

    arg = np.empty((m, f), dtype=np.intp)
    cols = np.arange(f)
    tracker = _tracking_tape()
    for i in range(m):
        rows = np.flatnonzero(mask[i])
        sub = hv[rows]
        k = sub.argmax(axis=0)
        out[i] = sub[k, cols]
        arg[i] = rows[k]
        if tracker is not None and rows.size > 1:
            gap = _distinct_top_gap(sub)
            if gap < tracker.max_margin:
                tracker.max_margin = gap

    def back(g: np.ndarray):
        # bincount adds each (row, feature) cell's terms in output-row
        # order, as the per-node reference in tests/test_properties.py does
        gh = np.bincount((arg * f + cols).ravel(), weights=g.ravel(),
                         minlength=m * f)
        return (gh.reshape(m, f),)

    return _emit((h,), out, back)


def readout(h: Tensor, mode: str) -> Tensor:
    """Columnwise max or mean over all rows, collapsing (M, F) to (F,)."""
    hv = h.values
    if hv.ndim != 2:
        raise ShapeError(f"readout needs a 2-D tensor, got shape {h.shape}")
    m, f = hv.shape
    if mode == "mean":
        def back(g: np.ndarray):
            return (np.tile(g / m, (m, 1)),)

        return _emit((h,), hv.mean(axis=0), back)
    if mode == "max":
        idx = hv.argmax(axis=0)
        tracker = _tracking_tape()
        if tracker is not None and m > 1:
            gap = _distinct_top_gap(hv)
            if gap < tracker.max_margin:
                tracker.max_margin = gap
        cols = np.arange(f)

        def back(g: np.ndarray):
            gh = np.zeros_like(hv)
            gh[idx, cols] = g
            return (gh,)

        return _emit((h,), hv[idx, cols], back)
    raise ContractError(f"unknown readout mode {mode!r}")


def weighted_readout(h: Tensor, p: Tensor) -> Tensor:
    """Row-weighted sum of node embeddings: sum_i p[i] * h[i]."""
    hv, pv = h.values, p.values
    if pv.ndim != 1 or hv.ndim != 2 or pv.shape[0] != hv.shape[0]:
        raise ShapeError(f"weighted_readout shapes: h {hv.shape}, p {pv.shape}")

    def back(g: np.ndarray):
        return np.outer(pv, g), hv @ g

    return _emit((h, p), hv.T @ pv, back)


def cross_entropy_logits(logits: Tensor, label: int) -> Tensor:
    """Negative log-softmax of the true class, with max-subtraction."""
    lv = logits.values
    if lv.ndim != 1:
        raise ShapeError(f"logits must be 1-D, got shape {logits.shape}")
    c = lv.shape[0]
    label = int(label)
    if not 0 <= label < c:
        raise IndexError(f"label {label} out of range for {c} classes")
    m = lv.max()
    exps = np.exp(lv - m)
    z = exps.sum()
    softmax = exps / z
    loss = math.log(z) + m - lv[label]

    def back(g: np.ndarray):
        gl = softmax * float(g)
        gl[label] -= float(g)
        return (gl,)

    return _emit((logits,), np.asarray(loss), back)


def add_scalars(terms: Sequence[Tensor]) -> Tensor:
    """Left-fold sum of scalar tensors (used for batched losses)."""
    if not terms:
        raise ContractError("add_scalars needs at least one term")
    acc = terms[0]
    for t in terms[1:]:
        acc = add(acc, t)
    return acc


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
