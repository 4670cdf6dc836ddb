"""Property tests: tape ops against reference loops and central finite
differences, and the invariants of the data helpers."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lgrin import adjacency as adj
from lgrin import autodiff as ad
from lgrin import data as dd
from lgrin.objective import LossWeights, graph_learning_loss
from upstream import dot

# few distinct values, so ties are common; no -0.0 or NaN, which
# neighborhood_max's inputs never hold (the model's features are finite with
# -0.0 read as 0.0, and every later input is rectified or copies them)
VALUES = (0.0, 1.0, -1.0, 0.5, -2.5, 3.0)
UPSTREAM = (1.0, -0.0, 0.25, -1.5, 3.0)


def reference_neighborhood_max(hv, mask, g):
    """Per-node argmax loop: output, gradient for upstream g, kink margin."""
    m, f = hv.shape
    out = np.empty_like(hv)
    arg = np.empty((m, f), dtype=np.intp)
    cols = np.arange(f)
    margin = math.inf
    for i in range(m):
        rows = np.flatnonzero(mask[i])
        sub = hv[rows]
        k = sub.argmax(axis=0)
        out[i] = sub[k, cols]
        arg[i] = rows[k]
        if rows.size > 1:
            margin = min(margin, ad._distinct_top_gap(sub))
    gh = np.zeros_like(hv)
    for i in range(m):
        gh[arg[i], cols] += g[i]
    return out, gh, margin


@st.composite
def max_cases(draw):
    m = draw(st.integers(1, 12))
    f = draw(st.integers(1, 6))
    hv = draw(hnp.arrays(np.float64, (m, f), elements=st.sampled_from(VALUES)))
    mask = draw(hnp.arrays(np.bool_, (m, m)))
    np.fill_diagonal(mask, True)
    g = draw(hnp.arrays(np.float64, (m, f), elements=st.sampled_from(UPSTREAM)))
    return hv, mask, g


def taped(make_input, hv, mask, g, track_kinks):
    """Output, gradient (None if h is constant) and tape of sum(nmax(h) * g)."""
    h = make_input(hv)
    with ad.GradTape(track_kinks=track_kinks) as tape:
        out = ad.neighborhood_max(h, mask)
        loss = dot(out, g)
    grads = ad.backward(loss, tape)
    return out.values, grads.get(h), tape


@settings(max_examples=300, deadline=None, derandomize=True)
@given(max_cases())
def test_neighborhood_max_matches_per_node_argmax(case):
    hv, mask, g = case
    ref_out, ref_grad, ref_margin = reference_neighborhood_max(hv, mask, g)

    for make_input in (ad.constant, ad.parameter):
        assert ad.neighborhood_max(make_input(hv), mask).values.tobytes() \
            == ref_out.tobytes()

    for track_kinks in (False, True):
        out, grad, tape = taped(ad.constant, hv, mask, g, track_kinks)
        assert out.tobytes() == ref_out.tobytes()
        assert grad is None
        if track_kinks:
            assert tape.max_margin == ref_margin

        out, grad, tape = taped(ad.parameter, hv, mask, g, track_kinks)
        assert out.tobytes() == ref_out.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        if track_kinks:
            assert tape.max_margin == ref_margin


@st.composite
def batched_max_cases(draw):
    m = draw(st.integers(1, 8))
    b = draw(st.integers(1, 4))
    f = draw(st.integers(1, 4))
    hv = draw(hnp.arrays(np.float64, (m, b, f), elements=st.sampled_from(VALUES)))
    # one mask shared by the batch, or one per sample
    mask = draw(hnp.arrays(np.bool_, st.sampled_from([(m, m), (b, m, m)])))
    mask[..., np.arange(m), np.arange(m)] = True
    g = draw(hnp.arrays(np.float64, (m, b, f), elements=st.sampled_from(UPSTREAM)))
    return hv, mask, g


def batched_reference(hv, mask, g):
    """The per-node reference run on each sample of an (M, B, F) batch."""
    per_sample = [reference_neighborhood_max(hv[:, s], mask if mask.ndim == 2 else mask[s],
                                             g[:, s]) for s in range(hv.shape[1])]
    return (np.stack([out for out, _, _ in per_sample], axis=1),
            np.stack([grad for _, grad, _ in per_sample], axis=1),
            min(margin for _, _, margin in per_sample))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(batched_max_cases())
def test_batched_neighborhood_max_matches_per_sample_reference(case):
    hv, mask, g = case
    ref_out, ref_grad, ref_margin = batched_reference(hv, mask, g)

    assert ad.neighborhood_max(ad.constant(hv), mask).values.tobytes() \
        == ref_out.tobytes()
    for track_kinks in (False, True):
        out, grad, tape = taped(ad.parameter, hv, mask, g, track_kinks)
        assert out.tobytes() == ref_out.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        if track_kinks:
            assert tape.max_margin == ref_margin


@settings(max_examples=200, deadline=None, derandomize=True)
@given(batched_max_cases(), st.data())
def test_column_blocks_match_per_node_reference(case, data):
    hv, mask, g = case
    m, b, f = hv.shape
    # a few cells per block: a mask group's samples (the whole batch for a
    # shared mask, one sample otherwise) split into blocks of
    # max(1, cells // (M*F)) whole samples, often with a short last block
    columns = b * f if mask.ndim == 2 else f
    cells = data.draw(st.integers(1, m * columns), label="BLOCK_CELLS")
    ref_out, ref_grad, ref_margin = batched_reference(hv, mask, g)

    with mock.patch.object(ad, "BLOCK_CELLS", cells):
        assert ad.neighborhood_max(ad.constant(hv), mask).values.tobytes() \
            == ref_out.tobytes()
        for make_input in (ad.constant, ad.parameter):
            for track_kinks in (False, True):
                out, grad, tape = taped(make_input, hv, mask, g, track_kinks)
                assert out.tobytes() == ref_out.tobytes()
                if make_input is ad.parameter:
                    assert grad.tobytes() == ref_grad.tobytes()
                else:
                    assert grad is None
                if track_kinks:
                    assert tape.max_margin == ref_margin


@st.composite
def routed_prefix_cases(draw):
    """The parts of an (M, B, F) concat as (kind, w, c): a constant or a
    parameter of width w, or ("nested", w, c), the neighborhood max of a
    parameter of width w followed by c constant columns."""
    m = draw(st.integers(1, 7))
    b = draw(st.integers(1, 3))
    specs = draw(st.lists(st.tuples(st.sampled_from(["const", "param", "nested"]),
                                    st.integers(1, 3), st.integers(0, 2)),
                          min_size=1, max_size=4))
    specs = [(kind, w, c if kind == "nested" else 0) for kind, w, c in specs]
    arrays = [draw(hnp.arrays(np.float64, (m, b, width), elements=st.sampled_from(VALUES)))
              for _, w, c in specs for width in (w, c) if width]
    masks = [draw(hnp.arrays(np.bool_, st.sampled_from([(m, m), (b, m, m)])))
             for _ in range(2)]
    for mask in masks:
        mask[..., np.arange(m), np.arange(m)] = True
    f = sum(w + c for _, w, c in specs)
    g = draw(hnp.arrays(np.float64, (m, b, f), elements=st.sampled_from(UPSTREAM)))
    cells = draw(st.integers(1, m * b * f), label="BLOCK_CELLS")
    return specs, arrays, masks, g, cells


def routed_prefix_run(specs, arrays, masks, g, track_kinks):
    """Concat the parts into h and take its neighborhood max, on a tape
    unless track_kinks is None. Returns the output, the tails of the output,
    of h and of each nested max, every parameter's gradient and the margin."""
    arrays = iter(arrays)
    params, parts, nested = [], [], []
    tape = (contextlib.nullcontext() if track_kinks is None
            else ad.GradTape(track_kinks=track_kinks))
    with tape:
        for kind, w, c in specs:
            if kind == "const":
                parts.append(ad.constant(next(arrays)))
                continue
            params.append(ad.parameter(next(arrays)))
            if kind == "param":
                parts.append(params[-1])
                continue
            inner = [params[-1]]
            if c:
                inner.append(ad.constant(next(arrays)))
            parts.append(ad.neighborhood_max(ad.concat_features(inner), masks[1]))
            nested.append(parts[-1].const_tail)
        h = ad.concat_features(parts)
        out = ad.neighborhood_max(h, masks[0])
        loss = dot(out, g)
    tails = (out.const_tail, h.const_tail, nested)
    if track_kinks is None:
        return out.values, tails, None, None
    grads = ad.backward(loss, tape)
    return out.values, tails, [grads[p] for p in params], tape.max_margin


def routed_prefix_reference(specs, arrays, masks, g):
    """The same through the per-node reference, which routes every column:
    output, parameter gradients, margin, and the tail as the trailing run of
    parameter-free columns."""
    arrays = iter(arrays)
    values, inner, constant = [], [], []
    margin = math.inf
    for kind, w, c in specs:
        hv = next(arrays)
        if kind == "nested":
            if c:
                hv = np.concatenate([hv, next(arrays)], axis=-1)
            inner.append(hv)
            hv, _, inner_margin = batched_reference(hv, masks[1], np.zeros(hv.shape))
            margin = min(margin, inner_margin)
        values.append(hv)
        constant += [kind == "const"] * w + [True] * c
    out, gh, outer_margin = batched_reference(np.concatenate(values, axis=-1), masks[0], g)
    part_grads = np.split(gh, np.cumsum([v.shape[-1] for v in values])[:-1], axis=-1)
    inner = iter(inner)
    grads = []
    for (kind, w, _), gp in zip(specs, part_grads):
        if kind == "param":
            grads.append(gp)
        elif kind == "nested":
            grads.append(batched_reference(next(inner), masks[1], gp)[1][..., :w])
    last_learned = max((j for j, col in enumerate(constant) if not col), default=-1)
    return out, grads, min(margin, outer_margin), len(constant) - 1 - last_learned


def check_routed_prefix(specs, arrays, masks, g):
    ref_out, ref_grads, ref_margin, ref_tail = routed_prefix_reference(specs, arrays, masks, g)
    nested_tails = [c for kind, _, c in specs if kind == "nested"]
    for track_kinks in (None, False, True):
        out, tails, grads, margin = routed_prefix_run(specs, arrays, masks, g, track_kinks)
        assert out.tobytes() == ref_out.tobytes()
        assert tails == (ref_tail, ref_tail, nested_tails)
        if track_kinks is not None:
            assert [gr.tobytes() for gr in grads] == [gr.tobytes() for gr in ref_grads]
        if track_kinks:
            assert margin == ref_margin


@settings(max_examples=300, deadline=None, derandomize=True)
@given(routed_prefix_cases())
def test_routed_prefix_matches_per_node_reference(case):
    specs, arrays, masks, g, cells = case
    with mock.patch.object(ad, "BLOCK_CELLS", cells):
        check_routed_prefix(specs, arrays, masks, g)


@pytest.mark.parametrize("per_sample", [False, True])
def test_ranks_beyond_uint8_match_per_node_reference(per_sample):
    # M = 300 needs uint16 ranks; with few distinct values most maxima tie
    m, b = 300, 2
    rng = np.random.default_rng(5)
    specs = [("nested", 2, 1), ("param", 1, 0), ("const", 2, 0)]
    arrays = [rng.choice(VALUES, (m, b, w)) for w in (2, 1, 1, 2)]
    masks = [rng.random((b, m, m) if per_sample else (m, m)) < 0.05 for _ in range(2)]
    for mask in masks:
        mask[..., np.arange(m), np.arange(m)] = True
    g = rng.choice(UPSTREAM, (m, b, 6))
    check_routed_prefix(specs, arrays, masks, g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, max_side=5),
                  elements=st.sampled_from(VALUES)))
def test_max_readout_same_bytes_with_and_without_tape(hv):
    want = np.take_along_axis(hv, hv.argmax(axis=0)[None], axis=0)[0]
    margin = ad._distinct_top_gap(hv) if hv.shape[0] > 1 else math.inf
    for make_input in (ad.constant, ad.parameter):
        assert ad.readout(make_input(hv), "max").values.tobytes() == want.tobytes()
        for track_kinks in (False, True):
            with ad.GradTape(track_kinks=track_kinks) as tape:
                out = ad.readout(make_input(hv), "max")
            assert out.values.tobytes() == want.tobytes()
            if track_kinks:
                assert tape.max_margin == margin


def check_gradients(op, arrays, upstream):
    """Analytic gradients of sum(op(*arrays) * upstream) against central
    finite differences, one input at a time; returns the kink-tracking tape."""
    params = [ad.parameter(a) for a in arrays]
    with ad.GradTape(track_kinks=True) as tape:
        loss = dot(op(*params), upstream)
    grads = ad.backward(loss, tape)
    # no max or ReLU kink within reach of the differences
    assume(tape.kink_margin() > 1e-3)
    for k, p in enumerate(params):
        def f(x):
            values = [x if j == k else a for j, a in enumerate(arrays)]
            return float(np.sum(op(*map(ad.constant, values)).values * upstream))

        fd = ad.finite_difference(f, arrays[k].copy())
        np.testing.assert_allclose(grads[p], fd, rtol=1e-6, atol=1e-7)
    return tape


FD_VALUES = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def fd_array(shape, unique=False):
    return hnp.arrays(np.float64, shape, elements=FD_VALUES, unique=unique)


@st.composite
def batch_shapes(draw):
    return draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data(), batch_shapes(), st.booleans())
def test_propagate_matches_finite_differences(data, shape, stacked):
    m, b, f = shape
    a = data.draw(fd_array((b, m, m) if stacked else (m, m)))
    h = data.draw(fd_array((m, b, f)))
    check_gradients(ad.propagate, [a, h], data.draw(fd_array((m, b, f))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data(), batch_shapes(), st.integers(1, 3), st.booleans(), st.booleans())
def test_relu_affine_matches_finite_differences(data, shape, n, bias, relu):
    m, b, f = shape
    arrays = [data.draw(fd_array((m, b, f))), data.draw(fd_array((f, n)))]
    if bias:
        arrays.append(data.draw(fd_array((n,))))
    tape = check_gradients(lambda *params: ad.relu_affine(*params, relu=relu), arrays,
                           data.draw(fd_array((m, b, n))))
    if not relu:  # the affine map alone has no kink to record
        assert tape.relu_margin == math.inf


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 4))
def test_effective_adjacency_matches_finite_differences(data, m):
    check_gradients(adj.effective_adjacency, [data.draw(fd_array((m, m)))],
                    data.draw(fd_array((m, m))))


LAMBDAS = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 4), st.sampled_from(["adjacency", "pooling", "both"]),
       st.builds(LossWeights, LAMBDAS, LAMBDAS, LAMBDAS))
def test_graph_learning_loss_matches_finite_differences(data, m, terms, weights):
    a_d = adj.structure_matrix(m)
    arrays, upstream = [], np.array(data.draw(FD_VALUES))
    if terms != "pooling":
        arrays.append(data.draw(fd_array((m, m))))
    if terms != "adjacency":
        arrays.append(data.draw(fd_array((m,))))
    ops = {"adjacency": lambda a: graph_learning_loss(a, a_d, None, weights),
           "pooling": lambda p: graph_learning_loss(None, a_d, p, weights),
           "both": lambda a, p: graph_learning_loss(a, a_d, p, weights)}
    check_gradients(ops[terms], arrays, upstream)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data(), batch_shapes(), st.sampled_from(["max", "mean"]))
def test_readout_matches_finite_differences(data, shape, mode):
    m, b, f = shape
    # distinct entries: an exact tie between independent inputs is a kink
    # that the tape's margin does not count
    check_gradients(lambda h: ad.readout(h, mode), [data.draw(fd_array((m, b, f), True))],
                    data.draw(fd_array((b, f))))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data(), batch_shapes())
def test_weighted_readout_matches_finite_differences(data, shape):
    m, b, f = shape
    check_gradients(ad.weighted_readout,
                    [data.draw(fd_array((m, b, f))), data.draw(fd_array((m,)))],
                    data.draw(fd_array((b, f))))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data(), st.integers(0, 3), st.integers(2, 4))
def test_cross_entropy_logits_matches_finite_differences(data, b, c):
    # b == 0 stands for a single (C,) logits vector with one label
    shape = (b, c) if b else (c,)
    labels = data.draw(hnp.arrays(np.intp, shape[:-1], elements=st.integers(0, c - 1)))
    check_gradients(lambda z: ad.cross_entropy_logits(z, labels),
                    [data.draw(fd_array(shape))], np.array(data.draw(FD_VALUES)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(t=st.integers(1, 12), m=st.integers(1, 12), p=st.integers(1, 3))
def test_pad_or_truncate_is_cyclic_and_idempotent(t, m, p):
    frames = np.arange(t * p, dtype=np.float64).reshape(t, p)
    sample = dd.SequenceSample(frames, 1, "x")
    out = dd.pad_or_truncate(sample, m)
    assert out.features.shape == (m, p) and (out.label, out.id) == (1, "x")
    # frame i is source frame i mod t: cyclic when short, the first m when long
    np.testing.assert_array_equal(out.features, frames[np.arange(m) % t])
    if t >= m:
        np.testing.assert_array_equal(out.features, frames[:m])
    again = dd.pad_or_truncate(out, m)
    assert again.features.tobytes() == out.features.tobytes()


@st.composite
def split_cases(draw):
    k = draw(st.integers(2, 5))
    counts = draw(st.lists(st.integers(k, k + 6), min_size=1, max_size=4))
    labels = [c for c, n in enumerate(counts) for _ in range(n)]
    labels = draw(st.permutations(labels))
    return k, labels, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(split_cases())
def test_cv_split_partitions_stratifies_and_repeats(case):
    k, labels, seed = case
    ds = dd.GraphDataset([dd.SequenceSample(np.zeros((1, 1)), y, str(i))
                          for i, y in enumerate(labels)], max(labels) + 1, 1, 1)
    splits = dd.cv_split(ds, k, seed)
    n = len(labels)
    tests = [test for _, test in splits]
    assert len(splits) == k
    # the test folds partition the indices, and each train set is the rest
    assert sorted(i for test in tests for i in test) == list(range(n))
    for train, test in splits:
        assert sorted(train + test) == list(range(n))
    # stratified: every class spreads over the folds within one sample
    for c in set(labels):
        per_fold = [sum(labels[i] == c for i in test) for test in tests]
        assert max(per_fold) - min(per_fold) <= 1
    assert dd.cv_split(ds, k, seed) == splits
