"""The batched (M, B, F) forward against the per-sample reference."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_sample_reference as ref
from lgrin import adjacency as adjmod
from lgrin import autodiff as ad
from lgrin import layers as L
from lgrin import model as mm
from lgrin import training as tr
from lgrin.data import SequenceSample, SynthSpec, synth_generate
from lgrin.objective import LossWeights
from upstream import dot

MODES = [(adj, pool) for adj in ("learnable", "binary", "weighted")
         for pool in ("learnable_full", "max", "mean")]


def samples(config, n, seed=0):
    rng = np.random.default_rng(seed)
    return [SequenceSample(rng.uniform(-2.0, 2.0, (config.m, config.p)),
                           int(rng.integers(config.c)), f"s{i}") for i in range(n)]


def registry_gradients(model, objective):
    with ad.GradTape() as tape:
        loss, logits = objective()
    return logits, tr.registry_grads(model.registry, ad.backward(loss, tape))


def assert_close(got, want, what):
    # within 1e-12 of the group's largest magnitude; exact for an all-zero group
    scale = float(np.max(np.abs(want), initial=0.0))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale, what


@pytest.mark.parametrize("arch, adjacency_mode, pooling_mode",
                         [("lgrin", *mode) for mode in MODES]
                         + [("baseline_gcn", "learnable", "learnable_full")])
def test_logits_and_gradients_match_per_sample_reference(arch, adjacency_mode,
                                                         pooling_mode):
    config = mm.ModelConfig(m=7, p=5, c=3, inception_layers=2,
                            etas=[(6, 4), (5, 3)], adjacency_mode=adjacency_mode,
                            pooling_mode=pooling_mode, seed=3)
    model = mm.BUILDERS[arch](config)
    batch = samples(config, 5)
    weights = LossWeights()

    logits, grads = registry_gradients(model, lambda: mm.loss(model, batch, weights))
    want_logits, want_grads = registry_gradients(
        model, lambda: ref.objective(model, batch, weights))

    assert logits.shape == (5, 3)
    assert_close(logits.values, np.stack([lg.values for lg in want_logits]), "logits")
    for name in model.registry:
        assert_close(grads[name], want_grads[name], name)


# (config, seed) -> (attempt, margin.hex()) as the per-sample forward found them
GRAD_CHECK_POINTS = [
    (dict(m=6, p=5, c=3, inception_layers=1, etas=[(8, 4)], seed=1), 0,
     2, "0x1.3d1b646c9df47p-10"),
    (dict(m=6, p=5, c=3, inception_layers=1, etas=[(8, 4)], seed=1), 3,
     0, "0x1.7a0b6a912c000p-10"),
    (dict(m=6, p=5, c=3, inception_layers=2, etas=[(4, 3), (3, 2)],
          pooling_mode="max", seed=1), 3, 11, "0x1.63ea9ae9d8070p-7"),
    (dict(m=5, p=3, c=2, inception_layers=1, etas=[(3, 2)], adjacency_mode="binary",
          seed=1), 3, 4, "0x1.6868a992af2a1p-4"),
    (dict(m=5, p=3, c=2, inception_layers=1, etas=[(3, 2)],
          adjacency_mode="weighted", pooling_mode="max", seed=1), 3,
     4, "0x1.0a62e27b51e49p-3"),
]


@pytest.mark.parametrize("config, seed, attempt, margin", GRAD_CHECK_POINTS)
def test_grad_check_point_and_margin_unchanged(config, seed, attempt, margin):
    errors, got_margin, got_attempt = tr.grad_check_random(mm.ModelConfig(**config),
                                                           seed=seed)
    assert (got_attempt, got_margin.hex()) == (attempt, margin)
    assert max(errors.values()) < 1e-6


def test_finite_differences_only_at_the_accepted_point(monkeypatch):
    # the pooling_mode="max" point is accepted at attempt 11: the eleven
    # points before it are rejected on their kink margin alone
    config, seed, attempt, _ = GRAD_CHECK_POINTS[2]
    real, calls = ad.finite_difference, []

    def finite_difference(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ad, "finite_difference", finite_difference)
    _, _, got_attempt = tr.grad_check_random(mm.ModelConfig(**config), seed=seed)
    assert got_attempt == attempt == 11
    assert len(calls) == len(mm.build_lgrin(mm.ModelConfig(**config)).registry)


def test_one_tape_per_minibatch():
    # each inception layer records its max branch, one node for A @ H and
    # both convolution branches, and the concatenation; at M=24, seed 0, no
    # layer spans (21 of 24 rows reach every node in two hops); at M=32
    # layer 1 spans and adds one leading_features node; the weighted mask is
    # complete, so layer 0 records no neighborhood_max
    counts = {}
    for name, arch, m, mode in [("lgrin", "lgrin", 24, "learnable"),
                                ("baseline_gcn", "baseline_gcn", 24, "learnable"),
                                ("spans-at-1", "lgrin", 32, "learnable"),
                                ("spans-at-0", "lgrin", 24, "weighted")]:
        config = mm.ModelConfig(m=m, p=8, c=4, inception_layers=2,
                                etas=[(16, 8), (16, 8)], adjacency_mode=mode, arch=arch)
        model = mm.BUILDERS[arch](config)
        for n in (1, 16):
            batch = samples(config, n)
            if arch == "lgrin":
                assert spanning_layers(model, batch) == {"lgrin": [False, False],
                                                         "spans-at-1": [False, True],
                                                         "spans-at-0": [True, True]}[name]
            with ad.GradTape() as tape:
                mm.loss(model, batch, LossWeights())
            counts[name, n] = len(tape.nodes)
    assert counts == {("lgrin", 1): 15, ("lgrin", 16): 15,
                      ("baseline_gcn", 1): 9, ("baseline_gcn", 16): 9,
                      ("spans-at-1", 1): 16, ("spans-at-1", 16): 16,
                      ("spans-at-0", 1): 14, ("spans-at-0", 16): 14}


def test_chunked_forward_covers_every_sample_once():
    config = mm.ModelConfig(m=6, p=4, c=3, inception_layers=1, etas=[(4, 3)])
    model = mm.build_lgrin(config)
    batch = samples(config, 2 * mm.FORWARD_CHUNK + 5)
    chunks = list(mm.forward_chunks(model, batch))
    assert [lg.shape[0] for lg, _ in chunks] == [mm.FORWARD_CHUNK] * 2 + [5]
    whole = mm.forward_shared(model, batch)[1].values
    assert_close(np.concatenate([lg.values for lg, _ in chunks]), whole, "logits")
    assert mm.salient_nodes(model, batch) == [mm.salient_nodes(model, [s])[0]
                                              for s in batch]


@pytest.mark.parametrize("adjacency_mode, graphs", [("learnable", 1), ("binary", 1),
                                                    ("weighted", 3)])
def test_chunked_forward_computes_a_shared_graph_once(adjacency_mode, graphs, monkeypatch):
    # three chunks; a weighted graph comes from each chunk's features
    config = mm.ModelConfig(m=6, p=4, c=3, inception_layers=2, etas=[(4, 3), (3, 2)],
                            adjacency_mode=adjacency_mode)
    model = mm.build_lgrin(config)
    batch = samples(config, 2 * mm.FORWARD_CHUNK + 5)
    per_chunk = [mm.forward_shared(model, batch[i:i + mm.FORWARD_CHUNK])[1].values.tobytes()
                 for i in range(0, len(batch), mm.FORWARD_CHUNK)]
    calls = {"effective_adjacency": 0, "neighbor_mask": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(adjmod, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(adjmod, name, counted)
    tr.evaluate(model, batch)
    assert calls == {"effective_adjacency": graphs if adjacency_mode == "learnable" else 0,
                     "neighbor_mask": graphs}
    assert [lg.values.tobytes() for lg, _ in mm.forward_chunks(model, batch)] == per_chunk


def test_relu_affine_matches_unfused_ops():
    # pre-activations NaN, -1, 2 and 0 (through the bias), then random ones;
    # the unfused ops are numpy's, and a NaN pre-activation counts as no margin
    cases = [(np.ones((1, 1)), np.zeros((1, 4)), np.array([np.nan, -1.0, 2.0, 0.0]))]
    rng = np.random.default_rng(4)
    cases.append((rng.normal(size=(3, 2, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)))
    for xv, wv, bv in cases:
        x, w, b = ad.parameter(xv), ad.parameter(wv), ad.parameter(bv)
        with ad.GradTape(track_kinks=True) as tape:
            out = ad.relu_affine(x, w, b)
            loss = dot(out, np.ones(out.shape))
        grads = ad.backward(loss, tape)
        x2 = xv.reshape(-1, xv.shape[-1])
        pre = x2 @ wv + bv
        gz = np.ones(pre.shape) * (pre > 0.0)
        assert out.values.reshape(pre.shape).tobytes() == np.where(pre > 0.0, pre, 0.0).tobytes()
        assert tape.relu_margin == min(math.inf, float(np.abs(pre).min()))
        assert grads[w].tobytes() == (x2.T @ gz).tobytes()
        assert grads[b].tobytes() == gz.sum(axis=0).tobytes()


def route_every_column(h, neighbor_mask):
    """``neighborhood_max`` as it was before the routed prefix: column
    blocks of each mask group's (M, n) view, and a routing index with int32
    ranks for every column of an input that requires grad."""
    hv = h.values
    m = hv.shape[0]
    mask = np.asarray(neighbor_mask, dtype=bool)
    counts = mask.sum(axis=-1)
    tape = ad.active_tape()
    tracking = tape is not None and tape.track_kinks
    routed = tape is not None and h.requires_grad
    out = np.empty(hv.shape)
    source = np.empty(hv.shape, dtype=np.int32) if routed else None
    masks = mask.reshape(-1, m, m)
    h3 = hv.reshape(m, len(masks), -1)
    out3 = out.reshape(h3.shape)
    source3 = source.reshape(h3.shape) if routed else None
    ends = np.cumsum(counts.ravel()).tolist()
    nodes = np.nonzero(masks)[-1]
    ranks = (m - nodes).astype(np.int32)[:, None]
    neighbors = [(nodes[a:b], ranks[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    width = max(1, (1 << 16) // m)
    for g in range(len(masks)):
        for c0 in range(0, h3.shape[2], width):
            cols = slice(c0, c0 + width)
            block = np.ascontiguousarray(h3[:, g, cols])
            for i in range(m):
                rows, rank = neighbors[g * m + i]
                sub = block[rows]
                out3[i, g, cols] = top = sub.max(axis=0)
                if routed:
                    source3[i, g, cols] = m - ((sub == top) * rank).max(axis=0)
                if tracking:
                    ad._track_max_margin(sub)
    if not routed:
        return ad._emit((h,), out, lambda g: (None,))

    def back(g):
        stride = hv[0].size
        cells = np.multiply(source.reshape(m, stride), stride, dtype=np.intp)
        cells += np.arange(stride)
        gh = np.bincount(cells.ravel(), weights=g.ravel(), minlength=hv.size)
        return (gh.reshape(hv.shape),)

    return ad._emit((h,), out, back)


@pytest.mark.parametrize("adjacency_mode, pooling_mode", MODES)
def test_routed_prefix_keeps_every_bit_of_a_three_layer_step(adjacency_mode, pooling_mode,
                                                             monkeypatch):
    # three layers, so the max branch of the third reads a nested constant tail
    config = mm.ModelConfig(m=7, p=5, c=3, inception_layers=3,
                            etas=[(6, 4), (5, 3), (4, 2)], adjacency_mode=adjacency_mode,
                            pooling_mode=pooling_mode, seed=3)
    model = mm.build_lgrin(config)
    batch = samples(config, 5)

    def step():
        with ad.GradTape(track_kinks=True) as tape:
            loss, logits = mm.loss(model, batch, LossWeights())
        grads = tr.registry_grads(model.registry, ad.backward(loss, tape))
        return ([loss.values.tobytes(), logits.values.tobytes(), tape.max_margin]
                + [grads[name].tobytes() for name in model.registry])

    tails, routed_prefix = [], ad.neighborhood_max
    monkeypatch.setattr(ad, "neighborhood_max", lambda h, mask: tails.append(h.const_tail)
                        or routed_prefix(h, mask))
    got = step()
    # layer 0 reads the constant features; the last P columns of every later
    # input are a max of them
    assert tails == [0, config.p, config.p]
    monkeypatch.setattr(ad, "neighborhood_max", route_every_column)
    assert got == step()


def gathering_forward(model, samples, graph=None):
    """``model.forward_shared`` of an lgrin model as it was before spanning
    layers, and before an inception layer's convolutions were one tape
    node: every max branch gathers every column of its input, and the
    branches are a ``propagate`` and four ``relu_affine`` nodes. ``graph``
    is ignored: the graph is computed per call."""
    h = mm._stacked_features(model, samples)
    reg = model.registry
    a_eff = mm.shared_effective_adjacency(model)
    a = a_eff if a_eff is not None else adjmod.fixed_adjacency("weighted", model.config.m, h)
    mask = adjmod.neighbor_mask(a, model.config.mask_threshold)
    for k in range(model.config.inception_layers):
        ah = ad.propagate(a, h)
        branches = [[reg[key] for key in mm._branch_keys(k, b)] for b in (1, 2)]
        h = ad.concat_features([ad.relu_affine(ad.relu_affine(ah, w1, b1), w2, b2)
                                for w1, b1, w2, b2 in branches]
                               + [ad.neighborhood_max(h, mask)])
    pooled = L.pooling_layer(h, reg.get("pooling.p"), model.config.pooling_mode)
    return a_eff, ad.relu_affine(pooled, reg["head.w"], reg["head.b"], relu=False), h


def spanning_layers(model, batch):
    """Per layer, whether every node reaches every node in k+1 hops of the
    mask (of every sample), from integer matrix powers."""
    cfg = model.config
    a = mm.shared_effective_adjacency(model)
    if a is None:
        a = adjmod.fixed_adjacency("weighted", cfg.m, mm._stacked_features(model, batch))
    masks = adjmod.neighbor_mask(a, cfg.mask_threshold).reshape(-1, cfg.m, cfg.m)
    return [all((np.linalg.matrix_power(s.astype(np.int64), k + 1) > 0).all() for s in masks)
            for k in range(cfg.inception_layers)]


def step_bits(model, batch, track_kinks=False):
    """Loss, logits, margins, every registry gradient, then the logits and
    final embeddings of a forward-only pass, all as bytes; and the width of
    every ``neighborhood_max`` input, in call order."""
    widths, real = [], ad.neighborhood_max

    def neighborhood_max(h, mask):
        widths.append(h.shape[-1])
        return real(h, mask)

    with mock.patch.object(ad, "neighborhood_max", neighborhood_max):
        with ad.GradTape(track_kinks=track_kinks) as tape:
            loss, logits = mm.loss(model, batch, LossWeights())
        grads = tr.registry_grads(model.registry, ad.backward(loss, tape))
        _, plain_logits, embeddings = mm.forward_shared(model, batch)
    return ([loss.values.tobytes(), logits.values.tobytes(), tape.max_margin, tape.relu_margin]
            + [grads[name].tobytes() for name in model.registry]
            + [plain_logits.values.tobytes(), embeddings.values.tobytes()]), widths


def gathering_bits(model, batch, track_kinks=False):
    with mock.patch.object(mm, "forward_shared", gathering_forward):
        return step_bits(model, batch, track_kinks)


@pytest.mark.parametrize("adjacency_mode, spans", [("learnable", [False, True]),
                                                   ("weighted", [True, True])])
def test_kink_tracking_tape_gathers_every_column(adjacency_mode, spans):
    # the margins of a kink-tracking tape read every column's ties, so such
    # a tape takes the full path even where the layers span
    config = mm.ModelConfig(m=8, p=4, c=3, inception_layers=2, etas=((6, 4), (5, 3)),
                            adjacency_mode=adjacency_mode, seed=0)
    model, batch = mm.build_lgrin(config), samples(config, 3)
    assert spanning_layers(model, batch) == spans
    got, widths = step_bits(model, batch, track_kinks=True)
    want, full = gathering_bits(model, batch, track_kinks=True)
    # the taped calls come first; the forward-only pass after them spans
    assert got == want and widths[:2] == full[:2] == [4, 14]
    assert widths[2:] == [4, 10][spans[0]:]


@pytest.mark.parametrize("adjacency_mode", ["learnable", "weighted"])
def test_fine_tuned_head_trains_as_with_gathering_forward(adjacency_mode, tmp_path):
    # the frozen body makes every column of every layer input constant, so
    # const_tail covers them all; the spanned tail is still the last P
    config = mm.ModelConfig(m=8, p=4, c=3, inception_layers=2, etas=((6, 4), (5, 3)),
                            adjacency_mode=adjacency_mode, seed=0)
    target = synth_generate(SynthSpec(num_classes=2, per_class=6, m=8, p=4, noise=0.3,
                                      seed=9))
    base = mm.build_lgrin(config)
    assert spanning_layers(base, mm.samples_for(base, target))[1]
    runs = []
    for forward in (mm.forward_shared, gathering_forward):
        with mock.patch.object(mm, "forward_shared", forward):
            tuned, report = tr.fine_tune_head(base, target, tr.TrainConfig(epochs=3,
                                                                          batch_size=5))
        path = mm.save_checkpoint(tuned, tmp_path / f"{len(runs)}.npz")
        runs.append(([x.hex() for x in report.loss_curve], path.read_bytes()))
    assert runs[0] == runs[1]


def test_three_layers_hand_the_spanning_layer_the_prefix_of_their_max():
    # layer 1 does not span and layer 2 does: layer 2's routed prefix holds
    # layer 1's branches and the leading columns of layer 1's own max
    config = mm.ModelConfig(m=24, p=8, c=4, inception_layers=3,
                            etas=((6, 4), (5, 3), (4, 2)), seed=0)
    model, batch = mm.build_lgrin(config), samples(config, 5)
    assert spanning_layers(model, batch) == [False, False, True]
    got, widths = step_bits(model, batch)
    want, full = gathering_bits(model, batch)
    assert got == want
    # three taped calls, then three forward-only ones; layer 2 drops its tail
    assert full == [8, 18, 26] * 2 and widths == [8, 18, 18] * 2


FEATURES = (0.0, 1.0, -1.0, 0.5, -2.5, 3.0)


@st.composite
def spanning_cases(draw):
    m, p, layers = draw(st.integers(2, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    config = mm.ModelConfig(
        m=m, p=p, c=3, inception_layers=layers,
        etas=[(draw(st.integers(1, 4)), draw(st.integers(1, 4))) for _ in range(layers)],
        adjacency_mode=draw(st.sampled_from(mm.ADJACENCY_MODES)),
        pooling_mode=draw(st.sampled_from(L.POOLING_MODES)),
        # a complete mask, thinner ones, and the diagonal alone
        mask_threshold=draw(st.sampled_from([0.0, 0.3, 1.0, 3.0, 1e9])),
        seed=draw(st.integers(0, 3)))
    batch = [SequenceSample(np.array(draw(st.lists(st.sampled_from(FEATURES), min_size=m * p,
                                                   max_size=m * p))).reshape(m, p),
                            draw(st.integers(0, 2)), f"s{i}")
             for i in range(draw(st.integers(1, 3)))]
    return config, batch


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spanning_cases())
def test_spanning_layers_keep_every_bit_of_the_gathering_forward(case):
    config, batch = case
    model = mm.build_lgrin(config)
    got, widths = step_bits(model, batch)
    want, full = gathering_bits(model, batch)
    assert got == want
    # a spanning layer gathers only the columns before its last P, and
    # layer 0, whose input is all tail, gathers none
    spans = spanning_layers(model, batch)
    expected = [f - config.p if span else f
                for f, span in zip(config.layer_widths(), spans) if not (span and f == config.p)]
    assert full == config.layer_widths()[:-1] * 2 and widths == expected * 2
