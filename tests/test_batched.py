"""The batched (M, B, F) forward against the per-sample reference."""

import math

import numpy as np
import pytest

import per_sample_reference as ref
from lgrin import autodiff as ad
from lgrin import model as mm
from lgrin import training as tr
from lgrin.data import SequenceSample
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
    counts = {}
    for arch in ("lgrin", "baseline_gcn"):
        config = mm.ModelConfig(m=24, p=8, c=4, inception_layers=2,
                                etas=[(16, 8), (16, 8)], arch=arch)
        for n in (1, 16):
            model = mm.BUILDERS[arch](config)
            batch = samples(config, n)
            with ad.GradTape() as tape:
                mm.loss(model, batch, LossWeights())
            counts[arch, n] = len(tape.nodes)
    assert counts == {("lgrin", 1): 23, ("lgrin", 16): 23,
                      ("baseline_gcn", 1): 9, ("baseline_gcn", 16): 9}


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
