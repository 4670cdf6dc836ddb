"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion NN] name: PASS/FAIL` line. The expensive
generalization runs (criteria 6 and 7) share one module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from lgrin import adjacency as adjmod
from lgrin import autodiff as ad
from lgrin import data as dd
from lgrin import layers as L
from lgrin import model as mm
from lgrin import training as tr
from lgrin.objective import LossWeights, graph_learning_loss

GRID_PAIRS = [(16, 32), (32, 64), (64, 128), (128, 256)]
FACIAL = mm.ModelConfig(m=90, p=136, c=6)

# desk-scale instantiation of the generalization benchmark: 4 classes,
# 500 train / 200 test, noise 0.3, shared per-class templates
GEN_M, GEN_P, GEN_C = 24, 8, 4
GEN_MODEL = dict(m=GEN_M, p=GEN_P, c=GEN_C, inception_layers=2,
                 etas=[(16, 8), (16, 8)])
GEN_EPOCHS = 40
GEN_SEEDS = (0, 1, 2, 3, 4)


def branches(model, k):
    """Inception layer k's two (w1, b1, w2, b2) branches from the registry."""
    return [tuple(model.registry[f"layer{k}.branch{b}.{n}"] for n in L.BRANCH_KEYS)
            for b in (1, 2)]


def check(num, name, condition):
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}")
    assert condition, f"criterion {num} ({name}) failed"


def generalization_split():
    spec = dd.SynthSpec(num_classes=GEN_C, per_class=175, m=GEN_M, p=GEN_P,
                        noise=0.3, seed=20)
    ds = dd.synth_generate(spec)
    by_class = [[s for s in ds.samples if s.label == c] for c in range(GEN_C)]
    train = [s for group in by_class for s in group[:125]]
    test = [s for group in by_class for s in group[125:]]
    return (dd.GraphDataset(train, GEN_C, GEN_P, GEN_M, "gen-train"),
            dd.GraphDataset(test, GEN_C, GEN_P, GEN_M, "gen-test"))


@pytest.fixture(scope="module")
def generalization_runs():
    """Train L-GrIN and the GCN baseline over 5 seeds; keep seed-0 model."""
    started = time.perf_counter()
    train_ds, test_ds = generalization_split()
    test_padded = [dd.pad_or_truncate(s, GEN_M) for s in test_ds.samples]
    lgrin_accs, gcn_accs = [], []
    seed0_model = None
    for seed in GEN_SEEDS:
        cfg = mm.ModelConfig(**GEN_MODEL, seed=seed)
        tcfg = tr.TrainConfig(epochs=GEN_EPOCHS, batch_size=16, seed=seed)
        model, _ = tr.train(mm.build_lgrin(cfg), train_ds, tcfg)
        lgrin_accs.append(
            tr.evaluate(model, test_padded)["unweighted_accuracy"])
        if seed == 0:
            seed0_model = model
        baseline, _ = tr.train(mm.build_baseline_gcn(cfg), train_ds, tcfg)
        gcn_accs.append(
            tr.evaluate(baseline, test_padded)["unweighted_accuracy"])
    return {"lgrin": lgrin_accs, "gcn": gcn_accs, "model": seed0_model,
            "elapsed": time.perf_counter() - started}


class TestCriterion01GradientIntegrity:
    def test_gradient_integrity(self):
        started = time.perf_counter()
        config = mm.ModelConfig(m=6, p=5, c=3, inception_layers=1,
                                etas=[(8, 4)], adjacency_mode="learnable",
                                pooling_mode="learnable_full", seed=1)
        errors, margin, _ = tr.grad_check_random(config, eps=1e-5, seed=0)
        elapsed = time.perf_counter() - started
        expected_groups = set(mm.build_lgrin(config).registry)
        check(1, "gradient integrity",
              set(errors) == expected_groups
              and margin >= tr.KINK_MARGIN
              and max(errors.values()) < 1e-4
              and elapsed < 60.0)


class TestCriterion02ShapeLaw:
    def test_inception_width_law(self):
        ok = True
        rng = np.random.default_rng(0)
        for pair in GRID_PAIRS:
            for layers in (1, 2, 3):
                etas = [(pair[1], pair[0])] * layers
                cfg = mm.ModelConfig(m=6, p=5, c=3, inception_layers=layers,
                                     etas=etas, seed=0)
                widths = cfg.layer_widths()
                for k in range(layers):
                    ok &= widths[k + 1] == sum(etas[k]) + widths[k]
                model = mm.build_lgrin(cfg)
                sample = dd.SequenceSample(rng.uniform(-1, 1, (6, 5)), 0, "s")
                a_eff = adjmod.effective_adjacency(model.registry["adjacency.raw"])
                mask = adjmod.neighbor_mask(a_eff)
                h = ad.constant(sample.features)
                for k in range(layers):
                    h = L.inception_layer(h, a_eff, *branches(model, k), mask)
                ok &= h.shape == (6, widths[-1])
        facial = mm.build_lgrin(FACIAL)
        ok &= FACIAL.head_input_width() == 1560
        ok &= facial.registry["head.w"].shape == (1560, 6)
        check(2, "inception shape law", ok)


class TestCriterion03LossOracles:
    def test_loss_oracles(self):
        ok = True
        rng = np.random.default_rng(1)
        for m in (2, 4, 7, 11, 16):
            a = np.abs(rng.normal(size=(m, m)))
            a = (a + a.T) / 2
            p = rng.normal(size=m)
            w = LossWeights(*rng.uniform(0, 1, size=3))
            a_d = adjmod.structure_matrix(m)
            got = graph_learning_loss(ad.constant(a), a_d, ad.constant(p),
                                      w).item()
            brute = 0.0
            for i in range(m):
                for j in range(m):
                    brute += (w.lambda1 * a_d[i, j] * a[i, j]
                              + w.lambda2 * a[i, j] * a[i, j])
            for i in range(m):
                brute += w.lambda3 * p[i] * p[i]
            ok &= abs(got - brute) < 1e-12 * max(1.0, abs(brute))
        for c in (2, 4, 6, 13):
            loss = ad.cross_entropy_logits(ad.constant(np.zeros((1, c))), [0]).item()
            ok &= abs(loss - math.log(c)) < 1e-12
        check(3, "loss oracles", ok)


class TestCriterion04Renormalization:
    def test_path3_renormalization(self):
        a_hat = adjmod.renormalized_adjacency(
            adjmod.fixed_adjacency("binary", 3)).values
        s6 = 1.0 / math.sqrt(6.0)
        expected = np.array([[0.5, s6, 0.0],
                             [s6, 1.0 / 3.0, s6],
                             [0.0, s6, 0.5]])
        check(4, "renormalization oracle",
              np.max(np.abs(a_hat - expected)) < 1e-12)


class TestCriterion05Overfit:
    def test_overfit_sixteen_samples(self):
        started = time.perf_counter()
        ds = dd.synth_generate(dd.SynthSpec(num_classes=4, per_class=4,
                                            m=16, p=4, noise=0.05, seed=11))
        cfg = mm.ModelConfig(m=16, p=4, c=4, inception_layers=1,
                             etas=[(16, 8)], seed=5)
        tcfg = tr.TrainConfig(epochs=300, batch_size=16, seed=3)
        model, report = tr.train(mm.build_lgrin(cfg), ds, tcfg)
        elapsed = time.perf_counter() - started
        check(5, "overfit capability",
              (max(report.accuracy_curve) == 1.0
               or report.final_accuracy == 1.0)
              and report.final_accuracy == 1.0
              and elapsed < 300.0)


class TestCriterion06Generalization:
    def test_generalization_and_directional_echo(self, generalization_runs):
        runs = generalization_runs
        lgrin_mean = float(np.mean(runs["lgrin"]))
        gcn_mean = float(np.mean(runs["gcn"]))
        print(f"  lgrin accs: {runs['lgrin']}")
        print(f"  gcn accs:   {runs['gcn']}")
        check(6, "synthetic generalization",
              runs["lgrin"][0] >= 0.90
              and lgrin_mean >= gcn_mean
              and runs["elapsed"] < 1800.0)


class TestCriterion07Locality:
    def test_locality_emergence(self, generalization_runs):
        model = generalization_runs["model"]
        a = mm.shared_effective_adjacency(model).values
        idx = np.arange(GEN_M)
        dist = np.abs(idx[:, None] - idx[None, :])
        near = a[dist <= 2].mean()
        far = a[dist >= GEN_M / 2].mean()
        print(f"  near-pair mean {near:.6f} vs far-pair mean {far:.6f}")
        check(7, "locality emergence", near > far)


class TestCriterion08ParameterAccounting:
    def test_facial_parameter_count(self):
        closed = mm.closed_form_parameter_count(FACIAL)
        enumerated = mm.parameter_count(mm.build_lgrin(FACIAL))
        check(8, "parameter accounting",
              closed == enumerated and 90_000 <= closed <= 170_000)


class TestCriterion09Determinism:
    def run_once(self):
        ds = dd.synth_generate(dd.SynthSpec(num_classes=3, per_class=4,
                                            m=8, p=4, noise=0.1, seed=6))
        model = mm.build_lgrin(mm.ModelConfig(m=8, p=4, c=3,
                                              inception_layers=1,
                                              etas=[(8, 4)], seed=2))
        _, report = tr.train(model, ds, tr.TrainConfig(epochs=5, batch_size=8,
                                                       seed=4))
        return model, report

    def test_determinism_and_persistence(self, tmp_path):
        model_a, report_a = self.run_once()
        model_b, report_b = self.run_once()
        curves_equal = all(
            abs(x - y) <= 1e-12
            for x, y in zip(report_a.loss_curve, report_b.loss_curve))

        sample = dd.pad_or_truncate(
            dd.synth_generate(dd.SynthSpec(num_classes=3, per_class=1, m=8,
                                           p=4, noise=0.2, seed=8)).samples[0],
            8)
        before = mm.forward_shared(model_a, [sample])[1].values[0]
        reloaded = mm.load_checkpoint(
            mm.save_checkpoint(model_a, tmp_path / "m.npz"))
        after = mm.forward_shared(reloaded, [sample])[1].values[0]
        check(9, "determinism and persistence",
              curves_equal and np.array_equal(before, after))


class TestCriterion10FreezeContract:
    def test_fine_tune_freeze(self):
        ds = dd.synth_generate(dd.SynthSpec(num_classes=4, per_class=4,
                                            m=8, p=4, noise=0.1, seed=3))
        model = mm.build_lgrin(mm.ModelConfig(m=8, p=4, c=4,
                                              inception_layers=1,
                                              etas=[(8, 4)], seed=0))
        model, _ = tr.train(model, ds, tr.TrainConfig(epochs=5, seed=1))
        frozen = {name: t.values.tobytes()
                  for name, t in model.registry.items()
                  if not name.startswith("head.")}
        target = dd.synth_generate(dd.SynthSpec(num_classes=3, per_class=4,
                                                m=8, p=4, noise=0.1, seed=9))
        tuned, _ = tr.fine_tune_head(model, target,
                                     tr.TrainConfig(epochs=3, seed=2))
        check(10, "fine-tune freeze contract",
              all(tuned.registry[name].values.tobytes() == blob
                  for name, blob in frozen.items())
              and tuned.registry["head.w"].shape == (model.config.head_input_width(), 3))


class TestCriterion11Schedule:
    def test_schedule_and_lambda_defaults(self):
        cfg = tr.TrainConfig(epochs=1)
        w = LossWeights()
        check(11, "schedule and loss weights",
              tr.lr_at_epoch(cfg, 100) == 0.0025
              and (w.lambda1, w.lambda2, w.lambda3) == (0.1, 0.1, 1e-4))


class TestCriterion12Padding:
    def test_cyclic_padding(self):
        frames = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        out = dd.pad_or_truncate(dd.SequenceSample(frames, 0, "x"), 5)
        expected = frames[[0, 1, 2, 0, 1]]
        check(12, "cyclic padding", np.array_equal(out.features, expected))
