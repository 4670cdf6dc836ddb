"""Optimizer, schedule, loop, evaluation, gradient-check, fine-tune tests."""

import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from lgrin import autodiff as ad
from lgrin import data as dd
from lgrin import model as mm
from lgrin import training as tr
from lgrin.errors import ConfigError, ContractError, NumericalError
from lgrin.objective import LossWeights, classification_loss, total_loss


def small_config(**overrides):
    base = dict(m=8, p=4, c=4, inception_layers=1, etas=[(8, 4)], seed=1)
    base.update(overrides)
    return mm.ModelConfig(**base)


def small_dataset(per_class=4, noise=0.05, seed=11, m=8, p=4, classes=4):
    return dd.synth_generate(dd.SynthSpec(num_classes=classes,
                                          per_class=per_class, m=m, p=p,
                                          noise=noise, seed=seed))


class TestSchedule:
    def test_paper_values(self):
        cfg = tr.TrainConfig(epochs=1)
        assert tr.lr_at_epoch(cfg, 0) == 0.01
        assert tr.lr_at_epoch(cfg, 49) == 0.01
        assert tr.lr_at_epoch(cfg, 50) == 0.005
        assert tr.lr_at_epoch(cfg, 100) == 0.0025

    def test_non_increasing(self):
        cfg = tr.TrainConfig(epochs=1)
        rates = [tr.lr_at_epoch(cfg, e) for e in range(200)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_epochs_zero_rejected(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(epochs=0)


class TestAdam:
    def make_registry(self, values):
        return {"w": ad.parameter(np.array(values, dtype=np.float64))}

    def test_zero_gradient_fixed_point(self):
        reg = self.make_registry([1.0, -2.0])
        state = tr.AdamState.init(reg)
        cfg = tr.TrainConfig(epochs=1)
        tr.adam_step(reg, {"w": np.zeros(2)}, state, 0.01, cfg)
        npt.assert_array_equal(reg["w"].values, [1.0, -2.0])
        assert state.step == 1

    def test_first_step_moves_by_lr(self):
        reg = self.make_registry([5.0])
        state = tr.AdamState.init(reg)
        cfg = tr.TrainConfig(epochs=1)
        tr.adam_step(reg, {"w": np.array([1.0])}, state, 0.01, cfg)
        # bias correction makes the first step exactly -lr / (1 + eps)
        npt.assert_allclose(reg["w"].values, [5.0 - 0.01], rtol=1e-7)

    def test_deterministic(self):
        cfg = tr.TrainConfig(epochs=1)
        results = []
        for _ in range(2):
            reg = self.make_registry([[0.3, -0.7], [1.1, 0.0]])
            state = tr.AdamState.init(reg)
            rng = np.random.default_rng(0)
            for _ in range(10):
                tr.adam_step(reg, {"w": rng.normal(size=(2, 2))}, state,
                             0.01, cfg)
            results.append(reg["w"].values)
        npt.assert_array_equal(results[0], results[1])

    def test_missing_gradient_rejected(self):
        reg = self.make_registry([1.0])
        state = tr.AdamState.init(reg)
        with pytest.raises(ContractError, match="w"):
            tr.adam_step(reg, {}, state, 0.01, tr.TrainConfig(epochs=1))


class TestTrainLoop:
    def test_one_epoch_one_batch_is_one_step(self):
        ds = small_dataset(per_class=4)  # 16 samples
        model = mm.build_lgrin(small_config())
        cfg = tr.TrainConfig(epochs=1, batch_size=16, seed=0)
        _, report = tr.train(model, ds, cfg)
        assert report.total_steps == 1
        assert len(report.loss_curve) == 1

    def test_loss_decreases_over_training(self):
        ds = small_dataset()
        model = mm.build_lgrin(small_config())
        cfg = tr.TrainConfig(epochs=50, batch_size=16, seed=3)
        _, report = tr.train(model, ds, cfg)
        assert report.loss_curve[49] < report.loss_curve[0]

    def test_deterministic_curves(self):
        curves = []
        for _ in range(2):
            ds = small_dataset()
            model = mm.build_lgrin(small_config(seed=5))
            cfg = tr.TrainConfig(epochs=5, batch_size=8, seed=2)
            _, report = tr.train(model, ds, cfg)
            curves.append((report.loss_curve, report.accuracy_curve))
        assert curves[0] == curves[1]

    def test_parameters_stay_finite(self):
        ds = small_dataset()
        model = mm.build_lgrin(small_config())
        model, _ = tr.train(model, ds, tr.TrainConfig(epochs=10, seed=1))
        for name, t in model.registry.items():
            assert np.all(np.isfinite(t.values)), name

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_names_epoch_and_batch(self):
        ds = small_dataset()
        model = mm.build_lgrin(small_config())
        model.registry["head.b"].values[0] = np.inf
        before = {k: t.values.copy() for k, t in model.registry.items()}
        with pytest.raises(NumericalError, match=r"epoch 0, batch 0$"):
            tr.train(model, ds, tr.TrainConfig(epochs=2, seed=0))
        for name, t in model.registry.items():
            npt.assert_array_equal(t.values, before[name])

    def test_dataset_mismatch_rejected(self):
        model = mm.build_lgrin(small_config())
        bad = small_dataset(m=9)
        with pytest.raises(ConfigError):
            tr.train(model, bad, tr.TrainConfig(epochs=1))

    def test_baseline_gcn_trains(self):
        ds = small_dataset()
        model = mm.build_baseline_gcn(small_config())
        _, report = tr.train(model, ds, tr.TrainConfig(epochs=5, seed=0))
        assert len(report.accuracy_curve) == 5

    def test_fixed_modes_train(self):
        ds = small_dataset()
        for adjacency_mode in ("binary", "weighted"):
            for pooling_mode in ("max", "mean"):
                model = mm.build_lgrin(small_config(
                    adjacency_mode=adjacency_mode, pooling_mode=pooling_mode))
                _, report = tr.train(model, ds,
                                     tr.TrainConfig(epochs=2, seed=0))
                assert np.isfinite(report.final_loss)

    def test_final_accuracy_matches_fresh_evaluation(self):
        ds = small_dataset()
        model = mm.build_lgrin(small_config())
        model, report = tr.train(model, ds, tr.TrainConfig(epochs=3, seed=0))
        padded = [dd.pad_or_truncate(s, 8) for s in ds.samples]
        again = tr.evaluate(model, padded)["unweighted_accuracy"]
        assert abs(report.final_accuracy - again) < 1e-12


class TestEvaluate:
    def test_hand_counted_accuracy(self):
        out = tr.confusion_from_predictions([0, 1, 0, 0], [0, 1, 1, 0], 2)
        assert out["unweighted_accuracy"] == 0.75
        assert out["confusion"] == [[2, 1], [0, 1]]

    def test_all_correct_is_diagonal(self):
        out = tr.confusion_from_predictions([0, 1, 2], [0, 1, 2], 3)
        assert out["unweighted_accuracy"] == 1.0
        npt.assert_array_equal(np.array(out["confusion"]), np.eye(3))

    def test_counts_sum_to_samples(self):
        ds = small_dataset(per_class=5)
        model = mm.build_lgrin(small_config())
        padded = [dd.pad_or_truncate(s, 8) for s in ds.samples]
        out = tr.evaluate(model, padded)
        assert np.array(out["confusion"]).sum() == 20

    def test_accuracy_is_one_minus_offdiagonal_mass(self):
        ds = small_dataset(per_class=6, seed=3)
        model = mm.build_lgrin(small_config(seed=2))
        padded = [dd.pad_or_truncate(s, 8) for s in ds.samples]
        out = tr.evaluate(model, padded)
        conf = np.array(out["confusion"])
        off = conf.sum() - np.trace(conf)
        assert out["unweighted_accuracy"] == 1.0 - off / conf.sum()


class TestGradCheck:
    def test_acceptance_config_passes(self):
        cfg = mm.ModelConfig(m=6, p=5, c=3, inception_layers=1, etas=[(8, 4)],
                             seed=1)
        errors, margin, _ = tr.grad_check_random(cfg, seed=0)
        assert margin >= tr.KINK_MARGIN
        assert set(errors) == set(mm.build_lgrin(cfg).registry)
        assert max(errors.values()) < 1e-4

    def test_corrupted_gradient_detected(self):
        cfg = mm.ModelConfig(m=6, p=5, c=3, inception_layers=1, etas=[(8, 4)],
                             seed=1)
        errors, _, _ = tr.grad_check_random(cfg, seed=0, corrupt="head.w")
        assert errors["head.w"] > 1e-4

    def test_deterministic_per_seed(self):
        cfg = mm.ModelConfig(m=6, p=5, c=3, inception_layers=1, etas=[(8, 4)],
                             seed=1)
        a = tr.grad_check_random(cfg, seed=4)
        b = tr.grad_check_random(cfg, seed=4)
        assert a == b


class TestFineTuneHead:
    def train_small(self):
        ds = small_dataset()
        model = mm.build_lgrin(small_config())
        model, _ = tr.train(model, ds, tr.TrainConfig(epochs=20, seed=0))
        return model, ds

    def test_non_head_parameters_frozen_bit_exact(self):
        model, ds = self.train_small()
        before = {name: t.values.copy() for name, t in model.registry.items()
                  if not name.startswith("head.")}
        tuned, _ = tr.fine_tune_head(model, ds,
                                     tr.TrainConfig(epochs=3, seed=9))
        for name, values in before.items():
            npt.assert_array_equal(tuned.registry[name].values, values)
            assert tuned.registry[name].values.tobytes() == values.tobytes()

    def test_head_reshaped_for_new_class_count(self):
        model, _ = self.train_small()
        target = small_dataset(classes=3, per_class=4, seed=21)
        tuned, _ = tr.fine_tune_head(model, target,
                                     tr.TrainConfig(epochs=2, seed=0))
        d_h = model.config.head_input_width()
        assert tuned.registry["head.w"].shape == (d_h, 3)
        assert tuned.config.c == 3

    def test_baseline_gcn_head_reshaped_for_new_class_count(self):
        model = mm.build_baseline_gcn(small_config())
        model, _ = tr.train(model, small_dataset(), tr.TrainConfig(epochs=2, seed=0))
        frozen = {name: model.registry[name].values.tobytes()
                  for name in ("gcn.w0", "gcn.w1")}
        target = small_dataset(classes=3, per_class=4, seed=21)
        tuned, _ = tr.fine_tune_head(model, target,
                                     tr.TrainConfig(epochs=2, seed=0))
        assert tuned.registry["head.w"].shape == (128, 3)
        assert tuned.config.c == 3
        for name, blob in frozen.items():
            assert tuned.registry[name].values.tobytes() == blob

    def test_same_corpus_accuracy_not_degraded(self):
        model, ds = self.train_small()
        padded = [dd.pad_or_truncate(s, 8) for s in ds.samples]
        before = tr.evaluate(model, padded)["unweighted_accuracy"]
        tuned, _ = tr.fine_tune_head(model, ds,
                                     tr.TrainConfig(epochs=10, seed=1))
        after = tr.evaluate(tuned, padded)["unweighted_accuracy"]
        assert after >= before - 0.1

    def test_dimension_mismatch_rejected(self):
        model, _ = self.train_small()
        with pytest.raises(ConfigError):
            tr.fine_tune_head(model, small_dataset(p=5),
                              tr.TrainConfig(epochs=1))
        with pytest.raises(ConfigError):
            tr.fine_tune_head(model, small_dataset(m=9),
                              tr.TrainConfig(epochs=1))


class TestTapeLifetime:
    def test_tape_freed_without_cycle_collector(self):
        # tensors never point back at their tape, so reference counting
        # alone frees a dropped tape while its loss, logits and gradients
        # are still held
        model = mm.build_lgrin(small_config())
        samples = [dd.pad_or_truncate(s, 8) for s in small_dataset().samples[:3]]
        gc.disable()
        try:
            with ad.GradTape() as tape:
                a_eff, logits = mm.forward_shared(model, samples)
                loss = total_loss(classification_loss(logits, [s.label for s in samples]),
                                  mm.graph_loss(model, a_eff, LossWeights()))
            grads = ad.backward(loss, tape)
            freed = weakref.ref(tape)
            del tape
            assert freed() is None
            assert set(grads) == set(model.registry.values())
        finally:
            gc.enable()
