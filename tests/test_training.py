"""Optimizer, schedule, loop, evaluation, gradient-check, fine-tune tests."""

import dataclasses
import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from lgrin import autodiff as ad
from lgrin import data as dd
from lgrin import model as mm
from lgrin import training as tr
from lgrin.errors import (ConfigError, ContractError, DataError, NumericalError,
                          config_from_json)
from lgrin.objective import LossWeights


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


class TestConfigFromJson:
    def test_nested_loss_weights_built(self):
        cfg = config_from_json(tr.TrainConfig, {"epochs": 2, "loss_weights": {
            "lambda1": 0.5}}, "train section")
        assert cfg == tr.TrainConfig(epochs=2, loss_weights=LossWeights(lambda1=0.5))

    @pytest.mark.parametrize("doc, expected", [
        ([1], "train section must be a JSON object"),
        ({"epochs": 1, "bogus": 1}, "bad train section: unknown keys ['bogus']"),
        ({"epochs": 1, "loss_weights": 5}, "loss_weights must be a JSON object"),
        ({"epochs": 1, "loss_weights": {"lambda4": 1}},
         "bad loss_weights: unknown keys ['lambda4']"),
        ({"epochs": 1, "loss_weights": {"lambda1": "x"}}, "bad loss_weights: "),
        ({}, "bad train section: "),
        ({"epochs": 1, "lr0": "fast"}, "bad train section: "),
        ({"epochs": 1.5}, "epochs must be an integer"),
    ], ids=["not-object", "unknown-key", "weights-not-object", "unknown-weight",
            "weight-not-number", "missing-epochs", "lr-not-number", "fractional-epochs"])
    def test_one_config_error(self, doc, expected):
        with pytest.raises(ConfigError) as exc:
            config_from_json(tr.TrainConfig, doc, "train section")
        assert expected in str(exc.value)

    def test_report_echoes_nested_weights(self):
        cfg = tr.TrainConfig(epochs=1, batch_size=16, loss_weights=LossWeights(0.2, 0.3, 0.0))
        _, report = tr.train(mm.build_lgrin(small_config()), small_dataset(), cfg)
        assert report.config["loss_weights"] == {"lambda1": 0.2, "lambda2": 0.3,
                                                 "lambda3": 0.0}
        assert config_from_json(tr.TrainConfig, report.config, "train section") == cfg


def per_entry_adam(arrays, grads, moments, step, lr, cfg):
    """Reference: the bias-corrected Adam update applied entry by entry,
    with (m, v) moments kept per name, in registry order."""
    b1, b2 = cfg.beta1, cfg.beta2
    correct1 = 1.0 - b1 ** step
    correct2 = 1.0 - b2 ** step
    for name, values in arrays.items():
        g = grads[name]
        m, v = moments[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        values -= lr * (m / correct1) / (np.sqrt(v / correct2) + cfg.epsilon)


class TestAdam:
    def fresh(self, values):
        params = np.array(values, dtype=np.float64)
        return params, tr.AdamState(step=0, m=np.zeros_like(params),
                                    v=np.zeros_like(params))

    def test_zero_gradient_fixed_point(self):
        params, state = self.fresh([1.0, -2.0])
        tr.adam_step(params, np.zeros(2), state, 0.01, tr.TrainConfig(epochs=1))
        npt.assert_array_equal(params, [1.0, -2.0])
        assert state.step == 1

    def test_first_step_moves_by_lr(self):
        params, state = self.fresh([5.0])
        tr.adam_step(params, np.array([1.0]), state, 0.01, tr.TrainConfig(epochs=1))
        # bias correction makes the first step exactly -lr / (1 + eps)
        npt.assert_allclose(params, [5.0 - 0.01], rtol=1e-7)

    def test_deterministic(self):
        cfg = tr.TrainConfig(epochs=1)
        results = []
        for _ in range(2):
            params, state = self.fresh([0.3, -0.7, 1.1, 0.0])
            rng = np.random.default_rng(0)
            for _ in range(10):
                tr.adam_step(params, rng.normal(size=4), state, 0.01, cfg)
            results.append(params)
        npt.assert_array_equal(results[0], results[1])

    def test_wrong_shape_gradient_rejected(self):
        params, state = self.fresh([1.0, 2.0])
        with pytest.raises(ContractError, match=r"\(3,\).*\(2,\)"):
            tr.adam_step(params, np.zeros(3), state, 0.01, tr.TrainConfig(epochs=1))
        assert state.step == 0

    def test_matches_per_entry_update_bit_for_bit(self):
        cfg = tr.TrainConfig(epochs=1)
        rng = np.random.default_rng(3)
        shapes = {"matrix": (3, 4), "vector": (5,), "one": (1,)}
        ref = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        moments = {name: (np.zeros(shape), np.zeros(shape))
                   for name, shape in shapes.items()}
        params, state = self.fresh(np.concatenate([a.ravel() for a in ref.values()]))
        for step in range(1, 11):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            if step % 3 == 0:
                grads["vector"] = np.zeros(5)  # an entry the loss did not reach
            tr.adam_step(params, np.concatenate([g.ravel() for g in grads.values()]),
                         state, 0.01, cfg)
            per_entry_adam(ref, grads, moments, step, 0.01, cfg)
            assert params.tobytes() == b"".join(a.tobytes() for a in ref.values())

    def test_train_step_matches_per_entry_update(self):
        ds = small_dataset(per_class=2)
        cfg = tr.TrainConfig(epochs=1, batch_size=len(ds.samples), seed=4)
        trained, _ = tr.train(mm.build_lgrin(small_config()), ds, cfg)
        # the same single step by hand: the epoch's order, one backward
        # pass, and the per-entry update of every trainable entry
        model = mm.build_lgrin(small_config())
        padded = mm.samples_for(model, ds)
        order = np.random.default_rng(cfg.seed).permutation(len(padded))
        with ad.GradTape() as tape:
            total, _ = mm.loss(model, [padded[i] for i in order], cfg.loss_weights)
        grads = tr.registry_grads(model.registry, ad.backward(total, tape))
        arrays = {name: t.values for name, t in model.registry.items()}
        moments = {name: (np.zeros_like(a), np.zeros_like(a)) for name, a in arrays.items()}
        per_entry_adam(arrays, grads, moments, 1, tr.lr_at_epoch(cfg, 0), cfg)
        assert list(trained.registry) == list(arrays)
        for name, values in arrays.items():
            assert trained.registry[name].values.tobytes() == values.tobytes(), name


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

    def test_no_trainable_parameter_rejected_before_any_work(self, monkeypatch):
        model = mm.build_lgrin(small_config())
        frozen = dataclasses.replace(model, registry={
            name: ad.constant(t.values) for name, t in model.registry.items()})
        monkeypatch.setattr(mm, "samples_for", lambda *args: pytest.fail("work started"))
        with pytest.raises(ConfigError, match="no trainable parameters"):
            tr.train(frozen, small_dataset(), tr.TrainConfig(epochs=1))

    def test_dataset_mismatch_rejected(self):
        model = mm.build_lgrin(small_config())
        bad = small_dataset(m=9)
        with pytest.raises(DataError):
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

    def test_imbalanced_set_separates_the_two_accuracies(self):
        # class 0: 2 of 3 right, class 1: 1 of 1 right, class 2 absent
        out = tr.confusion_from_predictions([0, 0, 0, 1], [0, 0, 1, 1], 3)
        assert out["unweighted_accuracy"] == 0.75
        assert out["per_class_recall"] == [2 / 3, 1.0, None]
        assert out["mean_class_recall"] == (2 / 3 + 1.0) / 2
        assert out["confusion"] == [[2, 1, 0], [0, 1, 0], [0, 0, 0]]

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

    def test_corrupted_gradient_detected(self, corrupt_gradient):
        corrupt_gradient("head.w")
        cfg = mm.ModelConfig(m=6, p=5, c=3, inception_layers=1, etas=[(8, 4)],
                             seed=1)
        errors, _, _ = tr.grad_check_random(cfg, seed=0)
        assert errors["head.w"] > 1e-4

    def test_baseline_gcn_config_rejected(self):
        cfg = mm.ModelConfig(m=6, p=5, c=3, inception_layers=1, etas=[(8, 4)],
                             arch="baseline_gcn")
        with pytest.raises(ConfigError, match="gradcheck runs on the lgrin architecture"):
            tr.grad_check_random(cfg)

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

    def test_input_model_unchanged(self):
        model, ds = self.train_small()
        before = {name: t.values.tobytes() for name, t in model.registry.items()}
        tuned, _ = tr.fine_tune_head(model, ds, tr.TrainConfig(epochs=3, seed=9))
        assert tuned.config.c == model.config.c
        assert {name: t.values.tobytes() for name, t in model.registry.items()} == before
        assert all(tuned.registry[name] is not t for name, t in model.registry.items())

    def test_body_is_constant_over_input_arrays(self):
        model, ds = self.train_small()
        tuned, _ = tr.fine_tune_head(model, ds, tr.TrainConfig(epochs=1, seed=9))
        for name, t in tuned.registry.items():
            shared = np.shares_memory(t.values, model.registry[name].values)
            if name.startswith("head."):
                assert t.requires_grad and not shared
            else:
                assert not t.requires_grad and shared

    def test_gradients_reach_the_head_only(self):
        model, ds = self.train_small()
        tuned, _ = tr.fine_tune_head(model, ds, tr.TrainConfig(epochs=1, seed=9))
        samples = mm.samples_for(tuned, ds)[:4]
        with ad.GradTape() as tape:
            total, _ = mm.loss(tuned, samples, LossWeights())
        grads = ad.backward(total, tape)
        assert set(grads) == {tuned.registry["head.w"], tuned.registry["head.b"]}

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
        with pytest.raises(DataError):
            tr.fine_tune_head(model, small_dataset(p=5),
                              tr.TrainConfig(epochs=1))
        with pytest.raises(DataError):
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
                loss, _ = mm.loss(model, samples, LossWeights())
            grads = ad.backward(loss, tape)
            freed = weakref.ref(tape)
            del tape
            assert freed() is None
            assert set(grads) == set(model.registry.values())
        finally:
            gc.enable()
