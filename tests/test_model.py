"""Model assembly, width laws, parameter accounting, saliency, persistence."""

import numpy as np
import numpy.testing as npt
import pytest

from lgrin import adjacency as adj
from lgrin import autodiff as ad
from lgrin import layers as L
from lgrin import model as mm
from lgrin.data import SequenceSample
from lgrin.errors import ConfigError, ShapeError

FACIAL = dict(m=90, p=136, c=6)
TABLE_GRID = [(16, 32), (32, 64), (64, 128), (128, 256)]


def small_config(**overrides):
    base = dict(m=6, p=5, c=3, inception_layers=1, etas=[(8, 4)], seed=1)
    base.update(overrides)
    return mm.ModelConfig(**base)


def random_sample(config, seed=0, scale=2.0):
    rng = np.random.default_rng(seed)
    return SequenceSample(rng.uniform(-scale, scale, (config.m, config.p)),
                          int(rng.integers(config.c)), f"s{seed}")


def logits(model, sample):
    return mm.forward_shared(model, [sample])[1][0]


def final_embeddings(model, sample):
    """The last inception layer's output, stacked by hand (learnable mode)."""
    reg = model.registry
    a_eff = adj.effective_adjacency(reg["adjacency.raw"])
    mask = adj.neighbor_mask(a_eff, model.config.mask_threshold)
    h = ad.constant(sample.features)
    for k in range(model.config.inception_layers):
        branches = [tuple(reg[f"layer{k}.branch{b}.{n}"] for n in L.BRANCH_KEYS)
                    for b in (1, 2)]
        h = L.inception_layer(h, a_eff, *branches, mask)
    return h.values


class TestModelConfig:
    def test_default_etas(self):
        cfg = mm.ModelConfig(**FACIAL)
        assert cfg.etas == ((128, 64), (128, 64))

    def test_width_law(self):
        cfg = mm.ModelConfig(**FACIAL)
        assert cfg.layer_widths() == [136, 328, 520]
        assert cfg.head_input_width() == 1560

    def test_validation(self):
        with pytest.raises(ConfigError):
            mm.ModelConfig(m=1, p=5, c=3)
        with pytest.raises(ConfigError):
            mm.ModelConfig(m=6, p=5, c=3, inception_layers=0)
        with pytest.raises(ConfigError):
            mm.ModelConfig(m=6, p=5, c=3, etas=[(8, 4), (8, 4)],
                           inception_layers=1)
        with pytest.raises(ConfigError):
            mm.ModelConfig(m=6, p=5, c=3, adjacency_mode="magic")

    def test_dict_roundtrip(self):
        cfg = small_config(adjacency_mode="binary", pooling_mode="max")
        assert mm.ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestBuild:
    def test_facial_head_width(self):
        model = mm.build_lgrin(mm.ModelConfig(**FACIAL))
        assert model.registry["head.w"].shape == (1560, 6)

    def test_deterministic_registries(self):
        a = mm.build_lgrin(small_config(seed=9))
        b = mm.build_lgrin(small_config(seed=9))
        assert list(a.registry) == list(b.registry)
        for name in a.registry:
            npt.assert_array_equal(a.registry[name].values,
                                   b.registry[name].values)

    def test_binary_adjacency_not_learnable(self):
        model = mm.build_lgrin(small_config(adjacency_mode="binary"))
        assert "adjacency.raw" not in model.registry

    def test_fixed_pooling_has_no_p(self):
        model = mm.build_lgrin(small_config(pooling_mode="max"))
        assert "pooling.p" not in model.registry

    def test_registry_entries_unique(self):
        model = mm.build_lgrin(small_config())
        seen = set()
        for t in model.registry.values():
            assert id(t) not in seen
            seen.add(id(t))

    def test_xavier_bounds(self):
        model = mm.build_lgrin(small_config())
        w1 = model.registry["layer0.branch1.w1"].values
        bound = np.sqrt(6.0 / (5 + 8))
        assert np.all(np.abs(w1) <= bound)
        npt.assert_array_equal(model.registry["head.b"].values, np.zeros(3))
        npt.assert_allclose(model.registry["pooling.p"].values, np.full(6, 1 / 6))


class TestForward:
    def test_zero_features_zero_logits(self):
        model = mm.build_lgrin(small_config())
        s = SequenceSample(np.zeros((6, 5)), 0, "z")
        npt.assert_array_equal(logits(model, s).values, np.zeros(3))

    def test_output_length(self):
        model = mm.build_lgrin(small_config())
        assert logits(model, random_sample(model.config)).shape == (3,)

    def test_finite_on_wide_inputs(self):
        model = mm.build_lgrin(small_config())
        for seed in range(5):
            s = random_sample(model.config, seed=seed, scale=10.0)
            assert np.all(np.isfinite(logits(model, s).values))

    def test_shape_mismatch(self):
        model = mm.build_lgrin(small_config())
        with pytest.raises(ShapeError):
            logits(model, SequenceSample(np.zeros((5, 5)), 0, "bad"))

    def test_deterministic(self):
        model = mm.build_lgrin(small_config())
        s = random_sample(model.config, seed=3)
        npt.assert_array_equal(logits(model, s).values,
                               logits(model, s).values)

    def test_weighted_adjacency_mode(self):
        model = mm.build_lgrin(small_config(adjacency_mode="weighted"))
        assert model.graph is None and "adjacency.raw" not in model.registry
        out = logits(model, random_sample(model.config))
        assert out.shape == (3,) and np.all(np.isfinite(out.values))

    def test_permutation_equivariance(self):
        # permuting frames together with adjacency rows/cols leaves the
        # pooled logits unchanged for fixed readouts
        for mode in ("max", "mean"):
            cfg = small_config(pooling_mode=mode, seed=4)
            model = mm.build_lgrin(cfg)
            s = random_sample(cfg, seed=8)
            base = logits(model, s).values

            perm = np.random.default_rng(5).permutation(cfg.m)
            permuted_model = mm.build_lgrin(cfg)
            raw = model.registry["adjacency.raw"].values
            permuted_model.registry["adjacency.raw"].values[...] = raw[np.ix_(perm, perm)]
            s_perm = SequenceSample(s.features[perm], s.label, s.id)
            out = logits(permuted_model, s_perm).values
            npt.assert_allclose(out, base, rtol=1e-12, atol=1e-12)


class TestParameterCount:
    def test_facial_closed_form(self):
        cfg = mm.ModelConfig(**FACIAL)
        model = mm.build_lgrin(cfg)
        assert mm.parameter_count(model) == mm.closed_form_parameter_count(cfg)
        assert mm.closed_form_parameter_count(cfg) == 148372

    def test_grid_sweep_enumeration_matches(self):
        for pair in TABLE_GRID:
            for layers in (1, 2, 3):
                etas = [(pair[1], pair[0])] * layers  # listed small-to-large
                cfg = mm.ModelConfig(m=6, p=5, c=3, inception_layers=layers,
                                     etas=etas, seed=0)
                model = mm.build_lgrin(cfg)
                assert (mm.parameter_count(model)
                        == mm.closed_form_parameter_count(cfg)), (pair, layers)

    def test_adjacency_mode_difference_is_m_squared(self):
        learnable = mm.build_lgrin(small_config(adjacency_mode="learnable"))
        binary = mm.build_lgrin(small_config(adjacency_mode="binary"))
        assert (mm.parameter_count(learnable) - mm.parameter_count(binary)
                == 6 * 6)

    def test_pooling_mode_difference(self):
        cfg_full = small_config(pooling_mode="learnable_full")
        cfg_max = small_config(pooling_mode="max")
        q = cfg_full.layer_widths()[-1]
        diff = (mm.parameter_count(mm.build_lgrin(cfg_full))
                - mm.parameter_count(mm.build_lgrin(cfg_max)))
        assert diff == cfg_full.m + 2 * q * cfg_full.c


class TestSalientNode:
    def test_dominant_row_wins(self):
        rng = np.random.default_rng(0)
        h = rng.uniform(-1, 1, size=(6, 9))
        h[3] = h.max() + 1.0  # row 3 strictly dominates every column
        assert mm.argmax_plurality(h) == 3

    def test_tie_breaks_low(self):
        h = np.zeros((4, 7))
        h[1] = 1.0
        h[2] = 1.0  # rows 1 and 2 tie on all columns; lower index wins
        assert mm.argmax_plurality(h) == 1

    def test_all_zero_embeddings(self):
        model = mm.build_lgrin(small_config())
        s = SequenceSample(np.zeros((6, 5)), 0, "z")
        assert mm.salient_node(model, s) == 0

    def test_matches_brute_force_count(self):
        model = mm.build_lgrin(small_config(seed=2))
        for seed in range(6):
            s = random_sample(model.config, seed=seed)
            h = final_embeddings(model, s)
            counts = np.zeros(h.shape[0], dtype=int)
            for q in range(h.shape[1]):
                best, best_val = 0, h[0, q]
                for i in range(1, h.shape[0]):
                    if h[i, q] > best_val:
                        best, best_val = i, h[i, q]
                counts[best] += 1
            expected = int(np.flatnonzero(counts == counts.max())[0])
            got = mm.salient_node(model, s)
            assert got == expected
            assert 0 <= got < model.config.m

    def test_mean_pooling_rejected(self):
        model = mm.build_lgrin(small_config(pooling_mode="mean"))
        with pytest.raises(ConfigError):
            mm.salient_node(model, random_sample(model.config))


class TestBaselineGcn:
    def test_head_width(self):
        model = mm.build_baseline_gcn(small_config())
        assert model.registry["head.w"].shape == (128, 3)

    def test_registry_excludes_adjacency_and_pooling(self):
        model = mm.build_baseline_gcn(small_config())
        assert set(model.registry) == {"gcn.w0", "gcn.w1", "head.w", "head.b"}

    def test_forward_shape(self):
        model = mm.build_baseline_gcn(small_config())
        assert logits(model, random_sample(model.config)).shape == (3,)

    def test_closed_form_count(self):
        cfg = small_config()
        model = mm.build_baseline_gcn(cfg)
        assert (mm.parameter_count(model)
                == mm.closed_form_parameter_count(cfg, arch="baseline_gcn"))


class TestCheckpoint:
    def test_roundtrip_logits_bit_exact(self, tmp_path):
        for build in (mm.build_lgrin, mm.build_baseline_gcn):
            model = build(small_config(seed=6))
            s = random_sample(model.config, seed=1)
            before = logits(model, s).values
            path = mm.save_checkpoint(model, tmp_path / "model.npz")
            again = mm.load_checkpoint(path)
            npt.assert_array_equal(logits(again, s).values, before)
            assert again.arch == model.arch
            assert again.config == model.config

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            mm.load_checkpoint(tmp_path / "none.npz")

    def test_written_at_exact_path(self, tmp_path):
        model = mm.build_lgrin(small_config(seed=6))
        path = mm.save_checkpoint(model, tmp_path / "model.ckpt")
        assert path == tmp_path / "model.ckpt"
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert mm.load_checkpoint(path).config == model.config

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = mm.save_checkpoint(mm.build_lgrin(small_config(seed=6)),
                                  tmp_path / "model.npz")
        before = path.read_bytes()

        def savez_then_fail(fh, **arrays):
            fh.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(mm.np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            mm.save_checkpoint(mm.build_lgrin(small_config(seed=7)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ConfigError):
            mm.load_checkpoint(path)
