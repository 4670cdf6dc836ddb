"""Adjacency construction and transform tests against brute-force oracles."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from lgrin import adjacency as adj
from lgrin import autodiff as ad
from lgrin.errors import ConfigError, ContractError, ShapeError
from lgrin.model import ModelConfig, build_lgrin
from upstream import dot


def learnable_raw(m, seed):
    """The raw adjacency parameter exactly as training starts from it."""
    config = ModelConfig(m=m, p=1, c=2, inception_layers=1, etas=[(1, 1)],
                         seed=seed)
    return build_lgrin(config).registry["adjacency.raw"]


class TestInitLearnable:
    def test_deterministic_per_seed(self):
        a = learnable_raw(8, seed=42)
        b = learnable_raw(8, seed=42)
        npt.assert_array_equal(a.values, b.values)

    def test_facial_scale_entry_count(self):
        assert learnable_raw(90, seed=0).values.size == 8100

    def test_standard_normal_statistics(self):
        raw = learnable_raw(120, seed=3).values
        assert abs(raw.mean()) < 0.1
        assert abs(raw.std() - 1.0) < 0.1

    def test_too_small(self):
        with pytest.raises(ConfigError):
            learnable_raw(1, seed=0)


class TestEffectiveAdjacency:
    def test_negative_raw_rectified(self):
        a = ad.parameter(-np.eye(3))
        npt.assert_array_equal(adj.effective_adjacency(a).values, np.zeros((3, 3)))

    def test_symmetrize_then_relu(self):
        a = ad.parameter([[0.0, 2.0], [0.0, 0.0]])
        npt.assert_array_equal(adj.effective_adjacency(a).values,
                               [[0.0, 1.0], [1.0, 0.0]])

    def test_always_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            raw = rng.normal(size=(6, 6)) * rng.uniform(0.1, 5)
            eff = adj.effective_adjacency(ad.parameter(raw)).values
            npt.assert_array_equal(eff, eff.T)
            assert eff.min() >= 0.0

    def test_subgradient_at_zero_is_zero(self):
        raw = ad.parameter([[0.0, 1.0], [-1.0, 2.0]])
        with ad.GradTape() as tape:
            loss = dot(adj.effective_adjacency(raw), [[3.0, 5.0], [7.0, 11.0]])
        grads = ad.backward(loss, tape)
        # sym = [[0, 0], [0, 2]]: only (1, 1) is positive
        npt.assert_array_equal(grads[raw], [[0.0, 0.0], [0.0, 11.0]])

    def test_non_square_raw_rejected(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            adj.effective_adjacency(ad.parameter(np.zeros((2, 3))))

    def test_gradient_reaches_raw(self):
        raw = ad.parameter([[1.0, -3.0], [2.0, 0.5]])
        with ad.GradTape() as tape:
            loss = dot(adj.effective_adjacency(raw), np.ones((2, 2)))
        grads = ad.backward(loss, tape)
        # sym = [[1, -0.5], [-0.5, 0.5]]; only (0,0) and (1,1) survive relu
        npt.assert_allclose(grads[raw], [[1.0, 0.0], [0.0, 1.0]])


class TestFixedAdjacency:
    def test_binary_chain(self):
        npt.assert_array_equal(adj.fixed_adjacency("binary", 3).values,
                               [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_weighted_identical_attributes(self):
        feats = ad.constant([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        a = adj.fixed_adjacency("weighted", 3, feats)
        assert a.values[0, 1] == 0.0

    def test_weighted_hand_distance(self):
        feats = ad.constant([[0.0, 0.0], [3.0, 4.0]])
        a = adj.fixed_adjacency("weighted", 2, feats)
        assert a.values[0, 1] == 25.0
        npt.assert_array_equal(a.values, a.values.T)

    def test_weighted_requires_features(self):
        with pytest.raises(ConfigError):
            adj.fixed_adjacency("weighted", 3)

    def test_constants_carry_no_gradient(self):
        a = adj.fixed_adjacency("binary", 4)
        assert not a.requires_grad

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            adj.fixed_adjacency("random", 3)


class TestRenormalized:
    def test_isolated_nodes_give_identity(self):
        out = adj.renormalized_adjacency(ad.constant(np.zeros((4, 4))))
        npt.assert_allclose(out.values, np.eye(4), atol=1e-15)

    def test_path3_hand_values(self):
        a_hat = adj.renormalized_adjacency(adj.fixed_adjacency("binary", 3)).values
        expected = np.array([
            [0.5, 1.0 / math.sqrt(6.0), 0.0],
            [1.0 / math.sqrt(6.0), 1.0 / 3.0, 1.0 / math.sqrt(6.0)],
            [0.0, 1.0 / math.sqrt(6.0), 0.5],
        ])
        npt.assert_allclose(a_hat, expected, atol=1e-12)
        assert abs(a_hat[0, 1] - 0.408248) < 1e-6

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for m in (2, 5, 9):
            a = rng.uniform(0, 3, size=(m, m))
            a = (a + a.T) / 2
            got = adj.renormalized_adjacency(ad.constant(a)).values
            with_self = a + np.eye(m)
            d = np.diag(with_self.sum(axis=1))
            expected = (np.linalg.inv(np.sqrt(d)) @ with_self
                        @ np.linalg.inv(np.sqrt(d)))
            npt.assert_allclose(got, expected, atol=1e-12)

    def test_binary_chain_spectrum_bounded(self):
        # row sums of the symmetric normalization can exceed 1 where chain
        # endpoints meet interior nodes; the bounded quantity is the
        # spectrum (similar to the row-stochastic random-walk matrix)
        for m in (3, 7, 12):
            a_hat = adj.renormalized_adjacency(adj.fixed_adjacency("binary", m))
            eig = np.linalg.eigvalsh(a_hat.values)
            assert eig.min() >= -1.0 - 1e-12
            assert eig.max() <= 1.0 + 1e-12

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, size=(5, 5))
        a = a + a.T
        out = adj.renormalized_adjacency(ad.constant(a)).values
        npt.assert_allclose(out, out.T, atol=1e-15)

    def test_negative_input_rejected(self):
        with pytest.raises(ContractError):
            adj.renormalized_adjacency(ad.constant([[0.0, -1.0], [-1.0, 0.0]]))


class TestStructureMatrix:
    def test_hand_3x3(self):
        npt.assert_array_equal(adj.structure_matrix(3),
                               [[0, 1, 4], [1, 0, 1], [4, 1, 0]])

    def test_zero_diagonal(self):
        npt.assert_array_equal(np.diag(adj.structure_matrix(7)),
                               np.zeros(7))

    def test_extremal_corner(self):
        m = 11
        assert adj.structure_matrix(m)[0, m - 1] == (m - 1) ** 2

    def test_matches_double_loop(self):
        for m in (1, 2, 6, 13):
            got = adj.structure_matrix(m)
            expected = np.empty((m, m))
            for i in range(m):
                for j in range(m):
                    expected[i, j] = (i - j) ** 2
            npt.assert_array_equal(got, expected)

    def test_shared_copy_is_read_only(self):
        # training reuses one matrix per M, so no caller may write into it
        assert adj.structure_matrix(9) is adj.structure_matrix(9)
        with pytest.raises(ValueError):
            adj.structure_matrix(9)[0, 1] = 5.0


class TestNeighborMask:
    def test_all_positive_gives_all_true(self):
        a = ad.constant(np.full((4, 4), 0.3))
        assert adj.neighbor_mask(a, 0.0).all()

    def test_zero_adjacency_gives_self_only(self):
        mask = adj.neighbor_mask(ad.constant(np.zeros((5, 5))), 0.0)
        npt.assert_array_equal(mask, np.eye(5, dtype=bool))

    def test_threshold_prunes(self):
        a = ad.constant([[0.0, 0.5], [0.5, 0.0]])
        npt.assert_array_equal(adj.neighbor_mask(a, 0.6), np.eye(2, dtype=bool))

    def test_rows_never_empty(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = ad.constant(np.maximum(rng.normal(size=(6, 6)), 0.0))
            mask = adj.neighbor_mask(a, rng.uniform(0, 2))
            assert mask.any(axis=1).all()
