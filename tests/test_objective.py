"""Loss oracles: brute-force evaluation of every objective term."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from lgrin import autodiff as ad
from lgrin.adjacency import effective_adjacency, structure_matrix
from lgrin.errors import ConfigError, ContractError, ShapeError
from lgrin.objective import LossWeights, graph_learning_loss


def brute_force_gl(a, a_d, p, w):
    """Triple-loop evaluation of the graph learning loss."""
    m = a.shape[0]
    locality = 0.0
    frobenius = 0.0
    for i in range(m):
        for j in range(m):
            locality += a_d[i, j] * a[i, j]
            frobenius += a[i, j] * a[i, j]
    pooling = sum(float(x) * float(x) for x in p)
    return w.lambda1 * locality + w.lambda2 * frobenius + w.lambda3 * pooling


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.lambda1, w.lambda2, w.lambda3) == (0.1, 0.1, 1e-4)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(lambda1=-0.1)


class TestClassificationLoss:
    def test_single_uniform(self):
        loss = ad.cross_entropy_logits(ad.constant(np.zeros((1, 4))), [0])
        assert abs(loss.item() - math.log(4.0)) < 1e-12

    def test_sum_linearity(self):
        row = [1.0, -0.5, 2.0]
        one = ad.cross_entropy_logits(ad.constant([row]), [2]).item()
        two = ad.cross_entropy_logits(ad.constant([row, row]), [2, 2]).item()
        assert abs(two - 2.0 * one) < 1e-12

    def test_saturated_batch(self):
        batch = ad.constant([[50.0, 0.0], [0.0, 50.0]])
        assert ad.cross_entropy_logits(batch, [0, 1]).item() < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy_logits(ad.constant(np.zeros((1, 2))), [0, 1])


class TestGraphLearningLoss:
    def test_locality_term_all_ones(self):
        a = ad.constant(np.ones((3, 3)))
        p = ad.constant(np.zeros(3))
        w = LossWeights(lambda1=1.0, lambda2=0.0, lambda3=0.0)
        loss = graph_learning_loss(a, structure_matrix(3), p, w)
        assert loss.item() == 12.0  # sum of (i-j)^2 over a 3x3 grid

    def test_zero_inputs(self):
        loss = graph_learning_loss(ad.constant(np.zeros((4, 4))),
                                   structure_matrix(4),
                                   ad.constant(np.zeros(4)), LossWeights())
        assert loss.item() == 0.0

    def test_frobenius_all_ones(self):
        w = LossWeights(lambda1=0.0, lambda2=1.0, lambda3=0.0)
        loss = graph_learning_loss(ad.constant(np.ones((3, 3))),
                                   structure_matrix(3),
                                   ad.constant(np.zeros(3)), w)
        assert loss.item() == 9.0

    def test_diagonal_adjacency_kills_locality(self):
        w = LossWeights(lambda1=5.0, lambda2=0.0, lambda3=0.0)
        loss = graph_learning_loss(ad.constant(3.0 * np.eye(6)),
                                   structure_matrix(6),
                                   ad.constant(np.zeros(6)), w)
        assert loss.item() == 0.0

    def test_matches_triple_loop_up_to_m16(self):
        rng = np.random.default_rng(0)
        for m in (2, 5, 11, 16):
            a = np.abs(rng.normal(size=(m, m)))
            a = (a + a.T) / 2
            p = rng.normal(size=m)
            w = LossWeights(*rng.uniform(0, 2, size=3))
            got = graph_learning_loss(ad.constant(a), structure_matrix(m),
                                      ad.constant(p), w).item()
            expected = brute_force_gl(a, structure_matrix(m), p, w)
            assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))

    def test_transposition_invariance(self):
        rng = np.random.default_rng(1)
        a = np.abs(rng.normal(size=(7, 7)))
        p = rng.normal(size=7)
        w = LossWeights()
        lhs = graph_learning_loss(ad.constant(a), structure_matrix(7),
                                  ad.constant(p), w).item()
        rhs = graph_learning_loss(ad.constant(a.T), structure_matrix(7),
                                  ad.constant(p), w).item()
        assert abs(lhs - rhs) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            graph_learning_loss(ad.constant(np.zeros((3, 3))),
                                structure_matrix(4),
                                ad.constant(np.zeros(3)), LossWeights())
        with pytest.raises(ShapeError):
            graph_learning_loss(ad.constant(np.zeros((3, 3))),
                                structure_matrix(3),
                                ad.constant(np.zeros(4)), LossWeights())

    def test_needs_adjacency_or_pooling(self):
        with pytest.raises(ContractError):
            graph_learning_loss(None, structure_matrix(3), None, LossWeights())


class TestTotalLoss:
    def test_pooling_term_gradient_closed_form(self):
        # the lambda3 ||p||^2 term alone: analytic gradient is exactly
        # 2 * lambda3 * p, and central differences agree very tightly
        # (the function is quadratic, so truncation error vanishes)
        p_values = np.array([1 / 6.0] * 6)
        w = LossWeights(lambda1=0.0, lambda2=0.0, lambda3=1e-4)
        p = ad.parameter(p_values.copy())
        with ad.GradTape() as tape:
            loss = graph_learning_loss(ad.constant(np.zeros((6, 6))),
                                       structure_matrix(6), p, w)
        analytic = ad.backward(loss, tape)[p]
        npt.assert_allclose(analytic, 2.0 * 1e-4 * p_values, rtol=1e-14)

        def f(values):
            return 1e-4 * float((values * values).sum())

        fd = ad.finite_difference(f, p_values.copy())
        assert np.max(np.abs(analytic - fd)) < 1e-8

    def test_adjacency_terms_gradient_closed_form(self):
        # lambda1 * sum(A_d o A) + lambda2 * ||A||^2: the gradient is
        # 2 * lambda2 * A + lambda1 * A_d, with the same bits (doubling is exact)
        rng = np.random.default_rng(3)
        a_values = np.abs(rng.normal(size=(6, 6)))
        w = LossWeights(lambda1=0.3, lambda2=0.7, lambda3=0.0)
        a = ad.parameter(a_values.copy())
        with ad.GradTape() as tape:
            loss = graph_learning_loss(a, structure_matrix(6), None, w)
        analytic = ad.backward(loss, tape)[a]
        npt.assert_array_equal(analytic, 2.0 * 0.7 * a_values + 0.3 * structure_matrix(6))

    def test_gradients_flow_through_effective_adjacency(self):
        rng = np.random.default_rng(2)
        raw_values = rng.normal(size=(5, 5))
        # keep the symmetrized entries away from the relu kink
        sym = (raw_values + raw_values.T) / 2
        raw_values += np.sign(sym) * 0.01
        raw = ad.parameter(raw_values.copy())
        p = ad.parameter(rng.normal(size=5))
        w = LossWeights(lambda1=0.7, lambda2=0.3, lambda3=0.2)
        a_d = structure_matrix(5)

        with ad.GradTape(track_kinks=True) as tape:
            a_eff = effective_adjacency(raw)
            loss = graph_learning_loss(a_eff, a_d, p, w)
        assert tape.kink_margin() > 1e-3
        grads = ad.backward(loss, tape)

        def loss_at(values):
            eff = np.maximum((values + values.T) / 2, 0.0)
            return brute_force_gl(eff, a_d, p.values, w)

        fd = ad.finite_difference(loss_at, raw_values.copy())
        rel = np.abs(grads[raw] - fd) / np.maximum(
            np.maximum(np.abs(fd), np.abs(grads[raw])), 1e-3)
        assert rel.max() < 1e-4
