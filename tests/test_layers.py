"""Layer-level oracles: convolution, inception widths, pooling, baseline."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from lgrin import adjacency as adj
from lgrin import autodiff as ad
from lgrin import layers as L
from lgrin.errors import ContractError
from lgrin.model import ModelConfig, build_lgrin
from upstream import dot


def identity_mlp(width):
    return (ad.constant(np.eye(width)), ad.constant(np.zeros(width)),
            ad.constant(np.eye(width)), ad.constant(np.zeros(width)))


def initial_pooling(m):
    """The pooling weights exactly as training starts from them."""
    config = ModelConfig(m=m, p=1, c=2, inception_layers=1, etas=[(1, 1)])
    return build_lgrin(config).registry["pooling.p"]


def init_layer(f_in, etas, rng):
    return [L.init_branch(f_in, eta, rng) for eta in etas]


def gstar_conv(a, h, mlp):
    """ReLU(MLP(A @ H)) as an inception layer's first branch computes it:
    that branch's columns of the layer's output."""
    m = h.shape[0]
    out = L.inception_layer(h, a, mlp, mlp, np.eye(m, dtype=bool))
    return out.values[..., :mlp[0].shape[1]]


class TestGstarConv:
    def test_zero_adjacency_zero_biases(self):
        rng = np.random.default_rng(0)
        mlp = L.init_branch(3, 4, rng)
        h = ad.constant(rng.normal(size=(5, 3)))
        out = gstar_conv(ad.constant(np.zeros((5, 5))), h, mlp)
        npt.assert_array_equal(out, np.zeros((5, 4)))

    def test_identity_configuration_passthrough(self):
        rng = np.random.default_rng(1)
        h = np.abs(rng.normal(size=(4, 3)))
        out = gstar_conv(ad.constant(np.eye(4)), ad.constant(h), identity_mlp(3))
        npt.assert_array_equal(out, h)

    def test_hand_swap_case(self):
        h = ad.constant([[1.0], [2.0]])
        a = ad.constant([[0.0, 1.0], [1.0, 0.0]])
        out = gstar_conv(a, h, identity_mlp(1))
        npt.assert_array_equal(out, [[2.0], [1.0]])

    def test_output_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            mlp = L.init_branch(4, 6, rng)
            h = ad.constant(rng.normal(size=(5, 4)))
            a = ad.constant(np.abs(rng.normal(size=(5, 5))))
            assert gstar_conv(a, h, mlp).min() >= 0.0

    def test_output_width_is_eta(self):
        rng = np.random.default_rng(3)
        mlp = L.init_branch(7, 11, rng)
        out = gstar_conv(ad.constant(np.zeros((4, 4))), ad.constant(np.zeros((4, 7))), mlp)
        assert out.shape == (4, 11)


class TestInceptionLayer:
    def make_layer(self, f_in, etas, seed=0):
        return init_layer(f_in, etas, np.random.default_rng(seed))

    def test_facial_width_law(self):
        m, p = 9, 136
        layer = self.make_layer(p, (128, 64))
        out = L.inception_layer(ad.constant(np.zeros((m, p))),
                                ad.constant(np.zeros((m, m))), *layer,
                                np.eye(m, dtype=bool))
        assert out.shape == (m, 128 + 64 + p)

    def test_stacked_width_law(self):
        m = 5
        rng = np.random.default_rng(4)
        h = ad.constant(rng.normal(size=(m, 136)))
        a = ad.constant(np.abs(rng.normal(size=(m, m))))
        mask = np.ones((m, m), bool)
        h1 = L.inception_layer(h, a, *self.make_layer(136, (128, 64)), mask)
        assert h1.shape == (m, 328)
        h2 = L.inception_layer(h1, a, *self.make_layer(328, (128, 64)), mask)
        assert h2.shape == (m, 520)

    def test_width_law_generic(self):
        m = 4
        for f_in, etas in [(10, (16, 32)), (5, (3, 7)), (2, (1, 1))]:
            layer = self.make_layer(f_in, etas)
            out = L.inception_layer(ad.constant(np.zeros((m, f_in))),
                                    ad.constant(np.zeros((m, m))), *layer,
                                    np.eye(m, dtype=bool))
            assert out.shape == (m, etas[0] + etas[1] + f_in)

    def test_identity_mask_third_branch_is_input(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(6, 4))
        layer = self.make_layer(4, (8, 3))
        out = L.inception_layer(ad.constant(h),
                                ad.constant(np.abs(rng.normal(size=(6, 6)))),
                                *layer, np.eye(6, dtype=bool))
        npt.assert_array_equal(out.values[:, 11:], h)

    def test_fully_connected_max_branch_is_global(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=(6, 4))
        a = np.abs(rng.normal(size=(6, 6))) + 0.1  # strictly positive
        mask = adj.neighbor_mask(ad.constant(a), 0.0)
        layer = self.make_layer(4, (2, 2))
        out = L.inception_layer(ad.constant(h), ad.constant(a), *layer, mask)
        npt.assert_array_equal(out.values[:, 4:],
                               np.tile(h.max(axis=0), (6, 1)))


class TestPoolingLayer:
    def test_learnable_full_width(self):
        q = 520
        h = ad.constant(np.zeros((7, q)))
        pool = initial_pooling(7)
        assert L.pooling_layer(h, pool, "learnable_full").shape == (3 * q,)

    def test_constant_rows_with_zero_weights(self):
        v = np.array([2.0, -1.0, 0.5])
        h = ad.constant(np.tile(v, (4, 1)))
        pool = ad.constant(np.zeros(4))
        out = L.pooling_layer(h, pool, "learnable_full").values
        npt.assert_array_equal(out, np.concatenate([v, np.zeros(3), v]))

    def test_max_equals_mean_for_single_node(self):
        h = ad.constant([[3.0, -2.0]])
        npt.assert_array_equal(L.pooling_layer(h, None, "max").values,
                               L.pooling_layer(h, None, "mean").values)

    def test_first_q_slots_are_the_max_readout(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(5, 9))
        pool = initial_pooling(5)
        full = L.pooling_layer(ad.constant(h), pool, "learnable_full").values
        npt.assert_array_equal(full[:9], ad.readout(ad.constant(h), "max").values)

    def test_initial_weighted_slot_equals_mean(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(6, 4))
        pool = initial_pooling(6)  # starts at 1/M
        full = L.pooling_layer(ad.constant(h), pool, "learnable_full").values
        npt.assert_allclose(full[4:8], h.mean(axis=0), rtol=1e-12)

    def test_learnable_without_params_rejected(self):
        with pytest.raises(ContractError):
            L.pooling_layer(ad.constant(np.zeros((3, 2))), None, "learnable_full")


class TestGcnLayer:
    def test_identity_case(self):
        rng = np.random.default_rng(9)
        h = np.abs(rng.normal(size=(4, 3)))
        out = L.gcn_layer(ad.constant(h), ad.constant(np.eye(4)),
                          ad.constant(np.eye(3)))
        npt.assert_array_equal(out.values, h)

    def test_zero_weights(self):
        out = L.gcn_layer(ad.constant(np.ones((3, 2))),
                          ad.constant(np.ones((3, 3))),
                          ad.constant(np.zeros((2, 2))))
        npt.assert_array_equal(out.values, np.zeros((3, 2)))

    def test_path3_hand_chain(self):
        a_hat = adj.renormalized_adjacency(adj.fixed_adjacency("binary", 3))
        h = ad.constant([[1.0], [0.0], [0.0]])
        out = L.gcn_layer(h, a_hat, ad.constant([[1.0]]))
        npt.assert_allclose(out.values,
                            [[0.5], [1.0 / math.sqrt(6.0)], [0.0]],
                            atol=1e-12)
        assert abs(out.values[1, 0] - 0.408248) < 1e-6


class TestLayerGradients:
    def test_all_parameters_pass_finite_differences(self):
        m, f_in = 4, 3
        # deterministic search for a kink-free point, as the gradient
        # checker does: central differences are invalid at ReLU/max kinks
        for seed in range(10, 40):
            rng = np.random.default_rng(seed)
            layer = init_layer(f_in, (5, 2), rng)
            hv = rng.uniform(-2, 2, size=(m, f_in))
            av = np.abs(rng.normal(size=(m, m))) + 0.05
            mask = np.ones((m, m), bool)
            coefs = rng.normal(size=(m, 5 + 2 + f_in))
            with ad.GradTape(track_kinks=True) as tape:
                out = L.inception_layer(ad.constant(hv), ad.constant(av),
                                        *layer, mask)
                loss = dot(out, coefs)
            if tape.kink_margin() > 1e-3:
                break
        else:
            pytest.fail("no kink-free point found")
        grads = ad.backward(loss, tape)

        params = {f"b{b}.{n}": t for b, branch in enumerate(layer, start=1)
                  for n, t in zip(L.BRANCH_KEYS, branch)}

        def loss_value(_):
            out = L.inception_layer(ad.constant(hv), ad.constant(av), *layer, mask)
            return dot(out, coefs).item()

        for name, tensor in params.items():
            fd = ad.finite_difference(loss_value, tensor.values)
            analytic = grads[tensor]
            rel = np.abs(analytic - fd) / np.maximum(
                np.maximum(np.abs(analytic), np.abs(fd)), 1e-3)
            assert rel.max() < 1e-4, name
