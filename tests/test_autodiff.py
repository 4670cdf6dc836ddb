"""Tensor engine tests: forward oracles, gradient routing, FD agreement."""

import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from lgrin import autodiff as ad
from lgrin.errors import ContractError, ShapeError
from lgrin.objective import LossWeights, graph_learning_loss
from lgrin.training import registry_grads
from upstream import dot


def grad_of(build, params):
    """Run build() under a fresh tape and return loss plus gradient map."""
    with ad.GradTape() as tape:
        loss = build()
    return loss, ad.backward(loss, tape)


class TestConcat:
    def test_paper_width_law(self):
        m, p = 7, 11
        parts = [ad.constant(np.ones((m, 128))), ad.constant(np.ones((m, 64))),
                 ad.constant(np.ones((m, p)))]
        assert ad.concat_features(parts).shape == (m, 192 + p)

    def test_single_part_unchanged(self):
        x = np.arange(12.0).reshape(3, 4)
        npt.assert_array_equal(ad.concat_features([ad.constant(x)]).values, x)

    def test_roundtrip_slicing_bit_exact(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 5))
        out = ad.concat_features([ad.constant(a), ad.constant(b)]).values
        npt.assert_array_equal(out[:, :3], a)
        npt.assert_array_equal(out[:, 3:], b)

    def test_gradient_splits_upstream(self):
        a = ad.parameter(np.ones((2, 2)))
        b = ad.parameter(np.ones((2, 3)))
        weights = np.arange(10.0).reshape(2, 5)
        _, grads = grad_of(
            lambda: dot(ad.concat_features([a, b]), weights), [a, b])
        npt.assert_array_equal(grads[a], [[0, 1], [5, 6]])
        npt.assert_array_equal(grads[b], [[2, 3, 4], [7, 8, 9]])

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat_features([ad.constant(np.zeros((2, 2))),
                                ad.constant(np.zeros((3, 2)))])


class TestNeighborhoodMax:
    def test_all_true_mask_is_column_max(self):
        h = ad.constant([[1.0, 5.0], [2.0, 0.0], [3.0, 3.0]])
        out = ad.neighborhood_max(h, np.ones((3, 3), bool))
        npt.assert_array_equal(out.values, [[3, 5], [3, 5], [3, 5]])

    def test_identity_mask_passthrough(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 3))
        out = ad.neighborhood_max(ad.constant(h), np.eye(4, dtype=bool))
        npt.assert_array_equal(out.values, h)

    def test_hand_case(self):
        h = ad.constant([[1.0], [9.0]])
        mask = np.array([[True, True], [False, True]])
        npt.assert_array_equal(ad.neighborhood_max(h, mask).values, [[9.0], [9.0]])

    def test_empty_row_rejected(self):
        with pytest.raises(ContractError, match="empty neighborhood"):
            ad.neighborhood_max(ad.constant(np.zeros((2, 2))),
                                np.array([[True, False], [False, False]]))

    def test_matches_global_readout_when_fully_connected(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(6, 4))
        out = ad.neighborhood_max(ad.constant(h), np.ones((6, 6), bool)).values
        expected = np.tile(h.max(axis=0), (6, 1))
        npt.assert_array_equal(out, expected)

    def test_gradient_first_index_on_ties(self):
        h = ad.parameter([[2.0], [2.0], [1.0]])
        _, grads = grad_of(
            lambda: dot(ad.neighborhood_max(h, np.ones((3, 3), bool)), np.ones((3, 1))),
            [h])
        # all three rows see the tie between rows 0 and 1; row 0 wins
        npt.assert_array_equal(grads[h], [[3.0], [0.0], [0.0]])

    def test_gradient_against_brute_force(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(5, 4))
        mask = rng.random((5, 5)) > 0.4
        np.fill_diagonal(mask, True)
        weights = rng.normal(size=(5, 4))

        def loss_value(hv):
            out = np.empty_like(hv)
            for i in range(5):
                out[i] = hv[mask[i]].max(axis=0)
            return float((out * weights).sum())

        ht = ad.parameter(h)
        _, grads = grad_of(
            lambda: dot(ad.neighborhood_max(ht, mask), weights), [ht])
        fd = ad.finite_difference(loss_value, h.copy())
        npt.assert_allclose(grads[ht], fd, rtol=1e-6, atol=1e-9)


class TestReadout:
    def test_mean_hand(self):
        out = ad.readout(ad.constant([[1.0, 3.0], [3.0, 5.0]]), "mean")
        npt.assert_array_equal(out.values, [2.0, 4.0])

    def test_max_hand(self):
        out = ad.readout(ad.constant([[1.0, 3.0], [3.0, 5.0]]), "max")
        npt.assert_array_equal(out.values, [3.0, 5.0])

    def test_single_row_degenerate(self):
        h = ad.constant([[4.0, -1.0, 0.5]])
        npt.assert_array_equal(ad.readout(h, "max").values,
                               ad.readout(h, "mean").values)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            h = rng.normal(size=(6, 5))
            perm = rng.permutation(6)
            npt.assert_array_equal(ad.readout(ad.constant(h), "max").values,
                                   ad.readout(ad.constant(h[perm]), "max").values)
            # mean is invariant up to float summation order
            npt.assert_allclose(ad.readout(ad.constant(h), "mean").values,
                                ad.readout(ad.constant(h[perm]), "mean").values,
                                rtol=1e-14, atol=1e-15)

    def test_unknown_mode(self):
        with pytest.raises(ContractError):
            ad.readout(ad.constant(np.zeros((2, 2))), "sum")


class TestWeightedReadout:
    def test_selector_vector(self):
        h = ad.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ad.weighted_readout(h, ad.constant([1.0, 0.0, 0.0]))
        npt.assert_array_equal(out.values, [1.0, 2.0])

    def test_zero_weights(self):
        h = ad.constant(np.ones((3, 4)))
        out = ad.weighted_readout(h, ad.constant(np.zeros(3)))
        npt.assert_array_equal(out.values, np.zeros(4))

    def test_hand_average(self):
        h = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        out = ad.weighted_readout(h, ad.constant([0.5, 0.5]))
        npt.assert_array_equal(out.values, [2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            ad.weighted_readout(ad.constant(np.zeros((3, 2))),
                                ad.constant(np.zeros(2)))

    def test_gradients_both_sides(self):
        h = ad.parameter([[1.0, 2.0], [3.0, 4.0]])
        p = ad.parameter([2.0, -1.0])
        _, grads = grad_of(lambda: dot(ad.weighted_readout(h, p), np.ones(2)), [h, p])
        npt.assert_array_equal(grads[h], [[2.0, 2.0], [-1.0, -1.0]])
        npt.assert_array_equal(grads[p], [3.0, 7.0])


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.cross_entropy_logits(ad.constant(np.zeros(4)), 2)
        assert abs(loss.item() - math.log(4.0)) < 1e-12

    def test_saturated_correct_class(self):
        loss = ad.cross_entropy_logits(ad.constant([100.0, 0.0, 0.0]), 0)
        assert loss.item() < 1e-6

    def test_two_way(self):
        loss = ad.cross_entropy_logits(ad.constant([0.0, 0.0]), 0)
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            ad.cross_entropy_logits(ad.constant([0.0, 0.0]), 2)
        with pytest.raises(IndexError):
            ad.cross_entropy_logits(ad.constant([0.0, 0.0]), -1)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = ad.parameter([1.0, -2.0, 0.5])
        _, grads = grad_of(lambda: ad.cross_entropy_logits(logits, 1), [logits])
        exps = np.exp(logits.values - logits.values.max())
        expected = exps / exps.sum()
        expected[1] -= 1.0
        npt.assert_allclose(grads[logits], expected, rtol=1e-12)

    def test_large_logits_stay_finite(self):
        loss = ad.cross_entropy_logits(ad.constant([1e8, -1e8, 0.0]), 1)
        assert np.isfinite(loss.values)


class TestBackward:
    def test_sum_gives_ones(self):
        w = ad.parameter(np.arange(6.0).reshape(2, 3))
        _, grads = grad_of(lambda: dot(w, np.ones((2, 3))), [w])
        npt.assert_array_equal(grads[w], np.ones((2, 3)))

    def test_frobenius_square_gives_2w(self):
        rng = np.random.default_rng(5)
        wv = rng.normal(size=(3, 3))
        w = ad.parameter(wv)
        frobenius = LossWeights(lambda1=0.0, lambda2=1.0, lambda3=0.0)
        _, grads = grad_of(
            lambda: graph_learning_loss(w, np.zeros((3, 3)), None, frobenius), [w])
        npt.assert_allclose(grads[w], 2.0 * wv, rtol=1e-15)

    def test_off_path_parameter_gets_zeros(self):
        used = ad.parameter(np.ones(3))
        unused = ad.parameter(np.ones(2))
        with ad.GradTape() as tape:
            dot(unused, np.ones(2))  # on the tape, but off the loss's path
            loss = dot(used, np.ones(3))
        grads = ad.backward(loss, tape)
        assert list(grads) == [used]
        # the optimizer's view: every registry entry, zeros where unreached
        arrays = registry_grads({"used": used, "unused": unused}, grads)
        npt.assert_array_equal(arrays["unused"], np.zeros(2))
        npt.assert_array_equal(arrays["used"], np.ones(3))

    def test_non_scalar_loss_rejected(self):
        w = ad.parameter(np.ones(3))
        with ad.GradTape() as tape:
            out = ad.add(w, w)
        with pytest.raises(ContractError):
            ad.backward(out, tape)

    def test_add_rejects_different_shapes(self):
        # a matrix plus a row vector is not broadcast
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3,\)"):
            ad.add(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros(3)))

    def test_shared_parameter_accumulates(self):
        w = ad.parameter([2.0])

        def build():
            return ad.add(dot(w, [3.0]), dot(ad.add(w, w), [1.0]))

        _, grads = grad_of(build, [w])
        npt.assert_array_equal(grads[w], [5.0])  # 3 + 1 + 1

    def test_repeated_uses_sum_without_touching_shared_arrays(self):
        # add hands the same upstream array to both operands; x then gets
        # two more terms, which must not leak into z's gradient
        x = ad.parameter([1.0, 2.0])
        z = ad.parameter([3.0, 4.0])
        c = np.array([2.0, 3.0])

        def build():
            return ad.add(ad.add(dot(ad.add(x, z), c), dot(x, c)), dot(x, np.ones(2)))

        _, grads = grad_of(build, [x, z])
        npt.assert_array_equal(grads[x], [5.0, 7.0])  # 2c + 1
        npt.assert_array_equal(grads[z], [2.0, 3.0])

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            wv = rng.uniform(-2.0, 2.0, size=(4, 3))
            bv = rng.uniform(-2.0, 2.0, size=3)
            xv = rng.uniform(-2.0, 2.0, size=(5, 4))
            cv = rng.uniform(-2.0, 2.0, size=(5, 3))
            # keep clear of ReLU kinks so central differences are valid
            if np.min(np.abs(xv @ wv + bv)) < 1e-3:
                continue
            w = ad.parameter(wv.copy())
            b = ad.parameter(bv.copy())

            def build():
                h = ad.relu_affine(ad.constant(xv), w, b)
                return ad.add(dot(h, cv),
                              ad.cross_entropy_logits(ad.readout(h, "mean"), 1))

            _, grads = grad_of(build, [w, b])

            def loss_w(values):
                h = np.maximum(xv @ values + bv, 0.0)
                mean = h.mean(axis=0)
                ce = (np.log(np.exp(mean - mean.max()).sum())
                      + mean.max() - mean[1])
                return float((h * cv).sum() + ce)

            fd = ad.finite_difference(loss_w, wv.copy())
            rel = np.abs(grads[w] - fd) / np.maximum(
                np.maximum(np.abs(fd), np.abs(grads[w])), 1e-3)
            assert rel.max() < 1e-4


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 4))

        def run():
            h = ad.relu_affine(ad.constant(x), ad.constant(w))
            return ad.readout(h, "max").values

        npt.assert_array_equal(run(), run())

    def test_forward_values_finite_on_finite_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.uniform(-10, 10, size=(4, 3))
            w = rng.uniform(-10, 10, size=(3, 3))
            h = ad.relu_affine(ad.constant(x), ad.constant(w))
            out = ad.concat_features([ad.readout(h, "max"), ad.readout(h, "mean")])
            assert np.all(np.isfinite(out.values))


class TestTapeMechanics:
    def test_leaf_registration_order_and_uniqueness(self):
        a = ad.parameter(np.ones(2))
        b = ad.parameter(np.ones(2))
        with ad.GradTape() as tape:
            loss = dot(ad.add(b, ad.add(a, b)), np.ones(2))  # b used twice
        grads = ad.backward(loss, tape)
        # only leaves remain, each once, in the order the reverse pass
        # first reached them; b's two uses are summed
        assert list(grads) == [b, a]
        npt.assert_array_equal(grads[b], [2.0, 2.0])
        npt.assert_array_equal(grads[a], [1.0, 1.0])

    def test_nodes_topologically_ordered(self):
        a = ad.parameter(np.ones(2))
        with ad.GradTape() as tape:
            out = ad.add(ad.add(a, a), a)
            dot(out, np.ones(2))
        outputs = {id(node.output) for node in tape.nodes}
        produced = set()
        for node in tape.nodes:
            for t in node.inputs:
                assert id(t) not in outputs or id(t) in produced
            produced.add(id(node.output))

    def test_no_tape_forward_still_computes(self):
        out = ad.relu_affine(ad.constant([[-1.0], [1.0]]), ad.constant([[1.0]]))
        npt.assert_array_equal(out.values, [[0.0], [1.0]])
        assert ad.active_tape() is None and not out.requires_grad


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Four 3 MiB arrays allocated and freed 20 times, after one warm-up round. A
# 3 MiB array stays below numpy's 4 MiB huge-page madvise, so base pages are
# counted: each array that goes back to the kernel costs 768 faults to touch.
_CHURN = """
import resource
import numpy as np
import lgrin

def churn():
    for _ in range(20):
        arrays = [np.ones(3 << 17) for _ in range(4)]
        del arrays

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
def test_freed_arrays_stay_in_the_heap():
    """Importing lgrin pins glibc's mmap and trim thresholds, so arrays of a
    size freed before are served again from resident heap pages instead of
    being unmapped or trimmed and then faulted in again."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHURN],
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, check=True)
    faults = int(proc.stdout)
    assert faults < 768, f"{faults} minor page faults for arrays freed before"
