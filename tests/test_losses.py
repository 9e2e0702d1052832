"""Contrastive pair loss and the six-term objective."""

import math

import numpy as np
import pytest

from spikefusion.errors import ConfigError, UsageError
from spikefusion.losses import SIMILARITY_KEYS, LossWeights, infonce_pair, total_loss
from spikefusion.tensor import Tensor

from helpers import (
    assert_zero_sign_inert,
    bytes_after_backward,
    reference_infonce_pair,
)

RNG = np.random.default_rng(606)


def _sim_set(rng=RNG, b=4):
    return {key: Tensor(rng.standard_normal((b, b)).astype(np.float32))
            for key in SIMILARITY_KEYS}


class TestInfonce:
    def test_hand_computed_identity_matrix(self):
        # B=2, S=I, tau=1: both directions give log(exp(-1)) = -1
        s = Tensor(np.eye(2, dtype=np.float32))
        loss = infonce_pair(s, temperature=1.0)
        np.testing.assert_allclose(float(loss.data), -1.0, rtol=1e-6)

    def test_constant_matrix_analytic(self):
        for b in (2, 3, 5):
            s = Tensor(np.full((b, b), 0.7, dtype=np.float32))
            loss = infonce_pair(s, temperature=0.5)
            np.testing.assert_allclose(float(loss.data), math.log(b - 1),
                                       atol=1e-5)

    def test_doubling_diagonal_strictly_decreases(self):
        s = RNG.standard_normal((4, 4)).astype(np.float32)
        np.fill_diagonal(s, np.abs(np.diag(s)) + 0.5)
        base = float(infonce_pair(Tensor(s), 0.5).data)
        boosted = s.copy()
        np.fill_diagonal(boosted, 2 * np.diag(s))
        assert float(infonce_pair(Tensor(boosted), 0.5).data) < base

    def test_small_batch_rejected(self):
        with pytest.raises(UsageError):
            infonce_pair(Tensor(np.ones((1, 1), dtype=np.float32)), 1.0)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(UsageError, match=r"square, got \(2, 3\)"):
            infonce_pair(Tensor(np.ones((2, 3), dtype=np.float32)), 1.0)

    def test_shift_invariance(self):
        s = RNG.standard_normal((5, 5)).astype(np.float32)
        a = float(infonce_pair(Tensor(s), 0.2).data)
        b = float(infonce_pair(Tensor(s + 3.25), 0.2).data)
        np.testing.assert_allclose(a, b, atol=1e-4)

    def test_float64_oracle(self):
        s = RNG.standard_normal((6, 6)).astype(np.float32)
        tau = 0.1
        s64 = s.astype(np.float64)

        def direction(mat):
            total = 0.0
            b = mat.shape[0]
            for i in range(b):
                acc = sum(math.exp((mat[i, j] - mat[i, i]) / tau)
                          for j in range(b) if j != i)
                total += math.log(acc)
            return total / b

        expected = 0.5 * (direction(s64) + direction(s64.T))
        got = float(infonce_pair(Tensor(s), tau).data)
        np.testing.assert_allclose(got, expected, rtol=1e-4)

    def test_sharp_temperature_stays_finite(self):
        s = RNG.standard_normal((8, 8)).astype(np.float32) * 2.0
        assert np.isfinite(float(infonce_pair(Tensor(s), 0.01).data))

    def test_gradient_pushes_diagonal_up(self):
        s = Tensor.param(RNG.standard_normal((4, 4)).astype(np.float32))
        infonce_pair(s, 0.5).backward()
        assert (np.diag(s.grad) < 0).all()  # raising S_ii lowers the loss


class TestInfonceNode:
    """``infonce_pair`` is one tape node over ``s``, bit for bit equal to the
    composed graph of two masked log-sum-exp directions."""

    @pytest.mark.parametrize("b", [2, 7, 9, 32])
    def test_bit_identical_to_composed_graph(self, b):
        # from B = 9 on, the transposed direction's gradient sums round
        # differently unless they keep the transposed view's layout
        s0 = np.random.default_rng(b).standard_normal((b, b)).astype(np.float32)
        runs = []
        for fn in (infonce_pair, reference_infonce_pair):
            s = Tensor.param(s0)
            runs.append(bytes_after_backward(fn(s, 0.05), np.float32(0.75), s))
        assert runs[0] == runs[1]

    def test_shared_matrix_bit_identical_to_composed_graph(self):
        s0 = np.random.default_rng(5).standard_normal((9, 9)).astype(np.float32)
        g = np.random.default_rng(6).standard_normal((9, 9)).astype(np.float32)
        g[::2, 1] = -0.0
        runs = []
        for fn in (infonce_pair, reference_infonce_pair):
            s = Tensor.param(s0)
            loss = (fn(s, 0.1) + (s * Tensor(g)).sum() + fn(s * 2.0, 0.3))
            runs.append(bytes_after_backward(loss, np.float32(1.0), s))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("b", [2, 9])
    def test_backward_ignores_the_sign_of_zero(self, b):
        # a scalar loss: the only zero upstream is the whole upstream
        s0 = np.random.default_rng(b).standard_normal((b, b)).astype(np.float32)
        assert_zero_sign_inert(lambda s: infonce_pair(s, 0.05), [s0],
                               np.float32(0.0))

    def test_one_node_over_the_matrix(self):
        s = Tensor.param(np.eye(3, dtype=np.float32))
        assert infonce_pair(s, 0.5)._parents == (s,)

    @pytest.mark.parametrize("temperature", [0.0, -0.5, float("nan")])
    def test_temperature_must_be_positive(self, temperature):
        with pytest.raises(UsageError, match="temperature must be > 0"):
            infonce_pair(Tensor(np.eye(3, dtype=np.float32)), temperature)


class TestTotalLoss:
    def test_lambda_one_isolates_early(self):
        sims = _sim_set()
        total, parts = total_loss(sims, LossWeights(lam=1.0, temperature=0.5))
        np.testing.assert_allclose(total.data, parts["early"].data, rtol=1e-6)

    def test_lambda_zero_isolates_late(self):
        sims = _sim_set()
        total, parts = total_loss(sims, LossWeights(lam=0.0, temperature=0.5))
        late = (parts["basic"].data + parts["fusion"].data
                + parts["inter"].data + parts["intra"].data)
        np.testing.assert_allclose(total.data, late, rtol=1e-6)

    def test_linear_in_lambda(self):
        sims = _sim_set()
        at = {}
        for lam in (0.0, 0.3, 0.7, 1.0):
            total, _ = total_loss(sims, LossWeights(lam=lam, temperature=0.5))
            at[lam] = float(total.data)
        for lam in (0.3, 0.7):
            np.testing.assert_allclose(
                at[lam], lam * at[1.0] + (1 - lam) * at[0.0], rtol=1e-5)

    def test_default_weights(self):
        w = LossWeights()
        assert w.lam == 0.5
        assert w.temperature == 0.01

    def test_missing_matrix_named(self):
        sims = _sim_set()
        del sims["intra_r"]
        with pytest.raises(UsageError, match="intra_r"):
            total_loss(sims, LossWeights())

    def test_zero_weight_terms_may_be_left_out(self):
        sims = _sim_set()
        for lam, absent in ((0.0, ["early"]), (1.0, list(SIMILARITY_KEYS[1:]))):
            weights = LossWeights(lam=lam, temperature=0.5)
            full, _ = total_loss(sims, weights)
            part = {k: v for k, v in sims.items() if k not in absent}
            total, parts = total_loss(part, weights)
            assert float(total.data) == float(full.data)
            zeroed = {"early"} if lam == 0.0 else {"basic", "fusion", "inter",
                                                  "intra"}
            for name in zeroed:
                assert float(parts[name].data) == 0.0

    def test_fused_matrices_may_be_left_out_together(self):
        sims = {k: _sim_set()[k] for k in ("early", "basic")}
        weights = LossWeights(lam=0.25, temperature=0.5)
        total, parts = total_loss(sims, weights)
        for name in ("fusion", "inter", "intra"):
            assert float(parts[name].data) == 0.0
        expected = (np.float32(0.25) * parts["early"].data
                    + (np.float32(1.0) - np.float32(0.25)) * parts["basic"].data)
        assert float(total.data) == float(expected)

    @pytest.mark.parametrize("lam, missing", [
        (0.5, "early"), (1.0, "early"), (0.5, "basic"), (0.0, "basic"),
        (1.0, "inter_re"), (0.5, "fusion"),
    ])
    def test_weighted_or_partial_matrices_still_required(self, lam, missing):
        sims = _sim_set()
        del sims[missing]
        with pytest.raises(UsageError, match=missing):
            total_loss(sims, LossWeights(lam=lam, temperature=0.5))

    def test_inter_and_intra_are_two_term_sums(self):
        sims = _sim_set()
        _, parts = total_loss(sims, LossWeights(lam=0.5, temperature=0.5))
        inter = (float(infonce_pair(sims["inter_er"], 0.5).data)
                 + float(infonce_pair(sims["inter_re"], 0.5).data))
        intra = (float(infonce_pair(sims["intra_e"], 0.5).data)
                 + float(infonce_pair(sims["intra_r"], 0.5).data))
        np.testing.assert_allclose(float(parts["inter"].data), inter, rtol=1e-6)
        np.testing.assert_allclose(float(parts["intra"].data), intra, rtol=1e-6)

    def test_invalid_weights(self):
        with pytest.raises(ConfigError):
            LossWeights(lam=1.5)
        with pytest.raises(ConfigError):
            LossWeights(temperature=0.0)
