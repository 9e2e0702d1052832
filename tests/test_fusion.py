"""Spike fusion mechanisms: comb masking, cross attention, concat attention."""

import numpy as np
import pytest

from spikefusion.energy import recording
from spikefusion.errors import ConfigError
from spikefusion.fusion import (
    ConcatSelfAttention,
    FusionConfig,
    SpikeCrossAttention,
    SpikeFusion,
    comb_mask,
    qkv_attention,
)
from spikefusion.neurons import LIFParams
from spikefusion.tensor import Tensor

RNG = np.random.default_rng(4242)
LIF = LIFParams()
UNIT_LIF = LIFParams(tau=1.0, v_th=1.0, v_reset=0.0)  # fires iff drive >= 1


def binary(shape, p=0.4, rng=RNG):
    return (rng.random(shape) < p).astype(np.float32)


def multiplies(op, *args):
    """Multiply count ``op(*args)`` writes into the op ledger."""
    with recording() as layers:
        op(*args)
    return sum(l.flops for l in layers)


class TestCombMask:
    def test_zero_queries_silence_everything(self):
        q = Tensor(np.zeros((2, 2, 4, 3), dtype=np.float32))
        k = Tensor(binary((2, 2, 4, 3), p=0.8))
        out = comb_mask(q, k, h=2, lif=UNIT_LIF)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_all_ones_combs_reproduce_keys(self):
        q = Tensor(np.ones((1, 2, 4, 3), dtype=np.float32))
        k = Tensor(binary((1, 2, 4, 3), p=0.5))
        out = comb_mask(q, k, h=2, lif=UNIT_LIF)
        np.testing.assert_array_equal(out.data, k.data)

    def test_hand_case(self):
        # L=2, h=2, D=2 with a unit-tau neuron: head sums [1,0] and [0,1]
        # spike into combs [[1,0],[0,1]]; all-ones keys keep exactly those
        q = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]],
                            dtype=np.float32).reshape(1, 1, 2, 2))
        k = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        out = comb_mask(q, k, h=2, lif=UNIT_LIF)
        np.testing.assert_array_equal(
            out.data.reshape(2, 2), [[1.0, 0.0], [0.0, 1.0]])

    def test_output_never_exceeds_keys(self):
        q = Tensor(binary((2, 3, 6, 4)))
        k = Tensor(binary((2, 3, 6, 4)))
        out = comb_mask(q, k, h=3, lif=LIF)
        assert (out.data <= k.data).all()

    def test_divisibility_enforced(self):
        q = Tensor(binary((1, 1, 5, 4)))
        k = Tensor(binary((1, 1, 6, 4)))
        with pytest.raises(ConfigError):
            comb_mask(q, k, h=2, lif=LIF)

    def test_multiply_count_scales_linearly_in_n(self):
        t, b, nl, d, h = 2, 3, 6, 8, 2
        counts = {}
        for nn in (8, 16):
            counts[nn] = multiplies(comb_mask, Tensor(binary((t, b, nl, d))),
                                    Tensor(binary((t, b, nn, d))), h, LIF)
        assert counts[16] == 2 * counts[8]

    def test_comb_head_divisors_of_36(self):
        # 36 tokens per side admit exactly these head counts > 1
        for h in (2, 3, 4, 6, 9, 12, 18):
            FusionConfig(kind="scca", h=h).check_token_counts(36, 36)
        with pytest.raises(ConfigError):
            FusionConfig(kind="scca", h=5).check_token_counts(36, 36)


class TestQkvAttention:
    def test_binary_gram_matches_popcount(self):
        q = binary((2, 1, 4, 8))
        k = binary((2, 1, 5, 8))
        v = binary((2, 1, 5, 8))
        out = qkv_attention(Tensor(q), Tensor(k), Tensor(v)).data
        expected = np.einsum("tbld,tbnd,tbne->tble", q, k, v)
        np.testing.assert_array_equal(out, expected)

    def test_zero_values_zero_output(self):
        q = Tensor(binary((1, 1, 3, 4)))
        k = Tensor(binary((1, 1, 3, 4)))
        v = Tensor(np.zeros((1, 1, 3, 4), dtype=np.float32))
        np.testing.assert_array_equal(qkv_attention(q, k, v).data, 0.0)

    def test_both_association_orders_agree_exactly(self):
        # force each branch by shaping the cost comparison
        for nq, nk, d in ((16, 16, 2), (2, 2, 16)):
            q = binary((1, 1, nq, d))
            k = binary((1, 1, nk, d))
            v = binary((1, 1, nk, d))
            outer = np.einsum("tbld,tbnd->tbln", q, k) @ v
            inner = q @ np.einsum("tbnd,tbne->tbde", k, v)
            np.testing.assert_array_equal(outer, inner)
            out = qkv_attention(Tensor(q), Tensor(k), Tensor(v)).data
            np.testing.assert_array_equal(out, outer)

    def test_sca_multiply_count_follows_min_association(self):
        # ledger cost at sizes N and 2N equals min(2 N^2 D, 2 N D^2) exactly
        d = 8
        for nn in (4, 8):
            q = binary((2, 1, nn, d))
            count = multiplies(qkv_attention, Tensor(q), Tensor(q.copy()),
                               Tensor(q.copy()))
            expected = 2 * min(2 * nn * nn * d, 2 * nn * d * d)
            assert count == expected, nn

    def test_association_choice_minimizes_multiplies(self):
        wide = [Tensor(binary((1, 1, 4, 32))) for _ in range(3)]
        # (Q K^T) V: 2*4*4*32 = 1024 < (4+4)*32*32 = 8192
        assert multiplies(qkv_attention, *wide) == 1024
        tall = [Tensor(binary((1, 1, 32, 4))) for _ in range(3)]
        # Q (K^T V): (32+32)*4*4 = 1024 < 2*32*32*4 = 8192
        assert multiplies(qkv_attention, *tall) == 1024


class TestSpikeCrossAttention:
    def test_output_keeps_query_token_count(self):
        sca = SpikeCrossAttention(8, LIF, np.random.default_rng(0))
        x_q = Tensor(binary((2, 2, 5, 8)))
        x_kv = Tensor(binary((2, 2, 7, 8)))
        out = sca(x_q, x_kv, train=True)
        assert out.shape == (2, 2, 5, 8)
        assert set(np.unique(out.data)) <= {0.0, 1.0}


class TestConcatSelfAttention:
    def test_block_decomposition_identity(self):
        """Concatenated attention equals the four-term block formula exactly."""
        for case in range(20):
            rng = np.random.default_rng(9000 + case)
            t, b, nn, nl, d = 2, 2, 3, 4, 6
            q_r = binary((t, b, nn, d), rng=rng)
            q_e = binary((t, b, nl, d), rng=rng)
            k_r = binary((t, b, nn, d), rng=rng)
            k_e = binary((t, b, nl, d), rng=rng)
            v_r = binary((t, b, nn, d), rng=rng)
            v_e = binary((t, b, nl, d), rng=rng)
            q = np.concatenate([q_r, q_e], axis=2)
            k = np.concatenate([k_r, k_e], axis=2)
            v = np.concatenate([v_r, v_e], axis=2)
            out = qkv_attention(Tensor(q), Tensor(k), Tensor(v)).data

            # four-term formula, computed independently with einsum
            def attn(a, kk, vv):
                return np.einsum("tbld,tbnd,tbne->tble", a, kk, vv)
            r_expected = attn(q_r, k_r, v_r) + attn(q_r, k_e, v_e)
            e_expected = attn(q_e, k_e, v_e) + attn(q_e, k_r, v_r)
            np.testing.assert_array_equal(out[:, :, :nn], r_expected)
            np.testing.assert_array_equal(out[:, :, nn:], e_expected)

    def test_empty_text_degenerates_to_self_attention(self):
        t, b, nn, d = 2, 1, 4, 6
        r = binary((t, b, nn, d))
        e = np.zeros((t, b, 0, d), dtype=np.float32)
        out = qkv_attention(Tensor(np.concatenate([r, e], axis=2)),
                            Tensor(np.concatenate([r, e], axis=2)),
                            Tensor(np.concatenate([r, e], axis=2))).data
        solo = qkv_attention(Tensor(r), Tensor(r), Tensor(r)).data
        np.testing.assert_array_equal(out[:, :, :nn], solo)

    def test_module_output_shapes(self):
        scsa = ConcatSelfAttention(8, LIF, np.random.default_rng(0))
        r_bar, e_bar = scsa(Tensor(binary((2, 2, 4, 8))),
                            Tensor(binary((2, 2, 6, 8))), train=True)
        assert r_bar.shape == (2, 2, 4, 8)
        assert e_bar.shape == (2, 2, 6, 8)


class TestSpikeFusion:
    def _spikes(self, n_tokens, seed=0):
        return Tensor(binary((2, 3, n_tokens, 8),
                             rng=np.random.default_rng(seed)))

    @pytest.mark.parametrize("kind", ["scca", "sca", "scsa"])
    def test_fuse_and_pool_shapes(self, kind):
        fusion = SpikeFusion(FusionConfig(kind=kind, h=2), d=8, t=2, lif=LIF,
                             rng=np.random.default_rng(1))
        r_bar, e_bar = fusion.fuse_and_pool(self._spikes(4, 1),
                                            self._spikes(6, 2))
        assert r_bar.shape == (3, 4, 8)
        assert e_bar.shape == (3, 6, 8)
        assert fusion.call_count == 1

    def test_zero_spikes_give_zero_embeddings(self):
        fusion = SpikeFusion(FusionConfig(kind="scca", h=2), d=8, t=2, lif=LIF,
                             rng=np.random.default_rng(1))
        zeros_r = Tensor(np.zeros((2, 3, 4, 8), dtype=np.float32))
        zeros_e = Tensor(np.zeros((2, 3, 6, 8), dtype=np.float32))
        r_bar, e_bar = fusion.fuse_and_pool(zeros_r, zeros_e)
        np.testing.assert_array_equal(r_bar.data, 0.0)
        np.testing.assert_array_equal(e_bar.data, 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FusionConfig(kind="gated", h=2)

    def test_default_head_count(self):
        assert FusionConfig().h == 6
