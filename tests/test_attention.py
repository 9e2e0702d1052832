"""Spike self-attention, the gated MLP, temporal pooling, and the encoder."""

import numpy as np
import pytest

from spikefusion.attention import (
    SpikeGatedMLP,
    SpikeSelfAttention,
    TemporalPool,
    UnimodalEncoder,
)
from spikefusion.encoding import GeneratorConfig
from spikefusion.errors import DimensionError
from spikefusion.neurons import LIFParams
from spikefusion.tensor import Tensor, matmul

RNG = np.random.default_rng(99)
LIF = LIFParams()


def binary(shape, p=0.4, rng=RNG):
    return (rng.random(shape) < p).astype(np.float32)


class TestSpikeSelfAttention:
    def test_zeros_propagate(self):
        attn = SpikeSelfAttention(8, LIF, np.random.default_rng(0))
        x = Tensor(np.zeros((2, 3, 4, 8), dtype=np.float32))
        out = attn(x, train=True)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_shape_preserved_and_binary(self):
        attn = SpikeSelfAttention(8, LIF, np.random.default_rng(1))
        x = Tensor(binary((2, 3, 4, 8)))
        out = attn(x, train=True)
        assert out.shape == (2, 3, 4, 8)
        assert set(np.unique(out.data)) <= {0.0, 1.0}

    def test_binary_gram_matches_popcount_oracle(self):
        # Q K^T on binary matrices is AND-then-count, exactly integer-valued
        q = binary((4, 8))
        k = binary((4, 8))
        gram = matmul(Tensor(q), Tensor(k).swapaxes(-1, -2)).data
        expected = np.zeros((4, 4), dtype=np.float32)
        for i in range(4):
            for j in range(4):
                expected[i, j] = np.sum(
                    np.logical_and(q[i] > 0, k[j] > 0))
        np.testing.assert_array_equal(gram, expected)


class TestSpikeGatedMLP:
    def test_closed_gate_blocks_everything(self):
        mlp = SpikeGatedMLP(8, LIF, np.random.default_rng(2))
        # make the gate path silent: strongly negative gate weights
        mlp.w_g.w.data = np.full((8, 8), -5.0, dtype=np.float32)
        x = Tensor(binary((2, 3, 4, 8), p=0.6))
        np.testing.assert_array_equal(mlp(x).data, 0.0)

    def test_zero_input_gives_zero(self):
        mlp = SpikeGatedMLP(8, LIF, np.random.default_rng(3))
        out = mlp(Tensor(np.zeros((2, 3, 4, 8), dtype=np.float32)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_gate_equals_explicit_mask(self):
        # G . P must equal P with gate-zero positions zeroed, exactly
        mlp = SpikeGatedMLP(8, LIF, np.random.default_rng(4))
        x = Tensor(binary((2, 2, 3, 8)))
        gate = mlp.lif(mlp.w_g(x))
        value = mlp.w_p(x)
        gated = (gate * value).data
        masked = np.where(gate.data > 0, value.data, 0.0)
        np.testing.assert_array_equal(gated, masked)


class TestTemporalPool:
    def test_single_step_identity(self):
        pool = TemporalPool(1)
        x = Tensor(RNG.standard_normal((1, 2, 3, 4)).astype(np.float32))
        np.testing.assert_allclose(pool(x).data, x.data[0], rtol=1e-6)

    def test_uniform_weights_average(self):
        pool = TemporalPool(2)  # raw zeros -> softmax uniform [0.5, 0.5]
        x = Tensor(np.stack([np.ones((1, 1, 1)), np.zeros((1, 1, 1))])
                   .astype(np.float32))
        np.testing.assert_allclose(pool(x).data, 0.5, rtol=1e-6)

    def test_all_ones_convexity(self):
        pool = TemporalPool(3)
        pool.w.data = RNG.standard_normal(3).astype(np.float32)
        x = Tensor(np.ones((3, 2, 2, 2), dtype=np.float32))
        np.testing.assert_allclose(pool(x).data, 1.0, rtol=1e-5)

    def test_length_mismatch(self):
        pool = TemporalPool(2)
        with pytest.raises(DimensionError):
            pool(Tensor(np.zeros((3, 1, 1, 1))))

    def test_weights_sum_to_one(self):
        pool = TemporalPool(4)
        pool.w.data = RNG.standard_normal(4).astype(np.float32)
        np.testing.assert_allclose(pool.weights().data.sum(), 1.0, rtol=1e-6)


def make_encoder(d_raw=10, d=8, t=2, seed=0):
    return UnimodalEncoder(d_raw, GeneratorConfig(variant="repeat-ln", t=t, d=d),
                           LIF, np.random.default_rng(seed))


class TestUnimodalEncoder:
    def test_full_scale_shape_contract(self):
        # regions (B, 36, 2048) -> pooled (B, 36, 1024) at T=2, D=1024
        enc = UnimodalEncoder(
            2048, GeneratorConfig(variant="repeat-ln", t=2, d=1024), LIF,
            np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((2, 36, 2048)).astype(np.float32))
        out = enc(x, train=True)
        assert out.pooled.shape == (2, 36, 1024)
        assert out.spikes.shape == (2, 2, 36, 1024)

    def test_zero_features_give_zero_embedding(self):
        enc = make_encoder()
        out = enc(Tensor(np.zeros((3, 4, 10), dtype=np.float32)), train=True)
        np.testing.assert_array_equal(out.pooled.data, 0.0)

    def test_unimodal_forward_returns_pooled_and_spikes(self):
        enc = make_encoder()
        out = enc(Tensor(RNG.standard_normal((3, 4, 10)).astype(np.float32)),
                  train=True)
        assert out.pooled.shape == (3, 4, 8)
        assert out.spikes.shape == (2, 3, 4, 8)
        assert set(np.unique(out.spikes.data)) <= {0.0, 1.0, 2.0}

    def test_residual_sum_reaches_two_and_is_not_clipped(self):
        """Craft a forward where x_s + SSA(x_s) == 2 somewhere and verify the
        gated MLP consumes the un-clipped sum."""
        enc = make_encoder(seed=1)
        # saturate the attention path: fire everywhere it sees spikes
        for lin in (enc.attn.w_q, enc.attn.w_k, enc.attn.w_v, enc.attn.w_a):
            lin.w.data = np.full_like(lin.w.data, 4.0)
        for bn in (enc.attn.bn_q, enc.attn.bn_k, enc.attn.bn_v,
                   enc.attn.bn_attn, enc.attn.bn_out):
            bn.load_buffers({"running_mean": np.zeros(8, dtype=np.float32),
                             "running_var": np.ones(8, dtype=np.float32)})
        x_s = Tensor(binary((2, 2, 4, 8), p=0.7))
        ssa_out = enc.attn(x_s, train=False)
        residual = (x_s + ssa_out).data
        assert residual.max() == 2.0
        # recompute the gate from the residual and compare with the module
        gate_direct = enc.mlp.lif(enc.mlp.w_g(Tensor(residual)))
        gate_module = enc.mlp.lif(enc.mlp.w_g(x_s + ssa_out))
        np.testing.assert_array_equal(gate_direct.data, gate_module.data)

    def test_gradient_reaches_every_parameter(self):
        reached = None
        for seed in range(5):
            enc = make_encoder(seed=seed)
            rng = np.random.default_rng(seed)
            x = Tensor(rng.standard_normal((4, 4, 10)).astype(np.float32))
            out = enc(x, train=True)
            (out.pooled * out.pooled).sum().backward()
            got = {name: p.grad is not None and np.abs(p.grad).sum() > 0
                   for name, p in enc.params().items()}
            if reached is None:
                reached = got
            else:
                reached = {k: reached[k] or got[k] for k in got}
        missing = [k for k, ok in reached.items() if not ok]
        assert not missing, f"no gradient reached: {missing}"

    def test_eval_forward_is_deterministic(self):
        enc = make_encoder(seed=2)
        x = Tensor(RNG.standard_normal((3, 4, 10)).astype(np.float32))
        enc(x, train=True)  # prime batch-norm stats
        a = enc(x, train=False).pooled.data
        b = enc(x, train=False).pooled.data
        assert np.array_equal(a, b)
