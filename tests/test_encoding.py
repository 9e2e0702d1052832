"""Spike generator variants and the feature projection."""

import numpy as np
import pytest

from spikefusion.encoding import (
    GENERATOR_VARIANTS,
    GeneratorConfig,
    SpikeGenerator,
    project_features,
)
from spikefusion.errors import ConfigError, DimensionError
from spikefusion.layers import Linear
from spikefusion.neurons import LIFParams
from spikefusion.tensor import Tensor

RNG = np.random.default_rng(5150)
LIF = LIFParams()


def make_generator(variant, t=2, d=8, seed=0):
    return SpikeGenerator(GeneratorConfig(variant=variant, t=t, d=d),
                          LIF, np.random.default_rng(seed))


class TestProjection:
    def test_identity_weight_passthrough(self):
        rng = np.random.default_rng(0)
        proj = Linear(4, 4, rng)
        proj.w.data = np.eye(4, dtype=np.float32)
        proj.b.data = np.zeros(4, dtype=np.float32)
        x = Tensor(RNG.standard_normal((3, 4)).astype(np.float32))
        np.testing.assert_array_equal(project_features(x, proj).data, x.data)

    def test_zero_weight_gives_zero(self):
        proj = Linear(4, 6, np.random.default_rng(0))
        proj.w.data = np.zeros((4, 6), dtype=np.float32)
        x = Tensor(RNG.standard_normal((3, 4)).astype(np.float32))
        np.testing.assert_array_equal(project_features(x, proj).data,
                                      np.zeros((3, 6)))

    def test_region_width_contract(self):
        # 36 region features of width 2048 project to the common width 1024
        proj = Linear(2048, 1024, np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((36, 2048)).astype(np.float32))
        assert project_features(x, proj).shape == (36, 1024)

    def test_width_mismatch(self):
        proj = Linear(8, 4, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            project_features(Tensor(np.zeros((3, 7))), proj)


class TestConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(variant="poisson", t=2, d=8)

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(variant="repeat-ln", t=0, d=8)


class TestGenerate:
    def test_zero_features_repeat_ln_stay_silent(self):
        gen = make_generator("repeat-ln")
        spikes = gen(Tensor(np.zeros((4, 8), dtype=np.float32)), train=True)
        np.testing.assert_array_equal(spikes.data, np.zeros((2, 4, 8)))

    @pytest.mark.parametrize("variant", GENERATOR_VARIANTS)
    def test_shape_and_codomain(self, variant):
        gen = make_generator(variant, t=3, d=8)
        x = Tensor(RNG.standard_normal((5, 8)).astype(np.float32))
        spikes = gen(x, train=True)
        assert spikes.shape == (3, 5, 8)
        assert set(np.unique(spikes.data)) <= {0.0, 1.0}

    @pytest.mark.parametrize("variant", GENERATOR_VARIANTS)
    def test_batched_shape(self, variant):
        gen = make_generator(variant, t=2, d=8)
        x = Tensor(RNG.standard_normal((3, 5, 8)).astype(np.float32))
        assert gen(x, train=True).shape == (2, 3, 5, 8)

    @pytest.mark.parametrize("variant", ["repeat-ln", "repeat-bn", "conv-bn",
                                         "delta-bn"])
    def test_repeating_expansions_share_the_drive(self, variant):
        gen = make_generator(variant, t=2)
        x = Tensor(RNG.standard_normal((4, 8)).astype(np.float32))
        pre = gen.pre_neuron(x, train=True)
        np.testing.assert_array_equal(pre.data[0], pre.data[1])

    def test_linear_steps_differ(self):
        gen = make_generator("linear-ln", t=2)
        x = Tensor(RNG.standard_normal((4, 8)).astype(np.float32))
        pre = gen.pre_neuron(x, train=False)
        assert not np.array_equal(pre.data[0], pre.data[1])

    def test_spike_slices_differ_only_through_membrane_state(self):
        # repeat-ln: identical drive per step; any spike difference between
        # the two slices must come from membrane carry-over
        gen = make_generator("repeat-ln", t=2, seed=3)
        x = Tensor(RNG.standard_normal((6, 8)).astype(np.float32))
        pre = gen.pre_neuron(x, train=False)
        np.testing.assert_array_equal(pre.data[0], pre.data[1])
        spikes = gen(x, train=False).data
        # a neuron that fired at step 0 was reset to the initial state and
        # sees the same drive again, so it must fire at step 1 as well
        fired0 = spikes[0] == 1.0
        assert fired0.any()
        np.testing.assert_array_equal(spikes[1][fired0], 1.0)

    def test_delta_on_constant_tokens_is_zero_after_first(self):
        gen = make_generator("delta-bn")
        const = np.broadcast_to(
            RNG.standard_normal(8).astype(np.float32), (5, 8)).copy()
        expanded = gen.expand(Tensor(const)).data
        np.testing.assert_array_equal(expanded[:, 1:, :], 0.0)
        assert np.abs(expanded[:, 0, :]).sum() > 0

    def test_conv_uses_token_neighborhood(self):
        gen = make_generator("conv-bn", t=1, d=4)
        for tap in gen.tap:
            tap.w.data = np.eye(4, dtype=np.float32)
        x = np.zeros((3, 4), dtype=np.float32)
        x[1] = 1.0
        out = gen.expand(Tensor(x)).data[0]
        # middle token's value spreads to both neighbors (same padding)
        np.testing.assert_array_equal(out, np.ones((3, 4)))

    @pytest.mark.parametrize("variant", ["conv-bn", "delta-bn", "linear-bn"])
    def test_expansion_gradients_match_finite_differences(self, variant):
        # the token-shift backward path (scatter-add through slices) in
        # particular has no other gradient coverage
        from helpers import central_difference

        gen = make_generator(variant, t=2, d=4, seed=9)
        rng = np.random.default_rng(31)
        x = Tensor.param(rng.standard_normal((3, 4)).astype(np.float32))
        weights = rng.standard_normal((2, 3, 4)).astype(np.float32)

        def loss():
            return float((gen.expand(x) * weights).sum().data)

        (gen.expand(x) * weights).sum().backward()
        fd = central_difference(loss, x, eps=1e-2)
        np.testing.assert_allclose(x.grad.reshape(-1), fd, atol=2e-3)
