"""Engine tests: arithmetic, shape ops, normalization, and the spike op."""

import numpy as np
import pytest

from spikefusion.errors import DimensionError, ParameterError, StateError, UsageError
from spikefusion.tensor import (
    RunningStats,
    Tensor,
    batch_norm,
    concat,
    layer_norm,
    logsumexp,
    matmul,
    no_grad,
    repeat_steps,
    smooth_spike_mode,
    softplus,
    spike_threshold,
    stack,
    surrogate_derivative,
    surrogate_primitive,
)

from helpers import central_difference

RNG = np.random.default_rng(20240601)


# (3, 4) entries in [0.5, 1.5], none within 0.04 of the clip_min floor 1.0
X_DATA = (0.5 + np.arange(12, dtype=np.float32) / 11).reshape(3, 4)

# the ops without a gradient test of their own, each applied to X_DATA
GRAD_OPS = {
    "reshape": lambda x: x.reshape((2, 6)),
    "transpose": lambda x: x.transpose((1, 0)),
    "swapaxes": lambda x: x.swapaxes(0, 1),
    "getitem_int": lambda x: x[1],
    "getitem_slice": lambda x: x[1:, ::2],
    "sum_axis": lambda x: x.sum(axis=0),
    "sum_keepdims": lambda x: x.sum(axis=1, keepdims=True),
    "mean": lambda x: x.mean(axis=-1),
    "exp": lambda x: x.exp(),
    "sqrt": lambda x: x.sqrt(),
    "clip_min": lambda x: x.clip_min(1.0),
    "neg": lambda x: -x,
    "rsub": lambda x: 2.0 - x,
    "rtruediv": lambda x: 2.0 / x,
}

# the remaining ops, for the tape checks
TAPE_OPS = {
    "add": lambda x: x + 1.0,
    "mul": lambda x: x * 2.0,
    "sub": lambda x: x - 1.0,
    "truediv": lambda x: x / 2.0,
    "matmul": lambda x: matmul(x, Tensor(np.ones((4, 2), dtype=np.float32))),
    "max": lambda x: x.max(axis=1),
    "stack": lambda x: stack([x, x]),
    "concat": lambda x: concat([x, x], axis=0),
    "repeat_steps": lambda x: repeat_steps(x, 2),
    "logsumexp": lambda x: logsumexp(x, axis=-1),
    "softplus": softplus,
    "spike_threshold": lambda x: spike_threshold(x, 1.0),
}


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        out = matmul(Tensor(np.eye(2, dtype=np.float32)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_orthogonal_vectors(self):
        out = matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))

    def test_gradient_against_finite_differences(self):
        a = Tensor.param(RNG.standard_normal((3, 4)).astype(np.float32))
        b = Tensor.param(RNG.standard_normal((4, 2)).astype(np.float32))

        def loss():
            return float(matmul(a, b).sum().data)

        matmul(a, b).sum().backward()
        for p in (a, b):
            fd = central_difference(loss, p, eps=1e-2)
            np.testing.assert_allclose(p.grad.reshape(-1), fd, atol=1e-3)

    def test_batched_weight_gradient_matches_einsum(self):
        x_data = RNG.standard_normal((2, 3, 5, 4)).astype(np.float32)
        c = RNG.standard_normal((2, 3, 5, 3)).astype(np.float32)
        x = Tensor(x_data)
        w = Tensor.param(RNG.standard_normal((4, 3)).astype(np.float32))
        (matmul(x, w) * c).sum().backward()
        expected = np.einsum("abik,abij->kj", x_data, c)
        np.testing.assert_allclose(w.grad, expected, rtol=1e-4, atol=1e-4)


class TestElementwise:
    def test_broadcast_add_gradients(self):
        a = Tensor.param(RNG.standard_normal((3, 4)).astype(np.float32))
        b = Tensor.param(RNG.standard_normal((4,)).astype(np.float32))
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((3, 4), dtype=np.float32))
        np.testing.assert_array_equal(b.grad, np.full(4, 3.0, dtype=np.float32))

    def test_square_gradient(self):
        x = Tensor.param(np.array([1.0, 2.0], dtype=np.float32))
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_sum_gradient_is_ones(self):
        x = Tensor.param(np.array([1.0, -2.0, 3.0], dtype=np.float32))
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_non_scalar_backward_rejected(self):
        x = Tensor.param(np.zeros(3, dtype=np.float32))
        with pytest.raises(UsageError):
            (x * 2.0).backward()

    def test_division_gradient(self):
        a = Tensor.param(np.array([2.0, 6.0], dtype=np.float32))
        b = Tensor.param(np.array([4.0, 3.0], dtype=np.float32))
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.25, 1 / 3], rtol=1e-6)
        np.testing.assert_allclose(b.grad, [-2 / 16, -6 / 9], rtol=1e-6)

    def test_max_routes_to_first_argmax(self):
        x = Tensor.param(np.array([[1.0, 3.0, 3.0], [0.5, 0.2, 0.1]],
                                  dtype=np.float32))
        x.max(axis=1).sum().backward()
        np.testing.assert_array_equal(
            x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_max_of_a_transposed_view_is_c_contiguous(self):
        # later reductions sum in memory order, so a max that kept the
        # strides of the fine similarity tensor's transpose (this axis
        # order) would change their rounding
        x = Tensor(RNG.standard_normal((2, 3, 4, 5)).astype(np.float32))
        out = x.transpose((0, 2, 3, 1)).max(axis=-2)
        assert out.data.flags.c_contiguous
        np.testing.assert_array_equal(out.data,
                                      x.data.max(axis=3).transpose((0, 2, 1)))

    def test_getitem_and_stack_roundtrip(self):
        x = Tensor.param(RNG.standard_normal((4, 3)).astype(np.float32))
        restacked = stack([x[i] for i in range(4)], axis=0)
        np.testing.assert_array_equal(restacked.data, x.data)
        restacked.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((4, 3), dtype=np.float32))

    def test_concat_gradient_splits(self):
        a = Tensor.param(np.ones((2, 2), dtype=np.float32))
        b = Tensor.param(np.ones((2, 3), dtype=np.float32))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * np.arange(10, dtype=np.float32).reshape(2, 5)).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0, 1], [5, 6]])
        np.testing.assert_array_equal(b.grad, [[2, 3, 4], [7, 8, 9]])

    def test_repeat_steps_sums_gradient(self):
        x = Tensor.param(np.array([1.0, 2.0], dtype=np.float32))
        repeat_steps(x, 3).sum().backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_no_grad_blocks_tape(self):
        x = Tensor.param(np.ones(3, dtype=np.float32))
        with no_grad():
            y = (x * 2.0).sum()
        assert y._parents == () and not y.requires_grad
        for name, op in {**GRAD_OPS, **TAPE_OPS}.items():
            param = Tensor.param(X_DATA.copy())
            assert op(param)._parents, name
            with no_grad():
                untracked = [op(param)]
            untracked.append(op(Tensor(X_DATA.copy())))
            for y in untracked:
                assert y._parents == () and not y.requires_grad, name
                assert y._backward is None, name


@pytest.mark.parametrize("name", sorted(GRAD_OPS))
def test_op_gradient_against_finite_differences(name):
    op = GRAD_OPS[name]
    x = Tensor.param(X_DATA.copy())
    weights = np.random.default_rng(5).standard_normal(
        op(Tensor(X_DATA)).shape).astype(np.float32)

    def loss():
        return float((op(x) * weights).sum().data)

    (op(x) * weights).sum().backward()
    fd = central_difference(loss, x, eps=1e-2)
    np.testing.assert_allclose(x.grad.reshape(-1), fd, rtol=1e-3, atol=1e-3)


class TestLogSumExp:
    def test_matches_float64_oracle(self):
        x = Tensor.param(RNG.standard_normal((3, 5)).astype(np.float32) * 4.0)
        out = logsumexp(x, axis=-1)
        expected = np.log(np.exp(x.data.astype(np.float64)).sum(axis=-1))
        np.testing.assert_allclose(out.data, expected, atol=1e-5)

    def test_masked(self):
        x = Tensor(np.array([[0.0, 100.0], [1.0, 2.0]], dtype=np.float32))
        mask = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.float32)
        out = logsumexp(x, axis=-1, mask=mask)
        np.testing.assert_allclose(out.data[0], 0.0, atol=1e-6)
        np.testing.assert_allclose(
            out.data[1], np.logaddexp(1.0, 2.0), atol=1e-6)

    def test_gradient_is_softmax(self):
        x = Tensor.param(RNG.standard_normal((4,)).astype(np.float32))
        logsumexp(x, axis=-1).backward()
        soft = np.exp(x.data) / np.exp(x.data).sum()
        np.testing.assert_allclose(x.grad, soft, atol=1e-6)

    def test_overflow_safe(self):
        x = Tensor(np.array([[1000.0, 999.0]], dtype=np.float32))
        out = logsumexp(x, axis=-1)
        assert np.isfinite(out.data).all()

    def test_empty_mask_row_rejected(self):
        x = Tensor(np.zeros((2, 2), dtype=np.float32))
        mask = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=np.float32)
        with pytest.raises(UsageError):
            logsumexp(x, axis=-1, mask=mask)


class TestLayerNorm:
    def _gb(self, d):
        return Tensor(np.ones(d, dtype=np.float32)), Tensor(np.zeros(d, dtype=np.float32))

    def test_constant_row_maps_to_zero(self):
        gamma, beta = self._gb(6)
        # dyadic constant: the row mean is exact, output exactly zero
        exact = layer_norm(Tensor(np.full((2, 6), 2.0, dtype=np.float32)),
                           gamma, beta, eps=1e-5)
        np.testing.assert_array_equal(exact.data, 0.0)
        # arbitrary constant: zero up to eps-scale rounding
        out = layer_norm(Tensor(np.full((2, 6), 3.7, dtype=np.float32)),
                         gamma, beta, eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_affine_collapse(self):
        gamma = Tensor(np.zeros(4, dtype=np.float32))
        beta = Tensor(np.full(4, 2.5, dtype=np.float32))
        out = layer_norm(Tensor(RNG.standard_normal((3, 4)).astype(np.float32)),
                         gamma, beta)
        np.testing.assert_allclose(out.data, 2.5, atol=1e-6)

    def test_row_statistics(self):
        gamma, beta = self._gb(8)
        x = Tensor(RNG.standard_normal((4, 8)).astype(np.float32) * 3.0 + 1.0)
        out = layer_norm(x, gamma, beta, eps=1e-5).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3

    def test_eps_must_be_positive(self):
        gamma, beta = self._gb(4)
        with pytest.raises(ParameterError):
            layer_norm(Tensor(np.zeros((2, 4))), gamma, beta, eps=0.0)

    def test_idempotent_up_to_eps(self):
        gamma, beta = self._gb(16)
        x = Tensor(RNG.standard_normal((3, 16)).astype(np.float32))
        once = layer_norm(x, gamma, beta)
        twice = layer_norm(once, gamma, beta)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-4)

    def test_gradient_against_finite_differences(self):
        gamma = Tensor.param(RNG.uniform(0.5, 1.5, 6).astype(np.float32))
        beta = Tensor.param(RNG.standard_normal(6).astype(np.float32))
        x = Tensor.param(RNG.standard_normal((2, 6)).astype(np.float32))
        weights = RNG.standard_normal((2, 6)).astype(np.float32)

        def loss():
            return float((layer_norm(x, gamma, beta) * weights).sum().data)

        (layer_norm(x, gamma, beta) * weights).sum().backward()
        for p in (x, gamma, beta):
            fd = central_difference(loss, p, eps=1e-2)
            np.testing.assert_allclose(p.grad.reshape(-1), fd, atol=2e-3)


class TestBatchNorm:
    def _gb(self, d, beta_val=0.0):
        return (Tensor(np.ones(d, dtype=np.float32)),
                Tensor(np.full(d, beta_val, dtype=np.float32)))

    def test_zero_input_zero_bias_gives_zero(self):
        gamma, beta = self._gb(4)
        stats = RunningStats()
        out = batch_norm(Tensor(np.zeros((2, 3, 4))), gamma, beta, stats,
                         train=True)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_single_channel_hand_statistics(self):
        # batch values [1, 3]: mean 2, biased var 1 -> normalized [-1, 1]
        gamma, beta = self._gb(1)
        stats = RunningStats()
        x = Tensor(np.array([[1.0], [3.0]], dtype=np.float32))
        out = batch_norm(x, gamma, beta, stats, train=True)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-4)

    def test_eval_mode_is_deterministic(self):
        gamma, beta = self._gb(5)
        stats = RunningStats()
        batch_norm(Tensor(RNG.standard_normal((6, 5)).astype(np.float32)),
                   gamma, beta, stats, train=True)
        x = Tensor(RNG.standard_normal((4, 5)).astype(np.float32))
        a = batch_norm(x, gamma, beta, stats, train=False)
        b = batch_norm(x, gamma, beta, stats, train=False)
        assert np.array_equal(a.data, b.data)

    def test_eval_without_stats_raises(self):
        gamma, beta = self._gb(3)
        with pytest.raises(StateError):
            batch_norm(Tensor(np.zeros((2, 3))), gamma, beta, RunningStats(),
                       train=False)

    def test_statistics_pool_leading_axes(self):
        gamma, beta = self._gb(2)
        stats = RunningStats()
        x = RNG.standard_normal((3, 4, 5, 2)).astype(np.float32)
        out = batch_norm(Tensor(x), gamma, beta, stats, train=True).data
        flat = out.reshape(-1, 2)
        assert np.abs(flat.mean(axis=0)).max() < 1e-5
        assert np.abs(flat.var(axis=0) - 1.0).max() < 1e-3


class TestSpikeThreshold:
    def test_boundary_fires(self):
        out = spike_threshold(Tensor(np.array([1.0], dtype=np.float32)), 1.0)
        np.testing.assert_array_equal(out.data, [1.0])

    def test_far_below_threshold(self):
        h = Tensor.param(np.array([-100.0], dtype=np.float32))
        out = spike_threshold(h, 1.0)
        np.testing.assert_array_equal(out.data, [0.0])
        out.sum().backward()
        assert abs(h.grad[0]) < 1e-4

    def test_output_is_binary(self):
        h = Tensor(RNG.standard_normal(1000).astype(np.float32))
        out = spike_threshold(h, 0.3)
        assert set(np.unique(out.data)) <= {0.0, 1.0}

    def test_surrogate_gradient_matches_primitive_fd(self):
        # surrogate-path gradient of sum(spikes) vs central finite
        # differences of the smooth primitive itself
        h = Tensor.param(RNG.uniform(-2, 2, 64).astype(np.float32))
        v_th = 0.5
        spike_threshold(h, v_th).sum().backward()
        eps = 1e-3
        fd = (surrogate_primitive(h.data - v_th + eps, 2.0)
              - surrogate_primitive(h.data - v_th - eps, 2.0)) / (2 * eps)
        np.testing.assert_allclose(h.grad, fd, atol=1e-3)

    def test_smooth_mode_forward_is_primitive(self):
        h = Tensor(np.array([0.0, 5.0, -5.0], dtype=np.float32))
        with smooth_spike_mode():
            out = spike_threshold(h, 0.0)
        np.testing.assert_allclose(out.data, surrogate_primitive(h.data, 2.0))

    def test_learnable_threshold_gradient(self):
        h = Tensor(RNG.standard_normal(32).astype(np.float32))
        v_th = Tensor.param(np.float32(0.4))
        spike_threshold(h, v_th).sum().backward()
        expected = -surrogate_derivative(h.data - 0.4, 2.0).sum()
        np.testing.assert_allclose(float(v_th.grad), expected, rtol=1e-5)


class TestSoftplus:
    def test_value_and_gradient(self):
        x = Tensor.param(np.array([-3.0, 0.0, 2.0], dtype=np.float32))
        out = softplus(x)
        np.testing.assert_allclose(out.data, np.logaddexp(0, x.data), rtol=1e-6)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, 1 / (1 + np.exp(-x.data)), rtol=1e-5)


def test_composed_graph_matches_finite_differences():
    """Reverse-mode on a mixed op chain vs central FD at float32 tolerances."""
    rng = np.random.default_rng(9090)
    x = Tensor.param(rng.standard_normal((3, 4)).astype(np.float32))
    w = Tensor.param(rng.standard_normal((4, 4)).astype(np.float32))
    gamma = Tensor.param(np.ones(4, dtype=np.float32))
    beta = Tensor.param(np.zeros(4, dtype=np.float32))

    def forward():
        y = layer_norm(matmul(x, w), gamma, beta)
        z = logsumexp(y * np.float32(2.0), axis=-1)
        return (z * z).mean()

    def loss():
        return float(forward().data)

    forward().backward()
    for p in (x, w, gamma, beta):
        fd = central_difference(loss, p, eps=1e-2)
        an = p.grad.reshape(-1)
        err = np.abs(an - fd)
        tol = np.maximum(1e-3, 1e-2 * np.abs(fd))
        assert (err <= tol).all(), f"max err {err.max()}"
