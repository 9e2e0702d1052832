"""Engine tests: arithmetic, shape ops, normalization, and the spike op.

``mean``, ``reduce_max``, ``sqrt``, ``clip_min``, ``logsumexp``,
``transpose`` and ``detach`` live in ``helpers``: only the composed oracles
use them.
"""

import contextlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

from spikefusion import energy
from spikefusion import tensor as tensor_module
from spikefusion.alignment import PoolConfig, l2_normalize, similarity
from spikefusion.attention import SpikeGatedMLP, SpikeSelfAttention
from spikefusion.encoding import GeneratorConfig, SpikeGenerator
from spikefusion.errors import StateError, UsageError
from spikefusion.fusion import _ProjectSpike
from spikefusion.layers import BatchNorm, LayerNorm, Linear
from spikefusion.losses import infonce_pair
from spikefusion.neurons import (
    LIFParams,
    TLSNParams,
    _fold,
    lif_sequence,
    surrogate_derivative,
    surrogate_primitive,
    tlsn_forward,
)
from spikefusion.tensor import (
    Tensor,
    concat,
    matmul,
    no_grad,
    repeat_steps,
    smooth_spike_mode,
    softplus,
    stack,
)

from helpers import (
    assert_zero_sign_inert,
    bytes_after_backward,
    central_difference,
    clip_min,
    composed_fold,
    logsumexp,
    mean,
    negative_zeros,
    reduce_max,
    reference_batch_norm,
    smooth_central_difference,
    sqrt,
    traced,
    transpose,
)

RNG = np.random.default_rng(20240601)


# a one-step fold with tau 1 and reset 0 has membrane h = x exactly: the
# spike op alone, firing where x >= v_th
SPIKE = LIFParams(tau=1.0, v_th=1.0, v_reset=0.0)


def spike(h, v_th):
    """Spikes of ``h`` (one time step) against a fixed threshold."""
    return lif_sequence(h.reshape((1,) + h.shape), replace(SPIKE, v_th=v_th))


# (3, 4) entries in [0.5, 1.5], none within 0.04 of the clip_min floor 1.0
X_DATA = (0.5 + np.arange(12, dtype=np.float32) / 11).reshape(3, 4)


def _affine(d):
    return (Tensor(np.full(d, 1.5, dtype=np.float32)),
            Tensor(np.full(d, 0.25, dtype=np.float32)))


def _prime_stats(norm):
    """Give ``norm`` running stats, as one grad-mode batch leaves them
    (no_grad's)."""
    d = norm.gamma.shape[0]
    norm.running_mean = np.linspace(-0.5, 0.5, d).astype(np.float32)
    norm.running_var = np.linspace(0.5, 2.0, d).astype(np.float32)


# the norm stages a fold takes: name -> block, for a width d; an eval batch
# norm holds primed stats and runs under ``no_grad()`` (see ``_mode``)
NORMS = {
    "layer_norm": LayerNorm,
    "batch_norm_train": BatchNorm,
    "batch_norm_eval": BatchNorm,
}
# the norms a fold on the tape takes: grad mode picks batch moments
RECORDED_NORMS = ["batch_norm_train", "layer_norm"]


def _norm(name, gamma, beta):
    """The ``NORMS`` block ``name`` holding the tensors ``gamma`` and
    ``beta`` (eval batch norm with primed stats)."""
    norm = NORMS[name](gamma.shape[0])
    norm.gamma, norm.beta = gamma, beta
    if name == "batch_norm_eval":
        _prime_stats(norm)
    return norm


def _mode(name):
    """The grad mode the norm ``name`` runs in: ``no_grad()`` for an eval
    batch norm, the ambient mode otherwise."""
    return no_grad() if name == "batch_norm_eval" else contextlib.nullcontext()


def normalized(norm, x):
    """The drive a fold with ``norm`` as its input stage feeds its neuron
    over the array ``x``, by the fold's own forward arithmetic in the
    current grad mode."""
    mu, sd, _ = norm.moments(x)
    return norm.drive(x - mu, sd)


# the ops without a gradient test of their own, each applied to X_DATA
GRAD_OPS = {
    "reshape": lambda x: x.reshape((2, 6)),
    "transpose": lambda x: transpose(x, (1, 0)),
    "swapaxes": lambda x: x.swapaxes(0, 1),
    "getitem_int": lambda x: x[1],
    "getitem_slice": lambda x: x[1:, ::2],
    "sum_axis": lambda x: x.sum(axis=0),
    "sum_keepdims": lambda x: x.sum(axis=1, keepdims=True),
    "mean": lambda x: mean(x, axis=-1),
    "exp": lambda x: x.exp(),
    "sqrt": sqrt,
    "clip_min": lambda x: clip_min(x, 1.0),
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
    "max": lambda x: reduce_max(x, axis=1),
    "stack": lambda x: stack([x, x]),
    "concat": lambda x: concat([x, x], axis=0),
    "repeat_steps": lambda x: repeat_steps(x, 2),
    "logsumexp": lambda x: logsumexp(x, axis=-1),
    "softplus": softplus,
    "lif_fold": lambda x: lif_sequence(x, SPIKE),
    "pooled_similarity": lambda x: similarity(
        x.reshape((3, 1, 4)), x.reshape((1, 3, 4)), PoolConfig()),
    "layer_norm_fold": lambda x: lif_sequence(
        x, SPIKE, _norm("layer_norm", *_affine(4))),
    # primed stats: the fold runs in grad mode and under no_grad() alike
    "batch_norm_fold": lambda x: lif_sequence(
        x, SPIKE, _norm("batch_norm_eval", *_affine(4))),
    "l2_normalize": l2_normalize,
    "infonce_pair": lambda x: infonce_pair(x[:, :3], 0.5),
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
        with pytest.raises(UsageError, match=r"\(3, 4\).*\(3, 2\)"):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))

    def test_one_dimensional_operand_rejected(self):
        with pytest.raises(UsageError, match=r">=2-D.*\(4,\)"):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))

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


# (lead..., M, K, N) of every weight matmul the repo runs: the bench golden,
# train-desk, train-wide and eval-gallery
WEIGHT_MATMULS = [
    (2, 8, 4, 16, 16),
    (16, 8, 48, 64), (2, 16, 8, 64, 64),
    (32, 36, 2048, 128), (2, 32, 36, 128, 128),
    (32, 36, 2048, 256), (2, 32, 36, 256, 256),
]


@pytest.mark.parametrize("shape", WEIGHT_MATMULS,
                         ids=lambda s: "x".join(map(str, s)))
def test_weight_matmul_bits_match_batched_numpy(shape):
    """The forward stacks the leading axes into one gemm, and the input
    gradient stays batched; both give the bits of numpy's batched ``@``."""
    *lead, m, k, n = shape
    rng = np.random.default_rng(sum(shape))
    x = Tensor.param(rng.standard_normal((*lead, m, k)).astype(np.float32))
    w = Tensor(rng.standard_normal((k, n)).astype(np.float32))
    g = rng.standard_normal((*lead, m, n)).astype(np.float32)
    out = matmul(x, w)
    assert out.data.tobytes() == (x.data @ w.data).tobytes()
    (out * Tensor(g)).sum().backward()
    # a leaf's first gradient is ``g + 0.0``
    expected = g @ w.data.swapaxes(-1, -2) + np.float32(0.0)
    assert x.grad.tobytes() == expected.tobytes()


class TestForwardMemory:
    """The fold and norm forwards write in place, and a fold keeps only its
    spikes: bytes measured in units of one (2, 16, 12, 32) float32 input."""

    @staticmethod
    def units(fn, requires_grad=False):
        """(held, peak) of ``fn(x)`` in units of ``x``'s bytes."""
        x = Tensor(np.random.default_rng(3).standard_normal(
            (2, 16, 12, 32)).astype(np.float32) * 2.0,
            requires_grad=requires_grad)
        _, held, peak = traced(lambda: fn(x))
        return held / x.data.nbytes, peak / x.data.nbytes

    def test_untracked_fold(self):
        # spikes, the membrane and one scratch: the hard spike forms no u
        assert self.units(lambda x: lif_sequence(x, LIFParams()))[1] < 2.5

    @pytest.mark.parametrize("neuron", ["lif", "tlsn"])
    def test_tracked_fold_keeps_only_its_spikes(self, neuron):
        # the backward replays each step's membrane; keeping them was a
        # second unit, and the forward peaks as an untracked one does
        fold = (LIFParams() if neuron == "lif"
                else TLSNParams.create(LIFParams()))
        held, peak = self.units(fold, requires_grad=True)
        assert held < 1.5
        assert peak < 2.5

    def norm_stage_units(self, name):
        """Units a norm stage adds to the peak of an untracked fold."""
        with _mode(name):
            fused = self.units(lambda x: lif_sequence(
                x, LIFParams(), _norm(name, *_affine(32))))[1]
        return fused - self.units(lambda x: lif_sequence(x, LIFParams()))[1]

    def test_eval_batch_norm(self):
        # the drive, normalised in place: one unit over the fold's own peak
        assert self.norm_stage_units("batch_norm_eval") < 1.25

    def test_layer_norm(self):
        # the moments' centred scratch is gone before the drive is made
        assert self.norm_stage_units("layer_norm") < 1.25

    @pytest.mark.parametrize("site", ["project-bn", "ssa-q", "mlp-gate",
                                      "repeat-ln", "repeat-bn"])
    def test_tracked_norm_site_keeps_one_array_per_node(self, site):
        # a weight site keeps the spikes of its one fold node, where a
        # matmul node of its own kept its product as a second unit; a
        # generator site keeps its repeat output and the spikes of its
        # norm→fold node, where a norm node of its own kept a third
        rng = np.random.default_rng(0)
        bound = 1.5
        if site == "project-bn":
            fn = _ProjectSpike(32, LIFParams(), rng)
        elif site == "ssa-q":
            ssa = SpikeSelfAttention(32, LIFParams(), rng, 0.125)

            def fn(x):
                return ssa.lif(x, linear=ssa.w_q, norm=ssa.bn_q)
        elif site == "mlp-gate":
            mlp = SpikeGatedMLP(32, LIFParams(), rng)

            def fn(x):
                return mlp.lif(x, linear=mlp.w_g)
        else:
            gen = SpikeGenerator(GeneratorConfig(variant=site, t=2, d=32),
                                 LIFParams(), rng)
            bound = 2.5

            def fn(x):
                return gen(x[0])
        held, _ = self.units(fn, requires_grad=True)
        assert held < bound


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
        reduce_max(x, axis=1).sum().backward()
        np.testing.assert_array_equal(
            x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_max_of_a_transposed_view_is_c_contiguous(self):
        # later reductions sum in memory order, so a max that kept the
        # strides of the fine similarity tensor's transpose (this axis
        # order) would change their rounding
        x = Tensor(RNG.standard_normal((2, 3, 4, 5)).astype(np.float32))
        out = reduce_max(transpose(x, (0, 2, 3, 1)), axis=-2)
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

    def test_context_switches_yield_and_reset(self):
        """Each switch sets its variable for the block only, also when the
        block raises, and yields what it always has."""
        cases = [(no_grad, (), tensor_module._grad_enabled, None),
                 (smooth_spike_mode, (), tensor_module._smooth_spikes, None),
                 (energy.recording, (), energy._ledger, [])]
        for switch, args, var, yielded in cases:
            before = var.get()
            with pytest.raises(RuntimeError):
                with switch(*args) as got:
                    assert got == yielded and var.get() != before
                    raise RuntimeError
            assert var.get() == before

    def test_neuron_fold_is_one_node(self):
        x = Tensor.param(X_DATA.copy())
        parent, threshold = lif_sequence(x, SPIKE)._parents
        assert parent is x and float(threshold.data) == SPIKE.v_th
        tlsn = TLSNParams.create(SPIKE)
        parent, threshold = tlsn_forward(x, tlsn)._parents
        assert parent is x and threshold.requires_grad
        assert threshold.data == tlsn.effective_threshold().data


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


# keys of each kind: ints, slices, ``...`` and ``None`` assign their gradient;
# advanced keys, which may repeat an index, go through np.add.at
GETITEM_KEYS = {
    "int": 1,
    "np_int": np.int64(-1),
    "slices": (slice(1, None), slice(None, None, 2)),
    "negative_step": (slice(None, None, -1), 0),
    "ellipsis_none": (Ellipsis, None, 2),
    "repeated_index": [0, 0, 2],
    "bool_mask": np.array([True, False, True]),
}


@pytest.mark.parametrize("name", sorted(GETITEM_KEYS))
def test_getitem_gradient_matches_add_at_bitwise(name):
    key = GETITEM_KEYS[name]
    x = Tensor.param(X_DATA.copy())
    y = x[key]
    w = np.random.default_rng(9).standard_normal(y.shape).astype(np.float32)
    w.flat[0] = -0.0  # an assigned -0.0 must not reach the stored gradient
    (y * w).sum().backward()
    scattered = np.zeros_like(X_DATA)
    np.add.at(scattered, key, w)
    expected = np.zeros_like(X_DATA)
    expected += scattered
    assert x.grad.tobytes() == expected.tobytes()


class TestTapeRelease:
    def test_interior_tensor_is_freed_by_backward(self):
        x = Tensor.param(X_DATA.copy())
        h = x * 2.0
        interior = weakref.ref(h)
        loss = (h * h).sum()
        del h
        loss.backward()
        assert interior() is None
        assert loss.data.shape == ()

    def test_leaves_keep_their_gradient(self):
        w = Tensor.param(np.ones((4, 2), dtype=np.float32))
        x = Tensor(X_DATA.copy(), requires_grad=True)
        matmul(x, w).sum().backward()
        np.testing.assert_allclose(w.grad, np.tile(X_DATA.sum(0)[:, None],
                                                   (1, 2)), rtol=1e-6)
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 2.0))

    def test_interior_nodes_drop_their_gradient(self):
        x = Tensor.param(X_DATA.copy())
        h = x * 2.0
        loss = h.sum()
        loss.backward()
        assert h.grad is None and loss.grad is None
        assert x.grad is not None

    @pytest.mark.parametrize("layout", ["fortran", "transposed"])
    def test_first_gradient_keeps_the_leaf_memory_order(self, layout):
        base = np.arange(15, dtype=np.float32).reshape(3, 5)
        data = np.asfortranarray(base) if layout == "fortran" else base.T
        x = Tensor.param(data)
        assert not x.data.flags.c_contiguous
        (x * 2.0).sum().backward()
        assert x.grad.strides == x.data.strides

    def test_second_backward_on_the_same_loss_raises(self):
        x = Tensor.param(X_DATA.copy())
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(UsageError, match="already propagated"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * X_DATA)

    def test_backward_through_a_spent_subgraph_raises(self):
        x = Tensor.param(X_DATA.copy())
        h = x * x
        first = h.sum()
        second = (h * 3.0).sum()
        first.backward()
        with pytest.raises(UsageError, match="already propagated"):
            second.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * X_DATA)


class TestSignedZero:
    """The gradient store is the one place a -0.0 becomes +0.0; fused
    backwards rely on it instead of replaying it."""

    def test_accumulate_never_stores_a_negative_zero(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        values = np.array([-0.0, 0.0, 1.0, -1.0, tiny, -tiny],
                          dtype=np.float32)
        first = np.repeat(values, values.size)
        t = Tensor.param(np.ones_like(first))
        t._accumulate(first)  # every pair of a first and a second entry
        assert not negative_zeros(t.grad).any()
        t._accumulate(np.tile(values, values.size))
        assert not negative_zeros(t.grad).any()
        t._accumulate(np.full_like(first, -0.0))
        assert not negative_zeros(t.grad).any()
        np.testing.assert_array_equal(t.grad,
                                      first + np.tile(values, values.size))

    @pytest.mark.parametrize("build", [softplus, lambda t: t.sum(axis=0)],
                             ids=["softplus", "sum"])
    def test_backward_ignores_the_sign_of_zero(self, build):
        x = X_DATA - np.float32(1.0)
        g = np.random.default_rng(12).standard_normal(
            build(Tensor(x)).shape).astype(np.float32)
        g[::2] = 0.0
        assert_zero_sign_inert(build, [x], g)


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
    """The layer-norm stage of a fold: its drive, and the fused node's
    gradients."""

    def _ln(self, d):
        return _norm("layer_norm", Tensor(np.ones(d, dtype=np.float32)),
                     Tensor(np.zeros(d, dtype=np.float32)))

    def test_constant_row_maps_to_zero(self):
        ln = self._ln(6)
        # dyadic constant: the row mean is exact, output exactly zero
        exact = normalized(ln, np.full((2, 6), 2.0, dtype=np.float32))
        np.testing.assert_array_equal(exact, 0.0)
        # arbitrary constant: zero up to eps-scale rounding
        out = normalized(ln, np.full((2, 6), 3.7, dtype=np.float32))
        np.testing.assert_allclose(out, 0.0, atol=1e-4)

    def test_affine_collapse(self):
        ln = _norm("layer_norm", Tensor(np.zeros(4, dtype=np.float32)),
                   Tensor(np.full(4, 2.5, dtype=np.float32)))
        out = normalized(ln, RNG.standard_normal((3, 4)).astype(np.float32))
        np.testing.assert_allclose(out, 2.5, atol=1e-6)

    def test_row_statistics(self):
        x = RNG.standard_normal((4, 8)).astype(np.float32) * 3.0 + 1.0
        out = normalized(self._ln(8), x)
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3

    def test_idempotent_up_to_eps(self):
        ln = self._ln(16)
        once = normalized(ln, RNG.standard_normal((3, 16)).astype(np.float32))
        twice = normalized(ln, once)
        np.testing.assert_allclose(twice, once, atol=1e-4)

    def test_gradient_against_finite_differences(self):
        # the fused node in smooth mode, where its backward is exact
        gamma = RNG.uniform(0.5, 1.5, 6).astype(np.float32)
        beta = RNG.standard_normal(6).astype(np.float32)
        ln = _norm("layer_norm", Tensor.param(gamma), Tensor.param(beta))
        x = Tensor.param(RNG.standard_normal((2, 6)).astype(np.float32))
        weights = RNG.standard_normal((2, 6)).astype(np.float32)
        lif = LIFParams(tau=1.5, v_th=0.5)

        def forward():
            return (lif_sequence(x, lif, ln) * weights).sum()

        def loss():
            return float(forward().data)

        with smooth_spike_mode():
            forward().backward()
        for p in (x, ln.gamma, ln.beta):
            fd = smooth_central_difference(loss, p, eps=1e-2)
            np.testing.assert_allclose(p.grad.reshape(-1), fd, atol=2e-3)


class TestBatchNorm:
    def _bn(self, d, beta_val=0.0):
        return _norm("batch_norm_train", Tensor(np.ones(d, dtype=np.float32)),
                     Tensor(np.full(d, beta_val, dtype=np.float32)))

    def test_fresh_norm_has_no_running_stats(self):
        bn = self._bn(3)
        assert bn.running_mean is None and bn.running_var is None
        assert bn.state().keys() == {"gamma", "beta"}

    def test_running_stats_stay_float32(self):
        bn = self._bn(4)
        for step in range(4):
            x = RNG.standard_normal((2, 3, 4)).astype(np.float32) + step
            lif_sequence(Tensor(x), SPIKE, bn)
            assert bn.running_mean.dtype == np.float32, step
            assert bn.running_var.dtype == np.float32, step

    def test_zero_input_zero_bias_gives_zero(self):
        out = normalized(self._bn(4), np.zeros((2, 3, 4), dtype=np.float32))
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_single_channel_hand_statistics(self):
        # batch values [1, 3]: mean 2, biased var 1 -> normalized [-1, 1]
        x = np.array([[1.0], [3.0]], dtype=np.float32)
        out = normalized(self._bn(1), x)
        np.testing.assert_allclose(out, [[-1.0], [1.0]], atol=1e-4)

    def test_eval_mode_is_deterministic(self):
        bn = self._bn(5)
        normalized(bn, RNG.standard_normal((6, 5)).astype(np.float32))
        x = Tensor(RNG.standard_normal((4, 5)).astype(np.float32))
        with no_grad():
            a = lif_sequence(x, SPIKE, bn)
            b = lif_sequence(x, SPIKE, bn)
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(normalized(bn, x.data),
                                  normalized(bn, x.data))

    def test_eval_without_stats_raises(self):
        with no_grad(), pytest.raises(StateError):
            lif_sequence(Tensor(np.zeros((2, 3))), SPIKE, self._bn(3))

    def test_grad_mode_uses_batch_moments_and_updates_stats(self):
        x = RNG.standard_normal((2, 3, 4)).astype(np.float32) * 2.0 + 0.5
        gamma, beta = _affine(4)
        bn = _norm("batch_norm_train", gamma, beta)
        spikes = lif_sequence(Tensor(x), SPIKE, bn)
        ref = _norm("batch_norm_train", gamma, beta)
        drive = reference_batch_norm(x, ref, batch_stats=True)
        assert spikes.data.tobytes() == \
            lif_sequence(drive, SPIKE).data.tobytes()
        assert bn.running_mean.tobytes() == ref.running_mean.tobytes()
        assert bn.running_var.tobytes() == ref.running_var.tobytes()

    def test_no_grad_uses_running_stats_and_leaves_them(self):
        x = RNG.standard_normal((2, 3, 4)).astype(np.float32) * 2.0 + 0.5
        gamma, beta = _affine(4)
        bn = _norm("batch_norm_train", gamma, beta)
        lif_sequence(Tensor(x), SPIKE, bn)  # grad mode: fills the stats
        before = bn.running_mean.tobytes(), bn.running_var.tobytes()
        y = x[:, :1] * np.float32(3.0)  # far from the stats' batch
        with no_grad():
            spikes = lif_sequence(Tensor(y), SPIKE, bn)
        drive = reference_batch_norm(y, bn, batch_stats=False)
        assert spikes.data.tobytes() == \
            lif_sequence(drive, SPIKE).data.tobytes()
        assert (bn.running_mean.tobytes(), bn.running_var.tobytes()) == before

    def test_statistics_pool_leading_axes(self):
        x = RNG.standard_normal((3, 4, 5, 2)).astype(np.float32)
        flat = normalized(self._bn(2), x).reshape(-1, 2)
        assert np.abs(flat.mean(axis=0)).max() < 1e-5
        assert np.abs(flat.var(axis=0) - 1.0).max() < 1e-3


# the fused node's cases beside each norm: neuron, time steps, smooth mode
FOLD_CASES = [(neuron, t, smooth) for neuron in ("lif", "tlsn")
              for t in (1, 2, 3) for smooth in (False, True)]
CASE_LIF = LIFParams(tau=2.0, v_th=0.4, v_reset=-0.1)


class TestNormNode:
    """A norm and the fold it feeds are one tape node over
    ``(x, threshold, gamma, beta)``, bit for bit equal to the norm's
    composed graph followed by a fold node: spikes, the gradients of every
    parent, and the running stats, for a LIF and a TLSN neuron, T = 1, 2
    and 3, hard and smooth spikes."""

    @staticmethod
    def inputs(t=2):
        rng = np.random.default_rng(41 + t)
        x = rng.standard_normal((t, 3, 5, 6)).astype(np.float32) * 2.0 + 0.5
        gamma = rng.uniform(-1.5, 1.5, 6).astype(np.float32)
        gamma[2] = 0.0
        beta = rng.standard_normal(6).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        g.reshape(-1)[::7] = -0.0
        return x, gamma, beta, g

    @staticmethod
    def run(fold, name, neuron, x, gamma, beta, smooth):
        """``fold`` (the node, or its composed stand-in) over ``x`` with the
        norm ``name`` and ``neuron``'s threshold, in the norm's grad mode:
        (spikes, threshold leaf, norm block)."""
        norm = _norm(name, Tensor.param(gamma), Tensor.param(beta))
        tlsn = TLSNParams.create(CASE_LIF)
        with _mode(name), \
                smooth_spike_mode() if smooth else contextlib.nullcontext():
            th = (tlsn.effective_threshold() if neuron == "tlsn"
                  else CASE_LIF.v_th)
            spikes = fold(x, CASE_LIF, th, norm)
        return spikes, tlsn.v_th_raw, norm

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x", "no_x"])
    @pytest.mark.parametrize("name", sorted(NORMS))
    def test_bit_identical_to_composed_graph(self, name, x_grad):
        # an eval batch norm is never on the tape: its spikes alone compare
        recorded = name in RECORDED_NORMS
        for neuron, t, smooth in FOLD_CASES:
            x0, gamma0, beta0, g = self.inputs(t)
            runs = []
            for fold in (_fold, composed_fold(_fold)):
                x = Tensor(x0.copy(), requires_grad=x_grad)
                spikes, raw, norm = self.run(fold, name, neuron, x, gamma0,
                                             beta0, smooth)
                assert spikes.requires_grad == recorded
                runs.append(bytes_after_backward(
                    spikes, g, x, norm.gamma, norm.beta, raw)
                    if recorded else [spikes.data.tobytes()])
            node, oracle = runs
            rate = np.frombuffer(node[0], dtype=np.float32).mean()
            assert 0 < rate < 1, (neuron, t, smooth)
            for what, a, b in zip(("spikes", "x", "gamma", "beta", "th"),
                                  node, oracle):
                assert a == b, (what, neuron, t, smooth)

    def test_running_stats_match_composed_graph(self):
        for t in (1, 2, 3):
            x0, gamma0, beta0, _ = self.inputs(t)
            stats = []
            for fold in (_fold, composed_fold(_fold)):
                norm = _norm("batch_norm_train", Tensor(gamma0),
                             Tensor(beta0))
                x = x0
                for _ in range(2):
                    fold(Tensor(x), CASE_LIF, CASE_LIF.v_th, norm)
                    x = x * np.float32(1.5) - np.float32(0.25)
                stats.append((norm.running_mean.tobytes(),
                              norm.running_var.tobytes()))
            assert stats[0] == stats[1], t

    @pytest.mark.parametrize("name", RECORDED_NORMS)
    def test_backward_ignores_the_sign_of_zero(self, name):
        # a zero row and a zero channel at every step give x, gamma and
        # beta exact zeros
        for t, smooth in ((1, False), (1, True), (3, False), (3, True)):
            x, gamma, beta, g = self.inputs(t)
            g[:, 0, 0] = g[..., 3] = 0.0

            def build(x, th, gamma, beta):
                norm = _norm(name, gamma, beta)
                with smooth_spike_mode() if smooth else \
                        contextlib.nullcontext():
                    return _fold(x, CASE_LIF, th, norm)

            assert_zero_sign_inert(
                build, [x, np.float32(CASE_LIF.v_th), gamma, beta], g)

    @pytest.mark.parametrize("name", RECORDED_NORMS)
    def test_one_node_over_input_and_affine(self, name):
        x0, gamma0, beta0, _ = self.inputs()
        x, th = Tensor.param(x0), Tensor.param(np.float32(CASE_LIF.v_th))
        norm = _norm(name, Tensor.param(gamma0), Tensor.param(beta0))
        out = _fold(x, CASE_LIF, th, norm)
        assert out._parents == (x, th, norm.gamma, norm.beta)


def _linear(w):
    """A bias-free ``Linear`` holding the tensor ``w``."""
    linear = Linear(*w.shape, np.random.default_rng(0), bias=False)
    linear.w = w
    return linear


class TestLinearStage:
    """A bias-free ``Linear`` is the fold's first input stage, ahead of the
    norm: one tape node over ``(x, w, threshold, gamma, beta)``, bit for bit
    equal to a generic ``matmul`` node, the norm's composed graph and a fold
    node: spikes and the gradients of every parent, for a LIF and a TLSN
    neuron, T = 1, 2 and 3, hard and smooth spikes, with each norm or none."""

    @staticmethod
    def inputs(t=2):
        rng = np.random.default_rng(61 + t)
        x = rng.standard_normal((t, 3, 5, 4)).astype(np.float32)
        x[..., 0] = x[..., 0] > 0  # a spike channel among float ones
        w = rng.standard_normal((4, 6)).astype(np.float32)
        gamma = rng.uniform(-1.5, 1.5, 6).astype(np.float32)
        gamma[2] = 0.0
        beta = rng.standard_normal(6).astype(np.float32)
        g = rng.standard_normal((t, 3, 5, 6)).astype(np.float32)
        g.reshape(-1)[::7] = -0.0
        return x, w, gamma, beta, g

    @staticmethod
    def run(fold, name, neuron, x, w, gamma, beta, smooth):
        """``fold`` (the node, or its composed stand-in) over ``x`` with the
        weight ``w``, the norm ``name`` (or none) and ``neuron``'s
        threshold, in the norm's grad mode: (spikes, threshold leaf, the
        leaves of the norm)."""
        norm, affine = None, []
        if name != "none":
            norm = _norm(name, Tensor.param(gamma), Tensor.param(beta))
            affine = [norm.gamma, norm.beta]
        tlsn = TLSNParams.create(CASE_LIF)
        with _mode(name), \
                smooth_spike_mode() if smooth else contextlib.nullcontext():
            th = (tlsn.effective_threshold() if neuron == "tlsn"
                  else CASE_LIF.v_th)
            spikes = fold(x, CASE_LIF, th, norm, linear=_linear(w))
        return spikes, tlsn.v_th_raw, affine

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x", "no_x"])
    @pytest.mark.parametrize("name", sorted(NORMS) + ["none"])
    def test_bit_identical_to_composed_graph(self, name, x_grad):
        # an eval batch norm is never on the tape: its spikes alone compare
        recorded = name in RECORDED_NORMS + ["none"]
        for neuron, t, smooth in FOLD_CASES:
            x0, w0, gamma0, beta0, g = self.inputs(t)
            runs = []
            for fold in (_fold, composed_fold(_fold)):
                x = Tensor(x0.copy(), requires_grad=x_grad)
                w = Tensor.param(w0.copy())
                spikes, raw, affine = self.run(fold, name, neuron, x, w,
                                               gamma0, beta0, smooth)
                assert spikes.requires_grad == recorded
                runs.append(bytes_after_backward(spikes, g, x, w, raw,
                                                 *affine)
                            if recorded else [spikes.data.tobytes()])
            node, oracle = runs
            rate = np.frombuffer(node[0], dtype=np.float32).mean()
            assert 0 < rate < 1, (neuron, t, smooth)
            if recorded:
                assert node[2] is not None
                assert (node[1] is not None) == x_grad
            for what, a, b in zip(("spikes", "x", "w", "th", "gamma", "beta"),
                                  node, oracle):
                assert a == b, (what, neuron, t, smooth)

    @pytest.mark.parametrize("name", RECORDED_NORMS + ["none"])
    def test_backward_ignores_the_sign_of_zero(self, name):
        # a zero row and a zero channel at every step give x, w, gamma and
        # beta exact zeros
        for t, smooth in ((1, False), (1, True), (3, False), (3, True)):
            x, w, gamma, beta, g = self.inputs(t)
            g[:, 0, 0] = g[..., 3] = 0.0

            def build(x, w, th, *affine):
                norm = _norm(name, *affine) if affine else None
                with smooth_spike_mode() if smooth else \
                        contextlib.nullcontext():
                    return _fold(x, CASE_LIF, th, norm, _linear(w))

            affine = [] if name == "none" else [gamma, beta]
            assert_zero_sign_inert(
                build, [x, w, np.float32(CASE_LIF.v_th), *affine], g)

    def test_smooth_gradients_match_finite_differences(self):
        # Linear→BatchNorm→fold: the recomputed product, the norm and the
        # membrane replay form an exact backward of the smooth forward
        rng = np.random.default_rng(9191)
        x = Tensor.param(rng.standard_normal((2, 3, 4)).astype(np.float32))
        w = Tensor.param(rng.standard_normal((4, 5)).astype(np.float32))
        norm = _norm(
            "batch_norm_train",
            Tensor.param(rng.uniform(0.5, 1.5, 5).astype(np.float32)),
            Tensor.param(rng.standard_normal(5).astype(np.float32) * 0.3))
        upstream = Tensor(rng.standard_normal((2, 3, 5)).astype(np.float32))
        lif = LIFParams(tau=1.5, v_th=0.5, v_reset=-0.2)

        def forward():
            return (lif_sequence(x, lif, norm, _linear(w))
                    * upstream).sum()

        def loss():
            return float(forward().data)

        with smooth_spike_mode():
            forward().backward()
        for p in (x, w, norm.gamma, norm.beta):
            fd = smooth_central_difference(loss, p, eps=1e-2)
            err = np.abs(p.grad.reshape(-1) - fd)
            tol = np.maximum(1e-3, 1e-2 * np.abs(fd))
            assert (err <= tol).all(), f"max err {err.max()}"

    def test_one_node_over_input_weight_and_affine(self):
        x0, w0, gamma0, beta0, _ = self.inputs()
        x, th = Tensor.param(x0), Tensor.param(np.float32(CASE_LIF.v_th))
        linear = _linear(Tensor.param(w0))
        norm = _norm("batch_norm_train", Tensor.param(gamma0),
                     Tensor.param(beta0))
        out = _fold(x, CASE_LIF, th, norm, linear)
        assert out._parents == (x, linear.w, th, norm.gamma, norm.beta)

    def test_untracked_stage_matches_a_matmul_first(self):
        # the eval path: no node, the product's own bits
        x0, w0, gamma0, beta0, _ = self.inputs(3)
        norm = _norm("batch_norm_eval", Tensor(gamma0), Tensor(beta0))
        with no_grad():
            fused = lif_sequence(Tensor(x0), CASE_LIF, norm,
                                 linear=_linear(Tensor.param(w0)))
            composed = lif_sequence(matmul(Tensor(x0), Tensor(w0)), CASE_LIF,
                                    norm)
        assert fused._parents == ()
        assert fused.data.tobytes() == composed.data.tobytes()

    def test_a_biased_linear_is_rejected(self):
        x = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        with pytest.raises(UsageError, match="takes no bias"):
            lif_sequence(x, CASE_LIF,
                         linear=Linear(4, 6, np.random.default_rng(0)))

    def test_inner_axes_must_agree(self):
        x = Tensor(np.zeros((2, 3, 5), dtype=np.float32))
        with pytest.raises(UsageError, match="inner axes differ"):
            lif_sequence(x, CASE_LIF, linear=_linear(
                Tensor(np.zeros((4, 6), dtype=np.float32))))


class TestSpikeThreshold:
    def test_boundary_fires(self):
        out = spike(Tensor(np.array([1.0], dtype=np.float32)), 1.0)
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_far_below_threshold(self):
        h = Tensor.param(np.array([-100.0], dtype=np.float32))
        out = spike(h, 1.0)
        np.testing.assert_array_equal(out.data, [[0.0]])
        out.sum().backward()
        assert abs(h.grad[0]) < 1e-4

    def test_output_is_binary(self):
        h = Tensor(RNG.standard_normal(1000).astype(np.float32))
        out = spike(h, 0.3)
        assert set(np.unique(out.data)) <= {0.0, 1.0}

    def test_surrogate_gradient_matches_primitive_fd(self):
        # surrogate-path gradient of sum(spikes) vs central finite
        # differences of the smooth primitive itself
        h = Tensor.param(RNG.uniform(-2, 2, 64).astype(np.float32))
        v_th = 0.5
        spike(h, v_th).sum().backward()
        eps = 1e-3
        fd = (surrogate_primitive(h.data - v_th + eps, 2.0)
              - surrogate_primitive(h.data - v_th - eps, 2.0)) / (2 * eps)
        np.testing.assert_allclose(h.grad, fd, atol=1e-3)

    def test_smooth_mode_forward_is_primitive(self):
        h = Tensor(np.array([0.5, 5.5, -4.5], dtype=np.float32))
        with smooth_spike_mode():
            out = spike(h, 0.5)
        np.testing.assert_allclose(out.data[0],
                                   surrogate_primitive(h.data - 0.5, 2.0))

    def test_learnable_threshold_gradient(self):
        h = Tensor(RNG.standard_normal((1, 32)).astype(np.float32))
        tlsn = TLSNParams.create(LIFParams(tau=1.0, v_th=0.4, v_reset=0.0))
        tlsn_forward(h, tlsn).sum().backward()
        v_th = tlsn.effective_threshold().data
        raw = tlsn.v_th_raw.data
        # chain rule through v_th = softplus(raw) + 0.01
        expected = (-surrogate_derivative(h.data - v_th, 2.0).sum()
                    / (1.0 + np.exp(-raw)))
        np.testing.assert_allclose(float(tlsn.v_th_raw.grad), expected,
                                   rtol=1e-5)


class TestSoftplus:
    def test_value_and_gradient(self):
        x = Tensor.param(np.array([-3.0, 0.0, 2.0], dtype=np.float32))
        out = softplus(x)
        np.testing.assert_allclose(out.data, np.logaddexp(0, x.data), rtol=1e-6)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, 1 / (1 + np.exp(-x.data)), rtol=1e-5)


def test_composed_graph_matches_finite_differences():
    """Reverse-mode on a mixed op chain, a norm→fold node among them, vs
    central FD at float32 tolerances (smooth spikes: an exact backward)."""
    rng = np.random.default_rng(9090)
    x = Tensor.param(rng.standard_normal((3, 4)).astype(np.float32))
    w = Tensor.param(rng.standard_normal((4, 4)).astype(np.float32))
    ln = _norm("layer_norm", Tensor.param(np.ones(4, dtype=np.float32)),
               Tensor.param(np.zeros(4, dtype=np.float32)))
    lif = LIFParams(tau=1.5, v_th=0.5)

    def forward():
        y = lif_sequence(matmul(x, w), lif, ln)
        z = logsumexp(y * np.float32(2.0), axis=-1)
        return mean(z * z)

    def loss():
        return float(forward().data)

    with smooth_spike_mode():
        forward().backward()
    for p in (x, w, ln.gamma, ln.beta):
        fd = smooth_central_difference(loss, p, eps=1e-2)
        an = p.grad.reshape(-1)
        err = np.abs(an - fd)
        tol = np.maximum(1e-3, 1e-2 * np.abs(fd))
        assert (err <= tol).all(), f"max err {err.max()}"
