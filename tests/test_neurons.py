"""LIF dynamics against hand evaluations, the composed reference fold and
the scalar step simulator."""

import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spikefusion.errors import ConfigError, UsageError
from spikefusion.neurons import (
    LIFParams,
    TLSNParams,
    _fold,
    lif_sequence,
    tlsn_forward,
)
from spikefusion.tensor import Tensor, smooth_spike_mode

from helpers import (
    assert_zero_sign_inert,
    reference_fold,
    scalar_lif_simulate,
    smooth_central_difference,
)

RNG = np.random.default_rng(77)
DEFAULT = LIFParams(tau=2.0, v_th=1.0, v_reset=0.0)
TINY = np.float32(np.finfo(np.float32).smallest_subnormal)


def _steps(values):
    """A (T, n) input tensor from nested per-step values."""
    return Tensor(np.asarray(values, dtype=np.float32))


def _potentials(x, params):
    """Post-reset membrane of each step, from the composed reference."""
    _, potentials = reference_fold(x, params.tau, params.v_th, params.v_reset)
    return np.stack([v.data for v in potentials])


class TestLifStep:
    def test_suprathreshold_input_fires_and_resets(self):
        # tau=2, v=0, x=2.0: h = 0 + (2 - 0)/2 = 1.0 >= v_th -> fire, v -> 0
        x = _steps([[2.0]])
        np.testing.assert_array_equal(lif_sequence(x, DEFAULT).data, [[1.0]])
        np.testing.assert_array_equal(_potentials(x, DEFAULT), [[0.0]])

    def test_subthreshold_input_accumulates(self):
        # x=0.5: h = 0.25 < 1 -> no spike, membrane carries h; a second
        # drive of 1.75 then reaches 0.25 + 1.5/2 = 1.0, which from rest
        # (0.875) it would not
        np.testing.assert_array_equal(
            lif_sequence(_steps([[0.5]]), DEFAULT).data, [[0.0]])
        np.testing.assert_array_equal(_potentials(_steps([[0.5]]), DEFAULT),
                                      [[0.25]])
        np.testing.assert_array_equal(
            lif_sequence(_steps([[0.5], [1.75]]), DEFAULT).data, [[0.0], [1.0]])
        np.testing.assert_array_equal(
            lif_sequence(_steps([[1.75]]), DEFAULT).data, [[0.0]])

    def test_zero_input_is_fixed_point(self):
        x = _steps(np.zeros((5, 2)))
        np.testing.assert_array_equal(lif_sequence(x, DEFAULT).data,
                                      np.zeros((5, 2)))
        np.testing.assert_array_equal(_potentials(x, DEFAULT), np.zeros((5, 2)))

    def test_boundary_membrane_fires(self):
        # h lands exactly on the threshold -> fires (>= rule)
        assert lif_sequence(_steps([[2.0]]), DEFAULT).data[0, 0] == 1.0

    def test_hard_reset_is_exact(self):
        params = LIFParams(tau=1.5, v_th=0.3, v_reset=-0.25)
        x = _steps(RNG.uniform(0.0, 2.0, (1, 64)))
        fired = lif_sequence(x, params).data[0] == 1.0
        assert fired.any()
        assert (_potentials(x, params)[0, fired] == np.float32(-0.25)).all()

    def test_monotone_in_input_at_fixed_state(self):
        # a shared first step sets the same membrane state for both inputs
        first = RNG.standard_normal(128)
        x = RNG.standard_normal(128)
        bigger = x + RNG.uniform(0.0, 1.0, 128)
        s_small = lif_sequence(_steps([first, x]), DEFAULT).data[1]
        s_big = lif_sequence(_steps([first, bigger]), DEFAULT).data[1]
        assert (s_big >= s_small).all()


class TestSpikeRule:
    """The hard spike fires on ``h >= v_th``; the surrogate is a function of
    ``u = h - v_th``.  For a finite threshold the two rules agree on every
    float32 membrane, so the forward needs no ``u``."""

    @staticmethod
    def assert_rules_agree(h, th):
        h, th = np.asarray(h, np.float32), np.asarray(th, np.float32)
        with np.errstate(over="ignore"):  # an overflow keeps its sign
            u = h - th
        np.testing.assert_array_equal(np.greater_equal(h, th), u >= 0)

    @settings(max_examples=300, deadline=None)
    @given(h=arrays(np.float32, st.integers(1, 32),
                    elements=st.floats(width=32)),
           th=st.floats(width=32, allow_nan=False, allow_infinity=False))
    def test_any_membrane_against_a_finite_threshold(self, h, th):
        self.assert_rules_agree(h, th)

    @pytest.mark.parametrize("th", [1.0, -1.0, 0.0, -0.0, 1e-38, TINY, -TINY,
                                    3e38, -3e38])
    def test_adjacent_floats(self, th):
        th = np.float32(th)
        self.assert_rules_agree(
            [np.nextafter(th, np.float32(-np.inf)), th,
             np.nextafter(th, np.float32(np.inf))], th)

    @pytest.mark.parametrize("h, th", [
        (TINY, 0.0), (0.0, TINY), (-0.0, TINY), (-TINY, -0.0),
        (2 * TINY, TINY), (TINY, 2 * TINY),
    ])
    def test_a_gap_of_one_subnormal(self, h, th):
        self.assert_rules_agree([h], th)


class TestLifSequence:
    def test_subthreshold_potentials_hand_fold(self):
        # constant 0.5 drive: potentials 0.25, 0.375, 0.4375, never firing
        x = Tensor(np.full((3, 1), 0.5, dtype=np.float32))
        np.testing.assert_allclose(_potentials(x, DEFAULT)[:, 0],
                                   [0.25, 0.375, 0.4375], rtol=1e-6)
        spikes = lif_sequence(x, DEFAULT)
        np.testing.assert_array_equal(spikes.data, np.zeros((3, 1)))

    def test_reset_between_firing_steps(self):
        spikes = lif_sequence(Tensor(np.full((2, 1), 2.0, dtype=np.float32)),
                              DEFAULT)
        np.testing.assert_array_equal(spikes.data, [[1.0], [1.0]])

    def test_shape_and_codomain(self):
        x = Tensor(RNG.standard_normal((4, 2, 3)).astype(np.float32) * 2.0)
        spikes = lif_sequence(x, DEFAULT)
        assert spikes.shape == x.shape
        assert set(np.unique(spikes.data)) <= {0.0, 1.0}

    def test_empty_time_axis_rejected(self):
        with pytest.raises(UsageError):
            lif_sequence(Tensor(np.zeros((0, 3))), DEFAULT)

    def test_matches_scalar_simulator(self):
        # vectorized fold == independent per-neuron scalar loop, bit for bit,
        # for spikes and (through the composed reference) post-reset
        # membrane potentials at every step
        for case in range(50):
            rng = np.random.default_rng(1000 + case)
            tau = float(rng.uniform(1.0, 4.0))
            v_reset = float(rng.uniform(-0.5, 0.5))
            v_th = v_reset + float(rng.uniform(0.1, 1.5))
            t, n = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            x = (rng.standard_normal((t, n)) * 2.0).astype(np.float32)
            params = LIFParams(tau=tau, v_th=v_th, v_reset=v_reset)
            spikes = lif_sequence(Tensor(x), params).data
            potentials = _potentials(Tensor(x), params)
            for j in range(n):
                ref_s, ref_v = scalar_lif_simulate(x[:, j], tau, v_th, v_reset)
                np.testing.assert_array_equal(spikes[:, j], ref_s)
                np.testing.assert_array_equal(potentials[:, j], ref_v)

    def test_state_resets_between_calls(self):
        x = Tensor(np.full((1, 1), 0.9, dtype=np.float32))
        first = lif_sequence(x, DEFAULT).data.copy()
        second = lif_sequence(x, DEFAULT).data
        np.testing.assert_array_equal(first, second)


class TestParams:
    def test_tau_floor(self):
        with pytest.raises(ConfigError):
            LIFParams(tau=0.5)

    def test_threshold_above_reset(self):
        with pytest.raises(ConfigError):
            LIFParams(v_th=0.0, v_reset=0.0)


class TestThresholdLearnable:
    def test_init_matches_fixed_threshold(self):
        tlsn = TLSNParams.create(DEFAULT)
        np.testing.assert_allclose(float(tlsn.effective_threshold().data), 1.0,
                                   rtol=1e-6)
        x = Tensor(RNG.standard_normal((3, 8)).astype(np.float32) * 1.5)
        np.testing.assert_array_equal(tlsn_forward(x, tlsn).data,
                                      lif_sequence(x, DEFAULT).data)

    def test_huge_threshold_silences(self):
        tlsn = TLSNParams.create(replace(DEFAULT, v_th=50.0))
        x = Tensor(RNG.uniform(0, 2, (4, 16)).astype(np.float32))
        assert tlsn_forward(x, tlsn).data.sum() == 0.0

    def test_threshold_gradient_is_nonpositive(self):
        # raising the threshold cannot increase surrogate-smoothed firing
        tlsn = TLSNParams.create(DEFAULT)
        x = Tensor(RNG.standard_normal((3, 32)).astype(np.float32) * 1.2)
        tlsn_forward(x, tlsn).sum().backward()
        assert float(tlsn.v_th_raw.grad) <= 0.0

    def test_threshold_fd_sign_on_smooth_graph(self):
        tlsn = TLSNParams.create(DEFAULT)
        rng = np.random.default_rng(501)
        x = Tensor(rng.standard_normal((2, 64)).astype(np.float32) * 1.2)

        def spike_count():
            return float(tlsn_forward(x, tlsn).sum().data)

        fd = smooth_central_difference(spike_count, tlsn.v_th_raw, eps=1e-2)
        assert fd[0] <= 0.0

    def test_effective_threshold_stays_above_reset(self):
        tlsn = TLSNParams.create(DEFAULT)
        tlsn.v_th_raw.data = np.float32(-40.0)  # softplus underflows to ~0
        assert float(tlsn.effective_threshold().data) > DEFAULT.v_reset


class TestSmoothMode:
    def test_sequence_gradient_matches_fd(self):
        params = LIFParams(tau=2.0, v_th=0.6, v_reset=0.0)
        rng = np.random.default_rng(502)
        x = Tensor.param(rng.standard_normal((2, 6)).astype(np.float32))

        def loss():
            return float(lif_sequence(x, params).sum().data)

        with smooth_spike_mode():
            lif_sequence(x, params).sum().backward()
        fd = smooth_central_difference(loss, x, eps=1e-3)
        np.testing.assert_allclose(x.grad.reshape(-1), fd, atol=1e-3)

    def test_sequence_gradient_matches_fd_over_three_steps(self):
        # a nonzero reset keeps the attached reset term g_v * (v_reset - h)
        params = LIFParams(tau=1.5, v_th=0.4, v_reset=-0.3)
        rng = np.random.default_rng(503)
        x = Tensor.param(rng.standard_normal((3, 6)).astype(np.float32))
        w = rng.standard_normal((3, 6)).astype(np.float32)

        def loss():
            return float((lif_sequence(x, params) * w).sum().data)

        with smooth_spike_mode():
            (lif_sequence(x, params) * w).sum().backward()
        fd = smooth_central_difference(loss, x, eps=1e-3)
        np.testing.assert_allclose(x.grad.reshape(-1), fd, atol=2e-3)

    def test_threshold_gradient_matches_fd(self):
        tlsn = TLSNParams.create(LIFParams(tau=2.0, v_th=0.7, v_reset=-0.2))
        rng = np.random.default_rng(504)
        x = Tensor(rng.standard_normal((3, 64)).astype(np.float32) * 1.2)
        w = rng.standard_normal((3, 64)).astype(np.float32)

        def loss():
            return float((tlsn_forward(x, tlsn) * w).sum().data)

        with smooth_spike_mode():
            (tlsn_forward(x, tlsn) * w).sum().backward()
        fd = smooth_central_difference(loss, tlsn.v_th_raw, eps=1e-2)
        np.testing.assert_allclose(float(tlsn.v_th_raw.grad), fd[0], rtol=1e-2)


def _kernel_and_reference(kind, x_data, lif, w):
    """Spikes, input gradient and (TLSN) threshold gradient of
    ``sum(fold(x) * w)`` from the one-node kernel and from the composed
    reference."""
    results = []
    for use_kernel in (True, False):
        x = Tensor.param(x_data.copy())
        tlsn = TLSNParams.create(lif)
        if use_kernel:
            spikes = tlsn_forward(x, tlsn) if kind == "tlsn" else lif_sequence(x, lif)
        else:
            v_th = tlsn.effective_threshold() if kind == "tlsn" else lif.v_th
            spikes, _ = reference_fold(x, lif.tau, v_th, lif.v_reset,
                                       lif.surrogate_alpha)
        (spikes * w).sum().backward()
        checked = [spikes.data, x.grad]
        if kind == "tlsn":
            checked.append(tlsn.v_th_raw.grad)
        results.append(checked)
    return results


def _fold_case(kind, t, case):
    """LIF parameters, a (t, 3, 8) fold input and an upstream gradient with
    a -0.0 planted in about a quarter of its entries."""
    rng = np.random.default_rng(7000 + 100 * t + case)
    if case == 0:
        # planted boundary hit: with v_reset 0 and tau 2 the first
        # membrane is x / 2 exactly, so x = 2 * v_th lands on the threshold
        lif = LIFParams(tau=2.0, v_th=float(rng.uniform(0.2, 1.5)))
    else:
        v_reset = float(rng.uniform(-0.5, 0.5))
        lif = LIFParams(tau=float(rng.uniform(1.0, 4.0)),
                        v_th=v_reset + float(rng.uniform(0.1, 1.5)),
                        v_reset=v_reset)
    x_data = (rng.standard_normal((t, 3, 8)) * 2.0).astype(np.float32)
    if case == 0:
        v_th = (TLSNParams.create(lif).effective_threshold().data
                if kind == "tlsn" else np.float32(lif.v_th))
        x_data[0, 0, 0] = np.float32(2.0) * v_th
    w = rng.standard_normal(x_data.shape).astype(np.float32)
    w[rng.random(w.shape) < 0.25] = -0.0
    return lif, x_data, w


@pytest.mark.parametrize("kind", ["lif", "tlsn"])
@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_fold_kernel_matches_composed_reference_bitwise(kind, t):
    # the threshold gradient adds its per-step terms in forward time order,
    # as the composed graph does; summing them in reverse breaks this at T >= 3
    for case in range(12):
        lif, x_data, w = _fold_case(kind, t, case)
        kernel, reference = _kernel_and_reference(kind, x_data, lif, w)
        if case == 0:
            assert kernel[0][0, 0, 0] == 1.0
        for got, want in zip(kernel, reference):
            assert got.tobytes() == want.tobytes(), (kind, t, case)


@pytest.mark.parametrize("smooth", [False, True], ids=["hard", "smooth"])
@pytest.mark.parametrize("t", [1, 3])
def test_fold_backward_ignores_the_sign_of_zero(t, smooth):
    # the node over an input leaf and a learnable threshold leaf
    lif, x_data, w = _fold_case("lif", t, case=1)

    def build(x, th):
        with smooth_spike_mode() if smooth else contextlib.nullcontext():
            return _fold(x, lif, th)

    assert_zero_sign_inert(build, [x_data, np.float32(lif.v_th)], w)
