"""Operation and energy accounting: formulas, ledger, instrumented report."""

import os

import numpy as np
import pytest

from spikefusion.config import RunConfig
from spikefusion import energy
from spikefusion.energy import (
    EnergyConstants,
    EnergyReport,
    LayerLedger,
    energy_report,
    firing_rate,
    layer_energy,
    occupancy,
    record_mask,
    record_matmul,
    recording,
    scope,
    sops,
)
from spikefusion.errors import (
    AccountingError,
    ParameterError,
    StateError,
    UsageError,
)
from spikefusion.model import RetrievalModel
from spikefusion.tensor import Tensor

RNG = np.random.default_rng(11)
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "energy_report.txt")


class TestFiringRate:
    def test_all_zeros(self):
        assert firing_rate(Tensor(np.zeros((2, 3)))) == 0.0

    def test_all_ones(self):
        assert firing_rate(Tensor(np.ones((2, 3)))) == 1.0

    def test_alternating_half(self):
        s = np.zeros(10, dtype=np.float32)
        s[::2] = 1.0
        assert firing_rate(Tensor(s)) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            firing_rate(Tensor(np.zeros((0,))))

    def test_non_binary_rejected(self):
        with pytest.raises(UsageError):
            firing_rate(Tensor(np.array([0.0, 0.5])))

    def test_occupancy_on_residual_values(self):
        x = np.array([0.0, 1.0, 2.0, 0.0], dtype=np.float32)
        assert occupancy(x) == 0.5


class TestSops:
    def test_direct_arithmetic(self):
        # T=2, rate 0.25, 1000 FLOPs -> 500 synaptic ops
        assert sops(LayerLedger("l", "spiking", 1000, 0.25, t=2)) == 500

    def test_zero_rate(self):
        assert sops(LayerLedger("l", "spiking", 12345, 0.0, t=4)) == 0

    def test_degenerate_identity(self):
        assert sops(LayerLedger("l", "spiking", 777, 1.0, t=1)) == 777

    def test_non_spiking_rejected(self):
        with pytest.raises(UsageError):
            sops(LayerLedger("l", "float", 100, 1.0))


class TestLayerEnergy:
    CONSTS = EnergyConstants()  # 4.6 pJ per MAC, 0.9 pJ per AC

    def test_spiking_layer(self):
        ledger = LayerLedger("l", "spiking", 1000, 0.25, t=2)  # 500 SOPs
        assert layer_energy(ledger, self.CONSTS) == pytest.approx(450.0)

    def test_float_layer(self):
        ledger = LayerLedger("l", "float", 100, 1.0)
        assert layer_energy(ledger, self.CONSTS) == pytest.approx(460.0)

    def test_mask_layer_is_free(self):
        ledger = LayerLedger("gate_multiply", "mask", 0, 0.0)
        assert layer_energy(ledger, self.CONSTS) == 0.0

    def test_constants_must_be_positive(self):
        with pytest.raises(ParameterError):
            EnergyConstants(e_mac=0.0)

    def test_unknown_layer_kind_named_in_error(self):
        with pytest.raises(AccountingError, match="mystery"):
            LayerLedger("mystery", "analog", 10, 0.5)


def test_headline_arithmetic_reproduction():
    """265.04 M ops at a 60/40 AC/MAC split under the 45 nm constants land
    within 2% of the published 0.626 mJ total."""
    consts = EnergyConstants()
    ops = 265.04e6
    mixed_pj = ops * (0.6 * consts.e_ac + 0.4 * consts.e_mac)
    mixed_mj = mixed_pj * 1e-9
    assert mixed_mj == pytest.approx(0.6308, abs=5e-4)
    assert abs(mixed_mj - 0.626) / 0.626 < 0.02


class TestRecorder:
    def test_matmul_flop_counting_oracle(self):
        a = Tensor(np.zeros((5, 4), dtype=np.float32))
        b = Tensor(np.zeros((4, 7), dtype=np.float32))
        with recording() as layers:
            record_matmul("mm", a, b, 1, "float")
        assert layers[0].flops == 5 * 7 * 4  # m * n * k multiply-adds

    def test_linear_counts_per_step(self):
        x = Tensor((RNG.random((2, 3, 4, 8)) < 0.5).astype(np.float32))
        w = Tensor(np.zeros((8, 16), dtype=np.float32))
        with recording() as layers:
            record_matmul("lin", x, w, 2, "spiking")
        ledger = layers[0]
        assert ledger.flops == 3 * 4 * 8 * 16  # one time step's MACs
        assert ledger.t == 2
        assert 0.0 < ledger.rate < 1.0

    def test_mask_counts_multiplies_at_no_cost(self):
        with recording() as layers:
            record_mask("gate")
            record_mask("comb", 96)
        assert [(l.kind, l.flops) for l in layers] == [("mask", 0),
                                                       ("mask", 96)]
        assert EnergyReport(layers, EnergyConstants()).total_picojoules == 0.0

    def test_report_totals_are_sums(self):
        report = EnergyReport([LayerLedger("a", "spiking", 1000, 0.5, t=2),
                               LayerLedger("b", "float", 300, 1.0),
                               LayerLedger("c", "mask", 0, 0.0)],
                              EnergyConstants())
        assert report.ac_ops == 1000
        assert report.mac_ops == 300
        expected = 0.9 * 1000 + 4.6 * 300
        assert report.total_picojoules == pytest.approx(expected)
        assert report.ac_fraction == pytest.approx(1000 / 1300)


class TestRecording:
    EMPTY = Tensor(np.zeros((0, 4), dtype=np.float32))
    W = Tensor(np.zeros((4, 2), dtype=np.float32))

    def test_records_nothing_outside_a_recording(self):
        with recording() as layers:
            pass
        # an empty spiking input would fail occupancy() if it were measured
        record_matmul("lin", self.EMPTY, self.W, 1, "spiking")
        record_matmul("mm", self.EMPTY, self.W, 1, "spiking")
        record_mask("mask", 10)
        assert layers == []

    def test_scopes_compose(self):
        with recording() as layers:
            with scope("a/"):
                with scope("b/"):
                    record_mask("m")
                record_mask("m")
            record_mask("m")
        assert [l.name for l in layers] == ["a/b/m", "a/m", "m"]

    def test_nested_recording_keeps_its_own_records(self):
        with recording() as outer:
            record_mask("before")
            with recording() as inner:
                record_mask("inside")
            record_mask("after")
        assert [l.name for l in outer] == ["before", "after"]
        assert [l.name for l in inner] == ["inside"]

    def test_failed_forward_restores_the_previous_state(self):
        regions, words = calibration_batch()
        with pytest.raises(StateError):
            energy_report(tiny_model(), regions, words)  # no calibration
        assert energy._ledger.get() is None
        assert energy._scope.get() == ""
        model = tiny_model()
        model.calibrate(regions, words)
        text = energy_report(model, regions, words).render()
        with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
            assert text == fh.read().rstrip("\n")


def tiny_model(seed=0):
    cfg = RunConfig(d=8, t=2, batch=4, heads=2, seed=seed, alpha=0.1)
    return RetrievalModel(cfg, region_width=6, word_width=5,
                          n_regions=4, n_words=4)


def calibration_batch(seed=123, b=4):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((b, 4, 6)).astype(np.float32)),
            Tensor(rng.standard_normal((b, 4, 5)).astype(np.float32)))


class TestEnergyReport:
    def test_covers_the_layer_table(self):
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        report = energy_report(model, regions, words)
        names = [l.name for l in report.layers]
        for modality in ("region", "word"):
            assert f"{modality}/linear" in names
            for suffix in ("q_proj", "k_proj", "v_proj", "attn_scores",
                           "attn_apply", "attn_out", "gate_linear",
                           "value_linear", "mlp_out", "gate_multiply"):
                assert f"{modality}/{suffix}" in names

    def test_gate_multiply_is_free(self):
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        report = energy_report(model, regions, words)
        gate_rows = [l for l in report.layers if l.name.endswith("gate_multiply")]
        assert gate_rows and all(
            layer_energy(l, report.consts) == 0.0 for l in gate_rows)

    def test_zero_input_batch_zeroes_spiking_layers(self):
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        zero_r = Tensor(np.zeros((4, 4, 6), dtype=np.float32))
        zero_w = Tensor(np.zeros((4, 4, 5), dtype=np.float32))
        report = energy_report(model, zero_r, zero_w)
        for ledger in report.layers:
            if ledger.kind == "spiking":
                assert sops(ledger) == 0, ledger.name

    def test_energy_monotone_in_firing_rate(self):
        # elementwise-greater spike activity never reduces the total
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        low = energy_report(model,
                            Tensor(np.zeros((4, 4, 6), dtype=np.float32)),
                            Tensor(np.zeros((4, 4, 5), dtype=np.float32)))
        high = energy_report(model, regions, words)
        assert high.total_picojoules >= low.total_picojoules

    def test_row_arithmetic_against_oracle(self):
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        report = energy_report(model, regions, words)
        for ledger in report.layers:
            if ledger.kind == "spiking":
                expected = 0.9 * round(ledger.t * ledger.rate * ledger.flops)
            elif ledger.kind == "float":
                expected = 4.6 * ledger.flops
            else:
                expected = 0.0
            assert layer_energy(ledger, report.consts) == pytest.approx(expected)

    def test_fusion_not_in_the_report(self):
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        report = energy_report(model, regions, words)
        assert model.fusion.call_count == 0
        assert not any("fusion" in l.name for l in report.layers)

    def test_golden_report(self):
        """Frozen serialization of the deterministic tiny-model report."""
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        text = energy_report(model, regions, words).render()
        with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
            assert text == fh.read().rstrip("\n")

    def test_empty_recording_rejected(self):
        class NoOpModel:
            def encode(self, r, w, train):
                return None, None

        with pytest.raises(AccountingError):
            energy_report(NoOpModel(), Tensor(np.zeros((2, 2, 2))),
                          Tensor(np.zeros((2, 2, 2))))
