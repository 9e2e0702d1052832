"""Operation and energy accounting: formulas, ledger, instrumented report."""

import os

import numpy as np
import pytest

from spikefusion.config import RunConfig
from spikefusion import energy
from spikefusion.energy import (
    E_AC,
    E_MAC,
    EnergyReport,
    LayerLedger,
    energy_report,
    occupancy,
    record_mask,
    record_matmul,
    recording,
)
from spikefusion.encoding import GENERATOR_VARIANTS
from spikefusion.errors import StateError, UsageError
from spikefusion.layers import Linear, Module
from spikefusion.model import RetrievalModel
from spikefusion.tensor import Tensor

RNG = np.random.default_rng(11)
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "energy_report.txt")


class TestFiringRate:
    def test_occupancy_on_residual_values(self):
        x = np.array([0.0, 1.0, 2.0, 0.0], dtype=np.float32)
        assert occupancy(x) == 0.5

    def test_occupancy_counts_what_count_nonzero_counts(self):
        # -0.0 is zero; NaN and spike counts are not
        x = np.array([-0.0, 0.0, np.nan, 2.0, 4.0, 1.0, 0.0, -0.0],
                     dtype=np.float32)
        assert occupancy(x) == 0.5
        spikes = (RNG.random((2, 32, 36, 256)) < 0.07).astype(np.float32)
        assert occupancy(spikes) == np.count_nonzero(spikes) / spikes.size

    def test_occupancy_of_an_empty_array_rejected(self):
        with pytest.raises(UsageError, match="empty"):
            occupancy(np.zeros((2, 0, 3), dtype=np.float32))


class TestSops:
    def test_direct_arithmetic(self):
        # T=2, rate 0.25, 1000 FLOPs -> 500 synaptic ops
        assert LayerLedger("l", "spiking", 1000, 0.25, t=2).sops == 500

    def test_zero_rate(self):
        assert LayerLedger("l", "spiking", 12345, 0.0, t=4).sops == 0

    def test_degenerate_identity(self):
        assert LayerLedger("l", "spiking", 777, 1.0, t=1).sops == 777

    def test_float_row_has_no_sops(self):
        assert LayerLedger("l", "float", 100, 1.0).sops == 0

    def test_recorded_row_counts_every_spike_once_per_column(self):
        # each input spike feeds n accumulates, one per output column
        t, n = 3, 7
        rng = np.random.default_rng(3)
        a = (rng.random((t, 2, 5, 4)) < 0.4).astype(np.float32)
        w = Tensor(rng.standard_normal((4, n)).astype(np.float32))
        with recording() as layers:
            record_matmul("lin", Tensor(a), w, t, "spiking")
        assert layers[0].sops == np.count_nonzero(a) * n


class TestLayerEnergy:
    """Rows priced at 4.6 pJ per MAC and 0.9 pJ per AC."""

    def test_spiking_layer(self):
        ledger = LayerLedger("l", "spiking", 1000, 0.25, t=2)  # 500 SOPs
        assert ledger.picojoules == pytest.approx(450.0)

    def test_float_layer(self):
        ledger = LayerLedger("l", "float", 100, 1.0)
        assert ledger.macs == 100
        assert ledger.picojoules == pytest.approx(460.0)

    def test_mask_layer_is_free(self):
        ledger = LayerLedger("gate_multiply", "mask", 0, 0.0)
        assert ledger.picojoules == 0.0

    def test_unknown_layer_kind_named_in_error(self):
        with pytest.raises(UsageError, match="mystery"):
            LayerLedger("mystery", "analog", 10, 0.5)

    @pytest.mark.parametrize("rate", [-0.25, 1.5, float("nan")])
    def test_rate_outside_unit_interval_named_in_error(self, rate):
        with pytest.raises(UsageError, match="outside"):
            LayerLedger("leaky", "spiking", 10, rate)


def test_headline_arithmetic_reproduction():
    """265.04 M ops at a 60/40 AC/MAC split under the 45 nm constants land
    within 2% of the published 0.626 mJ total."""
    ops = 265.04e6
    mixed_pj = ops * (0.6 * E_AC + 0.4 * E_MAC)
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
        assert EnergyReport(layers).total_picojoules == 0.0

    def test_report_totals_are_sums(self):
        report = EnergyReport([LayerLedger("a", "spiking", 1000, 0.5, t=2),
                               LayerLedger("b", "float", 300, 1.0),
                               LayerLedger("c", "mask", 0, 0.0)])
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
        model = tiny_model()
        model.calibrate(regions, words)
        text = energy_report(model, regions, words).render()
        with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
            assert text == fh.read().rstrip("\n")


def tiny_model(seed=0, **config):
    cfg = RunConfig(d=8, t=2, batch=4, heads=2, seed=seed, alpha=0.1,
                    **config)
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
        for modality in ("image", "text"):
            assert f"{modality}/proj/w" in names
            for suffix in ("attn/w_q/w", "attn/w_k/w", "attn/w_v/w",
                           "attn/attn_scores", "attn/attn_apply",
                           "attn/w_a/w", "mlp/w_g/w", "mlp/w_p/w",
                           "mlp/w_o/w", "mlp/gate_multiply"):
                assert f"{modality}/{suffix}" in names

    def test_gate_multiply_is_free(self):
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        report = energy_report(model, regions, words)
        gate_rows = [l for l in report.layers if l.name.endswith("gate_multiply")]
        assert gate_rows and all(l.picojoules == 0.0 for l in gate_rows)

    def test_zero_input_batch_zeroes_spiking_layers(self):
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        zero_r = Tensor(np.zeros((4, 4, 6), dtype=np.float32))
        zero_w = Tensor(np.zeros((4, 4, 5), dtype=np.float32))
        report = energy_report(model, zero_r, zero_w)
        for ledger in report.layers:
            if ledger.kind == "spiking":
                assert ledger.sops == 0, ledger.name

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
            assert ledger.picojoules == pytest.approx(expected)

    def test_fusion_not_in_the_report(self):
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        report = energy_report(model, regions, words)
        assert model.fusion.call_count == 0
        assert not any("fusion" in l.name for l in report.layers)

    def test_exact_totals(self):
        """Bit-exact totals: the golden text rounds the energy, so a change
        in summation order would pass it."""
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        report = energy_report(model, regions, words)
        assert (report.ac_ops, report.mac_ops,
                repr(report.total_picojoules)) == (1304, 1408,
                                                   "7650.400000000001")

    def test_golden_report(self):
        """Frozen serialization of the deterministic tiny-model report."""
        model = tiny_model()
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        text = energy_report(model, regions, words).render()
        with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
            assert text == fh.read().rstrip("\n")

    # d=8, B=4, N=L=6, widths 24/16: the two projections cost
    # 4*6*(24 + 16)*8 = 7680 MACs, and each per-step map (T=2) or conv tap
    # (3) costs 4*6*8*8 = 1536 per modality: 7680 + 2*2*1536 = 13824 and
    # 7680 + 2*3*1536 = 16896
    @pytest.mark.parametrize("generator,macs", [
        ("repeat-ln", 7680), ("repeat-bn", 7680), ("delta-bn", 7680),
        ("linear-ln", 13824), ("linear-bn", 13824), ("conv-bn", 16896)])
    def test_mac_ops_count_the_generator_maps(self, generator, macs):
        cfg = RunConfig(d=8, t=2, batch=4, heads=2, seed=0,
                        generator=generator)
        model = RetrievalModel(cfg, region_width=24, word_width=16)
        rng = np.random.default_rng(5)
        regions = Tensor(rng.standard_normal((4, 6, 24)).astype(np.float32))
        words = Tensor(rng.standard_normal((4, 6, 16)).astype(np.float32))
        model.calibrate(regions, words)
        report = energy_report(model, regions, words)
        assert report.mac_ops == macs
        float_rows = [l.name for l in report.layers if l.kind == "float"]
        maps = {"linear": "gen/step0/ gen/step1/",
                "conv": "gen/tap0/ gen/tap1/ gen/tap2/"}.get(
                    generator.split("-")[0], "").split()
        assert float_rows == [f"{m}/{n}w" for m in ("image", "text")
                              for n in ["proj/"] + maps]

    def test_empty_recording_rejected(self):
        class NoOpModel:
            def encode(self, r, w):
                return None, None

        with pytest.raises(UsageError):
            energy_report(NoOpModel(), Tensor(np.zeros((2, 2, 2))),
                          Tensor(np.zeros((2, 2, 2))))


# the ops a block records under its own path, beside its weights' rows
BLOCK_OPS = ("attn_scores", "attn_apply", "gate_multiply")


def linear_weights(model, under=""):
    """The checkpoint name of every ``Linear`` weight whose path starts
    with ``under``."""
    return {path + "w" for path, block in model._walk()
            if isinstance(block, Linear) and path.startswith(under)}


def assert_named_by_path(model, names):
    """A weight row is its weight's checkpoint name; any other row is a
    block's path plus one op."""
    state = model.state()
    paths = {path for path, block in model._walk() if isinstance(block, Module)}
    for name in names:
        path, op = name.rsplit("/", 1)
        if op == "w":
            assert name in state, name
        else:
            assert path + "/" in paths and op in BLOCK_OPS, name


class TestRowNames:
    """One name per layer: the ledger names each row by model path."""

    @pytest.mark.parametrize("fusion", ["scca", "sca", "scsa", "none"])
    @pytest.mark.parametrize("generator", GENERATOR_VARIANTS)
    def test_report_rows_are_model_paths(self, generator, fusion):
        model = tiny_model(generator=generator, fusion=fusion)
        regions, words = calibration_batch()
        model.calibrate(regions, words)
        names = [l.name for l in energy_report(model, regions, words).layers]
        assert len(set(names)) == len(names)
        assert_named_by_path(model, names)
        # every encoder weight is billed
        assert {n for n in names if n.endswith("/w")} == (
            linear_weights(model) - linear_weights(model, "fusion/"))

    def test_fusion_fold_rows_are_model_paths(self):
        model = tiny_model(fusion="sca")
        with recording() as layers:
            model.training_losses(*calibration_batch())
        names = [l.name for l in layers]
        assert_named_by_path(model, [n for n in names if "/" in n])
        assert {n for n in names if n.startswith("fusion/")} == (
            linear_weights(model, "fusion/"))
        # the module-level fusion functions keep bare op names
        assert {n for n in names if "/" not in n} <= {"qk", "qk_v", "kv",
                                                      "q_kv"}
