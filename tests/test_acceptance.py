"""Acceptance suite: one test per criterion, each printing a PASS line.

The learnability and ablation criteria train real models and take a few
minutes combined; everything else is oracle arithmetic and runs in seconds.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from spikefusion.alignment import PoolConfig, similarity
from spikefusion.config import RunConfig
from spikefusion.data import load_manifest, synth_dataset, train_val_split
from spikefusion.energy import (
    E_AC,
    E_MAC,
    LayerLedger,
    energy_report,
    recording,
)
from spikefusion.checkpoint import load_checkpoint, restore_model, save_checkpoint
from spikefusion.fusion import comb_mask, qkv_attention
from spikefusion.losses import infonce_pair, total_loss, LossWeights, SIMILARITY_KEYS
from spikefusion.model import RetrievalModel
from spikefusion.neurons import LIFParams, lif_sequence
from spikefusion.tensor import Tensor, no_grad, smooth_spike_mode
from spikefusion.train import evaluate_recall, train

from helpers import (
    biha_enhance,
    hard_align_region,
    hard_align_word,
    lse_pool,
    scalar_lif_simulate,
    smooth_fd_audit,
)


def report(criterion: int, passed: bool, detail: str):
    flag = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:02d}] {flag} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_lif_matches_scalar_simulator():
    """1000 random (tau, v_th, input) cases agree exactly with the
    independent scalar step simulator, boundary-firing included."""
    mismatches = 0
    boundary_fired = 0
    for case in range(1000):
        rng = np.random.default_rng(50_000 + case)
        v_reset = float(rng.uniform(-0.5, 0.5))
        v_th = v_reset + float(rng.uniform(0.05, 1.5))
        t = int(rng.integers(1, 9))
        if case % 5 == 0:
            # plant an exact boundary hit: power-of-two tau makes
            # x = v_th * tau land the membrane exactly on the threshold
            tau, v_reset = 2.0, 0.0
            v_th = float(np.float32(rng.uniform(0.05, 1.5)))
            x = np.zeros((t, 1), dtype=np.float32)
            x[0, 0] = np.float32(v_th) * np.float32(2.0)
        else:
            tau = float(rng.uniform(1.0, 4.0))
            x = (rng.standard_normal((t, 3)) * 2.0).astype(np.float32)
        params = LIFParams(tau=tau, v_th=v_th, v_reset=v_reset)
        spikes = lif_sequence(Tensor(x), params).data
        for j in range(x.shape[1]):
            ref, _ = scalar_lif_simulate(x[:, j], tau, v_th, v_reset)
            if not np.array_equal(spikes[:, j], ref):
                mismatches += 1
        if case % 5 == 0 and spikes[0, 0] == 1.0:
            boundary_fired += 1
    report(1, mismatches == 0 and boundary_fired == 200,
           f"1000 cases exact, {boundary_fired}/200 planted boundary hits fired")


def test_criterion_02_finite_difference_gradients():
    """Full toy forward (T=2, B=2, N=L=4, D=8): >=10 parameter entries agree
    with central finite differences at <=1e-2 relative error on the
    surrogate-smoothed graph, in under a minute."""
    t_start = time.monotonic()
    cfg = RunConfig(d=8, t=2, batch=2, heads=2, seed=12, temperature=0.2,
                    alpha=0.5)
    model = RetrievalModel(cfg, region_width=6, word_width=5, n_regions=4,
                           n_words=4)
    rng = np.random.default_rng(100)
    regions = Tensor(rng.standard_normal((2, 4, 6)).astype(np.float32))
    words = Tensor(rng.standard_normal((2, 4, 5)).astype(np.float32))

    with smooth_spike_mode():
        total, _ = model.training_losses(regions, words)
        total.backward()
    params = model.params()
    assert all(np.isfinite(p.grad).all() for p in params.values()
               if p.grad is not None), "non-finite gradient"

    rels = smooth_fd_audit(
        lambda: float(model.training_losses(regions, words)[0].data), params)
    worst = max(rels)
    elapsed = time.monotonic() - t_start
    report(2, worst <= 1e-2 and elapsed < 60.0,
           f"{len(rels)} params, worst rel err {worst:.4f}, {elapsed:.1f}s")


def test_criterion_03_scsa_block_decomposition():
    """Concatenated spike attention equals the four-term block formula
    bit-exactly on 100 random binary instances."""
    exact = 0
    for case in range(100):
        rng = np.random.default_rng(7_000 + case)
        t, b = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        nn, nl, d = (int(rng.integers(2, 7)) for _ in range(3))
        def binary(shape):
            return (rng.random(shape) < rng.uniform(0.2, 0.7)).astype(np.float32)
        blocks = {k: (binary((t, b, nn, d)), binary((t, b, nl, d)))
                  for k in "qkv"}
        q = np.concatenate(blocks["q"], axis=2)
        k = np.concatenate(blocks["k"], axis=2)
        v = np.concatenate(blocks["v"], axis=2)
        out = qkv_attention(Tensor(q), Tensor(k), Tensor(v)).data

        def attn(a, kk, vv):
            return np.einsum("tbld,tbnd,tbne->tble", a, kk, vv)

        (q_r, q_e), (k_r, k_e), (v_r, v_e) = (blocks[c] for c in "qkv")
        r_expected = attn(q_r, k_r, v_r) + attn(q_r, k_e, v_e)
        e_expected = attn(q_e, k_e, v_e) + attn(q_e, k_r, v_r)
        if (np.array_equal(out[:, :, :nn], r_expected)
                and np.array_equal(out[:, :, nn:], e_expected)):
            exact += 1
    report(3, exact == 100, f"{exact}/100 instances bit-exact")


def test_criterion_04_scca_mask_semantics():
    rng = np.random.default_rng(88)
    t, b, nl, d, h = 2, 3, 8, 16, 4
    lif = LIFParams(tau=1.0)
    q = Tensor((rng.random((t, b, nl, d)) < 0.5).astype(np.float32))
    k = Tensor((rng.random((t, b, 8, d)) < 0.5).astype(np.float32))
    masked = comb_mask(q, k, h, lif)
    bounded = bool((masked.data <= k.data).all())

    ones_q = Tensor(np.ones((t, b, nl, d), dtype=np.float32))
    identity = bool(np.array_equal(
        comb_mask(ones_q, k, h, lif).data, k.data))

    counts = {}
    for nn in (8, 16):
        kk = Tensor((rng.random((t, b, nn, d)) < 0.5).astype(np.float32))
        with recording() as layers:
            comb_mask(q, kk, h, lif)
        counts[nn] = sum(l.flops for l in layers)
    ratio = counts[16] / counts[8]
    linear = abs(ratio - 2.0) <= 0.1  # within 5% of doubling

    report(4, bounded and identity and linear,
           f"mask bounded, ones combs reproduce K, multiply ratio {ratio:.3f}")


def test_criterion_05_biha_algebra():
    """Hard-align / outer-product / LSE pipeline vs float64 loop oracles on
    B=4, N=L=6: 1e-6 absolute where the output magnitude permits (alpha=1,
    outputs O(1)) and 1e-6 relative at the operating alpha=0.1, whose
    pooled values of ~40 sit above float32's own 1e-6 absolute resolution.
    Rank-1 slices and the LSE bracket are checked alongside.  The token
    path runs the one-node ``similarity``; the fine path runs the composed
    chain it is checked against bit for bit (``tests/helpers.py``)."""

    def token_path_error(alpha, seed):
        rng = np.random.default_rng(seed)
        cfg = PoolConfig(alpha=alpha, mode="biha")
        e = rng.standard_normal((4, 6, 5)).astype(np.float32)
        r = rng.standard_normal((4, 6, 5)).astype(np.float32)
        pooled = similarity(Tensor(e), Tensor(r), cfg).data
        e64, r64 = e.astype(np.float64), r.astype(np.float64)
        e_hat = e64 / np.linalg.norm(e64, axis=-1, keepdims=True)
        r_hat = r64 / np.linalg.norm(r64, axis=-1, keepdims=True)
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                fine = np.zeros((6, 6))
                for l in range(6):
                    for n in range(6):
                        fine[l, n] = float(e_hat[j, l] @ r_hat[i, n])
                outer = np.outer(fine.max(axis=1), fine.max(axis=0))
                expected[i, j] = math.log(np.exp(alpha * outer).sum()) / alpha
        abs_err = np.abs(pooled - expected)
        return float(abs_err.max()), float((abs_err / np.abs(expected)).max())

    def fine_path_error(alpha, seed):
        rng = np.random.default_rng(seed)
        fine = rng.uniform(-1, 1, (4, 4, 6, 6)).astype(np.float32)
        w = hard_align_word(Tensor(fine))
        g = hard_align_region(Tensor(fine))
        enhanced = biha_enhance(w, g)
        got = lse_pool(enhanced, alpha).data
        fine64 = fine.astype(np.float64)
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                outer = np.outer(fine64[i, j].max(axis=1),
                                 fine64[i, j].max(axis=0))
                expected[i, j] = math.log(np.exp(alpha * outer).sum()) / alpha
        abs_err = np.abs(got - expected)
        rel_err = float((abs_err / np.abs(expected)).max())

        rank_ok = True
        for i in range(4):
            for j in range(4):
                sv = np.linalg.svd(enhanced.data[i, j].astype(np.float64),
                                   compute_uv=False)
                rank_ok &= sv[1] <= 1e-6 * max(sv[0], 1e-12)
        top = enhanced.data.max(axis=(2, 3))
        bracket_ok = bool((got >= top - 1e-5).all()
                          and (got <= top + math.log(36) / alpha + 1e-5).all())
        return float(abs_err.max()), rel_err, rank_ok, bracket_ok

    worst_abs_unit = 0.0   # alpha = 1: strict absolute 1e-6
    worst_rel_op = 0.0     # alpha = 0.1: relative 1e-6
    rank_all, bracket_all = True, True
    for case in range(10):
        abs_a, _ = token_path_error(1.0, 3_000 + case)
        _, rel_b = token_path_error(0.1, 3_000 + case)
        abs_c, rel_c, rank_ok, bracket_ok = fine_path_error(1.0, 4_000 + case)
        _, rel_d, _, _ = fine_path_error(0.1, 4_000 + case)
        worst_abs_unit = max(worst_abs_unit, abs_a, abs_c)
        worst_rel_op = max(worst_rel_op, rel_b, rel_d)
        rank_all &= rank_ok
        bracket_all &= bracket_ok
    report(5, worst_abs_unit < 1e-6 and worst_rel_op < 1e-6 and rank_all
           and bracket_all,
           f"abs err {worst_abs_unit:.2e} (alpha=1), rel err "
           f"{worst_rel_op:.2e} (alpha=0.1), rank-1 and bracket hold")


def test_criterion_06_loss_arithmetic():
    hand = float(infonce_pair(Tensor(np.eye(2, dtype=np.float32)), 1.0).data)
    hand_ok = abs(hand + 1.0) < 1e-6

    rng = np.random.default_rng(42)
    sims = {k: Tensor(rng.standard_normal((4, 4)).astype(np.float32))
            for k in SIMILARITY_KEYS}
    at = {}
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        total, parts = total_loss(sims, LossWeights(lam=lam, temperature=0.5))
        at[lam] = float(total.data)
        if lam == 1.0:
            endpoint_early = abs(at[lam] - float(parts["early"].data)) < 1e-6
        if lam == 0.0:
            late = (float(parts["basic"].data) + float(parts["fusion"].data)
                    + float(parts["inter"].data) + float(parts["intra"].data))
            endpoint_late = abs(at[lam] - late) < 1e-6
    linear = all(
        abs(at[lam] - (lam * at[1.0] + (1 - lam) * at[0.0])) < 1e-5
        for lam in (0.25, 0.5, 0.75))
    report(6, hand_ok and linear and endpoint_early and endpoint_late,
           f"hand case {hand:.6f}, linear in lambda, endpoints isolate terms")


def test_criterion_07_energy_arithmetic():
    constants_ok = E_MAC == 4.6 and E_AC == 0.9
    mixed_mj = 265.04e6 * (0.6 * E_AC + 0.4 * E_MAC) * 1e-9
    headline_ok = abs(mixed_mj - 0.626) / 0.626 < 0.02

    sops_ok = LayerLedger("l", "spiking", 1000, 0.25, t=2).sops == 500
    gate_free = LayerLedger("gate_multiply", "mask", 0, 0.0).picojoules == 0.0

    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "energy_report.txt")
    with open(golden, encoding="utf-8") as fh:
        text = fh.read()
    table_ok = "gate_multiply" in text and "0.000" in text

    report(7, constants_ok and headline_ok and sops_ok and gate_free
           and table_ok,
           f"mixed 265.04 M ops -> {mixed_mj:.4f} mJ vs 0.626 published "
           f"({abs(mixed_mj - 0.626) / 0.626:.2%})")


# shared desk-scale setup for criteria 8 and 9
DESK = dict(pairs=200, n_regions=8, n_words=8, region_width=48,
            word_width=32, noise=0.1)
DESK_CONFIG = RunConfig(d=64, t=2, batch=16, heads=4, seed=1, epochs=30,
                        lr_decay_epochs=15, lam=0.5, fusion="scca",
                        temperature=0.05, lr_encoder=4e-3, lr_fusion=4e-3,
                        comb_tau=1.0)


def _desk_dataset(tmp_path):
    path = synth_dataset(tmp_path / "desk", seed=0, **DESK)
    return load_manifest(path)


@pytest.fixture(scope="module")
def desk_seed1(tmp_path_factory):
    """The desk dataset, ``train(DESK_CONFIG, ...)`` on it and that call's
    wall time: criterion 8's model is criterion 9's first desk ``full``."""
    data = _desk_dataset(tmp_path_factory.mktemp("desk"))
    t0 = time.monotonic()
    result = train(DESK_CONFIG, data)
    return data, result, time.monotonic() - t0


def test_criterion_08_desk_scale_learnability(desk_seed1):
    """200 synthetic pairs (N=L=8, D=64, T=2): full training reaches
    R@1 > 90% on its training split within 30 epochs and 10 minutes."""
    data, result, elapsed = desk_seed1
    train_set, _ = train_val_split(data, DESK_CONFIG.val_fraction,
                                   DESK_CONFIG.seed)
    metrics = evaluate_recall(result.model, train_set)
    ok = (metrics["i2t_r@1"] > 90.0 and metrics["t2i_r@1"] > 90.0
          and elapsed < 600.0 and DESK_CONFIG.epochs <= 30)
    report(8, ok,
           f"train R@1 {metrics['i2t_r@1']:.1f}/{metrics['t2i_r@1']:.1f} "
           f"in {elapsed:.0f}s / {DESK_CONFIG.epochs} epochs")


@pytest.mark.slow
def test_criterion_09_ablation_directionality(tmp_path, desk_seed1):
    """Soft criterion, reported not gated: directional orderings over 5 seeds."""
    # alignment modes and time-step variance at a small converged scale
    mini_path = synth_dataset(tmp_path / "mini", seed=5, pairs=120,
                              n_regions=6, n_words=6, region_width=24,
                              word_width=20, noise=0.3)
    mini = load_manifest(mini_path)
    mini_cfg = replace(DESK_CONFIG, d=32, heads=2, lr_decay_epochs=12)
    variants = {"biha": {}, "lse": dict(alignment="lse"),
                "vha": dict(alignment="vha"), "tha": dict(alignment="tha"),
                "t1": dict(t=1)}
    scores = {name: [] for name in variants}
    for seed in range(1, 6):
        for name, kw in variants.items():
            cfg = replace(mini_cfg, seed=seed, **kw)
            result = train(cfg, mini)
            train_set, _ = train_val_split(mini, cfg.val_fraction, cfg.seed)
            scores[name].append(evaluate_recall(result.model,
                                                train_set)["r_sum"])
    means = {k: float(np.mean(v)) for k, v in scores.items()}
    stds = {k: float(np.std(v)) for k, v in scores.items()}

    # early alignment + fusion against the dual-stream-only baseline
    desk, seed1_full, _ = desk_seed1
    full_scores, dual_scores = [], []
    for seed in range(1, 6):
        full_cfg = replace(DESK_CONFIG, seed=seed)
        full = (seed1_full if full_cfg == DESK_CONFIG
                else train(full_cfg, desk))
        dual = train(replace(DESK_CONFIG, seed=seed, lam=0.0, fusion="none"),
                     desk)
        train_set, _ = train_val_split(desk, DESK_CONFIG.val_fraction, seed)
        full_scores.append(evaluate_recall(full.model, train_set)["r_sum"])
        dual_scores.append(evaluate_recall(dual.model, train_set)["r_sum"])

    directions = {
        "biha >= lse": means["biha"] >= means["lse"],
        "biha >= vha": means["biha"] >= means["vha"],
        "biha >= tha": means["biha"] >= means["tha"],
        "early+fusion >= dual-only":
            float(np.mean(full_scores)) >= float(np.mean(dual_scores)),
        "T=1 var > T=2 var": stds["t1"] > stds["biha"],
    }
    print("[criterion 09] mean R@Sum over 5 seeds (mini scale): "
          + " ".join(f"{k}={means[k]:.0f}" for k in
                     ("biha", "lse", "vha", "tha", "t1")))
    print(f"[criterion 09] run-to-run std: T=2 {stds['biha']:.1f}, "
          f"T=1 {stds['t1']:.1f}")
    print(f"[criterion 09] desk scale: early+fusion {np.mean(full_scores):.1f} "
          f"vs dual-only {np.mean(dual_scores):.1f}")
    for name, held in directions.items():
        print(f"[criterion 09] direction {'HOLDS' if held else 'REVERSED'}: "
              f"{name}")
    held_count = sum(directions.values())
    # reported, not gated: assert the sweep ran to completion with finite scores
    all_finite = all(np.isfinite(list(means.values())).tolist()) \
        and np.isfinite(full_scores + dual_scores).all()
    report(9, bool(all_finite),
           f"reported: {held_count}/{len(directions)} directions hold")


def test_criterion_10_training_only_fusion(tmp_path):
    data = _desk_dataset(tmp_path)
    cfg = replace(DESK_CONFIG, epochs=1)
    model = RetrievalModel(cfg, 48, 32, 8, 8)
    model.calibrate(Tensor(data.regions[:16]), Tensor(data.words[:16]))
    baseline = model.fusion.call_count
    evaluate_recall(model, data)
    energy_report(model, Tensor(data.regions[:16]), Tensor(data.words[:16]))
    with no_grad():
        model.eval_similarity(Tensor(data.regions[:8]),
                              Tensor(data.words[:8]))
    report(10, model.fusion.call_count == baseline == 0,
           f"fusion invocations during eval: {model.fusion.call_count}")


def test_criterion_11_determinism_and_persistence(tmp_path):
    data_path = synth_dataset(tmp_path / "d", seed=4, pairs=20, n_regions=4,
                              n_words=4, region_width=12, word_width=10,
                              noise=0.1)
    data = load_manifest(data_path)
    cfg = replace(DESK_CONFIG, d=16, heads=2, epochs=3, lr_decay_epochs=1,
                  batch=8, val_fraction=0.25)

    h1 = train(cfg, data).history
    h2 = train(cfg, data).history
    identical = all(
        a[k] == b[k]
        for a, b in zip(h1, h2) for k in a if k != "seconds")

    result = train(cfg, data)
    save_path = tmp_path / "model.ckpt"
    save_checkpoint(save_path, result.model, epoch=cfg.epochs)
    restored = restore_model(load_checkpoint(save_path), 12, 10)
    regions, words = Tensor(data.regions), Tensor(data.words)
    with no_grad():
        before = result.model.eval_similarity(regions, words).data
        after = restored.eval_similarity(regions, words).data
    roundtrip = np.array_equal(before, after)
    report(11, identical and roundtrip,
           "metric history bit-identical; checkpoint eval outputs bit-equal")
