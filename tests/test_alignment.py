"""Fine-grained similarity and bidirectional hard alignment vs loop oracles."""

import math

import numpy as np
import pytest

from spikefusion.alignment import (
    POOL_MODES,
    PoolConfig,
    biha_enhance,
    fine_similarity,
    hard_align_region,
    hard_align_word,
    lse_pool,
    similarity,
)
from spikefusion.errors import ConfigError, DimensionError, ParameterError
from spikefusion.tensor import Tensor

from helpers import central_difference

RNG = np.random.default_rng(314)


def brute_force_fine(e, r):
    """Float64 triple-loop cosine oracle; fine[i, j, l, n]."""
    e = e.astype(np.float64)
    r = r.astype(np.float64)
    be, nl, d = e.shape
    br, nn, _ = r.shape
    out = np.zeros((br, be, nl, nn))
    for i in range(br):
        for j in range(be):
            for l in range(nl):
                for n in range(nn):
                    a = e[j, l] / math.sqrt((e[j, l] ** 2).sum() + 1e-16)
                    b = r[i, n] / math.sqrt((r[i, n] ** 2).sum() + 1e-16)
                    out[i, j, l, n] = float((a * b).sum())
    return out


def brute_force_biha_pool(fine, alpha):
    """Loops + float64 for the hard-align / outer-product / LSE pipeline."""
    br, be, nl, nn = fine.shape
    pooled = np.zeros((br, be))
    for i in range(br):
        for j in range(be):
            word_max = fine[i, j].max(axis=1)    # (L,)
            region_max = fine[i, j].max(axis=0)  # (N,)
            outer = np.outer(word_max, region_max)
            pooled[i, j] = math.log(np.exp(alpha * outer).sum()) / alpha
    return pooled


class TestFineSimilarity:
    def test_identical_unit_token(self):
        v = np.array([[[0.6, 0.8]]], dtype=np.float32)
        out = fine_similarity(Tensor(v), Tensor(v.copy()))
        np.testing.assert_allclose(out.data, 1.0, atol=1e-6)

    def test_orthogonal_tokens(self):
        e = np.array([[[1.0, 0.0]]], dtype=np.float32)
        r = np.array([[[0.0, 1.0]]], dtype=np.float32)
        np.testing.assert_allclose(
            fine_similarity(Tensor(e), Tensor(r)).data, 0.0, atol=1e-7)

    def test_against_loop_oracle(self):
        e = RNG.standard_normal((2, 3, 4)).astype(np.float32)
        r = RNG.standard_normal((2, 3, 4)).astype(np.float32)
        out = fine_similarity(Tensor(e), Tensor(r)).data
        np.testing.assert_allclose(out, brute_force_fine(e, r), atol=1e-6)

    def test_zero_token_guarded(self):
        e = np.zeros((1, 1, 4), dtype=np.float32)
        r = RNG.standard_normal((1, 1, 4)).astype(np.float32)
        out = fine_similarity(Tensor(e), Tensor(r)).data
        np.testing.assert_array_equal(out, 0.0)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            fine_similarity(Tensor(np.zeros((1, 2, 3))),
                            Tensor(np.zeros((1, 2, 4))))


class TestHardAlignment:
    FINE = np.array([[0.9, 0.1], [0.2, 0.8]], dtype=np.float32).reshape(1, 1, 2, 2)

    def test_word_max_over_regions(self):
        out = hard_align_word(Tensor(self.FINE))
        np.testing.assert_allclose(out.data, [[[0.9, 0.8]]])

    def test_region_max_over_words(self):
        out = hard_align_region(Tensor(self.FINE))
        np.testing.assert_allclose(out.data, [[[0.9, 0.8]]])

    def test_single_region_is_identity_squeeze(self):
        fine = RNG.standard_normal((2, 2, 3, 1)).astype(np.float32)
        np.testing.assert_array_equal(hard_align_word(Tensor(fine)).data,
                                      fine[..., 0])

    def test_single_word_is_identity_squeeze(self):
        fine = RNG.standard_normal((2, 2, 1, 3)).astype(np.float32)
        np.testing.assert_array_equal(hard_align_region(Tensor(fine)).data,
                                      fine[:, :, 0, :])

    def test_max_is_monotone(self):
        fine = RNG.standard_normal((1, 1, 3, 4)).astype(np.float32)
        base = hard_align_word(Tensor(fine)).data.copy()
        bumped = fine.copy()
        bumped[0, 0, 1, 2] += 0.5
        assert (hard_align_word(Tensor(bumped)).data >= base).all()

    def test_permutation_equivariance_over_regions(self):
        fine = RNG.standard_normal((1, 1, 3, 4)).astype(np.float32)
        perm = RNG.permutation(4)
        out = hard_align_region(Tensor(fine)).data
        out_perm = hard_align_region(Tensor(fine[..., perm])).data
        np.testing.assert_array_equal(out_perm, out[..., perm])


class TestBihaEnhance:
    def test_hand_outer_product(self):
        w = Tensor(np.array([0.9, 0.8], dtype=np.float32).reshape(1, 1, 2))
        r = Tensor(np.array([0.9, 0.8], dtype=np.float32).reshape(1, 1, 2))
        out = biha_enhance(w, r).data[0, 0]
        np.testing.assert_allclose(
            out, [[0.81, 0.72], [0.72, 0.64]], atol=1e-6)

    def test_zero_side_zeroes_everything(self):
        w = Tensor(np.zeros((1, 1, 3), dtype=np.float32))
        r = Tensor(RNG.standard_normal((1, 1, 4)).astype(np.float32))
        np.testing.assert_array_equal(biha_enhance(w, r).data, 0.0)

    def test_slices_are_rank_one(self):
        w = Tensor(RNG.standard_normal((2, 2, 5)).astype(np.float32))
        r = Tensor(RNG.standard_normal((2, 2, 6)).astype(np.float32))
        out = biha_enhance(w, r).data
        for i in range(2):
            for j in range(2):
                sv = np.linalg.svd(out[i, j].astype(np.float64),
                                   compute_uv=False)
                assert sv[1] <= 1e-6 * max(sv[0], 1e-12)


class TestLsePool:
    def test_constant_input_analytic(self):
        c, alpha, nl, nn = 0.37, 0.5, 3, 4
        s = Tensor(np.full((1, 1, nl, nn), c, dtype=np.float32))
        expected = c + math.log(nl * nn) / alpha
        np.testing.assert_allclose(lse_pool(s, alpha).data, expected, rtol=1e-5)

    def test_bracketed_by_max(self):
        s = RNG.standard_normal((3, 3, 4, 5)).astype(np.float32)
        for alpha in (0.1, 1.0, 20.0):
            pooled = lse_pool(Tensor(s), alpha).data
            top = s.max(axis=(2, 3))
            assert (pooled >= top - 1e-5).all()
            assert (pooled <= top + math.log(20) / alpha + 1e-5).all()

    def test_high_precision_oracle(self):
        s = np.array([[0.81, 0.72], [0.72, 0.64]], dtype=np.float32)
        out = lse_pool(Tensor(s.reshape(1, 1, 2, 2)), 0.1).data[0, 0]
        expected = math.log(
            sum(math.exp(0.1 * float(v)) for v in s.reshape(-1))) / 0.1
        assert abs(out - expected) < 1e-6

    def test_alpha_must_be_positive(self):
        with pytest.raises(ParameterError):
            lse_pool(Tensor(np.zeros((1, 1, 2, 2))), 0.0)


class TestSimilarityModes:
    def test_single_token_mode_agreement(self):
        # L = N = 1: lse/vha/tha all return s, biha returns s^2
        e = RNG.standard_normal((2, 1, 4)).astype(np.float32)
        r = RNG.standard_normal((2, 1, 4)).astype(np.float32)
        s = fine_similarity(Tensor(e), Tensor(r)).data[:, :, 0, 0]
        for mode in ("lse", "vha", "tha"):
            out = similarity(Tensor(e), Tensor(r),
                             PoolConfig(alpha=0.1, mode=mode)).data
            np.testing.assert_allclose(out, s, atol=1e-5)
        out = similarity(Tensor(e), Tensor(r),
                         PoolConfig(alpha=0.1, mode="biha")).data
        np.testing.assert_allclose(out, s * s, atol=1e-5)

    def test_biha_matches_brute_force(self):
        e = RNG.standard_normal((4, 6, 5)).astype(np.float32)
        r = RNG.standard_normal((4, 6, 5)).astype(np.float32)
        out = similarity(Tensor(e), Tensor(r),
                         PoolConfig(alpha=0.1, mode="biha")).data
        fine = brute_force_fine(e, r)
        np.testing.assert_allclose(out, brute_force_biha_pool(fine, 0.1),
                                   atol=1e-6)

    def test_planted_match_dominates_diagonal(self):
        # captions equal their own image's tokens -> diagonal strictly wins
        codes = RNG.standard_normal((5, 3, 8)).astype(np.float32)
        for mode in POOL_MODES:
            s = similarity(Tensor(codes), Tensor(codes.copy()),
                           PoolConfig(alpha=0.1, mode=mode)).data
            off = s - np.diag(np.diag(s))
            assert (np.diag(s) > off.max(axis=1)).all(), mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            PoolConfig(alpha=0.1, mode="hungarian")

    def test_mode_string_round_trip(self):
        for mode in POOL_MODES:
            assert PoolConfig(alpha=0.1, mode=mode).mode == mode

    def test_simultaneous_permutation_invariance(self):
        e = RNG.standard_normal((3, 4, 6)).astype(np.float32)
        r = RNG.standard_normal((3, 5, 6)).astype(np.float32)
        cfg = PoolConfig(alpha=0.1, mode="biha")
        base = similarity(Tensor(e), Tensor(r), cfg).data
        perm_words = RNG.permutation(4)
        perm_regions = RNG.permutation(5)
        shuffled = similarity(Tensor(e[:, perm_words]),
                              Tensor(r[:, perm_regions]), cfg).data
        np.testing.assert_allclose(shuffled, base, atol=1e-6)

    @pytest.mark.parametrize("mode", POOL_MODES)
    def test_gradient_against_finite_differences(self, mode):
        # locally seeded so the data never sits within the FD step of a
        # hard-alignment max switch (kinks are measure zero but FD-visible)
        rng = np.random.default_rng(190 + POOL_MODES.index(mode))
        e = Tensor.param(rng.standard_normal((2, 2, 2)).astype(np.float32))
        r = Tensor.param(rng.standard_normal((2, 2, 2)).astype(np.float32))
        cfg = PoolConfig(alpha=0.5, mode=mode)
        weights = rng.standard_normal((2, 2)).astype(np.float32)

        def loss():
            return float((similarity(e, r, cfg) * weights).sum().data)

        (similarity(e, r, cfg) * weights).sum().backward()
        for p in (e, r):
            fd = central_difference(loss, p, eps=2e-3)
            an = p.grad.reshape(-1)
            err = np.abs(an - fd)
            tol = np.maximum(1e-2 * np.abs(fd), 2e-3)
            assert (err <= tol).all(), f"{mode}: max err {err.max()}"

