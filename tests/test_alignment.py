"""Fine-grained similarity and bidirectional hard alignment vs loop oracles.

``similarity`` is one tape node; the composed chain of generic tensor ops it
replaces lives in ``helpers`` (``fine_similarity`` ... ``lse_pool``,
``reference_similarity``).  The chain is checked against float64 loop
oracles here, and the node against the chain bit for bit.
"""

import math

import numpy as np
import pytest

from spikefusion import alignment
from spikefusion.alignment import POOL_MODES, PoolConfig, l2_normalize, similarity
from spikefusion.errors import ConfigError, UsageError
from spikefusion.tensor import Tensor, no_grad

from helpers import (
    assert_zero_sign_inert,
    biha_enhance,
    bytes_after_backward,
    central_difference,
    fine_similarity,
    hard_align_region,
    hard_align_word,
    interior_nodes,
    lse_pool,
    reference_l2_normalize,
    reference_similarity,
    traced,
)

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
        cfg = PoolConfig(alpha=0.1, mode="biha")
        for fn in (similarity, reference_similarity):
            with pytest.raises(UsageError):
                fn(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 4))),
                   cfg)

    @pytest.mark.parametrize("e_shape, r_shape", [
        ((2, 0, 4), (2, 3, 4)), ((2, 3, 4), (2, 0, 4)),
        ((0, 3, 4), (2, 3, 4)), ((2, 3, 4), (0, 3, 4)),
        ((2, 3, 0), (2, 3, 0))],
        ids=["no_words", "no_regions", "no_captions", "no_images", "no_width"])
    def test_empty_token_sets_rejected(self, e_shape, r_shape):
        # a (0, 2) matrix ranks nothing, and a 0-token block divides by 0
        with pytest.raises(UsageError, match="non-empty"):
            similarity(Tensor(np.ones(e_shape)), Tensor(np.ones(r_shape)),
                       PoolConfig())

    @pytest.mark.parametrize("e_shape, r_shape", [
        ((2, 3), (1, 2, 3)), ((1, 2, 3), (1, 1, 2, 3))])
    def test_token_sets_must_be_3d(self, e_shape, r_shape):
        cfg = PoolConfig(alpha=0.1, mode="biha")
        for fn in (similarity, reference_similarity):
            with pytest.raises(UsageError):
                fn(Tensor(np.zeros(e_shape)), Tensor(np.zeros(r_shape)), cfg)


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
        with pytest.raises(UsageError):
            lse_pool(Tensor(np.zeros((1, 1, 2, 2))), 0.0)

    @pytest.mark.parametrize(
        "alpha", [0.0, -0.1, math.nan, math.inf, 1e39])
    def test_pool_config_rejects_alpha(self, alpha):
        # similarity reads its alpha from a PoolConfig only; past float32
        # every score would be NaN
        with pytest.raises(ConfigError):
            PoolConfig(alpha=alpha)


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


class TestPooledNode:
    """The one-node ``similarity`` against the composed chain, bit for bit."""

    @staticmethod
    def inputs(br=2, be=3):
        # ragged: B_e != B_r and L != N; an all-zero token on each side ties
        # its similarity row at 0, as fully masked fused tokens do
        rng = np.random.default_rng(77)
        e = rng.standard_normal((be, 4, 5)).astype(np.float32)
        r = rng.standard_normal((br, 6, 5)).astype(np.float32)
        e[1, 2] = 0.0
        r[0, 3] = 0.0
        g = rng.standard_normal((br, be)).astype(np.float32)
        g[0, 1] = g[1, 2] = -0.0
        return e, r, g

    @staticmethod
    def assert_bit_identical(cfg, e0, r0, g):
        runs = []
        for fn in (similarity, reference_similarity):
            e, r = Tensor.param(e0), Tensor.param(r0)
            out = fn(e, r, cfg)
            (out * Tensor(g)).sum().backward()
            runs.append([a.tobytes() for a in (out.data, e.grad, r.grad)])
        node, chain = runs
        assert node[0] == chain[0], "scores"
        assert node[1] == chain[1], "e.grad"
        assert node[2] == chain[2], "r.grad"

    @pytest.mark.parametrize("alpha", [0.1, 2.0])
    @pytest.mark.parametrize("mode", POOL_MODES)
    def test_bit_identical_to_composed_chain(self, mode, alpha):
        self.assert_bit_identical(PoolConfig(alpha=alpha, mode=mode),
                                  *self.inputs())

    @pytest.mark.parametrize("alpha", [0.1, 2.0])
    @pytest.mark.parametrize("mode", POOL_MODES)
    def test_bit_identical_across_row_blocks(self, mode, alpha, monkeypatch):
        # at most three captions and a budget of three and a bit (3, L, N)
        # slabs: 7 images and 7 captions run as blocks of 3, 3 and 1 rows
        # by 2, 2 and 3 columns, against the chain's one full-batch matmul;
        # the partial last blocks get a zero token and a -0.0 of their own
        e0, r0, g = self.inputs(br=7, be=7)
        r0[6, 1] = 0.0
        e0[6, 0] = 0.0
        g[6, 0] = g[0, 6] = -0.0
        monkeypatch.setattr(alignment, "_BLOCK_COLS", 3)
        monkeypatch.setattr(alignment, "_BLOCK_BYTES", 3 * 3 * 4 * 6 * 4 + 7)
        shapes = {(i.stop - i.start, j.stop - j.start)
                  for i, j in alignment._blocks(7, 7, 4, 6)}
        assert shapes == {(m, c) for m in (3, 1) for c in (2, 3)}
        self.assert_bit_identical(PoolConfig(alpha=alpha, mode=mode),
                                  e0, r0, g)

    @pytest.mark.parametrize("mode", POOL_MODES)
    def test_bit_identical_with_a_first_maximum_tie(self, mode):
        # two identical regions in one image, and a word equal to them, tie
        # that word's maximum at 1, not 0: the first maximal region gets
        # the gradient, as argmax picks
        e0, r0, g = self.inputs()
        r0[1, 4] = r0[1, 1]
        e0[0, 0] = r0[1, 1]
        fine = fine_similarity(e0, r0).data  # (B_r, B_e, L, N)
        word = fine[1, 0, 0]
        assert word[1] == word[4] == word.max() > 0.99
        self.assert_bit_identical(PoolConfig(mode=mode), e0, r0, g)

    @pytest.mark.parametrize("mode", ["tha", "biha"])
    def test_bit_identical_beyond_255_regions(self, mode):
        # the word routing's keys count down from N, past one byte here;
        # the first region is one word's maximum
        e0, _, g = self.inputs()
        r0 = np.random.default_rng(78).standard_normal(
            (2, 256, 5)).astype(np.float32)
        e0[1, 0] = r0[0, 0]
        assert fine_similarity(e0, r0).data[0, 1, 0].argmax() == 0
        self.assert_bit_identical(PoolConfig(mode=mode), e0, r0, g)

    @pytest.mark.parametrize("nl, nn", [(36, 36), (4, 6)])
    def test_block_rule(self, nl, nn):
        # each (image, caption) score lies in exactly one block; the column
        # blocks are as even as can be and never one caption wide, which
        # would reorder the lse sums; a block over one row may not exceed
        # the byte budget
        br = 50
        for be in range(1, 201):
            seen = np.zeros((br, be), dtype=int)
            widths = set()
            for i, j in alignment._blocks(br, be, nl, nn):
                seen[i, j] += 1
                rows, cols = i.stop - i.start, j.stop - j.start
                widths.add(cols)
                assert cols <= alignment._BLOCK_COLS
                assert cols > 1 or be == 1
                if rows > 1:
                    assert rows * cols * nl * nn * 4 <= alignment._BLOCK_BYTES
            assert (seen == 1).all()
            assert max(widths) - min(widths) <= 1

    @pytest.mark.parametrize("mode", POOL_MODES)
    def test_backward_ignores_the_sign_of_zero(self, mode):
        # a zero image row and caption column give both exact zeros
        e0, r0, g = self.inputs()
        g[1] = g[:, 0] = 0.0
        leaves = [l2_normalize(Tensor(a)).data for a in (r0, e0)]
        assert_zero_sign_inert(
            lambda r, e: alignment._pooled(e, r, PoolConfig(mode=mode)),
            leaves, g)

    @pytest.mark.parametrize("mode", POOL_MODES)
    def test_one_node_after_the_normalisations(self, mode):
        e0, r0, _ = self.inputs()
        e, r = Tensor.param(e0), Tensor.param(r0)
        out = similarity(e, r, PoolConfig(alpha=0.1, mode=mode))
        r_hat, e_hat = out._parents
        assert r_hat._parents == (r,) and e_hat._parents == (e,)
        assert r_hat.data.tobytes() == l2_normalize(r).data.tobytes()
        assert e_hat.data.tobytes() == l2_normalize(e).data.tobytes()
        assert interior_nodes(out) == (interior_nodes(l2_normalize(e))
                                       + interior_nodes(l2_normalize(r)) + 1)


class TestPooledMemory:
    """What the node holds, measured against one (B_r, B_e, L, N) float32
    fine tensor; tracemalloc sees numpy's buffers."""

    @staticmethod
    def tokens(b, k, requires_grad):
        rng = np.random.default_rng(5)
        return [Tensor(rng.standard_normal((b, k, 8)).astype(np.float32),
                       requires_grad=requires_grad) for _ in range(2)]

    @pytest.mark.parametrize("mode", POOL_MODES)
    def test_tracked_node_keeps_less_than_the_fine_tensor(self, mode):
        b, k = 24, 16
        fine = b * b * k * k * 4
        e, r = self.tokens(b, k, requires_grad=True)
        out, held, _ = traced(
            lambda: similarity(e, r, PoolConfig(mode=mode)))
        assert out.requires_grad
        # lse keeps its fine blocks for its dense gradient, but not the
        # exponentials, a second fine tensor
        assert held < (1.5 if mode == "lse" else 1) * fine

    @pytest.mark.parametrize("mode", POOL_MODES)
    def test_untracked_call_peaks_below_the_fine_tensor(self, mode):
        b, k = 48, 24
        assert len(alignment._blocks(b, b, k, k)) > 1
        e, r = self.tokens(b, k, requires_grad=False)

        def call():
            with no_grad():
                return similarity(e, r, PoolConfig(mode=mode))

        _, _, peak = traced(call)
        assert peak < b * b * k * k * 4


class TestL2Node:
    """``l2_normalize`` is one tape node over its input, bit for bit equal to
    the composed ``x / sqrt(max(sum(x * x), eps))``."""

    @staticmethod
    def inputs():
        # one token under the eps floor, as a fully masked fused token is
        rng = np.random.default_rng(58)
        x = rng.standard_normal((3, 4, 6)).astype(np.float32)
        x[1, 2] = 0.01
        g = rng.standard_normal(x.shape).astype(np.float32)
        g.reshape(-1)[::5] = -0.0
        return x, g

    def test_bit_identical_to_composed_graph(self):
        x0, g = self.inputs()
        runs = []
        for fn in (l2_normalize, reference_l2_normalize):
            x = Tensor.param(x0)
            runs.append(bytes_after_backward(fn(x), g, x))
        assert runs[0] == runs[1]

    def test_shared_input_bit_identical_to_composed_graph(self):
        # ``pooled`` feeds four normalisations per step: each node hands the
        # shared input its three gradients one at a time, in the composed
        # graph's order, so the running sum rounds as it did
        x0, g = self.inputs()
        runs = []
        for fn in (l2_normalize, reference_l2_normalize):
            x = Tensor.param(x0)
            out = (fn(x) * np.float32(2.0) + fn(x) + fn(x * np.float32(1.5))
                   + fn(x))
            runs.append(bytes_after_backward(out, g, x))
        assert runs[0] == runs[1]

    def test_backward_ignores_the_sign_of_zero(self):
        x, g = self.inputs()
        g[0, 1] = 0.0  # a zero token row gives x exact zeros
        assert_zero_sign_inert(l2_normalize, [x], g)

    def test_one_node_over_its_input(self):
        x = Tensor.param(self.inputs()[0])
        assert l2_normalize(x)._parents == (x,)
