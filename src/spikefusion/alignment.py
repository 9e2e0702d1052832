"""Fine-grained token similarity and bidirectional hard alignment.

``similarity`` scores every image against every caption.  It normalises both
token sets (``l2_normalize``, one tape node each) and hands them to
``_pooled``, one tape node that builds the (B, B, L, N) cosine tensor
``fine`` between every word of every caption and every region of every
image and collapses it to the (B, B) retrieval matrix under one of four
modes:

  lse   direct 2-D log-sum-exp over the token axes
  vha   per-region max over words, then log-sum-exp over regions
  tha   per-word max over regions, then log-sum-exp over words
  biha  outer product of both hard-alignment maxima, then 2-D log-sum-exp

The first batch axis indexes the region side (images), the second the word
side (captions): pooled[i, j] scores image i against caption j.

The node walks ``fine`` in 2-D blocks, whose shapes only ``_blocks``
picks.  The captions split as evenly as possible into column blocks of at
most ``_BLOCK_COLS``, never one caption wide unless B_e is 1 (numpy would
merge its L and N axes and sum lse in another order).  A block takes as
many image rows as fit ``_BLOCK_BYTES`` (1 MiB, half a 2 MiB per-core L2
cache) of (cols, L, N) float32 slabs, and at least one, so only one block
of ``fine`` is alive at a time.  Per block the forward is one matmul,
``f4 = r[rows] @ e[cols].T`` viewed as (rows, N, cols, L) (``fine`` is
``f4`` transposed to (rows, cols, L, N)), the maxima it pools, and a
log-sum-exp computed in place over one buffer.  When the node joins the
tape (``tensor._joins_tape``) it keeps, per block, only the maxima, the
first-maximum routing indices, the log-sum-exp shift and sums, and in lse
mode ``f4`` itself (its gradient is dense).  An untracked call keeps
nothing.  The backward recomputes each block's exponentials from those,
with the forward's own expressions, fills that block of a (B_r, N, B_e, L)
view of the gradient of ``f4``, then runs two full matmuls:

  g_x    = g / alpha * softmax(alpha * x) * alpha   (x: what the LSE pools)
  biha:  g_word = sum_n g_x * region_max,  g_region = sum_l g_x * word_max
  g_fine = g_word / g_region routed to the first maximal entry of each word
           row / region column (lse: g_fine = g_x)
  g_r    = g_fine @ e,                     g_e = (r.T @ g_fine).T

Its parents are ``(r_hat, e_hat)``, the order of the composed matmul it
replaces, so the tape walk accumulates every gradient in the same order.
A maximum is the same whatever the order it is taken in, so the maxima
read whichever axis of ``f4`` is cheapest, the per-region one as a fold of
its L slices; a sum is not, so every summed array keeps the layout the
composed chain of generic ops gave it.  Scores and gradients are
bit-identical to that chain, which the tests keep as the oracle, whatever
the block shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .neurons import FLOAT32_MAX
from .tensor import Tensor, _joins_tape, _make, _unbroadcast, as_tensor

POOL_MODES = ("lse", "vha", "tha", "biha")
_L2_EPS = np.float32(1e-2)
# bytes of one (rows, cols, L, N) float32 block of the fine tensor: half the
# 2 MiB per-core L2 of the Xeon host perfbench runs on, so a block and its
# log-sum-exp buffer stay in that cache
_BLOCK_BYTES = 1 << 20
# captions per block, at most; a training batch (B <= 32) is one column
_BLOCK_COLS = 32


@dataclass(frozen=True)
class PoolConfig:
    alpha: float = 0.1
    mode: str = "biha"

    def __post_init__(self):
        # compared, not cast: a NaN fails, and an alpha or 1/alpha beyond
        # float32 makes every score NaN
        if not (0 < self.alpha <= FLOAT32_MAX
                and 1 / self.alpha <= FLOAT32_MAX):
            raise ConfigError(f"pool alpha must be > 0 and alpha and 1/alpha "
                              f"must fit float32, got {self.alpha}")
        if self.mode not in POOL_MODES:
            raise ConfigError(
                f"unknown alignment mode {self.mode!r}; expected one of {POOL_MODES}"
            )


def l2_normalize(x: Tensor) -> Tensor:
    """Unit-normalize the last axis with a floored norm, as one tape node.

    Tokens whose squared norm reaches ``eps`` (``_L2_EPS``) are normalized
    exactly; smaller ones (fully masked fused tokens in particular) are
    scaled by 1/sqrt(eps), which keeps them at zero similarity while bounding
    the backward (an unguarded cosine has unbounded gradient at the origin).

    The node keeps the squared norms ``ss`` and the floored norms ``n``, both
    (..., 1).  Its backward hands ``x`` three gradients, one at a time, in
    the order the composed ``x / sqrt(max(sum(x * x), eps))`` did:

        g / n,   then  g_ss * x  twice,
        g_ss = sum(-g * x / (n * n)) * (0.5 / n) * [ss >= eps]
    """
    x = as_tensor(x)
    ss = (x.data * x.data).sum(axis=-1, keepdims=True)
    n = np.sqrt(np.maximum(ss, _L2_EPS))

    def bw(g):
        x._accumulate(g / n)
        g_n = _unbroadcast(-g * x.data / (n * n), n.shape)
        g_ss = g_n * (0.5 / n) * (ss >= _L2_EPS).astype(np.float32)
        g_sq = g_ss * x.data
        x._accumulate(g_sq)
        x._accumulate(g_sq)

    return _make(x.data / n, (x,), bw)


def similarity(e_tokens: Tensor, r_tokens: Tensor, cfg: PoolConfig) -> Tensor:
    """Pooled (B, B) similarity between two token sets under the given mode."""
    e_tokens, r_tokens = as_tensor(e_tokens), as_tensor(r_tokens)
    if e_tokens.ndim != 3 or r_tokens.ndim != 3:
        raise UsageError(
            f"token sets must be (B, K, D); got {e_tokens.shape} and {r_tokens.shape}"
        )
    if e_tokens.shape[-1] != r_tokens.shape[-1]:
        raise UsageError(
            f"embedding widths differ: {e_tokens.shape[-1]} vs {r_tokens.shape[-1]}"
        )
    if 0 in e_tokens.shape + r_tokens.shape:
        raise UsageError(f"token sets must be non-empty; got {e_tokens.shape} "
                         f"and {r_tokens.shape}")
    return _pooled(l2_normalize(e_tokens), l2_normalize(r_tokens), cfg)


def _blocks(br: int, be: int, nl: int, nn: int) -> list:
    """The (rows, cols) slices ``_pooled`` walks; see the module docstring."""
    n_cols = -(-be // _BLOCK_COLS)
    cuts = [be * k // n_cols for k in range(n_cols + 1)]
    rows = max(1, _BLOCK_BYTES // (-(-be // n_cols) * nl * nn * 4))
    return [(slice(i0, min(i0 + rows, br)), slice(j0, j1))
            for i0 in range(0, br, rows) for j0, j1 in zip(cuts, cuts[1:])]


def _max_last_axis(f4: np.ndarray) -> np.ndarray:
    """``f4.max(axis=-1)`` as a fold of whole slices: numpy reduces a short
    innermost axis in one short loop per output entry, 2-9x slower."""
    m = f4[..., 0].copy()
    for k in range(1, f4.shape[-1]):
        np.maximum(m, f4[..., k], out=m)
    return m


def _alpha_x(f4, word_max, region_max, mode: str, alpha: float):
    """alpha times what the log-sum-exp pools, for one row block, in a fresh
    buffer laid out as the composed chain lays it out."""
    a = np.float32(alpha)
    if mode == "lse":
        return f4.transpose(0, 2, 3, 1) * a  # f4's memory order
    if mode == "vha":
        return region_max * a
    if mode == "tha":
        return word_max * a
    x = word_max[:, :, :, None] * region_max[:, :, None, :]
    return np.multiply(x, a, out=x)


def _exp_shifted(ax: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """exp(ax - shift), in place over ``ax``."""
    np.subtract(ax, shift, out=ax)
    return np.exp(ax, out=ax)


def _pooled(e_hat: Tensor, r_hat: Tensor, cfg: PoolConfig) -> Tensor:
    """One tape node: unit token sets (B_e, L, D) and (B_r, N, D) -> the
    pooled (B_r, B_e) scores, one ``_blocks`` block at a time; see the
    module docstring for what it keeps and its backward."""
    be, nl, d = e_hat.shape
    br, nn, _ = r_hat.shape
    e2 = e_hat.data.reshape(be * nl, d)
    r2 = r_hat.data.reshape(br * nn, d)
    alpha, mode = cfg.alpha, cfg.mode
    axes = (-2, -1) if mode in ("lse", "biha") else -1
    tracked = _joins_tape((r_hat, e_hat))
    out = np.empty((br, be), dtype=np.float32)
    desc_keys = np.arange(nn, 0, -1,
                          dtype=np.min_scalar_type(nn))[:, None, None]

    def pool(i: slice, j: slice):
        """Fill ``out[i, j]`` with alpha times the pooled scores; return
        what the backward reads of this block (nothing when untracked).
        Every other array of the block dies with this call."""
        r, e = r_hat.data[i], e_hat.data[j]
        f4 = (r.reshape(-1, d) @ e.reshape(-1, d).T).reshape(len(r), nn, -1, nl)
        word_max = region_max = word_arg = region_arg = None
        if mode in ("tha", "biha"):
            word_max = f4.max(axis=1)  # (rows, cols, L), C order
        if mode in ("vha", "biha"):
            region_max = np.ascontiguousarray(
                _max_last_axis(f4).transpose(0, 2, 1))
        ax = _alpha_x(f4, word_max, region_max, mode, alpha)
        shift = ax.max(axis=axes, keepdims=True)
        s = _exp_shifted(ax, shift).sum(axis=axes, keepdims=True)
        out[i, j] = np.squeeze(shift + np.log(s), axis=axes)
        if not tracked:
            return None
        # each maximum routes its gradient to its first maximal entry, as
        # np.argmax picks.  Words: the first maximal region has the largest
        # of the descending keys nn..1 (argmax over axis 1 would copy the
        # comparison to move that axis last)
        if word_max is not None:
            key = np.multiply(f4 == word_max[:, None], desc_keys)
            word_arg = nn - key.max(axis=1)  # (rows, cols, L)
        if region_max is not None:
            region_nb = region_max.transpose(0, 2, 1)[..., None]
            region_arg = np.argmax(f4 == region_nb, axis=3)  # (rows, N, cols)
        return (i, j, f4 if mode == "lse" else None, word_max, region_max,
                word_arg, region_arg, shift, s)

    blocks = [pool(i, j) for i, j in _blocks(br, be, nl, nn)]
    np.multiply(out, np.float32(1.0 / alpha), out=out)

    def bw(g):
        g = g * np.float32(1.0 / alpha)
        # lse writes every entry; the other modes route to a few
        g_flat = (np.empty if mode == "lse" else np.zeros)(
            (br * nn, be * nl), dtype=np.float32)
        g4 = g_flat.reshape(br, nn, be, nl)  # laid out as f4
        for (i, j, f4, word_max, region_max, word_arg, region_arg, shift,
             s) in blocks:
            ex = _exp_shifted(_alpha_x(f4, word_max, region_max, mode, alpha),
                              shift)
            g_m = g[i, j].reshape(ex.shape[:2] + (1,) * (ex.ndim - 2))
            # g * softmax * alpha, in place over ``ex``
            g_x = np.divide(ex, s, out=ex)
            np.multiply(g_m, g_x, out=g_x)
            np.multiply(g_x, np.float32(alpha), out=g_x)
            g_block = g4[i, :, j]
            if mode == "lse":
                g_block[...] = g_x.transpose(0, 3, 1, 2)
                continue
            if mode == "tha":
                g_word, g_region = g_x, None
            elif mode == "vha":
                g_word, g_region = None, g_x
            else:
                prod = g_x * region_max[:, :, None, :]
                g_word = prod.sum(3)
                np.multiply(g_x, word_max[:, :, :, None], out=prod)
                g_region = prod.sum(2)
            if g_word is not None:
                np.put_along_axis(g_block, word_arg[:, None], g_word[:, None], 1)
            if g_region is not None:  # added to what the word routing wrote
                at = region_arg[..., None]
                np.put_along_axis(
                    g_block, at, np.take_along_axis(g_block, at, axis=3)
                    + g_region.transpose(0, 2, 1)[..., None], axis=3)
        if r_hat.requires_grad:
            r_hat._accumulate((g_flat @ e2).reshape(br, nn, d))
        if e_hat.requires_grad:
            e_hat._accumulate((r2.T @ g_flat).T.reshape(be, nl, d))

    return _make(out, (r_hat, e_hat), bw)
