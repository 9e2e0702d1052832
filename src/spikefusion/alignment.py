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

The node's forward is one matmul of the flattened token sets,
``f4 = r @ e.T`` viewed as (B_r, N, B_e, L) (``fine`` is ``f4`` transposed
to (B_r, B_e, L, N)), and the pooling in numpy.  For its backward it keeps
``f4``, the log-sum-exp's exponentials and sums, and the maxima it pooled:

  g_x    = g / alpha * softmax(alpha * x) * alpha   (x: what the LSE pools)
  biha:  g_word = sum_n g_x * region_max,  g_region = sum_l g_x * word_max
  g_fine = g_word / g_region routed to the first maximal entry of each word
           row / region column (lse: g_fine = g_x)
  g_r    = g_fine @ e,                     g_e = (r.T @ g_fine).T

Its parents are ``(r_hat, e_hat)``, the order of the composed matmul it
replaces, so the tape walk accumulates every gradient in the same order.
As that graph's ``_accumulate`` did, the backward turns a -0.0 into +0.0
(by adding +0.0) after the log-sum-exp gradient and after each biha
profile gradient.  A maximum is the same whatever the memory order it is
taken in, so the maxima read whichever axis of ``f4`` is cheapest; a sum is
not, so every summed array keeps the layout the composed chain of generic
ops gave it.  Scores and gradients are bit-identical to that chain, which
the tests keep as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError
from .tensor import Tensor, _make, _unbroadcast, as_tensor

POOL_MODES = ("lse", "vha", "tha", "biha")
_ZERO = np.float32(0.0)


@dataclass(frozen=True)
class PoolConfig:
    alpha: float = 0.1
    mode: str = "biha"

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError(f"pool alpha must be > 0, got {self.alpha}")
        if self.mode not in POOL_MODES:
            raise ConfigError(
                f"unknown alignment mode {self.mode!r}; expected one of {POOL_MODES}"
            )


def l2_normalize(x: Tensor, eps: float = 1e-2) -> Tensor:
    """Unit-normalize the last axis with a floored norm, as one tape node.

    Tokens whose squared norm reaches ``eps`` are normalized exactly; smaller
    ones (fully masked fused tokens in particular) are scaled by the constant
    1/sqrt(eps), which keeps them at zero similarity while bounding the
    backward pass (an unguarded cosine has unbounded gradient at the origin).

    The node keeps the squared norms ``ss`` and the floored norms ``n``, both
    (..., 1).  Its backward hands ``x`` three gradients, one at a time, in
    the order the composed ``x / sqrt(max(sum(x * x), eps))`` did:

        g / n,   then  g_ss * x  twice,
        g_ss = sum(-g * x / (n * n)) * (0.5 / n) * [ss >= eps]
    """
    if not eps > 0:
        raise ParameterError(f"l2_normalize: eps must be > 0, got {eps}")
    x = as_tensor(x)
    floor = np.float32(eps)
    ss = (x.data * x.data).sum(axis=-1, keepdims=True)
    n = np.sqrt(np.maximum(ss, floor))

    def bw(g):
        x._accumulate(g / n)
        g_n = _unbroadcast(-g * x.data / (n * n), n.shape) + _ZERO
        g_ss = g_n * (0.5 / n) * (ss >= floor).astype(np.float32) + _ZERO
        g_sq = g_ss * x.data
        x._accumulate(g_sq)
        x._accumulate(g_sq)

    return _make(x.data / n, (x,), bw)


def similarity(e_tokens: Tensor, r_tokens: Tensor, cfg: PoolConfig) -> Tensor:
    """Pooled (B, B) similarity between two token sets under the given mode."""
    e_tokens, r_tokens = as_tensor(e_tokens), as_tensor(r_tokens)
    if e_tokens.ndim != 3 or r_tokens.ndim != 3:
        raise DimensionError(
            f"token sets must be (B, K, D); got {e_tokens.shape} and {r_tokens.shape}"
        )
    if e_tokens.shape[-1] != r_tokens.shape[-1]:
        raise DimensionError(
            f"embedding widths differ: {e_tokens.shape[-1]} vs {r_tokens.shape[-1]}"
        )
    return _pooled(l2_normalize(e_tokens), l2_normalize(r_tokens), cfg)


def _lse(x: np.ndarray, alpha: float, axis):
    """(1/alpha) log sum exp(alpha x) over ``axis``, max-shifted; returns the
    pooled value and the exponentials and sums its gradient reads."""
    scaled = x * np.float32(alpha)
    shift = np.max(scaled, axis=axis, keepdims=True)
    ex = np.exp(scaled - shift)
    s = ex.sum(axis=axis, keepdims=True)
    out = np.squeeze(shift + np.log(s), axis=axis).astype(np.float32)
    return out * np.float32(1.0 / alpha), ex, s


def _pooled(e_hat: Tensor, r_hat: Tensor, cfg: PoolConfig) -> Tensor:
    """One tape node: unit token sets (B_e, L, D) and (B_r, N, D) -> the
    pooled (B_r, B_e) scores; see the module docstring for its backward."""
    be, nl, d = e_hat.shape
    br, nn, _ = r_hat.shape
    e2 = e_hat.data.reshape(be * nl, d)
    r2 = r_hat.data.reshape(br * nn, d)
    f4 = (r2 @ e2.T).reshape(br, nn, be, nl)
    alpha, mode = cfg.alpha, cfg.mode
    word_max = region_max = None
    if mode in ("tha", "biha"):
        word_max = f4.max(axis=1)  # (B_r, B_e, L), C order
    if mode in ("vha", "biha"):
        region_max = np.ascontiguousarray(f4.max(axis=3).transpose(0, 2, 1))
    if mode == "lse":
        out, ex, s = _lse(f4.transpose(0, 2, 3, 1), alpha, (-2, -1))
    elif mode == "vha":
        out, ex, s = _lse(region_max, alpha, -1)
    elif mode == "tha":
        out, ex, s = _lse(word_max, alpha, -1)
    else:
        out, ex, s = _lse(word_max[:, :, :, None] * region_max[:, :, None, :],
                          alpha, (-2, -1))

    def bw(g):
        g = g * np.float32(1.0 / alpha)
        g = g.reshape(g.shape + (1,) * (ex.ndim - g.ndim))
        # g * softmax * alpha, in place over ``ex`` (the walk runs this
        # closure once); a +0.0 before the positive ``* alpha`` is implied
        # by the one after it
        g_x = np.divide(ex, s, out=ex)
        np.multiply(g, g_x, out=g_x)
        np.multiply(g_x, np.float32(alpha), out=g_x)
        np.add(g_x, _ZERO, out=g_x)
        if mode == "lse":
            g_flat = g_x.transpose(0, 3, 1, 2).reshape(br * nn, be * nl)
        else:
            g_flat = np.zeros(br * nn * be * nl, dtype=np.float32)
            if mode == "tha":
                g_word, g_region = g_x, None
            elif mode == "vha":
                g_word, g_region = None, g_x
            else:
                prod = g_x * region_max[:, :, None, :]
                g_word = prod.sum(3) + _ZERO
                np.multiply(g_x, word_max[:, :, :, None], out=prod)
                g_region = prod.sum(2) + _ZERO
            # linear index of f4[i, n, j, l] in the flat gradient; each
            # maximum routes to its first maximal entry, as np.argmax picks
            i = np.arange(br).reshape(br, 1, 1) * (nn * be * nl)
            if g_word is not None:
                n = np.argmax(f4 == word_max[:, None], axis=1)  # (B_r, B_e, L)
                j, l = np.arange(be).reshape(1, be, 1) * nl, np.arange(nl)
                g_flat[i + n * (be * nl) + j + l] = g_word
            if g_region is not None:
                region_nb = region_max.transpose(0, 2, 1)[..., None]
                l = np.argmax(f4 == region_nb, axis=3)  # (B_r, N, B_e)
                n = np.arange(nn).reshape(1, nn, 1) * (be * nl)
                j = np.arange(be) * nl
                g_flat[i + n + j + l] += g_region.transpose(0, 2, 1)
            g_flat = g_flat.reshape(br * nn, be * nl)
        if r_hat.requires_grad:
            r_hat._accumulate((g_flat @ e2).reshape(br, nn, d))
        if e_hat.requires_grad:
            e_hat._accumulate((r2.T @ g_flat).T.reshape(be, nl, d))

    return _make(out, (r_hat, e_hat), bw)
