"""Fine-grained token similarity and bidirectional hard alignment.

``fine_similarity`` produces the (B, B, L, N) cosine tensor between every
word of every caption and every region of every image; the pooling modes
collapse it to the (B, B) retrieval matrix:

  lse   direct 2-D log-sum-exp over the token axes
  vha   per-region max over words, then log-sum-exp over regions
  tha   per-word max over regions, then log-sum-exp over words
  biha  outer product of both hard-alignment maxima, then 2-D log-sum-exp

The first batch axis indexes the region side (images), the second the word
side (captions): pooled[i, j] scores image i against caption j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError
from .tensor import Tensor, as_tensor, logsumexp, matmul

POOL_MODES = ("lse", "vha", "tha", "biha")


@dataclass(frozen=True)
class PoolConfig:
    alpha: float = 0.1
    mode: str = "biha"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ParameterError(f"pool alpha must be > 0, got {self.alpha}")
        if self.mode not in POOL_MODES:
            raise ConfigError(
                f"unknown alignment mode {self.mode!r}; expected one of {POOL_MODES}"
            )


def l2_normalize(x: Tensor, eps: float = 1e-2) -> Tensor:
    """Unit-normalize the last axis with a floored norm.

    Tokens whose squared norm reaches ``eps`` are normalized exactly; smaller
    ones (fully masked fused tokens in particular) are scaled by the constant
    1/sqrt(eps), which keeps them at zero similarity while bounding the
    backward pass (an unguarded cosine has unbounded gradient at the origin).
    """
    x = as_tensor(x)
    ss = (x * x).sum(axis=-1, keepdims=True)
    return x / ss.clip_min(eps).sqrt()


def fine_similarity(e_tokens: Tensor, r_tokens: Tensor) -> Tensor:
    """Cosine similarity of every (word, region) pair -> (B, B, L, N)."""
    e_tokens, r_tokens = as_tensor(e_tokens), as_tensor(r_tokens)
    if e_tokens.ndim != 3 or r_tokens.ndim != 3:
        raise DimensionError(
            f"token sets must be (B, K, D); got {e_tokens.shape} and {r_tokens.shape}"
        )
    if e_tokens.shape[-1] != r_tokens.shape[-1]:
        raise DimensionError(
            f"embedding widths differ: {e_tokens.shape[-1]} vs {r_tokens.shape[-1]}"
        )
    be, nl, d = e_tokens.shape
    br, nn, _ = r_tokens.shape
    e_hat = l2_normalize(e_tokens).reshape((be * nl, d))
    r_hat = l2_normalize(r_tokens).reshape((br * nn, d))
    flat = matmul(r_hat, e_hat.swapaxes(-1, -2))  # (B_r*N, B_e*L)
    return flat.reshape((br, nn, be, nl)).transpose((0, 2, 3, 1))


def hard_align_word(fine: Tensor) -> Tensor:
    """Per-word maximum over regions: (B, B, L, N) -> (B, B, L)."""
    return as_tensor(fine).max(axis=-1)


def hard_align_region(fine: Tensor) -> Tensor:
    """Per-region maximum over words: (B, B, L, N) -> (B, B, N)."""
    return as_tensor(fine).max(axis=-2)


def biha_enhance(word_max: Tensor, region_max: Tensor) -> Tensor:
    """Outer product of the two hard-alignment profiles -> (B, B, L, N)."""
    word_max, region_max = as_tensor(word_max), as_tensor(region_max)
    if word_max.shape[:2] != region_max.shape[:2]:
        raise DimensionError(
            f"batch axes differ: {word_max.shape[:2]} vs {region_max.shape[:2]}"
        )
    b0, b1, nl = word_max.shape
    nn = region_max.shape[-1]
    return word_max.reshape((b0, b1, nl, 1)) * region_max.reshape((b0, b1, 1, nn))


def lse_pool(s_bar: Tensor, alpha: float) -> Tensor:
    """2-D log-sum-exp over the trailing token axes: (1/a) log sum exp(a*s)."""
    if alpha <= 0:
        raise ParameterError(f"lse alpha must be > 0, got {alpha}")
    scaled = as_tensor(s_bar) * np.float32(alpha)
    return logsumexp(scaled, axis=(-2, -1)) * np.float32(1.0 / alpha)


def _lse_last(x: Tensor, alpha: float) -> Tensor:
    scaled = as_tensor(x) * np.float32(alpha)
    return logsumexp(scaled, axis=-1) * np.float32(1.0 / alpha)


def similarity(e_tokens: Tensor, r_tokens: Tensor, cfg: PoolConfig) -> Tensor:
    """Pooled (B, B) similarity between two token sets under the given mode."""
    fine = fine_similarity(e_tokens, r_tokens)
    if cfg.mode == "lse":
        return lse_pool(fine, cfg.alpha)
    if cfg.mode == "vha":
        return _lse_last(hard_align_region(fine), cfg.alpha)
    if cfg.mode == "tha":
        return _lse_last(hard_align_word(fine), cfg.alpha)
    enhanced = biha_enhance(hard_align_word(fine), hard_align_region(fine))
    return lse_pool(enhanced, cfg.alpha)

