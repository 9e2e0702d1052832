"""Spike generators: float token features -> multi-step binary embeddings.

Six variants combine a temporal expansion (repeat the features, per-step
linear maps, a kernel-3 convolution over the token axis, or a first
difference along tokens) with a normalization (layer norm or batch norm),
followed by a threshold-learnable spiking neuron.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .layers import BatchNorm, LayerNorm, Linear, Module
from .neurons import LIFParams, TLSNParams
from .tensor import Tensor, as_tensor, concat, repeat_steps, stack

GENERATOR_VARIANTS = (
    "repeat-ln",
    "repeat-bn",
    "linear-ln",
    "linear-bn",
    "conv-bn",
    "delta-bn",
)


@dataclass(frozen=True)
class GeneratorConfig:
    variant: str = "repeat-ln"
    t: int = 2
    d: int = 1024

    def __post_init__(self):
        if self.variant not in GENERATOR_VARIANTS:
            raise ConfigError(
                f"unknown spike generator variant {self.variant!r}; "
                f"expected one of {GENERATOR_VARIANTS}"
            )
        if self.t < 1:
            raise ConfigError(f"spike generator needs t >= 1, got {self.t}")


def project_features(x_raw: Tensor, projection: Linear) -> Tensor:
    """Map raw token features (..., K, D_raw) to the common width D."""
    x_raw = as_tensor(x_raw)
    if x_raw.shape[-1] != projection.w.shape[0]:
        raise DimensionError(
            f"feature width {x_raw.shape[-1]} does not match projection "
            f"input width {projection.w.shape[0]}"
        )
    return projection(x_raw)


def _shift_tokens(x: Tensor, offset: int) -> Tensor:
    """Shift along the token axis (second to last), zero padding the edge."""
    k = x.shape[-2]
    pad_shape = list(x.shape)
    pad_shape[-2] = abs(offset)
    zeros = Tensor(np.zeros(pad_shape, dtype=np.float32))
    idx = (Ellipsis,)
    if offset > 0:  # token i sees token i-offset
        body = x[idx + (slice(0, k - offset), slice(None))]
        return concat([zeros, body], axis=-2)
    body = x[idx + (slice(-offset, k), slice(None))]
    return concat([body, zeros], axis=-2)


class SpikeGenerator(Module):
    def __init__(self, cfg: GeneratorConfig, lif: LIFParams,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.tlsn = TLSNParams.create(lif)
        d = cfg.d
        base, norm_kind = cfg.variant.split("-")
        self.base = base
        if norm_kind == "ln":
            self.norm = LayerNorm(d)
        else:
            self.norm = BatchNorm(d)
        self.norm_kind = norm_kind
        self.step: list[Linear] = []  # one map per time step (linear)
        self.tap: list[Linear] = []   # token-axis conv taps (conv)
        if base == "linear":
            self.step = [Linear(d, d, rng, bias=False) for _ in range(cfg.t)]
        elif base == "conv":
            # kernel-size-3, same-padding convolution over the token axis
            self.tap = [Linear(d, d, rng, bias=False) for _ in range(3)]

    def expand(self, x_f: Tensor) -> Tensor:
        """Temporal expansion producing a (T, ..., K, D) float tensor."""
        x_f = as_tensor(x_f)
        t = self.cfg.t
        if self.base == "repeat":
            return repeat_steps(x_f, t)
        if self.base == "linear":
            return stack([m(x_f) for m in self.step], axis=0)
        if self.base == "conv":
            prev_tap, mid_tap, next_tap = self.tap
            y = prev_tap(_shift_tokens(x_f, 1)) + mid_tap(x_f) \
                + next_tap(_shift_tokens(x_f, -1))
            return repeat_steps(y, t)
        # delta: first difference along tokens, virtual zero before token 0
        y = x_f - _shift_tokens(x_f, 1)
        return repeat_steps(y, t)

    def pre_neuron(self, x_f: Tensor, train: bool) -> Tensor:
        """Normalized drive handed to the spiking neuron."""
        expanded = self.expand(x_f)
        if self.norm_kind == "ln":
            return self.norm(expanded)
        return self.norm(expanded, train)

    def __call__(self, x_f: Tensor, train: bool = False) -> Tensor:
        return self.tlsn(self.pre_neuron(x_f, train))
