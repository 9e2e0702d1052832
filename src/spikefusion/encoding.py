"""Spike generators: float token features -> multi-step binary embeddings.

Six variants combine a temporal expansion (repeat the features, per-step
linear maps, a kernel-3 convolution over the token axis, or a first
difference along tokens) with a normalization (layer norm or batch norm),
followed by a threshold-learnable spiking neuron.  The energy ledger records
each per-step map or conv tap as a float layer named by its weight's path
(``gen/step0/w``, ``gen/tap0/w``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import record_matmul
from .errors import ConfigError
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
        if not self.t >= 1:
            raise ConfigError(f"spike generator needs t >= 1, got {self.t}")


def _shift_tokens(x: Tensor, offset: int) -> Tensor:
    """Shift one token along the token axis (second to last), zero padding
    the edge: with ``offset`` 1 token i sees token i-1, with -1 token i+1."""
    zeros = Tensor(np.zeros(x.shape[:-2] + (1, x.shape[-1]), dtype=np.float32))
    if offset == 1:
        return concat([zeros, x[..., :x.shape[-2] - 1, :]], axis=-2)
    return concat([x[..., 1:, :], zeros], axis=-2)


class SpikeGenerator(Module):
    def __init__(self, cfg: GeneratorConfig, lif: LIFParams,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.tlsn = TLSNParams.create(lif)
        d = cfg.d
        self.base, norm = cfg.variant.split("-")
        self.norm = LayerNorm(d) if norm == "ln" else BatchNorm(d)
        # one map per time step (linear); the taps of a kernel-size-3,
        # same-padding convolution over the token axis (conv)
        self.step = [Linear(d, d, rng, bias=False)
                     for _ in range(cfg.t if self.base == "linear" else 0)]
        self.tap = [Linear(d, d, rng, bias=False)
                    for _ in range(3 if self.base == "conv" else 0)]

    def expand(self, x_f: Tensor) -> Tensor:
        """Temporal expansion producing a (T, ..., K, D) float tensor."""
        x_f = as_tensor(x_f)
        for m in self.step + self.tap:
            record_matmul(m.path + "w", x_f, m.w, 1, "float")
        if self.base == "linear":
            return stack([m(x_f) for m in self.step], axis=0)
        if self.base == "conv":
            prev_tap, mid_tap, next_tap = self.tap
            x_f = prev_tap(_shift_tokens(x_f, 1)) + mid_tap(x_f) \
                + next_tap(_shift_tokens(x_f, -1))
        elif self.base == "delta":
            # first difference along tokens, virtual zero before token 0
            x_f = x_f - _shift_tokens(x_f, 1)
        return repeat_steps(x_f, self.cfg.t)

    def __call__(self, x_f: Tensor) -> Tensor:
        return self.tlsn(self.expand(x_f), norm=self.norm)
