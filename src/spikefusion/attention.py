"""Intra-modal spike attention: spike self-attention, the spike gated MLP,
temporal pooling, and the unimodal encoder pipeline.

All attention arithmetic stays in the spike domain (no softmax): binary
Q/K/V matrices are multiplied directly and renormalized by batch norm before
each spiking nonlinearity.  The only float tensors in the block are the
gated-MLP value path, the residual sums, and the pooled output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import record_mask, record_matmul
from .errors import DimensionError
from .layers import BatchNorm, Linear, Module
from .neurons import LIFParams
from .tensor import Tensor, as_tensor, matmul
from .encoding import GeneratorConfig, SpikeGenerator, project_features


class SpikeSelfAttention(Module):
    """Spike Q/K/V attention with binary outputs, shapes (T, B, K, D)."""

    def __init__(self, d: int, lif: LIFParams, rng: np.random.Generator,
                 scale: float = 0.125):
        self.scale = scale
        self.w_q = Linear(d, d, rng, bias=False)
        self.w_k = Linear(d, d, rng, bias=False)
        self.w_v = Linear(d, d, rng, bias=False)
        self.w_a = Linear(d, d, rng, bias=False)
        self.bn_q = BatchNorm(d)
        self.bn_k = BatchNorm(d)
        self.bn_v = BatchNorm(d)
        self.bn_attn = BatchNorm(d)
        self.bn_out = BatchNorm(d)
        self.lif = lif

    def __call__(self, x_s: Tensor, train: bool) -> Tensor:
        t = x_s.shape[0]
        record_matmul("q_proj", x_s, self.w_q.w, t, "spiking")
        record_matmul("k_proj", x_s, self.w_k.w, t, "spiking")
        record_matmul("v_proj", x_s, self.w_v.w, t, "spiking")
        q = self.lif(self.bn_q(self.w_q(x_s), train))
        k = self.lif(self.bn_k(self.w_k(x_s), train))
        v = self.lif(self.bn_v(self.w_v(x_s), train))
        k_t = k.swapaxes(-1, -2)
        record_matmul("attn_scores", q, k_t, t, "spiking")
        scores = matmul(q, k_t)
        record_matmul("attn_apply", scores, v, t, "spiking")
        mixed = matmul(scores, v) * np.float32(self.scale)
        attn = self.lif(self.bn_attn(mixed, train))
        record_matmul("attn_out", attn, self.w_a.w, t, "spiking")
        return self.lif(self.bn_out(self.w_a(attn), train))


class SpikeGatedMLP(Module):
    """Spiking gate times a float value path: out = SN((G . P) W_o).

    The value path deliberately skips the neuron so pre-activation
    information survives the gate.
    """

    def __init__(self, d: int, lif: LIFParams, rng: np.random.Generator,
                 d_hidden: int | None = None):
        d_hidden = d if d_hidden is None else d_hidden
        # no norm inside this block: the larger gain keeps the gate drive
        # near threshold at init so the gate and output paths stay trainable
        self.w_g = Linear(d, d_hidden, rng, bias=False, gain=3.0)
        self.w_p = Linear(d, d_hidden, rng, bias=False)
        self.w_o = Linear(d_hidden, d, rng, bias=False, gain=3.0)
        self.lif = lif

    def __call__(self, x_s: Tensor) -> Tensor:
        t = x_s.shape[0]
        record_matmul("gate_linear", x_s, self.w_g.w, t, "spiking")
        record_matmul("value_linear", x_s, self.w_p.w, t, "spiking")
        gate = self.lif(self.w_g(x_s))
        value = self.w_p(x_s)
        gated = gate * value
        record_mask("gate_multiply")
        record_matmul("mlp_out", gated, self.w_o.w, t, "spiking")
        return self.lif(self.w_o(gated))


class TemporalPool(Module):
    """Convex combination over the time axis with learned weights.

    Raw weights are unconstrained; a softmax at application time keeps the
    mix convex (uniform 1/T at init).
    """

    def __init__(self, t: int):
        self.w = Tensor.param(np.zeros(t, dtype=np.float32))
        self.t = t

    def weights(self) -> Tensor:
        e = self.w.exp()
        return e / e.sum()

    def __call__(self, x_s: Tensor) -> Tensor:
        x_s = as_tensor(x_s)
        if x_s.shape[0] != self.t:
            raise DimensionError(
                f"temporal pool got {x_s.shape[0]} steps, expected {self.t}"
            )
        w = self.weights().reshape((self.t,) + (1,) * (x_s.ndim - 1))
        return (w * x_s).sum(axis=0)


@dataclass
class EncoderOutput:
    features: Tensor  # projected float tokens (B, K, D), pre-spike
    pooled: Tensor    # temporally pooled embedding (B, K, D)
    spikes: Tensor    # pre-pool spike tensor (T, B, K, D)


class UnimodalEncoder(Module):
    """Linear projection, spike generator, one {SSA + SG-MLP} block, pooling."""

    def __init__(self, d_raw: int, cfg: GeneratorConfig, lif: LIFParams,
                 rng: np.random.Generator, scale: float = 0.125):
        self.proj = Linear(d_raw, cfg.d, rng)
        self.gen = SpikeGenerator(cfg, lif, rng)
        self.attn = SpikeSelfAttention(cfg.d, lif, rng, scale)
        self.mlp = SpikeGatedMLP(cfg.d, lif, rng)
        self.pool = TemporalPool(cfg.t)

    def __call__(self, x_raw: Tensor, train: bool = False) -> EncoderOutput:
        record_matmul("linear", x_raw, self.proj.w, 1, "float")
        x_f = project_features(x_raw, self.proj)
        x_s = self.gen(x_f, train)
        x_s1 = x_s + self.attn(x_s, train)
        x_s2 = x_s1 + self.mlp(x_s1)
        pooled = self.pool(x_s2)
        return EncoderOutput(features=x_f, pooled=pooled, spikes=x_s2)
