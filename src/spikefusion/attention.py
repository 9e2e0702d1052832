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

from .errors import DimensionError, ParameterError
from .layers import BatchNorm, Linear, Module
from .neurons import LIFNeuron, LIFParams
from .tensor import Tensor, as_tensor, matmul
from .encoding import GeneratorConfig, SpikeGenerator, project_features


class SpikeSelfAttention(Module):
    """Spike Q/K/V attention with binary outputs, shapes (T, B, K, D)."""

    def __init__(self, d: int, lif: LIFParams, rng: np.random.Generator,
                 scale: float = 0.125):
        if scale <= 0:
            raise ParameterError(f"attention scale must be > 0, got {scale}")
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
        self.neuron_q = LIFNeuron(lif)
        self.neuron_k = LIFNeuron(lif)
        self.neuron_v = LIFNeuron(lif)
        self.neuron_attn = LIFNeuron(lif)
        self.neuron_out = LIFNeuron(lif)

    def __call__(self, x_s: Tensor, train: bool, recorder=None,
                 tag: str = "") -> Tensor:
        t = x_s.shape[0]
        if recorder is not None:
            recorder.record_linear(f"{tag}q_proj", x_s, self.w_q.w, t, "spiking")
            recorder.record_linear(f"{tag}k_proj", x_s, self.w_k.w, t, "spiking")
            recorder.record_linear(f"{tag}v_proj", x_s, self.w_v.w, t, "spiking")
        q = self.neuron_q(self.bn_q(self.w_q(x_s), train))
        k = self.neuron_k(self.bn_k(self.w_k(x_s), train))
        v = self.neuron_v(self.bn_v(self.w_v(x_s), train))
        k_t = k.swapaxes(-1, -2)
        if recorder is not None:
            recorder.record_matmul(f"{tag}attn_scores", q, k_t, t, "spiking")
        scores = matmul(q, k_t)
        if recorder is not None:
            recorder.record_matmul(f"{tag}attn_apply", scores, v, t, "spiking")
        mixed = matmul(scores, v) * np.float32(self.scale)
        attn = self.neuron_attn(self.bn_attn(mixed, train))
        if recorder is not None:
            recorder.record_linear(f"{tag}attn_out", attn, self.w_a.w, t, "spiking")
        return self.neuron_out(self.bn_out(self.w_a(attn), train))


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
        self.neuron_gate = LIFNeuron(lif)
        self.neuron_out = LIFNeuron(lif)

    def __call__(self, x_s: Tensor, recorder=None, tag: str = "") -> Tensor:
        t = x_s.shape[0]
        if recorder is not None:
            recorder.record_linear(f"{tag}gate_linear", x_s, self.w_g.w, t, "spiking")
            recorder.record_linear(f"{tag}value_linear", x_s, self.w_p.w, t, "spiking")
        gate = self.neuron_gate(self.w_g(x_s))
        value = self.w_p(x_s)
        gated = gate * value
        if recorder is not None:
            recorder.record_mask(f"{tag}gate_multiply")
            recorder.record_linear(f"{tag}mlp_out", gated, self.w_o.w, t, "spiking")
        return self.neuron_out(self.w_o(gated))


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

    def __call__(self, x_raw: Tensor, train: bool = False, recorder=None,
                 tag: str = "", intermediates: dict | None = None) -> EncoderOutput:
        if recorder is not None:
            recorder.record_linear(f"{tag}linear", x_raw, self.proj.w, 1,
                                   "float")
        x_f = project_features(x_raw, self.proj)
        x_s = self.gen(x_f, train)
        x_s1 = x_s + self.attn(x_s, train, recorder, tag)
        x_s2 = x_s1 + self.mlp(x_s1, recorder, tag)
        pooled = self.pool(x_s2)
        if intermediates is not None:
            intermediates.update(
                {"x_f": x_f, "x_s": x_s, "residual1": x_s1, "residual2": x_s2}
            )
        return EncoderOutput(features=x_f, pooled=pooled, spikes=x_s2)
