"""Leaky integrate-and-fire dynamics and the threshold-learnable neuron.

Membrane update per step:

    h[t] = v[t-1] + (x[t] - (v[t-1] - v_reset)) / tau
    s[t] = 1 if h[t] >= v_th else 0
    v[t] = h[t] * (1 - s[t]) + v_reset * s[t]        (hard reset)

The reset path is detached from the gradient graph: gradients flow through
the membrane recurrence and the surrogate only.  In smooth-spike mode the
reset stays attached so the graph is exactly differentiable for
finite-difference oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, ParameterError, UsageError
from .layers import Module
from .tensor import (
    Tensor,
    as_tensor,
    smooth_spikes_active,
    softplus,
    spike_threshold,
    stack,
)

# margin keeping a learnable threshold strictly above the reset potential
THRESHOLD_FLOOR = 0.01
FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class LIFParams:
    tau: float = 2.0
    v_th: float = 1.0
    v_reset: float = 0.0
    surrogate_alpha: float = 2.0

    def __post_init__(self):
        if not self.tau >= 1.0:
            raise ParameterError(f"LIF tau must be >= 1, got {self.tau}")
        if not self.v_th - self.v_reset - THRESHOLD_FLOOR > 0:
            raise ParameterError(
                f"LIF threshold {self.v_th} must exceed reset {self.v_reset} "
                f"by more than {THRESHOLD_FLOOR}"
            )
        # the TLSN threshold is softplus of this gap, stored as float32
        if not self.v_th - self.v_reset <= FLOAT32_MAX:
            raise ParameterError(
                f"LIF threshold {self.v_th} minus reset {self.v_reset} does not "
                f"fit float32")

    def __call__(self, x: Tensor) -> Tensor:
        """The neuron itself: spikes of the LIF fold over ``x``'s time axis."""
        return lif_sequence(x, self)


@dataclass
class NeuronState:
    """Membrane potential, one value per neuron (shape of a single time slice)."""

    v: Tensor

    @staticmethod
    def initial(shape, v_reset: float) -> "NeuronState":
        return NeuronState(Tensor(np.full(shape, v_reset, dtype=np.float32)))


def _step(v: Tensor, x_t: Tensor, tau: float, v_th, v_reset: float,
          alpha: float) -> tuple[Tensor, Tensor]:
    h = v + (x_t - (v - np.float32(v_reset))) / np.float32(tau)
    s = spike_threshold(h, v_th, alpha)
    s_reset = s if smooth_spikes_active() else s.detach()
    v_new = h * (np.float32(1.0) - s_reset) + np.float32(v_reset) * s_reset
    return s, v_new


def lif_step(state: NeuronState, x_t: Tensor, params: LIFParams):
    """One membrane update; returns (spike slice, new state)."""
    x_t = as_tensor(x_t)
    if x_t.shape != state.v.shape:
        raise DimensionError(
            f"lif_step: input shape {x_t.shape} != state shape {state.v.shape}"
        )
    s, v_new = _step(state.v, x_t, params.tau, params.v_th, params.v_reset,
                     params.surrogate_alpha)
    return s, NeuronState(v_new)


def _fold(x: Tensor, tau: float, v_th, v_reset: float, alpha: float) -> Tensor:
    """Fold :func:`_step` over the leading time axis of ``x``.

    ``v_th`` is a float or a (learnable) scalar tensor.  State starts at the
    reset potential and is private to this call.
    """
    x = as_tensor(x)
    if x.ndim < 1 or x.shape[0] == 0:
        raise UsageError("neuron fold: empty time axis")
    v = NeuronState.initial(x.shape[1:], v_reset).v
    spikes = []
    for t in range(x.shape[0]):
        s, v = _step(v, x[t], tau, v_th, v_reset, alpha)
        spikes.append(s)
    return stack(spikes, axis=0)


def lif_sequence(x: Tensor, params: LIFParams) -> Tensor:
    """Fold the LIF membrane update over the leading time axis of ``x``."""
    return _fold(x, params.tau, params.v_th, params.v_reset,
                 params.surrogate_alpha)


@dataclass
class TLSNParams(Module):
    """Threshold-learnable spiking neuron: a LIF fold whose firing threshold
    is a trained parameter.

    The effective threshold is ``softplus(raw) + v_reset + 0.01`` so it can
    never cross below the reset potential.
    """

    lif: LIFParams
    v_th_raw: Tensor

    @staticmethod
    def create(lif: LIFParams, init_v_th: float | None = None) -> "TLSNParams":
        # replace() re-checks the threshold floor for a custom initial value
        target = lif if init_v_th is None else replace(lif, v_th=init_v_th)
        gap = target.v_th - lif.v_reset - THRESHOLD_FLOOR
        raw = gap + math.log(-math.expm1(-gap))  # inverse softplus, no overflow
        return TLSNParams(lif=lif, v_th_raw=Tensor.param(np.float32(raw)))

    def effective_threshold(self) -> Tensor:
        return softplus(self.v_th_raw) + np.float32(self.lif.v_reset + THRESHOLD_FLOOR)

    def __call__(self, x: Tensor) -> Tensor:
        return tlsn_forward(x, self)


def tlsn_forward(x: Tensor, params: TLSNParams) -> Tensor:
    """LIF fold with a learnable threshold; gradient reaches the threshold."""
    lif = params.lif
    return _fold(x, lif.tau, params.effective_threshold(), lif.v_reset,
                 lif.surrogate_alpha)

