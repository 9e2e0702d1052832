"""Leaky integrate-and-fire dynamics and the threshold-learnable neuron.

Membrane update per step, from ``v = v_reset``:

    h[t] = v[t-1] + (x[t] - (v[t-1] - v_reset)) / tau
    s[t] = 1 if h[t] >= v_th else 0
    v[t] = h[t] * (1 - s[t]) + v_reset * s[t]        (hard reset)

The fold writes each step's membrane into one buffer in place, and does
not compute the last step's reset, which feeds nothing.  The hard spike is
the comparison ``h[t] >= v_th`` itself; the surrogate's ``h[t] - v_th`` is
formed only where a smooth spike or a gradient needs it.  A fold takes up
to two input stages, in this order: a bias-free ``Linear`` (``linear=``),
whose product ``x @ w`` the next stage takes and the energy ledger bills
under ``w``'s path, and a norm (``norm=``), whose output is the drive.  A
batch norm uses the batch's moments in grad mode and its running stats
under ``no_grad()``.  Every weight matmul and every norm that feeds a fold
is such a stage, so neither output is on the tape.
The node keeps only its spikes and the norm's ``mu`` and ``sd``: its
backward recomputes the product from the input, which the tape holds
anyway as the node's parent, with the forward's own gemm, then the drive,
and replays the membrane from that and the spikes, so a tracked fold holds
one input-sized array.

The T-step fold is one tape node over the input, a weight stage's ``w``,
the threshold and a norm's ``gamma`` and ``beta``.  Its backward walks time
in reverse, the arctangent surrogate slope standing in for the step's
derivative and the reset detached:

    g_u = g_s[t] * slope(h[t] - v_th),   g_h = g_u + g_v * (1 - s[t]),
    g_x[t] = g_h / tau,                  g_v = g_h - g_h / tau.

``g_x`` is the drive's gradient; the norm's backward and then the
product's take it on to the node's parents, as their own nodes would.
The threshold gets ``-sum(g_u)`` of each step, added in forward time order
as the same graph of generic tensor ops adds them (the reverse order rounds
differently from T = 3 on).  In smooth-spike mode the spike is the surrogate
primitive and the reset stays attached (``g_s[t]`` gains
``g_v * (v_reset - h[t])``), so the backward is exact for finite-difference
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import record_matmul
from .errors import ConfigError, UsageError
from .layers import Linear, Module, _Norm
from .tensor import (
    Tensor,
    _make,
    _product,
    _product_backward,
    _unbroadcast,
    as_tensor,
    smooth_spikes_active,
    softplus,
)

# margin keeping a learnable threshold strictly above the reset potential
THRESHOLD_FLOOR = 0.01
FLOAT32_MAX = float(np.finfo(np.float32).max)
_ONE = np.float32(1.0)


@dataclass(frozen=True)
class LIFParams:
    tau: float = 2.0
    v_th: float = 1.0
    v_reset: float = 0.0
    surrogate_alpha: float = 2.0

    def __post_init__(self):
        if not self.tau >= 1.0:
            raise ConfigError(f"LIF tau must be >= 1, got {self.tau}")
        # at 0 no gradient crosses a spike; below 0 every gradient flips sign
        if not self.surrogate_alpha > 0:
            raise ConfigError(
                f"LIF surrogate_alpha must be > 0, got {self.surrogate_alpha}")
        if not self.v_th - self.v_reset - THRESHOLD_FLOOR > 0:
            raise ConfigError(
                f"LIF threshold {self.v_th} must exceed reset {self.v_reset} "
                f"by more than {THRESHOLD_FLOOR}"
            )
        # the TLSN threshold is softplus of this gap, stored as float32
        if not self.v_th - self.v_reset <= FLOAT32_MAX:
            raise ConfigError(
                f"LIF threshold {self.v_th} minus reset {self.v_reset} does not "
                f"fit float32")

    def __call__(self, x: Tensor, norm=None, linear=None) -> Tensor:
        """The neuron: spikes of the LIF fold over ``x`` (see :func:`_fold`)."""
        return lif_sequence(x, self, norm, linear)


def surrogate_derivative(x: np.ndarray, alpha: float) -> np.ndarray:
    """Arctangent surrogate slope: alpha / (2 (1 + (pi/2 * alpha * x)^2))."""
    z = (np.pi / 2.0) * alpha * x
    return (alpha / 2.0) / (1.0 + z * z)


def surrogate_primitive(x: np.ndarray, alpha: float) -> np.ndarray:
    """Antiderivative of :func:`surrogate_derivative`, ranging over (0, 1)."""
    return np.arctan((np.pi / 2.0) * alpha * x) / np.pi + 0.5


def _membrane(x: np.ndarray, tau, v_reset, spikes):
    """Yield each step's membrane ``h``, from ``v = v_reset``.

    ``h`` is one buffer stepped in place.  Each step's reset reads
    ``spikes[t]``, which the caller writes before asking for the next step.
    """
    # from v = v_reset, v - v_reset is +0.0 and x - 0.0 is x, bit for bit
    h = x[0] / tau
    h += v_reset
    tmp = np.empty_like(h)
    for t in range(x.shape[0]):
        if t:  # h holds v[t-1]: step it in place to h[t]
            np.subtract(h, v_reset, out=tmp)
            np.subtract(x[t], tmp, out=tmp)
            tmp /= tau
            h += tmp
        yield h
        if t + 1 < x.shape[0]:  # the last reset feeds nothing
            s = spikes[t]
            np.subtract(_ONE, s, out=tmp)
            h *= tmp
            h += np.multiply(v_reset, s, out=tmp)


def _fold(x: Tensor, lif: LIFParams, v_th, norm: _Norm | None = None,
          linear: Linear | None = None) -> Tensor:
    """Spikes of ``lif``'s membrane update folded over the leading time axis
    of its drive, firing at ``v_th``.  The drive is ``x``, or ``x @ w`` for
    ``linear``'s weight ``w``, or ``norm``'s output over either.

    One tape node over ``(x, w, threshold)`` and the norm's ``(gamma,
    beta)``.  ``v_th`` is a float or a (learnable) scalar tensor, finite:
    then ``h >= v_th`` fires exactly where ``h - v_th >= 0`` (with gradual
    underflow two distinct float32 values never differ by zero, and an
    overflow keeps its sign), so the hard spike needs no ``u``.  State starts
    at the reset potential and is private to this call.  The backward
    recomputes the product and the drive and replays ``_membrane`` from
    them and the spikes, which gives each step's ``h`` with the forward's
    own bits.
    """
    x, th = as_tensor(x), as_tensor(v_th)
    if x.ndim < 1 or x.shape[0] == 0:
        raise UsageError("neuron fold: empty time axis")
    smooth = smooth_spikes_active()
    tau, v_reset = np.float32(lif.tau), np.float32(lif.v_reset)
    parents = (x,)
    if linear is not None:
        if linear.b is not None:
            raise UsageError("neuron fold: a Linear stage takes no bias")
        w = linear.w
        record_matmul(linear.path + "w", x, w, x.shape[0], "spiking")
        parents += (w,)
    parents += (th,)
    if norm is not None:
        parents += (norm.gamma, norm.beta)

    def stage_input():
        """What the norm stage takes: ``x``, or a fresh ``x @ w``."""
        return x.data if linear is None else _product(x.data, w.data)

    def centred(pre):
        """``pre - mu``, in place over a fresh product."""
        return np.subtract(pre, mu, out=None if linear is None else pre)

    drive = stage_input()
    if norm is not None:
        mu, sd, inv_n = norm.moments(drive)
        drive = centred(drive)
        norm.drive(drive, sd, out=drive)
    spikes = np.empty(drive.shape, dtype=np.float32)
    for t, h in enumerate(_membrane(drive, tau, v_reset, spikes)):
        if smooth:
            spikes[t] = surrogate_primitive(h - th.data, lif.surrogate_alpha)
        else:
            np.greater_equal(h, th.data, out=spikes[t])

    def bw(g):
        pre = drive = stage_input()
        if norm is not None:
            # centring a fresh product in place leaves ``pre`` holding ``xc``
            # for the norm's backward; x's centred copy becomes the drive
            drive = centred(pre)
            drive = norm.drive(drive, sd,
                               out=drive if linear is None else None)
        hs = [h.copy() for h in _membrane(drive, tau, v_reset, spikes)]
        del drive
        g_x = np.empty_like(spikes)
        g_th = []
        g_v = None  # the last membrane potential feeds nothing
        for t in reversed(range(len(hs))):
            g_s = g[t]
            if smooth and g_v is not None:
                g_s = g_s + g_v * (v_reset - hs[t])
            g_u = g_s * surrogate_derivative(hs[t] - th.data,
                                             lif.surrogate_alpha)
            g_h = g_u if g_v is None else g_u + g_v * (_ONE - spikes[t])
            g_x[t] = g_h / tau
            g_v = g_h - g_x[t]
            if th.requires_grad:
                g_th.append(_unbroadcast(-g_u, th.shape))
        del hs
        # the product's gradient store: a local tensor stands in for the
        # product's node
        y = x if linear is None else Tensor(
            pre, requires_grad=x.requires_grad or w.requires_grad)
        if norm is not None:
            xc = pre if linear is not None else centred(pre)
            norm.backward(g_x, y, xc, sd, inv_n)
        elif y.requires_grad:
            y._accumulate(g_x)
        del g_x
        for g_t in reversed(g_th):  # forward time order
            th._accumulate(g_t)
        if y is not x and y.grad is not None:
            _product_backward(y.grad, x, w)

    return _make(spikes, parents, bw)


def lif_sequence(x: Tensor, params: LIFParams, norm: _Norm | None = None,
                 linear: Linear | None = None) -> Tensor:
    """Fold the LIF membrane update over the leading time axis of ``x``."""
    return _fold(x, params, params.v_th, norm, linear)


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
    def create(lif: LIFParams) -> "TLSNParams":
        """Start the learnable threshold at ``lif.v_th``."""
        gap = lif.v_th - lif.v_reset - THRESHOLD_FLOOR
        raw = gap + math.log(-math.expm1(-gap))  # inverse softplus, no overflow
        return TLSNParams(lif=lif, v_th_raw=Tensor.param(np.float32(raw)))

    def effective_threshold(self) -> Tensor:
        return softplus(self.v_th_raw) + np.float32(self.lif.v_reset + THRESHOLD_FLOOR)

    def __call__(self, x: Tensor, norm=None, linear=None) -> Tensor:
        return tlsn_forward(x, self, norm, linear)


def tlsn_forward(x: Tensor, params: TLSNParams, norm: _Norm | None = None,
                 linear: Linear | None = None) -> Tensor:
    """LIF fold with a learnable threshold; gradient reaches the threshold."""
    return _fold(x, params.lif, params.effective_threshold(), norm, linear)

