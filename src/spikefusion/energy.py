"""Theoretical operation and energy accounting.

Convention: one multiply-accumulate = 1 FLOP-unit, so a matmul of shapes
(m, k) @ (k, n) costs m*n*k.  Spiking layers are billed per synaptic
operation,

    SOPs = T * rate * FLOPs        energy = E_AC * SOPs

where ``rate`` is the occupancy (nonzero fraction) of the layer's input
spike train and FLOPs counts a single time step.  Dense float layers cost
``E_MAC * FLOPs``; pure mask multiplies (spike gating) cost nothing.  The
45 nm reference constants are E_MAC = 4.6 pJ and E_AC = 0.9 pJ.

Layers record themselves with ``record_*`` calls, which append to the
ledger of the enclosing :func:`recording` and do nothing outside one.  The
training-only fusion ops record too, with time folded into their batch
(t = 1), so their ``flops`` is the whole multiply count; the report runs
the inference path and never contains them.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import AccountingError, ParameterError, UsageError
from .tensor import Tensor, as_tensor, no_grad

LAYER_KINDS = ("spiking", "float", "mask")


@dataclass(frozen=True)
class EnergyConstants:
    e_mac: float = 4.6  # pJ per multiply-accumulate
    e_ac: float = 0.9   # pJ per accumulate

    def __post_init__(self):
        if self.e_mac <= 0 or self.e_ac <= 0:
            raise ParameterError("energy constants must be positive")


def firing_rate(s: Tensor | np.ndarray) -> float:
    """Mean of a binary spike tensor."""
    data = s.data if isinstance(s, Tensor) else np.asarray(s)
    if data.size == 0:
        raise UsageError("firing_rate: empty tensor")
    if not np.isin(data, (0.0, 1.0)).all():
        raise UsageError("firing_rate: tensor is not binary")
    return float(data.mean())


def occupancy(x: Tensor | np.ndarray) -> float:
    """Nonzero fraction; equals the firing rate on binary inputs."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if data.size == 0:
        raise UsageError("occupancy: empty tensor")
    return float(np.count_nonzero(data) / data.size)


@dataclass
class LayerLedger:
    name: str
    kind: str
    flops: int
    rate: float       # input occupancy, in [0, 1]
    t: int = 1

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise AccountingError(f"layer {self.name!r} has unknown kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise AccountingError(
                f"layer {self.name!r} rate {self.rate} outside [0, 1]"
            )


def sops(ledger: LayerLedger) -> int:
    """Synaptic operations: T * rate * single-step FLOPs."""
    if ledger.kind != "spiking":
        raise UsageError(f"sops: layer {ledger.name!r} is not spiking")
    return int(round(ledger.t * ledger.rate * ledger.flops))


def layer_energy(ledger: LayerLedger, consts: EnergyConstants) -> float:
    """Energy of one layer in picojoules."""
    if ledger.kind == "spiking":
        return consts.e_ac * sops(ledger)
    if ledger.kind == "float":
        return consts.e_mac * ledger.flops
    return 0.0


@dataclass
class EnergyReport:
    layers: list[LayerLedger]
    consts: EnergyConstants

    @property
    def ac_ops(self) -> int:
        return sum(sops(l) for l in self.layers if l.kind == "spiking")

    @property
    def mac_ops(self) -> int:
        return sum(l.flops for l in self.layers if l.kind == "float")

    @property
    def total_picojoules(self) -> float:
        return sum(layer_energy(l, self.consts) for l in self.layers)

    @property
    def total_millijoules(self) -> float:
        return self.total_picojoules * 1e-9

    @property
    def ac_fraction(self) -> float:
        total = self.ac_ops + self.mac_ops
        return self.ac_ops / total if total else 0.0

    def render(self) -> str:
        """Stable text serialization (one record per layer plus totals)."""
        lines = [
            "# energy report (1 FLOP-unit = 1 multiply-accumulate; "
            f"E_MAC={self.consts.e_mac} pJ, E_AC={self.consts.e_ac} pJ)",
            f"{'layer':<28} {'kind':<8} {'flops':>12} {'rate':>9} "
            f"{'sops':>12} {'pJ':>14}",
        ]
        for l in self.layers:
            layer_sops = sops(l) if l.kind == "spiking" else 0
            lines.append(
                f"{l.name:<28} {l.kind:<8} {l.flops:>12d} {l.rate:>9.6f} "
                f"{layer_sops:>12d} {layer_energy(l, self.consts):>14.3f}"
            )
        lines.append(
            f"total: ac_ops={self.ac_ops} mac_ops={self.mac_ops} "
            f"ac_fraction={self.ac_fraction:.4f} "
            f"energy_mj={self.total_millijoules:.9f}"
        )
        return "\n".join(lines)


_ledger: ContextVar[list[LayerLedger] | None] = ContextVar("energy_ledger",
                                                          default=None)
_scope: ContextVar[str] = ContextVar("energy_scope", default="")


@contextlib.contextmanager
def recording():
    """Collect one :class:`LayerLedger` per ``record_*`` call in the block.

    Yields the list the records go to.  Outside a recording the ``record_*``
    calls do nothing, so training never computes occupancies.
    """
    layers: list[LayerLedger] = []
    token = _ledger.set(layers)
    try:
        yield layers
    finally:
        _ledger.reset(token)


@contextlib.contextmanager
def scope(prefix: str):
    """Prefix the names recorded in the block (``"region/"``); nests."""
    token = _scope.set(_scope.get() + prefix)
    try:
        yield
    finally:
        _scope.reset(token)


def record_matmul(name: str, a: Tensor, b: Tensor, t: int, kind: str):
    """Batched ``a @ b`` (a linear layer is ``x @ w``); a spiking ``a``
    carries ``t`` time steps in its batch axes."""
    layers = _ledger.get()
    if layers is None:
        return
    a, b = as_tensor(a), as_tensor(b)
    m, k = a.shape[-2], a.shape[-1]
    n = b.shape[-1]
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    if kind == "spiking":
        batch //= t
    rate = occupancy(a) if kind == "spiking" else 1.0
    layers.append(LayerLedger(_scope.get() + name, kind, batch * m * n * k,
                              rate, t))


def record_mask(name: str, multiplies: int = 0):
    """A binary mask multiply: counted, but free in the energy model."""
    layers = _ledger.get()
    if layers is not None:
        layers.append(LayerLedger(_scope.get() + name, "mask", multiplies,
                                  0.0))


def energy_report(model, regions, words,
                  consts: EnergyConstants | None = None) -> EnergyReport:
    """Instrumented eval-mode forward of both encoders over a calibration
    batch, in one call each.

    Only the encoders record layers: the similarity records nothing and
    the training-only fusion module is never touched.
    """
    with no_grad(), recording() as layers:
        model.encode(regions, words, train=False)
    if not layers:
        raise AccountingError("instrumented forward recorded no layers")
    return EnergyReport(layers, consts or EnergyConstants())
