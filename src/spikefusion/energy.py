"""Theoretical operation and energy accounting.

Convention: one multiply-accumulate = 1 FLOP-unit, so a matmul of shapes
(m, k) @ (k, n) costs m*n*k.  Spiking layers are billed per synaptic
operation,

    SOPs = T * rate * FLOPs        energy = E_AC * SOPs

where ``rate`` is the occupancy (nonzero fraction) of the layer's input
spike train and FLOPs counts a single time step.  Dense float layers cost
``E_MAC * FLOPs``; pure mask multiplies (spike gating) cost nothing.  The
45 nm reference constants are E_MAC = 4.6 pJ and E_AC = 0.9 pJ.  Each
:class:`LayerLedger` row prices itself (``sops``, ``macs``, ``picojoules``)
and the report only sums rows.

Layers record themselves with ``record_*`` calls, which append to the
ledger of the enclosing :func:`recording` and do nothing outside one.  A
row is named by model path: a weight's row by the weight's checkpoint name
(``image/attn/w_q/w``), another product by its block's ``Module.path``
plus the op (``image/attn/attn_scores``).  The training-only fusion
functions record too, under bare op names and with time folded into their
batch (t = 1), so their ``flops`` is the whole multiply count; the report
runs the inference path and never contains them.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .tensor import Tensor, _context_set, as_tensor, no_grad

LAYER_KINDS = ("spiking", "float", "mask")
E_MAC = 4.6  # pJ per multiply-accumulate
E_AC = 0.9   # pJ per accumulate


def occupancy(x: Tensor | np.ndarray) -> float:
    """Nonzero fraction; equals the firing rate on binary inputs."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if data.size == 0:
        raise UsageError("occupancy: empty tensor")
    # a boolean count is vectorised; numpy counts float nonzeros one by one
    return float(np.count_nonzero(data != 0) / data.size)


@dataclass
class LayerLedger:
    """One recorded layer; its kind decides what it costs."""
    name: str
    kind: str
    flops: int
    rate: float       # input occupancy, in [0, 1]
    t: int = 1

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise UsageError(f"layer {self.name!r} has unknown kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise UsageError(
                f"layer {self.name!r} rate {self.rate} outside [0, 1]"
            )

    @property
    def sops(self) -> int:
        """Synaptic operations (accumulates): T * rate * single-step FLOPs."""
        if self.kind != "spiking":
            return 0
        return int(round(self.t * self.rate * self.flops))

    @property
    def macs(self) -> int:
        return self.flops if self.kind == "float" else 0

    @property
    def picojoules(self) -> float:
        return E_AC * self.sops + E_MAC * self.macs


@dataclass
class EnergyReport:
    layers: list[LayerLedger]

    @property
    def ac_ops(self) -> int:
        return sum(l.sops for l in self.layers)

    @property
    def mac_ops(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def total_picojoules(self) -> float:
        return sum(l.picojoules for l in self.layers)

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
            f"E_MAC={E_MAC} pJ, E_AC={E_AC} pJ)",
            f"{'layer':<28} {'kind':<8} {'flops':>12} {'rate':>9} "
            f"{'sops':>12} {'pJ':>14}",
        ]
        for l in self.layers:
            lines.append(
                f"{l.name:<28} {l.kind:<8} {l.flops:>12d} {l.rate:>9.6f} "
                f"{l.sops:>12d} {l.picojoules:>14.3f}"
            )
        lines.append(
            f"total: ac_ops={self.ac_ops} mac_ops={self.mac_ops} "
            f"ac_fraction={self.ac_fraction:.4f} "
            f"energy_mj={self.total_millijoules:.9f}"
        )
        return "\n".join(lines)


_ledger: ContextVar[list[LayerLedger] | None] = ContextVar("energy_ledger",
                                                          default=None)


def recording():
    """Collect one :class:`LayerLedger` per ``record_*`` call in the block.

    Yields the list the records go to.  Outside a recording the ``record_*``
    calls do nothing, so training never computes occupancies.
    """
    return _context_set(_ledger, [])


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
    layers.append(LayerLedger(name, kind, batch * m * n * k, rate, t))


def record_mask(name: str, multiplies: int = 0):
    """A binary mask multiply: counted, but free in the energy model."""
    layers = _ledger.get()
    if layers is not None:
        layers.append(LayerLedger(name, "mask", multiplies, 0.0))


def energy_report(model, regions, words) -> EnergyReport:
    """Instrumented eval-mode forward of both encoders over a calibration
    batch, in one call each.

    Only the encoders record layers: the similarity records nothing and
    the training-only fusion module is never touched.
    """
    with no_grad(), recording() as layers:
        model.encode(regions, words)
    if not layers:
        raise UsageError("instrumented forward recorded no layers")
    return EnergyReport(layers)
