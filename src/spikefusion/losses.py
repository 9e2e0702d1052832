"""Contrastive pair loss and the combined training objective.

The pair loss is a margin-form InfoNCE without the +1 inside the log, so a
well-separated similarity matrix drives it negative:

    L_i2t = (1/B) sum_i log sum_{j != i} exp((S_ij - S_ii) / tau)
    L_t2i = same with S transposed
    L(E, R) = (L_i2t + L_t2i) / 2

The full objective mixes an early-alignment term on pre-spike features with
the late terms over pooled and fused embeddings:

    L_total = lambda * L_early + (1 - lambda) * (L_basic + L_fusion
              + L_inter + L_intra)

Zero-weight terms need not be computed.  Without fusion the fused terms are
0, leaving the dual-stream objective lambda * L_early + (1 - lambda) * L_basic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError, UsageError
from .tensor import Tensor, as_tensor, logsumexp

SIMILARITY_KEYS = (
    "early",      # S(E_f, R_f)
    "basic",      # S(E~, R~)
    "fusion",     # S(E-, R-)
    "inter_er",   # S(E~, R-)
    "inter_re",   # S(E-, R~)
    "intra_e",    # S(E~, E-)
    "intra_r",    # S(R~, R-)
)
FUSED_KEYS = SIMILARITY_KEYS[2:]

LOSS_NAMES = ("early", "basic", "fusion", "inter", "intra", "total")


@dataclass(frozen=True)
class LossWeights:
    lam: float = 0.5          # early/late balance
    temperature: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ParameterError(f"lambda must be in [0, 1], got {self.lam}")
        if not self.temperature > 0:
            raise ParameterError(
                f"temperature must be > 0, got {self.temperature}"
            )


def infonce_pair(s: Tensor, temperature: float) -> Tensor:
    """Symmetric margin InfoNCE over a square similarity matrix."""
    s = as_tensor(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise UsageError(f"similarity matrix must be square, got {s.shape}")
    b = s.shape[0]
    if b < 2:
        raise UsageError("contrastive loss needs at least 2 pairs in the batch")
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    inv_t = np.float32(1.0 / temperature)
    off_diag = (1.0 - np.eye(b, dtype=np.float32))

    def directional(mat: Tensor) -> Tensor:
        diag = (mat * np.eye(b, dtype=np.float32)).sum(axis=1, keepdims=True)
        margins = (mat - diag) * inv_t
        return logsumexp(margins, axis=-1, mask=off_diag).mean()

    l_i2t = directional(s)
    l_t2i = directional(s.swapaxes(0, 1))
    return (l_i2t + l_t2i) * np.float32(0.5)


def total_loss(sim_set: dict[str, Tensor], weights: LossWeights):
    """Combine the similarity matrices into the training objective.

    A zero-weight matrix may be left out and counts as a 0 loss (``early``
    at lambda 0, ``basic`` at lambda 1); the fused matrices may be left out
    only all together.  Any other missing matrix is a ``ContractError``.

    Returns (total, parts) where parts maps the component names
    early/basic/fusion/inter/intra/total to scalar Tensors.
    """
    lam = np.float32(weights.lam)
    late_weight = np.float32(1.0) - lam
    optional = {"early": lam == 0, "basic": late_weight == 0}
    optional.update(dict.fromkeys(FUSED_KEYS, sim_set.keys().isdisjoint(FUSED_KEYS)))
    for key in SIMILARITY_KEYS:
        if key not in sim_set and not optional[key]:
            raise ContractError(f"similarity matrix {key!r} missing from sim_set")

    def term(*keys):
        losses = [infonce_pair(sim_set[k], weights.temperature)
                  for k in keys if k in sim_set]
        return sum(losses[1:], losses[0]) if losses else Tensor(np.float32(0.0))

    parts = {
        "early": term("early"),
        "basic": term("basic"),
        "fusion": term("fusion"),
        "inter": term("inter_er", "inter_re"),
        "intra": term("intra_e", "intra_r"),
    }
    late = parts["basic"] + parts["fusion"] + parts["inter"] + parts["intra"]
    parts["total"] = parts["early"] * lam + late * late_weight
    return parts["total"], parts
