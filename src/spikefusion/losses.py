"""Contrastive pair loss and the combined training objective.

The pair loss is a margin-form InfoNCE without the +1 inside the log, so a
well-separated similarity matrix drives it negative:

    L_i2t = (1/B) sum_i log sum_{j != i} exp((S_ij - S_ii) / tau)
    L_t2i = same with S transposed
    L(E, R) = (L_i2t + L_t2i) / 2

``infonce_pair`` is one tape node over S.  It keeps each direction's (B, B)
forward arrays, which are small, and its backward replays the graph of
generic ops it replaced (``tests/helpers.py``): ``S`` gets the i2t
direction's two gradients, then the t2i direction's sum, as that graph
handed them over.  The t2i direction runs on the transposed view of S, and
its summed gradients keep that view's layout, so they round as that graph's
did.

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

from .errors import ConfigError, UsageError
from .neurons import FLOAT32_MAX
from .tensor import Tensor, _first_gradient, _make, _unbroadcast, as_tensor

_HALF = np.float32(0.5)

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
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam}")
        if not (self.temperature > 0 and 1 / self.temperature <= FLOAT32_MAX):
            raise ConfigError(f"temperature must be > 0 and 1/temperature "
                              f"must fit float32, got {self.temperature}")


def infonce_pair(s: Tensor, temperature: float) -> Tensor:
    """Symmetric margin InfoNCE over a square similarity matrix, as one tape
    node over ``s``; see ``_direction`` for what it keeps and its backward."""
    s = as_tensor(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise UsageError(f"similarity matrix must be square, got {s.shape}")
    if s.shape[0] < 2:
        raise UsageError("contrastive loss needs at least 2 pairs in the batch")
    if not temperature > 0:
        raise UsageError(f"temperature must be > 0, got {temperature}")
    inv_t = np.float32(1.0 / temperature)
    t2i_mat = s.data.swapaxes(0, 1)
    l_i2t, i2t_bw = _direction(s.data, inv_t)
    l_t2i, t2i_bw = _direction(t2i_mat, inv_t)

    def bw(g):
        g = g * _HALF
        for grad in i2t_bw(g):
            s._accumulate(grad)
        g_d, g_eye = t2i_bw(g)
        g_t2i = _first_gradient(g_d, t2i_mat)
        g_t2i += g_eye
        s._accumulate(g_t2i.swapaxes(0, 1))

    return _make((l_i2t + l_t2i) * _HALF, (s,), bw)


def _direction(mat: np.ndarray, inv_t: np.float32):
    """One direction's mean loss over ``mat`` (rows are queries) and its
    backward: a function from the loss gradient to the two gradients the
    composed graph handed ``mat``, in its order.

    The forward is the composed graph's numpy: diagonal ``diag = sum(mat *
    I, 1)``, margins ``m = (mat - diag) * inv_t``, a max-shifted log-sum-exp
    over the off-diagonal entries of each row, and the mean over rows.  Its
    backward keeps the (B, B) arrays of that forward; every gradient that
    is summed is laid out like the array it belongs to (``_first_gradient``),
    so the transposed direction sums in the composed graph's order:

        g_m    = g / B * softmax(m)         (off the diagonal; 0 on it)
        g_mat  = g_m * inv_t,   then  sum(-g_mat, 1) * I
    """
    b = mat.shape[0]
    eye = np.eye(b, dtype=np.float32)
    diag_terms = mat * eye
    diag = diag_terms.sum(axis=1, keepdims=True)
    d = mat - diag
    margins = d * inv_t
    masked = np.where(eye == 0, margins, -np.inf)
    shift = np.max(masked, axis=-1, keepdims=True)
    e = np.exp(masked - shift)  # the diagonal holds -inf, exp -> 0
    sums = e.sum(axis=-1, keepdims=True)
    lse = np.squeeze(shift + np.log(sums), axis=-1).astype(np.float32)
    inv_b = np.float32(1.0 / b)

    def bw(g):
        g_m = _first_gradient(g * inv_b * (e / sums), margins)
        g_d = _first_gradient(g_m * inv_t, d)
        g_diag = _unbroadcast(-g_d, diag.shape)
        return g_d, g_diag * eye

    return lse.sum() * inv_b, bw


def total_loss(sim_set: dict[str, Tensor], weights: LossWeights):
    """Combine the similarity matrices into the training objective.

    A zero-weight matrix may be left out and counts as a 0 loss (``early``
    at lambda 0, ``basic`` at lambda 1); the fused matrices may be left out
    only all together.  Any other missing matrix is a ``UsageError``.

    Returns (total, parts) where parts maps the component names
    early/basic/fusion/inter/intra/total to scalar Tensors.
    """
    lam = np.float32(weights.lam)
    late_weight = np.float32(1.0) - lam
    optional = {"early": lam == 0, "basic": late_weight == 0}
    optional.update(dict.fromkeys(FUSED_KEYS, sim_set.keys().isdisjoint(FUSED_KEYS)))
    for key in SIMILARITY_KEYS:
        if key not in sim_set and not optional[key]:
            raise UsageError(f"similarity matrix {key!r} missing from sim_set")

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
