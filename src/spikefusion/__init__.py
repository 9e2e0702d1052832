"""Desk-scale spiking cross-modal retrieval.

Float token features from both modalities are spiked, mixed by spike
self-attention, aligned through bidirectional hard alignment, and (during
training only) fused at the spike level into soft-label embeddings.  A
theoretical energy ledger accounts for every inference-path layer.
"""

from .alignment import PoolConfig, similarity
from .config import RunConfig, load_config, parse_config
from .data import Dataset, load_manifest, synth_dataset
from .energy import EnergyReport, energy_report
from .fusion import FusionConfig, SpikeFusion, comb_mask
from .losses import LossWeights, infonce_pair, total_loss
from .model import RetrievalModel
from .neurons import LIFParams, TLSNParams, lif_sequence
from .tensor import Tensor, no_grad, smooth_spike_mode
from .train import ablation_sweep, evaluate_recall, train

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EnergyReport",
    "FusionConfig",
    "LIFParams",
    "LossWeights",
    "PoolConfig",
    "RetrievalModel",
    "RunConfig",
    "SpikeFusion",
    "TLSNParams",
    "Tensor",
    "ablation_sweep",
    "comb_mask",
    "energy_report",
    "evaluate_recall",
    "infonce_pair",
    "lif_sequence",
    "load_config",
    "load_manifest",
    "no_grad",
    "parse_config",
    "similarity",
    "smooth_spike_mode",
    "synth_dataset",
    "total_loss",
    "train",
]
