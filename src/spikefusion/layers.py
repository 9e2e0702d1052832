"""Parameter-owning building blocks and the registry that names their state.

``Module`` finds a block's parameters and batch-norm buffers by walking its
attributes in insertion order, PyTorch ``named_parameters`` style.  The
``/``-joined attribute paths are the checkpoint array names, so renaming an
attribute of any block is a checkpoint format change.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import RunningStats, Tensor, batch_norm, layer_norm, matmul


class Module:
    """Registry base for every parameter-owning block.

    The walk visits child modules, lists of them (list attribute ``x`` yields
    children ``x0``, ``x1``, ...), parameter tensors, and the ``BatchNorm``
    blocks, whose running stats contribute ``running_mean``/``running_var``
    once initialized.
    """

    def _walk(self, prefix: str = ""):
        """Yield (name, tensor) for parameters and (prefix, block) for each
        block holding running stats, depth first in attribute order."""
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._walk(f"{prefix}{name}/")
            elif isinstance(value, list):
                for i, child in enumerate(value):
                    if isinstance(child, Module):
                        yield from child._walk(f"{prefix}{name}{i}/")
            elif isinstance(value, Tensor):
                yield prefix + name, value
            elif isinstance(value, RunningStats):
                yield prefix, self

    def _norms(self):
        return [(p, m) for p, m in self._walk() if isinstance(m, BatchNorm)]

    def params(self) -> dict[str, Tensor]:
        return {n: v for n, v in self._walk() if isinstance(v, Tensor)}

    def buffers(self) -> dict[str, np.ndarray]:
        buffers: dict[str, np.ndarray] = {}
        for prefix, norm in self._norms():
            if norm.stats.initialized:
                buffers[f"{prefix}running_mean"] = norm.stats.mean
                buffers[f"{prefix}running_var"] = norm.stats.var
        return buffers

    def load_params(self, arrays: dict[str, np.ndarray]):
        """Copy every parameter from ``arrays``; each must be present with
        its current shape."""
        for name, param in self.params().items():
            param.data = _required(arrays, name, "parameter", param.data.shape)

    def load_buffers(self, arrays: dict[str, np.ndarray]):
        """Restore every running-stats pair present in ``arrays``, each of
        shape ``(d,)``; half a pair is an error."""
        for prefix, norm in self._norms():
            names = (f"{prefix}running_mean", f"{prefix}running_var")
            if names[0] in arrays or names[1] in arrays:
                norm.stats.mean, norm.stats.var = (
                    _required(arrays, n, "buffer", (norm.d,)) for n in names)
                norm.stats.initialized = True


def _required(arrays: dict[str, np.ndarray], name: str, kind: str,
              shape: tuple) -> np.ndarray:
    if name not in arrays:
        raise ContractError(f"checkpoint missing {kind} {name!r}")
    if arrays[name].shape != shape:
        raise ValueError(f"checkpoint {kind} {name!r} has shape "
                         f"{arrays[name].shape}, expected {shape}")
    return arrays[name].astype(np.float32).copy()


def xavier_uniform(rng: np.random.Generator, d_in: int, d_out: int,
                   gain: float = 1.0) -> np.ndarray:
    r = gain * np.sqrt(6.0) / np.sqrt(d_in + d_out)
    return rng.uniform(-r, r, size=(d_in, d_out)).astype(np.float32)


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 bias: bool = True, gain: float = 1.0):
        self.w = Tensor.param(xavier_uniform(rng, d_in, d_out, gain))
        self.b = Tensor.param(np.zeros(d_out, dtype=np.float32)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = matmul(x, self.w)
        if self.b is not None:
            y = y + self.b
        return y


class LayerNorm(Module):
    def __init__(self, d: int, eps: float = 1e-5):
        self.gamma = Tensor.param(np.ones(d, dtype=np.float32))
        self.beta = Tensor.param(np.zeros(d, dtype=np.float32))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


class BatchNorm(Module):
    """Channel batch norm with stats pooled over time, batch and token axes."""

    def __init__(self, d: int, eps: float = 1e-5, momentum: float = 0.1):
        self.gamma = Tensor.param(np.ones(d, dtype=np.float32))
        self.beta = Tensor.param(np.zeros(d, dtype=np.float32))
        self.stats = RunningStats()
        self.d = d
        self.eps = eps
        self.momentum = momentum

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.stats, train,
                          self.momentum, self.eps)
