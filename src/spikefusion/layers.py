"""Parameter-owning building blocks and the registry that names their state.

``Module`` finds a block's parameters and batch-norm running stats by
walking its attributes in insertion order, PyTorch ``state_dict`` style.
``state()`` names a parameter by its ``/``-joined attribute path and a
running stat ``buffer/<path>running_mean|var``: the checkpoint array names,
so renaming an attribute of any block is a checkpoint format change.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .tensor import RunningStats, Tensor, batch_norm, layer_norm, matmul


class Module:
    """Registry base for every parameter-owning block.

    The walk visits child modules, lists of them (list attribute ``x`` yields
    children ``x0``, ``x1``, ...), parameter tensors, and the ``BatchNorm``
    blocks, whose running stats join the state once initialized.
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

    def params(self) -> dict[str, Tensor]:
        return {n: v for n, v in self._walk() if isinstance(v, Tensor)}

    def state(self) -> dict[str, np.ndarray]:
        """Every array a checkpoint holds: the parameters, and the running
        stats of each initialized batch norm."""
        arrays: dict[str, np.ndarray] = {}
        for name, value in self._walk():
            if isinstance(value, Tensor):
                arrays[name] = value.data
            elif value.stats.initialized:
                arrays[f"buffer/{name}running_mean"] = value.stats.mean
                arrays[f"buffer/{name}running_var"] = value.stats.var
        return arrays

    def load_state(self, arrays: dict[str, np.ndarray]):
        """Restore what :meth:`state` names.  Every parameter must be present
        with its current shape; each running-stats pair is optional, but
        half a pair or a shape other than ``(d,)`` is an error, and so is an
        array that names neither."""
        for name, value in self._walk():
            if isinstance(value, Tensor):
                value.data = _required(arrays, name, "parameter", value.shape)
                continue
            names = (f"buffer/{name}running_mean", f"buffer/{name}running_var")
            if names[0] in arrays or names[1] in arrays:
                value.stats.mean, value.stats.var = (
                    _required(arrays, n, "buffer", value.gamma.shape)
                    for n in names)
                value.stats.initialized = True
        stray = sorted(arrays.keys() - self.state().keys())
        if stray:
            raise UsageError(f"checkpoint array {stray[0]!r} is neither a "
                             "parameter nor a running stat of this model")


def _required(arrays: dict[str, np.ndarray], name: str, kind: str,
              shape: tuple) -> np.ndarray:
    if name not in arrays:
        raise UsageError(f"checkpoint missing {kind} {name!r}")
    if arrays[name].shape != shape:
        raise UsageError(f"checkpoint {kind} {name!r} has shape "
                         f"{arrays[name].shape}, expected {shape}")
    return arrays[name].astype(np.float32)


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
    def __init__(self, d: int):
        self.gamma = Tensor.param(np.ones(d, dtype=np.float32))
        self.beta = Tensor.param(np.zeros(d, dtype=np.float32))

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        """``train`` is ignored: layer norm keeps no running stats, and it
        takes ``BatchNorm``'s call signature so the two interchange."""
        return layer_norm(x, self.gamma, self.beta)


class BatchNorm(Module):
    """Channel batch norm with stats pooled over time, batch and token axes."""

    def __init__(self, d: int):
        self.gamma = Tensor.param(np.ones(d, dtype=np.float32))
        self.beta = Tensor.param(np.zeros(d, dtype=np.float32))
        self.stats = RunningStats()

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.stats, train)
