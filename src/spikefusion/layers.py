"""Parameter-owning building blocks and the registry that names their state.

``Module`` finds a block's parameters and child blocks by walking its
attributes in insertion order, PyTorch ``state_dict`` style.  ``state()``
names each array by its ``/``-joined attribute path, and a batch norm's
``running_mean`` and ``running_var`` by ``buffer/`` plus theirs: the
checkpoint array names, so renaming an attribute of any block is a
checkpoint format change.  The energy ledger names its rows by the same
paths (``Module.path``).
"""

from __future__ import annotations

import numpy as np

from .errors import StateError, UsageError
from .tensor import Tensor, _grad_enabled, _unbroadcast, matmul


class Module:
    """Registry base for every parameter-owning block: a state name is its
    array's attribute path, behind ``buffer/`` for a batch norm's
    ``running_mean``/``running_var``.  The walk visits child modules, lists
    of them (list attribute ``x`` yields children ``x0``, ``x1``, ...) and
    parameter tensors.  ``path`` is the block's own path with a trailing
    ``/`` (``image/attn/``), set by the model that owns it; a block built
    on its own keeps ``""``.
    """

    path = ""

    def _walk(self, prefix: str = ""):
        """Yield (name, tensor) for each parameter and (prefix, block) for
        each block, this one last, depth first in attribute order."""
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._walk(f"{prefix}{name}/")
            elif isinstance(value, list):
                for i, child in enumerate(value):
                    if isinstance(child, Module):
                        yield from child._walk(f"{prefix}{name}{i}/")
            elif isinstance(value, Tensor):
                yield prefix + name, value
        yield prefix, self

    def params(self) -> dict[str, Tensor]:
        return {n: v for n, v in self._walk() if isinstance(v, Tensor)}

    def state(self) -> dict[str, np.ndarray]:
        """Every array a checkpoint holds: the parameters, and the running
        stats of each batch norm that has them."""
        arrays: dict[str, np.ndarray] = {}
        for name, value in self._walk():
            if isinstance(value, Tensor):
                arrays[name] = value.data
            elif (isinstance(value, BatchNorm)
                  and value.running_mean is not None):
                arrays[f"buffer/{name}running_mean"] = value.running_mean
                arrays[f"buffer/{name}running_var"] = value.running_var
        return arrays

    def load_state(self, arrays: dict[str, np.ndarray]):
        """Restore what :meth:`state` names.  Every parameter must be present
        with its current shape; each running-stats pair is optional, but
        half a pair or a shape other than ``(d,)`` is an error, and so is an
        array that names neither."""
        for name, value in self._walk():
            if isinstance(value, Tensor):
                value.data = _required(arrays, name, "parameter", value.shape)
            if not isinstance(value, BatchNorm):
                continue
            names = (f"buffer/{name}running_mean", f"buffer/{name}running_var")
            if names[0] in arrays or names[1] in arrays:
                value.running_mean, value.running_var = (
                    _required(arrays, n, "buffer", value.gamma.shape)
                    for n in names)
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


# -- normalisation: the input stage of a spiking fold -------------------------
#
# A norm is the input stage of the fold it feeds (``neurons._fold``), in
# one node.  Its output, the fold's drive, is ``(x - mu) / sd * gamma +
# beta`` with ``mu = sum(x) / n`` and ``sd = sqrt(sum(xc * xc) / n + eps)``
# over the normalised axes (``xc = x - mu``).  The node keeps ``mu`` and
# ``sd``; its backward recomputes ``xc`` and the drive with the forward's
# own expressions, and ``_Norm.backward`` replays the graph of generic ops
# (``tests/helpers.py``) in its order and rounding, not the closed form:
#
#   g_beta  = sum(g),   g_gamma = sum(g * xhat)     (over the leading axes)
#   g_xhat  = g * gamma
#   g_x     = g_xhat / sd + g_ss * xc + g_ss * xc,  added one at a time,
#             g_ss = sum(-g_xhat * xc / (sd * sd)) * (0.5 / sd) * (1 / n)
#   x gets g_x, then sum(-g_x) * (1 / n) broadcast: two accumulations, as the
#   graph's subtraction and mean each handed ``x`` one

_NORM_EPS = 1e-5
_BN_MOMENTUM = 0.1  # weight of a grad-mode batch in the running stats


def _moments(xd: np.ndarray, axis):
    """Mean, ``sqrt(var + eps)``, the ``1 / count`` both means were scaled
    by, and the variance, over ``axis`` (kept as size-1 axes)."""
    total = xd.sum(axis=axis, keepdims=True)
    inv_n = np.float32(1.0 / (xd.size // total.size))
    mu = total * inv_n
    xc = xd - mu
    var = np.multiply(xc, xc, out=xc).sum(axis=axis, keepdims=True) * inv_n
    return mu, np.sqrt(var + np.float32(_NORM_EPS)), inv_n, var


class _Norm(Module):
    """Affine norm over the last axis, only ever the input stage of a spiking
    fold (``neuron(x, norm=...)``); ``moments(x)`` is ``(mu, sd, inv_n)``."""

    def __init__(self, d: int):
        self.gamma = Tensor.param(np.ones(d, dtype=np.float32))
        self.beta = Tensor.param(np.zeros(d, dtype=np.float32))

    def drive(self, xc: np.ndarray, sd: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """The norm's output ``xc / sd * gamma + beta`` over the centred input
        ``xc = x - mu``, in one buffer: ``out``, which may be ``xc``."""
        out = np.divide(xc, sd, out=out)
        out *= self.gamma.data
        out += self.beta.data
        return out

    def backward(self, g: np.ndarray, x: Tensor, xc: np.ndarray,
                 sd: np.ndarray, inv_n: np.float32):
        """Hand ``x``, ``gamma`` and ``beta`` their gradients, given ``g``,
        that of :meth:`drive`'s output over ``xc``.  ``g`` becomes ``g_x``
        in place, and ``xc`` becomes scratch."""
        gamma, beta = self.gamma, self.beta
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.data.shape))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * (xc / sd), gamma.data.shape))
        if not x.requires_grad:
            return
        g_xhat = np.multiply(g, gamma.data, out=g)
        g_sd = _unbroadcast(-g_xhat * xc / (sd * sd), sd.shape)
        g_sq = np.multiply(g_sd * (0.5 / sd) * inv_n, xc, out=xc)
        g_xc = np.divide(g_xhat, sd, out=g_xhat)
        g_xc += g_sq
        g_xc += g_sq
        x._accumulate(g_xc)
        g_mu = _unbroadcast(-g_xc, sd.shape)
        x._accumulate(np.broadcast_to(g_mu * inv_n, x.data.shape))


class LayerNorm(_Norm):
    def moments(self, x: np.ndarray):
        """Moments of each row."""
        return _moments(x, -1)[:3]


class BatchNorm(_Norm):
    """Channel batch norm with stats pooled over time, batch and token axes;
    ``running_mean`` and ``running_var`` are None until a grad-mode batch."""

    def __init__(self, d: int):
        super().__init__(d)
        self.running_mean = self.running_var = None

    def moments(self, x: np.ndarray):
        """Per-channel moments over all leading axes, time too: in grad mode
        the batch's, folded into the running stats; those under no_grad()."""
        if _grad_enabled.get():
            mu, sd, inv_n, var = _moments(x, tuple(range(x.ndim - 1)))
            mean, var = mu.reshape(-1), var.reshape(-1)
            if self.running_mean is not None:
                mean = (1 - _BN_MOMENTUM) * self.running_mean + _BN_MOMENTUM * mean
                var = (1 - _BN_MOMENTUM) * self.running_var + _BN_MOMENTUM * var
            self.running_mean, self.running_var = mean, var
            return mu, sd, inv_n
        if self.running_mean is None:
            raise StateError("batch_norm: eval mode requires running stats")
        sd = np.sqrt(self.running_var + np.float32(_NORM_EPS))
        return self.running_mean, sd, None
