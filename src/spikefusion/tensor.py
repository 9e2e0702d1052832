"""Minimal float32 reverse-mode autodiff engine.

Every array in the network is a :class:`Tensor`: a dense float32 numpy buffer
plus an optional gradient buffer and a closure that propagates incoming
gradients to its parents.  ``backward()`` on a scalar walks the tape in
reverse topological order.

Every op computes its value, defines its backward closure and returns
``_make(value, parents, backward)``.  ``_make`` is the only code that puts a
result on the tape: it sets ``_parents``, ``requires_grad`` and ``_backward``
only when grad mode is on and some parent requires grad (a node with parents
always does).  Arrays needed only by a backward are computed inside its
closure, so untracked and ``no_grad`` passes never build them.

The one nonstandard op is :func:`spike_threshold`: its forward is an exact
Heaviside step (firing at ``h >= v_th``) while its backward substitutes a
smooth arctangent surrogate derivative.  Inside :func:`smooth_spike_mode`
the forward becomes the surrogate primitive itself, which makes the whole
graph differentiable so finite-difference oracles can check the tape.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, StateError, UsageError

DEFAULT_SURROGATE_ALPHA = 2.0

_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)
_smooth_spikes: ContextVar[bool] = ContextVar("smooth_spikes", default=False)


@contextlib.contextmanager
def no_grad():
    """Disable tape construction (evaluation passes)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


@contextlib.contextmanager
def smooth_spike_mode():
    """Replace the hard spike forward with its smooth surrogate primitive.

    Used by finite-difference oracles: in this mode the backward pass is the
    exact derivative of the forward pass (neuron resets also stay attached to
    the graph, see :mod:`spikefusion.neurons`).
    """
    token = _smooth_spikes.set(True)
    try:
        yield
    finally:
        _smooth_spikes.reset(token)


def smooth_spikes_active() -> bool:
    return _smooth_spikes.get()


def _as_f32(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float32)


class Tensor:
    """Dense float32 array participating in reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f32(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def param(data) -> "Tensor":
        return Tensor(data, requires_grad=True)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- autodiff core --------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise UsageError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return _make(self.data + other.data, (self, other), bw)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return _make(self.data * other.data, (self, other), bw)

    __rmul__ = __mul__

    def __neg__(self):
        return self * np.float32(-1.0)

    def __sub__(self, other):
        other = as_tensor(other)

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.data.shape))

        return _make(self.data - other.data, (self, other), bw)

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __truediv__(self, other):
        other = as_tensor(other)

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data),
                                 other.data.shape)
                )

        return _make(self.data / other.data, (self, other), bw)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, shape) -> "Tensor":
        old = self.data.shape
        return _make(self.data.reshape(shape), (self,),
                     lambda g: self._accumulate(g.reshape(old)))

    def transpose(self, axes) -> "Tensor":
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        return _make(self.data.transpose(axes), (self,),
                     lambda g: self._accumulate(g.transpose(inverse)))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return _make(self.data.swapaxes(a, b), (self,),
                     lambda g: self._accumulate(g.swapaxes(a, b)))

    def __getitem__(self, key) -> "Tensor":
        def bw(g):
            buf = np.zeros_like(self.data)
            np.add.at(buf, key, g)
            self._accumulate(buf)

        return _make(self.data[key], (self,), bw)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, shape).astype(np.float32))

        return _make(self.data.sum(axis=axis, keepdims=keepdims), (self,), bw)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else _axis_count(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * np.float32(1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Maximum along one axis; gradient routes to the first maximal entry."""
        def bw(g):
            if not keepdims:
                g = np.expand_dims(g, axis)
            idx = np.expand_dims(np.argmax(self.data, axis=axis), axis)
            buf = np.zeros_like(self.data)
            np.put_along_axis(buf, idx, g, axis)
            self._accumulate(buf)

        # a reduction keeps its input's memory order; C order keeps the
        # summation order of later reductions independent of that
        return _make(np.ascontiguousarray(
            np.max(self.data, axis=axis, keepdims=keepdims)), (self,), bw)

    # -- elementwise functions --------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return _make(out_data, (self,),
                     lambda g: self._accumulate(g * out_data))

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return _make(out_data, (self,),
                     lambda g: self._accumulate(g * (0.5 / out_data)))

    def clip_min(self, floor: float) -> "Tensor":
        """Elementwise max with a constant; gradient passes where x >= floor."""
        floor = np.float32(floor)
        return _make(np.maximum(self.data, floor), (self,),
                     lambda g: self._accumulate(
                         g * (self.data >= floor).astype(np.float32)))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents, backward) -> Tensor:
    """Wrap an op's value; the only place a result joins the tape."""
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out._parents = tuple(parents)
        out.requires_grad = True
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _axis_count(shape, axis) -> int:
    if isinstance(axis, int):
        return shape[axis]
    n = 1
    for a in axis:
        n *= shape[a]
    return n


# -- linear algebra ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, batched over broadcast leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul requires >=2-D operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner axes differ for shapes {a.shape} and {b.shape}"
        )

    def bw(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            if b.ndim == 2 and g.ndim > 2:
                # weight-matrix case: contract the batch in one gemm
                k = a.data.shape[-1]
                n = g.shape[-1]
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)
            b._accumulate(gb)

    return _make(a.data @ b.data, (a, b), bw)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]

    def bw(g):
        parts = np.split(g, len(tensors), axis=axis)
        for t, p in zip(tensors, parts):
            if t.requires_grad:
                t._accumulate(np.squeeze(p, axis=axis))

    return _make(np.stack([t.data for t in tensors], axis=axis), tuple(tensors),
                 bw)


def concat(tensors, axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]

    def bw(g):
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), bw)


def repeat_steps(x: Tensor, t: int) -> Tensor:
    """Duplicate ``x`` along a new leading time axis of length ``t``."""
    x = as_tensor(x)
    return _make(np.broadcast_to(x.data, (t,) + x.data.shape).copy(), (x,),
                 lambda g: x._accumulate(g.sum(axis=0)))


# -- fused numerical ops ---------------------------------------------------------


def logsumexp(x: Tensor, axis, mask: np.ndarray | None = None,
              keepdims: bool = False) -> Tensor:
    """Max-shifted log-sum-exp over ``axis`` (int or tuple of ints).

    An optional binary ``mask`` (constant) selects participating entries; the
    gradient is the masked softmax.  Every reduced slice must keep at least
    one active entry.
    """
    x = as_tensor(x)
    xd = x.data
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float32)
        shifted_src = np.where(mask > 0, xd, -np.inf)
    else:
        shifted_src = xd
    shift = np.max(shifted_src, axis=axis, keepdims=True)
    if np.isneginf(shift).any():
        raise UsageError("logsumexp: a reduced slice has no active entries")
    e = np.exp(shifted_src - shift)  # masked-out entries hold -inf, exp -> 0
    s = e.sum(axis=axis, keepdims=True)
    out_data = shift + np.log(s)
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate((g * (e / s)).astype(np.float32))

    return _make(out_data.astype(np.float32), (x,), bw)


def softplus(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return _make(np.logaddexp(np.float32(0.0), x.data), (x,),
                 lambda g: x._accumulate(
                     (g * (1.0 / (1.0 + np.exp(-x.data)))).astype(np.float32)))


def surrogate_derivative(x: np.ndarray, alpha: float) -> np.ndarray:
    """Arctangent surrogate slope: alpha / (2 (1 + (pi/2 * alpha * x)^2))."""
    z = (np.pi / 2.0) * alpha * x
    return (alpha / 2.0) / (1.0 + z * z)


def surrogate_primitive(x: np.ndarray, alpha: float) -> np.ndarray:
    """Antiderivative of :func:`surrogate_derivative`, ranging over (0, 1)."""
    return np.arctan((np.pi / 2.0) * alpha * x) / np.pi + 0.5


def spike_threshold(h: Tensor, v_th, alpha: float = DEFAULT_SURROGATE_ALPHA) -> Tensor:
    """Binary spikes: 1 where the membrane reaches the threshold, else 0.

    ``v_th`` may be a float or a Tensor (learnable threshold); gradients flow
    to both operands through the surrogate.
    """
    x = as_tensor(h) - (v_th if isinstance(v_th, Tensor) else np.float32(v_th))
    if smooth_spikes_active():
        out_data = surrogate_primitive(x.data, alpha).astype(np.float32)
    else:
        out_data = (x.data >= 0).astype(np.float32)
    return _make(out_data, (x,), lambda g: x._accumulate(
        g * surrogate_derivative(x.data, alpha).astype(np.float32)))


# -- normalization -----------------------------------------------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ParameterError(f"layer_norm: eps must be > 0, got {eps}")
    x = as_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    xhat = xc / (var + np.float32(eps)).sqrt()
    return xhat * gamma + beta


@dataclass
class RunningStats:
    """Per-channel running mean/variance shared by all time steps."""

    mean: np.ndarray | None = None
    var: np.ndarray | None = None
    initialized: bool = field(default=False)

    def update(self, mean: np.ndarray, var: np.ndarray, momentum: float):
        if not self.initialized:
            self.mean = mean.copy()
            self.var = var.copy()
            self.initialized = True
        else:
            self.mean = (1.0 - momentum) * self.mean + momentum * mean
            self.var = (1.0 - momentum) * self.var + momentum * var


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, stats: RunningStats,
               train: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Normalize per embedding channel (last axis) over all leading axes.

    Statistics pool the time, batch and token axes together, so a single set
    is shared by every time step.  Train mode normalizes with batch moments
    and folds them into the running stats; eval mode uses the stored stats.
    """
    if eps <= 0:
        raise ParameterError(f"batch_norm: eps must be > 0, got {eps}")
    x = as_tensor(x)
    axes = tuple(range(x.ndim - 1))
    if train:
        mu = x.mean(axis=axes, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=axes, keepdims=True)
        stats.update(mu.data.reshape(-1), var.data.reshape(-1), momentum)
        xhat = xc / (var + np.float32(eps)).sqrt()
    else:
        if not stats.initialized:
            raise StateError("batch_norm: eval mode requires initialized running stats")
        mu = stats.mean.astype(np.float32)
        sd = np.sqrt(stats.var.astype(np.float32) + np.float32(eps))
        xhat = (x - Tensor(mu)) / Tensor(sd)
    return xhat * gamma + beta
