"""Minimal float32 reverse-mode autodiff engine.

Every array in the network is a :class:`Tensor`: a dense float32 numpy buffer
plus an optional gradient buffer and a closure that propagates incoming
gradients to its parents.  ``backward()`` on a scalar walks the tape in
reverse topological order and consumes it: once an interior node has passed
its gradient on, it drops its parents, closure and gradient, so the arrays
only the backward needed are freed during the walk.  Only leaves
(parameters and inputs built with ``requires_grad=True``) keep ``.grad``; a
second ``backward()`` that reaches a spent node is a :class:`UsageError`.

Every op computes its value, defines its backward closure and returns
``_make(value, parents, backward)``.  ``_make`` is the only code that puts a
result on the tape: it sets ``_parents``, ``requires_grad`` and ``_backward``
only when ``_joins_tape(parents)``, that is when grad mode is on and some
parent requires grad (a node with parents always does).  Arrays needed only
by a backward are computed inside its closure, so untracked and ``no_grad``
passes never build them; the neuron fold, for one, replays its membrane
there from its input and spikes.  The one exception is the
pooled similarity (:mod:`spikefusion.alignment`): its forward saves
routing indices from each block of the fine tensor while that block is
alive, and asks ``_joins_tape`` first, so an untracked call saves none.
The broadcast binary ops ``+ - * /`` are each ``_binary`` given a numpy op
and one gradient rule per operand.  ``matmul`` is ``_product`` and
``_product_backward``, which the neuron fold's weight stage runs too.

The other modules build fused ops the same way (the neuron fold with its
weight and norm stages, l2 normalisation, the pooled similarity, the
contrastive loss).
Each is one node whose hand-written backward replays the arithmetic of the
graph of generic ops it replaced, in that graph's order, so its gradients
are the same bits; those graphs are the test oracles.  Such a backward
recomputes cheap full-size intermediates rather than keep them on the
tape, and ``_first_gradient`` gives it the buffer an interior node of that
graph would have held.

The spiking neuron, in :mod:`spikefusion.neurons`, reads the switch
:func:`smooth_spike_mode`: inside it the spike forward is smooth, so the
whole graph is differentiable and finite-difference oracles can check the
tape.
"""

from __future__ import annotations

import contextlib
import operator
from contextvars import ContextVar

import numpy as np

from .errors import UsageError

_ZERO = np.float32(0.0)
_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)
_smooth_spikes: ContextVar[bool] = ContextVar("smooth_spikes", default=False)


@contextlib.contextmanager
def _context_set(var: ContextVar, value):
    """Set ``var`` to ``value`` for the block, yield ``value``, reset ``var``."""
    token = var.set(value)
    try:
        yield value
    finally:
        var.reset(token)


@contextlib.contextmanager
def no_grad():
    """Disable tape construction (evaluation passes)."""
    with _context_set(_grad_enabled, False):
        yield


@contextlib.contextmanager
def smooth_spike_mode():
    """Replace the hard spike forward with its smooth surrogate primitive.

    Used by finite-difference oracles: in this mode the backward pass is the
    exact derivative of the forward pass (neuron resets also stay attached to
    the graph, see :mod:`spikefusion.neurons`).
    """
    with _context_set(_smooth_spikes, True):
        yield


def smooth_spikes_active() -> bool:
    return _smooth_spikes.get()


def _as_f32(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float32)


class Tensor:
    """Dense float32 array participating in reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward",
                 "__weakref__")

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
            # ``g`` itself is not kept: ops hand one array or view to
            # several parents
            self.grad = _first_gradient(g, self.data)
        else:
            self.grad += g

    # -- autodiff core --------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf.

        The walk releases each interior node once its closure has run, so a
        graph supports one ``backward()``; reaching a released node raises.
        """
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
            if node._parents is None:
                raise UsageError(
                    "backward(): this graph's gradients were already "
                    "propagated; rebuild it to differentiate again")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if not node._parents:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node._parents = None
            node._backward = None
            node.grad = None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return _binary(self, other, operator.add,
                       lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __mul__(self, other):
        return _binary(self, other, operator.mul,
                       lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __neg__(self):
        return self * np.float32(-1.0)

    def __sub__(self, other):
        return _binary(self, other, operator.sub,
                       lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __truediv__(self, other):
        return _binary(self, other, operator.truediv,
                       lambda g, a, b: g / b,
                       lambda g, a, b: -g * a / (b * b))

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    # -- shape ops ------------------------------------------------------------

    def reshape(self, shape) -> "Tensor":
        old = self.data.shape
        return _make(self.data.reshape(shape), (self,),
                     lambda g: self._accumulate(g.reshape(old)))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return _make(self.data.swapaxes(a, b), (self,),
                     lambda g: self._accumulate(g.swapaxes(a, b)))

    def __getitem__(self, key) -> "Tensor":
        basic = _is_basic_key(key)

        def bw(g):
            buf = np.zeros_like(self.data)
            if basic:
                buf[key] = g
            else:
                np.add.at(buf, key, g)
            self._accumulate(buf)

        return _make(self.data[key], (self,), bw)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, shape))

        return _make(self.data.sum(axis=axis, keepdims=keepdims), (self,), bw)

    # -- elementwise functions --------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return _make(out_data, (self,),
                     lambda g: self._accumulate(g * out_data))


def _first_gradient(g: np.ndarray, like: np.ndarray) -> np.ndarray:
    """What a node stores as its first incoming gradient: ``g + 0.0`` in a
    fresh buffer in the memory order of ``like``, its value.  The one place
    that knows the signed-zero rule: a -0.0 becomes +0.0 here, and a later
    ``grad += g`` makes none (+0 + -0 = +0; x + ±0 = x for x != 0).  No
    backward divides by a gradient or takes its sign, so a zero's sign
    changes no nonzero result, and fused backwards need not replay it."""
    return np.add(g, _ZERO, out=np.empty_like(like))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _joins_tape(parents) -> bool:
    """The one rule for recording a node: grad mode is on and some parent
    requires grad."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents, backward) -> Tensor:
    """Wrap an op's value; the only place a result joins the tape."""
    out = Tensor(data)
    if _joins_tape(parents):
        out._parents = tuple(parents)
        out.requires_grad = True
        out._backward = backward
    return out


def _binary(x: Tensor, other, op, grad_x, grad_other) -> Tensor:
    """One broadcast node ``op(x, other)``.  Each gradient rule maps
    ``(g, x.data, other.data)`` to its operand's gradient before that is
    summed back to the operand's shape."""
    other = as_tensor(other)

    def bw(g):
        for t, rule in ((x, grad_x), (other, grad_other)):
            if t.requires_grad:
                t._accumulate(_unbroadcast(rule(g, x.data, other.data),
                                           t.data.shape))

    return _make(op(x.data, other.data), (x, other), bw)


def _is_basic_key(key) -> bool:
    """True for a key of ints, slices, ``...`` and ``None``: no repeated index."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        k is None or k is Ellipsis or isinstance(k, slice)
        or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
        for k in parts)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- linear algebra ------------------------------------------------------------
#
# The weight-matmul arithmetic has one home, shared by ``matmul`` and the
# weight stage of the neuron fold (``neurons._fold``).


def _product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` of >= 2-D operands."""
    if x.ndim < 2 or w.ndim < 2:
        raise UsageError(
            f"matmul requires >=2-D operands, got shapes {x.shape} and "
            f"{w.shape}")
    if x.shape[-1] != w.shape[-2]:
        raise UsageError(
            f"matmul: inner axes differ for shapes {x.shape} and {w.shape}")
    if w.ndim == 2 and x.ndim > 2:
        # weight-matrix case: one gemm over the stacked rows (numpy would
        # call gemm once per leading index), the same bits
        rows = x.reshape(-1, x.shape[-1]) @ w
        return rows.reshape(x.shape[:-1] + w.shape[-1:])
    return x @ w


def _product_backward(g: np.ndarray, x: Tensor, w: Tensor):
    """Hand ``x`` and then ``w`` their gradients of ``x @ w``, given ``g``."""
    if x.requires_grad:
        # the input gradient stays batched: one gemm would change its bits
        x._accumulate(_unbroadcast(g @ w.data.swapaxes(-1, -2), x.shape))
    if w.requires_grad:
        if w.ndim == 2 and g.ndim > 2:
            # weight-matrix case: contract the batch in one gemm
            g_w = (x.data.reshape(-1, x.shape[-1]).T
                   @ g.reshape(-1, g.shape[-1]))
        else:
            g_w = x.data.swapaxes(-1, -2) @ g
        w._accumulate(_unbroadcast(g_w, w.shape))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, batched over broadcast leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    return _make(_product(a.data, b.data), (a, b),
                 lambda g: _product_backward(g, a, b))


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


# -- elementwise functions -------------------------------------------------------


def softplus(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return _make(np.logaddexp(np.float32(0.0), x.data), (x,),
                 lambda g: x._accumulate(g * (1.0 / (1.0 + np.exp(-x.data)))))
