"""Adam with decoupled weight decay over the named-parameter registry."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class AdamW:
    def __init__(self, params: dict[str, Tensor], lr_map,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        """``lr_map`` maps a parameter name to its current learning rate."""
        self.params = params
        self.lr_map = lr_map
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr_scale: float = 1.0):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            g = p.grad
            lr = self.lr_map(name) * lr_scale
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = (p.data - lr * update).astype(np.float32)
