"""Adam with decoupled weight decay over the named-parameter registry."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class AdamW:
    def __init__(self, params: dict[str, Tensor], lr_map,
                 weight_decay: float = 0.01):
        """``lr_map`` maps a parameter name to its current learning rate."""
        self.params = params
        self.lr_map = lr_map
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr_scale: float = 1.0):
        self.step_count += 1
        bias1 = 1.0 - BETA1 ** self.step_count
        bias2 = 1.0 - BETA2 ** self.step_count
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            g = p.grad
            lr = self.lr_map(name) * lr_scale
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= lr * update
