"""Shared test utilities: finite-difference oracles and LIF reference folds."""

import numpy as np

from spikefusion.neurons import surrogate_derivative, surrogate_primitive
from spikefusion.tensor import (
    Tensor,
    _make,
    smooth_spike_mode,
    smooth_spikes_active,
    stack,
)


def central_difference(loss_fn, param, eps=1e-3, indices=None):
    """Central finite differences of ``loss_fn()`` w.r.t. ``param.data``.

    ``loss_fn`` must be pure; the parameter buffer is perturbed in place.
    Returns a float64 array over ``indices`` (all entries when None).
    """
    flat = param.data.reshape(-1)
    indices = list(range(flat.size)) if indices is None else list(indices)
    grads = np.zeros(len(indices), dtype=np.float64)
    for pos, i in enumerate(indices):
        original = flat[i]
        flat[i] = original + eps
        plus = loss_fn()
        flat[i] = original - eps
        minus = loss_fn()
        flat[i] = original
        grads[pos] = (plus - minus) / (2.0 * eps)
    return grads


def smooth_central_difference(loss_fn, param, eps=1e-3, indices=None):
    """Finite differences on the surrogate-smoothed graph."""
    with smooth_spike_mode():
        return central_difference(loss_fn, param, eps, indices)


def smooth_fd_audit(loss_fn, params, n_picks=10, min_grad=0.02,
                    eps_pair=(3e-3, 1e-3), seed=7):
    """Spot-check analytic gradients of the smoothed graph against FD.

    Gradients must already be populated on ``params``.  Candidate entries are
    the strongest per parameter above ``min_grad``; an entry only counts when
    its two-step FD estimates agree within 0.5% (a local-smoothness
    certificate -- max/clip kinks inside the FD interval would otherwise
    contaminate the comparison).  Returns a list of relative errors of length
    ``n_picks``.
    """
    candidates = []
    for name, p in params.items():
        if p.grad is None:
            continue
        flat = p.grad.reshape(-1)
        for i in np.argsort(np.abs(flat))[::-1][:3]:
            if abs(flat[i]) > min_grad:
                candidates.append((name, int(i), float(flat[i])))
    order = np.random.default_rng(seed).permutation(len(candidates))
    rels = []
    with smooth_spike_mode():
        for pos in order:
            name, idx, analytic = candidates[pos]
            buf = params[name].data.reshape(-1)
            original = buf[idx]
            estimates = []
            for eps in eps_pair:
                buf[idx] = original + eps
                plus = loss_fn()
                buf[idx] = original - eps
                minus = loss_fn()
                buf[idx] = original
                estimates.append((plus - minus) / (2.0 * eps))
            spread = abs(estimates[0] - estimates[1])
            if spread > 5e-3 * max(abs(estimates[0]), abs(estimates[1]), 1e-8):
                continue  # kink inside the interval; not a valid FD point
            # the larger step carries less float32 roundoff; its truncation
            # error is certified small by the two-step agreement
            fd = estimates[0]
            rels.append(abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8))
            if len(rels) == n_picks:
                break
    if len(rels) < n_picks:
        raise AssertionError(
            f"only {len(rels)} smooth FD points found (need {n_picks})")
    return rels


def scalar_lif_simulate(x, tau, v_th, v_reset):
    """Independent scalar LIF oracle in float32, mirroring the vectorized
    kernel's expression order exactly.

    ``x`` is a (T,) array for one neuron; returns (spikes, potentials) where
    potentials[t] is the post-reset membrane after step t.
    """
    tau = np.float32(tau)
    v_th = np.float32(v_th)
    v_reset = np.float32(v_reset)
    one = np.float32(1.0)
    v = v_reset
    spikes, potentials = [], []
    for t in range(x.shape[0]):
        xt = np.float32(x[t])
        leak = v - v_reset
        drive = xt - leak
        h = v + drive / tau
        s = one if h >= v_th else np.float32(0.0)
        v = h * (one - s) + v_reset * s
        spikes.append(s)
        potentials.append(v)
    return np.array(spikes, dtype=np.float32), np.array(potentials, dtype=np.float32)


def _reference_spike(h, v_th, alpha):
    """Spike op on the tape: Heaviside forward (the surrogate primitive in
    smooth mode), arctangent surrogate backward to ``h`` and ``v_th``."""
    u = h - (v_th if isinstance(v_th, Tensor) else np.float32(v_th))
    if smooth_spikes_active():
        out_data = surrogate_primitive(u.data, alpha).astype(np.float32)
    else:
        out_data = (u.data >= 0).astype(np.float32)
    return _make(out_data, (u,), lambda g: u._accumulate(
        g * surrogate_derivative(u.data, alpha).astype(np.float32)))


def reference_fold(x, tau, v_th, v_reset, alpha=2.0):
    """The LIF/TLSN fold composed step by step from generic tensor ops.

    The reference the one-node kernel ``spikefusion.neurons._fold`` must
    match bit for bit outside smooth mode.  Returns (spikes, potentials):
    the stacked spike tensor and the post-reset membrane tensor of each step.
    """
    v = Tensor(np.full(x.shape[1:], v_reset, dtype=np.float32))
    spikes, potentials = [], []
    for t in range(x.shape[0]):
        h = v + (x[t] - (v - np.float32(v_reset))) / np.float32(tau)
        s = _reference_spike(h, v_th, alpha)
        s_reset = s if smooth_spikes_active() else s.detach()
        v = h * (np.float32(1.0) - s_reset) + np.float32(v_reset) * s_reset
        spikes.append(s)
        potentials.append(v)
    return stack(spikes, axis=0), potentials
