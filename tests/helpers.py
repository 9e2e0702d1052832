"""Shared test utilities: finite-difference oracles, a memory probe, the
generic ops only the oracles use, and the composed graphs of generic ops
that the one-node kernels replace: the LIF fold and its norm stages, the
contrastive loss and the pooled similarity."""

import tracemalloc

import numpy as np

from spikefusion.errors import StateError, UsageError
from spikefusion.layers import BatchNorm
from spikefusion.neurons import surrogate_derivative, surrogate_primitive
from spikefusion.tensor import (
    Tensor,
    _grad_enabled,
    _make,
    as_tensor,
    matmul,
    smooth_spike_mode,
    smooth_spikes_active,
    stack,
)


# -- generic ops with no caller in the package ---------------------------------


def mean(x, axis=None, keepdims=False):
    """Mean over ``axis`` (int, tuple or all): a sum times 1 / count."""
    x = as_tensor(x)
    if axis is None:
        count = x.size
    else:
        count = int(np.prod([x.shape[a] for a in np.atleast_1d(axis)]))
    return x.sum(axis=axis, keepdims=keepdims) * np.float32(1.0 / count)


def reduce_max(x, axis, keepdims=False):
    """Maximum along one axis; gradient routes to the first maximal entry."""
    x = as_tensor(x)

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        idx = np.expand_dims(np.argmax(x.data, axis=axis), axis)
        buf = np.zeros_like(x.data)
        np.put_along_axis(buf, idx, g, axis)
        x._accumulate(buf)

    # a reduction keeps its input's memory order; C order keeps the
    # summation order of later reductions independent of that
    return _make(np.ascontiguousarray(
        np.max(x.data, axis=axis, keepdims=keepdims)), (x,), bw)


def transpose(x, axes):
    x = as_tensor(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(x.data.transpose(axes), (x,),
                 lambda g: x._accumulate(g.transpose(inverse)))


def detach(x):
    """The same values as a new leaf, cut off from the tape."""
    return Tensor(as_tensor(x).data)


def sqrt(x):
    x = as_tensor(x)
    out_data = np.sqrt(x.data)
    return _make(out_data, (x,), lambda g: x._accumulate(g * (0.5 / out_data)))


def clip_min(x, floor):
    """Elementwise max with a constant; gradient passes where x >= floor."""
    x = as_tensor(x)
    floor = np.float32(floor)
    return _make(np.maximum(x.data, floor), (x,), lambda g: x._accumulate(
        g * (x.data >= floor).astype(np.float32)))


def logsumexp(x, axis, mask=None, keepdims=False):
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


# -- finite differences ----------------------------------------------------------


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


def bytes_after_backward(out, upstream, *tensors):
    """Backpropagate ``sum(out * upstream)`` and return the bytes of ``out``
    and of each tensor's gradient (None where it got none), for bit-for-bit
    comparisons of a one-node op with its composed oracle.  ``out`` stores
    its gradient before its node's backward runs, and that store turns a
    -0.0 of ``upstream`` into +0.0 (see ``assert_zero_sign_inert``)."""
    (out * Tensor(upstream)).sum().backward()
    return [out.data.tobytes()] + [
        None if t.grad is None else t.grad.tobytes() for t in tensors]


def negative_zeros(a):
    """Where ``a`` holds -0.0."""
    return np.signbit(a) & (a == 0)


def assert_zero_sign_inert(build, leaves, upstream):
    """Build one node with ``build`` over fresh leaves holding the arrays
    ``leaves`` and call its backward directly, so no stored gradient turns
    a -0.0 into +0.0 first: once with ``upstream``'s zeros as -0.0, once as
    +0.0.  Every leaf gradient must have the same bytes in both runs and
    hold no -0.0."""
    upstream = np.asarray(upstream, dtype=np.float32)
    assert (upstream == 0).any(), "upstream has no zero to sign"
    runs = []
    for zero in (np.float32(-0.0), np.float32(0.0)):
        tensors = [Tensor.param(a.copy()) for a in leaves]
        build(*tensors)._backward(np.where(upstream == 0, zero, upstream))
        for t in tensors:
            assert t.grad is not None and not negative_zeros(t.grad).any()
        runs.append([t.grad.tobytes() for t in tensors])
    assert runs[0] == runs[1]


def interior_nodes(out):
    """Interior nodes (built by ``_make``) of the graph behind ``out``."""
    seen, todo = set(), [out]
    while todo:
        node = todo.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        todo.extend(node._parents)
    return len(seen)


def tape_bytes(loss):
    """Bytes held by the tape behind ``loss``, each buffer counted once
    (a view counts as its base): every interior node's value and the arrays
    its backward closure keeps, and the value of every leaf that is not a
    parameter (the inputs and constants).  Parameters belong to the model,
    not the tape."""
    buffers, seen_fns = {}, set()

    def add(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        buffers[id(a)] = a

    def add_tensor(t):
        if t._parents or not t.requires_grad:
            add(t.data)

    def scan(value):
        if isinstance(value, np.ndarray):
            add(value)
        elif isinstance(value, Tensor):
            add_tensor(value)
        elif isinstance(value, (list, tuple)):
            for v in value:
                scan(v)
        elif callable(value) and getattr(value, "__closure__", None):
            if id(value) not in seen_fns:
                seen_fns.add(id(value))
                for cell in value.__closure__:
                    try:
                        scan(cell.cell_contents)
                    except ValueError:  # a cell not yet bound
                        pass

    seen, todo = set(), [loss]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        add_tensor(node)
        if node._parents:
            scan(node._backward)
            todo.extend(node._parents)
    return sum(a.nbytes for a in buffers.values())


def traced(fn):
    """``fn()`` under tracemalloc, which sees numpy's buffers: returns its
    result, the bytes it allocated and still holds once it has returned,
    and the peak of what it allocated."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


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
        s_reset = s if smooth_spikes_active() else detach(s)
        v = h * (np.float32(1.0) - s_reset) + np.float32(v_reset) * s_reset
        spikes.append(s)
        potentials.append(v)
    return stack(spikes, axis=0), potentials


# -- normalisations and the contrastive loss composed from generic ops ------


def reference_layer_norm(x, gamma, beta):
    """A ``LayerNorm`` stage of ``spikefusion.neurons._fold`` as a graph of
    generic tape ops."""
    x = as_tensor(x)
    mu = mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = mean(xc * xc, axis=-1, keepdims=True)
    xhat = xc / sqrt(var + np.float32(1e-5))
    return xhat * gamma + beta


def reference_batch_norm(x, norm, batch_stats):
    """A ``BatchNorm`` stage of ``spikefusion.neurons._fold`` as a graph of
    generic tape ops over ``norm``'s gamma and beta: with ``batch_stats`` it
    normalises by the batch's moments and updates ``norm``'s running stats
    as the stage does, else by those stats."""
    x = as_tensor(x)
    axes = tuple(range(x.ndim - 1))
    if batch_stats:
        mu = mean(x, axis=axes, keepdims=True)
        xc = x - mu
        var = mean(xc * xc, axis=axes, keepdims=True)
        m, v = mu.data.reshape(-1), var.data.reshape(-1)
        if norm.running_mean is None:
            norm.running_mean, norm.running_var = m.copy(), v.copy()
        else:
            norm.running_mean = 0.9 * norm.running_mean + 0.1 * m
            norm.running_var = 0.9 * norm.running_var + 0.1 * v
        xhat = xc / sqrt(var + np.float32(1e-5))
    else:
        if norm.running_mean is None:
            raise StateError("batch_norm: eval mode requires running stats")
        sd = np.sqrt(norm.running_var + np.float32(1e-5))
        xhat = (x - Tensor(norm.running_mean)) / Tensor(sd)
    return xhat * norm.gamma + norm.beta


def reference_norm(x, norm):
    """The composed graph of ``norm`` (a ``LayerNorm`` or ``BatchNorm``
    block) over ``x``: the drive its fused fold feeds the neuron.  A batch
    norm takes the batch's moments in grad mode and its running stats under
    ``no_grad()``, as the fold's stage does."""
    if isinstance(norm, BatchNorm):
        return reference_batch_norm(x, norm, _grad_enabled.get())
    return reference_layer_norm(x, norm.gamma, norm.beta)


def composed_fold(fold):
    """A stand-in for ``neurons._fold`` (given as ``fold``) that runs a
    weight stage as a generic ``matmul`` node and a norm stage as its own
    composed graph, then the fold node on their output."""
    def run(x, lif, v_th, norm=None, linear=None):
        if linear is not None:
            x = matmul(x, linear.w)
        if norm is not None:
            x = reference_norm(x, norm)
        return fold(x, lif, v_th)
    return run


def reference_l2_normalize(x):
    """``spikefusion.alignment.l2_normalize`` as a graph of generic tape ops."""
    x = as_tensor(x)
    ss = (x * x).sum(axis=-1, keepdims=True)
    return x / sqrt(clip_min(ss, 1e-2))


def reference_infonce_pair(s, temperature):
    """``spikefusion.losses.infonce_pair`` as a graph of generic tape ops."""
    s = as_tensor(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise UsageError(f"similarity matrix must be square, got {s.shape}")
    b = s.shape[0]
    if b < 2:
        raise UsageError("contrastive loss needs at least 2 pairs in the batch")
    if not temperature > 0:
        raise UsageError(f"temperature must be > 0, got {temperature}")
    inv_t = np.float32(1.0 / temperature)
    off_diag = (1.0 - np.eye(b, dtype=np.float32))

    def directional(mat):
        diag = (mat * np.eye(b, dtype=np.float32)).sum(axis=1, keepdims=True)
        margins = (mat - diag) * inv_t
        return mean(logsumexp(margins, axis=-1, mask=off_diag))

    l_i2t = directional(s)
    l_t2i = directional(s.swapaxes(0, 1))
    return (l_i2t + l_t2i) * np.float32(0.5)


# -- the pooled similarity composed from generic tensor ops ------------------


def fine_similarity(e_tokens, r_tokens):
    """Cosine similarity of every (word, region) pair -> (B_r, B_e, L, N)."""
    e_tokens, r_tokens = as_tensor(e_tokens), as_tensor(r_tokens)
    if e_tokens.ndim != 3 or r_tokens.ndim != 3:
        raise UsageError(
            f"token sets must be (B, K, D); got {e_tokens.shape} and {r_tokens.shape}"
        )
    if e_tokens.shape[-1] != r_tokens.shape[-1]:
        raise UsageError(
            f"embedding widths differ: {e_tokens.shape[-1]} vs {r_tokens.shape[-1]}"
        )
    be, nl, d = e_tokens.shape
    br, nn, _ = r_tokens.shape
    e_hat = reference_l2_normalize(e_tokens).reshape((be * nl, d))
    r_hat = reference_l2_normalize(r_tokens).reshape((br * nn, d))
    flat = matmul(r_hat, e_hat.swapaxes(-1, -2))  # (B_r*N, B_e*L)
    return transpose(flat.reshape((br, nn, be, nl)), (0, 2, 3, 1))


def hard_align_word(fine):
    """Per-word maximum over regions: (B, B, L, N) -> (B, B, L)."""
    return reduce_max(fine, axis=-1)


def hard_align_region(fine):
    """Per-region maximum over words: (B, B, L, N) -> (B, B, N)."""
    return reduce_max(fine, axis=-2)


def biha_enhance(word_max, region_max):
    """Outer product of the two hard-alignment profiles -> (B, B, L, N)."""
    word_max, region_max = as_tensor(word_max), as_tensor(region_max)
    if word_max.shape[:2] != region_max.shape[:2]:
        raise UsageError(
            f"batch axes differ: {word_max.shape[:2]} vs {region_max.shape[:2]}"
        )
    b0, b1, nl = word_max.shape
    nn = region_max.shape[-1]
    return word_max.reshape((b0, b1, nl, 1)) * region_max.reshape((b0, b1, 1, nn))


def lse_pool(s_bar, alpha):
    """2-D log-sum-exp over the trailing token axes: (1/a) log sum exp(a*s)."""
    if alpha <= 0:
        raise UsageError(f"lse alpha must be > 0, got {alpha}")
    scaled = as_tensor(s_bar) * np.float32(alpha)
    return logsumexp(scaled, axis=(-2, -1)) * np.float32(1.0 / alpha)


def lse_last(x, alpha):
    """Log-sum-exp over the last axis: (1/a) log sum exp(a*x)."""
    scaled = as_tensor(x) * np.float32(alpha)
    return logsumexp(scaled, axis=-1) * np.float32(1.0 / alpha)


def reference_similarity(e_tokens, r_tokens, cfg):
    """``spikefusion.alignment.similarity`` as a chain of generic tape ops.

    The reference the one-node ``alignment._pooled`` must match bit for bit:
    scores and every gradient.
    """
    fine = fine_similarity(e_tokens, r_tokens)
    if cfg.mode == "lse":
        return lse_pool(fine, cfg.alpha)
    if cfg.mode == "vha":
        return lse_last(hard_align_region(fine), cfg.alpha)
    if cfg.mode == "tha":
        return lse_last(hard_align_word(fine), cfg.alpha)
    enhanced = biha_enhance(hard_align_word(fine), hard_align_region(fine))
    return lse_pool(enhanced, cfg.alpha)
