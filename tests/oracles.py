"""Reference implementations that share no code with stalefl's kernels.

stalefl computes u_fedavg and u_fedvarp as fedstale at beta=0 and beta=1.
These loops spell out the two formulas on their own, so that tests can check
fedstale's algebra against code that shares none of it.
`incremental_weights` counts a trace one round at a time; the vectorised
estimated weights must reproduce it bit for bit. `hard_instance_forms` builds
the hard instance's client and global forms as dense matrices, one
squared-difference term at a time, to check its banded oracles against;
`hard_instance_minimizer` solves the dense global form for its minimizer, and
`minimize_gradient_norm_in_span` minimizes its gradient norm over a span by
least squares. `quadratic_row_gradients`, `tridiagonal_product` and
`softmax_samples_grad` are the per-row quadratic matvec, the banded product
and the z.max(axis=-1) softmax gradient as local SGD computed them before
its kernels were bound once a round: the bound kernels must keep their bits.
"""

from functools import partial

import numpy as np


def u_fedavg(clients, deltas, weights, n_clients):
    """(1/N) sum_{i in S} delta_i/p_i; row k of `deltas` is client
    `clients[k]`'s update."""
    delta = np.zeros(np.shape(deltas)[1])
    for i, d in sorted(zip(clients, deltas), key=lambda pair: pair[0]):
        delta += weights[i] * d
    return delta / n_clients


def u_fedvarp(clients, deltas, slots, weights, n_clients):
    """(1/N) sum_i h_i + (1/N) sum_{i in S} (delta_i - h_i)/p_i, with h_i
    row i of the (N, dim) memory `slots`."""
    fresh = np.zeros(np.shape(slots)[1])
    for i, d in sorted(zip(clients, deltas), key=lambda pair: pair[0]):
        fresh += weights[i] * (d - slots[i])
    return slots.sum(axis=0) / n_clients + fresh / n_clients


def fedstale(clients, deltas, slots, weights, beta, n_clients):
    """(beta/N) sum_i h_i + (1/N) sum_{i in S} (delta_i - beta h_i)/p_i for
    one float beta > 0, a new array per operation; u_fedvarp at beta = 1.
    (At beta = 0 the rule reads no slot: that is u_fedavg.)"""
    fresh = np.zeros(np.shape(slots)[1])
    for i, d in sorted(zip(clients, deltas), key=lambda pair: pair[0]):
        fresh += weights[i] * (d - beta * slots[i])
    return beta * slots.sum(axis=0) / n_clients + fresh / n_clients


def incremental_weights(trace, cap):
    """The capped inverse participation estimates of every round of a
    (rounds, N) trace, counted one round at a time: after round t, with c_i
    client i's presences so far, p_hat_i = max(c_i, 1)/t and the weight is
    min(1/p_hat_i, cap)."""
    counts = np.zeros(np.shape(trace)[1], dtype=np.int64)
    rows = []
    for t, present in enumerate(trace, start=1):
        counts += present
        p_hat = np.maximum(counts, 1) / t
        rows.append(np.minimum(1.0 / p_hat, cap))
    return np.array(rows)


def hard_instance_forms(dim, horizon, smoothness_L, n_clients, i0=0, i1=1):
    """Dense (quadratic, linear) forms {client: (B, b)} of the hard instance,
    with F_i(w) = 1/2 w'B w + b'w, plus the global form under the key None.
    Clients other than i0 and i1 are absent: their objective is zero."""
    t, m = horizon, 2 * horizon + 1
    scale = n_clients * smoothness_L / 4.0
    b0 = np.zeros((dim, dim))
    b0[0, 0] += scale
    for j in range(1, t + 1):      # (w_{2j} - w_{2j+1})^2 pairs, 1-based
        lo, hi = 2 * j - 1, 2 * j  # 0-based indices
        b0[lo, lo] += scale
        b0[hi, hi] += scale
        b0[lo, hi] -= scale
        b0[hi, lo] -= scale
    lin0 = np.zeros(dim)
    lin0[0] = -scale
    b1 = np.zeros((dim, dim))
    for j in range(1, t + 1):      # (w_{2j-1} - w_{2j})^2 pairs
        lo, hi = 2 * j - 2, 2 * j - 1
        b1[lo, lo] += scale
        b1[hi, hi] += scale
        b1[lo, hi] -= scale
        b1[hi, lo] -= scale
    b1[m - 1, m - 1] += scale
    return {
        i0: (b0, lin0),
        i1: (b1, np.zeros(dim)),
        None: ((b0 + b1) / n_clients, lin0 / n_clients),
    }


def hard_instance_minimizer(dim, horizon, smoothness_L=1.0, n_clients=2):
    """The hard instance's global minimizer by a dense linear solve of its
    global form: B w = -b on the first 2t+1 coordinates, 0 after them."""
    b, lin = hard_instance_forms(dim, horizon, smoothness_L, n_clients)[None]
    m = 2 * horizon + 1
    w = np.zeros(dim)
    w[:m] = np.linalg.solve(b[:m, :m], -lin[:m])
    return w


def minimize_gradient_norm_in_span(instance, k):
    """Independent check of the gradient floor: the least-squares minimum of
    ||grad F(w)||^2 = ||B w + b||^2 over w restricted to the first k-1
    coordinates, and its minimizer, on the dense global form (B, b)."""
    b, lin = hard_instance_forms(
        instance.dim, instance.horizon, instance.smoothness_L, instance.n_clients,
    )[None]
    x, *_ = np.linalg.lstsq(b[:, : k - 1], -lin, rcond=None)
    w = np.zeros(instance.dim)
    w[: k - 1] = x
    return float(np.sum((b @ w + lin) ** 2)), w


def quadratic_row_gradients(hessians, centers, clients, w):
    """The gradients of a (configs, len(clients), dim) stack of iterates,
    one matvec a row on a fresh residual: `ndarray.dot` at dim >= 2 and
    `np.matmul` at dim 1."""
    out = np.empty(np.shape(w))
    for j, i in enumerate(clients):
        a, c = hessians[i], centers[i]
        matvec = a.dot if len(c) > 1 else partial(np.matmul, a)
        for row in range(len(w)):
            matvec(w[row, j] - c, out=out[row, j])
    return out


def tridiagonal_product(diag, off, w):
    """A w over the last axis of `w`, for the symmetric tridiagonal A with
    main diagonal `diag` and off-diagonal `off`, with a temporary a term."""
    aw = np.multiply(diag, w)
    aw[..., 1:] += off * w[..., :-1]
    aw[..., :-1] += off * w[..., 1:]
    return aw


def softmax_samples_grad(w_mat, x, y, n_classes):
    """Mean cross-entropy gradient over the samples (x, y) at the weights
    `w_mat` (..., classes, features + 1), shifting the logits by
    z.max(axis=-1)."""
    z = x @ w_mat.swapaxes(-1, -2)
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))
    p -= y[..., None] == np.arange(n_classes)
    return (p.swapaxes(-1, -2) @ x) / y.shape[-1]
