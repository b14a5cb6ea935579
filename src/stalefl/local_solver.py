"""Local SGD: K steps per participating client, producing the round update.

One call steps a whole batch of configs (grid betas and client lrs that share
a round's participants and minibatches) through the same K steps together.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .objectives import DimensionMismatchError, Objective, all_finite


class DivergenceError(RuntimeError):
    """A local iterate became non-finite; carries the offending step index."""

    def __init__(self, client: int, step: int):
        # args are the constructor's arguments, so the error pickles (and
        # crosses from a grid worker process) as itself
        super().__init__(client, step)
        self.client = client
        self.step = step

    def __str__(self) -> str:
        return f"non-finite iterate at client {self.client}, local step {self.step}"


@dataclass(frozen=True)
class LocalConfig:
    local_steps: int = 1
    client_lr: float = 0.01
    batch_size: int = 1

    def __post_init__(self):
        if self.local_steps < 1 or self.batch_size < 1:
            raise ValueError("local_steps and batch_size must be >= 1")
        if not (self.client_lr > 0 and np.isfinite(self.client_lr)):
            raise ValueError("client_lr must be finite and positive")


@dataclass(frozen=True)
class ClientUpdate:
    client: int
    round: int
    delta: np.ndarray                  # w_global - local iterate after K steps


def local_train(
    obj: Objective,
    clients: Sequence[int],
    w_global: np.ndarray,
    cfg: LocalConfig,
    rngs: Sequence[np.random.Generator] | None,
    client_lrs: Sequence[float],
) -> tuple[np.ndarray, list[DivergenceError | None]]:
    """Run K stochastic-gradient steps for every (config, client) pair in
    lockstep and return the updates.

    `w_global` holds one global iterate per config, shape (configs, dim), and
    `client_lrs` one client lr per config (`cfg.client_lr` is not read).
    Every config starts each client from its own iterate; the configs share
    `cfg`'s K and batch size and, per client, one stream of samples.
    `rngs[j]` is client `clients[j]`'s noise stream. Its K draws
    (`obj._draw`) are made once, step by step, and fed to every config, so a
    config's iterates have the same bits as when it runs alone. engine
    builds these streams only when `obj.uses_rng` is true, and passes None
    to an exact oracle, which never draws.

    All iterates take one step at a time through the oracle's batched kernel
    `obj._stochastic_gradients`; their finiteness is checked after every
    step. Returns the deltas, w_global - local iterate after K steps, of
    shape (configs, clients, dim), and per config the DivergenceError of
    its lowest-index client that went non-finite, at that client's first
    non-finite step, or None.
    """
    w_global = np.asarray(w_global, dtype=float)
    if w_global.ndim != 2 or w_global.shape[1] != obj.dim:
        raise DimensionMismatchError(
            f"expected global iterates of shape (configs, {obj.dim}), got {w_global.shape}"
        )
    if not np.isfinite(w_global).all():
        raise ValueError("global iterates contain non-finite entries")
    for i in clients:
        obj._check_client(i)
    lr = np.asarray(client_lrs, dtype=float)[:, None, None]
    w = np.empty((len(w_global), len(clients), obj.dim))
    w[...] = w_global[:, None, :]
    samples = [None] * len(clients)
    first_bad = None
    for k in range(cfg.local_steps):
        if rngs is not None:
            samples = [obj._draw(i, cfg.batch_size, r) for i, r in zip(clients, rngs)]
        w -= lr * obj._stochastic_gradients(clients, w, samples)
        if not all_finite(w):
            # A non-finite entry stays non-finite, so a client's first
            # non-finite step is the first one that finds it so.
            bad = ~np.isfinite(w).all(axis=2)
            if first_bad is None:
                first_bad = np.full(bad.shape, -1)
            first_bad[bad & (first_bad < 0)] = k
    errors: list[DivergenceError | None] = [None] * len(w_global)
    if first_bad is not None:
        for c, steps in enumerate(first_bad):
            hit = np.flatnonzero(steps >= 0)
            if len(hit):
                errors[c] = DivergenceError(int(clients[hit[0]]), int(steps[hit[0]]))
    return w_global[:, None, :] - w, errors


def pseudo_gradient(update: ClientUpdate, cfg: LocalConfig) -> np.ndarray:
    """Update normalized by lr*K: the average of the K local gradients."""
    return update.delta / (cfg.client_lr * cfg.local_steps)
