"""Local SGD: K steps per participating client, producing the round update."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import Objective, check_param


class DivergenceError(RuntimeError):
    """A local iterate became non-finite; carries the offending step index."""

    def __init__(self, client: int, step: int):
        super().__init__(f"non-finite iterate at client {client}, local step {step}")
        self.client = client
        self.step = step


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
    client: int,
    w_global: np.ndarray,
    cfg: LocalConfig,
    rng: np.random.Generator | None,
    rnd: int = 0,
) -> ClientUpdate:
    """Run K stochastic-gradient steps from w_global and return the update.

    `w_global` and `client` are validated once, here; the steps then call the
    oracle kernel `obj._stochastic_gradient` on the local iterate, whose
    finiteness is checked after every step. `rng` feeds the oracle's sampling
    noise. engine.run builds that per-(client, round) stream only when
    `obj.uses_rng` is true, and passes None to an exact oracle, which never
    draws from it.
    """
    w = check_param(w_global, obj.dim).copy()
    obj._check_client(client)
    for k in range(cfg.local_steps):
        g = obj._stochastic_gradient(client, w, cfg.batch_size, rng)
        w -= cfg.client_lr * g
        if not np.isfinite(w).all():
            raise DivergenceError(client, k)
    return ClientUpdate(client, rnd, w_global - w)


def pseudo_gradient(update: ClientUpdate, cfg: LocalConfig) -> np.ndarray:
    """Update normalized by lr*K: the average of the K local gradients."""
    return update.delta / (cfg.client_lr * cfg.local_steps)
