"""Server update rules, plus the server-side memory of stale updates.

Two kernels: biased plain averaging, and fedstale, the fresh/stale convex
combination whose beta=0 and beta=1 cases are the unbiased u_fedavg and
u_fedvarp rules.

All rules are pure functions of their inputs and sum client contributions in
ascending client-index order for bitwise reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .local_solver import ClientUpdate
from .objectives import DimensionMismatchError, Objective, check_param


class NoParticipantsError(RuntimeError):
    """Plain averaging is undefined on an empty participant set."""


@dataclass(frozen=True)
class AggregatorConfig:
    rule: str = "fedstale"            # fedavg_biased | u_fedavg | u_fedvarp | fedstale
    beta: float = 0.5                 # staleness weight, used by fedstale only
    weights_source: str = "exact"     # exact | estimator
    weight_cap: float | None = None   # estimator weight cap; engine default if None

    _RULES = ("fedavg_biased", "u_fedavg", "u_fedvarp", "fedstale")
    # The unbiased rules are fedstale at a fixed staleness weight.
    _RULE_BETA = {"u_fedavg": 0.0, "u_fedvarp": 1.0}

    def __post_init__(self):
        if self.rule not in self._RULES:
            raise ValueError(f"unknown rule {self.rule!r}; expected one of {self._RULES}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.weights_source not in ("exact", "estimator"):
            raise ValueError("weights_source must be 'exact' or 'estimator'")

    @property
    def staleness_weight(self) -> float:
        """The beta that fedstale applies for this rule (unused by fedavg_biased)."""
        return self._RULE_BETA.get(self.rule, self.beta)


@dataclass(frozen=True)
class GlobalUpdate:
    delta: np.ndarray
    fresh_norm: float = 0.0
    stale_norm: float = 0.0


@dataclass
class MemoryBank:
    """Most recent update per client, zero-initialized."""

    n_clients: int
    dim: int
    slots: np.ndarray = field(init=False)
    last_refresh_round: np.ndarray = field(init=False)

    def __post_init__(self):
        self.slots = np.zeros((self.n_clients, self.dim))
        self.last_refresh_round = np.zeros(self.n_clients, dtype=np.int64)


def _sorted_updates(updates: list[ClientUpdate]) -> list[ClientUpdate]:
    out = sorted(updates, key=lambda u: u.client)
    for a, b in zip(out, out[1:]):
        if a.client == b.client:
            raise ValueError(f"duplicate client {a.client} in round updates")
    return out


def fedavg_biased(updates: list[ClientUpdate]) -> GlobalUpdate:
    """Plain average over participants; biased under heterogeneous p_i."""
    updates = _sorted_updates(updates)
    if not updates:
        raise NoParticipantsError("no participants this round")
    delta = np.zeros_like(updates[0].delta)
    for u in updates:
        delta += u.delta
    delta /= len(updates)
    return GlobalUpdate(delta, fresh_norm=float(np.linalg.norm(delta)))


def vector_norm(x: np.ndarray) -> float:
    # float(np.linalg.norm(x)) for a 1-D float array, bit for bit, at a
    # fraction of its per-call cost.
    return math.sqrt(x.dot(x))


def fedstale(
    updates: list[ClientUpdate],
    bank: MemoryBank,
    weights: np.ndarray,
    n_clients: int,
    beta: float,
) -> GlobalUpdate:
    """Convex fresh/stale combination:
    (beta/N) sum_i h_i + (1/N) sum_{i in S} (delta_i - beta*h_i)/p_i.

    `weights[i]` is 1/p_i (or its estimate). Does not mutate the bank. beta=0
    is the unbiased average of fresh updates (u_fedavg), beta=1 the
    stale-proxy rule (u_fedvarp). With no participants the update is the
    stale term alone.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    fresh = np.zeros(bank.dim)
    for u in _sorted_updates(updates):
        # At beta=0 the stale terms are zero; skipping them changes no bit.
        d = u.delta - beta * bank.slots[u.client] if beta else u.delta
        fresh += weights[u.client] * d
    fresh /= n_clients
    if not beta:
        return GlobalUpdate(fresh, fresh_norm=vector_norm(fresh))
    stale = beta * bank.slots.sum(axis=0) / n_clients
    return GlobalUpdate(
        stale + fresh, fresh_norm=vector_norm(fresh), stale_norm=vector_norm(stale),
    )


def u_fedavg(
    updates: list[ClientUpdate], bank: MemoryBank, weights: np.ndarray, n_clients: int,
) -> GlobalUpdate:
    """(1/N) sum_{i in S} delta_i/p_i: fedstale at beta=0, which reads no slot."""
    return fedstale(updates, bank, weights, n_clients, 0.0)


def u_fedvarp(
    updates: list[ClientUpdate], bank: MemoryBank, weights: np.ndarray, n_clients: int,
) -> GlobalUpdate:
    """Stale updates as proxies for absent clients, fedstale at beta=1:
    (1/N) sum_i h_i + (1/N) sum_{i in S} (delta_i - h_i)/p_i."""
    return fedstale(updates, bank, weights, n_clients, 1.0)


def refresh_memory(bank: MemoryBank, updates: list[ClientUpdate], rnd: int) -> MemoryBank:
    """Overwrite participants' slots with their fresh updates; in place."""
    for u in _sorted_updates(updates):
        bank.slots[u.client] = u.delta
        bank.last_refresh_round[u.client] = rnd
    return bank


def memory_error(slots: np.ndarray, obj: Objective, w: np.ndarray) -> float | np.ndarray:
    """Mean squared deviation of the memory slots from the local gradients
    at w: (1/N) sum_i ||grad F_i(w) - slots[i]||^2, summed in client order.

    `slots` is a bank's (N, dim) slots array and `w` a point. Both may carry
    the same leading axes, `slots` (..., N, dim) and `w` (..., dim), one bank
    per point; the result then has shape (...), and each entry has the bits
    of the call on its bank and point alone.
    """
    w = check_param(w, obj.dim, stacked=True)
    slots = np.asarray(slots, dtype=float)
    expected = (*w.shape[:-1], obj.n_clients, obj.dim)
    if slots.shape != expected:
        raise DimensionMismatchError(f"expected slots of shape {expected}, got {slots.shape}")
    total = np.zeros(w.shape[:-1])
    for i in range(obj.n_clients):
        total += ((obj._gradient(w, i) - slots[..., i, :]) ** 2).sum(axis=-1)
    total /= obj.n_clients
    return float(total) if total.ndim == 0 else total
