"""Server update rules, plus the server-side memory of stale updates.

Two kernels: biased plain averaging, and fedstale, the fresh/stale convex
combination whose beta=0 and beta=1 cases are the unbiased u_fedavg and
u_fedvarp rules.

All rules are pure functions of their inputs and sum client contributions in
ascending client-index order for bitwise reproducibility.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .local_solver import ClientUpdate
from .objectives import Objective, check_param


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


def _norm(x: np.ndarray) -> float:
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
        return GlobalUpdate(fresh, fresh_norm=_norm(fresh))
    stale = beta * bank.slots.sum(axis=0) / n_clients
    return GlobalUpdate(stale + fresh, fresh_norm=_norm(fresh), stale_norm=_norm(stale))


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


def memory_error(bank: MemoryBank, obj: Objective, w: np.ndarray) -> float:
    """Mean squared deviation of memory slots from current local gradients."""
    w = check_param(w, obj.dim)
    total = 0.0
    for i in range(bank.n_clients):
        obj._check_client(i)
        total += float(np.sum((obj._gradient(w, i) - bank.slots[i]) ** 2))
    return total / bank.n_clients


def export_bank_csv(bank: MemoryBank, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        wr = csv.writer(f, lineterminator="\n")
        wr.writerow(["client_id", "last_refresh_round"] + [f"h_{j}" for j in range(bank.dim)])
        for i in range(bank.n_clients):
            wr.writerow(
                [i, int(bank.last_refresh_round[i])]
                + [f"{v:.17g}" for v in bank.slots[i]]
            )


def load_bank_csv(path: str | Path) -> MemoryBank:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    dim = len(header) - 2
    bank = MemoryBank(len(body), dim)
    for row in body:
        i = int(row[0])
        bank.last_refresh_round[i] = int(row[1])
        bank.slots[i] = [float(v) for v in row[2:]]
    return bank
