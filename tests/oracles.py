"""Reference loops for the unbiased aggregation rules.

stalefl computes u_fedavg and u_fedvarp as fedstale at beta=0 and beta=1.
These loops spell out the two formulas on their own, so that tests can check
fedstale's algebra against code that shares none of it.
"""

import numpy as np

from stalefl.aggregation import GlobalUpdate


def u_fedavg(updates, weights, n_clients, dim=None):
    """(1/N) sum_{i in S} delta_i/p_i; `dim` sizes the zero update of an
    empty participant set."""
    updates = sorted(updates, key=lambda u: u.client)
    if not updates:
        if dim is None:
            raise ValueError("dim is required for an empty participant set")
        return GlobalUpdate(np.zeros(dim))
    delta = np.zeros_like(updates[0].delta)
    for u in updates:
        delta += weights[u.client] * u.delta
    delta /= n_clients
    return GlobalUpdate(delta, fresh_norm=float(np.linalg.norm(delta)))


def u_fedvarp(updates, bank, weights, n_clients):
    """(1/N) sum_i h_i + (1/N) sum_{i in S} (delta_i - h_i)/p_i."""
    updates = sorted(updates, key=lambda u: u.client)
    delta = bank.slots.sum(axis=0) / n_clients
    stale_norm = float(np.linalg.norm(delta))
    fresh = np.zeros(bank.dim)
    for u in updates:
        fresh += weights[u.client] * (u.delta - bank.slots[u.client])
    fresh /= n_clients
    return GlobalUpdate(delta + fresh, fresh_norm=float(np.linalg.norm(fresh)), stale_norm=stale_norm)
