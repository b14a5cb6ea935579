"""Server update rules, plus the refresh and error of the stale-update memory.

Two kernels: biased plain averaging, and fedstale, the fresh/stale convex
combination whose beta=0 and beta=1 cases are the unbiased u_fedavg and
u_fedvarp rules.

Every rule takes a round's participants as `(clients, deltas)`: an ascending
list of distinct client indices and the (len(clients), dim) array of their
updates, row k for client clients[k]. The rules are pure functions of their
inputs and sum client contributions in that ascending order for bitwise
reproducibility. The memory of stale updates is a plain (N, dim) array whose
row i is client i's most recent update, zeros before its first.

The rules, the refresh and `memory_error` also take a stack of rounds that
share the participants, one per config of a lockstep batch: `deltas` of
shape (..., len(clients), dim) and a memory `slots` of shape (..., N, dim)
with the same leading axes, and fedstale a beta per leading entry. Every
operation acts on the whole stack, and every leading entry of the result has
the bits of the call on its own deltas, memory and beta alone.

fedstale and the refresh take a round in one of two forms, chosen by the
number of participants P (`_reduces`). Below `REDUCE_FROM` a Python loop
visits the participants, one numpy call per operation each. From it on,
fedstale builds all P terms in one (..., P, dim) buffer and sums them with
one reduce, which adds the rows one after another like the loop, and the
refresh writes every row with one indexed assignment. Both forms give the
same bits; the loop costs less at one or two participants.

`fedstale` and `refresh_memory` also take a round's plan dict (see
`local_solver`): what they build from a participant set alone, the checks
and fedstale's buffers, is bound once per set and reused while the set
repeats, with the bits of a call without one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .local_solver import planned
from .objectives import DimensionMismatchError, Objective, check_param


_ZERO = np.zeros(())
_ZERO.flags.writeable = False


class NoParticipantsError(RuntimeError):
    """Plain averaging is undefined on an empty participant set."""


@dataclass(frozen=True)
class AggregatorConfig:
    rule: str = "fedstale"            # fedavg_biased | u_fedavg | u_fedvarp | fedstale
    beta: float = 0.5                 # staleness weight, used by fedstale only
    weights_source: str = "exact"     # exact | estimator
    weight_cap: float | None = None   # estimator cap, > 1 (inf: none); engine default if None

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
        # checked under either weight source; nan fails this too
        if self.weight_cap is not None and not self.weight_cap > 1:
            raise ValueError(f"weight_cap must be > 1, got {self.weight_cap}")

    @property
    def staleness_weight(self) -> float:
        """The beta that fedstale applies for this rule (unused by fedavg_biased)."""
        return self._RULE_BETA.get(self.rule, self.beta)


def _check_round(
    clients: Sequence[int],
    deltas: np.ndarray,
    slots: np.ndarray | None = None,
    beta: np.ndarray | None = None,
) -> None:
    """Check a round's participants, updates and memory, and fedstale's
    betas: one value, or one per leading entry of the updates."""
    shape = deltas.shape
    if shape[-2] != len(clients):
        raise ValueError(f"{len(clients)} clients but {shape[-2]} update rows")
    for k in range(1, len(clients)):
        if clients[k - 1] >= clients[k]:
            raise ValueError(f"client indices {list(clients)} are not ascending and distinct")
    if slots is None:
        return
    lead = shape[:-2]
    if slots.shape[:-2] != lead or (beta is not None and beta.ndim and beta.shape != lead):
        betas = "" if beta is None else f" and betas of shape {beta.shape}"
        raise DimensionMismatchError(
            f"updates of shape {deltas.shape}, a memory of shape {slots.shape}{betas} "
            "differ in their leading axes"
        )
    # ascending, so the ends bound every index
    if clients and not (clients[0] >= 0 and clients[-1] < slots.shape[-2]):
        raise IndexError(f"client indices {list(clients)} out of range [0, {slots.shape[-2]})")


def fedavg_biased(clients: Sequence[int], deltas: np.ndarray) -> np.ndarray:
    """Plain average over participants; biased under heterogeneous p_i."""
    _check_round(clients, deltas)
    if not len(clients):
        raise NoParticipantsError("no participants this round")
    delta = np.zeros(deltas.shape[:-2] + deltas.shape[-1:])
    for k in range(len(clients)):
        delta += deltas[..., k, :]
    delta /= len(clients)
    return delta


# Participants from which a round takes the reduce form (`_reduces`). A
# timeit of fedstale and the refresh, with and without plans (2-vCPU Xeon,
# numpy 2.4), put the crossover at 3. At 1 or 2 participants the loop costs
# less: 3.2 against 5.0 us for a planned fedstale and refresh at one config,
# P = 1, dim 2 and beta 0. From 3 on the reduce does: 44 against 115 us for
# a planned fedstale at 5 configs, P = 24, dim 110 and beta 0.5.
REDUCE_FROM = 3


def _reduces(clients, deltas) -> bool:
    """Whether a round's fedstale terms are summed with one reduce, and its
    memory refreshed with one indexed assignment, rather than a loop over
    the participants: from `REDUCE_FROM` participants on, at dim 2 or more.
    dim 1 keeps the loop: numpy reduces (..., P, 1) along P as a pairwise
    sum from 8 rows on, not row after row."""
    return len(clients) >= REDUCE_FROM and deltas.shape[-1] > 1


def vector_norm(x: np.ndarray) -> float:
    # float(np.linalg.norm(x)) for a 1-D float array, bit for bit, at a
    # fraction of its per-call cost.
    return math.sqrt(x.dot(x))


def fedstale(
    clients: Sequence[int],
    deltas: np.ndarray,
    slots: np.ndarray,
    weights: np.ndarray,
    beta: float | np.ndarray,
    plans: dict | None = None,
) -> np.ndarray:
    """Convex fresh/stale combination:
    (beta/N) sum_i h_i + (1/N) sum_{i in S} (delta_i - beta*h_i)/p_i.

    `deltas[k]` is client `clients[k]`'s fresh update, `slots` the (N, dim)
    memory whose row i is h_i, and `weights[i]` is 1/p_i (or its estimate).
    Does not mutate the memory. beta=0 is the unbiased average of fresh
    updates (u_fedavg), beta=1 the stale-proxy rule (u_fedvarp). With no
    participants the update is the stale term alone.

    On a stack, `deltas` (..., P, dim) and `slots` (..., N, dim), `beta` is
    one value for every entry or an array of the leading shape (...), one
    per entry.

    The fresh sum takes the loop or the reduce form (module docstring): a
    loop over the participants, or every term w_i * (d_i - beta * h_i) at
    once and one `np.add.reduce` over the participant axis from +0.0. Both
    add the terms in client order from +0.0, so they give the same bits.

    The call runs on a plan part (`_bind_fedstale`) that holds every check
    of the participants, shapes and beta, and the buffers. Without `plans`
    it binds a throwaway one. With a plan dict it keeps the part in the
    plan for `tuple(clients)` and reuses it when the set comes again
    (`local_solver.planned`): a dict serves one sequence of calls that share
    the shapes of `deltas` and `slots` and `beta`, and the caller clears it
    when any of them changes. `weights` is read on every call. The returned
    update then lives in the plan's buffer until the next call on the same
    set. Reusing a plan changes no bit of the update.
    """
    b, n_clients, stale, zero_rows, fresh, term, reduce = planned(
        plans, clients, "fedstale", _bind_fedstale, clients, deltas, slots, beta,
    )
    # A stale participant's term w_i * (d_i - b * h_i) is built in place in
    # the plan's term buffer; `deltas` is only read (engine passes local
    # SGD's buffer). The first term enters the fresh sum as 0.0 + term, the
    # bits of adding it to a zero-filled sum, signed zeros included (0.0 as
    # a 0-d array, which numpy does not convert on each use).
    multiply, subtract, add, divide = np.multiply, np.subtract, np.add, np.divide
    if reduce is None:
        for k, i in enumerate(clients):
            d = deltas[..., k, :]
            if stale:
                d = subtract(d, multiply(b, slots[..., i, :], term), term)
            add(fresh if k else _ZERO, multiply(weights[i], d, term), fresh)
    else:
        # Every participant's term at once, in the plan's (..., P, dim)
        # buffer, with the loop's operations, then one reduce over the
        # participant axis: numpy adds its rows one after another, from the
        # +0.0 start, so the fresh sum has the loop's bits. numpy does not
        # document that order; tests/test_aggregation.py pins it.
        b_rows, index, weight_index, terms = reduce
        d = deltas
        if stale:
            h = slots.take(index, -2, terms, "clip")   # the bind checked the indices
            d = subtract(d, multiply(b_rows, h, terms), terms)
        multiply(weights.take(weight_index), d, terms)
        np.add.reduce(terms, -2, None, fresh, False, 0.0)
    # the update, in the term buffer
    if not stale:
        return divide(fresh, n_clients, term)
    divide(fresh, n_clients, fresh)
    # ndarray.sum's reduction without its Python wrapper, then in place the
    # bits of b * sum / N + fresh (IEEE products and sums commute)
    update = np.add.reduce(slots, -2, None, term)
    multiply(update, b, update)
    divide(update, n_clients, update)
    add(update, fresh, update)
    if zero_rows is not None:
        # A beta=0 entry among stale ones: its loop terms d - 0*h sum to the
        # bits of d (the sum starts at +0.0, so a flipped signed zero never
        # shows), but 0 * sum(h) is nan if that sum overflows. Take its
        # fresh sum as it is.
        np.copyto(update, fresh, where=zero_rows)
    return update


def _bind_fedstale(clients, deltas, slots, beta) -> tuple:
    """fedstale's plan part for a round: beta as a 0-d array or a (..., 1)
    column, N as a 0-d float array, whether any beta is non-zero (else the
    stale terms are skipped, which changes no bit), the rows whose beta is 0
    among stale ones (or None), the fresh-sum and term buffers of the
    leading shape (..., dim), the term buffer taking the update once the
    terms are summed, and, in the reduce form, beta shaped to broadcast
    over (..., P, dim), the clients as an index array and as a (P, 1)
    column that gathers their weights, and the (..., P, dim) terms buffer
    (else None). Raises, binding nothing, on a beta outside [0, 1] or a
    round `_check_round` rejects."""
    beta = np.asarray(beta, dtype=float)
    values = beta.ravel().tolist()
    # One beta is held as a 0-d array, which broadcasts like a float; numpy
    # would convert a float on each use.
    if len(values) == 1:
        b = beta.reshape(())
        in_range = 0.0 <= values[0] <= 1.0
    else:
        b = beta[..., None]
        in_range = all(0.0 <= v <= 1.0 for v in values)
    if not in_range:
        raise ValueError("beta must lie in [0, 1]")
    _check_round(clients, deltas, slots, beta)
    stale = any(values)
    zero_rows = b == 0.0 if stale and not all(values) else None
    shape = deltas.shape[:-2] + deltas.shape[-1:]
    # With participants the first term overwrites the fresh sum; without,
    # the sum stays the zeros it starts at.
    fresh = np.empty(shape) if len(clients) else np.zeros(shape)
    # N as a 0-d float array: the bits of dividing by the int, at less cost
    n_clients = np.array(float(slots.shape[-2]))
    reduce = None
    if _reduces(clients, deltas):
        index = np.array(clients, dtype=np.intp)
        reduce = b[..., None] if b.ndim else b, index, index[:, None], np.empty(deltas.shape)
    return b, n_clients, stale, zero_rows, fresh, np.empty(shape), reduce


def u_fedavg(
    clients: Sequence[int], deltas: np.ndarray, slots: np.ndarray, weights: np.ndarray,
) -> np.ndarray:
    """(1/N) sum_{i in S} delta_i/p_i: fedstale at beta=0, which reads no slot."""
    return fedstale(clients, deltas, slots, weights, 0.0)


def u_fedvarp(
    clients: Sequence[int], deltas: np.ndarray, slots: np.ndarray, weights: np.ndarray,
) -> np.ndarray:
    """Stale updates as proxies for absent clients, fedstale at beta=1:
    (1/N) sum_i h_i + (1/N) sum_{i in S} (delta_i - h_i)/p_i."""
    return fedstale(clients, deltas, slots, weights, 1.0)


def refresh_memory(
    slots: np.ndarray, clients: Sequence[int], deltas: np.ndarray, plans: dict | None = None,
) -> None:
    """Overwrite participants' rows of the (N, dim) memory, or of every
    memory of a (..., N, dim) stack, with their fresh updates; in place:
    row by row, or in the reduce form (module docstring) with one indexed
    assignment.

    The round is checked once per plan part: with a plan dict, the part kept
    for `tuple(clients)` records that the set passed `_check_round`
    (`local_solver.planned`), and a dict serves calls that share the shapes
    of `slots` and `deltas`, as for `fedstale`.
    """
    pairs, index = planned(plans, clients, "refresh", _bind_refresh, clients, deltas, slots)
    if index is None:
        for k, i in pairs:
            slots[..., i, :] = deltas[..., k, :]
    else:
        slots[..., index, :] = deltas


def _bind_refresh(clients, deltas, slots) -> tuple:
    """refresh_memory's plan part for a round that `_check_round` accepts:
    in the loop form its (update row, memory row) pairs, in the reduce form
    its clients as an index array; the other entry is None."""
    _check_round(clients, deltas, slots)
    if _reduces(clients, deltas):
        return None, np.array(clients, dtype=np.intp)
    return list(enumerate(clients)), None


def memory_error(slots: np.ndarray, obj: Objective, w: np.ndarray) -> float | np.ndarray:
    """Mean squared deviation of the memory slots from the local gradients
    at w: (1/N) sum_i ||grad F_i(w) - slots[i]||^2, summed in client order.

    `slots` is an (N, dim) memory and `w` a point. Both may carry the same
    leading axes, `slots` (..., N, dim) and `w` (..., dim), one memory per
    point; the result then has shape (...), and each entry has the bits of
    the call on its memory and point alone.
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
