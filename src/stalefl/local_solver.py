"""Local SGD: K steps per participating client, producing the round update.

One call steps a whole batch of configs (grid betas and client lrs that share
a round's participants and minibatches) through the same K steps together.

A round's *plan* is what its layers build from its participant set alone.
Local SGD's part holds the client checks, the lr factor, the (configs,
clients, dim) iterate and gradient buffers and the gradient kernel bound to
them; aggregation keeps its own parts in the same plan (`aggregation.fedstale`,
`aggregation.refresh_memory`). Given a plan dict, each layer keeps its part
in the plan under the participant tuple (`planned`) and reuses it when the
set comes again, so a part is bound once per participant set per run. The
dict holds at most `PLAN_LIMIT` plans; a new set past that evicts the
oldest.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .objectives import DimensionMismatchError, Objective, all_finite

# Plans a plan dict holds. Consecutive rounds of uneven participation mostly
# repeat one set, and a few plans also cover sets that alternate. A plan
# costs two float arrays of configs x clients x dim entries (iterates and
# gradients) plus its kernel's scratch, at most one dim-long row a config on
# the bundled objectives, and aggregation's two (configs, dim) buffers and,
# for a set of `aggregation.REDUCE_FROM` clients or more, a third configs x
# clients x dim array (fedstale's terms).
PLAN_LIMIT = 4


def planned(plans: dict | None, clients: Sequence[int], part: str, bind, *args):
    """The `part` of the plan for the participant set `clients`: the one kept
    in `plans` under `tuple(clients)`, or `bind(*args)`, which is kept there
    when `plans` is given. A new plan evicts the oldest past `PLAN_LIMIT`.
    Without `plans` every call binds a throwaway part. A bind that raises
    leaves the dict as it was."""
    if plans is None:
        return bind(*args)
    key = tuple(clients)
    plan = plans.get(key)
    kept = None if plan is None else plan.get(part)
    if kept is None:
        kept = bind(*args)
        if plan is None:
            if len(plans) >= PLAN_LIMIT:
                del plans[next(iter(plans))]   # the oldest: dicts keep insertion order
            plan = plans[key] = {}
        plan[part] = kept
    return kept


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


def local_train(
    obj: Objective,
    clients: Sequence[int],
    w_global: np.ndarray,
    cfg: LocalConfig,
    rng: np.random.Generator | None,
    client_lrs: Sequence[float],
    plans: dict | None = None,
) -> tuple[np.ndarray, list[DivergenceError | None]]:
    """Run K stochastic-gradient steps for every (config, client) pair in
    lockstep and return the updates.

    `w_global` holds one global iterate per config, shape (configs, dim), and
    `client_lrs` one client lr per config (`cfg.client_lr` is not read).
    Every config starts each client from its own iterate; the configs share
    `cfg`'s K and batch size and, per client, the samples. `rng` is the
    round's noise stream. Every client's K draws come from it in one
    `obj._draws` call, before any step (for a softmax objective, one block
    of uniform keys and one gather of the minibatch rows), and are fed to
    every config, so a config's iterates have the same bits as when it runs
    alone. engine builds the stream only when `obj.uses_rng` is true, and
    passes None to an exact oracle, which never draws.

    All iterates take one step at a time through the round's gradient
    kernel, which `obj._bind_stochastic_gradients` builds on the buffers of
    the local iterates and their gradients: every step writes
    the gradients into the one gradient buffer, each row with the bits of
    its call alone, and when every config shares one lr the step multiplies
    by it as a 0-d array (`lr_factor`). A non-finite entry stays non-finite,
    so their finiteness is checked once, after the K steps, by `all_finite`
    and, if that fails, by the exact `np.isfinite`; only when the exact
    check fails too are the steps replayed from `w_global`, on the recorded
    draws and through the same kernel, to find where each iterate first
    went non-finite. Returns the deltas, w_global - local iterate after K
    steps, of shape (configs, clients, dim), and per config the
    DivergenceError of its lowest-index client that went non-finite, at
    that client's first non-finite step, or None.

    Without `plans`, the call binds a throwaway plan part (module docstring)
    for its round. With a plan dict it takes the part kept in the plan for
    `tuple(clients)`, or binds one and keeps it there (`planned`). A dict
    serves one sequence of calls that share `obj`, `cfg`, the number of
    configs and `client_lrs`; the caller starts a new one, or clears it,
    when any of them changes. The returned deltas then live in the plan's
    iterate buffer: they hold until the next call that uses the same set,
    which overwrites them. Reusing a plan changes no bit of the deltas or
    the errors.
    """
    w_global = np.asarray(w_global, dtype=float)
    if w_global.ndim != 2 or w_global.shape[1] != obj.dim:
        raise DimensionMismatchError(
            f"expected global iterates of shape (configs, {obj.dim}), got {w_global.shape}"
        )
    lr, w, g, grads = planned(
        plans, clients, "local", _bind, obj, clients, len(w_global), client_lrs,
    )
    draws = obj._draws(clients, cfg.batch_size, cfg.local_steps, rng)
    start = w_global[:, None, :]   # each config's iterate, for each client
    _steps(grads, w, g, start, lr, draws)
    errors: list[DivergenceError | None] = [None] * len(w_global)
    # off the path of a finite round; the exact check settles an all_finite
    # false alarm without a replay
    if not all_finite(w) and not np.isfinite(w).all():
        if not np.isfinite(w_global).all():
            raise ValueError("global iterates contain non-finite entries")
        first_bad = np.full(w.shape[:2], -1)
        _steps(grads, w, g, start, lr, draws, first_bad)
        for c, steps in enumerate(first_bad):
            hit = np.flatnonzero(steps >= 0)
            if len(hit):
                errors[c] = DivergenceError(int(clients[hit[0]]), int(steps[hit[0]]))
    # the deltas, in the buffer of the local iterates
    return np.subtract(start, w, out=w), errors


def _bind(obj: Objective, clients: Sequence[int], configs: int, client_lrs) -> tuple:
    """A round's local-SGD plan part: the lr factor, the iterate and gradient
    buffers of shape (configs, len(clients), obj.dim) and the kernel bound
    to them."""
    for i in clients:
        obj._check_client(i)
    lr = lr_factor(np.asarray(client_lrs, dtype=float), 3)
    w = np.empty((configs, len(clients), obj.dim))
    g = np.empty(w.shape)
    return lr, w, g, obj._bind_stochastic_gradients(clients, w, g)


def _steps(grads, w, g, start, lr, draws, first_bad=None) -> None:
    """Set `w` to the iterates after one step per entry of `draws`, from
    `start`, which broadcasts to `w`; `grads` is the kernel bound to `w`
    that writes each step's gradients into `g`. With `first_bad` given, also
    records in it, per (config, client), the first step whose iterate is
    non-finite (entries left at -1 stay finite)."""
    w[...] = start
    multiply, subtract = np.multiply, np.subtract
    for k, sample in enumerate(draws):
        grads(sample)
        # the bits of w -= lr * g: IEEE multiplication commutes
        multiply(g, lr, g)
        subtract(w, g, w)
        if first_bad is not None:
            bad = ~np.isfinite(w).all(axis=2)
            first_bad[bad & (first_bad < 0)] = k


def lr_factor(lrs: np.ndarray, ndim: int) -> np.ndarray:
    """The factor that scales a stack of `ndim` axes, with one row per entry
    of the 1-D `lrs`, by its row's lr: lrs[0] as a 0-d array when every
    entry has that value, else `lrs` with ndim - 1 trailing unit axes. Both
    give the bits of the per-row product; a 0-d array costs the least per
    call (less than a Python float, which numpy converts on every call)."""
    if len(lrs) == 1 or (lrs == lrs[0]).all():
        return lrs[0, ...]
    return lrs.reshape(len(lrs), *[1] * (ndim - 1))
