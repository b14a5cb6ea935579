"""Finite-sum objectives, gradient oracles, and synthetic heterogeneous data.

All objectives expose the same oracle interface (loss / gradient /
stochastic_gradient), either per client or for the global average objective
F(w) = (1/N) sum_i F_i(w). `loss` and `gradient` also take a stack of points,
shape (..., dim), and evaluate each one with the bits of a call on it alone.
Objectives are immutable after construction and safe to query from
concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

# Sentinel client index for the global objective F = (1/N) sum F_i.
GLOBAL: int | None = None

# Master seed for the shared class cluster centers. Fixed so that only the
# swap fraction varies heterogeneity across grid cells.
DEFAULT_CENTER_SEED = 20240601


class DimensionMismatchError(ValueError):
    pass


def check_param(w: np.ndarray, dim: int, *, stacked: bool = False) -> np.ndarray:
    """Return `w` as a C-contiguous float array of shape (dim,), or of shape
    (..., dim) when `stacked`, with finite entries, or raise. C order is
    what lets a kernel reduce a stack's rows with the bits of the 1-D call.

    Public entry points (the oracle methods `loss`, `gradient` and
    `stochastic_gradient`, and `run` and `memory_error`) call this once on
    the vector or stack they are given. The internal paths under them reuse
    the validated array without checking it again.
    """
    w = np.asarray(w, dtype=float, order="C")
    if w.shape[-1:] != (dim,) or (w.ndim != 1 and not stacked):
        expected = f"(..., {dim})" if stacked else f"({dim},)"
        raise DimensionMismatchError(f"expected parameter of shape {expected}, got {w.shape}")
    require_finite(w, "parameter vector")
    return w


def require_finite(x: np.ndarray, what: str) -> None:
    """Raise ValueError, naming `what`, unless every entry of `x` is finite:
    the check of a parameter (`check_param`) and of a quadratic's centers
    and Hessians."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} contains non-finite entries")


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of the float array `x` is finite, at a fraction of
    `np.isfinite(x).all()`'s per-call cost: x.x is nan or inf when an entry
    is. It is inf too when finite entries' squares overflow (above about
    1.3e154), a false alarm that callers settle with an exact check. Only
    that overflow warns, so callers on a path that may diverge run it under
    np.errstate(over="ignore"); `check_param`, which checks user input,
    keeps `np.isfinite`.
    """
    v = x.ravel()
    return math.isfinite(v.dot(v))


@dataclass(frozen=True)
class ObjectiveStats:
    """Empirical or exact smoothness/variance constants of an objective."""

    smoothness_L: float
    sg_sq: float      # data-heterogeneity variance bound
    sigma_sq: float   # stochastic-gradient variance bound


class Objective:
    """Base oracle interface shared by all objective kinds.

    Each kind defines the public oracle methods `loss(w, client)`,
    `gradient(w, client)` and `stochastic_gradient(client, w, batch_size,
    rng)` in its own class body (perfbench/tracer.py wraps them per class).
    They validate `w` (`check_param`) and the client index once and then call
    the matching kernel, which takes the validated vector as it is. Callers
    that already hold a validated vector (the per-client terms of the global
    objective, local SGD steps, the memory error) call the kernels directly.

    `loss` and `gradient` and their kernels `_loss` and `_gradient`
    broadcast over leading axes: `w` of shape (..., dim) gives losses of
    shape (...) and gradients of shape (..., dim). Every entry has the bits
    of the call on its point alone, so the kernels keep each 1-D expression's
    operand order and use only per-slice `np.matmul` (a stacked 2-D product
    is one gemm, whose bits differ), and they reduce along a last axis only
    on C-contiguous arrays. A single point gives a float loss and a 1-D
    gradient.

    A kind defines the per-client kernels `_client_loss(w, client)` and
    `_client_gradient(w, client)`; under GLOBAL, `_loss` and `_gradient`
    average them over the clients in index order. A kind that stores its
    global form (HardInstance) overrides `_loss` and `_gradient` instead.

    The stochastic oracle is split in two kernels.
    `_draws(clients, batch_size, steps, rng)` makes every draw of a round for
    all of `clients` in one call on the round's one noise stream `rng`, and
    returns a sequence whose item k is step k's draw for every client, in the
    order of `clients` (for an exact oracle, which draws nothing, None).
    Client i's draws are row i of one block drawn for all N clients, so they
    depend on the stream and on i alone, never on which other clients are
    asked for. `_bind_stochastic_gradients(clients, w, out)` is the binder:
    local SGD calls it once per participant set of a run (see
    `local_solver`), and it returns a function `grads(sample)` for the steps
    of every round of that set. `w` has shape (configs,
    len(clients), dim), row (c, j) is config c's iterate at client
    `clients[j]`, and `out` is a C-contiguous float array of `w`'s shape.
    The binder builds the views of `w` and `out`, the scratch buffers and
    the per-client operators once; each `grads(sample)` call reads the
    current values of `w`, which the caller may update in place between
    steps, writes the gradients at `sample` (one item of `_draws`, shared by
    every config) into `out` and returns `out`. Each row keeps the bits of
    the row's call alone.

    A noisy quadratic draws an (N, steps, dim) normal block. A softmax
    objective draws an (N, steps, n_max) block of uniform keys, where n_max
    is the largest client's sample count, and takes each client's minibatch
    as the indices of its batch_size smallest keys: O(N * steps * n_max)
    whatever the batch size or the number of clients. It keeps its training
    samples in one flat array, so a round gathers every step's minibatch
    rows with one index, and compares every step's labels with the classes
    in one call: its sample is a (minibatch rows, one-hot labels) pair.

    The public `stochastic_gradient(client, w, batch_size, rng)` is
    `_draws([client], batch_size, 1, rng)` and one bound step, so each call
    draws one step of that N-client block from `rng`: O(N) draws for one
    client's gradient. `estimate_stats` draws one block a probe for all
    clients instead of one per client and draw.
    """

    n_clients: int
    dim: int

    # Whether `stochastic_gradient` draws from its `rng` argument; engine.run
    # builds a round's noise stream only when it does.
    uses_rng: bool = True

    def _loss(self, w: np.ndarray, client: int | None) -> np.ndarray:
        if client is GLOBAL:
            per_client = [self._client_loss(w, i) for i in range(self.n_clients)]
            return np.stack(per_client, axis=-1).mean(axis=-1)
        return self._client_loss(w, client)

    def _gradient(self, w: np.ndarray, client: int | None) -> np.ndarray:
        if client is GLOBAL:
            g = np.zeros(w.shape)
            for i in range(self.n_clients):
                g += self._client_gradient(w, i)
            return g / self.n_clients
        return self._client_gradient(w, client)

    def _draws(self, clients, batch_size: int, steps: int, rng: np.random.Generator | None):
        return [None] * steps

    def _bind_stochastic_gradients(self, clients, w: np.ndarray, out: np.ndarray):
        raise NotImplementedError

    def _one_stochastic_gradient(self, client, w, batch_size, rng) -> np.ndarray:
        """`stochastic_gradient` on a validated vector: a batch of one."""
        sample = self._draws([client], batch_size, 1, rng)[0]
        w = w[None, None]
        return self._bind_stochastic_gradients([client], w, np.empty(w.shape))(sample)[0, 0]

    def _validated(self, w: np.ndarray, client: int | None) -> np.ndarray:
        w = check_param(w, self.dim)
        self._check_client(client)
        return w

    def _oracle(self, kernel, w: np.ndarray, client: int | None):
        """`kernel(w, client)` for the public `loss` or `gradient` on a
        point or a stack of points; a single point's loss is a float."""
        w = check_param(w, self.dim, stacked=True)
        self._check_client(client)
        out = kernel(w, client)
        return float(out) if out.ndim == 0 else out

    def _check_client(self, client: int | None) -> None:
        if client is GLOBAL:
            return
        if not 0 <= client < self.n_clients:
            raise IndexError(f"client index {client} out of range [0, {self.n_clients})")


class QuadraticObjective(Objective):
    """Per-client positive-definite quadratics F_i(w) = 1/2 (w-c_i)' A_i (w-c_i).

    The stochastic oracle adds zero-mean isotropic Gaussian noise with total
    variance `noise_var` (E||g~ - g||^2 = noise_var) instead of sampling data;
    `noise_var=0` makes the oracle exact. `batch_size` is accepted for
    interface compatibility and ignored.
    """

    def __init__(
        self,
        hessians: list[np.ndarray] | np.ndarray,
        centers: list[np.ndarray] | np.ndarray,
        noise_var: float = 0.0,
    ):
        self.hessians = [np.asarray(a, dtype=float) for a in hessians]
        self.centers = [np.asarray(c, dtype=float) for c in centers]
        if len(self.hessians) != len(self.centers):
            raise ValueError("need one Hessian per center")
        if not self.centers:
            raise ValueError("need at least one client")
        if not (noise_var >= 0 and math.isfinite(noise_var)):
            raise ValueError(f"noise_var must be finite and >= 0, got {noise_var}")
        self.n_clients = len(self.hessians)
        if self.centers[0].ndim != 1 or len(self.centers[0]) < 1:
            raise ValueError("the centers must be vectors of at least one coordinate")
        self.dim = self.centers[0].shape[0]
        for i, (a, c) in enumerate(zip(self.hessians, self.centers)):
            if a.shape != (self.dim, self.dim) or c.shape != (self.dim,):
                raise DimensionMismatchError("inconsistent quadratic dimensions")
            require_finite(a, f"the Hessian of client {i}")
            require_finite(c, f"the center of client {i}")
            if not np.allclose(a, a.T):
                raise ValueError("Hessians must be symmetric")
            if np.linalg.eigvalsh(a)[0] <= 0:
                raise ValueError("Hessians must be positive definite")
        self.noise_var = float(noise_var)
        # Each client's matvec, with the bits of `_client_gradient`'s matmul:
        # a stacked product runs gemm, whose bits may differ. At dim >= 2,
        # `ndarray.dot` reaches the same cblas_dgemv as `np.matmul` without
        # the gufunc's dispatch. At dim 1 numpy sends matmul to ddot, which
        # gives +0.0 for a -0.0 product, and dot to a scalar multiply, which
        # gives -0.0; so dim 1 keeps matmul.
        self._matvecs = [
            a.dot if self.dim > 1 else partial(np.matmul, a) for a in self.hessians
        ]

    @classmethod
    def isotropic(cls, centers: list, noise_var: float = 0.0) -> "QuadraticObjective":
        centers = [np.asarray(c, dtype=float) for c in centers]
        d = centers[0].shape[0] if centers else 0
        return cls([np.eye(d)] * len(centers), centers, noise_var)

    @property
    def uses_rng(self) -> bool:
        return self.noise_var != 0.0

    def loss(self, w: np.ndarray, client: int | None = GLOBAL) -> float | np.ndarray:
        return self._oracle(self._loss, w, client)

    def gradient(self, w: np.ndarray, client: int | None = GLOBAL) -> np.ndarray:
        return self._oracle(self._gradient, w, client)

    def stochastic_gradient(self, client, w, batch_size, rng):
        return self._one_stochastic_gradient(client, self._validated(w, client), batch_size, rng)

    def _client_loss(self, w, client):
        r = w - self.centers[client]
        return 0.5 * (r[..., None, :] @ self.hessians[client] @ r[..., None])[..., 0, 0]

    def _client_gradient(self, w, client):
        return (self.hessians[client] @ (w - self.centers[client])[..., None])[..., 0]

    def _draws(self, clients, batch_size, steps, rng):
        if self.noise_var == 0.0:
            return [None] * steps
        sd = math.sqrt(self.noise_var / self.dim)
        noise = rng.normal(0.0, sd, size=(self.n_clients, steps, self.dim))
        return noise[clients].swapaxes(0, 1)

    def _bind_stochastic_gradients(self, clients, w, out):
        # One matvec per (config, client) row, on that row's views of `w`
        # and `out`, through one residual buffer.
        rows = [
            (w[row, j], self.centers[i], self._matvecs[i], out[row, j])
            for j, i in enumerate(clients) for row in range(len(w))
        ]
        r = np.empty(self.dim)
        subtract, add = np.subtract, np.add
        noisy = self.noise_var != 0.0

        def grads(sample):
            for x, c, matvec, o in rows:
                subtract(x, c, r)
                matvec(r, o)
            if noisy:
                add(out, sample, out)
            return out

        return grads

    def global_minimizer(self) -> np.ndarray:
        a_bar = np.mean(self.hessians, axis=0)
        b_bar = np.mean([a @ c for a, c in zip(self.hessians, self.centers)], axis=0)
        return np.linalg.solve(a_bar, b_bar)

    def smoothness(self) -> float:
        # Exact: max Hessian eigenvalue over clients.
        return max(float(np.linalg.eigvalsh(a)[-1]) for a in self.hessians)


@dataclass
class SyntheticDataset:
    """Per-client labelled samples with a two-group label-swap structure."""

    features: list[np.ndarray]    # per client, (n_i, d)
    labels: list[np.ndarray]      # per client, (n_i,) ints
    groups: np.ndarray            # per client, 1 or 2
    class_count: int
    swap_fraction: float
    class_pair: tuple[int, int]

    @property
    def n_clients(self) -> int:
        return len(self.features)

    @property
    def feature_dim(self) -> int:
        return self.features[0].shape[1]


def _swap_labels(labels: np.ndarray, frac: float, pair: tuple[int, int]) -> np.ndarray:
    """Relabel floor(frac*m) samples of each class in `pair` to the other class."""
    a, b = pair
    out = labels.copy()
    original = labels.copy()
    for src, dst in ((a, b), (b, a)):
        idx = np.nonzero(original == src)[0]
        n_swap = int(math.floor(frac * len(idx)))
        out[idx[:n_swap]] = dst
    return out


def build_label_swap_dataset(
    n_clients: int,
    samples_per_client: int,
    swap_fraction: float,
    class_pair: tuple[int, int] = (0, 1),
    rng: np.random.Generator | None = None,
    *,
    class_count: int = 10,
    feature_dim: int = 10,
    cluster_std: float = 1.0,
    group2: np.ndarray | list[int] | None = None,
) -> SyntheticDataset:
    """Gaussian cluster per class with fixed shared centers; group-2 clients get
    a fraction of the designated class pair relabeled.

    If `group2` is None, the second half of a seeded shuffle of clients forms
    group 2 (pass the low-participation client indices for grid consistency).
    """
    if not 0.0 <= swap_fraction <= 1.0:
        raise ValueError("swap_fraction must lie in [0, 1]")
    if not (cluster_std >= 0 and math.isfinite(cluster_std)):
        raise ValueError(f"cluster_std must be finite and >= 0, got {cluster_std}")
    a, b = class_pair
    if a == b or not (0 <= a < class_count and 0 <= b < class_count):
        raise ValueError("class_pair must be two distinct valid class indices")
    if rng is None:
        rng = np.random.default_rng(0)

    # Centers are drawn once from the fixed master seed so that only
    # swap_fraction varies heterogeneity across experiments.
    center_rng = np.random.default_rng(DEFAULT_CENTER_SEED)
    centers = center_rng.normal(0.0, 3.0, size=(class_count, feature_dim))

    groups = np.ones(n_clients, dtype=int)
    if group2 is None:
        order = rng.permutation(n_clients)
        groups[order[n_clients // 2:]] = 2
    else:
        groups[np.asarray(group2, dtype=int)] = 2

    features, labels = [], []
    for i in range(n_clients):
        y = rng.integers(0, class_count, size=samples_per_client)
        x = centers[y] + rng.normal(0.0, cluster_std, size=(samples_per_client, feature_dim))
        if groups[i] == 2:
            y = _swap_labels(y, swap_fraction, class_pair)
        features.append(x)
        labels.append(y.astype(int))
    return SyntheticDataset(features, labels, groups, class_count, swap_fraction, class_pair)


class SoftmaxObjective(Objective):
    """Multinomial logistic regression over a SyntheticDataset.

    Parameters are the flattened (class_count x (feature_dim+1)) weight matrix,
    bias in the last column. Per-client loss is the mean cross-entropy over
    that client's training samples.
    """

    def __init__(self, dataset: SyntheticDataset, holdout_fraction: float = 0.0):
        if not 0.0 <= holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must lie in [0, 1), got {holdout_fraction}")
        self.dataset = dataset
        self.n_clients = dataset.n_clients
        self.n_classes = dataset.class_count
        self.n_features = dataset.feature_dim
        self.dim = self.n_classes * (self.n_features + 1)
        train_x, train_y = [], []
        self.test_x: list[np.ndarray] = []
        self.test_y: list[np.ndarray] = []
        for x, y in zip(dataset.features, dataset.labels):
            n_test = int(round(holdout_fraction * len(y)))
            n_train = len(y) - n_test
            if n_train < 1:
                raise ValueError("holdout_fraction leaves a client with no training data")
            train_x.append(np.hstack([x[:n_train], np.ones((n_train, 1))]))
            train_y.append(y[:n_train])
            self.test_x.append(np.hstack([x[n_train:], np.ones((n_test, 1))]))
            self.test_y.append(y[n_train:])
        # Every client's training samples, client after client, in one flat
        # (sum n_i, features + 1) array; train_x[i] and train_y[i] are views
        # of client i's rows, which start at _offsets[i].
        self._n_train = np.array([len(y) for y in train_y])
        self._offsets = np.cumsum(self._n_train) - self._n_train
        self._flat_x = np.concatenate(train_x)
        self._flat_y = np.concatenate(train_y)
        self.train_x = np.split(self._flat_x, self._offsets[1:])
        self.train_y = np.split(self._flat_y, self._offsets[1:])
        # Each training sample's one-hot label as floats, row for row with
        # _flat_x: a gradient subtracts 1.0 and 0.0 without a bool cast.
        self._flat_onehot = (self._flat_y[:, None] == np.arange(self.n_classes)).astype(float)
        self._onehot = np.split(self._flat_onehot, self._offsets[1:])
        # The sample counts 0..n_max as floats. _counts[n, ...] is a 0-d
        # array, the divisor of a mean over n samples: the bits of dividing
        # by the int n, which numpy would convert on each use.
        self._counts = np.arange(self._n_train.max() + 1, dtype=float)
        # Added to a client's (steps, n_max) keys: 2 past its own samples, so
        # a padded slot never ranks among the batch_size smallest keys.
        self._key_pad = np.where(
            np.arange(self._n_train.max()) < self._n_train[:, None], 0.0, 2.0,
        )

    def _unpack(self, w: np.ndarray) -> np.ndarray:
        return w.reshape(*w.shape[:-1], self.n_classes, self.n_features + 1)

    @staticmethod
    def _log_softmax(z: np.ndarray) -> np.ndarray:
        z = z - z.max(axis=-1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def _samples_loss(self, w_mat: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        logp = self._log_softmax(x @ w_mat.swapaxes(-1, -2))
        # A stack's gathered log-probs are not C-contiguous, and the mean of
        # a non-contiguous row need not have the bits of the 1-D mean.
        return -np.ascontiguousarray(logp[..., np.arange(len(y)), y]).mean(axis=-1)

    def _samples_grad(
        self, w_t: np.ndarray, x: np.ndarray, onehot: np.ndarray, out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Mean cross-entropy gradient, in `out` if given, over the samples
        `x` (..., n, features + 1) with float one-hot labels `onehot` (...,
        n, classes), at the transposed weights `w_t` (..., features + 1,
        classes). Leading axes are batch axes and broadcast; np.matmul
        computes each batch element with the bits of the 2-D product."""
        z = x @ w_t
        # The row max, reduced over the leading axis of a class-major copy,
        # costs less than z.max(axis=-1) over a short last axis. A max is
        # exact, so only the sign of a zero max can differ, and the zero
        # logits it shifts to +-0 still give p = exp(+-0) = 1: p keeps the
        # bits of np.exp(self._log_softmax(z)).
        class_major = z.transpose(z.ndim - 1, *range(z.ndim - 1))
        z -= np.maximum.reduce(np.ascontiguousarray(class_major), axis=0)[..., None]
        z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
        p = np.exp(z, out=z)
        # p - 1.0 at each sample's label and p - 0.0 elsewhere: p's bits then.
        p -= onehot
        return np.divide(p.swapaxes(-1, -2) @ x, self._counts[x.shape[-2], ...], out=out)

    def loss(self, w: np.ndarray, client: int | None = GLOBAL) -> float | np.ndarray:
        return self._oracle(self._loss, w, client)

    def gradient(self, w: np.ndarray, client: int | None = GLOBAL) -> np.ndarray:
        return self._oracle(self._gradient, w, client)

    def stochastic_gradient(self, client, w, batch_size, rng):
        return self._one_stochastic_gradient(client, self._validated(w, client), batch_size, rng)

    def _client_loss(self, w, client):
        return self._samples_loss(self._unpack(w), self.train_x[client], self.train_y[client])

    def _client_gradient(self, w, client):
        w_t = self._unpack(w).swapaxes(-1, -2)
        return self._samples_grad(w_t, self.train_x[client], self._onehot[client]).reshape(w.shape)

    def _minibatches(self, clients, batch_size, steps, rng):
        """The (steps, len(clients), batch_size) sample indices of a round:
        [k, j] is client clients[j]'s step-k minibatch, the indices of the
        batch_size smallest of its n keys in row clients[j] of one
        (N, steps, n_max) uniform block, in ascending order. That is a
        uniform subset, and every index when batch_size = n. With no
        clients the block is drawn all the same, and no index is taken."""
        n = self._n_train[clients]
        least = n.min() if len(n) else math.inf   # no client bounds it from above
        if not 1 <= batch_size <= least:
            raise ValueError(f"batch_size must be in [1, {least}]")
        keys = rng.random((self.n_clients, steps, self._key_pad.shape[1]))[clients]
        if not len(n):
            return np.empty((steps, 0, batch_size), dtype=np.intp)
        keys += self._key_pad[clients][:, None, :]
        idx = np.argpartition(keys, batch_size - 1, axis=2)[..., :batch_size]
        idx.sort(axis=2)
        return idx.swapaxes(0, 1)

    def _draws(self, clients, batch_size, steps, rng):
        # Two gathers: the (steps, P, batch_size) flat row indices give
        # C-contiguous (P, batch_size, features + 1) rows and (P,
        # batch_size, classes) float one-hot labels for every step.
        rows = self._minibatches(clients, batch_size, steps, rng)
        rows = rows + self._offsets[clients][:, None]
        return list(zip(self._flat_x[rows], self._flat_onehot[rows]))

    def _bind_stochastic_gradients(self, clients, w, out):
        w_t = self._unpack(w).swapaxes(-1, -2)
        out_mat = self._unpack(out)   # a view: `out` is C-contiguous

        def grads(sample):
            x, onehot = sample
            self._samples_grad(w_t, x, onehot, out_mat)
            return out

        return grads

    def test_accuracy(self, w: np.ndarray) -> float | np.ndarray:
        """The share of held-out samples whose largest logit is their label's.

        Like `loss`, it takes a point or a stack of points (..., dim) and
        gives a float or an array of shape (...), each entry with the bits
        of the call on its point alone: one per-slice matmul per client, an
        exact argmax and integer hit counts."""
        w_t = self._unpack(check_param(w, self.dim, stacked=True)).swapaxes(-1, -2)
        hits = np.zeros(w_t.shape[:-2], dtype=np.int64)
        total = 0
        for x, y in zip(self.test_x, self.test_y):
            if len(y) == 0:
                continue
            hits += (np.argmax(x @ w_t, axis=-1) == y).sum(axis=-1)
            total += len(y)
        if total == 0:
            raise ValueError("no held-out samples available")
        acc = hits / total
        return float(acc) if acc.ndim == 0 else acc


def estimate_stats(
    obj: Objective,
    probe_points: list[np.ndarray],
    *,
    rng: np.random.Generator | None = None,
    batch_size: int = 1,
    n_noise_draws: int = 32,
) -> ObjectiveStats:
    """Empirical smoothness and variance constants from probe points.

    L-hat is the max pairwise gradient difference ratio over probes and
    clients (exact max Hessian eigenvalue for quadratics); sg_sq is the max
    over probes/clients of ||grad_i - grad||^2; sigma_sq is the max empirical
    batch-gradient variance around the full gradient.
    """
    if len(probe_points) < 2:
        raise ValueError("need at least 2 probe points")
    probes = [check_param(np.asarray(p, dtype=float), obj.dim) for p in probe_points]
    if rng is None:
        rng = np.random.default_rng(0)

    if isinstance(obj, QuadraticObjective):
        smoothness = obj.smoothness()
    else:
        smoothness = 0.0
        for i in range(obj.n_clients):
            grads = [obj.gradient(p, i) for p in probes]
            for a in range(len(probes)):
                for b in range(a + 1, len(probes)):
                    du = float(np.linalg.norm(probes[a] - probes[b]))
                    if du > 0:
                        dg = float(np.linalg.norm(grads[a] - grads[b]))
                        smoothness = max(smoothness, dg / du)

    sg_sq = 0.0
    for p in probes:
        g_global = obj.gradient(p, GLOBAL)
        for i in range(obj.n_clients):
            sg_sq = max(sg_sq, float(np.sum((obj.gradient(p, i) - g_global) ** 2)))

    # One `_draws` call a probe serves every client: n_noise_draws steps of
    # the (N, steps, ...) block a round of local training draws.
    clients = list(range(obj.n_clients))
    sigma_sq = 0.0
    for p in probes:
        g_full = np.stack([obj.gradient(p, i) for i in clients])
        w = np.broadcast_to(p, (1, obj.n_clients, obj.dim))
        grads = obj._bind_stochastic_gradients(clients, w, np.empty(w.shape))
        dev = np.mean([
            np.sum((grads(sample)[0] - g_full) ** 2, axis=1)
            for sample in obj._draws(clients, batch_size, n_noise_draws, rng)
        ], axis=0)
        sigma_sq = max(sigma_sq, float(dev.max()))
    return ObjectiveStats(smoothness, sg_sq, sigma_sq)
