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

import numpy as np

# Sentinel client index for the global objective F = (1/N) sum F_i.
GLOBAL: int | None = None

# Master seed for the shared class cluster centers. Fixed so that only the
# swap fraction varies heterogeneity across grid cells.
DEFAULT_CENTER_SEED = 20240601


class DimensionMismatchError(ValueError):
    pass


def check_param(w: np.ndarray, dim: int, *, stacked: bool = False) -> np.ndarray:
    """Return `w` as a float array of shape (dim,), or of shape (..., dim)
    when `stacked`, with finite entries, or raise.

    Public entry points (the oracle methods `loss`, `gradient` and
    `stochastic_gradient`, and `run` and `memory_error`) call this once on
    the vector or stack they are given. The internal paths under them reuse
    the validated array without checking it again.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (dim,) or (w.ndim != 1 and not stacked):
        expected = f"(..., {dim})" if stacked else f"({dim},)"
        raise DimensionMismatchError(f"expected parameter of shape {expected}, got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("parameter vector contains non-finite entries")
    return w


def all_finite(x: np.ndarray) -> bool:
    """`np.isfinite(x).all()` for a float array, at half its per-call cost.

    x.0 is 0 when every entry of x is finite and nan otherwise (IEEE 754
    gives inf * 0 = nan), and unlike x.x it cannot overflow. An inf entry
    raises numpy's invalid-value warning, so callers on a path that may
    diverge run it under np.errstate(invalid="ignore"); `check_param`, which
    checks user input, keeps `np.isfinite`.
    """
    flat = x.ravel()
    return not math.isnan(flat.dot(np.zeros(flat.size)))


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

    The stochastic oracle is split in two kernels. `_draw(client,
    batch_size, rng)` makes one step's draw from the client's noise stream
    (a sorted minibatch, a noise vector, or None for an exact oracle).
    `_stochastic_gradients(clients, w, samples)` is batched: `w` has shape
    (configs, len(clients), dim), row (c, j) is config c's iterate at client
    `clients[j]`, and `samples[j]` is that client's draw, shared by every
    config. Each row's gradient has the same bits as the row computed alone.
    """

    n_clients: int
    dim: int

    # Whether `stochastic_gradient` draws from its `rng` argument; engine.run
    # builds the per-(client, round) noise stream only when it does.
    uses_rng: bool = True

    def _loss(self, w: np.ndarray, client: int | None) -> float:
        raise NotImplementedError

    def _gradient(self, w: np.ndarray, client: int | None) -> np.ndarray:
        raise NotImplementedError

    def _draw(self, client: int, batch_size: int, rng: np.random.Generator | None):
        return None

    def _stochastic_gradients(self, clients, w: np.ndarray, samples) -> np.ndarray:
        raise NotImplementedError

    def _one_stochastic_gradient(self, client, w, batch_size, rng) -> np.ndarray:
        """`stochastic_gradient` on a validated vector: a batch of one."""
        sample = self._draw(client, batch_size, rng)
        return self._stochastic_gradients([client], w[None, None], [sample])[0, 0]

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
        if noise_var < 0:
            raise ValueError("noise_var must be >= 0")
        self.n_clients = len(self.hessians)
        self.dim = self.centers[0].shape[0]
        for a, c in zip(self.hessians, self.centers):
            if a.shape != (self.dim, self.dim) or c.shape != (self.dim,):
                raise DimensionMismatchError("inconsistent quadratic dimensions")
            if not np.allclose(a, a.T):
                raise ValueError("Hessians must be symmetric")
            if np.linalg.eigvalsh(a)[0] <= 0:
                raise ValueError("Hessians must be positive definite")
        self.noise_var = float(noise_var)

    @classmethod
    def isotropic(cls, centers: list, noise_var: float = 0.0) -> "QuadraticObjective":
        centers = [np.asarray(c, dtype=float) for c in centers]
        d = centers[0].shape[0]
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

    def _loss(self, w, client):
        if client is GLOBAL:
            per_client = [self._loss(w, i) for i in range(self.n_clients)]
            return np.stack(per_client, axis=-1).mean(axis=-1)
        r = w - self.centers[client]
        return 0.5 * (r[..., None, :] @ self.hessians[client] @ r[..., None])[..., 0, 0]

    def _gradient(self, w, client):
        if client is GLOBAL:
            g = np.zeros(w.shape)
            for i in range(self.n_clients):
                g += self._gradient(w, i)
            return g / self.n_clients
        return (self.hessians[client] @ (w - self.centers[client])[..., None])[..., 0]

    def _draw(self, client, batch_size, rng):
        if self.noise_var == 0.0:
            return None
        return rng.normal(0.0, math.sqrt(self.noise_var / self.dim), size=self.dim)

    def _stochastic_gradients(self, clients, w, samples):
        # One matvec per row, as `_gradient` makes it: BLAS computes a stacked
        # product with other kernels, whose bits may differ.
        g = np.empty_like(w)
        for j, i in enumerate(clients):
            a, c = self.hessians[i], self.centers[i]
            for row in range(len(w)):
                g[row, j] = a @ (w[row, j] - c)
        if self.noise_var != 0.0:
            g += np.stack(samples)
        return g

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
        self.dataset = dataset
        self.n_clients = dataset.n_clients
        self.n_classes = dataset.class_count
        self.n_features = dataset.feature_dim
        self.dim = self.n_classes * (self.n_features + 1)
        self._classes = np.arange(self.n_classes)
        self.train_x: list[np.ndarray] = []
        self.train_y: list[np.ndarray] = []
        self.test_x: list[np.ndarray] = []
        self.test_y: list[np.ndarray] = []
        for x, y in zip(dataset.features, dataset.labels):
            n_test = int(round(holdout_fraction * len(y)))
            n_train = len(y) - n_test
            if n_train < 1:
                raise ValueError("holdout_fraction leaves a client with no training data")
            self.train_x.append(np.hstack([x[:n_train], np.ones((n_train, 1))]))
            self.train_y.append(y[:n_train])
            self.test_x.append(np.hstack([x[n_train:], np.ones((n_test, 1))]))
            self.test_y.append(y[n_train:])

    def _unpack(self, w: np.ndarray) -> np.ndarray:
        return w.reshape(*w.shape[:-1], self.n_classes, self.n_features + 1)

    @staticmethod
    def _log_softmax(z: np.ndarray) -> np.ndarray:
        z = z - z.max(axis=-1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def _client_loss(self, w_mat: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        logp = self._log_softmax(x @ w_mat.swapaxes(-1, -2))
        # A stack's gathered log-probs are not C-contiguous, and the mean of
        # a non-contiguous row need not have the bits of the 1-D mean.
        return -np.ascontiguousarray(logp[..., np.arange(len(y)), y]).mean(axis=-1)

    def _client_grad(self, w_mat: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mean cross-entropy gradient over the samples (x, y). Leading axes
        of `w_mat`, `x` and `y` are batch axes and broadcast; np.matmul
        computes each batch element with the bits of the 2-D product."""
        p = np.exp(self._log_softmax(x @ w_mat.swapaxes(-1, -2)))
        # p - 1 at each sample's label and p - 0 elsewhere: p's bits then.
        p -= y[..., None] == self._classes
        return (p.swapaxes(-1, -2) @ x) / y.shape[-1]

    def loss(self, w: np.ndarray, client: int | None = GLOBAL) -> float | np.ndarray:
        return self._oracle(self._loss, w, client)

    def gradient(self, w: np.ndarray, client: int | None = GLOBAL) -> np.ndarray:
        return self._oracle(self._gradient, w, client)

    def stochastic_gradient(self, client, w, batch_size, rng):
        return self._one_stochastic_gradient(client, self._validated(w, client), batch_size, rng)

    def _loss(self, w, client):
        w_mat = self._unpack(w)
        if client is GLOBAL:
            per_client = [
                self._client_loss(w_mat, x, y) for x, y in zip(self.train_x, self.train_y)
            ]
            return np.stack(per_client, axis=-1).mean(axis=-1)
        return self._client_loss(w_mat, self.train_x[client], self.train_y[client])

    def _gradient(self, w, client):
        w_mat = self._unpack(w)
        if client is GLOBAL:
            g = np.zeros_like(w_mat)
            for x, y in zip(self.train_x, self.train_y):
                g += self._client_grad(w_mat, x, y)
            return (g / self.n_clients).reshape(w.shape)
        x, y = self.train_x[client], self.train_y[client]
        return self._client_grad(w_mat, x, y).reshape(w.shape)

    def _draw(self, client, batch_size, rng):
        n = len(self.train_y[client])
        if n == 0:
            raise ValueError(f"client {client} has an empty dataset")
        if not 1 <= batch_size <= n:
            raise ValueError(f"batch_size must be in [1, {n}]")
        return np.sort(rng.choice(n, size=batch_size, replace=False))

    def _stochastic_gradients(self, clients, w, samples):
        x = np.stack([self.train_x[i][idx] for i, idx in zip(clients, samples)])
        y = np.stack([self.train_y[i][idx] for i, idx in zip(clients, samples)])
        return self._client_grad(self._unpack(w), x, y).reshape(w.shape)

    def test_accuracy(self, w: np.ndarray) -> float:
        w_mat = self._unpack(check_param(w, self.dim))
        hits = total = 0
        for x, y in zip(self.test_x, self.test_y):
            if len(y) == 0:
                continue
            pred = np.argmax(x @ w_mat.T, axis=1)
            hits += int((pred == y).sum())
            total += len(y)
        if total == 0:
            raise ValueError("no held-out samples available")
        return hits / total


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

    sigma_sq = 0.0
    for p in probes:
        for i in range(obj.n_clients):
            g_full = obj.gradient(p, i)
            dev = np.mean([
                np.sum((obj.stochastic_gradient(i, p, batch_size, rng) - g_full) ** 2)
                for _ in range(n_noise_draws)
            ])
            sigma_sq = max(sigma_sq, float(dev))
    return ObjectiveStats(smoothness, sg_sq, sigma_sq)
