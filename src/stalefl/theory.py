"""Convergence-bound evaluators and the worst-case hard instance.

The upper-bound breakdown and the optimal staleness weight are evaluated with
all hidden constants set to 1 (a1 = a2 = 1 unless overridden), so outputs are
for qualitative/trend use. The hard instance splits a tridiagonal quadratic
between the most- and least-participating clients so that coordinate
discovery is rate-limited by the least participating one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import GLOBAL, Objective


@dataclass(frozen=True)
class BoundInputs:
    smoothness_L: float
    sigma_sq: float
    sg_sq: float
    p_var: float          # +inf under full participation
    p_avg: float
    p_min: float
    n_clients: int
    local_steps: int
    client_lr: float
    server_lr: float
    rounds: int
    beta: float
    f_init_gap: float = 1.0
    h_init: float = 0.0
    a1: float = 1.0
    a2: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        for name in ("smoothness_L", "sigma_sq", "sg_sq", "f_init_gap", "h_init"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.a1 <= 0 or self.a2 <= 0:
            raise ValueError("a1 and a2 must be positive")
        if not (self.p_var > 0 and self.p_avg > 0 and self.p_min > 0):
            raise ValueError("p_var, p_avg and p_min must be positive")
        if min(self.n_clients, self.local_steps, self.rounds) < 1:
            raise ValueError("n_clients, local_steps and rounds must be >= 1")


@dataclass(frozen=True)
class BoundBreakdown:
    iterate_init_term: float
    memory_init_term: float
    stochastic_term: float
    heterogeneity_term: float

    @property
    def total(self) -> float:
        return (
            self.iterate_init_term
            + self.memory_init_term
            + self.stochastic_term
            + self.heterogeneity_term
        )


@dataclass(frozen=True)
class ConstraintReport:
    ok: bool
    violated: tuple[str, ...] = ()
    client_lr_max: float = math.inf
    server_lr_max: float = math.inf


def check_lr_constraints(inp: BoundInputs) -> ConstraintReport:
    """Sufficient learning-rate conditions for the upper bound.

    Client: eta_c <= 1/(8LK). Server: eta_s bounded by the fresh-update term
    (vacuous at beta=1) and the stale-update term (vacuous at beta=0); both
    vacuous under full participation (p_var = +inf).
    """
    violated = []
    c_max = math.inf
    if inp.smoothness_L > 0:
        c_max = 1.0 / (8.0 * inp.smoothness_L * inp.local_steps)
        if inp.client_lr > c_max:
            violated.append("client_lr")
    s_max = math.inf
    if math.isfinite(inp.p_var):
        fresh = math.inf
        if inp.beta < 1.0:
            fresh = inp.n_clients * inp.p_var / (12.0 * (1.0 - inp.beta) ** 2)
        stale = math.inf
        # beta**2 can underflow to 0 for tiny beta; the constraint is vacuous there.
        if inp.beta > 0.0 and inp.beta**2 > 0.0:
            stale = inp.p_var * inp.p_min / (3.0 * inp.beta**2 * inp.p_avg)
        s_max = min(fresh, stale)
        if inp.server_lr > s_max:
            violated.append("server_lr")
    return ConstraintReport(not violated, tuple(violated), c_max, s_max)


def theorem1_bound(inp: BoundInputs, *, override_constraints: bool = False) -> BoundBreakdown:
    """Four-term upper bound on min_t E||grad F(w^(t))||^2, unit constants."""
    report = check_lr_constraints(inp)
    if not report.ok and not override_constraints:
        raise ValueError(f"learning-rate constraints violated: {report.violated}")
    L, K, T = inp.smoothness_L, inp.local_steps, inp.rounds
    ec, es, b = inp.client_lr, inp.server_lr, inp.beta
    inv_p_var = 0.0 if math.isinf(inp.p_var) else 1.0 / inp.p_var
    ratio = inp.p_avg / inp.p_min
    iterate = inp.f_init_gap / (es * ec * K * T)
    memory = b**2 * es * ec * L * K * inp.h_init * inv_p_var / (inp.p_min * T)
    stochastic = (1.0 / inp.n_clients + b**2 * ratio) * es * ec * L * inp.sigma_sq * inv_p_var
    heterogeneity = (
        ((1.0 - b) ** 2 / inp.n_clients + b**2 * ec**2 * L**2 * K * (K - 1) * ratio)
        * es * ec * L * K * inp.sg_sq * inv_p_var
    )
    return BoundBreakdown(iterate, memory, stochastic, heterogeneity)


def beta_star(inp: BoundInputs) -> float:
    """Optimal staleness weight from the bound's quadratic dependence on beta,
    clamped to [0, 1]."""
    ratio = inp.p_avg / inp.p_min
    denom = inp.a1 * ratio * inp.sigma_sq / inp.local_steps + (
        1.0 / inp.n_clients
        + inp.a2 * ratio * inp.client_lr**2 * inp.smoothness_L**2
        * inp.local_steps * (inp.local_steps - 1)
    ) * inp.sg_sq
    if denom <= 0.0:
        raise ValueError("beta_star undefined: both variance terms are zero")
    return min(max((inp.sg_sq / inp.n_clients) / denom, 0.0), 1.0)


class HardInstance(Objective):
    """Tridiagonal quadratic split between two clients.

    The global objective is F(w) = L/8 (w' A w - 2 w_1) where A is the
    {2, -1} tridiagonal matrix active on the first 2t+1 coordinates. Client
    `i_0` holds the squared-difference terms on (even, odd) coordinate pairs
    plus the linear term; client `i_1` holds the (odd, even) pairs plus the
    boundary term; every other client's objective is identically zero. Any
    first-order method starting at 0 can only make a new coordinate nonzero
    when the client owning its parity participates.
    """

    uses_rng = False  # the oracle is exact

    def __init__(self, dim: int, horizon: int, smoothness_L: float, n_clients: int,
                 i0: int = 0, i1: int = 1):
        if n_clients < 2:
            raise ValueError("need at least 2 clients")
        if horizon < 1 or 2 * horizon + 1 > dim:
            raise ValueError("horizon must satisfy 1 <= t <= (d-1)/2")
        if i0 == i1:
            raise ValueError("i0 and i1 must differ")
        self.dim = dim
        self.horizon = horizon
        self.smoothness_L = float(smoothness_L)
        self.n_clients = n_clients
        self.i0, self.i1 = i0, i1

        t, L, N = horizon, self.smoothness_L, n_clients
        m = 2 * t + 1
        scale = N * L / 4.0
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
        self._quad = {i0: b0, i1: b1}
        self._lin = {i0: lin0, i1: np.zeros(dim)}

        # Global quadratic form: (L/4) A on the active block, linear -(L/4)e_1.
        self._a_global = (b0 + b1) / N
        self._lin_global = lin0 / N

        self._verify_split()

    def _verify_split(self, n_probes: int = 8) -> None:
        rng = np.random.default_rng(12345)
        a_ref = self.tridiagonal_matrix() * self.smoothness_L / 4.0
        for _ in range(n_probes):
            w = rng.normal(size=self.dim)
            direct = 0.5 * w @ a_ref @ w - (self.smoothness_L / 4.0) * w[0]
            split = np.mean([self.loss(w, i) for i in range(self.n_clients)])
            if not math.isclose(direct, split, rel_tol=1e-9, abs_tol=1e-9):
                raise AssertionError("client split does not reproduce the global objective")

    def tridiagonal_matrix(self) -> np.ndarray:
        m = 2 * self.horizon + 1
        a = np.zeros((self.dim, self.dim))
        for i in range(m):
            a[i, i] = 2.0
            if i + 1 < m:
                a[i, i + 1] = -1.0
                a[i + 1, i] = -1.0
        return a

    def loss(self, w: np.ndarray, client: int | None = GLOBAL) -> float | np.ndarray:
        return self._oracle(self._loss, w, client)

    def gradient(self, w: np.ndarray, client: int | None = GLOBAL) -> np.ndarray:
        return self._oracle(self._gradient, w, client)

    def stochastic_gradient(self, client, w, batch_size, rng):
        return self._one_stochastic_gradient(client, self._validated(w, client), batch_size, rng)

    def _form(self, client):
        """The client's (or, for GLOBAL, the global) quadratic and linear
        terms, or None for a client whose objective is zero."""
        if client is GLOBAL:
            return self._a_global, self._lin_global
        if client in self._quad:
            return self._quad[client], self._lin[client]
        return None

    def _loss(self, w, client):
        form = self._form(client)
        if form is None:
            return np.zeros(w.shape[:-1])
        a, lin = form
        col = w[..., None]
        return 0.5 * (w[..., None, :] @ a @ col)[..., 0, 0] + (lin @ col)[..., 0]

    def _gradient(self, w, client):
        form = self._form(client)
        if form is None:
            return np.zeros(w.shape)
        a, lin = form
        return (a @ w[..., None])[..., 0] + lin

    def _stochastic_gradients(self, clients, w, samples):
        # One matvec per row, as `_gradient` makes it: BLAS computes a stacked
        # product with other kernels, whose bits may differ.
        g = np.zeros_like(w)
        for j, i in enumerate(clients):
            if i in self._quad:
                a, b = self._quad[i], self._lin[i]
                for row in range(len(w)):
                    g[row, j] = a @ w[row, j] + b
        return g

    def global_minimizer(self) -> np.ndarray:
        m = 2 * self.horizon + 1
        a = self.tridiagonal_matrix()[:m, :m]
        w = np.zeros(self.dim)
        e1 = np.zeros(m)
        e1[0] = 1.0
        w[:m] = np.linalg.solve(a, e1)
        return w

    def f_gap(self) -> float:
        """F(0) - F* for this instance (F(0) = 0)."""
        return -self.loss(self.global_minimizer())


def track_frontier(instance: HardInstance, schedule: np.ndarray) -> np.ndarray:
    """Largest discoverable nonzero coordinate index per round.

    `schedule` is a (rounds, n_clients) boolean matrix. Client i0 unlocks the
    next coordinate when the frontier is even, i1 when it is odd; the frontier
    grows by at most one per round.
    """
    schedule = np.asarray(schedule, dtype=bool)
    ks = []
    k = 0
    for p0, p1 in zip(schedule[:, instance.i0].tolist(), schedule[:, instance.i1].tolist()):
        if (p1 if k % 2 else p0) and k < instance.dim:
            k += 1
        ks.append(k)
    return np.array(ks, dtype=np.int64)


def frontier_bound(t: int, tau: int) -> int:
    """Closed-form cap on the frontier after rounds 0..t at period tau.

    For tau = 1 both clients are present every round from round 1 on, so the
    per-round alternation argument behind the generic formula collapses and
    the frontier simply grows by one coordinate per round.
    """
    if tau == 1:
        return t + 1
    return 1 + (t + tau - 2) // tau + (t + tau - 1) // tau


def fastest_schedule(rounds: int, tau: int, n_clients: int = 2) -> np.ndarray:
    """i0 participates every round; i1 at rounds t = 1, 1+tau, 1+2*tau, ..."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    sched = np.zeros((rounds, n_clients), dtype=bool)
    sched[:, 0] = True
    sched[1::tau, 1] = True
    return sched


def frontier_gradient_floor(instance: HardInstance, k: int) -> tuple[float, np.ndarray]:
    """Minimal squared gradient norm over span{e_1..e_{k-1}} and its minimizer.

    Floor: 3 L^2 / (8 k (k+1) (2k+1)); minimizer coordinates
    (2k^3 - 3(i-1)k^2 - (3i-1)k + i^3 - i) / (k (k+1) (2k+1)) for i < k.
    """
    if not 1 <= k <= instance.horizon:
        raise ValueError("k must lie in [1, horizon]")
    L = instance.smoothness_L
    floor = 3.0 * L**2 / (8.0 * k * (k + 1) * (2 * k + 1))
    w = np.zeros(instance.dim)
    denom = k * (k + 1) * (2 * k + 1)
    for i in range(1, k):
        w[i - 1] = (2 * k**3 - 3 * (i - 1) * k**2 - (3 * i - 1) * k + i**3 - i) / denom
    return floor, w


def minimize_gradient_norm_in_span(instance: HardInstance, k: int) -> tuple[float, np.ndarray]:
    """Independent check of the gradient floor: least-squares minimization of
    ||grad F(w)||^2 over w restricted to the first k-1 coordinates."""
    if not 1 <= k <= instance.horizon:
        raise ValueError("k must lie in [1, horizon]")
    L = instance.smoothness_L
    a = instance.tridiagonal_matrix() * (L / 4.0)
    c = np.zeros(instance.dim)
    c[0] = L / 4.0
    if k == 1:
        x = np.zeros(0)
    else:
        x, *_ = np.linalg.lstsq(a[:, : k - 1], c, rcond=None)
    w = np.zeros(instance.dim)
    w[: k - 1] = x
    return float(np.sum((a @ w - c) ** 2)), w


def lower_bound_curve(p_min: float, rounds: int, f_gap: float, smoothness_L: float) -> np.ndarray:
    """Expected lower-bound envelope 3 L F_gap / ((p t + 2)(4 p t + 9)^2) for
    t = 0..rounds."""
    if not 0 < p_min <= 1:
        raise ValueError("p_min must lie in (0, 1]")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    t = np.arange(rounds + 1, dtype=float)
    return 3.0 * smoothness_L * f_gap / ((p_min * t + 2.0) * (4.0 * p_min * t + 9.0) ** 2)


def expected_frontier_cap(p_min: float, t: int) -> float:
    """Bernoulli-participation cap E[k^(t)] <= 3(1 - p) + 2 p t."""
    return 3.0 * (1.0 - p_min) + 2.0 * p_min * t

