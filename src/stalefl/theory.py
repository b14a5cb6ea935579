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
        # p_var = +inf stands for full participation; the checks below reject
        # a nan or negative one.
        for name in ("smoothness_L", "sigma_sq", "sg_sq", "p_avg", "p_min", "client_lr",
                     "server_lr", "f_init_gap", "h_init", "a1", "a2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.client_lr > 0 and self.server_lr > 0):
            raise ValueError("client_lr and server_lr must be positive")
        for name in ("smoothness_L", "sigma_sq", "sg_sq", "f_init_gap", "h_init"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.a1 <= 0 or self.a2 <= 0:
            raise ValueError("a1 and a2 must be positive")
        if not (self.p_var > 0 and self.p_avg > 0 and self.p_min > 0):
            raise ValueError("p_var, p_avg and p_min must be positive")
        # p_avg is not capped at 1: criterion 8 sweeps it past 1 as a ratio.
        if self.p_min > 1:
            raise ValueError(f"p_min is a probability, at most 1, got {self.p_min}")
        if self.p_min > self.p_avg:
            raise ValueError(f"p_min ({self.p_min}) cannot exceed p_avg ({self.p_avg})")
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
    clamped to [0, 1].

    Under full participation (p_var = +inf) every beta term of
    `theorem1_bound` vanishes, so every beta gives the same bound and none is
    optimal: the result is nan.
    """
    if math.isinf(inp.p_var):
        return math.nan
    ratio = inp.p_avg / inp.p_min
    denom = inp.a1 * ratio * inp.sigma_sq / inp.local_steps + (
        1.0 / inp.n_clients
        + inp.a2 * ratio * inp.client_lr**2 * inp.smoothness_L**2
        * inp.local_steps * (inp.local_steps - 1)
    ) * inp.sg_sq
    if denom <= 0.0:
        raise ValueError("beta_star undefined: both variance terms are zero")
    return min(max((inp.sg_sq / inp.n_clients) / denom, 0.0), 1.0)


def _tridiagonal_product(
    diag: np.ndarray, off: np.ndarray, w: np.ndarray, out: np.ndarray | None = None,
) -> np.ndarray:
    """A w over the last axis of `w`, for the symmetric tridiagonal A with
    main diagonal `diag` and off-diagonal `off`, in `out` if given. Every op
    is elementwise, so each point of a stack gets the bits of its call
    alone."""
    out = np.empty(w.shape) if out is None else out
    return _bind_tridiagonal_product(diag, off, w, out, np.empty(out[..., 1:].shape))()


def _bind_tridiagonal_product(diag, off, w, out, scratch):
    """A function that writes A w, for the current values of `w`, into
    `out` and returns it, with its views of `w` and `out` made once and the
    off-diagonal products written to `scratch`, of `out[..., 1:]`'s shape."""
    w_lo, w_hi, out_lo, out_hi = w[..., :-1], w[..., 1:], out[..., :-1], out[..., 1:]
    multiply, add = np.multiply, np.add

    def product():
        multiply(diag, w, out)
        add(out_hi, multiply(off, w_lo, scratch), out_hi)
        add(out_lo, multiply(off, w_hi, scratch), out_lo)
        return out

    return product


class HardInstance(Objective):
    """Tridiagonal quadratic split between two clients.

    The global objective is F(w) = L/8 (w' A w - 2 w_1) where A is the
    {2, -1} tridiagonal matrix active on the first 2t+1 coordinates. Client
    `i_0` holds the squared-difference terms on (even, odd) coordinate pairs
    plus the linear term; client `i_1` holds the (odd, even) pairs plus the
    boundary term; every other client's objective is identically zero. Any
    first-order method starting at 0 can only make a new coordinate nonzero
    when the client owning its parity participates.

    Every form, each client's and the global one, is a symmetric tridiagonal
    matrix and is stored as its main diagonal and its off-diagonal (the sub-
    and superdiagonal coincide), so the instance holds O(dim) numbers and
    every oracle costs O(dim) per point, and `global_minimizer` is in closed
    form.
    """

    uses_rng = False  # the oracle is exact

    def __init__(self, dim: int, horizon: int, smoothness_L: float, n_clients: int,
                 i0: int = 0, i1: int = 1):
        if n_clients < 2:
            raise ValueError("need at least 2 clients")
        if not (math.isfinite(smoothness_L) and smoothness_L > 0):
            raise ValueError(f"smoothness must be finite and > 0, got {smoothness_L}")
        if horizon < 1 or 2 * horizon + 1 > dim:
            raise ValueError("horizon must satisfy 1 <= t <= (d-1)/2")
        if i0 == i1:
            raise ValueError("i0 and i1 must differ")
        if not (0 <= i0 < n_clients and 0 <= i1 < n_clients):
            raise ValueError(f"i0 and i1 must lie in [0, {n_clients}), got {i0} and {i1}")
        self.dim = dim
        self.horizon = horizon
        self.smoothness_L = float(smoothness_L)
        self.n_clients = n_clients
        self.i0, self.i1 = i0, i1

        t, L, N = horizon, self.smoothness_L, n_clients
        m = 2 * t + 1
        scale = N * L / 4.0
        # Client i0: w'B w = scale (w_1^2 + sum_j (w_{2j} - w_{2j+1})^2), 1-based;
        # its pairs couple 0-based coordinates (1, 2), (3, 4), ...
        diag0 = np.zeros(dim)
        diag0[:m] = scale
        off0 = np.zeros(dim - 1)
        off0[1:m - 1:2] = -scale
        lin0 = np.zeros(dim)
        lin0[0] = -scale
        # Client i1: w'B w = scale (sum_j (w_{2j-1} - w_{2j})^2 + w_m^2); its
        # pairs couple 0-based coordinates (0, 1), (2, 3), ...
        diag1 = np.zeros(dim)
        diag1[:m] = scale
        off1 = np.zeros(dim - 1)
        off1[0:m - 1:2] = -scale
        # (main diagonal, off-diagonal, linear term) per client, and under
        # GLOBAL the global form: (L/4) A on the active block, linear
        # -(L/4) e_1. A client absent here has a zero objective.
        self._forms = {
            i0: (diag0, off0, lin0),
            i1: (diag1, off1, np.zeros(dim)),
            GLOBAL: ((diag0 + diag1) / N, (off0 + off1) / N, lin0 / N),
        }

        self._verify_split()

    def _verify_split(self, n_probes: int = 8) -> None:
        """Check that the clients' mean loss is the definition
        L/8 (w' A w - 2 w_1), computed here from A's entries alone."""
        rng = np.random.default_rng(12345)
        m = 2 * self.horizon + 1
        for _ in range(n_probes):
            w = rng.normal(size=self.dim)
            v = w[:m]
            quad = 2.0 * (v @ v) - 2.0 * (v[:-1] @ v[1:])   # w' A w
            direct = self.smoothness_L / 8.0 * (quad - 2.0 * w[0])
            split = np.mean([self.loss(w, i) for i in range(self.n_clients)])
            if not math.isclose(direct, split, rel_tol=1e-9, abs_tol=1e-9):
                raise AssertionError("client split does not reproduce the global objective")

    def loss(self, w: np.ndarray, client: int | None = GLOBAL) -> float | np.ndarray:
        return self._oracle(self._loss, w, client)

    def gradient(self, w: np.ndarray, client: int | None = GLOBAL) -> np.ndarray:
        return self._oracle(self._gradient, w, client)

    def stochastic_gradient(self, client, w, batch_size, rng):
        return self._one_stochastic_gradient(client, self._validated(w, client), batch_size, rng)

    def _loss(self, w, client):
        form = self._forms.get(client)
        if form is None:
            return np.zeros(w.shape[:-1])
        diag, off, lin = form
        # `w` is C-contiguous (check_param), so both products are too, and
        # their rows reduce with the bits of the 1-D sum.
        return 0.5 * (w * _tridiagonal_product(diag, off, w)).sum(-1) + (lin * w).sum(-1)

    def _gradient(self, w, client):
        form = self._forms.get(client)
        if form is None:
            return np.zeros(w.shape)
        diag, off, lin = form
        return _tridiagonal_product(diag, off, w) + lin

    def _bind_stochastic_gradients(self, clients, w, out):
        # per participant, its gradient rows and the bound product and linear
        # term of its form, or None for a client whose objective is zero; the
        # products share one scratch buffer
        scratch = np.empty((len(out), self.dim - 1))
        terms = []
        for j, i in enumerate(clients):
            form, g = self._forms.get(i), out[:, j]
            if form is None:
                terms.append((g, None, None))
            else:
                diag, off, lin = form
                terms.append((g, _bind_tridiagonal_product(diag, off, w[:, j], g, scratch), lin))
        add = np.add

        def grads(sample):
            for g, product, lin in terms:
                if product is None:
                    g.fill(0.0)
                else:
                    add(product(), lin, g)
            return out

        return grads

    def global_minimizer(self) -> np.ndarray:
        """argmin F in closed form: w_i = (m+1-i)/(m+1) on the first m = 2t+1
        coordinates (1-based) and 0 after them, the solution of A w = e_1 on
        the active block."""
        m = 2 * self.horizon + 1
        w = np.zeros(self.dim)
        w[:m] = np.arange(m, 0, -1) / (m + 1)
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

