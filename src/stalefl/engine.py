"""Round-loop orchestration, metric recording, repetitions, and grids."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import aggregation as agg
from .aggregation import AggregatorConfig, MemoryBank
from .local_solver import LocalConfig, local_train
from .objectives import GLOBAL, Objective, SoftmaxObjective, check_param
from .participation import (
    ParticipationProfile,
    ProbabilityEstimator,
    RoundParticipation,
    inverse_prob_weights,
    make_two_group_profile,
    sample_round,
)

METRICS_HEADER = "round,loss,grad_norm_sq,H,participants,update_norm,wall_ns"


@dataclass(frozen=True)
class TrainConfig:
    rounds: int
    server_lr: float
    local: LocalConfig
    aggregator: AggregatorConfig
    profile: ParticipationProfile
    master_seed: int
    init_point: np.ndarray
    record_trajectory: bool = False
    replay_schedule: np.ndarray | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not (self.server_lr > 0 and math.isfinite(self.server_lr)):
            raise ValueError("server_lr must be finite and positive")
        object.__setattr__(self, "init_point", np.asarray(self.init_point, dtype=float))
        if self.replay_schedule is not None:
            shape = np.shape(self.replay_schedule)
            n = self.profile.n_clients
            if len(shape) != 2 or shape[0] < self.rounds or shape[1] != n:
                raise ValueError(
                    f"replay trace has shape {shape}; it needs at least {self.rounds} "
                    f"rounds and exactly {n} client columns"
                )


@dataclass(frozen=True)
class RoundRecord:
    round: int
    global_loss: float
    grad_norm_sq: float
    memory_error_H: float
    participant_count: int
    update_norm: float
    # Deterministic work counter (local gradient evaluations this round);
    # stands in for wall time so exported metrics are byte-reproducible.
    wall_ns: int


@dataclass
class RunResult:
    records: list[RoundRecord]
    final_w: np.ndarray
    final_loss: float
    min_grad_norm_sq: float
    test_accuracy: float | None = None
    trajectory: np.ndarray | None = None
    participation_trace: np.ndarray | None = None
    estimator: ProbabilityEstimator | None = None

    def loss_curve(self) -> np.ndarray:
        return np.array([r.global_loss for r in self.records])

    def grad_curve(self) -> np.ndarray:
        return np.array([r.grad_norm_sq for r in self.records])


def _noise_rng(master_seed: int, client: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(client, rnd))
    )


def default_weight_cap(rounds: int) -> float:
    # Under the horizon convention T = ceil(10/p_min), the least participating
    # client is expected about 10 times; cap inverse weights at twice T/10.
    return max(2.0 * rounds / 10.0, 2.0)


def run(cfg: TrainConfig, obj: Objective, *, metrics: bool = True) -> RunResult:
    """Execute the full round loop; bit-deterministic for a fixed config.

    With `metrics` off, the per-round global loss, gradient norm and H are
    not computed: `records` is empty and `min_grad_norm_sq` is nan. The
    iterates, the participation trace, `final_loss`, `test_accuracy` and
    every divergence check are the same either way.
    """
    w = check_param(cfg.init_point, obj.dim).copy()
    n = obj.n_clients
    if cfg.profile.n_clients != n:
        raise ValueError("participation profile and objective disagree on client count")
    bank = MemoryBank(n, obj.dim)
    exact_weights = inverse_prob_weights(cfg.profile)
    estimator = None
    if cfg.aggregator.weights_source == "estimator":
        cap = cfg.aggregator.weight_cap or default_weight_cap(cfg.rounds)
        estimator = ProbabilityEstimator(n, cap)

    biased = cfg.aggregator.rule == "fedavg_biased"
    beta = cfg.aggregator.staleness_weight
    noisy = obj.uses_rng
    records: list[RoundRecord] = []
    trajectory = [w.copy()] if cfg.record_trajectory else None
    trace = np.zeros((cfg.rounds, n), dtype=bool)
    min_grad = math.inf if metrics else math.nan
    # A diverging run overflows before the finiteness checks below catch it;
    # those checks raise, so the overflow warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.rounds + 1):
            if cfg.replay_schedule is not None:
                rp = RoundParticipation(t, cfg.replay_schedule[t - 1])
            else:
                rp = sample_round(cfg.profile, t, cfg.master_seed)
            trace[t - 1] = rp.present
            participants = rp.participants()

            updates = [
                local_train(
                    obj, int(i), w, cfg.local,
                    _noise_rng(cfg.master_seed, int(i), t) if noisy else None, t,
                )
                for i in participants
            ]

            if estimator is not None:
                estimator.update(rp)
                weights = estimator.weights()
            else:
                weights = exact_weights

            if metrics:
                loss = obj.loss(w, GLOBAL)
                grad_sq = float(np.sum(obj.gradient(w, GLOBAL) ** 2))
                h_t = agg.memory_error(bank, obj, w)
                min_grad = min(min_grad, grad_sq)

            if not biased:
                delta = agg.fedstale(updates, bank, weights, n, beta).delta
            elif updates:
                delta = agg.fedavg_biased(updates).delta
            else:
                delta = np.zeros(obj.dim)
            w = w - cfg.server_lr * delta
            if not np.isfinite(w).all():
                raise FloatingPointError(f"global iterate diverged at round {t}")
            agg.refresh_memory(bank, updates, t)

            if trajectory is not None:
                trajectory.append(w.copy())
            if metrics:
                records.append(
                    RoundRecord(
                        t, loss, grad_sq, h_t, len(participants),
                        float(np.linalg.norm(delta)),
                        len(participants) * cfg.local.local_steps * cfg.local.batch_size,
                    )
                )

    acc = obj.test_accuracy(w) if isinstance(obj, SoftmaxObjective) else None
    return RunResult(
        records, w, obj.loss(w, GLOBAL), min_grad, acc,
        np.array(trajectory) if trajectory is not None else None,
        trace, estimator,
    )


@dataclass
class RepeatedResult:
    runs: list[RunResult]
    seeds: list[int]
    mean_loss_curve: np.ndarray
    stderr_loss_curve: np.ndarray

    @property
    def mean_final_loss(self) -> float:
        return float(np.mean([r.final_loss for r in self.runs]))


def run_repeated(
    cfg: TrainConfig,
    obj: Objective,
    seeds: list[int],
    *,
    metrics: bool = True,
) -> RepeatedResult:
    """One run per seed. Participation is keyed by the run seed, so every
    aggregation rule sees the same trace for the same seed. `metrics` goes to
    `run`; with it off the mean and stderr curves are empty."""
    if not seeds:
        raise ValueError("need at least one seed")
    runs = [run(replace(cfg, master_seed=seed), obj, metrics=metrics) for seed in seeds]
    curves = np.array([r.loss_curve() for r in runs])
    mean = curves.mean(axis=0)
    stderr = (
        curves.std(axis=0, ddof=1) / math.sqrt(len(runs))
        if len(runs) > 1
        else np.zeros_like(mean)
    )
    return RepeatedResult(runs, list(seeds), mean, stderr)


@dataclass(frozen=True)
class GridCellSummary:
    ratio: float
    swap_fraction: float
    beta: float
    metric_mean: float
    metric_stderr: float
    beta_opt_flag: bool


@dataclass
class GridResult:
    cells: list[GridCellSummary]
    metric_mode: str   # "loss" (lower better) or "accuracy" (higher better)

    def beta_opt(self, ratio: float, swap_fraction: float) -> float:
        rows = [
            c for c in self.cells
            if c.ratio == ratio and c.swap_fraction == swap_fraction and c.beta_opt_flag
        ]
        if len(rows) != 1:
            raise KeyError(f"no unique beta_opt for cell ({ratio}, {swap_fraction})")
        return rows[0].beta

    def export_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as f:
            wr = csv.writer(f, lineterminator="\n")
            wr.writerow(
                ["ratio", "swap_fraction", "beta", "metric_mean", "metric_stderr", "beta_opt_flag"]
            )
            for c in self.cells:
                wr.writerow([
                    f"{c.ratio:.17g}", f"{c.swap_fraction:.17g}", f"{c.beta:.17g}",
                    f"{c.metric_mean:.17g}", f"{c.metric_stderr:.17g}", int(c.beta_opt_flag),
                ])


def two_group_prob_for_ratio(ratio: float) -> float:
    """p for the low group so that p_avg/p_min = ratio with two equal groups."""
    if ratio < 1:
        raise ValueError("participation ratio must be >= 1")
    return 1.0 / (2.0 * ratio - 1.0)


def horizon_for(p_min: float) -> int:
    """Round budget covering ~10 expected participations of the slowest client."""
    return int(math.ceil(10.0 / p_min))


def run_grid(
    base_cfg: TrainConfig,
    obj_factory,
    participation_axis: list[float],
    heterogeneity_axis: list[float],
    beta_axis: list[float],
    seeds: list[int],
    *,
    n_clients: int,
    metric_mode: str = "loss",
    client_lr_grid: list[float] | None = None,
    threads: int = 1,
) -> GridResult:
    """Sweep (participation ratio x swap fraction x beta), pick beta_opt per
    cell by the best mean evaluation metric (ties go to the smaller beta; means
    within a relative 1e-12 of the best count as tied, so an exact tie in the
    underlying scores is not broken by the rounding of their mean).

    `obj_factory(swap_fraction, group2, seed)` builds the cell objective. When
    `client_lr_grid` is given, the client lr is tuned independently per
    (cell, beta) by the same metric. Runs compute no per-round metrics, since
    only their final loss or accuracy is read.

    Cells are independent. With `threads > 1` they fan out to
    `min(threads, cells)` worker processes, forked so that `obj_factory` may
    be a closure; results are assembled in cell order, so they do not depend
    on `threads`. An exception raised in a worker is raised here.
    """
    if not participation_axis or not heterogeneity_axis or not beta_axis:
        raise ValueError("all grid axes must be nonempty")
    if metric_mode not in ("loss", "accuracy"):
        raise ValueError("metric_mode must be 'loss' or 'accuracy'")
    lr_grid = client_lr_grid or [base_cfg.local.client_lr]

    def eval_cell(ratio: float, swap: float) -> list[GridCellSummary]:
        p_low = two_group_prob_for_ratio(ratio)
        if p_low >= 1.0:
            profile = ParticipationProfile(
                np.ones(n_clients), tuple(range(n_clients // 2, n_clients))
            )
        else:
            profile = make_two_group_profile(n_clients, p_low, n_clients // 2)
        rounds = horizon_for(p_low)
        obj = obj_factory(swap, profile.group2, seeds[0])
        rows = []
        for beta in beta_axis:
            best = None
            for lr in lr_grid:
                cfg = replace(
                    base_cfg,
                    rounds=rounds,
                    profile=profile,
                    local=replace(base_cfg.local, client_lr=lr),
                    aggregator=replace(base_cfg.aggregator, rule="fedstale", beta=beta),
                    init_point=np.zeros(obj.dim),
                )
                rep = run_repeated(cfg, obj, seeds, metrics=False)
                if metric_mode == "accuracy":
                    vals = [r.test_accuracy for r in rep.runs]
                else:
                    vals = [r.final_loss for r in rep.runs]
                mean = float(np.mean(vals))
                stderr = (
                    float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
                    if len(vals) > 1 else 0.0
                )
                better = best is None or (
                    mean > best[0] if metric_mode == "accuracy" else mean < best[0]
                )
                if better:
                    best = (mean, stderr)
            rows.append((beta, best[0], best[1]))
        if metric_mode == "accuracy":
            best_val = max(v for _, v, _ in rows)
        else:
            best_val = min(v for _, v, _ in rows)
        beta_opt = min(b for b, v, _ in rows if math.isclose(v, best_val, rel_tol=1e-12))
        return [
            GridCellSummary(ratio, swap, b, v, se, b == beta_opt) for b, v, se in rows
        ]

    cell_keys = [(r, s) for r in participation_axis for s in heterogeneity_axis]
    workers = min(threads, len(cell_keys))
    if workers > 1:
        # Imported here so that importing stalefl does not pay for them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"),
            initializer=_set_worker_cell, initargs=(eval_cell,),
        ) as pool:
            results = list(pool.map(_worker_cell, cell_keys))
    else:
        results = [eval_cell(*k) for k in cell_keys]
    cells = [row for block in results for row in block]
    return GridResult(cells, metric_mode)


# The cell function of a grid worker process, set only in the worker by the
# pool initializer. Fork hands the initializer's arguments over unpickled, so
# only the cell key and the cell's summaries cross the process boundary.
_cell_fn = None


def _set_worker_cell(fn) -> None:
    global _cell_fn
    _cell_fn = fn


def _worker_cell(key: tuple[float, float]) -> list[GridCellSummary]:
    return _cell_fn(*key)


def write_metrics_csv(result: RunResult, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        f.write(METRICS_HEADER + "\n")
        for r in result.records:
            f.write(
                f"{r.round},{r.global_loss:.17g},{r.grad_norm_sq:.17g},"
                f"{r.memory_error_H:.17g},{r.participant_count},"
                f"{r.update_norm:.17g},{r.wall_ns}\n"
            )
