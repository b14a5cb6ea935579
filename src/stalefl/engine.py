"""Round-loop orchestration, metric recording, repetitions, and grids.

There is one round loop, in `run`. Through `run_batch` it runs a batch of
configs that share the participation trace and the per-(client, round)
minibatch stream in lockstep; a single run is the batch of one. The grid runs
the betas and client lrs of a cell this way, one batch per seed.

The per-round metrics are evaluated a block of `METRIC_BLOCK` rounds at a
time: the loop keeps the points they are taken at, and one call each of the
broadcasting oracles `loss`, `gradient` and `memory_error` evaluates a whole
block for every config of the batch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import aggregation as agg
from .aggregation import AggregatorConfig, MemoryBank
from .local_solver import ClientUpdate, LocalConfig, local_train
from .objectives import GLOBAL, Objective, SoftmaxObjective, all_finite, check_param
from .participation import (
    ParticipationProfile,
    ProbabilityEstimator,
    RoundParticipation,
    inverse_prob_weights,
    make_two_group_profile,
    sample_round,
)

METRICS_HEADER = "round,loss,grad_norm_sq,H,participants,update_norm,wall_ns"

# Rounds whose metrics `run` evaluates together. At small dim a metric call
# costs its per-call overhead, which a block shares among its rounds; the
# block buffers bound the memory this takes.
METRIC_BLOCK = 64


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


def run(
    cfg: TrainConfig,
    obj: Objective,
    *,
    metrics: bool = True,
    _lockstep: list[TrainConfig] | None = None,
) -> RunResult:
    """Execute the full round loop; bit-deterministic for a fixed config.

    Round t's metrics (global loss, squared gradient norm and H) are taken
    at the iterate before the round's update and at the memory before its
    refresh. They are evaluated every `METRIC_BLOCK` rounds and at the end,
    for the whole block at once, with the bits of a per-round evaluation.

    A run raises DivergenceError when a local iterate goes non-finite and
    FloatingPointError when the global iterate does. With `metrics` on it
    also raises FloatingPointError, naming the round, when a round's metrics
    or the final loss are non-finite; of these errors, it raises the one
    that a round-by-round evaluation meets first.

    With `metrics` off, the per-round metrics are not computed: `records` is
    empty and `min_grad_norm_sq` is nan, and a non-finite final loss is
    returned as it is. The iterates, the participation trace, `final_loss`,
    `test_accuracy` and the divergence checks on the iterates are the same
    either way.
    """
    # This is the one round loop. `run_batch` enters it with the rest of its
    # batch in `_lockstep` and gets back the list of outcomes, errors in their
    # slots, so every batch runs inside a call of `run`: the layer a profiler
    # that wraps `engine.run` (perfbench/tracer.py) times and counts rounds by.
    cfgs = [cfg] if _lockstep is None else [cfg, *_lockstep]
    shared = _shared_fields(cfg)
    for other in cfgs[1:]:
        for name, value in _shared_fields(other).items():
            if not np.array_equal(value, shared[name]):
                raise ValueError(f"the configs of a batch must share {name}")
    n = obj.n_clients
    if cfg.profile.n_clients != n:
        raise ValueError("participation profile and objective disagree on client count")
    # Row r of w (and of client_lrs) is config live[r]; a dropped config's
    # row is deleted.
    live = list(range(len(cfgs)))
    w = np.array([check_param(c.init_point, obj.dim) for c in cfgs])
    client_lrs = np.array([c.local.client_lr for c in cfgs])
    # fedstale's beta per config, None for plain averaging
    betas = [
        None if c.aggregator.rule == "fedavg_biased" else c.aggregator.staleness_weight
        for c in cfgs
    ]
    server_lrs = [c.server_lr for c in cfgs]
    banks = [MemoryBank(n, obj.dim) for _ in cfgs]
    exact_weights = inverse_prob_weights(cfg.profile)
    estimator = None
    if cfg.aggregator.weights_source == "estimator":
        cap = cfg.aggregator.weight_cap or default_weight_cap(cfg.rounds)
        estimator = ProbabilityEstimator(n, cap)

    records: list[list[RoundRecord]] = [[] for _ in cfgs]
    trajectories = [[w[c].copy()] if cfgs[c].record_trajectory else None for c in live]
    min_grads = [math.inf if metrics else math.nan] * len(cfgs)
    errors: list[Exception | None] = [None] * len(cfgs)
    noisy = obj.uses_rng
    work = cfg.local.local_steps * cfg.local.batch_size
    trace = np.zeros((cfg.rounds, n), dtype=bool)
    # The rounds whose metrics are pending form a block that starts at round
    # t0; config c's pending round t0 + j is taken at w_block[c, j] and
    # slot_block[c, j]. With metrics off nothing is pending.
    counts: list[int] = []   # participants per pending round
    if metrics:
        w_block = np.empty((len(cfgs), METRIC_BLOCK, obj.dim))
        slot_block = np.empty((len(cfgs), METRIC_BLOCK, n, obj.dim))
        norms: list[list[float]] = [[] for _ in cfgs]   # update norm per pending round

    def evaluate(cs: list[int], b: int, t0: int) -> list:
        """The metrics of configs `cs`'s first `b` pending rounds: per
        config, lists of the losses, squared gradient norms and H, or the
        error of the first round whose metrics are non-finite."""
        # a view while every config is live, which saves copying the block
        sel = slice(None) if len(cs) == len(cfgs) else cs
        wb, sb = w_block[sel, :b], slot_block[sel, :b]
        loss = obj.loss(wb, GLOBAL)
        grad_sq = (obj.gradient(wb, GLOBAL) ** 2).sum(axis=-1)
        h = agg.memory_error(sb, obj, wb)
        finite = np.isfinite(loss) & np.isfinite(grad_sq) & np.isfinite(h)
        out = []
        for r in range(len(cs)):
            if finite[r].all():
                out.append((loss[r].tolist(), grad_sq[r].tolist(), h[r].tolist()))
            else:
                bad = t0 + int(np.argmin(finite[r]))
                out.append(FloatingPointError(f"metrics are non-finite at round {bad}"))
        return out

    def pending_error(c: int, b: int, t0: int) -> FloatingPointError | None:
        """The metric error among config c's first b pending rounds, if any.
        A round-by-round evaluation meets it before a divergence that comes
        after those rounds' metrics, so it is the run's error."""
        if not (metrics and b):
            return None
        (out,) = evaluate([c], b, t0)
        return out if isinstance(out, Exception) else None

    # A diverging run overflows before the finiteness checks below catch it;
    # those checks drop the run, so the overflow warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.rounds + 1):
            if cfg.replay_schedule is not None:
                rp = RoundParticipation(t, cfg.replay_schedule[t - 1])
            else:
                rp = sample_round(cfg.profile, t, cfg.master_seed)
            trace[t - 1] = rp.present
            participants = rp.participants().tolist()
            j = len(counts)   # this round's row in the block buffers
            t0 = t - j

            if participants:
                rngs = (
                    [_noise_rng(cfg.master_seed, i, t) for i in participants] if noisy else None
                )
                deltas, diverged = local_train(obj, participants, w, cfg.local, rngs, client_lrs)

            if estimator is not None:
                estimator.update(rp)
                weights = estimator.weights()
            else:
                weights = exact_weights

            dropped = []
            for row, c in enumerate(live):
                if participants and diverged[row] is not None:
                    errors[c] = pending_error(c, j, t0) or diverged[row]
                    dropped.append(row)
                    continue
                updates = [
                    ClientUpdate(i, t, deltas[row, k]) for k, i in enumerate(participants)
                ]
                wc = w[row]
                if metrics:
                    w_block[c, j] = wc
                    slot_block[c, j] = banks[c].slots

                if betas[c] is not None:
                    delta = agg.fedstale(updates, banks[c], weights, n, betas[c]).delta
                elif updates:
                    delta = agg.fedavg_biased(updates).delta
                else:
                    delta = np.zeros(obj.dim)
                # in place, so a diverged config's row changes too; it is dropped
                wc -= server_lrs[c] * delta
                if not all_finite(wc):
                    errors[c] = pending_error(c, j + 1, t0) or FloatingPointError(
                        f"global iterate diverged at round {t}"
                    )
                    dropped.append(row)
                    continue
                agg.refresh_memory(banks[c], updates, t)

                if trajectories[c] is not None:
                    trajectories[c].append(wc.copy())
                if metrics:
                    norms[c].append(agg.vector_norm(delta))
            if metrics:
                counts.append(len(participants))
                if len(counts) == METRIC_BLOCK or t == cfg.rounds:
                    rows = [row for row, c in enumerate(live) if errors[c] is None]
                    cs = [live[row] for row in rows]
                    outs = evaluate(cs, len(counts), t0) if cs else []
                    for row, c, out in zip(rows, cs, outs):
                        if isinstance(out, Exception):
                            errors[c] = out
                            dropped.append(row)
                            continue
                        losses, grad_sqs, hs = out
                        records[c] += map(
                            RoundRecord, range(t0, t + 1), losses, grad_sqs, hs,
                            counts, norms[c], [m * work for m in counts],
                        )
                        min_grads[c] = min(min_grads[c], *grad_sqs)
                        norms[c] = []
                    counts = []
            if dropped:
                live = [c for c in live if errors[c] is None]
                w = np.delete(w, dropped, axis=0)
                client_lrs = np.delete(client_lrs, dropped)
                if not live:
                    break

        results: list = errors.copy()
        for row, c in enumerate(live):
            wc = w[row].copy()
            final_loss = obj.loss(wc, GLOBAL)
            if metrics and not math.isfinite(final_loss):
                results[c] = FloatingPointError(
                    f"the final loss is non-finite after round {cfg.rounds}"
                )
                continue
            acc = obj.test_accuracy(wc) if isinstance(obj, SoftmaxObjective) else None
            results[c] = RunResult(
                records[c], wc, final_loss, min_grads[c], acc,
                np.array(trajectories[c]) if trajectories[c] is not None else None,
                trace, estimator,
            )
    if _lockstep is None:
        if isinstance(results[0], Exception):
            raise results[0]
        return results[0]
    return results


def _shared_fields(cfg: TrainConfig) -> dict:
    return {
        "rounds": cfg.rounds,
        "master_seed": cfg.master_seed,
        "local_steps": cfg.local.local_steps,
        "batch_size": cfg.local.batch_size,
        "weights_source": cfg.aggregator.weights_source,
        "weight_cap": cfg.aggregator.weight_cap,
        "profile": cfg.profile.probs,
        "replay_schedule": cfg.replay_schedule,
    }


def run_batch(cfgs: list[TrainConfig], obj: Objective, *, metrics: bool = True) -> list:
    """Run several configs in lockstep and return one outcome per config:
    `run(cfg, obj)`'s result, bit for bit, or the exception it would raise.

    The configs must share the rounds, the master seed, the participation
    profile or replay trace, the weight source and cap, and the local steps
    and batch size (a ValueError names the first field that differs). They
    may differ in the aggregation rule and beta, the client and server lrs
    and the initial point. Then every round draws one participation vector,
    builds each participant's noise stream once, and steps all (config,
    participant) iterates together through one `local_train` call on the
    shared minibatches; aggregation and the memory refresh then run per
    config, and each block of metrics is evaluated for all configs at once.
    The results share one participation trace array and, with estimated
    weights, one estimator.

    A config whose iterate goes non-finite is dropped from the batch at that
    point and the others run on; its outcome is the error that `run` raises
    for it alone.
    """
    if not cfgs:
        raise ValueError("run_batch needs at least one config")
    return run(cfgs[0], obj, metrics=metrics, _lockstep=list(cfgs[1:]))


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

    Within a cell, the runs of one seed share the participation trace and the
    minibatches, so each seed's (beta, lr) runs go through `run_batch` as one
    lockstep batch. If any run diverges, the error raised is the one the
    sequential loop over beta, lr and seed (in that nesting) would meet first.

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
        cfgs = [
            replace(
                base_cfg,
                rounds=rounds,
                profile=profile,
                local=replace(base_cfg.local, client_lr=lr),
                aggregator=replace(base_cfg.aggregator, rule="fedstale", beta=beta),
                init_point=np.zeros(obj.dim),
            )
            for beta in beta_axis for lr in lr_grid
        ]
        # One batch per seed over every (beta, lr) pair; the error raised is
        # the one of the first pair and seed in (beta, lr, seed) order.
        per_seed = [
            run_batch([replace(cfg, master_seed=seed) for cfg in cfgs], obj, metrics=False)
            for seed in seeds
        ]
        runs = list(zip(*per_seed))   # runs[k]: pair k's outcome for each seed
        for pair_runs in runs:
            for r in pair_runs:
                if isinstance(r, Exception):
                    raise r
        rows = []
        for b, beta in enumerate(beta_axis):
            best = None
            for pair_runs in runs[b * len(lr_grid):(b + 1) * len(lr_grid)]:
                if metric_mode == "accuracy":
                    vals = [r.test_accuracy for r in pair_runs]
                else:
                    vals = [r.final_loss for r in pair_runs]
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
