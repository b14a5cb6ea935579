"""Round-loop orchestration, metric recording, repetitions, and grids.

There is one round loop, in `run`. Through `run_batch` it runs a batch of
configs that share the participation trace and each round's noise stream
in lockstep; a single run is the batch of one. The grid runs
the betas and client lrs of a cell this way, one batch per seed.

No indicator depends on the iterate, so `run` takes the whole trace before
the first round: the replayed one, or one drawn by `sample_round` a chunk of
rounds per call (at most `TRACE_LANES` keyed draws a chunk). Each round's
participant list is a slice of that trace, and estimated weights are
computed from its running counts a block of rounds at a time.

Round t's local noise (minibatches, or a noisy oracle's noise) comes from one
Philox stream keyed (key_word(master_seed, NOISE_WORD) << 64) | t for all
its participants. A run builds one bit generator and re-keys it each round.

Under uneven participation most rounds repeat an earlier round's
participant set, so a run keeps one dict of round plans keyed by the
participant tuple (what each layer builds from a set alone, see
`local_solver`) and passes it to `local_train`, `agg.fedstale` and
`agg.refresh_memory`: the gradient kernel, the checks and the buffers of a
round are bound once per participant set per run, for at most
`local_solver.PLAN_LIMIT` sets at a time. A round's deltas and its update
live in its plan's buffers until the next round of the same set; the round
aggregates the deltas, steps with the update and copies the deltas into the
memory before then. The dict is cleared when configs drop out of the batch,
since a plan's buffers have one row per config.

Each round aggregates the whole batch, which shares its rule family (plain
averaging, or fedstale's: u_fedavg, u_fedvarp, fedstale), at once: one rule
call on the stacked updates and (configs, N, dim) memory, one server step,
one finiteness check and one memory refresh. Work per config runs only
after a check fails, to give the config the error it raises alone.

The per-round metrics are evaluated a block of `METRIC_BLOCK` rounds at a
time: the loop keeps the points they are taken at, and one call each of the
broadcasting oracles `loss`, `gradient` and `memory_error` evaluates a whole
block for every config of the batch. A run keeps them as columns, one list
per `RoundRecord` field, each extended once a block; `RunResult.records`
builds the records from them when it is first read.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import aggregation as agg
from .aggregation import AggregatorConfig
from .local_solver import LocalConfig, local_train, lr_factor
from .objectives import GLOBAL, Objective, SoftmaxObjective, all_finite, check_param
from .participation import (
    NOISE_WORD,
    ParticipationProfile,
    estimated_weight_blocks,
    key_word,
    make_two_group_profile,
    sample_round,
)

METRICS_HEADER = "round,loss,grad_norm_sq,H,participants,update_norm,wall_ns"
# One row of metrics.csv. printf-style formatting of a tuple costs less a row
# than an f-string, and %.17g gives the text of f"{x:.17g}".
METRICS_ROW = "%d,%.17g,%.17g,%.17g,%d,%.17g,%d\n"

# Rounds whose metrics `run` evaluates together. At small dim a metric call
# costs its per-call overhead, which a block shares among its rounds; the
# block buffers bound the memory this takes.
METRIC_BLOCK = 64

# Keyed participation draws per `sample_round` call when `run` draws its
# trace: a chunk spans TRACE_LANES // (clients that draw) rounds. Each of the
# Philox kernel's uint64 temporaries holds one word per draw, so this bounds
# their size, while a chunk of a few thousand draws already spreads the
# kernel's per-call overhead thin.
TRACE_LANES = 4096


@dataclass(frozen=True)
class TrainConfig:
    rounds: int
    server_lr: float
    local: LocalConfig
    aggregator: AggregatorConfig
    profile: ParticipationProfile
    master_seed: int
    init_point: np.ndarray
    replay_schedule: np.ndarray | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not (self.server_lr > 0 and math.isfinite(self.server_lr)):
            raise ValueError("server_lr must be finite and positive")
        # the participation key takes the seed mod 2^64
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")
        object.__setattr__(self, "init_point", np.asarray(self.init_point, dtype=float))
        if self.replay_schedule is not None:
            shape = np.shape(self.replay_schedule)
            n = self.profile.n_clients
            if len(shape) != 2 or shape[0] < self.rounds or shape[1] != n:
                raise ValueError(
                    f"replay trace has shape {shape}; it needs at least {self.rounds} "
                    f"rounds and exactly {n} client columns"
                )
            # an indicator matrix, held as one: configs that replay one
            # trace share it, whatever the dtype it came in
            object.__setattr__(
                self, "replay_schedule", np.asarray(self.replay_schedule, dtype=bool)
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


# The per-round metric columns of a run: RoundRecord's fields, in the order
# of `metrics.csv`.
METRIC_COLUMNS = tuple(f.name for f in fields(RoundRecord))


@dataclass
class RunResult:
    """A run's outcome. `columns` maps each name in METRIC_COLUMNS to the
    list of its per-round values, empty with metrics off."""

    columns: dict[str, list]
    final_w: np.ndarray
    final_loss: float
    test_accuracy: float | None = None
    participation_trace: np.ndarray | None = None

    @cached_property
    def records(self) -> list[RoundRecord]:
        """One RoundRecord per round, built from the columns on first access."""
        return list(map(RoundRecord, *itemgetter(*METRIC_COLUMNS)(self.columns)))

    @property
    def min_grad_norm_sq(self) -> float:
        """The least recorded squared gradient norm; nan with no records."""
        return min(self.columns["grad_norm_sq"], default=math.nan)

    def loss_curve(self) -> np.ndarray:
        return np.array(self.columns["global_loss"])

    def grad_curve(self) -> np.ndarray:
        return np.array(self.columns["grad_norm_sq"])


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
    # Row r of the per-row arrays (w, betas, client_lrs, server_lrs, slots,
    # the metric blocks) is config live[r], and a dropped config's row is
    # deleted; slots[r] is its memory of stale updates.
    live = list(range(len(cfgs)))
    averaging = cfg.aggregator.rule == "fedavg_biased"
    betas = np.array([c.aggregator.staleness_weight for c in cfgs])
    w = np.array([check_param(c.init_point, obj.dim) for c in cfgs])
    client_lrs = np.array([c.local.client_lr for c in cfgs])
    server_lrs = np.array([c.server_lr for c in cfgs])
    server_lr = lr_factor(server_lrs, 2)
    slots = np.zeros((len(cfgs), n, obj.dim))

    columns = [{name: [] for name in METRIC_COLUMNS} for _ in cfgs]
    errors: list[Exception | None] = [None] * len(cfgs)
    # Round t's noise stream is Philox keyed noise_key | t. One bit
    # generator serves the run: each round sets its key and restarts its
    # counter, which gives the draws of a fresh Generator(Philox(key)).
    noise_rng = None
    if obj.uses_rng:
        noise_rng = np.random.Generator(
            np.random.Philox(key=key_word(cfg.master_seed, NOISE_WORD) << 64)
        )
        noise_state = noise_rng.bit_generator.state   # key word 0 is the round
    work = cfg.local.local_steps * cfg.local.batch_size
    plans: dict = {}   # the round plans, for the rows of the current batch
    # The rounds whose metrics are pending form a block that starts at round
    # t0; row r's pending round t0 + j is taken at w_block[r, j] and
    # slot_block[r, j]. With metrics off nothing is pending.
    counts: list[int] = []   # participants per pending round
    if metrics:
        w_block = np.empty((len(cfgs), METRIC_BLOCK, obj.dim))
        slot_block = np.empty((len(cfgs), METRIC_BLOCK, n, obj.dim))
        norms: list[list[float]] = [[] for _ in cfgs]   # config c's pending update norms

    def evaluate(rows: slice, b: int, t0: int) -> list:
        """The metrics of the first `b` pending rounds of the rows in
        `rows`: per row, lists of the losses, squared gradient norms and H,
        or the error of the first round whose metrics are non-finite."""
        wb, sb = w_block[rows, :b], slot_block[rows, :b]
        loss = obj.loss(wb, GLOBAL)
        grad_sq = (obj.gradient(wb, GLOBAL) ** 2).sum(axis=-1)
        h = agg.memory_error(sb, obj, wb)
        finite = np.isfinite(loss) & np.isfinite(grad_sq) & np.isfinite(h)
        out = []
        for r in range(len(wb)):
            if finite[r].all():
                out.append((loss[r].tolist(), grad_sq[r].tolist(), h[r].tolist()))
            else:
                bad = t0 + int(np.argmin(finite[r]))
                out.append(FloatingPointError(f"metrics are non-finite at round {bad}"))
        return out

    def pending_error(row: int, b: int, t0: int) -> FloatingPointError | None:
        """The metric error among row's first b pending rounds, if any. A
        round-by-round evaluation meets it before a divergence that comes
        after those rounds' metrics, so it is the run's error."""
        if not (metrics and b):
            return None
        (out,) = evaluate(slice(row, row + 1), b, t0)
        return out if isinstance(out, Exception) else None

    def fail(row: int, error: Exception) -> None:
        errors[live[row]] = error
        dropped.append(row)

    trace = _participation_trace(cfg)
    # round t's aggregation weights, 1/p_i or their estimate, are item t - 1
    if cfg.aggregator.weights_source == "estimator":
        cap = cfg.aggregator.weight_cap
        cap = default_weight_cap(cfg.rounds) if cap is None else cap
        weight_rows = chain.from_iterable(estimated_weight_blocks(trace, cap))
    else:
        weight_rows = repeat(1.0 / cfg.profile.probs)
    # round t's participants are flat[ends[t - 1]:ends[t]], in ascending order
    flat = np.nonzero(trace)[1].tolist()
    ends = [0, *np.cumsum(np.count_nonzero(trace, axis=1)).tolist()]

    # A diverging run overflows before the finiteness checks below catch it;
    # those checks drop the run, so the overflow warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, weights in zip(range(1, cfg.rounds + 1), weight_rows):
            participants = flat[ends[t - 1]:ends[t]]
            j = len(counts)   # this round's column in the block buffers
            t0 = t - j
            dropped: list[int] = []

            # A dropped row's arrays take part in the rest of the round,
            # row by row apart from the others, and are deleted at its end.
            if participants:
                if noise_rng is not None:
                    noise_state["state"]["key"][0] = t
                    noise_rng.bit_generator.state = noise_state
                deltas, diverged = local_train(
                    obj, participants, w, cfg.local, noise_rng, client_lrs, plans,
                )
                if any(diverged):
                    for row, err in enumerate(diverged):
                        if err is not None:
                            fail(row, pending_error(row, j, t0) or err)
            else:
                deltas = np.empty((len(w), 0, obj.dim))
            if metrics:
                w_block[:, j] = w
                slot_block[:, j] = slots

            if not averaging:
                delta = agg.fedstale(participants, deltas, slots, weights, betas, plans)
            elif participants:
                delta = agg.fedavg_biased(participants, deltas)
            else:
                delta = np.zeros(w.shape)   # plain averaging skips an empty round
            if metrics:
                for c, d in zip(live, delta):
                    norms[c].append(agg.vector_norm(d))
            # the bits of w -= server_lr * delta: IEEE multiplication commutes
            delta *= server_lr
            w -= delta
            # an all_finite false alarm passes the exact per-row check
            if not all_finite(w):
                for row in np.flatnonzero(~np.isfinite(w).all(axis=1)).tolist():
                    if errors[live[row]] is None:
                        fail(row, pending_error(row, j + 1, t0) or FloatingPointError(
                            f"global iterate diverged at round {t}"
                        ))
            agg.refresh_memory(slots, participants, deltas, plans)

            if metrics:
                counts.append(len(participants))
                if len(counts) == METRIC_BLOCK or t == cfg.rounds:
                    outs = evaluate(slice(None), len(counts), t0)
                    for row, (c, out) in enumerate(zip(live, outs)):
                        if errors[c] is not None:
                            continue
                        if isinstance(out, Exception):
                            fail(row, out)
                            continue
                        losses, grad_sqs, hs = out
                        block = (
                            range(t0, t + 1), losses, grad_sqs, hs,
                            counts, norms[c], [m * work for m in counts],
                        )
                        for column, values in zip(columns[c].values(), block):
                            column += values
                        norms[c] = []
                    counts = []
            if dropped:
                live = [c for c in live if errors[c] is None]
                w, betas, client_lrs, server_lrs, slots = (
                    np.delete(a, dropped, axis=0)
                    for a in (w, betas, client_lrs, server_lrs, slots)
                )
                if metrics:
                    w_block, slot_block = (
                        np.delete(a, dropped, axis=0) for a in (w_block, slot_block)
                    )
                if not live:
                    break
                server_lr = lr_factor(server_lrs, 2)
                plans.clear()

        # One loss and one accuracy call for the whole batch.
        results: list = errors.copy()
        if live:
            final_losses = obj.loss(w, GLOBAL).tolist()
            ok = []
            for row, (c, loss) in enumerate(zip(live, final_losses)):
                if metrics and not math.isfinite(loss):
                    results[c] = FloatingPointError(
                        f"the final loss is non-finite after round {cfg.rounds}"
                    )
                else:
                    ok.append(row)
            accs = [None] * len(ok)
            if ok and isinstance(obj, SoftmaxObjective):
                accs = obj.test_accuracy(w[ok]).tolist()
            for row, acc in zip(ok, accs):
                c = live[row]
                results[c] = RunResult(columns[c], w[row].copy(), final_losses[row], acc, trace)
    if _lockstep is None:
        if isinstance(results[0], Exception):
            raise results[0]
        return results[0]
    return results


def _participation_trace(cfg: TrainConfig) -> np.ndarray:
    """The (rounds, n_clients) indicator matrix of a run: the replay trace's
    first `cfg.rounds` rows, or the rounds drawn by `sample_round`, a chunk
    of at most `TRACE_LANES` draws per call."""
    if cfg.replay_schedule is not None:
        return np.array(cfg.replay_schedule[: cfg.rounds], dtype=bool)
    trace = np.empty((cfg.rounds, cfg.profile.n_clients), dtype=bool)
    chunk = max(1, TRACE_LANES // max(1, int(np.count_nonzero(cfg.profile.probs < 1.0))))
    for t in range(1, cfg.rounds + 1, chunk):
        k = min(chunk, cfg.rounds + 1 - t)
        trace[t - 1:t - 1 + k] = sample_round(cfg.profile, t, cfg.master_seed, k)
    return trace


def _shared_fields(cfg: TrainConfig) -> dict:
    return {
        "rule family": cfg.aggregator.rule == "fedavg_biased",   # plain averaging or not
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

    The configs must share the rule family (`fedavg_biased`, or fedstale's:
    u_fedavg, u_fedvarp and fedstale), the rounds, the master seed, the
    participation profile or replay trace, the weight source and cap, and
    the local steps and batch size (a ValueError names the first field that
    differs). They may differ in the rule within its family and in beta, the
    client and server lrs and the initial point.
    Then the batch draws one participation trace, and every round keys its
    one noise stream once and steps all (config, participant) iterates
    together through one `local_train` call on the shared minibatches.
    Aggregation, the server step and the memory refresh then act on the
    stacked rows of every config, each block of metrics is evaluated for
    all configs at once, and so are the final losses and test accuracies.
    The results share one participation trace array.

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


def run_repeated(cfg: TrainConfig, obj: Objective, seeds: list[int]) -> RepeatedResult:
    """One run per seed; the seeds must be distinct. Participation is keyed
    by the run seed, so every aggregation rule sees the same trace for the
    same seed."""
    if not seeds:
        raise ValueError("need at least one seed")
    _check_distinct("seed", seeds)
    runs = [run(replace(cfg, master_seed=seed), obj) for seed in seeds]
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


def _check_distinct(name: str, values) -> None:
    """A repeated sweep value would run twice and count twice; reject it."""
    if len(set(values)) != len(values):
        raise ValueError(f"repeated {name} in {list(values)}")


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
    underlying scores is not broken by the rounding of their mean). The
    values of each axis, of `client_lr_grid` and of `seeds` must be
    distinct: a repeated one raises ValueError.

    `obj_factory(swap_fraction, group2)` builds the cell objective. When
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
    if not (participation_axis and heterogeneity_axis and beta_axis and seeds):
        raise ValueError("all grid axes and the seeds must be nonempty")
    if metric_mode not in ("loss", "accuracy"):
        raise ValueError("metric_mode must be 'loss' or 'accuracy'")
    lr_grid = client_lr_grid or [base_cfg.local.client_lr]
    for name, axis in (
        ("ratio", participation_axis), ("swap fraction", heterogeneity_axis),
        ("beta", beta_axis), ("client lr", lr_grid), ("seed", seeds),
    ):
        _check_distinct(name, axis)

    def eval_cell(ratio: float, swap: float) -> list[GridCellSummary]:
        p_low = two_group_prob_for_ratio(ratio)
        if p_low >= 1.0:
            profile = ParticipationProfile(
                np.ones(n_clients), tuple(range(n_clients // 2, n_clients))
            )
        else:
            profile = make_two_group_profile(n_clients, p_low, n_clients // 2)
        rounds = horizon_for(p_low)
        obj = obj_factory(swap, profile.group2)
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
    rows = zip(*itemgetter(*METRIC_COLUMNS)(result.columns))
    with open(path, "w", newline="") as f:
        f.write(METRICS_HEADER + "\n")
        f.writelines(map(METRICS_ROW.__mod__, rows))
