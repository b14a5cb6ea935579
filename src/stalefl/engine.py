"""Round-loop orchestration, metric recording, repetitions, and grids.

There is one round loop, in `run`. Through `run_batch` it runs a batch of
configs that share the participation trace and each round's noise stream
in lockstep; a single run is the batch of one. The grid runs
the betas and client lrs of a cell this way, one batch per seed, and fans
its cells out to forked processes and the calling one, which take cells in
cell order from one shared counter.

No indicator depends on the iterate, so `run` takes the whole trace before
the first round: the replayed one, or one drawn by a single `sample_round`
call. Each round's participant list is a slice of that trace, and estimated
weights are computed from its running counts a block of rounds at a time.

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
time, by one call each of the broadcasting oracles `loss`, `gradient` and
`memory_error` for every config of the batch. A batch keeps its per-row
arrays in one list, from which one drop at a round's end deletes the failed
rows. A config's outcome slot holds its four own metric columns or its
error; `round`, `participant_count` and `wall_ns` are built once, from the
trace, and `RunResult.records` from the columns on first read.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace
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
    write_csv,
)

METRICS_HEADER = "round,loss,grad_norm_sq,H,participants,update_norm,wall_ns"
# One row of metrics.csv (`write_csv`).
METRICS_ROW = "%d,%.17g,%.17g,%.17g,%d,%.17g,%d"

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

    The `round`, `participant_count` and `wall_ns` columns come from the
    participation trace, built once a batch; each result has its own lists.

    With `metrics` off, the per-round metrics are not computed: every column
    is empty, `min_grad_norm_sq` is nan, and a non-finite final loss is
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
    if isinstance(obj, SoftmaxObjective):
        obj.require_holdout()   # test_accuracy needs it after the last round
    # Row r of every array in `row_arrays` is config live[r]: its iterate w,
    # beta, client and server lrs, memory of stale updates (slots[r]) and
    # pending metric points (the blocks, empty with metrics off).
    live = list(range(len(cfgs)))
    averaging = cfg.aggregator.rule == "fedavg_biased"
    block = METRIC_BLOCK if metrics else 0
    row_arrays = [
        np.array([check_param(c.init_point, obj.dim) for c in cfgs]),
        np.array([c.aggregator.staleness_weight for c in cfgs]),
        np.array([c.local.client_lr for c in cfgs]),
        np.array([c.server_lr for c in cfgs]),
        np.zeros((len(cfgs), n, obj.dim)),
        np.empty((len(cfgs), block, obj.dim)),
        np.empty((len(cfgs), block, n, obj.dim)),
    ]
    w, betas, client_lrs, server_lrs, slots, w_block, slot_block = row_arrays
    server_lr = lr_factor(server_lrs, 2)
    # config c's outcome: its loss, grad_norm_sq, H and update_norm columns, or its error
    outcomes: list = [([], [], [], []) for _ in cfgs]
    # Round t's noise stream is Philox keyed noise_key | t. One bit
    # generator serves the run: each round sets its key and restarts its
    # counter, which gives the draws of a fresh Generator(Philox(key)).
    noise_rng = None
    if obj.uses_rng:
        noise_rng = np.random.Generator(
            np.random.Philox(key=key_word(cfg.master_seed, NOISE_WORD) << 64)
        )
        noise_state = noise_rng.bit_generator.state   # key word 0 is the round
    plans: dict = {}   # the round plans, for the rows of the current batch
    # The rounds whose metrics are pending form a block that starts at round
    # t0; row r's pending round t0 + j is taken at w_block[r, j] and
    # slot_block[r, j]. With metrics off nothing is pending.
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

    def fail(row: int, error: Exception, b: int, t0: int) -> None:
        """Drop row's config with `error`, or with the metric error among its
        first b pending rounds, which a round-by-round evaluation meets first."""
        if metrics and b:
            (out,) = evaluate(slice(row, row + 1), b, t0)
            if isinstance(out, Exception):
                error = out
        dropped[row] = error

    if cfg.replay_schedule is not None:
        trace = np.array(cfg.replay_schedule[: cfg.rounds], dtype=bool)
    else:
        trace = sample_round(cfg.profile, 1, cfg.master_seed, cfg.rounds)
    # round t's aggregation weights, 1/p_i or their estimate, are item t - 1
    if cfg.aggregator.weights_source == "estimator":
        cap = cfg.aggregator.weight_cap
        cap = default_weight_cap(cfg.rounds) if cap is None else cap
        weight_rows = chain.from_iterable(estimated_weight_blocks(trace, cap))
    else:
        weight_rows = repeat(1.0 / cfg.profile.probs)
    # round t's participants are flat[ends[t - 1]:ends[t]], in ascending order
    flat = np.nonzero(trace)[1].tolist()
    counts = np.count_nonzero(trace, axis=1)
    ends = [0, *np.cumsum(counts).tolist()]

    # A diverging run overflows before the finiteness checks below catch it;
    # those checks drop the run, so the overflow warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, weights in zip(range(1, cfg.rounds + 1), weight_rows):
            participants = flat[ends[t - 1]:ends[t]]
            j = (t - 1) % METRIC_BLOCK   # this round's column in the block buffers
            t0 = t - j
            dropped: dict[int, Exception] = {}   # the rows that fail this round

            # A dropped row takes part in the rest of the round, apart from the
            # others; at its end the row is deleted and its error is its outcome.
            if participants:
                if noise_rng is not None:
                    noise_state["state"]["key"][0] = t
                    noise_rng.bit_generator.state = noise_state
                deltas, diverged = local_train(
                    obj, participants, w, cfg.local, noise_rng, client_lrs, plans,
                )
                for row, err in enumerate(diverged):
                    if err is not None:
                        fail(row, err, j, t0)
            else:
                deltas = np.empty((len(w), 0, obj.dim))
            if metrics:
                w_block[:, j] = w
                slot_block[:, j] = slots

            if averaging:
                delta = agg.fedavg_biased(participants, deltas)
            else:
                delta = agg.fedstale(participants, deltas, slots, weights, betas, plans)
            if metrics:
                for c, d in zip(live, delta):
                    outcomes[c][3].append(agg.vector_norm(d))
            # the bits of w -= server_lr * delta: IEEE multiplication commutes
            delta *= server_lr
            w -= delta
            # an all_finite false alarm passes the exact per-row check
            if not all_finite(w):
                for row in np.flatnonzero(~np.isfinite(w).all(axis=1)).tolist():
                    if row not in dropped:
                        error = FloatingPointError(f"global iterate diverged at round {t}")
                        fail(row, error, j + 1, t0)
            agg.refresh_memory(slots, participants, deltas, plans)

            if metrics and (j == METRIC_BLOCK - 1 or t == cfg.rounds):
                outs = evaluate(slice(None), j + 1, t0)
                for row, (c, out) in enumerate(zip(live, outs)):
                    if isinstance(out, Exception):
                        dropped.setdefault(row, out)   # an earlier error stays
                    else:
                        for column, values in zip(outcomes[c], out):
                            column += values
            if dropped:
                for row, error in dropped.items():
                    outcomes[live[row]] = error
                live = [c for row, c in enumerate(live) if row not in dropped]
                row_arrays = [np.delete(a, list(dropped), axis=0) for a in row_arrays]
                w, betas, client_lrs, server_lrs, slots, w_block, slot_block = row_arrays
                if not live:
                    break
                server_lr = lr_factor(server_lrs, 2)
                plans.clear()

        # One loss and one accuracy call for the whole batch.
        if live:
            final_losses = obj.loss(w, GLOBAL).tolist()
            ok = []
            for row, (c, loss) in enumerate(zip(live, final_losses)):
                if metrics and not math.isfinite(loss):
                    outcomes[c] = FloatingPointError(
                        f"the final loss is non-finite after round {cfg.rounds}"
                    )
                else:
                    ok.append(row)
            accs = [None] * len(ok)
            if ok and isinstance(obj, SoftmaxObjective):
                accs = obj.test_accuracy(w[ok]).tolist()
            # the columns every config shares, from the trace; a copy a result
            from_trace = ((), (), ())
            if metrics:
                work = counts * cfg.local.local_steps * cfg.local.batch_size
                from_trace = (range(1, cfg.rounds + 1), counts.tolist(), work.tolist())
            for row, acc in zip(ok, accs):
                c = live[row]
                loss, grad_sq, h, norm = outcomes[c]
                rnd, part, wall = map(list, from_trace)
                columns = dict(zip(METRIC_COLUMNS, (rnd, loss, grad_sq, h, part, norm, wall)))
                outcomes[c] = RunResult(columns, w[row].copy(), final_losses[row], acc, trace)
    if _lockstep is None:
        if isinstance(outcomes[0], Exception):
            raise outcomes[0]
        return outcomes[0]
    return outcomes


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

    def beta_opt(self, ratio: float, swap_fraction: float) -> float:
        rows = [
            c for c in self.cells
            if c.ratio == ratio and c.swap_fraction == swap_fraction and c.beta_opt_flag
        ]
        if len(rows) != 1:
            raise KeyError(f"no unique beta_opt for cell ({ratio}, {swap_fraction})")
        return rows[0].beta

    def export_csv(self, path: str | Path) -> None:
        write_csv(
            path, "ratio,swap_fraction,beta,metric_mean,metric_stderr,beta_opt_flag",
            "%.17g,%.17g,%.17g,%.17g,%.17g,%d", map(astuple, self.cells),
        )


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
    `min(threads, cells)` processes, the calling one included: it forks the
    others (so `obj_factory` may be a closure) and computes cells itself, and
    every process takes the next cell in cell order. Results are assembled in
    cell order, and the error raised is the first cell's in that order,
    whichever process met it, so neither depends on `threads`. A worker
    process that dies without reporting raises RuntimeError; no worker
    outlives the call. `threads=1` forks none.
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
        for r in chain.from_iterable(runs):
            if isinstance(r, Exception):
                raise r
        # the least sign * mean is the best; `min` keeps the first of equal keys
        sign = -1.0 if metric_mode == "accuracy" else 1.0
        rows = []
        for b, beta in enumerate(beta_axis):
            stats = []
            for pair_runs in runs[b * len(lr_grid):(b + 1) * len(lr_grid)]:
                vals = [r.test_accuracy if sign < 0 else r.final_loss for r in pair_runs]
                stderr = np.std(vals, ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
                stats.append((float(np.mean(vals)), float(stderr)))
            rows.append((beta, *min(stats, key=lambda s: sign * s[0])))
        best_val = min((v for _, v, _ in rows), key=lambda v: sign * v)
        beta_opt = min(b for b, v, _ in rows if math.isclose(v, best_val, rel_tol=1e-12))
        return [
            GridCellSummary(ratio, swap, b, v, se, b == beta_opt) for b, v, se in rows
        ]

    cell_keys = [(r, s) for r in participation_axis for s in heterogeneity_axis]
    workers = min(threads, len(cell_keys))
    if workers > 1:
        results = _fan_out(eval_cell, cell_keys, workers)
    else:
        results = [eval_cell(*k) for k in cell_keys]
    cells = [row for block in results for row in block]
    return GridResult(cells)


def _fan_out(fn, keys: list, workers: int) -> list:
    """[fn(*key) for key in keys], computed by the calling process and
    `workers - 1` forked ones (fork, so that `fn` may be a closure).

    Every process takes the next key in key order from one shared counter,
    so uneven keys stay balanced, and a worker sends its (index, outcome)
    pairs back over its own pipe when the keys run out. Once a key fails no
    process takes another: every key before it has been taken already, so
    the first failure in key order is among the outcomes. That failure is
    raised here, so the results and the error do not depend on `workers`.
    A worker sends an error as `multiprocessing.pool.ExceptionWithTraceback`,
    the wrapper the stdlib `Pool` sends: it unpickles as the error, with a
    `RemoteTraceback` of the worker's traceback as its `__cause__`. A worker
    that exits without reporting raises RuntimeError. No worker outlives the
    call.
    """
    # Imported here so that importing stalefl does not pay for them.
    import multiprocessing
    from multiprocessing.pool import ExceptionWithTraceback

    ctx = multiprocessing.get_context("fork")
    next_key = ctx.Value("l", 0)

    def take_keys(in_worker: bool) -> list:
        pairs = []
        while True:
            with next_key.get_lock():
                i = next_key.value
                next_key.value = i + 1
            if i >= len(keys):
                return pairs
            try:
                outcome = fn(*keys[i])
            except Exception as exc:
                outcome = ExceptionWithTraceback(exc, exc.__traceback__) if in_worker else exc
                with next_key.get_lock():
                    next_key.value = len(keys)
            pairs.append((i, outcome))

    procs, readers = [], []
    try:
        for _ in range(workers - 1):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=lambda w: w.send(take_keys(True)), args=(writer,))
            proc.start()
            procs.append(proc)
            readers.append(reader)
            # Only the worker holds the write end, so its exit ends the pipe.
            writer.close()
        outcomes = dict(take_keys(False))
        lost = None
        for proc, reader in zip(procs, readers):
            with reader:
                try:
                    outcomes.update(reader.recv())
                except EOFError:
                    lost = proc
            proc.join()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
    results = []
    for i in range(len(keys)):
        if i not in outcomes:
            # Keys after the first failure may go untaken, so a missing key
            # before any failure was taken by a worker that died.
            raise RuntimeError(
                f"a grid worker process exited with code {lost.exitcode} "
                "before reporting its cells"
            )
        if isinstance(outcomes[i], Exception):
            raise outcomes[i]
        results.append(outcomes[i])
    return results


def write_metrics_csv(result: RunResult, path: str | Path) -> None:
    rows = zip(*itemgetter(*METRIC_COLUMNS)(result.columns))
    write_csv(path, METRICS_HEADER, METRICS_ROW, rows)
