import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import oracles
import pytest

import stalefl.engine
from stalefl.aggregation import AggregatorConfig
from stalefl.engine import (
    METRICS_HEADER,
    TrainConfig,
    default_weight_cap,
    horizon_for,
    run,
    run_batch,
    run_grid,
    run_repeated,
    two_group_prob_for_ratio,
    write_metrics_csv,
)
from stalefl.local_solver import DivergenceError, LocalConfig, local_train
from stalefl.objectives import (
    GLOBAL,
    DimensionMismatchError,
    QuadraticObjective,
    SoftmaxObjective,
    build_label_swap_dataset,
)
from stalefl.participation import (
    ParticipationProfile,
    estimated_weight_blocks,
    make_two_group_profile,
    sample_round,
)
from stalefl.theory import HardInstance


def two_client_objective(noise=0.0):
    return QuadraticObjective.isotropic(
        [np.array([5.0, 0.0]), np.array([0.0, 5.0])], noise_var=noise
    )


def base_config(rule="fedstale", beta=0.5, rounds=40, **kw):
    defaults = dict(
        rounds=rounds,
        server_lr=1.0,
        local=LocalConfig(local_steps=5, client_lr=0.02),
        aggregator=AggregatorConfig(rule=rule, beta=beta),
        profile=ParticipationProfile(np.array([1.0, 0.5])),
        master_seed=7,
        init_point=np.array([-10.0, -10.0]),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_run_is_deterministic():
    obj = two_client_objective(noise=0.1)
    cfg = base_config()
    a, b = run(cfg, obj), run(cfg, obj)
    np.testing.assert_array_equal(a.final_w, b.final_w)
    assert a.loss_curve().tolist() == b.loss_curve().tolist()
    np.testing.assert_array_equal(a.participation_trace, b.participation_trace)


def iterates(cfg, obj):
    """w_0 .. w_T of a run: w_t is the final iterate of the run cut at
    round t, which is the t-th iterate of the whole run (see
    test_a_shorter_run_is_a_prefix_of_a_longer_one)."""
    return [cfg.init_point] + [
        run(replace(cfg, rounds=t), obj).final_w for t in range(1, cfg.rounds + 1)
    ]


def test_server_step_identity():
    obj = two_client_objective()
    cfg = base_config(server_lr=0.7)
    traj = iterates(cfg, obj)
    for t, rec in enumerate(run(cfg, obj).records):
        step = float(np.linalg.norm(traj[t + 1] - traj[t]))
        assert step == pytest.approx(0.7 * rec.update_norm, abs=1e-12)


def test_metric_integrity_against_trajectory():
    obj = two_client_objective(noise=0.05)
    cfg = base_config()
    traj = iterates(cfg, obj)
    for t, rec in enumerate(run(cfg, obj).records):
        w = traj[t]  # metrics are logged at the pre-update iterate
        assert rec.global_loss == pytest.approx(obj.loss(w, GLOBAL), abs=1e-10)
        assert rec.grad_norm_sq == pytest.approx(
            float(np.sum(obj.gradient(w, GLOBAL) ** 2)), abs=1e-10
        )


def test_centralized_gd_reduction():
    # One always-present client, K=1, zero noise: the loop is plain GD.
    obj = QuadraticObjective.isotropic([np.array([2.0, -1.0])])
    cfg = TrainConfig(
        rounds=25, server_lr=1.0, local=LocalConfig(1, 0.3),
        aggregator=AggregatorConfig(rule="u_fedavg"),
        profile=ParticipationProfile(np.array([1.0])),
        master_seed=0, init_point=np.zeros(2),
    )
    traj = iterates(cfg, obj)
    w = np.zeros(2)
    for t in range(25):
        w = w - 0.3 * obj.gradient(w, 0)
        np.testing.assert_allclose(traj[t + 1], w, atol=1e-14)


PREFIX_OBJECTIVES = {
    "noisy_quadratic": lambda: two_client_objective(noise=0.3),
    "softmax": lambda: small_softmax_factory()(0.5, None),
    "hard_instance": lambda: HardInstance(21, 10, 1.0, 3),
}
PREFIX_WEIGHTS = {
    "exact": AggregatorConfig(beta=0.5),
    "estimator_cap": AggregatorConfig(beta=0.5, weights_source="estimator", weight_cap=4.0),
}


def prefix_config(obj, aggregator, rounds):
    return base_config(
        rounds=rounds, aggregator=aggregator,
        profile=ParticipationProfile(np.linspace(1.0, 0.3, obj.n_clients)),
        init_point=np.full(obj.dim, -1.0),
    )


def record_reprs(records):
    return [tuple(map(repr, vars(r).values())) for r in records]


def first_rounds(longer, t):
    """Rounds 1..t of a run as exact reprs and bytes: their records, their
    trace, and the metrics of the iterate after round t, which round t + 1
    is taken at."""
    after = longer.records[t]
    return (
        record_reprs(longer.records[:t]),
        longer.participation_trace[:t].tobytes(),
        repr(after.global_loss), repr(after.grad_norm_sq),
    )


def as_prefix(short, obj):
    """The same view of a whole run, its metrics taken at its final iterate."""
    w = short.final_w
    return (
        record_reprs(short.records),
        short.participation_trace.tobytes(),
        repr(obj.loss(w, GLOBAL)), repr(float((obj.gradient(w, GLOBAL) ** 2).sum())),
    )


@pytest.mark.parametrize("weights", list(PREFIX_WEIGHTS))
@pytest.mark.parametrize("kind", list(PREFIX_OBJECTIVES))
def test_a_shorter_run_is_a_prefix_of_a_longer_one(kind, weights):
    # Nothing in a round depends on the run's length: a t-round run is the
    # first t rounds of a longer one, bit for bit, so its final iterate is
    # the longer run's t-th.
    obj = PREFIX_OBJECTIVES[kind]()
    longer = run(prefix_config(obj, PREFIX_WEIGHTS[weights], 40), obj)
    for t in (1, 9, 25, 39):
        short = run(prefix_config(obj, PREFIX_WEIGHTS[weights], t), obj)
        assert as_prefix(short, obj) == first_rounds(longer, t), t


def test_the_default_weight_cap_breaks_the_prefix_property():
    # The default estimator cap grows with the rounds (default_weight_cap):
    # 2 for a 10-round run, 8 for a 40-round one, so their weights, and then
    # their iterates, part once an estimated weight exceeds 2.
    obj = two_client_objective(noise=0.3)
    aggregator = AggregatorConfig(beta=0.5, weights_source="estimator")
    longer = run(prefix_config(obj, aggregator, 40), obj)
    short = run(prefix_config(obj, aggregator, 10), obj)
    assert as_prefix(short, obj) != first_rounds(longer, 10)
    assert short.participation_trace.tobytes() == longer.participation_trace[:10].tobytes()


def test_wall_ns_is_work_counter():
    res = run(base_config(), two_client_objective())
    for rec in res.records:
        assert rec.wall_ns == rec.participant_count * 5 * 1


def test_single_seed_repeat_equals_run():
    obj = two_client_objective()
    cfg = base_config()
    rep = run_repeated(cfg, obj, [3])
    single = run(replace(cfg, master_seed=3), obj)
    np.testing.assert_array_equal(rep.mean_loss_curve, single.loss_curve())
    assert rep.mean_final_loss == single.final_loss


def test_mean_curve_is_arithmetic_mean():
    obj = two_client_objective(noise=0.2)
    rep = run_repeated(base_config(), obj, [1, 2, 3])
    manual = np.mean([r.loss_curve() for r in rep.runs], axis=0)
    np.testing.assert_allclose(rep.mean_loss_curve, manual, atol=1e-15)
    manual_se = np.std([r.loss_curve() for r in rep.runs], axis=0, ddof=1) / math.sqrt(3)
    np.testing.assert_allclose(rep.stderr_loss_curve, manual_se, atol=1e-15)


def test_comparability_traces_identical_across_rules():
    obj = two_client_objective(noise=0.1)
    traces = []
    for rule, beta in (("u_fedavg", 0.0), ("u_fedvarp", 1.0), ("fedstale", 0.5)):
        rep = run_repeated(base_config(rule=rule, beta=beta), obj, [11, 12])
        traces.append([r.participation_trace for r in rep.runs])
    for other in traces[1:]:
        for a, b in zip(traces[0], other):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("lanes", [1, 3 * 7, 10**6])
def test_trace_is_the_same_whatever_the_chunk(monkeypatch, lanes):
    # 3 clients draw: chunks of 1 round, of 7 rounds (the last one holds 1
    # round) and one chunk for the whole run; the noisy oracle's draws do
    # not depend on the chunks either
    prof = ParticipationProfile(np.array([0.6, 1.0, 0.3, 0.9]))
    obj = QuadraticObjective.isotropic(
        [np.array([float(i), 1.0]) for i in range(4)], noise_var=0.2,
    )
    cfg = base_config(rounds=50, profile=prof)
    expected = np.concatenate([sample_round(prof, t, cfg.master_seed) for t in range(1, 51)])
    whole = result_bytes(run(cfg, obj))
    calls = []

    def counted(*args):
        calls.append(args[3])
        return sample_round(*args)

    monkeypatch.setattr(stalefl.engine, "TRACE_LANES", lanes)
    monkeypatch.setattr(stalefl.engine, "sample_round", counted)
    res = run(cfg, obj)
    assert calls == {1: [1] * 50, 21: [7] * 7 + [1], 10**6: [50]}[lanes]
    assert res.participation_trace.tobytes() == expected.tobytes()
    assert result_bytes(res) == whole


@pytest.mark.parametrize("kind", ["noisy_quadratic", "softmax"])
def test_a_clients_draws_do_not_depend_on_the_other_clients_presence(monkeypatch, kind):
    # Two replayed traces that differ only in client 2's presence: in every
    # round, every other client present in both draws the same minibatches
    # or noise, bit for bit.
    obj = {
        "noisy_quadratic": lambda: QuadraticObjective.isotropic(
            [np.array([float(i), 1.0]) for i in range(4)], noise_var=0.3,
        ),
        "softmax": lambda: small_softmax_factory()(0.5, None),
    }[kind]()
    trace = np.random.default_rng(1).random((30, obj.n_clients)) < 0.6
    other = trace.copy()
    other[:, 2] = ~other[:, 2]
    draws_of = []
    for replay in (trace, other):
        seen: dict[tuple[int, int], bytes] = {}
        rounds = iter(np.flatnonzero(replay.any(axis=1)))
        draws = obj._draws

        def spy(clients, *args, seen=seen, rounds=rounds, draws=draws):
            out = draws(clients, *args)
            t = next(rounds)
            for j, i in enumerate(clients):
                seen[t, i] = b"".join(
                    np.ascontiguousarray(part[j]).tobytes()
                    for step in out for part in (step if isinstance(step, tuple) else (step,))
                )
            return out

        monkeypatch.setattr(obj, "_draws", spy)
        run(replace(prefix_config(obj, PREFIX_WEIGHTS["exact"], 30), replay_schedule=replay),
            obj, metrics=False)
        monkeypatch.undo()
        draws_of.append(seen)
    shared = [key for key in draws_of[0] if key[1] != 2 and key in draws_of[1]]
    assert len(shared) > 30
    for key in shared:
        assert draws_of[0][key] == draws_of[1][key], key


@pytest.mark.parametrize("source", ["exact", "estimator"])
def test_replaying_a_runs_trace_gives_the_same_metrics_csv(tmp_path, source):
    obj = two_client_objective(noise=0.1)
    cfg = base_config(rounds=90, aggregator=AggregatorConfig(weights_source=source))
    drawn = run(cfg, obj)
    replayed = run(replace(cfg, replay_schedule=drawn.participation_trace), obj)
    write_metrics_csv(drawn, tmp_path / "drawn.csv")
    write_metrics_csv(replayed, tmp_path / "replayed.csv")
    assert (tmp_path / "drawn.csv").read_bytes() == (tmp_path / "replayed.csv").read_bytes()
    assert result_bytes(replayed) == result_bytes(drawn)


def test_unbiased_rules_make_progress():
    obj = two_client_objective()
    w_star = obj.global_minimizer()
    f_star = obj.loss(w_star, GLOBAL)
    f_init = obj.loss(np.array([-10.0, -10.0]), GLOBAL)
    for rule, beta in (("u_fedavg", 0.0), ("u_fedvarp", 1.0), ("fedstale", 0.8)):
        res = run(base_config(rule=rule, beta=beta, rounds=200), obj)
        assert res.final_loss - f_star < 0.25 * (f_init - f_star), rule


def test_estimator_mode_runs_and_tracks():
    obj = two_client_objective()
    cfg = base_config(
        rounds=60,
        aggregator=AggregatorConfig(rule="u_fedavg", weights_source="estimator"),
    )
    res = run(cfg, obj)
    assert res.participation_trace.shape == (60, 2)
    for weights in estimated_weight_blocks(res.participation_trace, default_weight_cap(60)):
        assert np.all(np.isfinite(weights))
    assert np.isfinite(res.final_loss)


def test_divergence_guard():
    obj = two_client_objective()
    cfg = base_config(server_lr=1.0, local=LocalConfig(5, 50.0), rounds=500)
    with pytest.raises((FloatingPointError, DivergenceError)):
        run(cfg, obj)


def test_metrics_csv_format(tmp_path):
    res = run(base_config(rounds=5), two_client_objective())
    path = tmp_path / "metrics.csv"
    write_metrics_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER == "round,loss,grad_norm_sq,H,participants,update_norm,wall_ns"
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "1"


def test_grid_conventions():
    assert two_group_prob_for_ratio(1.0) == 1.0
    assert two_group_prob_for_ratio(3.0) == pytest.approx(0.2)
    assert two_group_prob_for_ratio(10.0) == pytest.approx(1.0 / 19.0)
    assert horizon_for(0.2) == 50
    assert horizon_for(1.0) == 10
    assert default_weight_cap(50) == pytest.approx(10.0)


def small_softmax_factory(n_clients=4, samples=30):
    def factory(swap, group2):
        ds = build_label_swap_dataset(
            n_clients, samples, swap, (0, 1), np.random.default_rng(1),
            class_count=3, feature_dim=2, group2=group2,
        )
        return SoftmaxObjective(ds, holdout_fraction=0.2)
    return factory


def grid_base_cfg():
    return TrainConfig(
        rounds=10, server_lr=1.0, local=LocalConfig(2, 0.05),
        aggregator=AggregatorConfig(rule="fedstale", beta=0.5),
        profile=ParticipationProfile(np.array([1.0])),
        master_seed=0, init_point=np.zeros(1),
    )


def test_degenerate_grid_equals_run_repeated():
    factory = small_softmax_factory()
    grid = run_grid(
        grid_base_cfg(), factory, [3.0], [0.5], [0.5], [4],
        n_clients=4, metric_mode="accuracy",
    )
    assert len(grid.cells) == 1
    cell = grid.cells[0]
    assert cell.beta_opt_flag

    profile = make_two_group_profile(4, 0.2, 2)
    obj = factory(0.5, profile.group2)
    cfg = replace(
        grid_base_cfg(), rounds=horizon_for(0.2), profile=profile,
        init_point=np.zeros(obj.dim),
    )
    rep = run_repeated(cfg, obj, [4])
    assert cell.metric_mean == rep.runs[0].test_accuracy
    assert cell.metric_stderr == 0.0


def test_grid_thread_count_does_not_change_results():
    factory = small_softmax_factory()
    kwargs = dict(n_clients=4, metric_mode="accuracy")
    args = (grid_base_cfg(), factory, [1.0, 3.0], [0.0, 0.5], [0.0, 1.0], [1, 2])
    g1 = run_grid(*args, threads=1, **kwargs)
    g8 = run_grid(*args, threads=8, **kwargs)
    assert [(c.ratio, c.swap_fraction, c.beta, c.metric_mean, c.beta_opt_flag)
            for c in g1.cells] == [
        (c.ratio, c.swap_fraction, c.beta, c.metric_mean, c.beta_opt_flag)
        for c in g8.cells
    ]


def test_grid_beta_tie_breaks_to_smaller(tmp_path):
    grid = run_grid(
        grid_base_cfg(), small_softmax_factory(), [1.0], [0.0], [0.0, 0.3, 1.0], [1],
        n_clients=4, metric_mode="accuracy",
    )
    flagged = [c.beta for c in grid.cells if c.beta_opt_flag]
    assert len(flagged) == 1
    best = max(c.metric_mean for c in grid.cells)
    assert flagged[0] == min(c.beta for c in grid.cells if c.metric_mean == best)
    path = tmp_path / "grid.csv"
    grid.export_csv(path)
    assert path.read_text().splitlines()[0] == (
        "ratio,swap_fraction,beta,metric_mean,metric_stderr,beta_opt_flag"
    )


def test_grid_tie_rule_ignores_rounding_of_the_mean(monkeypatch):
    # Both betas score 1278 of 3 x 480 held-out samples, but np.mean rounds
    # the per-seed accuracies to 0.8874999999999998 and 0.8875000000000001.
    hits = {0.5: (424, 421, 433), 0.8: (425, 419, 434)}
    calls = []

    def fake_run_batch(cfgs, obj, *, metrics=True):
        seed = cfgs[0].master_seed
        calls.append((seed, [cfg.aggregator.beta for cfg in cfgs]))
        return [
            SimpleNamespace(test_accuracy=hits[cfg.aggregator.beta][seed - 1] / 480)
            for cfg in cfgs
        ]

    monkeypatch.setattr(stalefl.engine, "run_batch", fake_run_batch)
    grid = run_grid(
        grid_base_cfg(), lambda swap, group2: SimpleNamespace(dim=1),
        [10.0], [1.0], [0.5, 0.8], [1, 2, 3], n_clients=4, metric_mode="accuracy",
    )
    assert calls == [(1, [0.5, 0.8]), (2, [0.5, 0.8]), (3, [0.5, 0.8])]
    assert [c.metric_mean for c in grid.cells] == [0.8874999999999998, 0.8875000000000001]
    assert grid.beta_opt(10.0, 1.0) == 0.5


def test_grid_raises_the_first_error_in_beta_lr_seed_order(monkeypatch):
    # Seed 1 fails only at beta 0.8 and seed 2 only at beta 0.5. A loop over
    # beta, then lr, then seed meets (0.5, seed 2) first.
    failing = {(1, 0.8): DivergenceError(1, 0), (2, 0.5): DivergenceError(2, 3)}

    def fake_run_batch(cfgs, obj, *, metrics=True):
        return [
            failing.get((cfg.master_seed, cfg.aggregator.beta), SimpleNamespace(test_accuracy=0.5))
            for cfg in cfgs
        ]

    monkeypatch.setattr(stalefl.engine, "run_batch", fake_run_batch)
    with pytest.raises(DivergenceError) as info:
        run_grid(
            grid_base_cfg(), lambda swap, group2: SimpleNamespace(dim=1),
            [3.0], [0.0], [0.5, 0.8], [1, 2], n_clients=4,
        )
    assert info.value is failing[(2, 0.5)]


def diverging_quadratic_factory(swap, group2):
    return QuadraticObjective.isotropic([np.array([float(i), -1.0]) for i in range(4)])


def test_grid_worker_divergence_is_raised_as_itself():
    # Two cells, so threads=2 runs them in two worker processes.
    cfg = replace(grid_base_cfg(), local=LocalConfig(5, 50.0))
    args = (cfg, diverging_quadratic_factory, [3.0], [0.0, 0.5], [0.0, 1.0], [1, 2])
    raised = []
    for threads in (1, 2):
        with pytest.raises(DivergenceError) as info:
            run_grid(*args, n_clients=4, threads=threads)
        raised.append((type(info.value), info.value.client, info.value.step))
    assert raised[0] == raised[1]


METRICS_OFF_CASES = {
    "fedavg_biased": (two_client_objective, dict(rule="fedavg_biased")),
    "u_fedavg": (two_client_objective, dict(rule="u_fedavg", beta=0.0)),
    "u_fedvarp": (two_client_objective, dict(rule="u_fedvarp", beta=1.0)),
    "fedstale": (two_client_objective, dict(rule="fedstale", beta=0.5)),
    "fedstale_noisy": (lambda: two_client_objective(noise=0.3), dict(rule="fedstale", beta=0.8)),
    "u_fedavg_estimator": (
        lambda: two_client_objective(noise=0.3),
        dict(rule="u_fedavg", weights_source="estimator"),
    ),
    "fedstale_softmax": (
        lambda: small_softmax_factory()(0.5, None), dict(rule="fedstale", beta=0.5),
    ),
}


@pytest.mark.parametrize("name", list(METRICS_OFF_CASES))
def test_metrics_off_changes_no_output_but_the_records(name):
    make_obj, agg_kw = METRICS_OFF_CASES[name]
    obj = make_obj()
    cfg = base_config(
        rounds=30, aggregator=AggregatorConfig(**agg_kw),
        profile=ParticipationProfile(np.linspace(1.0, 0.4, obj.n_clients)),
        init_point=np.full(obj.dim, -1.0),
    )
    full, lean = run(cfg, obj), run(cfg, obj, metrics=False)
    assert len(full.records) == 30 and lean.records == []
    assert math.isnan(lean.min_grad_norm_sq)
    assert lean.final_w.tobytes() == full.final_w.tobytes()
    assert lean.participation_trace.tobytes() == full.participation_trace.tobytes()
    assert repr(lean.final_loss) == repr(full.final_loss)
    assert repr(lean.test_accuracy) == repr(full.test_accuracy)


def result_bytes(res):
    """Everything a run exports, as exact bytes and reprs."""
    return (
        res.final_w.tobytes(),
        record_reprs(res.records),
        res.participation_trace.tobytes(),
        repr(res.final_loss),
        repr(res.min_grad_norm_sq),
        repr(res.test_accuracy),
    )


def batch_case_configs(obj, rules, lrs, **kw):
    base = base_config(**{
        "rounds": 30,
        "profile": ParticipationProfile(np.linspace(1.0, 0.3, obj.n_clients)),
        "init_point": np.full(obj.dim, -1.0),
        **kw,
    })
    return [
        replace(
            base, local=replace(base.local, client_lr=lr),
            aggregator=replace(base.aggregator, rule=rule, beta=beta),
        )
        for rule, beta in rules for lr in lrs
    ]


BETAS = [("fedstale", 0.0), ("fedstale", 0.3), ("fedstale", 1.0)]
# every rule of the fedstale family in one batch
MIXED_RULES = [("u_fedavg", 0.5), ("u_fedvarp", 0.5), ("fedstale", 0.7)]
AVERAGING = [("fedavg_biased", 0.5)]
BATCH_CASES = {
    "softmax_betas_and_lrs": (
        lambda: small_softmax_factory()(0.5, None), BETAS, [0.05, 0.1], {},
    ),
    "noisy_quadratic_estimator": (
        lambda: two_client_objective(noise=0.3), BETAS, [0.02, 0.04],
        dict(aggregator=AggregatorConfig(weights_source="estimator")),
    ),
    "hard_instance": (
        lambda: HardInstance(201, 100, 1.0, 3), BETAS, [0.1, 0.3],
        dict(local=LocalConfig(2, 0.1)),
    ),
    "mixed_rules": (lambda: two_client_objective(noise=0.3), MIXED_RULES, [0.02], {}),
    # every beta 0, so the batch's fedstale call skips the stale terms
    "all_betas_zero": (
        lambda: HardInstance(201, 100, 1.0, 3), [("u_fedavg", 0.5), ("fedstale", 0.0)],
        [0.1, 0.3], dict(local=LocalConfig(2, 0.1)),
    ),
    "mixed_rules_softmax": (
        lambda: small_softmax_factory()(0.5, None), MIXED_RULES, [0.05], {},
    ),
    # every client draws, so some rounds have no participants
    "fedavg_biased": (
        lambda: two_client_objective(noise=0.3), AVERAGING, [0.02, 0.04],
        dict(profile=ParticipationProfile(np.array([0.6, 0.3]))),
    ),
    "fedavg_biased_softmax": (
        lambda: small_softmax_factory()(0.5, None), AVERAGING, [0.05, 0.1], {},
    ),
}


@pytest.mark.parametrize("metrics", [True, False])
@pytest.mark.parametrize("name", list(BATCH_CASES))
def test_batch_equals_sequential_runs(name, metrics):
    make_obj, rules, lrs, kw = BATCH_CASES[name]
    obj = make_obj()
    cfgs = batch_case_configs(obj, rules, lrs, **kw)
    batch = run_batch(cfgs, obj, metrics=metrics)
    alone = [run(cfg, obj, metrics=metrics) for cfg in cfgs]
    assert [result_bytes(r) for r in batch] == [result_bytes(r) for r in alone]


def test_stacked_test_accuracy_equals_single_points():
    obj = small_softmax_factory(n_clients=5, samples=40)(0.5, None)
    points = np.random.default_rng(3).normal(size=(2, 3, obj.dim))
    points[0, 0] = 0.0   # every logit ties, so argmax takes the first class
    stacked = obj.test_accuracy(points)
    assert stacked.shape == (2, 3)
    singles = [[obj.test_accuracy(p) for p in row] for row in points]
    assert [list(map(repr, row)) for row in stacked.tolist()] == [
        list(map(repr, row)) for row in singles
    ]
    assert all(isinstance(a, float) for row in singles for a in row)


def test_batch_without_held_out_samples_raises_as_a_single_run():
    ds = build_label_swap_dataset(
        4, 30, 0.5, (0, 1), np.random.default_rng(1), class_count=3, feature_dim=2,
    )
    obj = SoftmaxObjective(ds, holdout_fraction=0.0)
    cfgs = batch_case_configs(obj, BETAS, [0.05])
    with pytest.raises(ValueError) as alone:
        run(cfgs[0], obj)
    with pytest.raises(ValueError) as batch:
        run_batch(cfgs, obj)
    assert str(alone.value) == str(batch.value) == "no held-out samples available"


def test_batch_returns_each_configs_own_error():
    obj = two_client_objective()
    slow, fast = batch_case_configs(obj, [("fedstale", 0.5)], [3.0, 50.0], rounds=400)
    # `fast` diverges within 100 rounds, `slow` survives them but not 400.
    run(replace(slow, rounds=100), obj)
    with pytest.raises((DivergenceError, FloatingPointError)):
        run(replace(fast, rounds=100), obj)
    ok = batch_case_configs(obj, [("fedstale", 0.5)], [0.02], rounds=400)[0]

    def described(err):
        return type(err), getattr(err, "client", None), getattr(err, "step", None), str(err)

    def raised(call):
        with pytest.raises((DivergenceError, FloatingPointError)) as info:
            call()
        return described(info.value)

    batch = [ok, slow, fast]
    outs = run_batch(batch, obj)
    assert result_bytes(outs[0]) == result_bytes(run(ok, obj))
    assert described(outs[1]) == raised(lambda: run(slow, obj))
    assert described(outs[2]) == raised(lambda: run(fast, obj))

    def sequential():
        for cfg in batch:
            run(cfg, obj)

    # The first error in list order is the one the sequential loop raises,
    # though `fast` is the run that diverges first.
    first = next(o for o in outs if isinstance(o, Exception))
    assert described(first) == raised(sequential)


SHARED_FIELD_CHANGES = {
    "rounds": dict(rounds=31),
    "master_seed": dict(master_seed=8),
    "local_steps": dict(local=LocalConfig(4, 0.02)),
    "batch_size": dict(local=LocalConfig(5, 0.02, batch_size=2)),
    "weights_source": dict(aggregator=AggregatorConfig(weights_source="estimator")),
    "weight_cap": dict(
        aggregator=AggregatorConfig(weights_source="estimator", weight_cap=3.0)
    ),
    "profile": dict(profile=ParticipationProfile(np.array([1.0, 0.4]))),
    "replay_schedule": dict(replay_schedule=np.ones((30, 2), dtype=bool)),
}


@pytest.mark.parametrize("field", list(SHARED_FIELD_CHANGES))
def test_batch_rejects_configs_that_disagree_on_a_shared_field(field):
    obj = two_client_objective()
    cfg = base_config(rounds=30)
    if field == "weight_cap":
        cfg = replace(cfg, aggregator=AggregatorConfig(weights_source="estimator"))
    other = replace(cfg, **SHARED_FIELD_CHANGES[field])
    with pytest.raises(ValueError, match=f"must share {field}"):
        run_batch([cfg, other], obj)


def test_batch_configs_may_differ_in_rule_lrs_and_init():
    obj = two_client_objective()
    cfg = base_config(rounds=30)
    other = replace(
        cfg, server_lr=0.5, init_point=np.array([1.0, 2.0]),
        local=LocalConfig(5, 0.05), aggregator=AggregatorConfig(rule="u_fedvarp"),
    )
    batch = run_batch([cfg, other], obj)
    assert [result_bytes(r) for r in batch] == [
        result_bytes(run(cfg, obj)), result_bytes(run(other, obj)),
    ]
    with pytest.raises(ValueError):
        run_batch([], obj)
    # plain averaging is a rule family of its own
    averaging = replace(other, aggregator=AggregatorConfig(rule="fedavg_biased"))
    for pair in ([cfg, averaging], [averaging, cfg]):
        with pytest.raises(ValueError, match="must share rule family"):
            run_batch(pair, obj)


def test_plain_averaging_makes_no_update_in_an_empty_round():
    obj = two_client_objective()
    schedule = np.zeros((4, 2), dtype=bool)
    schedule[2] = True   # both clients take part in round 3 alone
    cfgs = batch_case_configs(obj, AVERAGING, [0.02, 0.04], rounds=4, replay_schedule=schedule)
    for res in run_batch(cfgs, obj):
        norms = res.columns["update_norm"]
        assert norms[:2] == [0.0, 0.0] and norms[3] == 0.0 and norms[2] > 0.0
        assert res.final_w.tobytes() != cfgs[0].init_point.tobytes()


def outcome(out):
    """A run's result as exact bytes, or its error's type and message."""
    if isinstance(out, Exception):
        return type(out), str(out)
    return result_bytes(out)


def test_metric_blocks_change_no_bit(monkeypatch):
    # 2 full blocks and a partial one; rounds without participants included
    rounds = 2 * stalefl.engine.METRIC_BLOCK + 9
    obj = two_client_objective(noise=0.3)
    cfgs = batch_case_configs(
        obj, BETAS, [0.02, 0.04], rounds=rounds,
        profile=ParticipationProfile(np.array([0.6, 0.3])),
        aggregator=AggregatorConfig(weights_source="estimator"),
    )
    blocked = [outcome(r) for r in run_batch(cfgs, obj)]
    assert all(len(r[1]) == rounds for r in blocked)
    for block in (1, 7):
        monkeypatch.setattr(stalefl.engine, "METRIC_BLOCK", block)
        assert [outcome(r) for r in run_batch(cfgs, obj)] == blocked


def test_lockstep_batch_with_divergence_mid_block(monkeypatch):
    # Nobody takes part in rounds 1-69; from round 70 on, both clients do.
    # Round 70 is the sixth round of the second block.
    obj = two_client_objective()
    schedule = np.ones((150, 2), dtype=bool)
    schedule[:69] = False
    # The same drops at round 70, after which the sets cycle through [0],
    # [0, 1], [1] and []: the set of round 70 comes back after its rows drop.
    cycled = schedule.copy()
    cycled[70:] = np.resize([[True, False], [True, True], [False, True], [False, False]], (80, 2))
    cfg = base_config(rounds=150, replay_schedule=schedule)
    batch = [
        cfg,
        replace(cfg, local=LocalConfig(5, 1e200)),     # a local iterate overflows
        replace(cfg, server_lr=1e308),                  # the global iterate overflows
        replace(cfg, local=LocalConfig(5, 10.0)),       # the metrics overflow first
        replace(cfg, aggregator=AggregatorConfig(rule="fedstale", beta=0.9)),
        # w_70 is finite, but its loss (round 71's metric) overflows before
        # round 71's update does
        replace(cfg, server_lr=1e160),
    ]
    outs = run_batch(batch, obj)
    assert [outcome(o) for o in outs] == [
        outcome(run_batch([c], obj)[0]) for c in batch
    ]
    assert len(outs[0].records) == len(outs[4].records) == 150
    assert isinstance(outs[1], DivergenceError) and outs[1].step == 1
    assert str(outs[2]) == "global iterate diverged at round 70"
    assert isinstance(outs[3], FloatingPointError)
    assert str(outs[3]) == "metrics are non-finite at round 101"
    assert str(outs[5]) == "metrics are non-finite at round 71"

    # A plan bound before rows drop is never used after: the deltas local
    # SGD returns, which live in the plan's buffer, have one row per config
    # of the current batch.
    train = stalefl.engine.local_train

    def checked_train(obj, clients, w_global, cfg, rng, client_lrs, plans):
        deltas, errors = train(obj, clients, w_global, cfg, rng, client_lrs, plans)
        assert deltas.shape == (len(w_global), len(clients), obj.dim)
        return deltas, errors

    monkeypatch.setattr(stalefl.engine, "local_train", checked_train)
    cycled_batch = [replace(c, replay_schedule=cycled) for c in batch]
    cycled_outs = run_batch(cycled_batch, obj)
    # rows drop at rounds 70, 71 and 113, each time between reuses of a set
    assert [str(o) for o in cycled_outs[1:4] + cycled_outs[5:]] == [
        str(outs[1]), str(outs[2]), "metrics are non-finite at round 113", str(outs[5]),
    ]
    cycled_outs = [outcome(o) for o in cycled_outs]
    assert cycled_outs == [outcome(run_batch([c], obj)[0]) for c in cycled_batch]
    for block in (1, 7, 1000):
        monkeypatch.setattr(stalefl.engine, "METRIC_BLOCK", block)
        assert [outcome(o) for o in run_batch(batch, obj)] == [outcome(o) for o in outs]
        assert [outcome(o) for o in run_batch(cycled_batch, obj)] == cycled_outs


def test_nonfinite_metrics_raise_at_their_first_round(monkeypatch):
    # The iterate stays finite for 427 rounds, but the loss overflows at
    # round 216; the metric error comes first, whatever the block size.
    obj = QuadraticObjective.isotropic([np.array([5.0, 0.0]), np.array([0.0, 5.0])])
    cfg = TrainConfig(
        2000, 1.0, LocalConfig(5, 2.5), AggregatorConfig(),
        ParticipationProfile(np.array([1.0, 0.3])), 1, np.array([-1.0, -1.0]),
    )
    with pytest.raises(FloatingPointError, match="global iterate diverged at round 428"):
        run(cfg, obj, metrics=False)
    assert math.isinf(run(replace(cfg, rounds=400), obj, metrics=False).final_loss)
    for block in (1, 64, 4096):
        monkeypatch.setattr(stalefl.engine, "METRIC_BLOCK", block)
        with pytest.raises(FloatingPointError, match="^metrics are non-finite at round 216$"):
            run(cfg, obj)


def test_nonfinite_final_loss_raises_with_metrics_on():
    # The only update, in the last round, leaves a finite iterate whose
    # loss overflows.
    schedule = np.zeros((70, 2), dtype=bool)
    schedule[-1] = True
    cfg = base_config(rounds=70, server_lr=1e160, replay_schedule=schedule)
    obj = two_client_objective()
    lean = run(cfg, obj, metrics=False)
    assert np.isfinite(lean.final_w).all() and math.isinf(lean.final_loss)
    with pytest.raises(FloatingPointError, match="^the final loss is non-finite after round 70$"):
        run(cfg, obj)


def test_iterates_whose_squares_overflow_are_finite(monkeypatch):
    # Centers near 1e160 put the iterates near 1e158, whose squares overflow:
    # the cheap finiteness check raises a false alarm every round, and the
    # exact checks behind it (local SGD's replay, the engine's per-row check)
    # keep the bits of the reference loops and raise nothing.
    obj = QuadraticObjective.isotropic([np.array([1e160, 0.0]), np.array([0.0, 1e160])])
    clients, steps, lr = [0, 1], 2, 0.01

    def local_deltas(w):
        start = np.repeat(w[:, None], len(clients), axis=1)
        local = start
        for _ in range(steps):
            g = oracles.quadratic_row_gradients(obj.hessians, obj.centers, clients, local)
            local = local - lr * g
        return start - local

    # Local SGD settles the false alarm with the exact check: the bound
    # kernel runs the K steps once, and a replay would run them twice.
    calls = []
    bind = obj._bind_stochastic_gradients

    def counted_bind(*args):
        grads = bind(*args)

        def counted(sample):
            calls.append(sample)
            return grads(sample)

        return counted

    monkeypatch.setattr(obj, "_bind_stochastic_gradients", counted_bind)
    w = np.full((1, 2), 1e158)
    with np.errstate(over="ignore"):
        deltas, errors = local_train(obj, clients, w, LocalConfig(steps, lr), None, [lr])
    assert errors == [None] and len(calls) == steps
    assert deltas.tobytes() == local_deltas(w).tobytes()

    # A real divergence in the same regime still replays and reports the
    # (client, step) of the hand loop, the first non-finite iterate of the
    # lowest-index client that has one, next to a config that stays finite.
    big_steps, big_lr = 60, 1000.0
    w = np.array([[1e158, 1e158], [1e158, 1e150]])
    calls.clear()
    with np.errstate(over="ignore", invalid="ignore"):
        _, errors = local_train(
            obj, clients, w, LocalConfig(big_steps, lr), None, np.array([lr, big_lr]),
        )
        first = {}
        for i in clients:
            local = w[1:, None].copy()
            for k in range(big_steps):
                local = local - big_lr * oracles.quadratic_row_gradients(
                    obj.hessians, obj.centers, [i], local,
                )
                if not np.isfinite(local).all():
                    first.setdefault(i, k)
    assert errors[0] is None and len(calls) == 2 * big_steps
    client = min(first)
    assert (errors[1].client, errors[1].step) == (client, first[client])

    cfg = base_config(
        rounds=5, local=LocalConfig(steps, lr), aggregator=AggregatorConfig(rule="u_fedavg"),
        profile=ParticipationProfile(np.ones(2)), init_point=np.zeros(2),
    )
    w = np.zeros((1, 2))
    for _ in range(cfg.rounds):
        update = oracles.u_fedavg(clients, local_deltas(w)[0], np.ones(2), len(clients))
        w = w - update
    assert np.abs(w).min() > 1e155
    lean = run(cfg, obj, metrics=False)
    assert lean.final_w.tobytes() == w[0].tobytes()
    assert math.isinf(lean.final_loss)


def test_each_layer_is_called_by_its_traced_name_once_a_round(monkeypatch):
    # A profiler that wraps these module-level names (perfbench/tracer.py)
    # splits a run's time into local SGD, aggregation and metrics. The round
    # loop calls each round function once a round for the whole batch, and
    # each metric oracle once a block of METRIC_BLOCK rounds.
    rounds = 2 * stalefl.engine.METRIC_BLOCK + 9
    blocks = 3
    obj = two_client_objective(noise=0.3)
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(stalefl.engine, "local_train")
    count(stalefl.aggregation, "fedstale")
    count(stalefl.aggregation, "refresh_memory")
    count(stalefl.aggregation, "memory_error")
    count(obj, "loss")
    count(obj, "gradient")
    cfgs = batch_case_configs(
        obj, BETAS, [0.02, 0.04], rounds=rounds,
        profile=ParticipationProfile(np.array([1.0, 0.5])),   # client 0 in every round
    )
    for batch in (cfgs[:1], cfgs):
        calls.clear()
        assert all(isinstance(r, stalefl.engine.RunResult) for r in run_batch(batch, obj))
        assert calls == {
            "local_train": rounds, "fedstale": rounds, "refresh_memory": rounds,
            # the metric blocks, and one final loss
            "memory_error": blocks, "gradient": blocks, "loss": blocks + 1,
        }


def test_init_point_must_be_a_single_point():
    # the oracles take stacks of points, a run's initial point stays one
    for bad in (np.zeros((1, 2)), np.zeros((3, 2)), np.zeros(3)):
        with pytest.raises(DimensionMismatchError):
            run(base_config(init_point=bad), two_client_objective())
