import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
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
from stalefl.local_solver import DivergenceError, LocalConfig
from stalefl.objectives import (
    GLOBAL,
    DimensionMismatchError,
    QuadraticObjective,
    SoftmaxObjective,
    build_label_swap_dataset,
)
from stalefl.participation import ParticipationProfile, make_two_group_profile
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


def test_server_step_identity():
    obj = two_client_objective()
    res = run(base_config(record_trajectory=True, server_lr=0.7), obj)
    traj = res.trajectory
    for t, rec in enumerate(res.records):
        step = float(np.linalg.norm(traj[t + 1] - traj[t]))
        assert step == pytest.approx(0.7 * rec.update_norm, abs=1e-12)


def test_metric_integrity_against_trajectory():
    obj = two_client_objective(noise=0.05)
    res = run(base_config(record_trajectory=True), obj)
    for t, rec in enumerate(res.records):
        w = res.trajectory[t]  # metrics are logged at the pre-update iterate
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
        master_seed=0, init_point=np.zeros(2), record_trajectory=True,
    )
    res = run(cfg, obj)
    w = np.zeros(2)
    for t in range(25):
        w = w - 0.3 * obj.gradient(w, 0)
        np.testing.assert_allclose(res.trajectory[t + 1], w, atol=1e-14)


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
    assert res.estimator is not None
    assert res.estimator.rounds_seen == 60
    assert np.all(np.isfinite(res.estimator.weights()))
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
    def factory(swap, group2, seed):
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
    obj = factory(0.5, profile.group2, 4)
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
        grid_base_cfg(), lambda swap, group2, seed: SimpleNamespace(dim=1),
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
            grid_base_cfg(), lambda swap, group2, seed: SimpleNamespace(dim=1),
            [3.0], [0.0], [0.5, 0.8], [1, 2], n_clients=4,
        )
    assert info.value is failing[(2, 0.5)]


def diverging_quadratic_factory(swap, group2, seed):
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
        lambda: small_softmax_factory()(0.5, None, 1), dict(rule="fedstale", beta=0.5),
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
        [tuple(map(repr, vars(r).values())) for r in res.records],
        res.participation_trace.tobytes(),
        repr(res.final_loss),
        repr(res.min_grad_norm_sq),
        repr(res.test_accuracy),
        None if res.trajectory is None else res.trajectory.tobytes(),
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
MIXED_RULES = [
    ("fedavg_biased", 0.5), ("u_fedavg", 0.5), ("u_fedvarp", 0.5), ("fedstale", 0.7),
]
BATCH_CASES = {
    "softmax_betas_and_lrs": (
        lambda: small_softmax_factory()(0.5, None, 1), BETAS, [0.05, 0.1], {},
    ),
    "noisy_quadratic_estimator": (
        lambda: two_client_objective(noise=0.3), BETAS, [0.02, 0.04],
        dict(aggregator=AggregatorConfig(weights_source="estimator"),
             record_trajectory=True),
    ),
    "hard_instance": (
        lambda: HardInstance(201, 100, 1.0, 3), BETAS, [0.1, 0.3],
        dict(local=LocalConfig(2, 0.1)),
    ),
    "mixed_rules": (lambda: two_client_objective(noise=0.3), MIXED_RULES, [0.02], {}),
    "mixed_rules_softmax": (
        lambda: small_softmax_factory()(0.5, None, 1), MIXED_RULES, [0.05], {},
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
        local=LocalConfig(5, 0.05), aggregator=AggregatorConfig(rule="fedavg_biased"),
    )
    batch = run_batch([cfg, other], obj)
    assert [result_bytes(r) for r in batch] == [
        result_bytes(run(cfg, obj)), result_bytes(run(other, obj)),
    ]
    with pytest.raises(ValueError):
        run_batch([], obj)


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
        obj, BETAS, [0.02, 0.04], rounds=rounds, record_trajectory=True,
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
    for block in (1, 7, 1000):
        monkeypatch.setattr(stalefl.engine, "METRIC_BLOCK", block)
        assert [outcome(o) for o in run_batch(batch, obj)] == [outcome(o) for o in outs]


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


def test_init_point_must_be_a_single_point():
    # the oracles take stacks of points, a run's initial point stays one
    for bad in (np.zeros((1, 2)), np.zeros((3, 2)), np.zeros(3)):
        with pytest.raises(DimensionMismatchError):
            run(base_config(init_point=bad), two_client_objective())
