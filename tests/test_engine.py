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
    run_grid,
    run_repeated,
    two_group_prob_for_ratio,
    write_metrics_csv,
)
from stalefl.local_solver import DivergenceError, LocalConfig
from stalefl.objectives import (
    GLOBAL,
    QuadraticObjective,
    SoftmaxObjective,
    build_label_swap_dataset,
)
from stalefl.participation import ParticipationProfile, make_two_group_profile


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

    def fake_run_repeated(cfg, obj, seeds, *, metrics=True):
        calls.append(cfg.aggregator.beta)
        runs = [SimpleNamespace(test_accuracy=h / 480) for h in hits[cfg.aggregator.beta]]
        return SimpleNamespace(runs=runs)

    monkeypatch.setattr(stalefl.engine, "run_repeated", fake_run_repeated)
    grid = run_grid(
        grid_base_cfg(), lambda swap, group2, seed: SimpleNamespace(dim=1),
        [10.0], [1.0], [0.5, 0.8], [1, 2, 3], n_clients=4, metric_mode="accuracy",
    )
    assert calls == [0.5, 0.8]
    assert [c.metric_mean for c in grid.cells] == [0.8874999999999998, 0.8875000000000001]
    assert grid.beta_opt(10.0, 1.0) == 0.5


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
