"""Acceptance suite: one test per release criterion, each printing a PASS line.

These tests pin the externally-agreed behavior of the package at stated
tolerances. Hyperparameters marked "tuned" were selected offline by grid
search within the theory module's learning-rate constraints (or the
experiment protocol's conventions) and then frozen here.
"""

import itertools
import math
import time

import numpy as np
import oracles
import pytest
from scipy.stats import spearmanr

from stalefl.aggregation import (
    AggregatorConfig,
    fedavg_biased,
    fedstale,
)
from stalefl.cli import main as cli_main
from stalefl.engine import (
    TrainConfig,
    horizon_for,
    run,
    run_grid,
    run_repeated,
    two_group_prob_for_ratio,
)
from stalefl.local_solver import LocalConfig
from stalefl.objectives import (
    GLOBAL,
    QuadraticObjective,
    SoftmaxObjective,
    build_label_swap_dataset,
)
from stalefl.participation import (
    ParticipationProfile,
    estimated_probs,
    make_two_group_profile,
)
from stalefl.theory import (
    BoundInputs,
    HardInstance,
    beta_star,
    expected_frontier_cap,
    fastest_schedule,
    frontier_bound,
    frontier_gradient_floor,
    lower_bound_curve,
    track_frontier,
)


def announce(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS criterion {number}: {name}{suffix}")


def test_criterion_01_unbiasedness_by_enumeration():
    t0 = time.time()
    rng = np.random.default_rng(101)
    n, dim = 3, 3
    probs = [1.0, 0.5, 0.2]
    deltas = rng.normal(size=(n, dim))
    slots = rng.normal(size=(n, dim))
    weights = 1.0 / np.array(probs)
    target = np.mean(deltas, axis=0)

    def expectation(rule):
        total = np.zeros(dim)
        for mask in itertools.product((False, True), repeat=n):
            prob = np.prod([p if m else 1.0 - p for p, m in zip(probs, mask)])
            if prob == 0.0:
                continue
            present = [i for i in range(n) if mask[i]]
            total = total + prob * rule(present, deltas[present])
        return total

    rules = [
        ("u_fedavg", lambda s, d: oracles.u_fedavg(s, d, weights, n)),
        ("u_fedvarp", lambda s, d: oracles.u_fedvarp(s, d, slots, weights, n)),
    ] + [
        (f"fedstale(beta={b})", lambda s, d, b=b: fedstale(s, d, slots, weights, b))
        for b in (0.0, 0.3, 0.7, 1.0)
    ]
    for name, rule in rules:
        np.testing.assert_allclose(expectation(rule), target, atol=1e-12, err_msg=name)

    biased_dev = float(np.linalg.norm(expectation(fedavg_biased) - target))
    assert biased_dev > 1e-3
    elapsed = time.time() - t0
    assert elapsed < 1.0
    announce(1, "unbiasedness by 2^N enumeration",
             f"6 rules exact to 1e-12; biased deviation {biased_dev:.3f}; {elapsed:.2f}s")


def test_criterion_02_interpolation_identity():
    t0 = time.time()
    rng = np.random.default_rng(202)
    n, dim = 4, 3
    for _ in range(1000):
        present = [i for i in range(n) if rng.random() < 0.6]
        deltas = rng.normal(size=(len(present), dim))
        slots = rng.normal(size=(n, dim))
        weights = rng.uniform(1.0, 10.0, size=n)
        beta = rng.random()
        combo = (
            (1.0 - beta) * oracles.u_fedavg(present, deltas, weights, n)
            + beta * oracles.u_fedvarp(present, deltas, slots, weights, n)
        )
        np.testing.assert_allclose(
            fedstale(present, deltas, slots, weights, beta), combo, atol=1e-14
        )
    elapsed = time.time() - t0
    assert elapsed < 1.0
    announce(2, "fresh/stale interpolation identity",
             f"1000 random inputs to 1e-14; {elapsed:.2f}s")


def test_criterion_03_two_client_convergence():
    t0 = time.time()
    obj = QuadraticObjective(
        [np.diag([1.0, 0.5]), np.diag([0.5, 1.0])],
        [np.array([5.0, 0.0]), np.array([0.0, 5.0])],
    )
    f_star = obj.loss(obj.global_minimizer(), GLOBAL)
    w0 = np.array([-10.0, -10.0])
    f_init = obj.loss(w0, GLOBAL)
    profile = ParticipationProfile(np.array([1.0, 0.01]))
    seeds = list(range(1, 11))
    # client lr tuned offline over {0.0025..0.025}; server lr 1 per the
    # experiment protocol (the sufficient theory constraint on the server lr
    # is far more conservative than needed on this instance).
    finals = {}
    for rule, beta in (("u_fedavg", 0.0), ("u_fedvarp", 1.0), ("fedstale", 0.8)):
        cfg = TrainConfig(
            4000, 1.0, LocalConfig(5, 0.0025),
            AggregatorConfig(rule=rule, beta=beta), profile, 1, w0,
        )
        rep = run_repeated(cfg, obj, seeds)
        finals[rule] = rep.mean_final_loss
        assert rep.mean_final_loss - f_star < 0.1 * (f_init - f_star), rule
    assert finals["fedstale"] <= 1.1 * min(finals["u_fedavg"], finals["u_fedvarp"])
    elapsed = time.time() - t0
    assert elapsed < 30.0
    announce(3, "two-client quadratic reproduction",
             f"final losses {finals['u_fedavg']:.3f}/{finals['u_fedvarp']:.3f}/"
             f"{finals['fedstale']:.3f}; {elapsed:.1f}s")


def test_criterion_04_frontier_bound_exact():
    t0 = time.time()
    inst = HardInstance(dim=2003, horizon=1001, smoothness_L=1.0, n_clients=2)
    for tau in range(1, 11):
        ks = track_frontier(inst, fastest_schedule(501, tau))
        for t in range(501):
            assert ks[t] == frontier_bound(t, tau), (tau, t)
    spot = track_frontier(inst, fastest_schedule(11, 4))[10]
    assert spot == 7
    elapsed = time.time() - t0
    assert elapsed < 1.0
    announce(4, "frontier automaton matches closed form",
             f"tau 1..10, t<=500; k(10)=7 at tau=4; {elapsed:.2f}s")


def test_criterion_05_gradient_floor_oracle():
    t0 = time.time()
    for L in (1.0, 10.0):
        inst = HardInstance(dim=45, horizon=22, smoothness_L=L, n_clients=2)
        for k in range(1, 21):
            closed, _ = frontier_gradient_floor(inst, k)
            numeric, _ = oracles.minimize_gradient_norm_in_span(inst, k)
            assert closed == pytest.approx(numeric, abs=1e-8), (L, k)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    announce(5, "closed-form gradient floor vs linear-system oracle",
             f"k<=20, L in {{1,10}}, 1e-8; {elapsed:.2f}s")


def test_criterion_06_stochastic_frontier_expectation():
    t0 = time.time()
    inst = HardInstance(dim=1001, horizon=500, smoothness_L=1.0, n_clients=2)
    rng = np.random.default_rng(606)
    n_sched = 10_000
    for p in (0.1, 0.25):
        for t_max in (50, 200):
            finals = np.empty(n_sched)
            draws = rng.random((n_sched, t_max)) < p
            for s in range(n_sched):
                sched = np.ones((t_max, 2), dtype=bool)
                sched[:, 1] = draws[s]
                finals[s] = track_frontier(inst, sched)[-1]
            se = finals.std(ddof=1) / math.sqrt(n_sched)
            cap = expected_frontier_cap(p, t_max)
            assert finals.mean() <= cap + 3.0 * se, (p, t_max)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    announce(6, "stochastic frontier expectation capped",
             f"p in {{0.1,0.25}}, t in {{50,200}}, 1e4 schedules; {elapsed:.1f}s")


def test_criterion_07_lower_bound_dominance():
    t0 = time.time()
    dim, horizon, rounds = 201, 100, 100
    inst = HardInstance(dim, horizon, 1.0, 2)
    profile = ParticipationProfile(np.array([1.0, 0.1]))
    curve = lower_bound_curve(0.1, rounds, inst.f_gap(), 1.0)
    for beta in (0.0, 1.0):
        grads = np.empty((100, rounds))
        for seed in range(100):
            cfg = TrainConfig(
                rounds, 0.01, LocalConfig(1, 0.1),
                AggregatorConfig(rule="fedstale", beta=beta),
                profile, seed, np.zeros(dim),
            )
            res = run(cfg, inst)
            grads[seed] = np.minimum.accumulate(res.grad_curve())
        mean_min = grads.mean(axis=0)
        # records[t-1] holds the gradient at the round-t pre-update iterate,
        # i.e. after t-1 update steps
        for t in range(rounds):
            assert mean_min[t] >= curve[t], (beta, t)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    announce(7, "hard-instance dominance over the lower-bound envelope",
             f"beta in {{0,1}}, 100 seeds, t<=100; {elapsed:.1f}s")


def test_criterion_08_beta_star_directions():
    t0 = time.time()

    def inputs(sg_sq=4.0, ratio=3.0, sigma_sq=1.0):
        return BoundInputs(
            smoothness_L=1.0, sigma_sq=sigma_sq, sg_sq=sg_sq,
            p_var=0.5, p_avg=ratio * 0.1, p_min=0.1, n_clients=10,
            local_steps=5, client_lr=0.02, server_lr=0.1, rounds=100, beta=0.5,
        )

    assert beta_star(inputs(sg_sq=0.0)) == 0.0
    ratio_vals = [beta_star(inputs(ratio=r)) for r in (1.0, 3.0, 10.0, 50.0)]
    assert all(a > b for a, b in zip(ratio_vals, ratio_vals[1:]))
    sg_vals = [beta_star(inputs(sg_sq=s)) for s in (0.0, 0.5, 1.0, 4.0, 16.0)]
    assert all(a <= b for a, b in zip(sg_vals, sg_vals[1:]))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    announce(8, "optimal staleness weight direction checks",
             f"zero at sg=0; decreasing in ratio; nondecreasing in sg; {elapsed:.2f}s")


GRID_RATIOS = [1.0, 3.0, 10.0, 50.0]
GRID_SWAPS = [0.0, 0.33, 0.66, 1.0]
GRID_BETAS = [0.0, 0.2, 0.5, 0.8, 1.0]
GRID_SEEDS = [1, 2, 3]
GRID_LOCAL = LocalConfig(local_steps=5, client_lr=0.03, batch_size=5)


def grid_objective_factory(swap, group2):
    ds = build_label_swap_dataset(
        24, 50, swap, (0, 1), np.random.default_rng(1),
        class_count=10, feature_dim=10, cluster_std=1.0, group2=group2,
    )
    return SoftmaxObjective(ds, holdout_fraction=0.4)


def grid_base_config():
    return TrainConfig(
        10, 1.0, GRID_LOCAL, AggregatorConfig(rule="fedstale"),
        ParticipationProfile(np.array([1.0])), 0, np.zeros(1),
    )


def test_criterion_09_regime_structure_grid():
    t0 = time.time()
    grid = run_grid(
        grid_base_config(), grid_objective_factory,
        GRID_RATIOS, GRID_SWAPS, GRID_BETAS, GRID_SEEDS,
        n_clients=24, metric_mode="accuracy", threads=1,
    )
    ratios, swaps, bopts = [], [], []
    for r in GRID_RATIOS:
        for s in GRID_SWAPS:
            ratios.append(r)
            swaps.append(s)
            bopts.append(grid.beta_opt(r, s))
    corr_swap = spearmanr(bopts, swaps).statistic
    corr_ratio = spearmanr(bopts, ratios).statistic
    elapsed = time.time() - t0
    n_swaps = len(GRID_SWAPS)
    table = f"beta_opt per ratio over swaps {GRID_SWAPS}: " + "; ".join(
        f"{r:g}: " + " ".join(f"{b:g}" for b in bopts[k * n_swaps:(k + 1) * n_swaps])
        for k, r in enumerate(GRID_RATIOS)
    )
    assert elapsed < 600.0
    assert corr_swap >= 0.0, f"beta_opt vs swap correlation {corr_swap:.3f}; {table}"
    assert corr_ratio <= 0.0, f"beta_opt vs ratio correlation {corr_ratio:.3f}; {table}"
    announce(9, "regime-structure grid directions",
             f"spearman swap {corr_swap:+.3f}, ratio {corr_ratio:+.3f}; {elapsed:.0f}s; {table}")


def test_criterion_10_online_estimation_robustness():
    t0 = time.time()
    ratio, swap = 3.0, 0.66
    p_low = two_group_prob_for_ratio(ratio)       # 0.2
    profile = make_two_group_profile(24, p_low, 12)
    obj = grid_objective_factory(swap, profile.group2)
    rounds = horizon_for(p_low)                   # 50
    for rule, beta in (("u_fedavg", 0.0), ("u_fedvarp", 1.0), ("fedstale", 0.5)):
        results = {}
        for source in ("exact", "estimator"):
            cfg = TrainConfig(
                rounds, 1.0, GRID_LOCAL,
                AggregatorConfig(rule=rule, beta=beta, weights_source=source),
                profile, 1, np.zeros(obj.dim),
            )
            results[source] = run(cfg, obj)
        assert results["estimator"].final_loss <= 2.0 * results["exact"].final_loss, rule
        est = estimated_probs(results["estimator"].participation_trace)[-1]
        p_hat = np.mean([est[i] for i in profile.group2])
        assert abs(p_hat - p_low) <= 0.05, (rule, p_hat)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    announce(10, "online participation estimation robustness",
             f"3 unbiased rules within 2x; group p-hat within 0.05; {elapsed:.1f}s")


RUN_CONFIG = """\
[objective]
kind = quadratic2d
centers = 5,0; 0,5
hessians = 1,0.5; 0.5,1

[participation]
n_clients = 2
p_min_group = 0.5
group2_size = 1

[local]
local_steps = 5
client_lr = 0.02
batch_size = 1

[aggregator]
rule = fedstale
beta = 0.5

[run]
rounds = 40
server_lr = 1.0
master_seed = 3
init = -10,-10
"""

GRID_CONFIG = """\
[objective]
kind = softmax
n_clients = 8
samples_per_client = 20
class_count = 4
feature_dim = 3
holdout_fraction = 0.25
data_seed = 1

[participation]
n_clients = 8

[local]
local_steps = 2
client_lr = 0.05
batch_size = 5

[run]
server_lr = 1.0

[grid]
ratios = 1, 3
swap_fractions = 0, 0.5
betas = 0, 0.5, 1
seeds = 1, 2
metric = accuracy
"""


def test_criterion_11_reproducibility_across_threads(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    # rerun from the emitted manifest alone
    assert cli_main(
        ["run", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]
    ) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    gcfg = tmp_path / "grid.ini"
    gcfg.write_text(GRID_CONFIG)
    g1, g8 = tmp_path / "g1", tmp_path / "g8"
    assert cli_main(
        ["grid", "--config", str(gcfg), "--out", str(g1), "--threads", "1"]
    ) == 0
    assert cli_main(
        ["grid", "--config", str(gcfg), "--out", str(g8), "--threads", "8"]
    ) == 0
    assert (g1 / "grid.csv").read_bytes() == (g8 / "grid.csv").read_bytes()
    elapsed = time.time() - t0
    announce(11, "byte-identical reproducibility",
             f"manifest rerun and thread counts 1 vs 8; {elapsed:.1f}s")
