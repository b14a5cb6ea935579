import math
from dataclasses import replace

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stalefl.objectives import GLOBAL
from stalefl.theory import (
    BoundInputs,
    HardInstance,
    beta_star,
    check_lr_constraints,
    expected_frontier_cap,
    fastest_schedule,
    frontier_bound,
    frontier_gradient_floor,
    lower_bound_curve,
    theorem1_bound,
    track_frontier,
)


def make_inputs(**kw):
    base = dict(
        smoothness_L=1.0, sigma_sq=1.0, sg_sq=4.0, p_var=0.5, p_avg=0.6,
        p_min=0.2, n_clients=4, local_steps=5, client_lr=0.02, server_lr=0.1,
        rounds=100, beta=0.5, f_init_gap=10.0, h_init=2.0,
    )
    base.update(kw)
    return BoundInputs(**base)


def test_client_lr_threshold():
    rep = check_lr_constraints(make_inputs(client_lr=0.025))
    assert rep.client_lr_max == pytest.approx(0.025)  # 1/(8*1*5)
    assert "client_lr" not in rep.violated
    assert "client_lr" in check_lr_constraints(make_inputs(client_lr=0.026)).violated


def test_full_participation_server_lr_always_ok():
    rep = check_lr_constraints(make_inputs(p_var=math.inf, server_lr=1e9))
    assert "server_lr" not in rep.violated
    assert rep.server_lr_max == math.inf


def test_server_lr_vacuous_cases():
    # beta=1: the fresh-term constraint disappears; beta=0: the stale one does.
    r1 = check_lr_constraints(make_inputs(beta=1.0))
    assert r1.server_lr_max == pytest.approx(0.5 * 0.2 / (3.0 * 0.6))
    r0 = check_lr_constraints(make_inputs(beta=0.0))
    assert r0.server_lr_max == pytest.approx(4 * 0.5 / 12.0)


@given(
    beta=st.floats(0, 1),
    sg=st.floats(0, 10),
    sigma=st.floats(0, 10),
    h=st.floats(0, 10),
)
@settings(max_examples=60, deadline=None)
def test_bound_terms_nonnegative(beta, sg, sigma, h):
    bb = theorem1_bound(make_inputs(beta=beta, sg_sq=sg, sigma_sq=sigma, h_init=h,
                                    client_lr=0.02, server_lr=0.01))
    for term in (bb.iterate_init_term, bb.memory_init_term,
                 bb.stochastic_term, bb.heterogeneity_term):
        assert term >= 0.0
    assert bb.total >= 0.0


def test_doubling_rounds_halves_horizon_terms_only():
    a = theorem1_bound(make_inputs(server_lr=0.01))
    b = theorem1_bound(make_inputs(server_lr=0.01, rounds=200))
    assert b.iterate_init_term == pytest.approx(a.iterate_init_term / 2)
    assert b.memory_init_term == pytest.approx(a.memory_init_term / 2)
    assert b.stochastic_term == a.stochastic_term
    assert b.heterogeneity_term == a.heterogeneity_term


@pytest.mark.parametrize("field,value", [
    ("smoothness_L", math.nan), ("sigma_sq", math.inf), ("sg_sq", math.nan),
    ("p_avg", math.inf), ("p_min", math.nan), ("f_init_gap", math.inf),
    ("h_init", math.nan), ("a1", math.inf), ("a2", math.nan),
    ("client_lr", math.nan), ("server_lr", math.inf),
])
def test_bound_inputs_reject_a_non_finite_value(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_inputs(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("client_lr", 0.0), ("client_lr", -0.01), ("server_lr", 0.0), ("server_lr", -1.0),
])
def test_bound_inputs_reject_a_learning_rate_of_at_most_zero(field, value):
    with pytest.raises(ValueError, match="must be positive"):
        make_inputs(**{field: value})


@pytest.mark.parametrize("p_avg,p_min,message", [
    (0.2, 0.9, "cannot exceed p_avg"), (0.6, 0.61, "cannot exceed p_avg"),
    (2.0, 1.5, "at most 1"),
])
def test_bound_inputs_reject_an_impossible_minimum_probability(p_avg, p_min, message):
    with pytest.raises(ValueError, match=message):
        make_inputs(p_avg=p_avg, p_min=p_min)
    make_inputs(p_avg=p_avg, p_min=min(p_avg, 1.0))   # the bounds themselves pass


def test_beta_star_no_stochastic_single_step():
    # sigma^2 = 0 and K = 1 leave only the (1/N) sg^2 denominator term.
    assert beta_star(make_inputs(sigma_sq=0.0, local_steps=1)) == pytest.approx(1.0)


def test_beta_star_zero_without_heterogeneity():
    assert beta_star(make_inputs(sg_sq=0.0)) == 0.0


def test_beta_star_is_nan_under_full_participation():
    # With p_var = inf every beta term of the bound vanishes, so every beta
    # gives the same total and none is optimal.
    inp = make_inputs(p_var=math.inf, p_avg=1.0, p_min=1.0)
    totals = [theorem1_bound(replace(inp, beta=b)).total for b in (0.0, 0.5, 1.0)]
    assert totals[0] == totals[1] == totals[2]
    assert math.isnan(beta_star(inp))
    assert 0.0 < beta_star(replace(inp, p_var=1e300)) <= 1.0


def test_beta_star_self_consistent_with_bound():
    # With no memory-initialization term the total bound is quadratic in beta;
    # its grid minimizer must agree with the closed form.
    for ratio, sg in ((2.0, 4.0), (10.0, 1.0), (5.0, 0.5)):
        inp = make_inputs(h_init=0.0, p_avg=ratio * 0.05, p_min=0.05, sg_sq=sg)
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        totals = [
            theorem1_bound(make_inputs(h_init=0.0, p_avg=ratio * 0.05, p_min=0.05,
                                       sg_sq=sg, beta=b)).total
            for b in grid
        ]
        assert abs(grid[int(np.argmin(totals))] - beta_star(inp)) <= 0.05


# --- hard instance -------------------------------------------------------------


@pytest.fixture(scope="module")
def inst():
    return HardInstance(dim=25, horizon=12, smoothness_L=1.0, n_clients=3)


def test_hard_instance_origin_values(inst):
    assert inst.loss(np.zeros(25), GLOBAL) == 0.0
    g = inst.gradient(np.zeros(25), GLOBAL)
    expected = np.zeros(25)
    expected[0] = -0.25  # -(L/4) e_1
    np.testing.assert_allclose(g, expected, atol=1e-15)


def test_hard_instance_split_identity(inst):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        w = rng.normal(size=25)
        mean = np.mean([inst.loss(w, i) for i in range(3)])
        assert mean == pytest.approx(inst.loss(w, GLOBAL), abs=1e-10)


def test_hard_instance_inactive_clients_zero(inst):
    w = np.random.default_rng(1).normal(size=25)
    assert inst.loss(w, 2) == 0.0
    np.testing.assert_array_equal(inst.gradient(w, 2), np.zeros(25))


@pytest.mark.parametrize("L", [1.0, 0.7, 10.0])
@pytest.mark.parametrize("dim,horizon", [(5, 2), (45, 22), (45, 10), (201, 100)])
@pytest.mark.parametrize("n_clients", [2, 3])
def test_hard_instance_oracles_match_dense_forms(L, dim, horizon, n_clients):
    inst = HardInstance(dim, horizon, L, n_clients)
    forms = oracles.hard_instance_forms(dim, horizon, L, n_clients)
    points = np.random.default_rng(dim).normal(size=(4, dim))
    for client in [GLOBAL, *range(n_clients)]:
        losses, grads = inst.loss(points, client), inst.gradient(points, client)
        for w, loss, grad in zip(points, losses, grads):
            stoch = None if client is GLOBAL else inst.stochastic_gradient(client, w, 1, None)
            if client not in forms:
                assert loss == 0.0 and not grad.any() and not stoch.any()
                continue
            b, lin = forms[client]
            ref_grad = b @ w + lin
            assert loss == pytest.approx(0.5 * w @ b @ w + lin @ w, rel=1e-13)
            for g in (grad, stoch):
                if g is not None:
                    assert np.linalg.norm(g - ref_grad) <= 1e-13 * np.linalg.norm(ref_grad)


def held_bytes(value) -> int:
    """Bytes of the numpy arrays reachable from `value` through dicts,
    tuples and lists."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return sum(held_bytes(v) for v in value)
    return 0


def test_hard_instance_storage_is_linear_in_dim():
    inst = HardInstance(2003, 1001, 1.0, 2)
    assert held_bytes(vars(inst)) <= 64 * inst.dim * 8


def test_f_gap_closed_form(inst):
    t = inst.horizon
    assert inst.f_gap() == pytest.approx(1.0 * (2 * t + 1) / (16.0 * (t + 1)), abs=1e-12)


@pytest.mark.parametrize("dim, horizon", [(5, 2), (25, 5), (45, 10), (45, 22), (201, 100)])
def test_global_minimizer_matches_dense_solve(dim, horizon):
    for L in (1.0, 0.7):
        inst = HardInstance(dim, horizon, L, 2)
        dense = oracles.hard_instance_minimizer(dim, horizon, L)
        np.testing.assert_allclose(inst.global_minimizer(), dense, rtol=0, atol=1e-12)
        assert inst.f_gap() == pytest.approx(-inst.loss(dense), rel=1e-14)


def test_global_minimizer_coordinates(inst):
    w = inst.global_minimizer()
    m = 2 * inst.horizon + 1
    expected = (m + 1 - np.arange(1, m + 1)) / (m + 1)
    np.testing.assert_allclose(w[:m], expected, atol=1e-12)
    np.testing.assert_array_equal(w[m:], np.zeros(25 - m))


# --- frontier automaton ---------------------------------------------------------


def test_frontier_spot_value(inst):
    # k^(t) is 0-indexed: entry t covers participation rounds 0..t.
    ks = track_frontier(inst, fastest_schedule(11, 4))
    assert ks[10] == 7


def test_frontier_equality_under_fastest_schedule(inst):
    big = HardInstance(dim=2001, horizon=1000, smoothness_L=1.0, n_clients=2)
    for tau in range(1, 11):
        ks = track_frontier(big, fastest_schedule(501, tau))
        for t in range(501):
            assert ks[t] == frontier_bound(t, tau), (tau, t)


def test_frontier_monotone_single_steps(inst):
    rng = np.random.default_rng(2)
    sched = rng.random((200, 3)) < 0.5
    ks = track_frontier(inst, sched)
    diffs = np.diff(np.concatenate([[0], ks]))
    assert np.all((diffs == 0) | (diffs == 1))


def test_frontier_requires_owner_parity(inst):
    # Only i1 participating: the frontier never leaves 0 (it is even).
    sched = np.zeros((50, 3), dtype=bool)
    sched[:, 1] = True
    assert np.all(track_frontier(inst, sched) == 0)


def test_expected_frontier_cap_monte_carlo():
    inst = HardInstance(dim=1001, horizon=500, smoothness_L=1.0, n_clients=2)
    rng = np.random.default_rng(3)
    p, t_max = 0.25, 100
    n_sched = 2000
    finals = np.empty(n_sched)
    for s in range(n_sched):
        sched = np.ones((t_max, 2), dtype=bool)
        sched[:, 1] = rng.random(t_max) < p
        finals[s] = track_frontier(inst, sched)[-1]
    se = finals.std(ddof=1) / math.sqrt(n_sched)
    assert finals.mean() <= expected_frontier_cap(p, t_max) + 3 * se


# --- gradient floor and envelope -------------------------------------------------


def test_gradient_floor_hand_value():
    inst = HardInstance(dim=45, horizon=22, smoothness_L=1.0, n_clients=2)
    floor, _ = frontier_gradient_floor(inst, 1)
    assert floor == pytest.approx(3.0 / 48.0, abs=1e-15)  # 0.0625


@pytest.mark.parametrize("L", [1.0, 10.0])
def test_gradient_floor_matches_lstsq_oracle(L):
    inst = HardInstance(dim=45, horizon=22, smoothness_L=L, n_clients=2)
    for k in range(1, 21):
        floor, w_closed = frontier_gradient_floor(inst, k)
        val, w_num = oracles.minimize_gradient_norm_in_span(inst, k)
        assert floor == pytest.approx(val, abs=1e-8)
        # the closed-form minimizer attains the floor
        attained = float(np.sum(inst.gradient(w_closed, GLOBAL) ** 2))
        assert attained == pytest.approx(floor, abs=1e-8)
        np.testing.assert_allclose(w_closed, w_num, atol=1e-6)


def test_lower_bound_curve_values_and_shape():
    f_gap, L = 0.5, 2.0
    curve = lower_bound_curve(0.1, 50, f_gap, L)
    assert curve[0] == pytest.approx(3.0 * L * f_gap / (2.0 * 81.0), abs=1e-15)
    assert np.all(np.diff(curve) <= 0)
    assert len(curve) == 51
