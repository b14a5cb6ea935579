import math

import numpy as np
import oracles
import pytest

from stalefl.local_solver import (
    PLAN_LIMIT,
    DivergenceError,
    LocalConfig,
    local_train,
    pseudo_gradient,
)
from stalefl.objectives import QuadraticObjective, SoftmaxObjective, build_label_swap_dataset
from stalefl.theory import HardInstance


def origin_quadratic():
    return QuadraticObjective.isotropic([np.zeros(2)])


def noisy_origin_quadratic(n_clients=1):
    return QuadraticObjective.isotropic([np.zeros(2)] * n_clients, noise_var=0.5)


def train_one(obj, client, w, cfg, rng):
    """local_train on a batch of one config and one client, on the round
    stream `rng`: its update and its divergence (None when every iterate
    stayed finite)."""
    deltas, errors = local_train(obj, [client], np.asarray(w)[None], cfg, rng, [cfg.client_lr])
    assert deltas.shape == (1, 1, obj.dim)
    return deltas[0, 0], errors[0]


def quadratic_noise(obj, steps, seed):
    """A quadratic's noise for a round on the stream seeded `seed`, by hand:
    one (N, steps, dim) normal block, [i, k] client i's step-k noise."""
    sd = math.sqrt(obj.noise_var / obj.dim)
    return np.random.default_rng(seed).normal(0.0, sd, size=(obj.n_clients, steps, obj.dim))


def first_bad_step(obj, client, w, lr, steps, seed):
    """The first local step whose iterate is non-finite, found by a hand
    loop of exact gradients plus, for a noisy quadratic, the round's noise
    on the stream seeded `seed`; None if every iterate stays finite."""
    noise = quadratic_noise(obj, steps, seed)[client] if obj.uses_rng else np.zeros((steps, 1))
    w = np.array(w, dtype=float)
    for k in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            w = w - lr * (obj.gradient(w, client) + noise[k])
        if not np.isfinite(w).all():
            return k
    return None


def test_hand_unrolled_two_steps():
    # F(w) = 1/2 ||w||^2 from (1, 0) with lr 0.1: 1 -> 0.9 -> 0.81.
    delta, _ = train_one(
        origin_quadratic(), 0, np.array([1.0, 0.0]),
        LocalConfig(local_steps=2, client_lr=0.1), np.random.default_rng(0),
    )
    np.testing.assert_allclose(delta, np.array([0.19, 0.0]), atol=1e-16)


def test_single_step_is_single_gradient():
    obj = origin_quadratic()
    w = np.array([2.0, -3.0])
    delta, _ = train_one(obj, 0, w, LocalConfig(local_steps=1, client_lr=0.5),
                     np.random.default_rng(1))
    np.testing.assert_array_equal(delta, 0.5 * obj.gradient(w, 0))
    # the one step's gradient, replayed from the same rng seed
    g = obj.stochastic_gradient(0, w, 1, np.random.default_rng(1))
    np.testing.assert_array_equal(g, obj.gradient(w, 0))


def test_pseudo_gradient_hand_value():
    cfg = LocalConfig(local_steps=2, client_lr=0.1)
    delta, _ = train_one(origin_quadratic(), 0, np.array([1.0, 0.0]), cfg,
                     np.random.default_rng(0))
    np.testing.assert_allclose(pseudo_gradient(delta, cfg), np.array([0.95, 0.0]), atol=1e-15)


def test_pseudo_gradient_zero_update():
    cfg = LocalConfig(local_steps=3, client_lr=0.2)
    np.testing.assert_array_equal(pseudo_gradient(np.zeros(4), cfg), np.zeros(4))


def test_telescoping_identity():
    rng = np.random.default_rng(5)
    obj = QuadraticObjective.isotropic([rng.normal(size=3)], noise_var=0.5)
    cfg = LocalConfig(local_steps=7, client_lr=0.03)
    w0 = rng.normal(size=3)
    delta, _ = train_one(obj, 0, w0, cfg, np.random.default_rng(9))
    # replay the K step gradients on the round's noise from the same seed
    noise, w, grads = quadratic_noise(obj, cfg.local_steps, 9)[0], w0.copy(), []
    for k in range(cfg.local_steps):
        grads.append(obj.gradient(w, 0) + noise[k])
        w -= cfg.client_lr * grads[-1]
    total = cfg.client_lr * np.sum(grads, axis=0)
    np.testing.assert_allclose(delta, total, atol=1e-12)


def test_descent_property():
    rng = np.random.default_rng(3)
    obj = QuadraticObjective.isotropic([np.array([4.0, -2.0])])
    cfg = LocalConfig(local_steps=10, client_lr=0.9)  # lr <= 1/L = 1
    for _ in range(20):
        w0 = rng.normal(scale=5.0, size=2)
        delta, _ = train_one(obj, 0, w0, cfg, np.random.default_rng(0))
        assert obj.loss(w0 - delta, 0) <= obj.loss(w0, 0) + 1e-12


def test_divergence_detected_with_step_info():
    obj = origin_quadratic()
    cfg = LocalConfig(local_steps=300, client_lr=1000.0)
    with np.errstate(over="ignore", invalid="ignore"):
        _, error = train_one(obj, 0, np.array([1.0, 1.0]), cfg, np.random.default_rng(0))
    assert isinstance(error, DivergenceError)
    assert error.client == 0
    assert 0 <= error.step < 300
    # the first step whose iterate is non-finite: w <- w - 1000 w by hand
    x, first = 1.0, None
    for k in range(300):
        x -= 1000.0 * x
        if first is None and not math.isfinite(x):
            first = k
    assert error.step == first

    # With a noisy oracle the reported step is the hand loop's on the same
    # stream, and the stream has made exactly one (N, K, dim) block of
    # draws, none more.
    obj = noisy_origin_quadratic()
    with np.errstate(over="ignore", invalid="ignore"):
        rng = np.random.default_rng(3)
        _, error = train_one(obj, 0, np.array([1.0, 1.0]), cfg, rng)
    assert isinstance(error, DivergenceError)
    assert error.client == 0
    assert error.step == first_bad_step(obj, 0, [1.0, 1.0], 1000.0, 300, 3)
    drawn = np.random.default_rng(3)
    drawn.normal(size=(obj.n_clients, cfg.local_steps, obj.dim))
    assert rng.random() == drawn.random()


def test_softmax_clients_draw_one_block_of_keys_a_round():
    # The round's stream gives one (N, K, n) block of uniform keys, no more,
    # and each step of each client is the mean gradient over its minibatch
    # of that step, indexed from the client's own training samples.
    data = build_label_swap_dataset(
        3, 11, 0.5, (0, 1), np.random.default_rng(2), class_count=3, feature_dim=2,
    )
    obj = SoftmaxObjective(data)
    cfg = LocalConfig(local_steps=4, client_lr=0.1, batch_size=3)
    w = np.random.default_rng(5).normal(size=(1, obj.dim))
    clients = [0, 2]
    rng = np.random.default_rng(20)
    deltas, errors = local_train(obj, clients, w, cfg, rng, [cfg.client_lr])
    assert errors == [None]
    drawn = np.random.default_rng(20)
    drawn.random((3, cfg.local_steps, 11))
    assert rng.random() == drawn.random()
    batches = obj._minibatches(clients, cfg.batch_size, cfg.local_steps, np.random.default_rng(20))
    for j, i in enumerate(clients):
        w_i = w[0].copy()
        for k in range(cfg.local_steps):
            rows = batches[k, j]
            g = oracles.softmax_samples_grad(
                obj._unpack(w_i), obj.train_x[i][rows], obj.train_y[i][rows], obj.n_classes,
            )
            w_i = w_i - cfg.client_lr * g.ravel()
        assert deltas[0, j].tobytes() == (w[0] - w_i).tobytes()


def test_a_single_step_is_the_stochastic_gradient_on_its_draw():
    # With K = 1 a round draws what one stochastic_gradient call on the
    # same stream draws, so each client's update is lr times that gradient.
    data = build_label_swap_dataset(
        4, 9, 0.5, (0, 1), np.random.default_rng(3), class_count=3, feature_dim=2,
    )
    cfg = LocalConfig(local_steps=1, client_lr=0.2, batch_size=4)
    for obj in (SoftmaxObjective(data), noisy_origin_quadratic(4)):
        w = np.random.default_rng(6).normal(size=(1, obj.dim))
        clients = [1, 2, 3]
        deltas, _ = local_train(obj, clients, w, cfg, np.random.default_rng(30), [0.2])
        for j, i in enumerate(clients):
            g = obj.stochastic_gradient(i, w[0], cfg.batch_size, np.random.default_rng(30))
            assert deltas[0, j].tobytes() == (w[0] - (w[0] - 0.2 * g)).tobytes()


def test_input_left_unmodified():
    w = np.array([1.0, 2.0])
    train_one(origin_quadratic(), 0, w, LocalConfig(2, 0.1), np.random.default_rng(0))
    np.testing.assert_array_equal(w, np.array([1.0, 2.0]))


def test_non_finite_global_iterate_rejected():
    w = np.array([[1.0, 1.0], [np.inf, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            local_train(origin_quadratic(), [0], w, LocalConfig(2, 0.1), None, [0.1, 0.1])


def test_config_validation():
    with pytest.raises(ValueError):
        LocalConfig(local_steps=0)
    with pytest.raises(ValueError):
        LocalConfig(client_lr=-0.1)
    with pytest.raises(ValueError):
        LocalConfig(batch_size=0)


def test_batch_rows_equal_single_runs():
    # Two configs (client lrs) x three clients of a noisy quadratic: every
    # row is the update of that client and lr trained alone, bit for bit.
    rng = np.random.default_rng(4)
    obj = QuadraticObjective.isotropic([rng.normal(size=3) for _ in range(4)], noise_var=0.3)
    cfg = LocalConfig(local_steps=4, client_lr=0.05)
    w = rng.normal(size=(2, 3))
    lrs = np.array([0.05, 0.11])
    clients = [0, 2, 3]
    deltas, errors = local_train(obj, clients, w, cfg, np.random.default_rng(10), lrs)
    assert errors == [None, None]
    for c, lr in enumerate(lrs):
        for j, i in enumerate(clients):
            delta, _ = train_one(obj, i, w[c], LocalConfig(4, lr), np.random.default_rng(10))
            assert deltas[c, j].tobytes() == delta.tobytes()


def test_divergence_is_reported_per_config_at_the_first_bad_client():
    # Config 0 stays finite and config 1 diverges at both clients; config 1
    # reports client 1's first non-finite step, and config 0's deltas have
    # the bits of config 0 run alone. Once with an exact and once with a
    # noisy oracle, whose round draws from the stream seeded 11.
    cfg = LocalConfig(local_steps=300, client_lr=0.5)
    w = np.array([[1.0, 1.0], [1.0, 1.0]])
    for obj in (QuadraticObjective.isotropic([np.zeros(2)] * 3), noisy_origin_quadratic(3)):
        def rng():
            return np.random.default_rng(11) if obj.uses_rng else None

        with np.errstate(over="ignore", invalid="ignore"):
            deltas, errors = local_train(obj, [1, 2], w, cfg, rng(), np.array([0.5, 1000.0]))
            _, alone = train_one(obj, 1, w[1], LocalConfig(300, 1000.0), rng())
        kept, kept_errors = local_train(obj, [1, 2], w[:1], cfg, rng(), np.array([0.5]))
        assert errors[0] is None and kept_errors == [None]
        assert deltas[0].tobytes() == kept[0].tobytes()
        assert errors[1].client == 1
        assert errors[1].step == alone.step
        assert alone.step == first_bad_step(obj, 1, w[1], 1000.0, 300, 11)
        assert 0 <= alone.step < 300


def plan_case_objectives():
    """A noisy quadratic, the hard instance and a softmax objective, three
    clients each, and per objective a finite point from which local SGD
    overflows."""
    data = build_label_swap_dataset(
        3, 8, 0.5, (0, 1), np.random.default_rng(7), class_count=3, feature_dim=2,
    )
    quadratic = QuadraticObjective(
        [np.diag([2.0, 1.0])] * 3, [np.zeros(2), np.ones(2), -np.ones(2)], noise_var=0.5,
    )
    hard = HardInstance(9, 2, 4.0, 3)
    return [
        (quadratic, np.full(2, 1e308)),
        (hard, np.resize([1e308, -1e308], 9)),
        (SoftmaxObjective(data), np.full(data.class_count * 3, 1e308)),
    ]


def train_outcome(obj, clients, w, cfg, seed, lrs, plans=None):
    """local_train's deltas as bytes and its errors as (client, step), or
    the type and message of what it raised."""
    rng = np.random.default_rng(seed) if obj.uses_rng else None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            deltas, errors = local_train(obj, clients, w, cfg, rng, lrs, plans)
    except ValueError as e:
        return type(e), str(e)
    return deltas, [None if e is None else (e.client, e.step) for e in errors]


def test_plans_change_no_bit():
    # Repeats, a new set between repeats, an empty round and a diverging
    # round (the replay runs on the kept buffers) whose set is used again.
    # With one plan dict, every round's deltas and errors have the bits of
    # the round without plans, and a round's deltas hold until its set is
    # used again.
    sets = [[0], [0], [0, 2], [0], [], [1, 2], [0, 2], [0, 2], [0, 2], [0], [1, 2]]
    diverging = 7
    cfg = LocalConfig(local_steps=3, client_lr=0.05, batch_size=2)
    lrs = np.array([0.05, 0.1])
    for obj, far in plan_case_objectives():
        plans = {}
        held = {}   # per set, its last deltas from the plan and their bytes
        rng = np.random.default_rng(1)
        for t, clients in enumerate(sets):
            w = far[None].repeat(2, 0) if t == diverging else rng.normal(size=(2, obj.dim))
            alone = train_outcome(obj, clients, w, cfg, 100 + t, lrs)
            kept = train_outcome(obj, clients, w, cfg, 100 + t, lrs, plans)
            assert kept[0].tobytes() == alone[0].tobytes()
            assert kept[1] == alone[1]
            assert (t == diverging) == (alone[1] != [None, None])
            held[tuple(clients)] = kept[0], kept[0].tobytes()
            for deltas, bits in held.values():
                assert deltas.tobytes() == bits
            assert len(plans) <= PLAN_LIMIT


def test_no_participants_give_empty_deltas():
    # Every objective returns (configs, 0, dim) deltas and no error for an
    # empty set, with and without a plan dict.
    cfg = LocalConfig(local_steps=3, client_lr=0.05, batch_size=2)
    for obj, _ in plan_case_objectives():
        for plans in (None, {}):
            rng = np.random.default_rng(1) if obj.uses_rng else None
            w = np.zeros((2, obj.dim))
            deltas, errors = local_train(obj, [], w, cfg, rng, [0.05, 0.1], plans)
            assert deltas.shape == (2, 0, obj.dim) and errors == [None, None]


def test_plan_dict_keeps_the_newest_sets():
    # Every set distinct: the dict holds the PLAN_LIMIT most recent sets.
    obj = noisy_origin_quadratic(5)
    cfg = LocalConfig(local_steps=2, client_lr=0.1)
    sets = [[i] for i in range(5)] + [[i, i + 1] for i in range(4)]
    plans = {}
    for t, clients in enumerate(sets):
        local_train(obj, clients, np.zeros((1, 2)), cfg, np.random.default_rng(t), [0.1], plans)
        kept = [tuple(c) for c in sets[max(0, t + 1 - PLAN_LIMIT):t + 1]]
        assert list(plans) == kept
