import numpy as np
import pytest

from stalefl.local_solver import (
    ClientUpdate,
    DivergenceError,
    LocalConfig,
    local_train,
    pseudo_gradient,
)
from stalefl.objectives import QuadraticObjective


def origin_quadratic():
    return QuadraticObjective.isotropic([np.zeros(2)])


def test_hand_unrolled_two_steps():
    # F(w) = 1/2 ||w||^2 from (1, 0) with lr 0.1: 1 -> 0.9 -> 0.81.
    u = local_train(
        origin_quadratic(), 0, np.array([1.0, 0.0]),
        LocalConfig(local_steps=2, client_lr=0.1), np.random.default_rng(0),
    )
    np.testing.assert_allclose(u.delta, np.array([0.19, 0.0]), atol=1e-16)


def test_single_step_is_single_gradient():
    obj = origin_quadratic()
    w = np.array([2.0, -3.0])
    u = local_train(obj, 0, w, LocalConfig(local_steps=1, client_lr=0.5),
                    np.random.default_rng(1))
    np.testing.assert_array_equal(u.delta, 0.5 * obj.gradient(w, 0))
    # the one step's gradient, replayed from the same rng seed
    g = obj.stochastic_gradient(0, w, 1, np.random.default_rng(1))
    np.testing.assert_array_equal(g, obj.gradient(w, 0))


def test_pseudo_gradient_hand_value():
    cfg = LocalConfig(local_steps=2, client_lr=0.1)
    u = local_train(origin_quadratic(), 0, np.array([1.0, 0.0]), cfg,
                    np.random.default_rng(0))
    np.testing.assert_allclose(pseudo_gradient(u, cfg), np.array([0.95, 0.0]), atol=1e-15)


def test_pseudo_gradient_zero_update():
    cfg = LocalConfig(local_steps=3, client_lr=0.2)
    u = ClientUpdate(0, 1, np.zeros(4))
    np.testing.assert_array_equal(pseudo_gradient(u, cfg), np.zeros(4))


def test_telescoping_identity():
    rng = np.random.default_rng(5)
    obj = QuadraticObjective.isotropic([rng.normal(size=3)], noise_var=0.5)
    cfg = LocalConfig(local_steps=7, client_lr=0.03)
    w0 = rng.normal(size=3)
    u = local_train(obj, 0, w0, cfg, np.random.default_rng(9))
    # replay the K step gradients from the same rng seed
    step_rng, w, grads = np.random.default_rng(9), w0.copy(), []
    for _ in range(cfg.local_steps):
        grads.append(obj.stochastic_gradient(0, w, cfg.batch_size, step_rng))
        w -= cfg.client_lr * grads[-1]
    total = cfg.client_lr * np.sum(grads, axis=0)
    np.testing.assert_allclose(u.delta, total, atol=1e-12)


def test_descent_property():
    rng = np.random.default_rng(3)
    obj = QuadraticObjective.isotropic([np.array([4.0, -2.0])])
    cfg = LocalConfig(local_steps=10, client_lr=0.9)  # lr <= 1/L = 1
    for _ in range(20):
        w0 = rng.normal(scale=5.0, size=2)
        u = local_train(obj, 0, w0, cfg, np.random.default_rng(0))
        assert obj.loss(w0 - u.delta, 0) <= obj.loss(w0, 0) + 1e-12


def test_divergence_detected_with_step_info():
    obj = origin_quadratic()
    cfg = LocalConfig(local_steps=300, client_lr=1000.0)
    with pytest.raises(DivergenceError) as exc:
        local_train(obj, 0, np.array([1.0, 1.0]), cfg, np.random.default_rng(0))
    assert exc.value.client == 0
    assert 0 <= exc.value.step < 300


def test_input_left_unmodified():
    w = np.array([1.0, 2.0])
    local_train(origin_quadratic(), 0, w, LocalConfig(2, 0.1), np.random.default_rng(0))
    np.testing.assert_array_equal(w, np.array([1.0, 2.0]))


def test_config_validation():
    with pytest.raises(ValueError):
        LocalConfig(local_steps=0)
    with pytest.raises(ValueError):
        LocalConfig(client_lr=-0.1)
    with pytest.raises(ValueError):
        LocalConfig(batch_size=0)
