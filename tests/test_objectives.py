import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stalefl.aggregation import memory_error
from stalefl.objectives import (
    GLOBAL,
    DimensionMismatchError,
    QuadraticObjective,
    SoftmaxObjective,
    build_label_swap_dataset,
    estimate_stats,
)
from stalefl.theory import HardInstance


def two_quadratic():
    return QuadraticObjective.isotropic([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])


def test_global_loss_hand_value():
    # mean over clients of 1/2 ||w - c_i||^2 at w=0 with c = (+-1, 0): (0.5+0.5)/2
    assert two_quadratic().loss(np.zeros(2), GLOBAL) == pytest.approx(0.5, abs=1e-15)


def test_gradient_zero_at_center():
    obj = two_quadratic()
    assert np.array_equal(obj.gradient(np.array([1.0, 0.0]), 0), np.zeros(2))


def test_identity_hessian_gradient():
    obj = QuadraticObjective.isotropic([np.array([0.0, 0.0])])
    assert np.array_equal(obj.gradient(np.array([3.0, 4.0]), 0), np.array([3.0, 4.0]))


def test_quadratic_closed_form_agreement():
    rng = np.random.default_rng(7)
    hessians = []
    centers = []
    for _ in range(3):
        m = rng.normal(size=(4, 4))
        hessians.append(m @ m.T + 0.5 * np.eye(4))
        centers.append(rng.normal(size=4))
    obj = QuadraticObjective(hessians, centers)
    for _ in range(100):
        w = rng.normal(size=4)
        for i in range(3):
            r = w - centers[i]
            assert obj.loss(w, i) == pytest.approx(0.5 * r @ hessians[i] @ r, abs=1e-12)
            np.testing.assert_allclose(obj.gradient(w, i), hessians[i] @ r, atol=1e-12)


def test_global_gradient_is_mean_of_client_gradients():
    rng = np.random.default_rng(11)
    obj = QuadraticObjective.isotropic([rng.normal(size=3) for _ in range(5)])
    for _ in range(20):
        w = rng.normal(size=3)
        mean = np.mean([obj.gradient(w, i) for i in range(5)], axis=0)
        np.testing.assert_allclose(obj.gradient(w, GLOBAL), mean, atol=1e-12)


def test_zero_noise_stochastic_equals_full():
    obj = two_quadratic()
    w = np.array([0.3, -0.7])
    g = obj.stochastic_gradient(0, w, 1, np.random.default_rng(0))
    assert np.array_equal(g, obj.gradient(w, 0))


def test_noise_variance_scale():
    obj = QuadraticObjective.isotropic([np.zeros(6)], noise_var=4.0)
    rng = np.random.default_rng(5)
    w = np.ones(6)
    g = obj.gradient(w, 0)
    sq = [
        float(np.sum((obj.stochastic_gradient(0, w, 1, rng) - g) ** 2))
        for _ in range(4000)
    ]
    assert np.mean(sq) == pytest.approx(4.0, rel=0.1)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        two_quadratic().loss(np.zeros(3))


@given(
    w=arrays(float, 2, elements=st.floats(-5, 5)),
    client=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=30, deadline=None)
def test_loss_nonnegative_property(w, client):
    assert two_quadratic().loss(w, client) >= 0.0


# --- label-swap dataset -----------------------------------------------------


def small_dataset(swap=0.5, n_clients=2, samples=100, seed=3):
    return build_label_swap_dataset(
        n_clients, samples, swap, (0, 1), np.random.default_rng(seed),
        class_count=4, feature_dim=3, group2=[1],
    )


def test_swap_counts_exact():
    ds = small_dataset(swap=0.5, samples=400)
    unswapped = small_dataset(swap=0.0, samples=400)
    y0, y1 = unswapped.labels[1], ds.labels[1]
    for a, b in ((0, 1), (1, 0)):
        idx = np.nonzero(y0 == a)[0]
        expected = math.floor(0.5 * len(idx))
        assert int(np.sum(y1[idx] == b)) == expected
        assert int(np.sum(y1[idx] == a)) == len(idx) - expected
    # group-1 client untouched
    assert np.array_equal(unswapped.labels[0], ds.labels[0])
    # features are never modified by swapping
    np.testing.assert_array_equal(unswapped.features[1], ds.features[1])


def test_swap_extremes():
    base = small_dataset(swap=0.0)
    full = small_dataset(swap=1.0)
    y0, y1 = base.labels[1], full.labels[1]
    assert np.all(y1[y0 == 0] == 1)
    assert np.all(y1[y0 == 1] == 0)
    untouched = ~np.isin(y0, (0, 1))
    assert np.array_equal(y0[untouched], y1[untouched])


def test_fixed_centers_shared_across_swap_fractions():
    a = small_dataset(swap=0.0, seed=9)
    b = small_dataset(swap=0.7, seed=9)
    np.testing.assert_array_equal(a.features[0], b.features[0])


# --- softmax objective ------------------------------------------------------


def small_softmax(samples=12, holdout=0.0):
    return SoftmaxObjective(small_dataset(samples=samples), holdout)


def test_softmax_full_batch_equals_gradient():
    obj = small_softmax()
    w = np.random.default_rng(1).normal(size=obj.dim)
    g = obj.stochastic_gradient(0, w, len(obj.train_y[0]), np.random.default_rng(0))
    np.testing.assert_allclose(g, obj.gradient(w, 0), atol=1e-15)


def test_softmax_singleton_batches_average_to_gradient():
    obj = small_softmax()
    w = np.random.default_rng(2).normal(size=obj.dim)
    x, y = obj.train_x[0], obj.train_y[0]
    singles = [obj._client_grad(obj._unpack(w), x[i : i + 1], y[i : i + 1]).ravel()
               for i in range(len(y))]
    np.testing.assert_allclose(np.mean(singles, axis=0), obj.gradient(w, 0), atol=1e-12)


def test_softmax_batch_enumeration_unbiased():
    obj = small_softmax(samples=7)
    w = np.random.default_rng(3).normal(size=obj.dim)
    x, y = obj.train_x[0], obj.train_y[0]
    batches = [
        obj._client_grad(obj._unpack(w), x[list(c)], y[list(c)]).ravel()
        for c in itertools.combinations(range(len(y)), 3)
    ]
    np.testing.assert_allclose(np.mean(batches, axis=0), obj.gradient(w, 0), atol=1e-12)


def test_softmax_global_gradient_linearity():
    obj = small_softmax()
    w = np.random.default_rng(4).normal(size=obj.dim)
    mean = np.mean([obj.gradient(w, i) for i in range(obj.n_clients)], axis=0)
    np.testing.assert_allclose(obj.gradient(w, GLOBAL), mean, atol=1e-12)


def test_softmax_gradient_matches_finite_differences():
    obj = small_softmax(samples=6)
    rng = np.random.default_rng(8)
    w = rng.normal(size=obj.dim) * 0.1
    g = obj.gradient(w, GLOBAL)
    eps = 1e-6
    for j in rng.choice(obj.dim, size=8, replace=False):
        e = np.zeros(obj.dim)
        e[j] = eps
        fd = (obj.loss(w + e, GLOBAL) - obj.loss(w - e, GLOBAL)) / (2 * eps)
        assert g[j] == pytest.approx(fd, abs=1e-5)


def test_softmax_holdout_and_accuracy():
    obj = small_softmax(samples=20, holdout=0.25)
    assert len(obj.train_y[0]) == 15 and len(obj.test_y[0]) == 5
    acc = obj.test_accuracy(np.zeros(obj.dim))
    assert 0.0 <= acc <= 1.0


# --- constants estimation ---------------------------------------------------


def test_identical_clients_zero_heterogeneity():
    c = np.array([1.0, 2.0])
    obj = QuadraticObjective.isotropic([c, c, c])
    stats = estimate_stats(obj, [np.zeros(2), np.ones(2), np.array([3.0, -1.0])])
    assert stats.sg_sq == 0.0
    assert stats.sigma_sq == 0.0


def test_two_client_heterogeneity_matches_direct_formula():
    obj = two_quadratic()
    probes = [np.zeros(2), np.array([2.0, 1.0]), np.array([-3.0, 0.5])]
    stats = estimate_stats(obj, probes)
    # For N=2: grad_i - grad = +-(grad_1 - grad_2)/2, so the max squared
    # deviation is ||grad_1 - grad_2||^2 / 4 at every probe.
    expected = max(
        float(np.sum((obj.gradient(p, 0) - obj.gradient(p, 1)) ** 2)) / 4.0
        for p in probes
    )
    assert stats.sg_sq == pytest.approx(expected, abs=1e-14)
    assert stats.smoothness_L == pytest.approx(1.0)


# --- stacked oracles ---------------------------------------------------------


def random_spd_quadratic(dim, n_clients, noise_var, seed):
    rng = np.random.default_rng(seed)
    hessians = []
    for _ in range(n_clients):
        m = rng.normal(size=(dim, dim))
        hessians.append(m @ m.T + dim * np.eye(dim))
    return QuadraticObjective(hessians, rng.normal(size=(n_clients, dim)), noise_var)


STACKED_CASES = {
    "quadratic_d2": lambda: QuadraticObjective(
        [np.array([[1.0, 0.5], [0.5, 1.0]]), np.eye(2)],
        [np.array([5.0, 0.0]), np.array([0.0, 5.0])],
    ),
    "noisy_quadratic_d7": lambda: random_spd_quadratic(7, 3, 0.5, seed=2),
    # 9 clients and 9 training samples each, so that both means (over the
    # samples and over the clients) are longer than numpy's 8-element
    # unrolled block
    "softmax": lambda: SoftmaxObjective(build_label_swap_dataset(
        9, 12, 0.5, (0, 1), np.random.default_rng(5), class_count=4, feature_dim=3,
    ), holdout_fraction=0.25),
    "hard_instance_d201": lambda: HardInstance(201, 100, 1.0, 3),
}


@pytest.mark.parametrize("name", list(STACKED_CASES))
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_stacked_oracles_have_the_bits_of_single_calls(name, layout):
    obj = STACKED_CASES[name]()
    rng = np.random.default_rng(11)
    points = rng.normal(size=(3, 10, obj.dim))
    slots = rng.normal(size=(3, 10, obj.n_clients, obj.dim))
    if layout == "strided":
        points, slots = points[:, ::2], slots[:, ::2]
    else:
        points, slots = points[:, :5], slots[:, :5]
    singles = list(itertools.product(range(3), range(5)))
    for client in [GLOBAL, *range(obj.n_clients)]:
        losses = obj.loss(points, client)
        grads = obj.gradient(points, client)
        assert losses.shape == (3, 5) and grads.shape == (3, 5, obj.dim)
        for k in singles:
            one = obj.loss(points[k], client)
            assert type(one) is float
            assert losses[k].tobytes() == np.float64(one).tobytes()
            assert grads[k].tobytes() == obj.gradient(points[k], client).tobytes()
    h = memory_error(slots, obj, points)
    assert h.shape == (3, 5)
    for k in singles:
        one = memory_error(slots[k], obj, points[k])
        assert type(one) is float
        assert h[k].tobytes() == np.float64(one).tobytes()


def test_stacked_oracles_check_shapes():
    obj = two_quadratic()
    with pytest.raises(DimensionMismatchError):
        obj.loss(np.zeros((4, 3)))
    with pytest.raises(DimensionMismatchError):
        obj.gradient(np.zeros(()))
    with pytest.raises(ValueError, match="non-finite"):
        obj.gradient(np.array([[0.0, 0.0], [np.inf, 0.0]]))
    # the stochastic oracle and memory_error's slots keep their own shapes
    with pytest.raises(DimensionMismatchError):
        obj.stochastic_gradient(0, np.zeros((1, 2)), 1, np.random.default_rng(0))
    with pytest.raises(DimensionMismatchError, match="slots"):
        memory_error(np.zeros((3, 2, 2)), obj, np.zeros((4, 2)))
