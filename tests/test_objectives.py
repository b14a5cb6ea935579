import itertools
import math

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stalefl.aggregation import memory_error
from stalefl.objectives import (
    GLOBAL,
    DimensionMismatchError,
    QuadraticObjective,
    SoftmaxObjective,
    SyntheticDataset,
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_quadratic_rejects_non_finite_inputs(value):
    # checked first: an inf entry passes the symmetry check, and a nan one
    # fails it with a message that does not name the cause
    bad = np.array([[value, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="Hessian of client 1 contains non-finite"):
        QuadraticObjective([np.eye(2), bad], [np.zeros(2), np.zeros(2)])
    with pytest.raises(ValueError, match="center of client 0 contains non-finite"):
        QuadraticObjective.isotropic([np.array([value, 0.0]), np.array([0.0, 1.0])])


def test_quadratic_rejects_no_clients_and_no_coordinates():
    with pytest.raises(ValueError, match="at least one client"):
        QuadraticObjective([], [])
    with pytest.raises(ValueError, match="at least one client"):
        QuadraticObjective.isotropic([])
    for n in (1, 2):
        with pytest.raises(ValueError, match="at least one coordinate"):
            QuadraticObjective([np.zeros((0, 0))] * n, [np.zeros(0)] * n)
    with pytest.raises(ValueError, match="at least one coordinate"):
        QuadraticObjective([np.eye(1)], [np.float64(1.0)])


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
    x, y, w_mat = obj.train_x[0], obj.train_y[0], obj._unpack(w)
    singles = [
        oracles.softmax_samples_grad(w_mat, x[i : i + 1], y[i : i + 1], obj.n_classes).ravel()
        for i in range(len(y))
    ]
    np.testing.assert_allclose(np.mean(singles, axis=0), obj.gradient(w, 0), atol=1e-12)


def test_softmax_batch_enumeration_unbiased():
    obj = small_softmax(samples=7)
    w = np.random.default_rng(3).normal(size=obj.dim)
    x, y, w_mat = obj.train_x[0], obj.train_y[0], obj._unpack(w)
    batches = [
        oracles.softmax_samples_grad(w_mat, x[list(c)], y[list(c)], obj.n_classes).ravel()
        for c in itertools.combinations(range(len(y)), 3)
    ]
    np.testing.assert_allclose(np.mean(batches, axis=0), obj.gradient(w, 0), atol=1e-12)


def test_softmax_draws_are_distinct_ascending_in_range():
    obj = small_softmax(samples=9)
    n = len(obj.train_y[0])
    for batch_size in (1, 4, n - 1, n):
        draws = obj._minibatches([0], batch_size, 6, np.random.default_rng(batch_size))[:, 0]
        assert draws.shape == (6, batch_size)
        assert (np.diff(draws, axis=1) > 0).all()  # distinct and ascending
        assert draws.min() >= 0 and draws.max() < n
    assert (draws == np.arange(n)).all()  # batch_size = n takes every sample
    with pytest.raises(ValueError, match="batch_size"):
        obj._draws([0], n + 1, 1, np.random.default_rng(0))


def unequal_softmax(sizes=(3, 7, 12), classes=3, features=2):
    """A softmax objective whose clients hold `sizes` training samples."""
    rng = np.random.default_rng(4)
    data = SyntheticDataset(
        [rng.normal(size=(n, features)) for n in sizes],
        [rng.integers(0, classes, size=n) for n in sizes], classes,
    )
    return SoftmaxObjective(data)


def test_softmax_draws_with_unequal_sample_counts():
    # Client j's minibatches are distinct ascending indices below its own n,
    # a client with n = batch_size takes every sample, and the gathered
    # rows are the client's own rows at those indices.
    obj = unequal_softmax()
    sizes = [3, 7, 12]
    clients = [2, 0, 1]
    for seed in range(20):
        batches = obj._minibatches(clients, 3, 5, np.random.default_rng(seed))
        assert batches.shape == (5, 3, 3)
        draws = obj._draws(clients, 3, 5, np.random.default_rng(seed))
        for j, i in enumerate(clients):
            b = batches[:, j]
            assert (np.diff(b, axis=1) > 0).all() and b.min() >= 0 and b.max() < sizes[i]
            for k, (x, onehot) in enumerate(draws):
                assert x[j].tobytes() == obj.train_x[i][b[k]].tobytes()
                labels = obj.train_y[i][b[k]][:, None] == np.arange(3)
                assert onehot[j].tobytes() == labels.astype(float).tobytes()
        assert (batches[:, 1] == np.arange(3)).all()
    # the smallest asked-for client bounds the batch size
    with pytest.raises(ValueError, match=r"batch_size must be in \[1, 7\]"):
        obj._draws([1, 2], 8, 1, np.random.default_rng(0))
    assert obj._minibatches([2], 8, 1, np.random.default_rng(0)).shape == (1, 1, 8)


def test_softmax_draws_are_uniform_subsets():
    # 60000 draws of 2 of 6 samples: each of the 15 subsets has frequency
    # 1/15, with a standard deviation near 0.001, so 0.005 is about 5 sigma.
    # Client 1 has 11 samples, so client 0's keys are padded past its 6.
    obj = unequal_softmax(sizes=(6, 11))
    draws = obj._minibatches([0], 2, 60000, np.random.default_rng(8))[:, 0]
    counts = {c: 0 for c in itertools.combinations(range(6), 2)}
    for row in draws.tolist():
        counts[tuple(row)] += 1
    for subset, count in counts.items():
        assert abs(count / len(draws) - 1 / 15) <= 0.005, subset


def test_noisy_quadratic_draws_have_the_bits_of_single_calls():
    # Client i's step-k noise is entry [i, k] of one normal call over an
    # (N, K, dim) block, whichever other clients a round asks for.
    obj = QuadraticObjective.isotropic([np.zeros(7)] * 4, noise_var=0.5)
    sd = math.sqrt(0.5 / 7)
    for seed in range(50):
        block = np.random.default_rng(seed).normal(0.0, sd, size=(4, 5, 7))
        for clients in ([0, 1, 2, 3], [2], [3, 1]):
            noise = obj._draws(clients, 1, 5, np.random.default_rng(seed))
            for j, i in enumerate(clients):
                for k in range(5):
                    assert noise[k][j].tobytes() == block[i, k].tobytes()


def test_softmax_minibatches_do_not_depend_on_the_other_clients():
    # Client i's keys are row i of one block drawn for all N clients, so its
    # minibatches have the same bits whichever other clients a round asks for.
    obj = unequal_softmax(sizes=(5, 9, 4, 8))
    for seed in range(20):
        for clients in ([0, 1, 2, 3], [2], [3, 1], [1, 3]):
            together = obj._minibatches(clients, 2, 3, np.random.default_rng(seed))
            for j, i in enumerate(clients):
                alone = obj._minibatches([i], 2, 3, np.random.default_rng(seed))
                assert together[:, j].tobytes() == alone[:, 0].tobytes()


def test_exact_oracles_draw_nothing():
    rng = np.random.default_rng(0)
    for obj in (two_quadratic(), HardInstance(5, 2, 1.0, 2)):
        assert obj._draws([0, 1], 1, 4, rng) == [None] * 4
    assert rng.random() == np.random.default_rng(0).random()


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


def test_holdout_fraction_outside_unit_interval_rejected():
    ds = build_label_swap_dataset(2, 5, 0.0)
    for value in (-0.5, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"holdout_fraction must lie in \[0, 1\)"):
            SoftmaxObjective(ds, value)


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


def test_noise_variance_estimate_draws_one_block_a_probe(monkeypatch):
    # A noisy quadratic's oracle noise has E||g~ - g||^2 = noise_var; the
    # estimate is the max over 3 probes x 5 clients of means over 400 draws.
    obj = random_spd_quadratic(3, 5, 0.5, seed=1)
    draws, calls = obj._draws, []

    def counted(clients, batch_size, steps, rng):
        calls.append((list(clients), steps))
        return draws(clients, batch_size, steps, rng)

    monkeypatch.setattr(obj, "_draws", counted)
    probes = [np.zeros(3), np.ones(3), np.array([2.0, -1.0, 0.5])]
    stats = estimate_stats(obj, probes, n_noise_draws=400)
    assert calls == [([0, 1, 2, 3, 4], 400)] * 3
    assert 0.45 < stats.sigma_sq < 0.6


def test_full_batch_softmax_has_no_noise_variance():
    obj = STACKED_CASES["softmax"]()
    probes = [np.zeros(obj.dim), np.full(obj.dim, 0.1)]
    stats = estimate_stats(obj, probes, batch_size=9, n_noise_draws=3)
    assert stats.sigma_sq < 1e-28


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
@pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
def test_stacked_oracles_have_the_bits_of_single_calls(name, layout):
    obj = STACKED_CASES[name]()
    rng = np.random.default_rng(11)
    points = rng.normal(size=(3, 10, obj.dim))
    slots = rng.normal(size=(3, 10, obj.n_clients, obj.dim))
    if layout == "strided":
        points, slots = points[:, ::2], slots[:, ::2]
    else:
        points, slots = points[:, :5], slots[:, :5]
    if layout == "fortran":
        points, slots = np.asfortranarray(points), np.asfortranarray(slots)
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


# Signed zeros, where BLAS entry points differ, and magnitudes whose
# products overflow or lose all precision.
SMALL_ENTRIES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -2.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
KERNEL_ENTRIES = st.one_of(SMALL_ENTRIES, st.sampled_from([1e300, -1e300, 1e-300, -1e-300]))


@st.composite
def quadratic_kernel_cases(draw):
    """An exact or noisy quadratic of dim 1-8, a round's ascending clients,
    a (configs, clients, dim) stack of iterates, C-ordered, strided,
    Fortran-ordered or a read-only broadcast of one point (as
    `estimate_stats` binds), and 1-3 steps: per step, the values written
    into the stack's storage and the step's noise sample."""
    dim, n = draw(st.integers(1, 8)), draw(st.integers(1, 3))

    def entries(*shape, values=KERNEL_ENTRIES):
        size = math.prod(shape)
        return np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)

    upper = np.triu(np.ones((dim, dim), dtype=bool), 1)
    hessians = []
    for _ in range(n):
        # symmetric (signed zeros kept) and diagonally dominant, so positive
        # definite; then scaled
        m = entries(dim, dim, values=SMALL_ENTRIES)
        a = np.where(upper, m, m.T)
        a[np.diag_indices(dim)] = np.abs(a).sum(axis=1) + draw(st.floats(0.5, 10.0))
        hessians.append(a * draw(st.sampled_from([1.0, 1e-300, 1e300])))
    noise_var = draw(st.sampled_from([0.0, 0.5]))
    obj = QuadraticObjective(hessians, list(entries(n, dim)), noise_var)
    clients = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    shape = (draw(st.integers(1, 3)), len(clients), dim)
    layout = draw(st.sampled_from(["contiguous", "strided", "fortran", "broadcast"]))
    if layout == "broadcast":
        store = np.empty(dim)
        w = np.broadcast_to(store, shape)
    elif layout == "strided":
        w = np.full(shape[:2] + (2 * dim,), np.nan)[..., ::2]
        store = w
    else:
        w = np.empty(shape, order="F" if layout == "fortran" else "C")
        store = w
    steps = [
        (entries(*store.shape), entries(len(clients), dim) if noise_var else None)
        for _ in range(draw(st.integers(1, 3)))
    ]
    return obj, clients, w, store, steps


# dim 1: -0.0 - 0.0 is -0.0, and 1 * -0.0 is -0.0 alone but +0.0 in a sum
# (the stack is its own storage)
@example((
    QuadraticObjective([np.eye(1)], [np.zeros(1)]), [0], *[np.empty((2, 1, 1))] * 2,
    [(np.full((2, 1, 1), -0.0), None)],
))
@settings(max_examples=200, deadline=None)
@given(quadratic_kernel_cases())
def test_quadratic_kernel_rows_have_the_bits_of_client_gradients(case):
    # Local SGD binds the kernel once a round and steps it on iterates it
    # updates in place. At every step every row must have the bits of
    # `_client_gradient` on that row alone and of one matvec a row, at dim 1
    # too, where BLAS calls differ on a -0.0 product.
    obj, clients, w, store, steps = case
    out = np.empty(w.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        grads = obj._bind_stochastic_gradients(clients, w, out)
        for values, sample in steps:
            store[...] = values
            assert grads(sample) is out
            expected = oracles.quadratic_row_gradients(obj.hessians, obj.centers, clients, w)
            for row, j in itertools.product(range(len(w)), range(len(clients))):
                alone = obj._client_gradient(np.array(w[row, j]), clients[j])
                if sample is not None:
                    expected[row, j] += sample[j]
                    alone += sample[j]
                assert out[row, j].tobytes() == expected[row, j].tobytes(), (row, j)
                assert out[row, j].tobytes() == alone.tobytes(), (row, j)
            out *= 0.5   # local SGD scales the gradients in place between steps


def test_bound_hard_instance_kernel_keeps_the_bits_of_the_banded_product():
    # Client 2 has no form: its rows are zero at every step, whatever the
    # caller left in them.
    obj = HardInstance(21, 10, 1.0, 3)
    rng = np.random.default_rng(7)
    for clients in ([0, 1, 2], [2, 0], [1]):
        w = np.empty((3, len(clients), obj.dim))
        out = np.full(w.shape, np.nan)
        grads = obj._bind_stochastic_gradients(clients, w, out)
        for _ in range(4):
            w[...] = rng.normal(size=w.shape) * rng.choice([1.0, 1e-300, 1e300], size=w.shape)
            w[rng.random(w.shape) < 0.2] = -0.0
            with np.errstate(over="ignore", invalid="ignore"):
                assert grads(None) is out
                for j, i in enumerate(clients):
                    if i == 2:
                        expected = np.zeros(w[:, j].shape)
                    else:
                        diag, off, lin = obj._forms[i]
                        expected = oracles.tridiagonal_product(diag, off, w[:, j]) + lin
                    assert out[:, j].tobytes() == expected.tobytes(), (clients, i)
                    for row in range(len(w)):
                        alone = obj._gradient(np.array(w[row, j]), i)
                        assert out[row, j].tobytes() == alone.tobytes(), (clients, i, row)
            out[...] = np.nan


def test_bound_softmax_kernel_keeps_the_bits_of_the_row_max_gradient():
    # The bound kernel shifts each sample's logits by a max reduced over a
    # class-major copy; it must keep the bits of the z.max(axis=-1) kernel,
    # at w = 0, where every logit is +-0, and where the logits lie more than
    # 745 apart, so the log-sum-exp is exactly 0 (at a zero max, too). The
    # criterion-9 grid's shapes: 10 classes, 10 features and the bias
    # column, minibatches of 5, and 5 configs.
    obj = unequal_softmax(sizes=(5, 9, 7), classes=10, features=10)
    clients = [2, 0]
    rng = np.random.default_rng(9)
    w = np.empty((5, len(clients), obj.dim))
    out = np.empty(w.shape)
    w_mat = obj._unpack(w)
    values = [np.where(rng.random(w.shape) < 0.5, -0.0, 0.0)]
    for bias in (800.0, -800.0):
        far = np.where(rng.random(w_mat.shape) < 0.5, -0.0, 0.0)
        far[..., 0 if bias > 0 else slice(1, None), -1] = bias
        values.append(far.reshape(w.shape))
    values.append(rng.normal(size=w.shape))
    draws = obj._draws(clients, 5, len(values), np.random.default_rng(3))
    grads = obj._bind_stochastic_gradients(clients, w, out)
    for value, (x, onehot) in zip(values, draws):
        w[...] = value
        assert grads((x, onehot)) is out
        y = onehot.argmax(axis=-1)
        expected = oracles.softmax_samples_grad(w_mat, x, y, obj.n_classes).reshape(w.shape)
        assert out.tobytes() == expected.tobytes()
        for row, j in itertools.product(range(len(w)), range(len(clients))):
            alone = oracles.softmax_samples_grad(obj._unpack(w[row, j]), x[j], y[j], obj.n_classes)
            assert out[row, j].tobytes() == alone.ravel().tobytes(), (row, j)


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
