import itertools

import numpy as np
import oracles
import pytest

from stalefl.aggregation import (
    AggregatorConfig,
    MemoryBank,
    NoParticipantsError,
    fedavg_biased,
    fedstale,
    memory_error,
    refresh_memory,
    u_fedavg,
    u_fedvarp,
)
from stalefl.local_solver import ClientUpdate
from stalefl.objectives import QuadraticObjective


def upd(client, *vals):
    return ClientUpdate(client, 1, np.array(vals, dtype=float))


def bank_with(n, dim, rows):
    bank = MemoryBank(n, dim)
    for i, row in rows.items():
        bank.slots[i] = row
    return bank


def test_fedavg_single_participant_identity():
    out = fedavg_biased([upd(0, 3.0, -1.0)])
    np.testing.assert_array_equal(out.delta, np.array([3.0, -1.0]))


def test_fedavg_two_participants_mean():
    out = fedavg_biased([upd(0, 2.0, 0.0), upd(1, 0.0, 2.0)])
    np.testing.assert_array_equal(out.delta, np.array([1.0, 1.0]))


def test_fedavg_empty_raises():
    with pytest.raises(NoParticipantsError):
        fedavg_biased([])


def test_u_fedavg_hand_value():
    # N=2, only client 1 present with p=0.5: (1/2)(1/0.5)(1,0) = (1,0).
    out = u_fedavg([upd(1, 1.0, 0.0)], MemoryBank(2, 2), np.array([1.0, 2.0]), 2)
    np.testing.assert_array_equal(out.delta, np.array([1.0, 0.0]))


def test_u_fedavg_all_equal_updates_full_participation():
    ups = [upd(i, 5.0, -2.0) for i in range(3)]
    out = u_fedavg(ups, MemoryBank(3, 2), np.ones(3), 3)
    np.testing.assert_allclose(out.delta, np.array([5.0, -2.0]), atol=1e-15)


def test_u_fedavg_empty_is_zero():
    bank = bank_with(2, 3, {0: [1.0, 2.0, 3.0]})  # u_fedavg reads no slot
    np.testing.assert_array_equal(u_fedavg([], bank, np.ones(2), 2).delta, np.zeros(3))


def test_fedstale_hand_value():
    # N=2, p=(1, 0.5), only the p=1 client present with delta=(2,0), both
    # memory slots (1,1), beta=0.5:
    # (0.25)(2,2) + (1/2)(1/1)((2,0)-(0.5,0.5)) = (0.5,0.5)+(0.75,-0.25) = (1.25,0.25)
    bank = bank_with(2, 2, {0: [1.0, 1.0], 1: [1.0, 1.0]})
    out = fedstale([upd(0, 2.0, 0.0)], bank, np.array([1.0, 2.0]), 2, beta=0.5)
    np.testing.assert_allclose(out.delta, np.array([1.25, 0.25]), atol=1e-15)
    # cross-check against the convex-combination identity on the same inputs
    combo = (
        0.5 * oracles.u_fedavg([upd(0, 2.0, 0.0)], np.array([1.0, 2.0]), 2, dim=2).delta
        + 0.5 * oracles.u_fedvarp([upd(0, 2.0, 0.0)], bank, np.array([1.0, 2.0]), 2).delta
    )
    np.testing.assert_allclose(out.delta, combo, atol=1e-15)


def test_fedstale_does_not_mutate_bank():
    bank = bank_with(2, 2, {0: [1.0, 1.0], 1: [1.0, 1.0]})
    before = bank.slots.copy()
    fedstale([upd(1, 2.0, 0.0)], bank, np.array([1.0, 2.0]), 2, beta=0.7)
    np.testing.assert_array_equal(bank.slots, before)


def test_fedstale_beta0_equals_u_fedavg():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ups = [upd(i, *rng.normal(size=3)) for i in (0, 2)]
        bank = bank_with(4, 3, {i: rng.normal(size=3) for i in range(4)})
        weights = rng.uniform(1.0, 10.0, size=4)
        a = fedstale(ups, bank, weights, 4, beta=0.0).delta
        b = oracles.u_fedavg(ups, weights, 4, dim=3).delta
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_fedstale_beta1_equals_u_fedvarp():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ups = [upd(i, *rng.normal(size=3)) for i in (1, 3)]
        bank = bank_with(4, 3, {i: rng.normal(size=3) for i in range(4)})
        weights = rng.uniform(1.0, 10.0, size=4)
        a = fedstale(ups, bank, weights, 4, beta=1.0).delta
        b = oracles.u_fedvarp(ups, bank, weights, 4).delta
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_interpolation_identity():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n, dim = 4, 2
        present = [i for i in range(n) if rng.random() < 0.6]
        ups = [upd(i, *rng.normal(size=dim)) for i in present]
        bank = bank_with(n, dim, {i: rng.normal(size=dim) for i in range(n)})
        weights = rng.uniform(1.0, 8.0, size=n)
        beta = rng.random()
        combo = (
            (1.0 - beta) * oracles.u_fedavg(ups, weights, n, dim=dim).delta
            + beta * oracles.u_fedvarp(ups, bank, weights, n).delta
        )
        np.testing.assert_allclose(
            fedstale(ups, bank, weights, n, beta).delta, combo, atol=1e-14
        )


def enumerate_expectation(rule, probs, deltas):
    """Probability-weighted mean of `rule(participant subset)` over all 2^N outcomes."""
    n = len(probs)
    total = np.zeros_like(deltas[0])
    for mask in itertools.product((False, True), repeat=n):
        prob = np.prod([p if m else 1.0 - p for p, m in zip(probs, mask)])
        if prob == 0.0:
            continue
        ups = [upd(i, *deltas[i]) for i in range(n) if mask[i]]
        total = total + prob * rule(ups)
    return total


def test_unbiasedness_by_enumeration():
    rng = np.random.default_rng(3)
    n, dim = 3, 2
    probs = [1.0, 0.5, 0.2]
    deltas = [rng.normal(size=dim) for _ in range(n)]
    bank = bank_with(n, dim, {i: rng.normal(size=dim) for i in range(n)})
    weights = 1.0 / np.array(probs)
    target = np.mean(deltas, axis=0)

    rules = {
        "u_fedavg": lambda ups: oracles.u_fedavg(ups, weights, n, dim=dim).delta,
        "u_fedvarp": lambda ups: oracles.u_fedvarp(ups, bank, weights, n).delta,
    }
    for beta in (0.0, 0.3, 0.7, 1.0):
        rules[f"fedstale_{beta}"] = (
            lambda ups, b=beta: fedstale(ups, bank, weights, n, b).delta
        )
    for name, rule in rules.items():
        exp = enumerate_expectation(rule, probs, deltas)
        np.testing.assert_allclose(exp, target, atol=1e-12, err_msg=name)


def test_biasedness_witness():
    # Heterogeneous p with very different updates: the plain average deviates.
    probs = [1.0, 0.1]
    deltas = [np.array([10.0, 0.0]), np.array([0.0, 10.0])]
    exp = enumerate_expectation(lambda ups: fedavg_biased(ups).delta, probs, deltas)
    assert float(np.linalg.norm(exp - np.mean(deltas, axis=0))) > 1e-3


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    ups = [upd(i, *rng.normal(size=3)) for i in range(5)]
    bank = bank_with(5, 3, {i: rng.normal(size=3) for i in range(5)})
    weights = rng.uniform(1.0, 4.0, size=5)
    shuffled = [ups[j] for j in rng.permutation(5)]
    for rule in (
        lambda u: fedavg_biased(u).delta,
        lambda u: u_fedavg(u, bank, weights, 5).delta,
        lambda u: u_fedvarp(u, bank, weights, 5).delta,
        lambda u: fedstale(u, bank, weights, 5, 0.4).delta,
    ):
        np.testing.assert_allclose(rule(ups), rule(shuffled), atol=1e-14)


def test_duplicate_client_rejected():
    with pytest.raises(ValueError):
        fedavg_biased([upd(0, 1.0), upd(0, 2.0)])


def test_config_validation():
    with pytest.raises(ValueError):
        AggregatorConfig(rule="sgd")
    with pytest.raises(ValueError):
        AggregatorConfig(beta=1.5)
    with pytest.raises(ValueError):
        AggregatorConfig(weights_source="oracle")


# --- memory bank --------------------------------------------------------------


def test_refresh_empty_is_identity():
    bank = bank_with(3, 2, {0: [1.0, 2.0]})
    before = bank.slots.copy()
    refresh_memory(bank, [], 5)
    np.testing.assert_array_equal(bank.slots, before)


def test_non_participant_slot_unchanged_over_rounds():
    bank = bank_with(2, 2, {1: [7.0, 7.0]})
    rng = np.random.default_rng(6)
    for t in range(1, 101):
        refresh_memory(bank, [upd(0, *rng.normal(size=2))], t)
    np.testing.assert_array_equal(bank.slots[1], np.array([7.0, 7.0]))
    assert bank.last_refresh_round[1] == 0


def test_participant_slot_equals_update():
    bank = MemoryBank(2, 2)
    refresh_memory(bank, [upd(1, 4.0, -4.0)], 3)
    np.testing.assert_array_equal(bank.slots[1], np.array([4.0, -4.0]))
    assert bank.last_refresh_round[1] == 3


def test_trace_replay_reconstructs_bank():
    rng = np.random.default_rng(7)
    n, dim, rounds = 4, 3, 30
    history = []
    incremental = MemoryBank(n, dim)
    for t in range(1, rounds + 1):
        present = [i for i in range(n) if rng.random() < 0.5]
        ups = [upd(i, *rng.normal(size=dim)) for i in present]
        history.append(ups)
        refresh_memory(incremental, ups, t)
    replayed = MemoryBank(n, dim)
    for t, ups in enumerate(history, start=1):
        refresh_memory(replayed, ups, t)
    np.testing.assert_array_equal(incremental.slots, replayed.slots)
    np.testing.assert_array_equal(incremental.last_refresh_round, replayed.last_refresh_round)


def test_memory_error_zero_when_exact():
    obj = QuadraticObjective.isotropic([np.zeros(2), np.ones(2)])
    w = np.array([0.5, -0.5])
    bank = bank_with(2, 2, {0: obj.gradient(w, 0), 1: obj.gradient(w, 1)})
    assert memory_error(bank.slots, obj, w) == 0.0


def test_memory_error_hand_value():
    obj = QuadraticObjective.isotropic([np.zeros(2), np.ones(2)])
    w = np.array([1.0, 1.0])
    bank = MemoryBank(2, 2)  # zeros
    # grads: (1,1) and (0,0); mean of ||g_i - 0||^2 = (2 + 0)/2 = 1.
    assert memory_error(bank.slots, obj, w) == pytest.approx(1.0, abs=1e-15)
