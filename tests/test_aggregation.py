import itertools
import math

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stalefl import aggregation
from stalefl.aggregation import (
    REDUCE_FROM,
    AggregatorConfig,
    fedavg_biased,
    fedstale,
    memory_error,
    refresh_memory,
    u_fedavg,
    u_fedvarp,
)
from stalefl.local_solver import PLAN_LIMIT
from stalefl.objectives import DimensionMismatchError, QuadraticObjective


def rows(*vals):
    """A round's update array, one row per participant."""
    return np.array(vals, dtype=float)


def memory_with(n, dim, rows):
    """An (n, dim) memory, zeros but for the given {client: row} slots."""
    slots = np.zeros((n, dim))
    for i, row in rows.items():
        slots[i] = row
    return slots


def test_fedavg_single_participant_identity():
    out = fedavg_biased([0], rows([3.0, -1.0]))
    np.testing.assert_array_equal(out, np.array([3.0, -1.0]))


def test_fedavg_two_participants_mean():
    out = fedavg_biased([0, 1], rows([2.0, 0.0], [0.0, 2.0]))
    np.testing.assert_array_equal(out, np.array([1.0, 1.0]))


def test_fedavg_empty_round_is_a_positive_zero_update():
    assert fedavg_biased([], np.empty((0, 2))).tobytes() == np.zeros(2).tobytes()
    out = fedavg_biased([], np.empty((3, 0, 2)))
    assert out.shape == (3, 2) and out.tobytes() == np.zeros((3, 2)).tobytes()


def test_u_fedavg_hand_value():
    # N=2, only client 1 present with p=0.5: (1/2)(1/0.5)(1,0) = (1,0).
    out = u_fedavg([1], rows([1.0, 0.0]), np.zeros((2, 2)), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(out, np.array([1.0, 0.0]))


def test_u_fedavg_all_equal_updates_full_participation():
    out = u_fedavg([0, 1, 2], rows(*[[5.0, -2.0]] * 3), np.zeros((3, 2)), np.ones(3))
    np.testing.assert_allclose(out, np.array([5.0, -2.0]), atol=1e-15)


def test_u_fedavg_empty_is_zero():
    slots = memory_with(2, 3, {0: [1.0, 2.0, 3.0]})  # u_fedavg reads no slot
    out = u_fedavg([], np.empty((0, 3)), slots, np.ones(2))
    np.testing.assert_array_equal(out, np.zeros(3))


def test_fedstale_hand_value():
    # N=2, p=(1, 0.5), only the p=1 client present with delta=(2,0), both
    # memory slots (1,1), beta=0.5:
    # (0.25)(2,2) + (1/2)(1/1)((2,0)-(0.5,0.5)) = (0.5,0.5)+(0.75,-0.25) = (1.25,0.25)
    slots = memory_with(2, 2, {0: [1.0, 1.0], 1: [1.0, 1.0]})
    out = fedstale([0], rows([2.0, 0.0]), slots, np.array([1.0, 2.0]), beta=0.5)
    np.testing.assert_allclose(out, np.array([1.25, 0.25]), atol=1e-15)
    # cross-check against the convex-combination identity on the same inputs
    combo = (
        0.5 * oracles.u_fedavg([0], rows([2.0, 0.0]), np.array([1.0, 2.0]), 2)
        + 0.5 * oracles.u_fedvarp([0], rows([2.0, 0.0]), slots, np.array([1.0, 2.0]), 2)
    )
    np.testing.assert_allclose(out, combo, atol=1e-15)


def test_fedstale_does_not_mutate_bank():
    slots = memory_with(2, 2, {0: [1.0, 1.0], 1: [1.0, 1.0]})
    before = slots.copy()
    fedstale([1], rows([2.0, 0.0]), slots, np.array([1.0, 2.0]), beta=0.7)
    np.testing.assert_array_equal(slots, before)


def test_fedstale_beta0_equals_u_fedavg():
    rng = np.random.default_rng(0)
    for _ in range(50):
        deltas = rows(*[rng.normal(size=3) for i in (0, 2)])
        slots = memory_with(4, 3, {i: rng.normal(size=3) for i in range(4)})
        weights = rng.uniform(1.0, 10.0, size=4)
        a = fedstale([0, 2], deltas, slots, weights, beta=0.0)
        b = oracles.u_fedavg([0, 2], deltas, weights, 4)
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_fedstale_beta1_equals_u_fedvarp():
    rng = np.random.default_rng(1)
    for _ in range(50):
        deltas = rows(*[rng.normal(size=3) for i in (1, 3)])
        slots = memory_with(4, 3, {i: rng.normal(size=3) for i in range(4)})
        weights = rng.uniform(1.0, 10.0, size=4)
        a = fedstale([1, 3], deltas, slots, weights, beta=1.0)
        b = oracles.u_fedvarp([1, 3], deltas, slots, weights, 4)
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_interpolation_identity():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n, dim = 4, 2
        present = [i for i in range(n) if rng.random() < 0.6]
        deltas = rng.normal(size=(len(present), dim))
        slots = memory_with(n, dim, {i: rng.normal(size=dim) for i in range(n)})
        weights = rng.uniform(1.0, 8.0, size=n)
        beta = rng.random()
        combo = (
            (1.0 - beta) * oracles.u_fedavg(present, deltas, weights, n)
            + beta * oracles.u_fedvarp(present, deltas, slots, weights, n)
        )
        np.testing.assert_allclose(
            fedstale(present, deltas, slots, weights, beta), combo, atol=1e-14
        )


def enumerate_expectation(rule, probs, deltas):
    """Probability-weighted mean of `rule(clients, deltas)` over all 2^N
    participant subsets."""
    n = len(probs)
    deltas = np.asarray(deltas)
    total = np.zeros_like(deltas[0])
    for mask in itertools.product((False, True), repeat=n):
        prob = np.prod([p if m else 1.0 - p for p, m in zip(probs, mask)])
        if prob == 0.0:
            continue
        present = [i for i in range(n) if mask[i]]
        total = total + prob * rule(present, deltas[present])
    return total


def test_unbiasedness_by_enumeration():
    rng = np.random.default_rng(3)
    n, dim = 3, 2
    probs = [1.0, 0.5, 0.2]
    deltas = [rng.normal(size=dim) for _ in range(n)]
    slots = memory_with(n, dim, {i: rng.normal(size=dim) for i in range(n)})
    weights = 1.0 / np.array(probs)
    target = np.mean(deltas, axis=0)

    rules = {
        "u_fedavg": lambda s, d: oracles.u_fedavg(s, d, weights, n),
        "u_fedvarp": lambda s, d: oracles.u_fedvarp(s, d, slots, weights, n),
    }
    for beta in (0.0, 0.3, 0.7, 1.0):
        rules[f"fedstale_{beta}"] = (
            lambda s, d, b=beta: fedstale(s, d, slots, weights, b)
        )
    for name, rule in rules.items():
        exp = enumerate_expectation(rule, probs, deltas)
        np.testing.assert_allclose(exp, target, atol=1e-12, err_msg=name)


def test_biasedness_witness():
    # Heterogeneous p with very different updates: the plain average deviates.
    probs = [1.0, 0.1]
    deltas = [np.array([10.0, 0.0]), np.array([0.0, 10.0])]
    exp = enumerate_expectation(fedavg_biased, probs, deltas)
    assert float(np.linalg.norm(exp - np.mean(deltas, axis=0))) > 1e-3


def test_permutation_invariance():
    # Relabelling the clients (their updates, slots and weights move with
    # them) changes only the summation order.
    rng = np.random.default_rng(4)
    present = [0, 1, 3, 4]
    deltas = rng.normal(size=(4, 3))
    slots = memory_with(5, 3, {i: rng.normal(size=3) for i in range(5)})
    weights = rng.uniform(1.0, 4.0, size=5)
    perm = rng.permutation(5)   # client i becomes client perm[i]
    order = np.argsort(perm[present])
    relabelled = sorted(perm[present].tolist())
    moved = memory_with(5, 3, {perm[i]: slots[i] for i in range(5)})
    moved_weights = np.empty(5)
    moved_weights[perm] = weights
    for rule, args, moved_args in (
        (fedavg_biased, (), ()),
        (u_fedavg, (slots, weights), (moved, moved_weights)),
        (u_fedvarp, (slots, weights), (moved, moved_weights)),
        (lambda *a: fedstale(*a, 0.4), (slots, weights), (moved, moved_weights)),
    ):
        np.testing.assert_allclose(
            rule(present, deltas, *args), rule(relabelled, deltas[order], *moved_args),
            atol=1e-14,
        )


# A stack of three memories and three configs' updates as well as a single
# one: the checks raise for either alike.
LEADS = [(), (3,)]


def stack_betas(lead, beta):
    return np.full(lead, beta) if lead else beta


def test_duplicate_client_rejected():
    # Every rule and the refresh take ascending, distinct client indices:
    # repeated or unsorted ones raise, and the memory stays as it was.
    for lead in LEADS:
        slots = np.zeros((*lead, 3, 2))
        for clients in ([0, 0], [1, 0], [0, 2, 1]):
            deltas = np.ones((*lead, len(clients), 2))
            for call in (
                lambda: fedavg_biased(clients, deltas),
                lambda: fedstale(clients, deltas, slots, np.ones(3), stack_betas(lead, 0.5)),
                lambda: u_fedavg(clients, deltas, slots, np.ones(3)),
                lambda: u_fedvarp(clients, deltas, slots, np.ones(3)),
                lambda: refresh_memory(slots, clients, deltas),
            ):
                with pytest.raises(ValueError, match="ascending and distinct"):
                    call()
        np.testing.assert_array_equal(slots, np.zeros((*lead, 3, 2)))


@pytest.mark.parametrize("clients", [[-1], [-3, 0], [3], [0, 2, 3], [1, 7]])
def test_client_out_of_range_rejected(clients):
    # Every rule that reads the memory, and the refresh, reject a client index
    # outside [0, N) instead of letting it wrap; the memory stays as it was.
    for lead in LEADS:
        slots = np.zeros((*lead, 3, 2))
        deltas = np.ones((*lead, len(clients), 2))
        for call in (
            lambda: fedstale(clients, deltas, slots, np.ones(3), stack_betas(lead, 0.5)),
            lambda: fedstale(clients, deltas, slots, np.ones(3), stack_betas(lead, 0.0)),
            lambda: u_fedavg(clients, deltas, slots, np.ones(3)),
            lambda: u_fedvarp(clients, deltas, slots, np.ones(3)),
            lambda: refresh_memory(slots, clients, deltas),
        ):
            with pytest.raises(IndexError, match="out of range"):
                call()
        np.testing.assert_array_equal(slots, np.zeros((*lead, 3, 2)))


def test_update_rows_must_match_clients():
    for lead in LEADS:
        slots = np.zeros((*lead, 3, 2))
        deltas = np.ones((*lead, 1, 2))
        for call in (
            lambda: fedavg_biased([0, 1], deltas),
            lambda: fedstale([0, 1], deltas, slots, np.ones(3), stack_betas(lead, 0.5)),
            lambda: u_fedavg([0, 1], deltas, slots, np.ones(3)),
            lambda: refresh_memory(slots, [0, 1], deltas),
        ):
            with pytest.raises(ValueError, match="update rows"):
                call()
        np.testing.assert_array_equal(slots, np.zeros((*lead, 3, 2)))


def test_stacks_must_agree_on_their_leading_axes():
    # A memory or betas whose leading axes differ from the updates' would
    # broadcast one config's values over another's; they raise instead.
    deltas, slots = np.ones((3, 1, 2)), np.zeros((3, 4, 2))
    for call in (
        lambda: fedstale([0], deltas, slots[:1], np.ones(4), 0.5),
        lambda: fedstale([0], deltas, slots, np.ones(4), np.full(2, 0.5)),
        lambda: fedstale([0], deltas[0], slots[0], np.ones(4), np.full(1, 0.5)),
        lambda: u_fedvarp([0], deltas, slots[0], np.ones(4)),
        lambda: refresh_memory(slots[:2], [0], deltas),
    ):
        with pytest.raises(DimensionMismatchError):
            call()
    np.testing.assert_array_equal(slots, np.zeros((3, 4, 2)))


@pytest.mark.parametrize("beta", [-0.1, 1.5, math.nan])
def test_fedstale_rejects_a_beta_outside_the_unit_interval(beta):
    deltas, slots = np.ones((3, 1, 2)), np.zeros((3, 4, 2))
    for b in (beta, np.array([0.5, beta, 0.0]), np.array([beta, 0.5, 1.0])):
        with pytest.raises(ValueError, match="beta must lie"):
            fedstale([0], deltas, slots, np.ones(4), b)


def test_config_validation():
    with pytest.raises(ValueError):
        AggregatorConfig(rule="sgd")
    with pytest.raises(ValueError):
        AggregatorConfig(beta=1.5)
    with pytest.raises(ValueError):
        AggregatorConfig(weights_source="oracle")
    # the cap is None or above 1, inf for no cap, under either weight source
    for source in ("exact", "estimator"):
        for cap in (1.0, 0.5, -math.inf, math.nan):
            with pytest.raises(ValueError, match="weight_cap must be > 1"):
                AggregatorConfig(weights_source=source, weight_cap=cap)
        for cap in (None, 1.5, math.inf):
            assert AggregatorConfig(weights_source=source, weight_cap=cap).weight_cap == cap


# --- memory -------------------------------------------------------------------


def test_refresh_empty_is_identity():
    slots = memory_with(3, 2, {0: [1.0, 2.0]})
    before = slots.copy()
    refresh_memory(slots, [], np.empty((0, 2)))
    np.testing.assert_array_equal(slots, before)


def test_non_participant_slot_unchanged_over_rounds():
    slots = memory_with(2, 2, {1: [7.0, 7.0]})
    rng = np.random.default_rng(6)
    for _ in range(100):
        refresh_memory(slots, [0], rng.normal(size=(1, 2)))
    np.testing.assert_array_equal(slots[1], np.array([7.0, 7.0]))


def test_participant_slot_equals_update():
    slots = np.zeros((2, 2))
    refresh_memory(slots, [1], rows([4.0, -4.0]))
    np.testing.assert_array_equal(slots[1], np.array([4.0, -4.0]))


def test_trace_replay_reconstructs_bank():
    rng = np.random.default_rng(7)
    n, dim, rounds = 4, 3, 30
    history = []
    incremental = np.zeros((n, dim))
    for _ in range(rounds):
        present = [i for i in range(n) if rng.random() < 0.5]
        deltas = rng.normal(size=(len(present), dim))
        history.append((present, deltas))
        refresh_memory(incremental, present, deltas)
    replayed = np.zeros((n, dim))
    for present, deltas in history:
        refresh_memory(replayed, present, deltas)
    np.testing.assert_array_equal(incremental, replayed)


def test_memory_error_zero_when_exact():
    obj = QuadraticObjective.isotropic([np.zeros(2), np.ones(2)])
    w = np.array([0.5, -0.5])
    slots = memory_with(2, 2, {0: obj.gradient(w, 0), 1: obj.gradient(w, 1)})
    assert memory_error(slots, obj, w) == 0.0


def test_memory_error_hand_value():
    obj = QuadraticObjective.isotropic([np.zeros(2), np.ones(2)])
    w = np.array([1.0, 1.0])
    slots = np.zeros((2, 2))
    # grads: (1,1) and (0,0); mean of ||g_i - 0||^2 = (2 + 0)/2 = 1.
    assert memory_error(slots, obj, w) == pytest.approx(1.0, abs=1e-15)


# --- stacked rounds -----------------------------------------------------------
#
# A rule or the refresh called on a (C, P, dim) stack of updates and a
# (C, N, dim) stack of memories gives each row the bytes of the call on that
# row alone.

# -0.0 next to positive and negative values: d - 0*h is +0.0 for d = -0.0
# and h < 0, the case where a stacked fedstale that does not skip the stale
# terms of a beta=0 row could flip a signed zero.
ENTRIES = st.one_of(
    st.sampled_from([-0.0, 0.0, -1.0, 2.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
BETA_MIXES = [[0.0, 0.3, 1.0], [0.0, 0.0, 0.0], [0.3, 0.3, 0.3], [1.0, 0.0, 0.7]]


@st.composite
def stacked_rounds(draw):
    """(clients, deltas, slots, weights, betas) of a round of C configs."""
    n = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 3))
    present = draw(st.sampled_from(["none", "one", "all", "some"]))
    if present == "none":
        clients = []
    elif present == "one":
        clients = [draw(st.integers(0, n - 1))]
    elif present == "all":
        clients = list(range(n))
    else:
        clients = sorted(draw(st.sets(st.integers(0, n - 1))))
    betas = np.array(draw(st.sampled_from(BETA_MIXES)))
    c = len(betas)

    def array(shape):
        return np.array(draw(st.lists(ENTRIES, min_size=math.prod(shape),
                                      max_size=math.prod(shape)))).reshape(shape)

    deltas = array((c, len(clients), dim))
    slots = array((c, n, dim))
    weights = np.array(draw(st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n)))
    return clients, deltas, slots, weights, betas


def assert_rows_are_single_calls(stacked, singles):
    assert stacked.shape == (len(singles), *singles[0].shape)
    for row, single in zip(stacked, singles):
        assert row.tobytes() == single.tobytes()


# Rounds with entries of +-1e300 and signed zeros, with and without
# participants: (clients, deltas, slots, weights, betas).
EXTREME_ROUNDS = [
    (
        clients,
        np.resize([1e300, -0.0, -1e300, 0.0, 2.5], (3, len(clients), 2)),
        np.resize([-1e300, 0.0, 1e300, -0.0, -1.0, 1e300], (3, 3, 2)),
        np.array([1.0, 3.0, 1.5]),
        np.array(betas),
    )
    for clients in ([], [0, 2]) for betas in BETA_MIXES
]


@settings(max_examples=150, deadline=None)
@given(stacked_rounds())
def test_stacked_fedstale_rows_are_single_calls(case):
    clients, deltas, slots, weights, betas = case
    before = slots.copy()
    assert_rows_are_single_calls(
        fedstale(clients, deltas, slots, weights, betas),
        [fedstale(clients, d, s, weights, float(b)) for d, s, b in zip(deltas, slots, betas)],
    )
    # one beta for every row
    assert_rows_are_single_calls(
        fedstale(clients, deltas, slots, weights, betas[1]),
        [fedstale(clients, d, s, weights, betas[1]) for d, s in zip(deltas, slots)],
    )
    for rule in (u_fedavg, u_fedvarp):
        assert_rows_are_single_calls(
            rule(clients, deltas, slots, weights),
            [rule(clients, d, s, weights) for d, s in zip(deltas, slots)],
        )
    assert slots.tobytes() == before.tobytes()


for _case in EXTREME_ROUNDS:
    test_stacked_fedstale_rows_are_single_calls = example(_case)(
        test_stacked_fedstale_rows_are_single_calls
    )


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("clients", [[], [1], [0, 2]])
@pytest.mark.parametrize("entries", [[-0.0, 0.0], [1e300, -0.0, -1e300, 0.0, 2.5]])
def test_fedstale_bits_for_every_form_of_one_beta(entries, clients, beta):
    # One beta as a float, a 0-d array or, on a stack of one, a (1,) array:
    # each gives the bits of the rule's definition, summed in client order,
    # and leaves the updates and the memory as they were.
    rng = np.random.default_rng(len(entries) + len(clients))
    deltas = rng.choice(entries, size=(len(clients), 2))
    slots = rng.choice(entries, size=(3, 2))
    inputs = deltas.tobytes(), slots.tobytes()
    weights = np.array([1.0, 3.0, 1.5])
    if beta == 0.0:
        expected = oracles.u_fedavg(clients, deltas, weights, 3).tobytes()
    else:
        expected = oracles.fedstale(clients, deltas, slots, weights, beta, 3).tobytes()
    for form in (beta, np.array(beta)):
        assert fedstale(clients, deltas, slots, weights, form).tobytes() == expected
    for form in (beta, np.array(beta), np.array([beta])):
        out = fedstale(clients, deltas[None], slots[None], weights, form)
        assert out.shape == (1, 2) and out[0].tobytes() == expected
    assert (deltas.tobytes(), slots.tobytes()) == inputs


@settings(max_examples=100, deadline=None)
@given(stacked_rounds())
def test_stacked_fedavg_and_refresh_rows_are_single_calls(case):
    clients, deltas, slots, _, _ = case
    stacked = fedavg_biased(clients, deltas)
    assert_rows_are_single_calls(stacked, [fedavg_biased(clients, d) for d in deltas])
    if not clients:
        assert stacked.tobytes() == np.zeros(stacked.shape).tobytes()
    singles = slots.copy()
    for s, d in zip(singles, deltas):
        refresh_memory(s, clients, d)
    refresh_memory(slots, clients, deltas)
    assert slots.tobytes() == singles.tobytes()


def test_stacked_fedstale_beta0_row_ignores_an_overflowing_memory_sum():
    # 0 * (an overflowed sum of the memory) is nan; a beta=0 row among stale
    # ones still gets the bits of the beta=0 call, which reads no slot.
    slots = np.full((2, 2, 1), 1e308)
    deltas = np.ones((2, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        out = fedstale([0], deltas, slots, np.ones(2), np.array([0.0, 0.5]))
    assert out[0].tobytes() == fedstale([0], deltas[0], slots[0], np.ones(2), 0.0).tobytes()
    assert np.isfinite(out[0]).all() and np.isinf(out[1]).all()


# Rounds with repeats, empty sets, a new set between repeats, and more
# distinct sets than a plan dict holds, so that evicted sets come back.
PLAN_SETS = [[0], [0], [], [0, 2], [0], [], [1, 2], [0, 2], [0, 1, 2], [1], [2], [0], [0, 2], [0]]


@pytest.mark.parametrize("lead,beta", [
    ((), 0.5), ((), 0.0), ((), 1.0), ((3,), 0.8), ((3,), np.array(0.0)),
    ((3,), np.array([0.0, 0.3, 1.0])), ((3,), np.array([0.0, 0.0, 0.0])),
    ((3,), np.array([-0.0, 0.7, 1.0])), ((3,), np.array([0.4, 0.4, 0.4])),
])
def test_planned_aggregation_changes_no_bit(lead, beta):
    # With one plan dict, every round's update and refreshed memory have the
    # bits of the call without plans, under weights that change every
    # round, and an update holds until its set is used again.
    rng = np.random.default_rng(5)
    entries = [1e300, -1e300, 0.0, -0.0, 2.5, -1.0]
    plain = rng.choice(entries, size=(*lead, 3, 2))
    kept = plain.copy()
    plans, held = {}, {}
    for clients in PLAN_SETS:
        deltas = rng.choice(entries, size=(*lead, len(clients), 2))
        weights = rng.uniform(1.0, 10.0, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = fedstale(clients, deltas, plain, weights, beta)
            update = fedstale(clients, deltas, kept, weights, beta, plans)
        assert update.tobytes() == expected.tobytes()
        held[tuple(clients)] = update, update.tobytes()
        for u, bits in held.values():
            assert u.tobytes() == bits
        refresh_memory(plain, clients, deltas)
        refresh_memory(kept, clients, deltas, plans)
        assert kept.tobytes() == plain.tobytes()
        assert len(plans) <= PLAN_LIMIT


def raised(call):
    """The type and message of what `call()` raises, or None."""
    try:
        call()
    except Exception as e:   # compared, not handled
        return type(e), str(e)
    return None


def test_planned_aggregation_rejects_what_the_plain_call_rejects():
    # A bad round raises the same error with a plan dict as without, binds
    # nothing into the dict and leaves the memory as it was.
    deltas = np.ones((3, 1, 2))
    bad_rounds = [   # (clients, deltas, memory, beta)
        ([1, 0], np.ones((3, 2, 2)), np.zeros((3, 3, 2)), 0.5),
        ([0, 0], np.ones((3, 2, 2)), np.zeros((3, 3, 2)), 0.0),
        ([3], deltas, np.zeros((3, 3, 2)), 0.5),
        ([-1, 1], np.ones((3, 2, 2)), np.zeros((3, 3, 2)), 1.0),
        ([0], deltas, np.zeros((3, 3, 2)), 1.5),
        ([0], deltas, np.zeros((3, 3, 2)), np.array([0.5, math.nan, 0.0])),
        ([0], deltas, np.zeros((3, 3, 2)), -0.1),
        ([0], deltas, np.zeros((2, 3, 2)), 0.5),
        ([0], deltas, np.zeros((3, 3, 2)), np.full(2, 0.5)),
        ([0, 1], deltas, np.zeros((3, 3, 2)), 0.5),
    ]
    for clients, d, slots, beta in bad_rounds:
        for rule, call in (
            ("fedstale", lambda plans: fedstale(clients, d, slots, np.ones(3), beta, plans)),
            ("refresh", lambda plans: refresh_memory(slots, clients, d, plans)),
        ):
            plain = raised(lambda: call(None))
            if plain is None:
                # only a bad beta passes, and only the refresh, which takes none
                assert rule == "refresh" and len(d) == len(slots) == 3
                continue
            plans = {}
            assert raised(lambda: call(plans)) == plain and not plans
            np.testing.assert_array_equal(slots, 0.0)


#
# fedstale and refresh_memory take a round in one of two forms, a loop over
# the participants or one reduce (one indexed assignment for the refresh),
# chosen by the number of participants; both give the same bytes.

EXTREME_ENTRIES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 2.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def participant_rounds(draw):
    """(betas, memory, rounds) of a run on one memory: betas one float or
    one per config, and rounds a list of (clients, deltas, weights) whose
    participant counts lie on both sides of REDUCE_FROM."""
    n = draw(st.integers(REDUCE_FROM, 12))
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        betas = draw(st.sampled_from([0.0, 0.4, 1.0]))
        lead = draw(st.sampled_from([(), (1,), (3,)]))
    else:
        mixes = st.lists(st.sampled_from([0.0, -0.0, 0.3, 1.0]), min_size=1, max_size=4)
        betas = np.array(draw(mixes))
        lead = betas.shape

    def array(shape):
        # all -0.0 too, where a sum that does not start at +0.0 stays -0.0
        entries = draw(st.sampled_from([EXTREME_ENTRIES, st.just(-0.0)]))
        size = math.prod(shape)
        values = draw(st.lists(entries, min_size=size, max_size=size))
        return np.array(values, dtype=float).reshape(shape)

    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        everyone = st.just(list(range(n)))
        clients = draw(st.one_of(everyone, st.sets(st.integers(0, n - 1)).map(sorted)))
        weights = np.array(draw(st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n)))
        rounds.append((clients, array((*lead, len(clients), dim)), weights))
    return betas, array((*lead, n, dim)), rounds


@settings(max_examples=150, deadline=None)
@given(participant_rounds())
def test_loop_and_reduce_forms_give_the_same_bits(case):
    # The forms chosen by the participant count, the loop at every count and
    # the reduce at every count: each round's update and refreshed memory
    # have the same bytes, with and without a plan dict.
    betas, memory, rounds = case
    outcomes = []
    for reduce_from in (REDUCE_FROM, math.inf, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aggregation, "REDUCE_FROM", reduce_from)
            for plans in (None, {}):
                slots, bits = memory.copy(), []
                for clients, deltas, weights in rounds:
                    with np.errstate(over="ignore", invalid="ignore"):
                        update = fedstale(clients, deltas, slots, weights, betas, plans)
                    bits.append(update.tobytes())
                    refresh_memory(slots, clients, deltas, plans)
                    bits.append(slots.tobytes())
                outcomes.append(bits)
    assert all(bits == outcomes[0] for bits in outcomes[1:])
