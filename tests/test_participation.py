import math
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stalefl.participation
from stalefl.participation import (
    NOISE_WORD,
    ParticipationProfile,
    estimated_probs,
    estimated_weight_blocks,
    export_trace_csv,
    key_word,
    load_trace_csv,
    make_two_group_profile,
    philox_uniforms,
    sample_round,
)


def schedule(profile, rounds, master_seed):
    """The (rounds, n_clients) indicator matrix of rounds 1..rounds."""
    return sample_round(profile, 1, master_seed, rounds)


def test_stats_hand_values():
    s = ParticipationProfile(np.array([1.0, 1.0, 0.5, 0.5])).stats()
    assert s.p_var == pytest.approx(2.0, abs=1e-15)
    assert s.p_avg == pytest.approx(0.75, abs=1e-15)
    assert s.p_min == pytest.approx(0.5, abs=1e-15)


def test_full_participation_sentinel():
    assert ParticipationProfile(np.ones(3)).stats().p_var == math.inf


@given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_stats_match_bruteforce(probs):
    p = np.array(probs)
    s = ParticipationProfile(p).stats()
    acc = sum((1.0 - v) / v for v in probs) / len(probs)
    expected = math.inf if acc == 0.0 else 1.0 / acc
    if math.isinf(expected):
        assert s.p_var == math.inf
    else:
        assert s.p_var == pytest.approx(expected, abs=1e-14)
    assert s.p_avg == pytest.approx(sum(probs) / len(probs), abs=1e-14)
    assert s.p_min == pytest.approx(min(probs), abs=1e-14)


def test_invalid_probs_rejected():
    with pytest.raises(ValueError):
        ParticipationProfile(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ParticipationProfile(np.array([1.5]))
    # nan fails both comparisons of `p <= 0 or p > 1`, and is not in (0, 1]
    for probs in ([0.5, math.nan], [math.nan, math.nan], [1.0, math.nan]):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            ParticipationProfile(np.array(probs))


def test_two_group_profile_structure():
    prof = make_two_group_profile(24, 0.1, 12)
    assert int(np.sum(prof.probs == 1.0)) == 12
    assert int(np.sum(prof.probs == 0.1)) == 12
    s = prof.stats()
    assert s.p_avg == pytest.approx(0.55)
    assert s.p_avg / s.p_min == pytest.approx(5.5)
    assert prof.group2 is not None and len(prof.group2) == 12
    assert all(prof.probs[i] == 0.1 for i in prof.group2)


def test_two_group_full_participation_sentinel():
    prof = make_two_group_profile(4, 1.0, 2)
    assert prof.stats().p_var == math.inf


def test_always_present_client():
    prof = ParticipationProfile(np.array([1.0, 0.3]))
    for t in range(1, 501):
        assert sample_round(prof, t, master_seed=1)[0, 0]


def test_schedule_determinism_and_per_round_equality():
    prof = ParticipationProfile(np.array([0.7, 0.2, 1.0]))
    a = [sample_round(prof, t, 42)[0] for t in range(1, 101)]
    b = [sample_round(prof, t, 42)[0] for t in range(1, 101)]
    assert np.array_equal(a, b)
    other = [sample_round(prof, t, 43)[0] for t in range(1, 101)]
    assert not np.array_equal(a, other)


# The documented stream key: ((seed*A ^ client*B) mod 2^64) << 64 | (round mod 2^64).
KEY_MIX_A = 0x9E3779B97F4A7C15
KEY_MIX_B = 0xBF58476D1CE4E5B9


def philox_uniform(seed, client, rnd):
    hi = ((seed * KEY_MIX_A) ^ (client * KEY_MIX_B)) % 2**64
    return np.random.Generator(np.random.Philox(key=(hi << 64) | (rnd % 2**64))).random()


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 - 1, 2**64 + 7, 3**80])
def test_sample_round_matches_fresh_philox_oracle(seed):
    # Saved traces stay valid only while every indicator equals a fresh
    # Generator(Philox(key)).random() < p_i on the documented key. The second
    # profile puts p = 1 clients, which sample_round sets without a draw,
    # between and around clients that draw.
    profiles = [
        np.linspace(0.025, 1.0, 40),
        np.array([1.0, 1.0, 0.3, 1.0, 0.999, 0.05, 1.0, 1.0, 0.5, 1.0]),
    ]
    for probs in profiles:
        prof = ParticipationProfile(probs)
        for rnd in (1, 2, 999, 2**64 - 1, 2**64, 2**64 + 3):
            expected = np.array([philox_uniform(seed, i, rnd) < p for i, p in enumerate(probs)])
            assert np.array_equal(sample_round(prof, rnd, seed)[0], expected), rnd


KERNEL_SEEDS = [0, 2**63 - 1, 2**64 - 1, 2**64 + 7, 3**80]
KERNEL_ROUNDS = [1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 3]


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_kernel_matches_fresh_philox_oracle_over_extreme_keys(seed):
    # The 64x64 -> 128 multiply is built from 32-bit halves, so its carries
    # are checked at keys whose words sit next to 2^32 and 2^64.
    clients = [0, 1, 5, 2**31 + 1]
    rounds = np.array([r % 2**64 for r in KERNEL_ROUNDS], dtype=np.uint64)
    u = philox_uniforms(seed, clients, rounds)
    assert u.shape == (len(KERNEL_ROUNDS), len(clients))
    for j, rnd in enumerate(KERNEL_ROUNDS):
        for c, client in enumerate(clients):
            assert u[j, c] == philox_uniform(seed, client, rnd), (rnd, client)


@pytest.mark.parametrize("first", [1, 2**32 - 2, 2**64 - 3])
def test_block_of_rounds_equals_single_round_calls(first):
    # the block past 2^64 - 1 wraps its round keys as the scalar key does
    prof = ParticipationProfile(np.array([0.3, 1.0, 0.7, 0.05]))
    block = sample_round(prof, first, 11, 6)
    assert block.shape == (6, 4) and block.dtype == bool
    for j in range(6):
        assert np.array_equal(block[j], sample_round(prof, first + j, 11)[0]), j


def test_empirical_frequency():
    prof = ParticipationProfile(np.array([0.5]))
    sched = schedule(prof, 100_000, master_seed=9)
    assert abs(float(sched.mean()) - 0.5) < 0.01


def test_pairwise_independence_proxy():
    prof = ParticipationProfile(np.array([0.5, 0.5, 0.3]))
    sched = schedule(prof, 100_000, master_seed=17).astype(float)
    for i in range(3):
        for j in range(i + 1, 3):
            corr = np.corrcoef(sched[:, i], sched[:, j])[0, 1]
            assert abs(corr) < 0.02


def test_round_must_be_positive():
    prof = ParticipationProfile(np.array([0.5]))
    with pytest.raises(ValueError):
        sample_round(prof, 0, 1)


def test_trace_csv_roundtrip(tmp_path):
    prof = ParticipationProfile(np.array([0.6, 0.4]))
    sched = schedule(prof, 20, master_seed=3)
    path = tmp_path / "trace.csv"
    export_trace_csv(sched, path)
    assert path.read_text().splitlines()[0] == "round,client_id,present"
    assert np.array_equal(load_trace_csv(path), sched)


def test_noise_keys_differ_from_every_participation_key():
    # Both keys are key_word(seed, word) << 64 | round, so two keys of one
    # round differ when their high words do. Under one seed the noise word
    # is no client's; across the seeds tested here no pair collides either.
    seeds = [*range(200), 2**63 - 1, 2**64 - 1, 3**80 % 2**64]
    clients = range(5_000)
    noise = {key_word(s, NOISE_WORD) for s in seeds}
    assert len(noise) == len(seeds)
    assert not noise & {key_word(s, c) for s in seeds for c in clients}
    assert NOISE_WORD >= 2**63
    for s in (1, 2**64 - 1):
        expected = ((s * KEY_MIX_A) ^ (NOISE_WORD * KEY_MIX_B)) % 2**64
        assert key_word(s, NOISE_WORD) == expected


# --- estimator ---------------------------------------------------------------


def estimated_weights(trace, cap):
    """Every round's weights: the blocks of `estimated_weight_blocks`, joined."""
    return np.concatenate(list(estimated_weight_blocks(trace, cap)))


def column(present):
    """A one-client trace: one row per round."""
    return np.array(present, dtype=bool)[:, None]


def test_estimator_hand_values():
    trace = column([c < 5 for c in range(10)])  # 5 of 10 rounds
    assert estimated_probs(trace)[-1, 0] == pytest.approx(0.5)
    assert estimated_weights(trace, 50.0)[-1, 0] == pytest.approx(2.0)


def test_estimator_never_present_floor_and_cap():
    trace = column([False] * 10)
    assert estimated_probs(trace)[-1, 0] == pytest.approx(0.1)  # floored count 1 over t=10
    assert estimated_weights(trace, 5.0)[-1, 0] == pytest.approx(5.0)  # raw 10 capped


def test_estimator_always_present_weight_one():
    assert estimated_weights(column([True] * 7), 10.0)[-1, 0] == pytest.approx(1.0)


def test_estimator_replay_equals_incremental():
    prof = ParticipationProfile(np.array([0.8, 0.3]))
    sched = schedule(prof, 60, master_seed=2)
    np.testing.assert_allclose(
        estimated_weights(sched, 20.0)[-1],
        np.minimum(60.0 / np.maximum(sched.sum(axis=0), 1), 20.0),
        atol=1e-14,
    )


@pytest.mark.parametrize("seed", range(30))
def test_estimated_weights_are_the_per_round_counts_bit_for_bit(seed, monkeypatch):
    # Drawn traces of 1-80 rounds; client 0 is never present, the cap binds
    # whenever an estimate falls below 1/cap.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    probs = np.concatenate([[0.0], rng.uniform(0.02, 1.0, size=n - 1)])
    trace = rng.random((int(rng.integers(1, 81)), n)) < probs
    cap = float(rng.choice([1.5, 4.0, 1e9]))
    expected = oracles.incremental_weights(trace, cap).tobytes()
    for block in (1, 7, 64):
        monkeypatch.setattr(stalefl.participation, "WEIGHT_BLOCK", block)
        got = estimated_weights(trace, cap)
        assert got.tobytes() == expected, block
    if cap == 1.5 and len(trace) > 1:
        assert got[-1, 0] == 1.5


def test_estimated_weights_take_memory_of_a_block_not_of_the_trace():
    # 10^5 rounds x 24 clients: every row in float64 would take 19.2 MB, a
    # block of 64 rounds 12 kB.
    trace = np.random.default_rng(0).random((100_000, 24)) < 0.3
    tracemalloc.start()
    try:
        rows = sum(len(b) for b in estimated_weight_blocks(trace, 50.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == 100_000
    assert peak < 200_000, peak


@pytest.mark.parametrize("trace", [np.ones(5, dtype=bool), np.ones((2, 3, 4), dtype=bool)])
def test_estimator_rejects_a_trace_that_is_not_a_matrix(trace):
    # a 1-D trace of T rounds would broadcast to a (T, T) estimate; the
    # weights reject it when called, before a block is asked for
    for call in (lambda: estimated_probs(trace), lambda: estimated_weight_blocks(trace, 5.0)):
        with pytest.raises(ValueError, match="rounds, clients"):
            call()


@pytest.mark.parametrize("cap", [1.0, 0.5, float("nan")])
def test_estimated_weights_reject_a_cap_when_called(cap):
    with pytest.raises(ValueError, match="weight_cap must be > 1"):
        estimated_weight_blocks(np.ones((3, 2), dtype=bool), cap)


@pytest.mark.parametrize("p", [0.2, 0.5])
def test_estimator_consistency(p):
    t = 200
    rng = np.random.default_rng(int(p * 1000))
    hits = 0
    trials = 1000
    tol = 3.0 * math.sqrt(p * (1.0 - p) / t)
    for _ in range(trials):
        counts = rng.binomial(t, p)
        p_hat = estimated_probs(column(np.arange(t) < counts))[-1, 0]
        if abs(p_hat - p) <= tol:
            hits += 1
    assert hits >= 0.99 * trials
