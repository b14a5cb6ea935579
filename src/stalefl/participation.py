"""Bernoulli participation schedules, statistics, and online estimation.

Each (client, round) indicator comes from its own counter-based Philox stream
keyed by (master_seed, client, round), so the realized schedule never changes
when an algorithm draws a different amount of randomness elsewhere. This is
what makes runs of different aggregation rules comparable on the same
participation trace.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_MASK64 = (1 << 64) - 1
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9


@dataclass(frozen=True)
class ParticipationStats:
    p_var: float   # (1/N sum (1-p_i)/p_i)^-1, +inf under full participation
    p_avg: float
    p_min: float


@dataclass(frozen=True)
class ParticipationProfile:
    probs: np.ndarray
    group2: tuple[int, ...] | None = None   # low-participation client indices

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or len(probs) == 0:
            raise ValueError("probs must be a nonempty 1-D vector")
        if np.any(probs <= 0) or np.any(probs > 1):
            raise ValueError("every participation probability must lie in (0, 1]")
        object.__setattr__(self, "probs", probs)

    @property
    def n_clients(self) -> int:
        return len(self.probs)

    def stats(self) -> ParticipationStats:
        p = self.probs
        mean_ratio = float(np.mean((1.0 - p) / p))
        p_var = math.inf if mean_ratio == 0.0 else 1.0 / mean_ratio
        return ParticipationStats(p_var, float(np.mean(p)), float(np.min(p)))


@dataclass(frozen=True)
class RoundParticipation:
    round: int
    present: np.ndarray   # boolean indicator per client

    def participants(self) -> np.ndarray:
        return np.nonzero(self.present)[0]


def make_two_group_profile(
    n_clients: int,
    p_min_group: float,
    group2_size: int,
    seed: int = 0,
) -> ParticipationProfile:
    """Group 1 always participates (p=1); group 2 gets p_min_group.

    Group membership is assigned by a seeded shuffle.
    """
    if not 0 < p_min_group <= 1:
        raise ValueError("p_min_group must lie in (0, 1]")
    if not 0 < group2_size < n_clients:
        raise ValueError("group2_size must lie in (0, n_clients)")
    order = np.random.default_rng(seed).permutation(n_clients)
    group2 = np.sort(order[:group2_size])
    probs = np.ones(n_clients)
    probs[group2] = p_min_group
    return ParticipationProfile(probs, tuple(int(i) for i in group2))


@functools.cache
def _rekeyed_philox() -> tuple[np.random.Philox, dict, np.ndarray]:
    """The one Philox bit generator that every draw re-keys, with its state
    dict and that dict's key array.

    Building a fresh Generator(Philox(key)) per draw costs several times
    more. Each draw overwrites the whole state (key, zero counter, empty
    buffer), so no draw depends on an earlier one. Rounds run on one thread
    per process (grid cells run in forked processes), so no two draws
    interleave. It is made on first use: importing numpy.random costs
    importing stalefl about 20 ms.
    """
    bitgen = np.random.Philox(key=0)
    state = bitgen.state   # counter 0, empty buffer
    return bitgen, state, state["state"]["key"]


def _stream_uniform(master_seed: int, client: int, rnd: int) -> float:
    """The first double of Generator(Philox(key)).random() for the
    (master_seed, client, rnd) key, from the re-keyed Philox."""
    bitgen, state, key = _rekeyed_philox()
    # key words little-endian: key = hi << 64 | (rnd mod 2^64)
    key[0] = rnd & _MASK64
    key[1] = ((master_seed * _MIX_A) ^ (client * _MIX_B)) & _MASK64
    bitgen.state = state
    # numpy's double: the top 53 bits of the next 64-bit output, scaled.
    return (bitgen.random_raw() >> 11) * (1.0 / 9007199254740992.0)


def sample_round(profile: ParticipationProfile, rnd: int, master_seed: int) -> RoundParticipation:
    """Draw the round-`rnd` indicator vector; repeatable bit-for-bit."""
    if rnd < 1:
        raise ValueError("round must be >= 1")
    present = np.array([
        _stream_uniform(master_seed, i, rnd) < p for i, p in enumerate(profile.probs.tolist())
    ], dtype=bool)
    return RoundParticipation(rnd, present)


def sample_schedule(
    profile: ParticipationProfile, rounds: int, master_seed: int
) -> np.ndarray:
    """Full (rounds, n_clients) boolean schedule, identical to per-round sampling."""
    out = np.empty((rounds, profile.n_clients), dtype=bool)
    for t in range(1, rounds + 1):
        out[t - 1] = sample_round(profile, t, master_seed).present
    return out


def export_trace_csv(schedule: np.ndarray, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        wr = csv.writer(f, lineterminator="\n")
        wr.writerow(["round", "client_id", "present"])
        for t in range(schedule.shape[0]):
            for i in range(schedule.shape[1]):
                wr.writerow([t + 1, i, int(schedule[t, i])])


def load_trace_csv(path: str | Path) -> np.ndarray:
    rows: dict[tuple[int, int], bool] = {}
    with open(path, newline="") as f:
        rd = csv.DictReader(f)
        for row in rd:
            rows[(int(row["round"]), int(row["client_id"]))] = bool(int(row["present"]))
    if not rows:
        raise ValueError(f"empty participation trace: {path}")
    t_max = max(t for t, _ in rows)
    n = max(i for _, i in rows) + 1
    out = np.zeros((t_max, n), dtype=bool)
    for (t, i), v in rows.items():
        out[t - 1, i] = v
    return out


@dataclass
class ProbabilityEstimator:
    """Running per-client participation counts with a capped inverse weight."""

    n_clients: int
    weight_cap: float
    counts: np.ndarray = field(init=False)
    rounds_seen: int = field(init=False, default=0)

    def __post_init__(self):
        if self.weight_cap <= 1:
            raise ValueError("weight_cap must be > 1")
        self.counts = np.zeros(self.n_clients, dtype=np.int64)

    def update(self, rp: RoundParticipation) -> "ProbabilityEstimator":
        if rp.round != self.rounds_seen + 1:
            raise ValueError(
                f"out-of-order round {rp.round}; expected {self.rounds_seen + 1}"
            )
        self.counts += rp.present
        self.rounds_seen += 1
        return self

    def estimated_prob(self, client: int) -> float:
        if self.rounds_seen < 1:
            raise ValueError("no rounds observed yet")
        return max(int(self.counts[client]), 1) / self.rounds_seen

    def weights(self) -> np.ndarray:
        if self.rounds_seen < 1:
            raise ValueError("no rounds observed yet")
        p_hat = np.maximum(self.counts, 1) / self.rounds_seen
        return np.minimum(1.0 / p_hat, self.weight_cap)


def inverse_prob_weights(profile: ParticipationProfile) -> np.ndarray:
    return 1.0 / profile.probs
