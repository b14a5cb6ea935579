"""Bernoulli participation schedules, statistics, and online estimation;
participation-trace files, and `write_csv`, the writer of every CSV file.

Each (client, round) indicator comes from its own counter-based Philox stream
keyed by (master_seed, client, round), so the realized schedule never changes
when an algorithm draws a different amount of randomness elsewhere. This is
what makes runs of different aggregation rules comparable on the same
participation trace.

The draws come from one numpy Philox4x64-10 kernel, `philox_uniforms`, which
gives the first double of `Generator(Philox(key)).random()` for every key of
a block of rounds at once. `sample_round` draws any number of rounds through
it, at most `TRACE_LANES` keyed draws a call; a run draws its whole trace
with one `sample_round` call.

A round's local noise comes from a Philox stream keyed the same way, with
`NOISE_WORD` in place of the client index (`key_word`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MASK64 = (1 << 64) - 1
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9

# The word that keys a round's local-noise stream where a participation key
# has a client index. No profile has 2^63 clients, and x -> x*B mod 2^64 is a
# bijection (B is odd), so under one master seed no noise key equals a
# participation key. An unstructured constant keeps the xor algebra of the
# mix from pairing small seeds: with the word 2^64 - 1, seed 1's noise key
# would be seed 2^64 - 1's key of client 1.
NOISE_WORD = 0xE7037ED1A0B428DB

# Rounds per array that `estimated_weight_blocks` yields. A block's float64
# rows take 8 * WEIGHT_BLOCK * N bytes, and a block of a few dozen rounds
# already spreads the per-call overhead of its numpy calls thin.
WEIGHT_BLOCK = 64

# Keyed draws per `philox_uniforms` call: `sample_round` draws a chunk of
# TRACE_LANES // (clients that draw) rounds a call. Each of the Philox
# kernel's uint64 temporaries holds one word per draw, so this bounds their
# size, while a chunk of a few thousand draws already spreads the kernel's
# per-call overhead thin.
TRACE_LANES = 4096


def key_word(master_seed: int, word: int) -> int:
    """The high word of a stream's Philox key, (master_seed*A ^ word*B) mod
    2^64; the key is this word << 64 | (round mod 2^64). `word` is a client
    index for a participation draw and `NOISE_WORD` for a round's noise."""
    return ((master_seed * _MIX_A) ^ (word * _MIX_B)) & _MASK64


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
        # written so that nan, which fails every comparison, is rejected too
        if not ((probs > 0) & (probs <= 1)).all():
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


# Philox4x64-10 (Salmon et al. 2011, as numpy implements it): the round
# multipliers and the key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhi(a: np.ndarray, m: int) -> np.ndarray:
    """The high 64 bits of the 128-bit product a * m, from 32-bit halves.
    uint64 arrays wrap silently, and no partial sum below overflows."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LO32, a >> _S32
    lo_lo, hi_lo, lo_hi = a_lo * m_lo, a_hi * m_lo, a_lo * m_hi
    carry = ((lo_lo >> _S32) + (hi_lo & _LO32) + (lo_hi & _LO32)) >> _S32
    return a_hi * m_hi + (hi_lo >> _S32) + (lo_hi >> _S32) + carry


def philox_uniforms(master_seed: int, clients, rounds: np.ndarray) -> np.ndarray:
    """The (len(rounds), len(clients)) matrix whose entry [j, c] is the first
    double of Generator(Philox(key)).random() for the stream key of
    (master_seed, clients[c], rounds[j]), bit for bit.

    The key is key_word(master_seed, client) << 64 | (round mod 2^64);
    `rounds` holds the rounds mod 2^64 as uint64. A fresh generator's first
    output is word 0 of the Philox block at counter 1, and its double is that
    word's top 53 bits times 2^-53.
    """
    k0 = np.asarray(rounds, dtype=np.uint64)[:, None]
    k1 = np.array([key_word(master_seed, c) for c in clients], dtype=np.uint64)
    # Round 1 on the counter (1, 0, 0, 0) multiplies only by 1 and 0, which
    # leaves (k0, 0, k1, M0).
    x0, x1, x2, x3 = k0, np.uint64(0), k1, np.uint64(_PHILOX_M[0])
    for _ in range(9):
        k0 = k0 + _PHILOX_W[0]
        k1 = k1 + _PHILOX_W[1]
        x0, x1, x2, x3 = (
            _mulhi(x2, _PHILOX_M[1]) ^ x1 ^ k0, x2 * np.uint64(_PHILOX_M[1]),
            _mulhi(x0, _PHILOX_M[0]) ^ x3 ^ k1, x0 * np.uint64(_PHILOX_M[0]),
        )
    return (x0 >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def sample_round(
    profile: ParticipationProfile, rnd: int, master_seed: int, n_rounds: int = 1,
) -> np.ndarray:
    """The (n_rounds, n_clients) indicator matrix of rounds rnd .. rnd +
    n_rounds - 1, from one `philox_uniforms` call per chunk of rounds (at
    most `TRACE_LANES` keyed draws); repeatable bit for bit.

    A client with p = 1 is present without a draw: every draw is at most
    1 - 2^-53 < 1, and no draw depends on another, so skipping it changes
    no indicator.
    """
    if rnd < 1:
        raise ValueError("round must be >= 1")
    present = np.ones((n_rounds, profile.n_clients), dtype=bool)
    drawn = np.flatnonzero(profile.probs < 1.0)
    if len(drawn):
        clients, probs = drawn.tolist(), profile.probs[drawn]
        chunk = max(1, TRACE_LANES // len(drawn))
        for j in range(0, n_rounds, chunk):
            k = min(chunk, n_rounds - j)
            # rounds mod 2^64; uint64 addition wraps past 2^64 - 1 as the key does
            rounds = np.uint64((rnd + j) & _MASK64) + np.arange(k, dtype=np.uint64)
            present[j:j + k, drawn] = philox_uniforms(master_seed, clients, rounds) < probs
    return present


def write_csv(path: str | Path, header: str, row_format: str, rows) -> None:
    """Write the `header` line, then the line `row_format % row` for each
    tuple of `rows`; each line ends in "\\n". printf-style formatting of a
    tuple costs less a row than an f-string, and %.17g gives the text of
    f"{x:.17g}"."""
    line = row_format + "\n"
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        f.writelines(map(line.__mod__, rows))


def export_trace_csv(schedule: np.ndarray, path: str | Path) -> None:
    rows = ((t, i, v) for t, row in enumerate(schedule, 1) for i, v in enumerate(row.tolist()))
    write_csv(path, "round,client_id,present", "%d,%d,%d", rows)


def load_trace_csv(path: str | Path) -> np.ndarray:
    """Read a trace as `export_trace_csv` writes it: a `round,client_id,present`
    header and one row per (round, client) cell of rounds 1..T and clients
    0..N-1, in any order, with `present` 0 or 1. Returns the (T, N) indicator
    matrix. A trace with any other row (a round below 1, a negative client,
    another `present` value, a repeated or a missing cell, a field too few or
    too many) raises ValueError; one without a header column raises KeyError.
    """
    cells: dict[tuple[int, int], bool] = {}
    with open(path, newline="") as f:
        for line, row in enumerate(csv.DictReader(f), start=2):
            fields = [row["round"], row["client_id"], row["present"]]
            if None in fields or None in row:
                raise ValueError(f"line {line} does not have one field per column")
            t, i, v = map(int, fields)
            if t < 1 or i < 0:
                raise ValueError(f"line {line}: round must be >= 1 and client_id >= 0")
            if v not in (0, 1):
                raise ValueError(f"line {line}: present must be 0 or 1, got {v}")
            if (t, i) in cells:
                raise ValueError(f"line {line} repeats round {t}, client {i}")
            cells[(t, i)] = bool(v)
    if not cells:
        raise ValueError(f"empty participation trace: {path}")
    t_max = max(t for t, _ in cells)
    n = max(i for _, i in cells) + 1
    out = np.zeros((t_max, n), dtype=bool)
    for (t, i), v in cells.items():
        out[t - 1, i] = v
    if len(cells) != out.size:
        t, i = next((t, i) for t in range(1, t_max + 1) for i in range(n) if (t, i) not in cells)
        raise ValueError(f"no row for round {t}, client {i}")
    return out


def _trace_matrix(trace) -> np.ndarray:
    trace = np.asarray(trace)
    if trace.ndim != 2:
        raise ValueError(f"a trace must be a (rounds, clients) matrix, got shape {trace.shape}")
    return trace


def estimated_probs(trace: np.ndarray) -> np.ndarray:
    """The online estimate of each client's participation probability after
    every round of a (rounds, N) trace: row t - 1 is max(c_i, 1)/t, where c_i
    counts client i's presences in rounds 1..t (floored at 1, so a client
    never seen gets 1/t, not 0)."""
    trace = _trace_matrix(trace)
    counts = np.cumsum(trace, axis=0)
    return np.maximum(counts, 1, out=counts) / np.arange(1, len(trace) + 1)[:, None]


def estimated_weight_blocks(trace: np.ndarray, cap: float):
    """The inverse of `estimated_probs(trace)`, capped at `cap`, as an
    iterator over (WEIGHT_BLOCK, N) arrays of consecutive rows (the last may
    be shorter). Row t - 1 of their concatenation holds the weights of round
    t. The cap and the trace's shape are checked when this is called, before
    any block is made.

    Each block comes from the running counts at its start, so the weights
    take O(WEIGHT_BLOCK * N) memory whatever the trace's length. The counts
    are integers, so every row has the bits of one computed from the whole
    trace.
    """
    if not cap > 1:   # nan fails this too
        raise ValueError(f"weight_cap must be > 1, got {cap}")
    return _weight_blocks(_trace_matrix(trace), cap, WEIGHT_BLOCK)


def _weight_blocks(trace: np.ndarray, cap: float, block: int):
    counts = np.zeros(trace.shape[1], dtype=np.int64)
    for t0 in range(0, len(trace), block):
        c = np.cumsum(trace[t0:t0 + block], axis=0)
        c += counts
        counts = c[-1].copy()
        weights = np.maximum(c, 1, out=c) / np.arange(t0 + 1, t0 + len(c) + 1)[:, None]
        np.divide(1.0, weights, out=weights)
        yield np.minimum(weights, cap, out=weights)
