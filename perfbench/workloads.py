"""The three acceptance workloads of the stalefl benchmark.

Each workload generates its inputs from the workload seed, runs one *pass*
(the timed section) through the package's public entry points, and checks
the pass's outputs with the acceptance criterion it reproduces. Seed 0
reproduces the acceptance-test seeds; any other seed shifts every seed the
workload hands to the program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

import stalefl.cli
import stalefl.engine
import stalefl.theory
from stalefl.aggregation import AggregatorConfig
from stalefl.local_solver import LocalConfig
from stalefl.participation import ParticipationProfile


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


@dataclass
class PassResult:
    rounds: int                       # engine rounds the pass ran
    values: dict = field(default_factory=dict)
    harness_files: tuple[str, ...] = ()   # files under out/ written by the benchmark


def _cli(argv: list[str]) -> str:
    """Run the stalefl CLI in-process and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = stalefl.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"stalefl {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _all_finite_csv(path: Path) -> bool:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    return all(math.isfinite(float(v)) for row in rows for v in row)


class Workload:
    """One benchmark workload; BENCHMARK.json records why each is included."""

    name = ""
    threads = 1          # --threads the timed pass runs with
    per_round_metrics = 3   # values engine.run computes per round: loss, grad_norm_sq, H

    def __init__(self, work: Path, seed: int, smoke: bool):
        if seed < 0:
            raise ValueError("the workload seed must be >= 0")
        self.work = work
        self.seed = seed
        self.smoke = smoke

    def setup_builds(self) -> list[tuple[str, list[str]]]:
        """(config, --set overrides) pairs whose objective the set-up probe builds."""
        raise NotImplementedError

    def run_pass(self, out: Path, threads: int) -> PassResult:
        raise NotImplementedError

    def export(self, out: Path, result: PassResult) -> None:
        """Write what the pass returned in memory; runs outside the timed section."""

    def checks(self, out: Path, result: PassResult) -> list[Check]:
        raise NotImplementedError

    def useful_metric_values(self, out: Path, result: PassResult) -> int:
        """Per-round metric values of the pass that reach an output."""
        raise NotImplementedError


QUAD_CONFIG = """\
[objective]
kind = quadratic2d
centers = 5,0; 0,5
hessians = 1,0.5; 0.5,1

[participation]
kind = explicit
n_clients = 2
probs = 1, 0.01

[local]
local_steps = 5
client_lr = 0.0025
batch_size = 1

[aggregator]
rule = u_fedavg
beta = 0

[run]
rounds = {rounds}
server_lr = 1.0
master_seed = {seed0}
init = -10,-10
"""


class QuadRepeat(Workload):
    """Criterion 3 as a user runs it: `stalefl repeat --comparability` for
    u_fedavg, u_fedvarp and fedstale(beta=0.8) on the two-client quadratic."""

    name = "quad_repeat"
    RULES = (("u_fedavg", 0.0), ("u_fedvarp", 1.0), ("fedstale", 0.8))
    HESSIANS = (np.diag([1.0, 0.5]), np.diag([0.5, 1.0]))
    CENTERS = (np.array([5.0, 0.0]), np.array([0.0, 5.0]))
    W0 = np.array([-10.0, -10.0])

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed, smoke)
        self.rounds = 300 if smoke else 4000
        self.seeds = [seed + 1]
        self.config = work / "quad_repeat.ini"
        self.config.write_text(QUAD_CONFIG.format(rounds=self.rounds, seed0=self.seeds[0]))

    def setup_builds(self):
        return [(str(self.config), [])]

    def run_pass(self, out, threads):
        finals = {}
        for rule, beta in self.RULES:
            printed = _cli([
                "repeat", "--config", str(self.config), "--out", str(out / rule),
                "--seeds", ",".join(map(str, self.seeds)), "--comparability",
                "--set", f"aggregator.rule={rule}", "--set", f"aggregator.beta={beta}",
            ])
            finals[rule] = float(printed.split("mean_final_loss=", 1)[1].split()[0])
        return PassResult(len(self.RULES) * len(self.seeds) * self.rounds, {"finals": finals})

    def useful_metric_values(self, out, result):
        # metrics_seed*.csv holds loss, grad_norm_sq and H of every round
        rows = 0
        for path in out.glob("*/metrics_seed*.csv"):
            with open(path) as f:
                rows += sum(1 for _ in f) - 1
        return rows * self.per_round_metrics

    def _reference_losses(self) -> tuple[float, float]:
        """F(w0) and F* of the quadratic, computed without the package."""
        def f(w):
            return float(np.mean([
                0.5 * (w - c) @ a @ (w - c) for a, c in zip(self.HESSIANS, self.CENTERS)
            ]))
        w_star = np.linalg.solve(sum(self.HESSIANS),
                                 sum(a @ c for a, c in zip(self.HESSIANS, self.CENTERS)))
        return f(self.W0), f(w_star)

    def checks(self, out, result):
        f_init, f_star = self._reference_losses()
        finals = result.values["finals"]
        files = sorted(out.glob("*/*.csv"))
        expected_files = len(self.RULES) * (len(self.seeds) + 1)
        out_checks = [
            Check("files_written", len(files) == expected_files,
                  f"{len(files)} CSV files, expected {expected_files}"),
            Check("exported_numbers_finite", all(_all_finite_csv(p) for p in files),
                  "every number in metrics_seed*.csv and mean_curve.csv is finite"),
        ]
        limit = f_star + 0.1 * (f_init - f_star)
        for rule, _ in self.RULES:
            out_checks.append(Check(
                f"c3_converged.{rule}", finals[rule] < limit,
                f"mean final loss {finals[rule]:.6g} < {limit:.6g}",
            ))
        best_other = min(finals["u_fedavg"], finals["u_fedvarp"])
        out_checks.append(Check(
            "c3_fedstale_competitive", finals["fedstale"] <= 1.1 * best_other,
            f"fedstale {finals['fedstale']:.6g} <= 1.1 x {best_other:.6g}",
        ))
        return out_checks


GRID_CONFIG = """\
[objective]
kind = softmax
n_clients = 24
samples_per_client = 50
swap_fraction = 0
class_a = 0
class_b = 1
feature_dim = 10
class_count = 10
holdout_fraction = 0.4
data_seed = {data_seed}
cluster_std = 1.0

[participation]
kind = two_group
n_clients = 24
p_min_group = {p_low!r}
group2_size = 12
seed = 0

[local]
local_steps = 5
client_lr = 0.03
batch_size = 5

[aggregator]
rule = fedstale

[run]
rounds = 10
server_lr = 1.0
master_seed = 0

[grid]
ratios = {ratio!r}
swap_fractions = {swaps}
betas = 0, 0.2, 0.5, 0.8, 1
seeds = {grid_seed}
metric = accuracy
"""


class SoftmaxGrid(Workload):
    """A slice of the criterion-9 grid through `stalefl grid --threads 2`:
    one participation ratio and two swap fractions, so both cells cost the
    same and each of the two grid workers gets one."""

    name = "softmax_grid"
    threads = 2
    BETAS = 5

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed, smoke)
        self.ratio = 1.5 if smoke else 3.0
        self.swaps = (0.66, 1.0)
        self.config = work / "softmax_grid.ini"
        self.config.write_text(GRID_CONFIG.format(
            data_seed=1 + seed, grid_seed=1 + seed, ratio=self.ratio,
            p_low=stalefl.engine.two_group_prob_for_ratio(self.ratio),
            swaps=", ".join(map(repr, self.swaps)),
        ))
        self.rounds_per_run = stalefl.engine.horizon_for(
            stalefl.engine.two_group_prob_for_ratio(self.ratio))

    def setup_builds(self):
        return [(str(self.config), [f"objective.swap_fraction={s!r}"]) for s in self.swaps]

    def run_pass(self, out, threads):
        _cli(["grid", "--config", str(self.config), "--out", str(out),
              "--threads", str(threads)])
        return PassResult(len(self.swaps) * self.BETAS * self.rounds_per_run)

    def useful_metric_values(self, out, result):
        return 0   # grid.csv holds only final test accuracies

    def checks(self, out, result):
        with open(out / "grid.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        n_cells = len(self.swaps)
        flags: dict[tuple[str, str], int] = {}
        for r in rows:
            key = (r["ratio"], r["swap_fraction"])
            flags[key] = flags.get(key, 0) + int(r["beta_opt_flag"])
        accs = [float(r["metric_mean"]) for r in rows]
        stderrs = [float(r["metric_stderr"]) for r in rows]
        return [
            Check("one_row_per_cell_beta", len(rows) == n_cells * self.BETAS,
                  f"{len(rows)} rows for {n_cells} cells x {self.BETAS} betas"),
            Check("one_beta_opt_per_cell",
                  len(flags) == n_cells and all(v == 1 for v in flags.values()),
                  f"beta_opt flags per cell: {sorted(flags.values())}"),
            Check("accuracy_in_unit_interval", all(0.0 <= a <= 1.0 for a in accs),
                  f"accuracies in [{min(accs):.4f}, {max(accs):.4f}]"),
            Check("exported_numbers_finite",
                  all(math.isfinite(v) for v in accs + stderrs),
                  "metric_mean and metric_stderr are finite"),
        ]


class HardLowerBound(Workload):
    """The lower-bound pipeline: criterion 7's sweep of 100-round runs on the
    d=201 hard instance (engine.run called directly), then criterion 6's
    frontier expectation over sampled participation schedules."""

    name = "hard_lowerbound"
    DIM, HORIZON, ROUNDS = 201, 100, 100
    P_MIN = 0.1
    BETAS = (0.0, 1.0)
    FRONTIER_P = (0.1, 0.25)
    FRONTIER_T = (50, 200)

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed, smoke)
        n_seeds, self.n_schedules = (4, 100) if smoke else (50, 2500)
        self.seeds = [n_seeds * seed + j for j in range(n_seeds)]
        self.config = work / "hard_lowerbound.ini"
        self.config.write_text(
            "[objective]\nkind = hard_instance\n"
            f"dim = {self.DIM}\nhorizon = {self.HORIZON}\nsmoothness = 1.0\n\n"
            f"[participation]\nkind = explicit\nn_clients = 2\nprobs = 1, {self.P_MIN!r}\n"
        )

    def setup_builds(self):
        return [(str(self.config), [])]

    def run_pass(self, out, threads):
        inst = stalefl.theory.HardInstance(self.DIM, self.HORIZON, 1.0, 2)
        profile = ParticipationProfile(np.array([1.0, self.P_MIN]))
        grads = {}
        for beta in self.BETAS:
            curves = np.empty((len(self.seeds), self.ROUNDS))
            for row, s in enumerate(self.seeds):
                cfg = stalefl.engine.TrainConfig(
                    self.ROUNDS, 0.01, LocalConfig(1, 0.1),
                    AggregatorConfig(rule="fedstale", beta=beta),
                    profile, s, np.zeros(self.DIM),
                )
                curves[row] = stalefl.engine.run(cfg, inst).grad_curve()
            grads[beta] = curves
        envelope = stalefl.theory.lower_bound_curve(self.P_MIN, self.ROUNDS, inst.f_gap(), 1.0)

        rng = np.random.default_rng(606 + self.seed)
        frontier = {}
        for p in self.FRONTIER_P:
            for t_max in self.FRONTIER_T:
                draws = rng.random((self.n_schedules, t_max)) < p
                finals = np.empty(self.n_schedules)
                for s in range(self.n_schedules):
                    sched = np.ones((t_max, 2), dtype=bool)
                    sched[:, 1] = draws[s]
                    finals[s] = stalefl.theory.track_frontier(inst, sched)[-1]
                frontier[(p, t_max)] = (finals, stalefl.theory.expected_frontier_cap(p, t_max))
        return PassResult(
            rounds=len(self.BETAS) * len(self.seeds) * self.ROUNDS,
            values={"grads": grads, "envelope": envelope, "frontier": frontier},
            harness_files=("sweep.csv", "frontier.csv"),
        )

    def useful_metric_values(self, out, result):
        return result.rounds   # the sweep reads grad_norm_sq of every round

    def export(self, out, result):
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.csv", "w") as f:
            f.write("beta,seed,round,grad_norm_sq\n")
            for beta, curves in result.values["grads"].items():
                for s, curve in zip(self.seeds, curves):
                    f.writelines(f"{beta!r},{s},{t},{g:.17g}\n" for t, g in enumerate(curve, 1))
        with open(out / "frontier.csv", "w") as f:
            f.write("p,t,schedule,final_frontier\n")
            for (p, t_max), (finals, _) in result.values["frontier"].items():
                f.writelines(f"{p!r},{t_max},{s},{int(k)}\n" for s, k in enumerate(finals))

    def checks(self, out, result):
        env = result.values["envelope"]
        out_checks = []
        for beta, curves in result.values["grads"].items():
            # records[t-1] holds the gradient at the iterate after t-1 updates
            mean_min = np.minimum.accumulate(curves, axis=1).mean(axis=0)
            margin = float(np.min(mean_min / env[: self.ROUNDS]))
            out_checks.append(Check(
                f"c7_dominance.beta{beta:g}", bool(np.all(mean_min >= env[: self.ROUNDS])),
                f"min over t of mean running-min grad / envelope = {margin:.3g}",
            ))
        for (p, t_max), (finals, cap) in result.values["frontier"].items():
            se = finals.std(ddof=1) / math.sqrt(len(finals))
            out_checks.append(Check(
                f"c6_frontier_cap.p{p:g}.t{t_max}", bool(finals.mean() <= cap + 3.0 * se),
                f"mean frontier {finals.mean():.4f} <= cap {cap:.4f} + 3 x {se:.4f}",
            ))
        return out_checks


WORKLOADS = {w.name: w for w in (QuadRepeat, SoftmaxGrid, HardLowerBound)}
