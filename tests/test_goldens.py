"""Golden outputs: the sha256 of CLI output files from fixed configs.

A refactor must leave every one of these files byte-identical. A change that
alters them on purpose (a new floating-point summation order, a new RNG
stream, a new output format) re-baselines the affected hashes here and says
why in CHANGES.md.
"""

import hashlib

import pytest
from test_acceptance import GRID_CONFIG, RUN_CONFIG

from stalefl import aggregation
from stalefl.cli import main

# Criterion 3's quadratic, shortened to 300 rounds and two seeds.
QUAD_REPEAT_CONFIG = """\
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

[run]
rounds = 300
server_lr = 1.0
master_seed = 1
init = -10,-10
"""

# Noisy oracle, estimated weights, and rounds in which no client takes part.
NOISY_ESTIMATOR_CONFIG = """\
[objective]
kind = quadratic2d
centers = 5,0; 0,5
hessians = 1,0.5; 0.5,1
noise_var = 0.5

[participation]
kind = explicit
n_clients = 2
probs = 0.6, 0.3

[local]
local_steps = 5
client_lr = 0.02
batch_size = 1

[aggregator]
rule = u_fedavg
weights_source = estimator

[run]
rounds = 60
server_lr = 1.0
master_seed = 3
init = -10,-10
"""

THEORY_CONFIG = """\
[local]
local_steps = 5
client_lr = 0.002

[run]
rounds = 500
server_lr = 0.5

[theory]
smoothness = 2
sigma_sq = 1.5
sg_sq = 4
p_var = 0.5
p_avg = 0.4
p_min = 0.1
n_clients = 10
h_init = 0.3
betas = 0, 0.1, 0.5, 0.9, 1
"""

LOWERBOUND_CONFIG = """\
[lowerbound]
dim = 201
horizon = 100
smoothness = 1
taus = 2, 3, 5, 10
rounds = 150
"""

# Criterion 11's grid scored by final loss, with the client lr tuned per beta.
GRID_LOSS_CONFIG = (
    GRID_CONFIG.replace("ratios = 1, 3", "ratios = 3, 10")
    .replace("swap_fractions = 0, 0.5", "swap_fractions = 0.5")
    .replace("metric = accuracy", "metric = loss\nclient_lr_grid = 0.02, 0.05")
)

# The same grid on four clients: its rounds have 2, 3 or 4 participants,
# on both sides of aggregation.REDUCE_FROM.
GRID_FOUR_CLIENTS_CONFIG = GRID_LOSS_CONFIG.replace("n_clients = 8", "n_clients = 4")

# The d=201 hard instance: an exact oracle and banded (tridiagonal) per-client
# products. Its two metrics.csv hashes were re-taken when dense matvecs gave
# way to the banded products: only loss and grad_norm_sq moved, in the last
# bits (at most 7.4e-16 relative).
HARD_RUN_CONFIG = """\
[objective]
kind = hard_instance
dim = 201
horizon = 100
smoothness = 1

[participation]
kind = explicit
n_clients = 2
probs = 1, 0.25

[local]
local_steps = 2
client_lr = 0.1
batch_size = 1

[aggregator]
rule = fedstale
beta = 0.5

[run]
rounds = 60
server_lr = 0.5
master_seed = 4
"""

# Softmax with per-round metrics: 8 clients of 15 training samples.
SOFTMAX_RUN_CONFIG = """\
[objective]
kind = softmax
n_clients = 8
samples_per_client = 20
class_count = 4
feature_dim = 3
holdout_fraction = 0.25
data_seed = 2
swap_fraction = 0.5

[participation]
n_clients = 8
p_min_group = 0.3
group2_size = 4

[local]
local_steps = 2
client_lr = 0.05
batch_size = 5

[aggregator]
rule = fedstale
beta = 0.5

[run]
rounds = 150
server_lr = 1.0
master_seed = 5
"""

REPEAT_ARGS = ("--seeds", "1,2", "--comparability")

# name: (subcommand, config, extra arguments, {output file: sha256})
CASES = {
    "run": ("run", RUN_CONFIG, (), {
        "metrics.csv": "9c08caf8797d6f522d9695e52df76aac07e2ac509eb2217eb4305ca4ae1caabf",
    }),
    "run_noisy_estimator": ("run", NOISY_ESTIMATOR_CONFIG, (), {
        "metrics.csv": "35493f7211d1cfc3124af5e7839385758139a44f66d3405f7a0c7e007d7d044e",
        "trace.csv": "09059dfe1946822bc3654b7525243193c104d8b3d85d357608f040198cc0e5c8",
    }),
    # Runs whose per-round metrics span several blocks of engine.METRIC_BLOCK
    # rounds; hashed before metrics were evaluated per block.
    "run_noisy_estimator_1000_rounds": (
        "run", NOISY_ESTIMATOR_CONFIG.replace("rounds = 60", "rounds = 1000"), (), {
            "metrics.csv": "9fdc56d486dfd61e5b65f66bd98b018a58c3b031d0cfa1db143e38944fd73da8",
            "trace.csv": "71a082e03b6ff439cd875608a28f4645acf8a949e1414006331f143c50d08b13",
        },
    ),
    "run_hard_instance_150_rounds": (
        "run", HARD_RUN_CONFIG.replace("rounds = 60", "rounds = 150"), (), {
            "metrics.csv": "786bc24b7c42bcf2ab833347b5913ec2482134e8e372e3449e7f9ed1b3ca22c9",
        },
    ),
    "run_softmax": ("run", SOFTMAX_RUN_CONFIG, (), {
        "metrics.csv": "3a59fc6d2b7e7d0f5546ede86270c3ed696a0bbd30c7a18a9e7b9c86ef42ef95",
    }),
    "repeat_u_fedavg": (
        "repeat", QUAD_REPEAT_CONFIG + "\n[aggregator]\nrule = u_fedavg\n", REPEAT_ARGS, {
            "metrics_seed1.csv": "949f2736fef94f079477f287ddd8d36f33bc3e577f84eae7ffa19a937d3a16b0",
            "metrics_seed2.csv": "887e8cfe83ed7f85244263108a4953e3779787749d09879182171e8f855c093b",
            "mean_curve.csv": "43fd49bfbc7d60f2bde7b5cad960f58354e370f528bd49a9d6a1a74de461de27",
        },
    ),
    "repeat_u_fedvarp": (
        "repeat", QUAD_REPEAT_CONFIG + "\n[aggregator]\nrule = u_fedvarp\n", REPEAT_ARGS, {
            "metrics_seed1.csv": "cf109c73578cc298c87f9c632e0d39353a9d6c8d4aa7a6cd1c6b93c1a58a394e",
            "metrics_seed2.csv": "e2c0f00e46b7c35a4de56b75d1e15a5987b9494f966372772dd8135d2a367f35",
            "mean_curve.csv": "610378c3978eed7ea6670ee0ba6c18b8395b5a7cc82170f7581208681159b0b8",
        },
    ),
    "repeat_fedstale": (
        "repeat", QUAD_REPEAT_CONFIG + "\n[aggregator]\nrule = fedstale\nbeta = 0.8\n",
        REPEAT_ARGS, {
            "metrics_seed1.csv": "eb23ebe200e6ae882623d3e18e74821315562260acf768150e8590ef59b18158",
            "metrics_seed2.csv": "b846fd4ede42f490a14f154e32146cc165ceaa891ecbd7516ba2f6fd925df1aa",
            "mean_curve.csv": "be39e4a34894d5d830ebb75bc63b51953a1aa023bda2b2a46c7fd44d83b554cb",
        },
    ),
    "grid": ("grid", GRID_CONFIG, ("--threads", "1"), {
        "grid.csv": "6d76741fc6b566f38b2f1ab1e44af8bb3f7d95ca4f64ec27974270775745d0c6",
    }),
    "grid_loss_lr_grid": ("grid", GRID_LOSS_CONFIG, ("--threads", "1"), {
        "grid.csv": "93089fe2354f0a7645555bdaf89a8bafd8b1af18a02b37c93526288335d99ba1",
    }),
    "grid_four_clients": ("grid", GRID_FOUR_CLIENTS_CONFIG, ("--threads", "1"), {
        "grid.csv": "03fe96ff6d0068b541ac1eca191f33a04ce08db33124b77f1b7ba1510c2f58bc",
    }),
    "run_hard_instance": ("run", HARD_RUN_CONFIG, (), {
        "metrics.csv": "fef719badafd9373e2b80ddfe93eeb5d7551d32ab1a2948adb983a8bb8352628",
    }),
    "theory": ("theory", THEORY_CONFIG, (), {
        "theory.csv": "c85a3be180ee7e719d481bbdb4fad9068f512cb0dc02bba91bfcc36ee1541ff1",
    }),
    "lowerbound": ("lowerbound", LOWERBOUND_CONFIG, (), {
        "frontier.csv": "42f4c9fbeb537bb77cdee85f88393c673625293edbdcb04593609e03c14cdf77",
        "envelope.csv": "6e1fe55c5dc143cb31eff30c69bdc884e44491704433bd5c23cb931513b4fa10",
    }),
}

# The grid goldens again with cells fanned out to 2 and 3 processes, pinned
# to the same hashes.
CASES |= {
    f"{name}_threads_{threads}": (*CASES[name][:2], ("--threads", threads), CASES[name][3])
    for name in ("grid", "grid_loss_lr_grid", "grid_four_clients")
    for threads in ("2", "3")
}


def output_hashes(tmp_path, name):
    command, config, extra, pinned = CASES[name]
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in pinned}


@pytest.mark.parametrize("name", list(CASES))
def test_golden_outputs_unchanged(tmp_path, name):
    pinned = CASES[name][3]
    changed = {
        f: digest for f, digest in output_hashes(tmp_path, name).items()
        if digest != pinned[f]
    }
    assert not changed, (
        f"the bits of {name}'s {sorted(changed)} changed (new sha256: {changed}). "
        "Refactors must keep golden outputs byte-identical; a deliberate change "
        "re-baselines these hashes and records why in CHANGES.md."
    )


def test_a_grid_golden_pins_both_participant_forms(tmp_path, monkeypatch):
    # The four-client grid golden's rounds take both forms of fedstale and
    # the memory refresh, the loop and the reduce, on a stack of configs
    # with per-row betas and lrs, so a later move of the crossover that
    # leaves a form unpinned by this golden fails here.
    forms = set()
    reduces = aggregation._reduces

    def recorded(clients, deltas):
        reduce = reduces(clients, deltas)
        if clients:
            forms.add(reduce)
        return reduce

    monkeypatch.setattr(aggregation, "_reduces", recorded)
    assert output_hashes(tmp_path, "grid_four_clients") == CASES["grid_four_clients"][3]
    assert forms == {False, True}
