import json
import re

import numpy as np
import pytest

from stalefl import cli
from stalefl.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
)

MINIMAL = """\
[objective]
kind = quadratic2d

[aggregator]
rule = fedstale
beta = 0.5
"""

QUAD_RUN = """\
[objective]
kind = quadratic2d
centers = 5,0; 0,5
hessians = 1,0.5; 0.5,1

[participation]
n_clients = 2
p_min_group = 0.5
group2_size = 1

[local]
local_steps = 5
client_lr = 0.02
batch_size = 1

[aggregator]
rule = fedstale
beta = 0.5

[run]
rounds = 30
server_lr = 1.0
master_seed = 3
init = -10,-10
"""

GRID_SMALL = """\
[objective]
kind = softmax
n_clients = 4
samples_per_client = 20
class_count = 3
feature_dim = 2
holdout_fraction = 0.2
data_seed = 1

[participation]
n_clients = 4

[local]
local_steps = 2
client_lr = 0.05
batch_size = 4

[run]
server_lr = 1.0

[grid]
ratios = 1, 3
swap_fractions = 0, 0.5
betas = 0, 1
seeds = 1
metric = accuracy
"""

THEORY = """\
[local]
local_steps = 5
client_lr = 0.02

[run]
rounds = 100
server_lr = 0.1

[theory]
smoothness = 1
sigma_sq = 1
sg_sq = 4
p_var = 0.5
p_avg = 0.6
p_min = 0.2
n_clients = 4
"""

LOWERBOUND = """\
[lowerbound]
dim = 201
horizon = 100
smoothness = 1
taus = 2,3,4,5,6,7,8,9,10
rounds = 100
p_min = 0.1
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_valid_with_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg["aggregator"]["rule"] == "fedstale"
    assert cfg["run"]["rounds"] == 100  # documented default
    assert cfg["local"]["local_steps"] == 5


def test_bad_beta_rejected_with_key_name(tmp_path, capsys):
    path = write(tmp_path, MINIMAL.replace("beta = 0.5", "beta = 1.5"))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "beta" in capsys.readouterr().err


def test_unknown_key_and_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="aggregator.momentum"):
        load_config(write(tmp_path, MINIMAL + "momentum = 0.9\n"))
    with pytest.raises(ConfigError, match="plotting"):
        load_config(write(tmp_path, MINIMAL + "\n[plotting]\nstyle = ggplot\n"))


def test_json_config_equivalent(tmp_path):
    ini = load_config(write(tmp_path, MINIMAL))
    js = write(tmp_path, '{"aggregator": {"rule": "fedstale", "beta": 0.5}}', "c.json")
    assert load_config(js) == ini | {"objective": load_config(js)["objective"]}


def test_json_arrays_give_list_keys(tmp_path):
    js = write(tmp_path, json.dumps({"lowerbound": {
        "dim": 201, "horizon": 100, "smoothness": 1, "taus": [2, 3, 5], "rounds": 40,
    }}), "lb.json")
    ini = write(tmp_path, "[lowerbound]\ndim = 201\nhorizon = 100\nsmoothness = 1\n"
                "taus = 2, 3, 5\nrounds = 40\n")
    for name, path in (("js", js), ("ini", ini)):
        assert main(["lowerbound", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    frontier = (tmp_path / "js" / "frontier.csv").read_bytes()
    assert frontier == (tmp_path / "ini" / "frontier.csv").read_bytes()
    assert {row.split(b",")[0] for row in frontier.splitlines()[1:]} == {b"2", b"3", b"5"}
    rows = write(tmp_path, json.dumps({"objective": {"centers": [[5, 0], [0, 5.5]]}}), "c.json")
    assert load_config(rows)["objective"]["centers"] == ((5.0, 0.0), (0.0, 5.5))


def test_set_override_supersedes_and_is_echoed(tmp_path):
    path = write(tmp_path, QUAD_RUN)
    out = tmp_path / "out"
    code = main([
        "run", "--config", str(path), "--out", str(out),
        "--set", "beta=0.8", "--set", "run.rounds=10",
    ])
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "beta = 0.8" in manifest
    assert "rounds = 10" in manifest
    assert len((out / "metrics.csv").read_text().splitlines()) == 11


# name: (subcommand, config text, extra arguments of the first run only)
MANIFEST_RERUNS = {
    "run": ("run", QUAD_RUN, []),
    "repeat": ("repeat", QUAD_RUN, ["--seeds", "2,3"]),
    "grid": (
        "grid", GRID_SMALL.replace("betas = 0, 1", "betas = 0, 0.3, 1")
        + "client_lr_grid = 0.05, 1e-1\n", ["--seeds", "2", "--threads", "1"],
    ),
    "theory": ("theory", THEORY + "betas = 0, 0.10, 1\nh_init = 0.3\n", []),
    "theory_rounds": (
        "theory", THEORY.replace("p_var = 0.5", "p_var = inf") + "rounds = 50\n", [],
    ),
    "lowerbound": (
        "lowerbound", LOWERBOUND.replace("taus = 2,3,4,5,6,7,8,9,10", "taus = 2, 5"), [],
    ),
}


@pytest.mark.parametrize("name", list(MANIFEST_RERUNS))
def test_manifest_rerun_byte_identical(tmp_path, name):
    command, text, extra = MANIFEST_RERUNS[name]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    path = write(tmp_path, text)
    assert main([command, "--config", str(path), "--out", str(out1), *extra]) == 0
    assert main([command, "--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files == sorted(p.name for p in out2.iterdir())
    for f in files:   # manifest.txt included: it reproduces itself
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f


def test_replay_reproduces_run(tmp_path):
    path = write(tmp_path, QUAD_RUN)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert main([
        "replay", "--config", str(path), "--out", str(out2),
        "--trace", str(out1 / "trace.csv"),
    ]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_nonempty_outdir_requires_force(tmp_path):
    path = write(tmp_path, QUAD_RUN)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert main(["run", "--config", str(path), "--out", str(out), "--force"]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_exit_code_and_failed_sentinel(tmp_path, capsys):
    path = write(tmp_path, QUAD_RUN.replace("client_lr = 0.02", "client_lr = 50.0")
                 .replace("rounds = 30", "rounds = 500"))
    out = tmp_path / "o"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == EXIT_DIVERGENCE
    assert (out / "FAILED").exists()
    assert not (out / "metrics.csv").exists()


# The iterate stays finite, but the loss overflows from round 216 on.
METRIC_OVERFLOW_RUN = """\
[objective]
kind = quadratic2d
centers = 5,0; 0,5

[participation]
kind = explicit
n_clients = 2
probs = 1, 0.3

[local]
local_steps = 5
client_lr = 2.5
batch_size = 1

[run]
rounds = 400
init = -1,-1
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_metrics_exit_as_divergence(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["run", "--config", str(write(tmp_path, METRIC_OVERFLOW_RUN)), "--out", str(out)])
    assert code == EXIT_DIVERGENCE
    assert (out / "FAILED").read_text() == "metrics are non-finite at round 216\n"
    assert not (out / "metrics.csv").exists()
    assert "divergence: metrics are non-finite at round 216" in capsys.readouterr().err


def test_repeat_writes_mean_curve(tmp_path):
    path = write(tmp_path, QUAD_RUN)
    out = tmp_path / "o"
    code = main([
        "repeat", "--config", str(path), "--out", str(out),
        "--seeds", "1,2,3", "--comparability",
    ])
    assert code == 0
    lines = (out / "mean_curve.csv").read_text().splitlines()
    assert lines[0] == "round,loss_mean,loss_stderr"
    assert len(lines) == 31
    per_seed = [
        np.array([
            float(r.split(",")[1])
            for r in (out / f"metrics_seed{s}.csv").read_text().splitlines()[1:]
        ])
        for s in (1, 2, 3)
    ]
    means = np.array([float(r.split(",")[1]) for r in lines[1:]])
    np.testing.assert_allclose(means, np.mean(per_seed, axis=0), rtol=1e-15)


def test_theory_subcommand(tmp_path):
    path = write(tmp_path, THEORY)
    out = tmp_path / "o"
    assert main(["theory", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "theory.csv").read_text().splitlines()
    assert lines[0].startswith("beta,constraints_ok")
    assert len(lines) == 6  # default 5 beta values


def test_theory_beta_star_is_nan_under_full_participation(tmp_path):
    # p_var defaults to inf, where every beta gives the same bound
    path = write(tmp_path, THEORY.replace("p_var = 0.5\n", ""))
    out = tmp_path / "o"
    assert main(["theory", "--config", str(path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "theory.csv").read_text().splitlines()[1:]]
    assert len(rows) == 5 and all(row[-1] == "nan" for row in rows)
    assert len({row[-2] for row in rows}) == 1   # one total for every beta


def test_lowerbound_zero_violations(tmp_path):
    path = write(tmp_path, LOWERBOUND)
    out = tmp_path / "o"
    assert main(["lowerbound", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "frontier.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[-1] == "0" for row in rows)
    env = (out / "envelope.csv").read_text().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in env]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_grid_subcommand_small(tmp_path):
    path = write(tmp_path, GRID_SMALL)
    out = tmp_path / "o"
    assert main(["grid", "--config", str(path), "--out", str(out), "--threads", "2"]) == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[0] == "ratio,swap_fraction,beta,metric_mean,metric_stderr,beta_opt_flag"
    assert len(lines) == 1 + 2 * 2 * 2
    flags = sum(int(r.split(",")[-1]) for r in lines[1:])
    assert flags == 4  # exactly one beta_opt per cell


def test_grid_with_a_nan_weight_cap(tmp_path, capsys):
    # The cap is checked under either weight source: a nan cap is a config
    # error under exact weights too, which never read it.
    capped = GRID_SMALL + "\n[aggregator]\nweight_cap = nan\n"
    estimated = capped.replace("weight_cap", "weights_source = estimator\nweight_cap")
    for name, text in (("capped", capped), ("estimated", estimated)):
        assert main(["grid", "--config", str(write(tmp_path, text, f"{name}.ini")),
                     "--out", str(tmp_path / name), "--threads", "1"]) == EXIT_CONFIG
        assert "weight_cap must be > 1" in capsys.readouterr().err


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("STALEFL_OUT_ROOT", str(tmp_path / "root"))
    path = write(tmp_path, QUAD_RUN)
    assert main(["run", "--config", str(path), "--out", "rel"]) == 0
    assert (tmp_path / "root" / "rel" / "metrics.csv").exists()


def test_failed_sentinel_lands_under_out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("STALEFL_OUT_ROOT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, QUAD_RUN.replace("client_lr = 0.02", "client_lr = 50.0")
                 .replace("rounds = 30", "rounds = 500"))
    assert main(["run", "--config", str(path), "--out", "rel"]) == EXIT_DIVERGENCE
    assert (tmp_path / "root" / "rel" / "FAILED").exists()


def trace_csv(rounds, clients):
    rows = [f"{t},{i},1" for t in range(1, rounds + 1) for i in range(clients)]
    return "round,client_id,present\n" + "\n".join(rows) + "\n"


# name: (subcommand, config file name, config text, extra arguments, trace)
BAD_INPUTS = {
    "probs_out_of_range": (
        "run", "cfg.ini",
        MINIMAL + "\n[participation]\nkind = explicit\nn_clients = 2\nprobs = 0, 1\n", [], None,
    ),
    "malformed_json": ("run", "cfg.json", '{"run": {"rounds": 10}', [], None),
    "malformed_ini": ("run", "cfg.ini", "[objective\nkind = quadratic2d\n", [], None),
    "theory_without_sigma_sq": (
        "theory", "cfg.ini",
        "[theory]\nsmoothness = 1\nsg_sq = 4\np_avg = 0.6\np_min = 0.2\nn_clients = 4\n", [], None,
    ),
    "lowerbound_without_smoothness": (
        "lowerbound", "cfg.ini", "[lowerbound]\ndim = 201\nhorizon = 100\n", [], None,
    ),
    "softmax_client_count_mismatch": ("run", "cfg.ini", "[objective]\nkind = softmax\n", [], None),
    "replay_trace_too_short": ("replay", "cfg.ini", QUAD_RUN, [], trace_csv(10, 2)),
    "replay_trace_too_few_clients": ("replay", "cfg.ini", QUAD_RUN, [], trace_csv(30, 1)),
    "replay_trace_without_present_column": (
        "replay", "cfg.ini", QUAD_RUN, [], "round,client_id\n1,0\n",
    ),
    # Each of these rows used to be read silently: round 0 and client -1
    # wrapped round to the last row and client to the last column, other
    # present values counted as present, a missing cell as absent and a
    # repeated one as its last row.
    **{
        f"replay_trace_{name}": ("replay", "cfg.ini", QUAD_RUN, [], trace)
        for name, trace in {
            "round_zero": trace_csv(30, 2) + "0,1,1\n",
            "negative_client": trace_csv(30, 2) + "2,-1,0\n",
            "present_seven": trace_csv(30, 2).replace("\n2,1,1\n", "\n2,1,7\n"),
            "present_negative": trace_csv(30, 2).replace("\n2,1,1\n", "\n2,1,-3\n"),
            "missing_cell": trace_csv(30, 2).replace("\n2,1,1\n", "\n"),
            "repeated_cell": trace_csv(30, 2) + "3,0,0\n",
            "short_row": trace_csv(30, 2).replace("\n2,1,1\n", "\n2,1\n"),
            "long_row": trace_csv(30, 2).replace("\n2,1,1\n", "\n2,1,1,0\n"),
        }.items()
    },
    "flag_of_another_subcommand": ("run", "cfg.ini", QUAD_RUN, ["--seeds", "5"], None),
    "grid_of_a_quadratic": (
        "grid", "cfg.ini",
        QUAD_RUN.replace("n_clients = 2", "n_clients = 4")
        + "\n[grid]\nratios = 3\nswap_fractions = 0\nbetas = 0, 1\n", [], None,
    ),
    "grid_client_count_mismatch": (
        "grid", "cfg.ini",
        "[objective]\nkind = softmax\n\n[participation]\nn_clients = 4\n"
        "\n[grid]\nratios = 3\nswap_fractions = 0\nbetas = 0, 1\n", [], None,
    ),
    "theory_betas_malformed": ("theory", "cfg.ini", THEORY + "betas = 0, x\n", [], None),
    "theory_beta_out_of_range": ("theory", "cfg.ini", THEORY + "betas = 2\n", [], None),
    "theory_zero_clients": (
        "theory", "cfg.ini", THEORY.replace("n_clients = 4", "n_clients = 0"), [], None,
    ),
    "theory_zero_p_min": (
        "theory", "cfg.ini", THEORY.replace("p_min = 0.2", "p_min = 0"), [], None,
    ),
    "theory_zero_rounds": ("theory", "cfg.ini", THEORY + "rounds = 0\n", [], None),
    "lowerbound_tau_zero": ("lowerbound", "cfg.ini", LOWERBOUND.replace(
        "taus = 2,3,4,5,6,7,8,9,10", "taus = 0"), [], None),
    "lowerbound_zero_rounds": (
        "lowerbound", "cfg.ini", LOWERBOUND.replace("rounds = 100", "rounds = 0"), [], None,
    ),
    "lowerbound_negative_rounds": (
        "lowerbound", "cfg.ini", LOWERBOUND.replace("rounds = 100", "rounds = -1"), [], None,
    ),
    "lowerbound_horizon_too_long": (
        "lowerbound", "cfg.ini", LOWERBOUND.replace("dim = 201", "dim = 11"), [], None,
    ),
    "run_init_malformed": (
        "run", "cfg.ini", QUAD_RUN.replace("init = -10,-10", "init = a,b"), [], None,
    ),
    "grid_ratio_below_one": (
        "grid", "cfg.ini", GRID_SMALL.replace("ratios = 1, 3", "ratios = 0.5"),
        ["--threads", "1"], None,
    ),
    "grid_ratio_below_one_in_a_worker": (
        "grid", "cfg.ini", GRID_SMALL.replace("ratios = 1, 3", "ratios = 0.5"),
        ["--threads", "2"], None,
    ),
    "grid_beta_out_of_range": (
        "grid", "cfg.ini", GRID_SMALL.replace("betas = 0, 1", "betas = 2"),
        ["--threads", "1"], None,
    ),
    "grid_metric_unknown": (
        "grid", "cfg.ini", GRID_SMALL.replace("metric = accuracy", "metric = nonsense"),
        ["--threads", "1"], None,
    ),
    "grid_batch_larger_than_a_client": (
        "grid", "cfg.ini", GRID_SMALL.replace("batch_size = 4", "batch_size = 50"),
        ["--threads", "1"], None,
    ),
    "repeat_seeds_malformed": ("repeat", "cfg.ini", QUAD_RUN, ["--seeds", "a"], None),
    # A repeated sweep value would run twice: `repeat` would overwrite its
    # metrics file and count the run twice in the mean, and a repeated beta
    # would flag two beta_opt rows in one grid cell.
    "repeat_seeds_repeated": ("repeat", "cfg.ini", QUAD_RUN, ["--seeds", "1,1"], None),
    "repeat_run_seeds_repeated": ("repeat", "cfg.ini", QUAD_RUN + "seeds = 2, 3, 2\n", [], None),
    **{
        f"grid_{name}_repeated": (
            "grid", "cfg.ini", GRID_SMALL.replace(old, new), ["--threads", "1"], None,
        )
        for name, (old, new) in {
            "ratio": ("ratios = 1, 3", "ratios = 3, 1, 3"),
            "swap_fraction": ("swap_fractions = 0, 0.5", "swap_fractions = 0.5, 0.5"),
            "beta": ("betas = 0, 1", "betas = 0.5, 0.5, 1"),
            "client_lr": ("metric = accuracy", "metric = accuracy\nclient_lr_grid = 0.1, 0.1"),
            "seed": ("seeds = 1", "seeds = 1, 1"),
        }.items()
    },
    "grid_seeds_empty": (
        "grid", "cfg.ini", GRID_SMALL.replace("seeds = 1", "seeds = "), ["--threads", "1"], None,
    ),
    "grid_seeds_flag_repeated": (
        "grid", "cfg.ini", GRID_SMALL, ["--threads", "1", "--seeds", "4,4"], None,
    ),
    "grid_zero_threads": ("grid", "cfg.ini", GRID_SMALL, ["--threads", "0"], None),
    **{
        f"run_noise_var_{value}": (
            "run", "cfg.ini",
            QUAD_RUN.replace("kind = quadratic2d", f"kind = quadratic2d\nnoise_var = {value}"),
            [], None,
        )
        for value in ("nan", "inf")
    },
    **{
        f"grid_cluster_std_{value}": (
            "grid", "cfg.ini",
            GRID_SMALL.replace("data_seed = 1", f"data_seed = 1\ncluster_std = {value}"),
            ["--threads", "1"], None,
        )
        for value in ("nan", "inf")
    },
    **{
        f"run_estimator_weight_cap_{value}": (
            "run", "cfg.ini",
            QUAD_RUN.replace(
                "beta = 0.5", f"beta = 0.5\nweights_source = estimator\nweight_cap = {value}",
            ),
            [], None,
        )
        for value in ("nan", "0")
    },
    # The participation key is injective only for seeds in [0, 2^64): -1 and
    # 2^64 would draw seed 2^64 - 1's and seed 0's traces.
    **{
        f"run_{kind}_master_seed_{value}": (
            "run", "cfg.ini",
            QUAD_RUN.replace("kind = quadratic2d", f"kind = quadratic2d\nnoise_var = {noise}")
            .replace("master_seed = 3", f"master_seed = {value}"),
            [], None,
        )
        for kind, noise in (("exact", 0.0), ("noisy", 0.1))
        for value in ("-1", str(2**64))
    },
    "repeat_seeds_negative": ("repeat", "cfg.ini", QUAD_RUN, ["--seeds", "-1"], None),
    "grid_seed_negative": (
        "grid", "cfg.ini", GRID_SMALL.replace("seeds = 1", "seeds = -1"), ["--threads", "1"], None,
    ),
    # A smoothness that is not finite and positive breaks the hard instance's
    # own split check.
    **{
        f"lowerbound_smoothness_{value}": (
            "lowerbound", "cfg.ini", LOWERBOUND.replace("smoothness = 1", f"smoothness = {value}"),
            [], None,
        )
        for value in ("nan", "inf", "0", "-1")
    },
    "run_hard_instance_smoothness_nan": (
        "run", "cfg.ini",
        "[objective]\nkind = hard_instance\ndim = 21\nhorizon = 10\nsmoothness = nan\n", [], None,
    ),
    # These would give nan totals, a negative bound on a squared norm, or
    # constraints_ok = 1 at a nan server lr or at p_min > p_avg.
    **{
        f"theory_{name}": ("theory", "cfg.ini", THEORY.replace(old, new), [], None)
        for name, (old, new) in {
            "smoothness_nan": ("smoothness = 1", "smoothness = nan"),
            "sigma_sq_inf": ("sigma_sq = 1", "sigma_sq = inf"),
            "p_avg_inf": ("p_avg = 0.6", "p_avg = inf"),
            "client_lr_negative": ("client_lr = 0.02", "client_lr = -0.01"),
            "client_lr_zero": ("client_lr = 0.02", "client_lr = 0"),
            "server_lr_nan": ("server_lr = 0.1", "server_lr = nan"),
            "server_lr_zero": ("server_lr = 0.1", "server_lr = 0"),
            # a minimum above the mean; p_avg may exceed 1 (criterion 8), p_min not
            "p_min_above_p_avg": ("p_avg = 0.6\np_min = 0.2", "p_avg = 0.2\np_min = 0.9"),
            "p_min_above_one": ("p_avg = 0.6\np_min = 0.2", "p_avg = 2\np_min = 1.5"),
        }.items()
    },
    # nan fails both comparisons of a plain range check, and each of these
    # used to run until the global iterate diverged (exit 3).
    **{
        f"{command}_probs_{name}": (
            command, "cfg.ini",
            QUAD_RUN.replace(
                "[participation]\n", f"[participation]\nkind = explicit\nprobs = {probs}\n",
            ),
            [], None,
        )
        for command in ("run", "repeat")
        for name, probs in (
            ("half_nan", "0.5, nan"), ("nan_nan", "nan, nan"), ("one_nan", "1, nan"),
        )
    },
    # A non-finite center or Hessian entry used to run until the first local
    # step went non-finite (exit 3).
    **{
        f"{command}_{key}_{name}": (command, "cfg.ini", QUAD_RUN.replace(old, new), [], None)
        for command in ("run", "repeat")
        for key, name, old, new in (
            ("centers", "nan", "centers = 5,0; 0,5", "centers = nan,0; 0,1"),
            ("centers", "inf", "centers = 5,0; 0,5", "centers = 5,0; 0,-inf"),
            ("hessians", "inf", "hessians = 1,0.5; 0.5,1", "hessians = inf,1; 1,1"),
        )
    },
    **{
        f"grid_holdout_fraction_{value}": (
            "grid", "cfg.ini",
            GRID_SMALL.replace("holdout_fraction = 0.2", f"holdout_fraction = {value}"),
            ["--threads", "1"], None,
        )
        for value in ("-0.5", "1", "nan")
    },
    # Exactly 1 means full participation; a larger group probability used
    # to mean it too and run silently.
    **{
        f"{command}_p_min_group_{value}": (
            command, "cfg.ini", QUAD_RUN, ["--set", f"participation.p_min_group={value}"], None,
        )
        for command in ("run", "repeat")
        for value in ("1.5", "inf")
    },
    # group2_size must lie in (0, n_clients) at every group probability; at
    # exactly 1 it used to be read without a check.
    **{
        f"{command}_group2_size_{size}_at_p_min_group_{p}": (
            command, "cfg.ini", QUAD_RUN,
            ["--set", f"participation.p_min_group={p}",
             "--set", f"participation.group2_size={size}"], None,
        )
        for command in ("run", "repeat")
        for p in ("1", "0.5")
        for size in ("5", "-3", "2", "0")
    },
    # No client, or clients with no coordinate, used to raise an uncaught
    # IndexError (exit 1).
    **{
        f"run_centers_{name}": (
            "run", "cfg.ini", QUAD_RUN.replace("hessians = 1,0.5; 0.5,1\n", ""),
            ["--set", f"objective.centers={value}"], None,
        )
        for name, value in (("empty", ""), ("two_empty_rows", ";"))
    },
}


def run_bad_input(tmp_path, name):
    command, cfg_name, text, extra, trace = BAD_INPUTS[name]
    argv = [command, "--config", str(write(tmp_path, text, cfg_name)),
            "--out", str(tmp_path / "o"), *extra]
    if trace is not None:
        argv += ["--trace", str(write(tmp_path, trace, "trace.csv"))]
    return main(argv)


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_bad_input_is_a_config_error(tmp_path, capsys, name):
    assert run_bad_input(tmp_path, name) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("name", [
    name for name in BAD_INPUTS
    if "master_seed" in name or name in ("repeat_seeds_negative", "grid_seed_negative")
])
def test_a_seed_outside_the_key_range_is_named(tmp_path, capsys, name):
    # The message names the seed's range on every objective, noisy ones
    # included, whose noise streams numpy could not seed from -1.
    assert run_bad_input(tmp_path, name) == EXIT_CONFIG
    assert "master_seed must lie in [0, 2^64)" in capsys.readouterr().err


def test_full_participation_at_a_group_probability_of_one(tmp_path):
    path = write(tmp_path, QUAD_RUN.replace("rounds = 30", "rounds = 3"))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--set", "participation.p_min_group=1"]) == EXIT_OK
    assert (out / "trace.csv").read_text() == trace_csv(3, 2)


# Every float-valued key is checked with nan, inf and -inf on every
# subcommand that reads it, on configs of at most 3 rounds. Base configs:
# name -> (config text, n_clients).
NON_FINITE_BASES = {
    "quadratic": (QUAD_RUN.replace("rounds = 30", "rounds = 3"), 2),
    "softmax": (
        GRID_SMALL.split("[grid]")[0].replace("server_lr = 1.0", "server_lr = 1.0\nrounds = 3")
        + "\n[aggregator]\nrule = fedstale\nbeta = 0.5\n", 4,
    ),
    "hard_instance": (
        "[objective]\nkind = hard_instance\ndim = 21\nhorizon = 10\n"
        "\n[local]\nlocal_steps = 1\nclient_lr = 0.1\n\n[run]\nrounds = 3\n", 2,
    ),
    "grid": (GRID_SMALL.replace("server_lr = 1.0", "server_lr = 1.0\nrounds = 3"), 4),
    "theory": (THEORY, None),
    "lowerbound": (LOWERBOUND.replace("rounds = 100", "rounds = 3"), None),
}
RUNS = ("run", "replay", "repeat")
# (section, key) -> the (subcommand, base, overrides) under which the key is
# read.
NON_FINITE_READERS = {
    **{("objective", k): [(c, "quadratic", []) for c in RUNS]
       for k in ("noise_var", "centers", "hessians")},
    ("objective", "swap_fraction"): [(c, "softmax", []) for c in RUNS],
    **{("objective", k): [(c, "softmax", []) for c in RUNS] + [("grid", "grid", [])]
       for k in ("holdout_fraction", "cluster_std")},
    ("objective", "smoothness"): [(c, "hard_instance", []) for c in RUNS],
    ("participation", "p_min_group"): [(c, "quadratic", []) for c in RUNS] + [("grid", "grid", [])],
    ("participation", "probs"): [
        (c, "quadratic", ["participation.kind=explicit"]) for c in RUNS
    ] + [("grid", "grid", ["participation.kind=explicit"])],
    **{(s, k): [(c, "quadratic", []) for c in RUNS]
       + [("grid", "grid", []), ("theory", "theory", [])]
       for s, k in (("local", "client_lr"), ("run", "server_lr"))},
    ("aggregator", "beta"): [(c, "quadratic", []) for c in RUNS],
    ("aggregator", "weight_cap"): [
        (c, "quadratic", ["aggregator.weights_source=estimator"]) for c in RUNS
    ],
    ("run", "init"): [(c, "quadratic", []) for c in RUNS],
    **{("grid", k): [("grid", "grid", [])]
       for k in ("ratios", "swap_fractions", "betas", "client_lr_grid")},
    **{("theory", k): [("theory", "theory", [])]
       for k in ("smoothness", "sigma_sq", "sg_sq", "p_var", "p_avg", "p_min",
                 "f_init_gap", "h_init", "a1", "a2", "betas")},
    **{("lowerbound", k): [("lowerbound", "lowerbound", [])] for k in ("smoothness", "p_min")},
}
# A list key's value is a valid list with its first entry replaced.
NON_FINITE_LISTS = {
    ("objective", "centers"): "5, 0; 0, 5", ("objective", "hessians"): "1, 0.5; 0.5, 1",
    ("participation", "probs"): "0.5, 1", ("run", "init"): "-10, -10",
    ("grid", "ratios"): "1, 3", ("grid", "swap_fractions"): "0, 0.5", ("grid", "betas"): "0, 1",
    ("grid", "client_lr_grid"): "0.05, 0.1", ("theory", "betas"): "0, 0.5, 1",
}
# The non-finite values the program accepts on purpose.
NON_FINITE_ALLOWED = {("theory", "p_var", "inf"), ("aggregator", "weight_cap", "inf")}
FLOAT_PARSERS = (float, cli.float_list, cli.float_rows, cli.zeros_or_floats)


def test_every_float_key_has_a_non_finite_case():
    float_keys = {
        (section, key) for section, keys in cli._SCHEMA.items()
        for key, (parse, _) in keys.items() if parse in FLOAT_PARSERS
    }
    assert set(NON_FINITE_READERS) == float_keys


# aggregator.weight_cap is checked under either weight source, so exact
# weights and grid read it too, and grid checks that run.init is zeros, where
# its cells start. These readers come last, apart from the table above, so
# that its cases keep their test ids.
NON_FINITE_MORE_READERS = {
    ("aggregator", "weight_cap"): [(c, "quadratic", []) for c in RUNS] + [("grid", "grid", [])],
    ("run", "init"): [("grid", "grid", [])],
}
NON_FINITE_CASES = [
    (section, key, command, base, sets)
    for table in (NON_FINITE_READERS, NON_FINITE_MORE_READERS)
    for (section, key), readers in table.items()
    for command, base, sets in readers
]


def non_finite_case(tmp_path, section, key, command, base, sets, value):
    """Run `command` on `base` with `sets` and `section.key` set to `value`
    (in a valid list, for a list key); with `value` None, a list key gets the
    valid list and a scalar key its base value."""
    valid = NON_FINITE_LISTS.get((section, key))
    if (section, key, command) == ("run", "init", "grid"):
        valid = "zeros"   # the one value grid accepts
    if valid is not None:
        value = valid if value is None else re.sub(r"[^,;\s]+", value, valid, count=1)
    if value is not None:
        sets = [*sets, f"{section}.{key}={value}"]
    return run_case(tmp_path, command, base, sets)


def run_case(tmp_path, command, base, sets):
    """Run `command` on the config `base` with the overrides `sets`."""
    text, n_clients = NON_FINITE_BASES[base]
    argv = [command, "--config", str(write(tmp_path, text)), "--out", str(tmp_path / "o")]
    for item in sets:
        argv += ["--set", item]
    if command == "replay":
        argv += ["--trace", str(write(tmp_path, trace_csv(3, n_clients), "trace.csv"))]
    if command == "grid":
        argv += ["--threads", "1"]
    return main(argv)


@pytest.mark.parametrize("section,key,command,base,sets", NON_FINITE_CASES)
def test_the_non_finite_cases_run_with_finite_values(tmp_path, section, key, command, base, sets):
    # so that each case's exit 2 comes from the value it sets
    assert non_finite_case(tmp_path, section, key, command, base, sets, None) == EXIT_OK


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key,command,base,sets", NON_FINITE_CASES)
def test_a_non_finite_float_is_a_config_error(tmp_path, section, key, command, base, sets, value):
    expected = EXIT_OK if (section, key, value) in NON_FINITE_ALLOWED else EXIT_CONFIG
    assert non_finite_case(tmp_path, section, key, command, base, sets, value) == expected


# Every list key is set to an empty list on every subcommand that reads it:
# a float list key where the non-finite sweep reads it, an int list key
# where the table below says.
LIST_PARSERS = (cli.float_list, cli.int_list, cli.float_rows, cli.zeros_or_floats)
INT_LIST_READERS = {
    ("run", "seeds"): [("repeat", "quadratic", [])],
    ("grid", "seeds"): [("grid", "grid", [])],
    ("lowerbound", "taus"): [("lowerbound", "lowerbound", [])],
}
LIST_READERS = {
    **{k: NON_FINITE_READERS[k] + NON_FINITE_MORE_READERS.get(k, []) for k in NON_FINITE_LISTS},
    **INT_LIST_READERS,
}
EMPTY_LIST_CASES = [
    (section, key, command, base, sets)
    for (section, key), readers in LIST_READERS.items()
    for command, base, sets in readers
]


def test_every_list_key_has_an_empty_list_case():
    list_keys = {
        (section, key) for section, keys in cli._SCHEMA.items()
        for key, (parse, _) in keys.items() if parse in LIST_PARSERS
    }
    assert set(LIST_READERS) == list_keys


@pytest.mark.parametrize("section,key,command,base,sets", EMPTY_LIST_CASES)
def test_an_empty_list_is_a_config_error(tmp_path, capsys, section, key, command, base, sets):
    # No list key accepts an empty list. theory.betas, lowerbound.taus and
    # grid.client_lr_grid used to: the first two wrote tables without rows,
    # the last read as unset.
    assert run_case(tmp_path, command, base, [*sets, f"{section}.{key}="]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
