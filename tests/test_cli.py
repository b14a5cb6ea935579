import json

import numpy as np
import pytest

from stalefl.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
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
    "grid_zero_threads": ("grid", "cfg.ini", GRID_SMALL, ["--threads", "0"], None),
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_bad_input_is_a_config_error(tmp_path, capsys, name):
    command, cfg_name, text, extra, trace = BAD_INPUTS[name]
    argv = [command, "--config", str(write(tmp_path, text, cfg_name)),
            "--out", str(tmp_path / "o"), *extra]
    if trace is not None:
        argv += ["--trace", str(write(tmp_path, trace, "trace.csv"))]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
