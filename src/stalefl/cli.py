"""Command-line front end: single runs, repetitions, grids, bound tables, and
frontier/lower-bound verification, all writing reproducible artifacts.

Config files are flat sectioned key/value text (INI); JSON with the same
section/key schema is accepted interchangeably. Every run directory gets a
manifest echoing the fully resolved config; the manifest is itself a valid
config, so rerunning from it reproduces the metrics byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from itertools import count
from pathlib import Path

import numpy as np

from . import __version__
from .aggregation import AggregatorConfig
from .engine import (
    TrainConfig,
    run,
    run_grid,
    run_repeated,
    write_metrics_csv,
)
from .local_solver import DivergenceError, LocalConfig
from .objectives import (
    QuadraticObjective,
    SoftmaxObjective,
    build_label_swap_dataset,
)
from .participation import (
    ParticipationProfile,
    export_trace_csv,
    load_trace_csv,
    make_two_group_profile,
)
from .theory import (
    BoundInputs,
    HardInstance,
    beta_star,
    check_lr_constraints,
    expected_frontier_cap,
    fastest_schedule,
    frontier_bound,
    lower_bound_curve,
    theorem1_bound,
    track_frontier,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

OUT_ROOT_ENV = "STALEFL_OUT_ROOT"


class ConfigError(ValueError):
    pass


def float_list(text: str) -> tuple[float, ...]:
    return _nonempty(tuple(float(v) for v in text.replace(";", ",").split(",") if v.strip()))


def int_list(text: str) -> tuple[int, ...]:
    return _nonempty(tuple(int(v) for v in text.split(",") if v.strip()))


def _nonempty(values: tuple) -> tuple:
    if not values:   # no list key has a use for one; an unset key is None
        raise ValueError("empty list")
    return values


def float_rows(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(float_list(row) for row in text.split(";"))


def zeros_or_floats(text: str) -> str | tuple[float, ...]:
    return text if text == "zeros" else float_list(text)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# A key whose section is in use must be set; it has no default.
_REQUIRED = object()

# section -> key -> (parser, default). A default of None means "unset": no
# hessians (identity), no weight cap (the engine's), no client-lr sweep, and
# theory.rounds falling back to run.rounds. A section with a _REQUIRED key
# exists only if the config names it.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "objective": {
        "kind": (str, "quadratic2d"), "noise_var": (float, 0.0),
        "centers": (float_rows, ((5.0, 0.0), (0.0, 5.0))), "hessians": (float_rows, None),
        "n_clients": (int, 24), "samples_per_client": (int, 200),
        "swap_fraction": (float, 0.0), "class_a": (int, 0), "class_b": (int, 1),
        "feature_dim": (int, 10), "class_count": (int, 10),
        "holdout_fraction": (float, 0.2), "data_seed": (int, 1),
        "cluster_std": (float, 1.0), "dim": (int, 201), "horizon": (int, 100),
        "smoothness": (float, 1.0),
    },
    "participation": {
        "kind": (str, "two_group"), "n_clients": (int, 2), "p_min_group": (float, 0.01),
        "group2_size": (int, 1), "seed": (int, 0), "probs": (float_list, None),
    },
    "local": {
        "local_steps": (int, 5), "client_lr": (float, 0.01), "batch_size": (int, 32),
    },
    "aggregator": {
        "rule": (str, "fedstale"), "beta": (float, 0.5),
        "weights_source": (str, "exact"), "weight_cap": (float, None),
    },
    "run": {
        "rounds": (int, 100), "server_lr": (float, 1.0), "master_seed": (int, 1),
        "init": (zeros_or_floats, "zeros"), "seeds": (int_list, (1,)),
    },
    "grid": {
        "ratios": (float_list, _REQUIRED), "swap_fractions": (float_list, _REQUIRED),
        "betas": (float_list, _REQUIRED), "seeds": (int_list, (1,)),
        "metric": (str, "accuracy"), "client_lr_grid": (float_list, None),
    },
    "theory": {
        "smoothness": (float, _REQUIRED), "sigma_sq": (float, _REQUIRED),
        "sg_sq": (float, _REQUIRED), "p_var": (float, math.inf),
        "p_avg": (float, _REQUIRED), "p_min": (float, _REQUIRED),
        "n_clients": (int, _REQUIRED), "f_init_gap": (float, 1.0), "h_init": (float, 0.0),
        "a1": (float, 1.0), "a2": (float, 1.0),
        "betas": (float_list, (0.0, 0.2, 0.5, 0.8, 1.0)), "rounds": (int, None),
    },
    "lowerbound": {
        "dim": (int, _REQUIRED), "horizon": (int, _REQUIRED), "smoothness": (float, _REQUIRED),
        "taus": (int_list, tuple(range(2, 11))), "rounds": (int, 200),
        "p_min": (float, 0.1),
    },
}


def load_config(path: str | Path, overrides: list[str] | None = None) -> dict[str, dict]:
    """Read INI or JSON config, apply --set overrides, and parse every value
    by its key's parser; keys left out get their defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text()
        if path.suffix == ".json" or text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            cp = configparser.ConfigParser()
            cp.read_string(text)
            data = {section: dict(cp[section]) for section in cp.sections()}
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not (isinstance(data, dict) and all(isinstance(kv, dict) for kv in data.values())):
        raise ConfigError(f"{path} must map each section to its key/value pairs")
    # JSON numbers and arrays become the config text they stand for
    raw = {section: {k: _format(v) for k, v in kv.items()} for section, kv in data.items()}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        if "." in key:
            section, name = key.split(".", 1)
        else:
            section, name = _find_section(key)
        raw.setdefault(section, {})[name] = value

    for section, kv in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in kv:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    cfg: dict[str, dict] = {}
    for section, keys in _SCHEMA.items():
        given = raw.get(section)
        if given is None and any(d is _REQUIRED for _, d in keys.values()):
            continue
        cfg[section] = sec = {}
        for key, (parse, default) in keys.items():
            if given and key in given:
                try:
                    sec[key] = parse(given[key])
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for {section}.{key}: {given[key]!r}"
                    ) from exc
            elif default is not _REQUIRED:
                sec[key] = default
    return cfg


def _find_section(key: str) -> tuple[str, str]:
    hits = [s for s, kv in _SCHEMA.items() if key in kv]
    if len(hits) != 1:
        raise ConfigError(f"ambiguous or unknown override key {key!r}; use section.key")
    return hits[0], key


def _softmax_objective(
    o: dict, n_clients: int, swap_fraction: float, group2: tuple[int, ...] | None,
) -> SoftmaxObjective:
    ds = build_label_swap_dataset(
        n_clients, o["samples_per_client"], swap_fraction, (o["class_a"], o["class_b"]),
        np.random.default_rng(o["data_seed"]),
        class_count=o["class_count"], feature_dim=o["feature_dim"],
        cluster_std=o["cluster_std"], group2=group2,
    )
    return SoftmaxObjective(ds, o["holdout_fraction"])


def build_objective(cfg: dict[str, dict], profile: ParticipationProfile):
    o = cfg["objective"]
    kind = o["kind"]
    if kind == "quadratic2d":
        centers = [np.array(c) for c in o["centers"]]
        if o["hessians"] is None:
            hessians = [np.eye(len(centers[0]))] * len(centers)
        else:
            hessians = [np.diag(h) for h in o["hessians"]]
        obj = QuadraticObjective(hessians, centers, o["noise_var"])
    elif kind == "softmax":
        obj = _softmax_objective(o, o["n_clients"], o["swap_fraction"], profile.group2)
    elif kind == "hard_instance":
        obj = HardInstance(o["dim"], o["horizon"], o["smoothness"], profile.n_clients)
    else:
        raise ConfigError(f"unknown objective.kind {kind!r}")
    if obj.n_clients != profile.n_clients:
        raise ConfigError(
            f"the objective has {obj.n_clients} clients but the participation "
            f"profile has {profile.n_clients}"
        )
    return obj


def build_profile(cfg: dict[str, dict]) -> ParticipationProfile:
    p = cfg["participation"]
    if p["kind"] == "explicit":
        if p["probs"] is None:
            raise ConfigError("participation.probs required for kind=explicit")
        return ParticipationProfile(np.array(p["probs"]))
    if p["kind"] == "two_group":
        # checks every value, at full participation too, where no group is low
        profile = make_two_group_profile(
            p["n_clients"], p["p_min_group"], p["group2_size"], p["seed"]
        )
        return ParticipationProfile(profile.probs) if p["p_min_group"] == 1.0 else profile
    raise ConfigError(f"unknown participation.kind {p['kind']!r}")


def build_train_config(
    cfg: dict[str, dict], profile: ParticipationProfile, dim: int,
    replay_schedule: np.ndarray | None = None,
) -> TrainConfig:
    r, l, a = cfg["run"], cfg["local"], cfg["aggregator"]
    return TrainConfig(
        r["rounds"], r["server_lr"],
        LocalConfig(l["local_steps"], l["client_lr"], l["batch_size"]),
        AggregatorConfig(a["rule"], a["beta"], a["weights_source"], a["weight_cap"]),
        profile, r["master_seed"],
        np.zeros(dim) if r["init"] == "zeros" else np.array(r["init"]),
        replay_schedule=replay_schedule,
    )


def _format(value) -> str:
    """A typed config value, or a JSON value (lists for tuples), as config
    text that parses back to it."""
    if isinstance(value, (tuple, list)):
        sep = "; " if value and isinstance(value[0], (tuple, list)) else ", "
        return sep.join(map(_format, value))
    return repr(value) if isinstance(value, float) else str(value)


def write_manifest(cfg: dict[str, dict], out: Path) -> None:
    cp = configparser.ConfigParser()
    for section, kv in cfg.items():
        cp[section] = {k: _format(v) for k, v in kv.items() if v is not None}
    with open(out / "manifest.txt", "w") as f:
        f.write(f"# stalefl {__version__} run manifest; reusable as --config\n")
        cp.write(f)


def _section(cfg: dict[str, dict], name: str) -> dict:
    """The [name] section of a subcommand, with its required keys present."""
    sec = cfg.get(name)
    if sec is None:
        raise ConfigError(f"{name} mode requires a [{name}] section")
    missing = [k for k, (_, d) in _SCHEMA[name].items() if d is _REQUIRED and k not in sec]
    if missing:
        raise ConfigError(f"[{name}] lacks required key(s): {', '.join(missing)}")
    return sec


def prepare_outdir(out: str | Path, force: bool) -> Path:
    root = os.environ.get(OUT_ROOT_ENV)
    out = Path(out)
    if root and not out.is_absolute():
        out = Path(root) / out
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(f"output directory {out} is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args, cfg: dict[str, dict], out: Path) -> int:
    profile = build_profile(cfg)
    obj = build_objective(cfg, profile)
    schedule = None
    if args.command == "replay":
        try:
            schedule = load_trace_csv(args.trace)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad participation trace {args.trace}: {exc}") from exc
    tc = build_train_config(cfg, profile, obj.dim, replay_schedule=schedule)
    result = run(tc, obj)
    write_metrics_csv(result, out / "metrics.csv")
    export_trace_csv(result.participation_trace, out / "trace.csv")
    write_manifest(cfg, out)
    acc = "" if result.test_accuracy is None else f" test_acc={result.test_accuracy:.4f}"
    print(
        f"final_loss={result.final_loss:.6g} "
        f"min_grad_norm_sq={result.min_grad_norm_sq:.6g}{acc}"
    )
    return EXIT_OK


def cmd_repeat(args, cfg: dict[str, dict], out: Path) -> int:
    if args.seeds:
        cfg["run"]["seeds"] = args.seeds
    seeds = cfg["run"]["seeds"]
    profile = build_profile(cfg)
    obj = build_objective(cfg, profile)
    tc = build_train_config(cfg, profile, obj.dim)
    rep = run_repeated(tc, obj, seeds)
    for seed, one in zip(rep.seeds, rep.runs):
        write_metrics_csv(one, out / f"metrics_seed{seed}.csv")
    # Python floats format faster than numpy scalars, with the same text.
    rows = zip(count(1), rep.mean_loss_curve.tolist(), rep.stderr_loss_curve.tolist())
    with open(out / "mean_curve.csv", "w") as f:
        f.write("round,loss_mean,loss_stderr\n")
        f.writelines(map("%d,%.17g,%.17g\n".__mod__, rows))
    write_manifest(cfg, out)
    print(f"mean_final_loss={rep.mean_final_loss:.6g} seeds={len(seeds)}")
    return EXIT_OK


def cmd_grid(args, cfg: dict[str, dict], out: Path) -> int:
    g = _section(cfg, "grid")
    if args.seeds:
        g["seeds"] = args.seeds
    profile = build_profile(cfg)
    o = cfg["objective"]
    n_clients = cfg["participation"]["n_clients"]
    if o["kind"] != "softmax":
        raise ConfigError(f"grid mode needs objective.kind = softmax, not {o['kind']!r}")
    if o["n_clients"] != n_clients:
        raise ConfigError(
            f"the objective has {o['n_clients']} clients but the participation "
            f"profile has {n_clients}"
        )
    # run_grid sets each cell's initial point to zeros of its objective's dim
    init = cfg["run"]["init"]
    if init != "zeros":
        raise ConfigError(f"grid cells start at zeros; run.init must be zeros, not {_format(init)}")
    tc = build_train_config(cfg, profile, 1)
    grid = run_grid(
        tc, lambda swap, group2: _softmax_objective(o, n_clients, swap, group2),
        g["ratios"], g["swap_fractions"], g["betas"], g["seeds"],
        n_clients=n_clients, metric_mode=g["metric"],
        client_lr_grid=g["client_lr_grid"], threads=args.threads,
    )
    grid.export_csv(out / "grid.csv")
    write_manifest(cfg, out)
    opts = {
        (c.ratio, c.swap_fraction): c.beta for c in grid.cells if c.beta_opt_flag
    }
    print("beta_opt per (ratio, swap): " + ", ".join(
        f"({r:g},{s:g})->{b:g}" for (r, s), b in sorted(opts.items())
    ))
    return EXIT_OK


def cmd_theory(args, cfg: dict[str, dict], out: Path) -> int:
    t, l, r = _section(cfg, "theory"), cfg["local"], cfg["run"]
    rounds = r["rounds"] if t["rounds"] is None else t["rounds"]
    rows = []
    for beta in t["betas"]:
        inp = BoundInputs(
            t["smoothness"], t["sigma_sq"], t["sg_sq"], t["p_var"], t["p_avg"], t["p_min"],
            t["n_clients"], l["local_steps"], l["client_lr"], r["server_lr"], rounds,
            beta, t["f_init_gap"], t["h_init"], t["a1"], t["a2"],
        )
        report = check_lr_constraints(inp)
        bb = theorem1_bound(inp, override_constraints=True)
        rows.append(
            f"{beta:.17g},{int(report.ok)},{bb.iterate_init_term:.17g},"
            f"{bb.memory_init_term:.17g},{bb.stochastic_term:.17g},"
            f"{bb.heterogeneity_term:.17g},{bb.total:.17g},{beta_star(inp):.17g}"
        )
    with open(out / "theory.csv", "w") as f:
        f.write("beta,constraints_ok,iterate_init,memory_init,stochastic,heterogeneity,total,beta_star\n")
        f.write("\n".join(rows) + "\n")
    write_manifest(cfg, out)
    print(f"wrote bound table for {len(t['betas'])} beta values (unit-constant convention)")
    return EXIT_OK


def cmd_lowerbound(args, cfg: dict[str, dict], out: Path) -> int:
    lb = _section(cfg, "lowerbound")
    rounds, smoothness, p_min = lb["rounds"], lb["smoothness"], lb["p_min"]
    inst = HardInstance(lb["dim"], lb["horizon"], smoothness, 2)
    lines = ["tau,t,k,k_bound,violation"]
    violations = 0
    for tau in lb["taus"]:
        ks = track_frontier(inst, fastest_schedule(rounds, tau))
        for t, k in enumerate(ks):
            bound = frontier_bound(t, tau)
            bad = int(k > bound)
            violations += bad
            lines.append(f"{tau},{t},{k},{bound},{bad}")
    with open(out / "frontier.csv", "w") as f:
        f.write("\n".join(lines) + "\n")
    env = lower_bound_curve(p_min, rounds, inst.f_gap(), smoothness)
    with open(out / "envelope.csv", "w") as f:
        f.write("t,envelope,expected_frontier_cap\n")
        for t, v in enumerate(env):
            f.write(f"{t},{v:.17g},{expected_frontier_cap(p_min, t):.17g}\n")
    write_manifest(cfg, out)
    print(f"frontier table written; bound violations={violations}")
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run, "replay": cmd_run, "repeat": cmd_repeat, "grid": cmd_grid,
    "theory": cmd_theory, "lowerbound": cmd_lowerbound,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stalefl",
        description="Deterministic federated-averaging simulator with fresh/stale aggregation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--force", action="store_true")
        if name in ("repeat", "grid"):
            p.add_argument("--seeds", type=int_list, default=None)
        if name == "repeat":
            p.add_argument(
                "--comparability", action="store_true",
                help="no effect: runs with the same seed share one participation "
                "trace across rules by construction",
            )
        if name == "grid":
            p.add_argument("--threads", type=positive_int, default=_usable_cpus())
        if name == "replay":
            p.add_argument("--trace", required=True)
    return parser


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, which can be narrower than the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    out_path: Path | None = None
    try:
        args = make_parser().parse_args(argv)
        out_path = Path(args.out)
        cfg = load_config(args.config, args.set)
        out_path = prepare_outdir(args.out, args.force)
        return _COMMANDS[args.command](args, cfg, out_path)
    except ValueError as exc:   # ConfigError and every value a constructor rejects
        print(f"config error: {exc}", file=sys.stderr)
        _write_failed(out_path, str(exc))
        return EXIT_CONFIG
    except (DivergenceError, FloatingPointError) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        _write_failed(out_path, str(exc))
        return EXIT_DIVERGENCE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        _write_failed(out_path, str(exc))
        return EXIT_IO


def _write_failed(out: Path | None, message: str) -> None:
    try:
        if out is not None and out.exists():
            (out / "FAILED").write_text(message + "\n")
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
