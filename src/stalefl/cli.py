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
import os
import sys
from dataclasses import replace
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


_SCHEMA: dict[str, dict[str, type]] = {
    "objective": {
        "kind": str, "noise_var": float, "centers": str, "hessians": str,
        "n_clients": int, "samples_per_client": int, "swap_fraction": float,
        "class_a": int, "class_b": int, "feature_dim": int, "class_count": int,
        "holdout_fraction": float, "data_seed": int, "cluster_std": float,
        "dim": int, "horizon": int, "smoothness": float,
    },
    "participation": {
        "kind": str, "n_clients": int, "p_min_group": float,
        "group2_size": int, "seed": int, "probs": str,
    },
    "local": {"local_steps": int, "client_lr": float, "batch_size": int},
    "aggregator": {
        "rule": str, "beta": float, "weights_source": str, "weight_cap": float,
    },
    "run": {
        "rounds": int, "server_lr": float, "master_seed": int, "init": str,
        "seeds": str,
    },
    "grid": {
        "ratios": str, "swap_fractions": str, "betas": str, "seeds": str,
        "metric": str, "client_lr_grid": str,
    },
    "theory": {
        "smoothness": float, "sigma_sq": float, "sg_sq": float,
        "p_var": float, "p_avg": float, "p_min": float, "n_clients": int,
        "f_init_gap": float, "h_init": float, "a1": float, "a2": float,
        "betas": str, "rounds": int,
    },
    "lowerbound": {
        "dim": int, "horizon": int, "smoothness": float, "taus": str,
        "rounds": int, "p_min": float,
    },
}

_DEFAULTS: dict[str, dict[str, str]] = {
    "objective": {
        "kind": "quadratic2d", "noise_var": "0", "centers": "5,0; 0,5",
        "n_clients": "24", "samples_per_client": "200", "swap_fraction": "0",
        "class_a": "0", "class_b": "1", "feature_dim": "10", "class_count": "10",
        "holdout_fraction": "0.2", "data_seed": "1", "cluster_std": "1.0",
        "dim": "201", "horizon": "100", "smoothness": "1.0",
    },
    "participation": {
        "kind": "two_group", "n_clients": "2", "p_min_group": "0.01",
        "group2_size": "1", "seed": "0",
    },
    "local": {"local_steps": "5", "client_lr": "0.01", "batch_size": "32"},
    "aggregator": {"rule": "fedstale", "beta": "0.5", "weights_source": "exact"},
    "run": {
        "rounds": "100", "server_lr": "1.0", "master_seed": "1",
        "init": "zeros", "seeds": "1",
    },
}


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(";", ",").split(",") if v.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def load_config(path: str | Path, overrides: list[str] | None = None) -> dict[str, dict[str, str]]:
    """Read INI or JSON config, apply --set overrides, validate keys/types."""
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
    raw = {section: {k: str(v) for k, v in kv.items()} for section, kv in data.items()}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        if "." in key:
            section, name = key.split(".", 1)
        else:
            section, name = _find_section(key)
        raw.setdefault(section, {})[name] = value

    cfg: dict[str, dict[str, str]] = {s: dict(v) for s, v in _DEFAULTS.items()}
    for section, kv in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        cfg.setdefault(section, {})
        for key, value in kv.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            try:
                _SCHEMA[section][key](value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc
            cfg[section][key] = value
    return cfg


def _find_section(key: str) -> tuple[str, str]:
    hits = [s for s, kv in _SCHEMA.items() if key in kv]
    if len(hits) != 1:
        raise ConfigError(f"ambiguous or unknown override key {key!r}; use section.key")
    return hits[0], key


def _softmax_objective(
    o: dict[str, str], n_clients: int, swap_fraction: float, group2: tuple[int, ...] | None,
) -> SoftmaxObjective:
    ds = build_label_swap_dataset(
        n_clients, int(o["samples_per_client"]), swap_fraction,
        (int(o["class_a"]), int(o["class_b"])),
        np.random.default_rng(int(o["data_seed"])),
        class_count=int(o["class_count"]), feature_dim=int(o["feature_dim"]),
        cluster_std=float(o["cluster_std"]), group2=group2,
    )
    return SoftmaxObjective(ds, float(o["holdout_fraction"]))


def build_objective(cfg: dict[str, dict[str, str]], profile: ParticipationProfile):
    o = cfg["objective"]
    kind = o["kind"]
    if kind not in ("quadratic2d", "softmax", "hard_instance"):
        raise ConfigError(f"unknown objective.kind {kind!r}")
    try:
        if kind == "quadratic2d":
            centers = [np.array(_parse_floats(c)) for c in o["centers"].split(";")]
            if "hessians" in o:
                hessians = [np.diag(_parse_floats(h)) for h in o["hessians"].split(";")]
            else:
                hessians = [np.eye(len(centers[0]))] * len(centers)
            obj = QuadraticObjective(hessians, centers, float(o["noise_var"]))
        elif kind == "softmax":
            obj = _softmax_objective(
                o, int(o["n_clients"]), float(o["swap_fraction"]), profile.group2
            )
        else:
            obj = HardInstance(
                int(o["dim"]), int(o["horizon"]), float(o["smoothness"]), profile.n_clients
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if obj.n_clients != profile.n_clients:
        raise ConfigError(
            f"the objective has {obj.n_clients} clients but the participation "
            f"profile has {profile.n_clients}"
        )
    return obj


def build_profile(cfg: dict[str, dict[str, str]]) -> ParticipationProfile:
    p = cfg["participation"]
    if p["kind"] == "explicit" and "probs" not in p:
        raise ConfigError("participation.probs required for kind=explicit")
    try:
        if p["kind"] == "explicit":
            return ParticipationProfile(np.array(_parse_floats(p["probs"])))
        if p["kind"] == "two_group":
            if float(p["p_min_group"]) >= 1.0:
                return ParticipationProfile(np.ones(int(p["n_clients"])))
            return make_two_group_profile(
                int(p["n_clients"]), float(p["p_min_group"]),
                int(p["group2_size"]), int(p["seed"]),
            )
    except ValueError as exc:
        raise ConfigError(f"participation: {exc}") from exc
    raise ConfigError(f"unknown participation.kind {p['kind']!r}")


def build_train_config(
    cfg: dict[str, dict[str, str]], profile: ParticipationProfile, dim: int,
    replay_schedule: np.ndarray | None = None,
) -> TrainConfig:
    r, l, a = cfg["run"], cfg["local"], cfg["aggregator"]
    init = r["init"]
    init_point = (
        np.zeros(dim) if init == "zeros" else np.array(_parse_floats(init))
    )
    try:
        local = LocalConfig(int(l["local_steps"]), float(l["client_lr"]), int(l["batch_size"]))
        aggregator = AggregatorConfig(
            a["rule"], float(a["beta"]), a["weights_source"],
            float(a["weight_cap"]) if "weight_cap" in a else None,
        )
        return TrainConfig(
            int(r["rounds"]), float(r["server_lr"]), local, aggregator, profile,
            int(r["master_seed"]), init_point, replay_schedule=replay_schedule,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_manifest(cfg: dict[str, dict[str, str]], out: Path, extra: dict | None = None) -> None:
    cp = configparser.ConfigParser()
    for section, kv in cfg.items():
        cp[section] = {k: str(v) for k, v in kv.items()}
    with open(out / "manifest.txt", "w") as f:
        f.write(f"# stalefl {__version__} run manifest; reusable as --config\n")
        if extra:
            for k, v in extra.items():
                f.write(f"# {k}: {v}\n")
        cp.write(f)


def _section(
    cfg: dict[str, dict[str, str]], name: str, required: tuple[str, ...]
) -> dict[str, str]:
    """The [name] section of a subcommand, with its required keys present."""
    sec = cfg.get(name)
    if not sec:
        raise ConfigError(f"{name} mode requires a [{name}] section")
    missing = [k for k in required if k not in sec]
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


def cmd_run(args, replay: bool = False) -> int:
    cfg = load_config(args.config, args.set)
    out = prepare_outdir(args.out, args.force)
    profile = build_profile(cfg)
    obj = build_objective(cfg, profile)
    schedule = None
    if replay:
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


def cmd_repeat(args) -> int:
    cfg = load_config(args.config, args.set)
    out = prepare_outdir(args.out, args.force)
    seeds = _parse_ints(args.seeds or cfg["run"]["seeds"])
    profile = build_profile(cfg)
    obj = build_objective(cfg, profile)
    tc = build_train_config(cfg, profile, obj.dim)
    rep = run_repeated(tc, obj, seeds, comparability=args.comparability)
    for seed, one in zip(rep.seeds, rep.runs):
        write_metrics_csv(one, out / f"metrics_seed{seed}.csv")
    with open(out / "mean_curve.csv", "w") as f:
        f.write("round,loss_mean,loss_stderr\n")
        for t, (m, se) in enumerate(zip(rep.mean_loss_curve, rep.stderr_loss_curve), start=1):
            f.write(f"{t},{m:.17g},{se:.17g}\n")
    write_manifest(cfg, out, {"seeds": ",".join(map(str, seeds))})
    print(f"mean_final_loss={rep.mean_final_loss:.6g} seeds={len(seeds)}")
    return EXIT_OK


def cmd_grid(args) -> int:
    cfg = load_config(args.config, args.set)
    out = prepare_outdir(args.out, args.force)
    g = _section(cfg, "grid", ("ratios", "swap_fractions", "betas"))
    seeds = _parse_ints(args.seeds or g.get("seeds", "1"))
    profile = build_profile(cfg)
    o = cfg["objective"]
    n_clients = int(cfg["participation"]["n_clients"])
    if o["kind"] != "softmax":
        raise ConfigError(f"grid mode needs objective.kind = softmax, not {o['kind']!r}")
    if int(o["n_clients"]) != n_clients:
        raise ConfigError(
            f"the objective has {o['n_clients']} clients but the participation "
            f"profile has {n_clients}"
        )
    tc = build_train_config(cfg, profile, 1)
    tc = replace(tc, init_point=np.zeros(1))
    lr_grid = _parse_floats(g["client_lr_grid"]) if "client_lr_grid" in g else None
    grid = run_grid(
        tc, lambda swap, group2, seed: _softmax_objective(o, n_clients, swap, group2),
        _parse_floats(g["ratios"]), _parse_floats(g["swap_fractions"]),
        _parse_floats(g["betas"]), seeds,
        n_clients=n_clients, metric_mode=g.get("metric", "accuracy"),
        client_lr_grid=lr_grid, threads=args.threads,
    )
    grid.export_csv(out / "grid.csv")
    write_manifest(cfg, out, {"seeds": ",".join(map(str, seeds))})
    opts = {
        (c.ratio, c.swap_fraction): c.beta for c in grid.cells if c.beta_opt_flag
    }
    print("beta_opt per (ratio, swap): " + ", ".join(
        f"({r:g},{s:g})->{b:g}" for (r, s), b in sorted(opts.items())
    ))
    return EXIT_OK


def cmd_theory(args) -> int:
    cfg = load_config(args.config, args.set)
    out = prepare_outdir(args.out, args.force)
    t = _section(
        cfg, "theory", ("smoothness", "sigma_sq", "sg_sq", "p_avg", "p_min", "n_clients")
    )
    l = cfg["local"]
    betas = _parse_floats(t.get("betas", "0,0.2,0.5,0.8,1"))
    rows = []
    for beta in betas:
        inp = BoundInputs(
            float(t["smoothness"]), float(t["sigma_sq"]), float(t["sg_sq"]),
            float(t.get("p_var", "inf")), float(t["p_avg"]), float(t["p_min"]),
            int(t["n_clients"]), int(l["local_steps"]), float(l["client_lr"]),
            float(cfg["run"]["server_lr"]), int(t.get("rounds", cfg["run"]["rounds"])),
            beta, float(t.get("f_init_gap", "1")), float(t.get("h_init", "0")),
            float(t.get("a1", "1")), float(t.get("a2", "1")),
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
    print(f"wrote bound table for {len(betas)} beta values (unit-constant convention)")
    return EXIT_OK


def cmd_lowerbound(args) -> int:
    cfg = load_config(args.config, args.set)
    out = prepare_outdir(args.out, args.force)
    lb = _section(cfg, "lowerbound", ("dim", "horizon", "smoothness"))
    dim, horizon = int(lb["dim"]), int(lb["horizon"])
    smoothness = float(lb["smoothness"])
    taus = _parse_ints(lb.get("taus", "2,3,4,5,6,7,8,9,10"))
    rounds = int(lb.get("rounds", "200"))
    inst = HardInstance(dim, horizon, smoothness, 2)
    lines = ["tau,t,k,k_bound,violation"]
    violations = 0
    for tau in taus:
        ks = track_frontier(inst, fastest_schedule(rounds, tau))
        for t, k in enumerate(ks):
            bound = frontier_bound(t, tau)
            bad = int(k > bound)
            violations += bad
            lines.append(f"{tau},{t},{k},{bound},{bad}")
    with open(out / "frontier.csv", "w") as f:
        f.write("\n".join(lines) + "\n")
    p_min = float(lb.get("p_min", "0.1"))
    env = lower_bound_curve(p_min, rounds, inst.f_gap(), smoothness)
    with open(out / "envelope.csv", "w") as f:
        f.write("t,envelope,expected_frontier_cap\n")
        for t, v in enumerate(env):
            f.write(f"{t},{v:.17g},{expected_frontier_cap(p_min, t):.17g}\n")
    write_manifest(cfg, out)
    print(f"frontier table written; bound violations={violations}")
    return EXIT_OK


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
    for name in ("run", "repeat", "grid", "theory", "lowerbound", "replay"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--force", action="store_true")
        if name in ("repeat", "grid"):
            p.add_argument("--seeds", default=None)
        if name == "repeat":
            p.add_argument("--comparability", action="store_true")
        if name == "grid":
            p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        if name == "replay":
            p.add_argument("--trace", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    out_path: Path | None = None
    try:
        args = make_parser().parse_args(argv)
        out_path = Path(args.out)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "replay":
            return cmd_run(args, replay=True)
        if args.command == "repeat":
            return cmd_repeat(args)
        if args.command == "grid":
            return cmd_grid(args)
        if args.command == "theory":
            return cmd_theory(args)
        if args.command == "lowerbound":
            return cmd_lowerbound(args)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
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
