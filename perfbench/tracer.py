"""Outside-in span recorder for the stalefl benchmark.

The package itself has no timing hooks, so the traced run replaces the public
functions on the modules that *call* them with thin wrappers that record one
span per call: a name, start and end (``perf_counter_ns``), the enclosing span
and a work count (rounds, local steps, indicators drawn, ...). Spans stay in
compact per-thread arrays until the run ends; ``Tracer.save`` writes them once
and ``layer_report`` derives per-layer self times and counters from them.
"""

from __future__ import annotations

import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Span names. The prefix before the first "." is the layer, except that the
# metric spans called straight from engine.run (and everything under them)
# form the "metrics" layer.
RUN = "engine.run"
RUN_REPEATED = "engine.run_repeated"
RUN_GRID = "engine.run_grid"
SAMPLE_ROUND = "participation.sample_round"
LOCAL_TRAIN = "local_solver.local_train"
AGG_RULES = (
    "aggregation.fedavg_biased", "aggregation.u_fedavg",
    "aggregation.u_fedvarp", "aggregation.fedstale",
)
REFRESH = "aggregation.refresh_memory"
MEMORY_ERROR = "aggregation.memory_error"
LOSS, LOSS_GLOBAL = "objectives.loss", "objectives.loss_global"
GRAD, GRAD_GLOBAL = "objectives.gradient", "objectives.gradient_global"
STOCH_GRAD = "objectives.stochastic_gradient"
CLI_MAIN = "cli.main"
CLI_IO = (
    "cli_io.write_metrics_csv", "cli_io.export_trace_csv",
    "cli_io.write_manifest", "cli_io.grid_export_csv",
)
FRONTIER = "theory.track_frontier"
PASS = "harness.pass"

METRIC_ROOTS = (LOSS_GLOBAL, GRAD_GLOBAL, MEMORY_ERROR)
OBJECTIVE_SPANS = (LOSS, LOSS_GLOBAL, GRAD, GRAD_GLOBAL, STOCH_GRAD)


class _ThreadSpans:
    """Spans opened by one thread, in opening order (so parent < child)."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.stack: list[int] = []


class Tracer:
    """Records nested spans, one stack per thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def open(self, name_id: int, work: int) -> None:
        s = self._spans()
        s.name.append(name_id)
        s.parent.append(s.stack[-1] if s.stack else -1)
        s.work.append(work)
        s.end.append(0)
        s.stack.append(len(s.start))
        s.start.append(time.perf_counter_ns())

    def close(self) -> None:
        t = time.perf_counter_ns()
        s = self._local.spans
        s.end[s.stack.pop()] = t

    @contextmanager
    def span(self, name: str, work: int = 1):
        self.open(self._name_id(name), work)
        try:
            yield
        finally:
            self.close()

    def wrap(self, fn, name, work=None, global_name=None):
        """Wrap `fn` so each call records a span named `name`.

        `work(args, kwargs)` gives the span's work count (default 1). For an
        objective method, `global_name` is used instead of `name` when the
        call asks for the global objective (client argument None).
        """
        nid = self._name_id(name)
        gid = self._name_id(global_name) if global_name else nid
        tracer = self

        def wrapper(*args, **kwargs):
            sid = nid
            if global_name is not None:
                client = args[2] if len(args) > 2 else kwargs.get("client")
                if client is None:
                    sid = gid
            tracer.open(sid, 1 if work is None else work(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans of all threads as flat arrays; parents index the flat
        arrays and each thread's spans stay contiguous."""
        parts: dict[str, list[np.ndarray]] = {
            k: [] for k in ("name", "parent", "start", "end", "work", "thread")
        }
        offset = 0
        for tid, s in enumerate(self._threads):
            if s.stack:
                raise RuntimeError("spans still open when the trace was read")
            parent = np.frombuffer(s.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            parts["parent"].append(parent)
            parts["name"].append(np.frombuffer(s.name, dtype=np.uint16))
            for key in ("start", "end", "work"):
                parts[key].append(np.frombuffer(getattr(s, key), dtype=np.int64))
            parts["thread"].append(np.full(len(parent), tid, dtype=np.int32))
            offset += len(parent)
        return {k: np.concatenate(v) for k, v in parts.items() if v}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _arg(i, key):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[key]
    return get


@contextmanager
def instrumented(tracer: Tracer):
    """Patch the package's public functions with span-recording wrappers and
    restore the originals on exit.

    A function is patched on every module that looks it up at call time:
    ``engine`` imports ``sample_round`` and ``local_train`` by name, and
    ``cli`` imports ``run``, ``run_repeated``, ``run_grid``,
    ``write_metrics_csv``, ``export_trace_csv`` and ``track_frontier``.
    """
    import stalefl.aggregation as aggregation
    import stalefl.cli as cli
    import stalefl.engine as engine
    import stalefl.objectives as objectives
    import stalefl.theory as theory

    cfg_arg = _arg(0, "cfg")
    patches: list[tuple[object, str, object]] = []

    def patch(owners, attr, name, work=None, global_name=None):
        original = getattr(owners[0], attr)
        wrapped = tracer.wrap(original, name, work, global_name)
        for owner in owners:
            if owner.__dict__.get(attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the expected function")
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    patch([engine, cli], "run", RUN, lambda a, k: cfg_arg(a, k).rounds)
    patch([engine, cli], "run_repeated", RUN_REPEATED)
    patch([engine, cli], "run_grid", RUN_GRID,
          lambda a, k: len(_arg(2, "participation_axis")(a, k))
          * len(_arg(3, "heterogeneity_axis")(a, k)))
    patch([engine], "sample_round", SAMPLE_ROUND,
          lambda a, k: _arg(0, "profile")(a, k).n_clients)
    patch([engine], "local_train", LOCAL_TRAIN,
          lambda a, k: _arg(3, "cfg")(a, k).local_steps)
    for rule in AGG_RULES:
        patch([aggregation], rule.split(".", 1)[1], rule)
    patch([aggregation], "refresh_memory", REFRESH)
    patch([aggregation], "memory_error", MEMORY_ERROR)
    for cls in (objectives.QuadraticObjective, objectives.SoftmaxObjective, theory.HardInstance):
        patch([cls], "loss", LOSS, global_name=LOSS_GLOBAL)
        patch([cls], "gradient", GRAD, global_name=GRAD_GLOBAL)
        patch([cls], "stochastic_gradient", STOCH_GRAD)
    patch([cli], "main", CLI_MAIN)
    patch([engine, cli], "write_metrics_csv", CLI_IO[0])
    patch([cli], "export_trace_csv", CLI_IO[1])
    patch([cli], "write_manifest", CLI_IO[2])
    patch([engine.GridResult], "export_csv", CLI_IO[3])
    patch([theory, cli], "track_frontier", FRONTIER,
          lambda a, k: len(_arg(1, "schedule")(a, k)))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_report(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times (s) and work counts derived from the spans.

    A span's self time is its duration minus the durations of its direct
    children. Metric spans (global loss, global gradient and memory error
    called straight from engine.run) and all spans under them are charged to
    the "metrics" layer, so the layers partition the traced time of a
    single-threaded pass.
    """
    a = tracer.arrays()
    if not a:
        raise RuntimeError("the traced pass recorded no spans")
    n = len(a["start"])
    id_of = {nm: i for i, nm in enumerate(tracer.names)}
    ids = a["name"].astype(np.int64)
    parent = a["parent"]
    has_parent = parent >= 0
    parent_ids = np.where(has_parent, ids[np.maximum(parent, 0)], -1)
    dur = (a["end"] - a["start"]).astype(np.float64)
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child_sum

    def named(span_ids, *span_names):
        return np.isin(span_ids, [id_of[s] for s in span_names if s in id_of])

    metric_root = named(ids, *METRIC_ROOTS) & named(parent_ids, RUN)
    in_metrics = metric_root.copy()
    while True:   # propagate down; spans nest only a few levels deep
        grown = in_metrics | (has_parent & in_metrics[np.maximum(parent, 0)])
        if np.array_equal(grown, in_metrics):
            break
        in_metrics = grown

    layer_names = sorted({nm.split(".", 1)[0] for nm in tracer.names}) + ["metrics"]
    layer_of_id = np.array([layer_names.index(nm.split(".", 1)[0]) for nm in tracer.names])
    layer = layer_of_id[ids]
    layer[in_metrics] = len(layer_names) - 1

    def self_s(lay: str) -> float:
        if lay not in layer_names:
            return 0.0
        return float(self_ns[layer == layer_names.index(lay)].sum()) / 1e9

    def work(span_name: str) -> int:
        return int(a["work"][named(ids, span_name)].sum())

    outer_obj = ~in_metrics & ~named(parent_ids, *OBJECTIVE_SPANS)
    roots_ns = float(dur[~has_parent].sum())
    out = {
        "participation.self_s": self_s("participation"),
        "participation.draws": work(SAMPLE_ROUND),
        "local_solver.self_s": self_s("local_solver"),
        "local_solver.steps": work(LOCAL_TRAIN),
        "objectives.self_s": self_s("objectives"),
        "objectives.grad_evals": int(np.count_nonzero(outer_obj & named(ids, GRAD, STOCH_GRAD))),
        "aggregation.self_s": self_s("aggregation"),
        "aggregation.calls": int(np.count_nonzero(~in_metrics & named(ids, *AGG_RULES, REFRESH))),
        "engine.metrics_s": float(dur[metric_root].sum()) / 1e9,
        "engine.metric_evals": int(np.count_nonzero(metric_root)),
        "engine.self_s": self_s("engine"),
        "engine.runs": int(np.count_nonzero(named(ids, RUN))),
        "engine.rounds": work(RUN),
        "engine.grid.cells": work(RUN_GRID),
        "cli.self_s": self_s("cli"),
        "cli.io_s": self_s("cli_io"),
        "theory.self_s": self_s("theory"),
        "theory.frontier_steps": work(FRONTIER),
        "trace.spans": n,
        "trace.accounted_frac": 1.0 - self_s("harness") * 1e9 / roots_ns,
    }

    def per(num: str, den: str, scale: float) -> float:
        return out[num] * scale / out[den] if out[den] else 0.0

    out["participation.ns_per_draw"] = per("participation.self_s", "participation.draws", 1e9)
    out["local_solver.us_per_step"] = per("local_solver.self_s", "local_solver.steps", 1e6)
    out["objectives.us_per_grad_eval"] = per("objectives.self_s", "objectives.grad_evals", 1e6)
    out["aggregation.us_per_call"] = per("aggregation.self_s", "aggregation.calls", 1e6)
    out["engine.us_per_round"] = per("engine.self_s", "engine.rounds", 1e6)
    out["theory.ns_per_frontier_step"] = per("theory.self_s", "theory.frontier_steps", 1e9)
    return out
