"""stalefl benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload quad_repeat --seed 0 --seconds 35 --trace 0

With ``--trace 0`` it times repeated passes of the workload for ``--seconds``
and reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
runs one untraced and one traced pass and reports the per-layer metrics. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (output checks) and ``metrics``. Spans and a full
result record (environment, checks, output digests) go to ``perfbench/.work``.
"""

import os

# One BLAS thread per process, set before numpy loads, so that the grid's
# worker threads are the only parallelism.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import PASS, Tracer, instrumented, layer_report  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_PASSES = 3
REFERENCE_LOOPS = 2_500_000   # about 0.25 s
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes, for the harness smoke test")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def digest_dir(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop that shares no code with stalefl.

    Timed before and after every pass, it shows how fast the host runs
    interpreted code at that moment; other load on the host lowers that speed
    by up to a third, for seconds to minutes at a time.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def timed_pass(wl, out: Path, threads: int, refs: list[float], tracer=None):
    """Run one pass into an empty `out`, then time the reference loop.

    `refs` holds the reference time taken just before the pass and gets the
    one taken just after it. Returns (result, wall s, mean of those two
    reference times, cpu s, digests).
    """
    fresh_dir(out)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer is None:
        result = wl.run_pass(out, threads)
    else:
        with instrumented(tracer), tracer.span(PASS):
            result = wl.run_pass(out, threads)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    refs.append(reference_seconds())
    wl.export(out, result)
    return result, wall, (refs[-2] + refs[-1]) / 2, cpu, digest_dir(out)


def setup_seconds(wl) -> list[float]:
    builds = json.dumps(wl.setup_builds())
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), builds],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def program_io(out: Path, result) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()
             and str(p.relative_to(out)) not in result.harness_files]
    return sum(p.stat().st_size for p in files), len(files)


def measure_end_to_end(wl, work: Path, seconds: float, checks: list) -> dict:
    setup = setup_seconds(wl)
    walls, pass_refs, digests, out = [], [], [], work / "out"
    refs = [reference_seconds()]
    begin = time.perf_counter()
    # A few passes at least; then start another pass only while it is
    # expected to end inside the window.
    while len(walls) < MIN_PASSES or time.perf_counter() - begin + statistics.median(walls) <= seconds:
        result, wall, ref, _, dig = timed_pass(wl, out, wl.threads, refs)
        walls.append(wall)
        pass_refs.append(ref)
        digests.append(dig)
    same = all(d == digests[0] for d in digests)
    checks.append(("repeat_identical", same,
                   f"{len(digests)} passes, {'identical' if same else 'different'} outputs"))
    checks.extend(wl.checks(out, result))
    wall_s = statistics.median(walls)
    return {
        "metrics": {
            # The passes' walls in reference units, weighted by length. Other
            # load on the host moves the raw wall by up to a third; it moves
            # the reference loop timed around each pass too, and the ratio
            # far less.
            "wall_ref": sum(walls) / sum(pass_refs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "info": {
            "wall_s": (wall_s, "s"),
            "rounds_per_s": (result.rounds / wall_s, "rounds/s"),
        },
        "pass_walls_s": walls,
        "reference_s": refs,
        "setup_runs_s": setup,
        "digests": digests[0],
    }


def measure_per_layer(wl, work: Path, checks: list) -> dict:
    refs = [reference_seconds()]
    result, wall_u, ref_u, cpu_u, dig_u = timed_pass(wl, work / "out", wl.threads, refs)
    checks.extend(wl.checks(work / "out", result))
    # Walls are compared in reference units, i.e. at the host's speed of the moment.
    rel_u = rel_1 = wall_u / ref_u
    speedup = 0.0
    if wl.threads > 1:
        _, wall_1, ref_1, _, dig1 = timed_pass(wl, work / "out_threads1", 1, refs)
        rel_1 = wall_1 / ref_1
        speedup = rel_1 / rel_u
        checks.append(("threads_1_byte_equal", dig1 == dig_u,
                       f"--threads {wl.threads} and --threads 1 outputs byte-equal"))
    # The traced pass runs single-threaded so that self times partition its wall time.
    tracer = Tracer()
    _, wall_t, ref_t, _, dig_t = timed_pass(wl, work / "out_traced", 1, refs, tracer)
    checks.append(("traced_byte_equal", dig_t == dig_u, "traced and untraced outputs byte-equal"))
    tracer.save(work / "spans.npz")

    metrics = layer_report(tracer)
    computed = wl.per_round_metrics * metrics["engine.rounds"]
    useful = wl.useful_metric_values(work / "out", result)
    metrics["cli.bytes_written"], metrics["cli.files_written"] = program_io(work / "out", result)
    metrics.update({
        "engine.metrics_useful_frac": useful / computed if computed else 0.0,
        "engine.grid.cpu_util": cpu_u / (wall_u * wl.threads),
        "engine.grid.thread_speedup": speedup,
        "trace.overhead_frac": wall_t / ref_t / rel_1 - 1.0,
    })
    return {
        "metrics": metrics,
        "info": {"wall_s": (wall_u, "s"), "traced_wall_s": (wall_t, "s")},
        "reference_s": refs,
        "digests": dig_u,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stalefl" / "__init__.py").is_file():
        print(f"error: no stalefl sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = fresh_dir(HERE / ".work" / args.workload)
    wl = WORKLOADS[args.workload](work, args.seed, args.smoke)
    checks: list[tuple[str, bool, str]] = []   # (name, ok, detail)
    if args.trace:
        record = measure_per_layer(wl, work, checks)
    else:
        record = measure_end_to_end(wl, work, args.seconds, checks)

    if set(record["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(record['metrics'])} do not match BENCHMARK.json")
    failed = sum(1 for _, ok, _ in checks if not ok)
    record.update({
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "environment": environment(),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "failed_frac": failed / len(checks),
    })
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# environment {json.dumps(record['environment'])}")
    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    print(f"failed_frac = {record['failed_frac']!r} ratio ({failed} of {len(checks)} checks)")
    for name, (value, unit) in record["info"].items():
        print(f"{name} = {value!r} {unit} (raw; not in BENCHMARK.json)")
    for name, digest in record["digests"].items():
        print(f"sha256 {digest}  {name}")
    for name, value in record["metrics"].items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
