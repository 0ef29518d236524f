"""One workload run inside a fresh interpreter; started by run.py.

Usage: child.py --root DIR --workdir DIR --workload NAME --seed N
                --seconds S --trace 0|1

Imports `qshock.cli` from DIR/src, builds the workload's operations,
repeats whole passes over them until the time is spent, checks every
output, and prints one JSON object on its last stdout line.  Operation
output printed by the CLI is captured, not echoed.
"""

from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(cli, ops) -> dict:
    """Run every op once, in order, timing each; then check every output.

    The checks run after the timed loop, so a pass's time is the program's
    work only.  Every op of a pass writes its own output files.
    """
    latencies, results = [], []
    t_start = time.perf_counter()
    for op in ops:
        captured = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(captured):
                outcome = cli.main(list(op.argv))
        except Exception as exc:  # a crashing operation counts as failed
            outcome = exc
        latencies.append(time.perf_counter() - t0)
        results.append((outcome, captured.getvalue()))
    wall_s = time.perf_counter() - t_start
    evals, problems = 0, []
    for op, (outcome, stdout) in zip(ops, results):
        if isinstance(outcome, Exception):
            problems.append(f"{op.label}: {type(outcome).__name__}: {outcome}")
            continue
        try:
            n, problem = op.check(outcome, stdout)
        except (OSError, ValueError, IndexError) as exc:
            n, problem = 0, f"output check raised {type(exc).__name__}: {exc}"
        evals += n
        if problem:
            problems.append(f"{op.label}: {problem}")
    return {"wall_s": wall_s, "latencies": latencies, "evals": evals,
            "problems": problems}


class _Serial:
    """Forces map commands onto one worker, so every call stays in this process."""

    NAMES = ("energy_map", "capacity_map")

    def __init__(self, cli):
        self.cli = cli
        self.originals = {n: getattr(cli, n) for n in self.NAMES if hasattr(cli, n)}

    def __enter__(self):
        for name, fn in self.originals.items():
            def serial(*args, _fn=fn, **kwargs):
                if "threads" in kwargs:
                    kwargs["threads"] = 1
                return _fn(*args, **kwargs)
            setattr(self.cli, name, serial)
        return self

    def __exit__(self, *exc):
        for name, fn in self.originals.items():
            setattr(self.cli, name, fn)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(handle, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "start_method": multiprocessing.get_start_method(),
            "blas_threads": blas_threads(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _budget_left(t_run: float, seconds: float, spent_s: list[float]) -> bool:
    """Room for one more pass (or repetition) of median length in the run."""
    return time.perf_counter() - t_run + statistics.median(spent_s) <= seconds


def measure(cli, ops, seconds: float) -> dict:
    """End-to-end run: default settings, no tracing, whole passes.

    The first pass warms lazy set-up (first-call caches, imports done on
    first use) and is checked but not timed, unless it alone takes half
    the run; the timed passes then fill `seconds`.
    """
    first = run_pass(cli, ops)
    passes = [first] if first["wall_s"] >= seconds / 2 else []
    t_run = time.perf_counter()
    while not passes or _budget_left(t_run, seconds, [p["wall_s"] for p in passes]):
        passes.append(run_pass(cli, ops))
    latencies_ms = [1e3 * s for p in passes for s in p["latencies"]]
    return {
        "passes": passes if passes[0] is first else [first] + passes,
        "metrics": {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "evals_per_s": statistics.median(p["evals"] / p["wall_s"] for p in passes),
            "op_ms_p50": percentile(latencies_ms, 50),
            "op_ms_p90": percentile(latencies_ms, 90),
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def map_seconds(ops, p: dict) -> float:
    return sum(s for op, s in zip(ops, p["latencies"]) if op.kind == "map")


def measure_traced(cli, ops, seconds: float) -> dict:
    """Per-layer run: repetitions of an untraced and a traced serial pass.

    On map workloads each repetition also starts with a pass at the default
    worker count, for `mapper.parallel_efficiency`, and a serial warm-up
    pass comes first, so every compared pass runs warm (forked workers
    inherit what the warm-up set up).
    """
    from spans import Tracer
    from workloads import retried_cells

    has_maps = any(op.kind == "map" for op in ops)
    passes, default, untraced, traced, repetition_s = [], [], [], [], []
    if has_maps:
        with _Serial(cli):
            passes.append(run_pass(cli, ops))
    tracer = Tracer()
    t_run = time.perf_counter()
    while not repetition_s or _budget_left(t_run, seconds, repetition_s):
        t_repetition = time.perf_counter()
        if has_maps:
            default.append(run_pass(cli, ops))
        with _Serial(cli):
            untraced.append(run_pass(cli, ops))
            tracer.install()
            try:
                traced.append(run_pass(cli, ops))
            finally:
                tracer.restore()
        traced[-1]["summary"] = tracer.summary()
        traced[-1]["retried"] = retried_cells(ops)
        tracer.clear()
        repetition_s.append(time.perf_counter() - t_repetition)
    passes += default + untraced + traced
    metrics = layer_metrics(traced)
    metrics["tracing.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                     - statistics.median(u["wall_s"] for u in untraced))
    workers = os.cpu_count() or 1
    metrics["mapper.parallel_efficiency"] = (
        statistics.median(map_seconds(ops, u) for u in untraced)
        / (workers * statistics.median(map_seconds(ops, d) for d in default))
        if default else 0.0)
    return {"passes": passes, "metrics": metrics, "absent": tracer.absent}


def layer_metrics(traced: list[dict]) -> dict:
    """BENCHMARK.json's per-layer metrics, each the median over traced passes."""
    def per_pass(fn):
        return statistics.median(fn(t["summary"], t) for t in traced)

    def field(name, key):
        return lambda s, _t: s.get(name, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return lambda s, t: (scale * num(s, t) / den(s, t)) if den(s, t) else 0.0

    kernel_names = ("kernels.radiation", "kernels.commutator", "kernels.variance")

    def kernel_calls(s, _t):
        return sum(s.get(n, {}).get("calls", 0) for n in kernel_names)

    def kernel_hits(s, _t):
        return sum(s.get(n, {}).get("calls", 0) - s.get(n, {}).get("misses", 0)
                   for n in kernel_names if "misses" in s.get(n, {}))

    def kernel_self(s, _t):
        return sum(s.get(n, {}).get("self_s", 0.0) for n in kernel_names)

    m = {}
    for name in ("kernels.radiation", "kernels.commutator"):
        m[f"{name}.calls"] = per_pass(field(name, "calls"))
        m[f"{name}.self_s"] = per_pass(field(name, "self_s"))
        m[f"{name}.us_per_call"] = per_pass(ratio(field(name, "self_s"),
                                                  field(name, "calls"), 1e6))
    m["kernels.variance.calls"] = per_pass(field("kernels.variance", "calls"))
    m["kernels.variance.self_s"] = per_pass(field("kernels.variance", "self_s"))
    m["kernels.cache_hit_ratio"] = per_pass(ratio(kernel_hits, kernel_calls))
    m["kernels.share"] = per_pass(ratio(kernel_self, lambda _s, t: t["wall_s"]))
    for name in ("emitters.pair_correlation", "emitters.product_expectation",
                 "observables.energy_density", "observables.excitation_probability",
                 "observables.channel_capacity", "scenario.load", "scenario.build",
                 "oracle.exact", "oracle.expm"):
        m[f"{name}.calls"] = per_pass(field(name, "calls"))
        m[f"{name}.self_s"] = per_pass(field(name, "self_s"))
    for name in ("mapper.grid", "mapper.optimize", "mapper.sweep", "mapper.write",
                 "mapper.read", "cli", "oracle.discrete", "oracle.battery"):
        m[f"{name}.self_s"] = per_pass(field(name, "self_s"))
    m["mapper.write.bytes"] = per_pass(field("mapper.write", "bytes"))
    m["mapper.retried_cells"] = per_pass(lambda _s, t: t["retried"])
    m["oracle.expm.max_dim"] = per_pass(field("oracle.expm", "max_dim"))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import qshock.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"qshock imported from {cli.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 3

    from workloads import build
    ops = build(args.workload, Path(args.workdir), args.seed)
    run = (measure_traced if args.trace else measure)(cli, ops, args.seconds)
    problems = [msg for p in run["passes"] for msg in p["problems"]]
    attempted = sum(len(p["latencies"]) for p in run["passes"])
    print(json.dumps({"attempted": attempted, "failed": len(problems),
                      "problems": problems[:20], "passes": len(run["passes"]),
                      "ops_per_pass": len(ops), "metrics": run["metrics"],
                      "absent": run.get("absent", []), "machine": machine()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
