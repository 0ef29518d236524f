"""Spans recorded around calls into qshock, from outside the package.

`Tracer.install()` replaces each public name listed in `SPANS` at the place
its caller looks it up (a module global or a class attribute) with a
wrapper that records a span: name, start, end and parent.  Spans stay in
memory until `summary()`.  A name missing at some commit is listed in
`absent` and skipped.  `restore()` puts the originals back.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

from workloads import written_bytes

# (module, attribute path at the call site, span name)
SPANS = (
    ("qshock.cli", "main", "cli"),
    ("qshock.cli", "load_scenario_file", "scenario.load"),
    ("qshock.cli", "energy_map", "mapper.grid"),
    ("qshock.cli", "capacity_map", "mapper.grid"),
    ("qshock.cli", "diff_map", "mapper.grid"),
    ("qshock.cli", "coupling_sweep", "mapper.sweep"),
    ("qshock.cli", "optimize_phases", "mapper.optimize"),
    ("qshock.cli", "write_grid_csv", "mapper.write"),
    ("qshock.cli", "write_sweep_csv", "mapper.write"),
    ("qshock.cli", "read_grid_csv", "mapper.read"),
    ("qshock.cli", "run_standard_comparisons", "oracle.battery"),
    ("qshock.mapper", "energy_density", "observables.energy_density"),
    ("qshock.mapper", "excitation_probability", "observables.excitation_probability"),
    ("qshock.mapper", "channel_capacity", "observables.channel_capacity"),
    ("qshock.mapper", "w_state", "scenario.build"),
    ("qshock.scenario", "Scenario.with_state", "scenario.build"),
    ("qshock.scenario", "Scenario.with_receiver", "scenario.build"),
    ("qshock.observables", "pair_correlation", "emitters.pair_correlation"),
    ("qshock.observables", "product_expectation", "emitters.product_expectation"),
    ("qshock.oracle", "pair_correlation", "emitters.pair_correlation"),
    ("qshock.oracle", "product_expectation", "emitters.product_expectation"),
    ("qshock.kernels", "KernelSet.radiation_time", "kernels.radiation"),
    ("qshock.kernels", "KernelSet.radiation_radial", "kernels.radiation"),
    ("qshock.kernels", "KernelSet.commutator", "kernels.commutator"),
    ("qshock.kernels", "KernelSet.vacuum_variance", "kernels.variance"),
    ("qshock.oracle", "exact_probability", "oracle.exact"),
    ("qshock.oracle", "exact_energy", "oracle.exact"),
    ("qshock.oracle", "discrete_probability", "oracle.discrete"),
    ("qshock.oracle", "discrete_energy", "oracle.discrete"),
    ("qshock.oracle", "expm", "oracle.expm"),
)


def _kernel_probe(args, _kwargs):
    """Counts a cache miss when the call grows the KernelSet's cache."""
    size = getattr(args[0], "cache_size", None)
    if size is None:
        return None
    before = size()
    return lambda _result: {"misses": int(size() > before)}


def _expm_probe(args, _kwargs):
    dim = int(getattr(args[0], "shape", (0,))[0])
    return lambda _result: {"max_dim": dim}


def _write_probe(args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is None:
        return None
    return lambda _result: {"bytes": written_bytes(path)}


PROBES = {"kernels.radiation": _kernel_probe, "kernels.commutator": _kernel_probe,
          "kernels.variance": _kernel_probe, "oracle.expm": _expm_probe,
          "mapper.write": _write_probe}


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted path inside a module."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, info]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, original, name: str):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)

        def traced(*args, **kwargs):
            after = probe(args, kwargs) if probe else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after:
                record[4] = after(result)
            return result

        return traced

    def install(self) -> "Tracer":
        for module, path, name in SPANS:
            try:
                owner, attr = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None or not callable(original):
                self.absent.append(f"{module}.{path}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def clear(self) -> None:
        self.spans.clear()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and summed probe counts.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children nest inside it.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                    "self_s": 0.0})
        for i, (name, start, end, _parent, info) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            for key, value in (info or {}).items():
                if key.startswith("max_"):
                    entry[key] = max(entry.get(key, 0), value)
                else:
                    entry[key] = entry.get(key, 0) + value
        return dict(out)
