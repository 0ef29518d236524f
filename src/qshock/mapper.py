"""Grid evaluation of observables, sweeps, and phase optimization.

Maps mirror the planar scans of the study: a window in the (x, y) plane
at z = 0, energy density at the scenario's evaluation time or channel
capacity as a function of the receiver location.  An energy map is one
energy_density call per y row.  Capacity cells go through the kernel
quadrature; their rows run serially or in a process pool with identical
results, because every cell is a pure function of the scenario and
quadrature settings, and isolated failed cells are retried.  Only cells
in causal contact with at least one emitter (kernels._in_causal_contact)
reach the quadrature; every other cell is p = q and capacity 0 exactly,
and the sidecar counts the former as cells_in_contact.

Sweeps and phase searches hoist the geometry: the kernels at the fixed
receiver or point are evaluated once per call, and each sample or
evaluation only runs the emitter-register algebra.  A sweep passes all
its couplings to product_expectation as one (samples, n) batch of angles;
at a receiver no emitter is in causal contact with, neither runs any
quadrature or register algebra and every capacity is exactly 0.

CSV layout: first row is the x axis (blank corner cell), each following
row starts with its y value; numbers are printed with 9 significant
digits in scientific notation so identical runs are byte-identical.  A
JSON sidecar carries the scenario fingerprint, quantity tag, wall time,
any quadrature tolerance and, for capacity maps, cells_in_contact.

Imports that only some calls need are made inside those calls:
scipy.optimize in optimize_phases (for n >= 2 emitters) and
concurrent.futures in _run_rows (capacity maps with threads > 1), so
importing this module loads neither.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .kernels import QuadratureError, QuadratureSettings, _in_causal_contact
from .emitters import MonopolePhase
from .observables import (KernelBank, ChannelPoint, channel_capacity, energy_density,
                          excitation_probability, _emission_energy, _emission_kernels,
                          _receiver_kernels, _receiver_probability, _signal_angles,
                          _vacuum_factor)
from .scenario import Scenario, scenario_fingerprint, w_state

__all__ = [
    "GridMap",
    "SweepCurve",
    "PhaseOptimum",
    "Window",
    "DEFAULT_WINDOW",
    "DEFAULT_RESOLUTION",
    "energy_map",
    "capacity_map",
    "diff_map",
    "coupling_sweep",
    "optimize_phases",
    "write_grid_csv",
    "read_grid_csv",
    "write_sweep_csv",
]

Window = tuple[float, float, float, float]  # (xmin, xmax, ymin, ymax)
DEFAULT_WINDOW: Window = (0.0, 16.0, 0.0, 16.0)
DEFAULT_RESOLUTION = 160
_FMT = "{:.8e}"  # 9 significant digits, locale-independent
_MAX_FAILURE_FRACTION = 1e-3


@dataclass(frozen=True)
class GridMap:
    """A 2-D scalar field sampled on an (x, y) window."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray  # shape (len(y), len(x)), row per y sample
    quantity: str       # energy | capacity | delta
    fingerprint: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (y.size, x.size):
            raise ValueError(f"value matrix {v.shape} does not match axes "
                             f"({y.size}, {x.size})")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        for arr in (x, y, v):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SweepCurve:
    """Capacity versus receiver coupling strength, with its argmax."""

    couplings: np.ndarray
    capacities: np.ndarray
    argmax_index: int
    argmax_coupling: float
    argmax_capacity: float
    fingerprint: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lam = np.asarray(self.couplings, dtype=float)
        cap = np.asarray(self.capacities, dtype=float)
        if lam.shape != cap.shape or lam.ndim != 1:
            raise ValueError("couplings and capacities must be equal-length vectors")
        if int(np.argmax(cap)) != self.argmax_index:
            raise ValueError("argmax index inconsistent with the data")
        lam.setflags(write=False)
        cap.setflags(write=False)
        object.__setattr__(self, "couplings", lam)
        object.__setattr__(self, "capacities", cap)


@dataclass(frozen=True)
class PhaseOptimum:
    """Best-found emitter phases for an objective; not a certified optimum."""

    phases: tuple[float, ...]
    value: float
    objective: str
    evaluations: int
    converged: bool
    restarts: int
    trace: tuple[tuple[tuple[float, ...], float], ...]


def _axes(window: Window, resolution) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(resolution, int):
        nx = ny = resolution
    else:
        nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be >= 2 per axis")
    xmin, xmax, ymin, ymax = window
    return np.linspace(xmin, xmax, nx), np.linspace(ymin, ymax, ny)


def _run_rows(row, ys, threads: int):
    """Map row(y) over the y samples, serially or in processes."""
    if threads <= 1:
        return [row(yv) for yv in ys]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(row, ys, chunksize=1))


# Cells and rows are module-level functions bound with functools.partial, so
# a process pool pickles them together with all the state they use and the
# workers need nothing from the parent process (any start method works).

def _capacity_cell(scn: Scenario, q: float, xv, yv, bank: KernelBank) -> float:
    moved = scn.with_receiver(scn.receiver.moved_to((xv, yv, 0.0)))
    p = excitation_probability(moved, couple=True, bank=bank)
    return channel_capacity(ChannelPoint(p, q))


def _row(cell, xs: np.ndarray, settings: QuadratureSettings, yv):
    """One y row of cells with a fresh kernel cache; failed cells become NaN."""
    bank = KernelBank(settings)
    row = np.empty(xs.size)
    failures = []
    for ix, xv in enumerate(xs):
        try:
            row[ix] = cell(xv, yv, bank)
        except QuadratureError:
            row[ix] = np.nan
            failures.append(ix)
    return row, failures


def _collect(cell, results, xs, ys, quantity, fingerprint, meta):
    failures = [(ix, iy) for iy, (_, fails) in enumerate(results) for ix in fails]
    if len(failures) > _MAX_FAILURE_FRACTION * xs.size * ys.size:
        raise QuadratureError(
            f"{len(failures)} of {xs.size * ys.size} cells failed", math.inf, 0.0)
    values = np.vstack([row for row, _ in results])
    if failures:  # isolated failures are re-tried serially at a looser budget
        retry_bank = KernelBank(QuadratureSettings(rel_tol=1e-6))
        for ix, iy in failures:
            values[iy, ix] = cell(xs[ix], ys[iy], retry_bank)
        meta = {**meta, "retried_cells": [[int(ix), int(iy)] for ix, iy in failures]}
    return GridMap(xs, ys, values, quantity, fingerprint, meta)


def energy_map(scenario: Scenario, window: Window = DEFAULT_WINDOW,
               resolution=DEFAULT_RESOLUTION) -> GridMap:
    """Energy density over the window at the scenario's evaluation time."""
    xs, ys = _axes(window, resolution)
    t0 = time.perf_counter()
    t = scenario.evaluation_time
    values = np.vstack([energy_density(scenario, np.column_stack(
        (xs, np.full(xs.size, yv), np.zeros(xs.size))), t) for yv in ys])
    meta = {"evaluation_time": t, "wall_time_s": time.perf_counter() - t0}
    return GridMap(xs, ys, values, "energy", scenario_fingerprint(scenario), meta)


def capacity_map(scenario: Scenario, window: Window = DEFAULT_WINDOW,
                 resolution=DEFAULT_RESOLUTION,
                 settings: QuadratureSettings | None = None,
                 threads: int = 1) -> GridMap:
    """Channel capacity as a function of the receiver location over the window."""
    settings = settings or QuadratureSettings()
    xs, ys = _axes(window, resolution)
    t0 = time.perf_counter()
    bank = KernelBank(settings)
    q = excitation_probability(scenario, couple=False, bank=bank)
    cell = partial(_capacity_cell, scenario, q)
    results = _run_rows(partial(_row, cell, xs, settings), ys, threads)
    meta = {"noise_probability": q, "rel_tol": settings.rel_tol,
            "cells_in_contact": _cells_in_contact(scenario, xs, ys),
            "wall_time_s": time.perf_counter() - t0}
    return _collect(cell, results, xs, ys, "capacity",
                    scenario_fingerprint(scenario, {"rel_tol": settings.rel_tol}), meta)


def _cells_in_contact(scenario: Scenario, xs: np.ndarray, ys: np.ndarray) -> int:
    """Cells of the (ys, xs) grid with at least one emitter in causal contact.

    One array expression over (cells, emitters) of the predicate that
    gates each cell's quadrature; 0 while the receiver has not coupled.
    """
    rec, emitters = scenario.receiver, scenario.emitters
    if scenario.evaluation_time <= rec.coupling_time:
        return 0
    cells = np.stack([*np.meshgrid(xs, ys), np.zeros((ys.size, xs.size))], axis=-1)
    positions = np.array([e.position for e in emitters]).reshape(-1, 3)
    contact = _in_causal_contact(
        np.linalg.norm(cells[..., None, :] - positions, axis=-1),
        rec.coupling_time - np.array([e.coupling_time for e in emitters]),
        rec.smearing_radius, np.array([e.smearing_radius for e in emitters]))
    return int(np.count_nonzero(contact.any(axis=-1)))


def diff_map(a: GridMap, b: GridMap) -> GridMap:
    """Cellwise a - b on identical axes; tags the result as a delta map."""
    if a.x.shape != b.x.shape or a.y.shape != b.y.shape \
            or not np.array_equal(a.x, b.x) or not np.array_equal(a.y, b.y):
        raise ValueError("grid axes differ; maps are not comparable")
    if a.quantity != b.quantity:
        raise ValueError(f"cannot difference {a.quantity!r} against {b.quantity!r}")
    return GridMap(a.x, a.y, a.values - b.values, "delta",
                   a.fingerprint, {"minuend": a.fingerprint, "subtrahend": b.fingerprint,
                                   "base_quantity": a.quantity})


def _capacities(scenario: Scenario, couplings: np.ndarray, settings: QuadratureSettings):
    """Capacity per receiver coupling as a function of the emitter state.

    The receiver's nu and Delta_i, hence C1, the angles and q, are fixed
    here; each call runs only the emitter algebra, all couplings in one
    batch.  All zero, with no algebra, when the receiver has not coupled
    by the evaluation time or no emitter is in causal contact with it.
    """
    kernels = _receiver_kernels(scenario, KernelBank(settings))
    if kernels is None or not kernels[1].any():
        return lambda state: np.zeros(len(couplings))
    c1 = _vacuum_factor(couplings, kernels[0])
    angles = _signal_angles(couplings, [e.coupling_strength for e in scenario.emitters],
                            kernels[1])
    q = _receiver_probability(c1)
    phases = MonopolePhase.from_scenario(scenario)
    return lambda state: np.array([
        channel_capacity(ChannelPoint(pk, qk))
        for pk, qk in zip(_receiver_probability(c1, angles, state, phases), q)])


def coupling_sweep(scenario: Scenario, couplings,
                   settings: QuadratureSettings | None = None) -> SweepCurve:
    """Capacity at the fixed receiver location for each coupling strength.

    The receiver's nu and Delta_i are evaluated once; C1, the angles and
    the product expectation then cover every coupling as one batch.
    """
    lam = np.asarray(couplings, dtype=float)
    if lam.size <= 2:
        raise ValueError("a sweep needs more than 2 samples")
    if not np.all(np.isfinite(lam)):
        raise ValueError("coupling strengths must be finite")
    if np.any(lam < 0):
        raise ValueError("coupling strengths must be >= 0")
    settings = settings or QuadratureSettings()
    t0 = time.perf_counter()
    caps = _capacities(scenario, lam, settings)(scenario.emitter_state)
    idx = int(np.argmax(caps))
    meta = {"rel_tol": settings.rel_tol, "wall_time_s": time.perf_counter() - t0}
    return SweepCurve(lam, caps, idx, float(lam[idx]), float(caps[idx]),
                      scenario_fingerprint(scenario, {"sweep": "lambda_B"}), meta)


# ----------------------------------------------------------------------
# derivative-free phase optimization
# ----------------------------------------------------------------------

def _phase_objective(scenario: Scenario, objective: str, point,
                     settings: QuadratureSettings):
    """The objective as a function of the emitter state, kernels evaluated once."""
    if objective == "energy":
        active, kernels = _emission_kernels(scenario, point, scenario.evaluation_time)
        strengths = [e.coupling_strength for e in scenario.emitters]
        phases = MonopolePhase.from_scenario(scenario)
        return lambda state: float(_emission_energy(kernels, active, strengths, state,
                                                    phases))
    moved = scenario.with_receiver(scenario.receiver.moved_to(point))
    capacities = _capacities(moved, [moved.receiver.coupling_strength], settings)
    return lambda state: float(capacities(state)[0])


def optimize_phases(scenario: Scenario, objective: str, point,
                    budget: int = 800, restarts: int = 4, seed: int = 0,
                    settings: QuadratureSettings | None = None) -> PhaseOptimum:
    """Search emitter phases maximizing energy or capacity at a fixed point.

    objective: "energy" (density at `point`, at the scenario evaluation
    time) or "capacity" (receiver moved to `point`).  The kernels at the
    point are evaluated once; each evaluation builds the W state and runs
    the emitter algebra.  The global-phase direction is removed by pinning
    the first phase to 0; the search runs Nelder-Mead from `restarts`
    starting points and reports the best evaluation found together with
    the full trace.
    """
    n = scenario.n_emitters
    if n < 1:
        raise ValueError("phase optimization needs at least one emitter")
    if n > 8:
        raise ValueError("dense phase search capped at 8 emitters")
    if objective not in ("energy", "capacity"):
        raise ValueError("objective must be 'energy' or 'capacity'")
    if restarts < 1:
        raise ValueError("needs at least one restart")
    point = tuple(float(c) for c in point)
    value_of = _phase_objective(scenario, objective, point,
                                settings or QuadratureSettings())

    trace: list[tuple[tuple[float, ...], float]] = []
    counter = {"n": 0}

    def evaluate(theta_full: np.ndarray) -> float:
        counter["n"] += 1
        val = value_of(w_state(n, theta_full))
        trace.append((tuple(theta_full), val))
        return val

    if n == 1:
        # the objective is constant along the global-phase direction
        val = evaluate(np.zeros(1))
        return PhaseOptimum((0.0,), val, objective, counter["n"], True, 1,
                            tuple(trace))

    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    starts = [np.zeros(n - 1)]
    while len(starts) < restarts:
        starts.append(rng.uniform(0.0, 2.0 * math.pi, n - 1))

    def negative(reduced: np.ndarray) -> float:
        full = np.concatenate(([0.0], np.mod(reduced, 2.0 * math.pi)))
        return -evaluate(full)

    best_val = -math.inf
    best_full = np.zeros(n)
    converged = True
    per_restart = max(16, budget // restarts)
    for start in starts:
        if counter["n"] >= budget:
            converged = False
            break
        res = minimize(negative, start, method="Nelder-Mead",
                       options={"maxfev": min(per_restart, budget - counter["n"]),
                                "xatol": 1e-6, "fatol": 1e-12})
        converged = converged and bool(res.success)
        if -res.fun > best_val:
            best_val = -res.fun
            best_full = np.concatenate(([0.0], np.mod(res.x, 2.0 * math.pi)))
    if counter["n"] >= budget:
        converged = False
    return PhaseOptimum(tuple(float(t) for t in best_full), float(best_val),
                        objective, counter["n"], converged, len(starts), tuple(trace))


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def write_grid_csv(grid: GridMap, path, sidecar: bool = True) -> None:
    """First row x axis, first column y axis, fixed 9-significant-digit cells."""
    lines = ["," + ",".join(_FMT.format(v) for v in grid.x)]
    for iy, yv in enumerate(grid.y):
        lines.append(_FMT.format(yv) + ","
                     + ",".join(_FMT.format(v) for v in grid.values[iy]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if sidecar:
        side = {"quantity": grid.quantity, "fingerprint": grid.fingerprint,
                "x_range": [float(grid.x[0]), float(grid.x[-1]), int(grid.x.size)],
                "y_range": [float(grid.y[0]), float(grid.y[-1]), int(grid.y.size)],
                **grid.meta}
        with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
            json.dump(side, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_grid_csv(path) -> GridMap:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    header = rows[0].split(",")
    xs = np.array([float(v) for v in header[1:]])
    ys, values = [], []
    for line in rows[1:]:
        cells = line.split(",")
        ys.append(float(cells[0]))
        values.append([float(v) for v in cells[1:]])
    quantity, fingerprint, meta = "unknown", "", {}
    try:
        with open(_sidecar_path(path), "r", encoding="utf-8") as fh:
            side = json.load(fh)
        quantity = side.pop("quantity", "unknown")
        fingerprint = side.pop("fingerprint", "")
        side.pop("x_range", None)
        side.pop("y_range", None)
        meta = side
    except FileNotFoundError:
        pass
    return GridMap(xs, np.array(ys), np.array(values), quantity, fingerprint, meta)


def write_sweep_csv(curve: SweepCurve, path, sidecar: bool = True) -> None:
    lines = ["lambda_B,capacity"]
    for lam, cap in zip(curve.couplings, curve.capacities):
        lines.append(_FMT.format(lam) + "," + _FMT.format(cap))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if sidecar:
        side = {"fingerprint": curve.fingerprint,
                "argmax_index": curve.argmax_index,
                "argmax_coupling": curve.argmax_coupling,
                "argmax_capacity": curve.argmax_capacity,
                **curve.meta}
        with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
            json.dump(side, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _sidecar_path(path) -> str:
    path = str(path)
    return (path[:-4] if path.endswith(".csv") else path) + ".json"
