"""Grid evaluation of observables, sweeps, and phase optimization.

Maps mirror the planar scans of the study: a window in the (x, y) plane
at z = 0, energy density at the scenario's evaluation time or channel
capacity as a function of the receiver location.  An energy map is one
energy_density call per block of whole rows of at most _BLOCK_CELLS cells.

Capacity maps, sweeps and phase searches share one path with the
pointwise observables: observables._receiver_channel evaluates the
kernels once for every receiver position (the grid's cells for a map,
one position otherwise), and the channel algebra observables._channel
returns q and p as a function of the emitter state for every coupling,
all signalling receivers and couplings in one product_expectation batch,
so every cell is a pure function of its own position.  _capacities runs
channel_capacity on the signalling receivers, for one emitter state or a
stack of them.  A receiver that no emitter is in causal contact with
(kernels._in_causal_contact) runs no quadrature and no algebra, and its
capacity is exactly 0; the map's sidecar counts the others as
cells_in_contact.  A receiver that has not coupled is a null channel
(q = 0, no signalling receiver, no contact), so its outputs are zeros
on the same path.  The energy objective of a phase search goes through
observables._energy_at, the factory behind energy_density.

CSV layout: first row is the x axis (blank corner cell), each following
row starts with its y value; numbers are printed with 9 significant
digits in scientific notation so identical runs are byte-identical.  A
JSON sidecar carries the scenario fingerprint, quantity tag, wall time
and, for capacity maps, the noise probability and cells_in_contact.

A phase search runs _nelder_mead, scipy's Nelder-Mead step for step,
without importing scipy.  _nelder_mead is a generator that yields each
point and is sent its value, so optimize_phases advances its restarts in
lockstep: each round stacks the next point of every live restart into
one batch of W states, and the objective runs the emitter algebra once
over that stack (emitters' stack core).  The objective forms what an
evaluation does not change (kernels, strengths, angle factors) once per
search.  Each restart keeps its own trace and budget share, so trace,
result and evaluation count are those of running the restarts one after
another.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .observables import (ChannelPoint, channel_capacity, energy_density, _energy_at,
                          _receiver_channel)
from .observables import excitation_probability  # noqa: F401 (perfbench/spans.py wraps it)
from .scenario import EmitterState, Scenario, _check_norm, _w_amplitudes, scenario_fingerprint
from .scenario import w_state  # noqa: F401 (perfbench/spans.py wraps it)

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
_BLOCK_CELLS = 4096  # cells per energy_density call of an energy map (or one longer row)


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
        if not all(np.all(np.isfinite(a)) for a in (x, y, v)):
            raise ValueError("grid axes and values must be finite")
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


def _grid(window: Window, resolution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x and y axes and the (ny, nx, 3) cell points in the z = 0 plane."""
    if isinstance(resolution, int):
        nx = ny = resolution
    else:
        nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be >= 2 per axis")
    xmin, xmax, ymin, ymax = window
    xs, ys = np.linspace(xmin, xmax, nx), np.linspace(ymin, ymax, ny)
    return xs, ys, np.stack([*np.meshgrid(xs, ys), np.zeros((ny, nx))], axis=-1)


def energy_map(scenario: Scenario, window: Window = DEFAULT_WINDOW,
               resolution=DEFAULT_RESOLUTION) -> GridMap:
    """Energy density over the window at the scenario's evaluation time."""
    t0 = time.perf_counter()
    xs, ys, cells = _grid(window, resolution)
    t = scenario.evaluation_time
    rows = max(1, _BLOCK_CELLS // xs.size)
    values = np.vstack([energy_density(scenario, cells[i:i + rows], t)
                        for i in range(0, ys.size, rows)])
    meta = {"evaluation_time": t, "wall_time_s": time.perf_counter() - t0}
    return GridMap(xs, ys, values, "energy", scenario_fingerprint(scenario), meta)


def capacity_map(scenario: Scenario, window: Window = DEFAULT_WINDOW,
                 resolution=DEFAULT_RESOLUTION) -> GridMap:
    """Channel capacity as a function of the receiver location over the window."""
    t0 = time.perf_counter()
    xs, ys, cells = _grid(window, resolution)
    channel = _receiver_channel(scenario, cells.reshape(-1, 3))
    values = _capacities(channel, scenario.emitter_state).reshape(ys.size, xs.size)
    meta = {"noise_probability": float(channel.q[0]),
            "cells_in_contact": int(channel.contact.any(axis=-1).sum()),
            "wall_time_s": time.perf_counter() - t0}
    return GridMap(xs, ys, values, "capacity", scenario_fingerprint(scenario), meta)


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


def _capacities(channel, state) -> np.ndarray:
    """Capacity per receiver and coupling of an observables._channel.

    A (B, 2^n) stack of pure states adds a leading axis B.
    channel_capacity runs on the receivers with a signal; every other one
    has p = q and capacity exactly 0 without any algebra.
    """
    lead = () if isinstance(state, EmitterState) else (len(state),)
    caps = np.zeros(lead + channel.signal.shape + channel.q.shape)
    if channel.signal.any():
        capacity = np.frompyfunc(lambda p, q: channel_capacity(ChannelPoint(p, q)), 2, 1)
        caps[..., channel.signal, :] = capacity(channel.p(state), channel.q)
    return caps


def coupling_sweep(scenario: Scenario, couplings) -> SweepCurve:
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
    t0 = time.perf_counter()
    caps = _capacities(_receiver_channel(scenario, couplings=lam), scenario.emitter_state)[0]
    idx = int(np.argmax(caps))
    meta = {"wall_time_s": time.perf_counter() - t0}
    return SweepCurve(lam, caps, idx, float(lam[idx]), float(caps[idx]),
                      scenario_fingerprint(scenario, {"sweep": "lambda_B"}), meta)


# ----------------------------------------------------------------------
# derivative-free phase optimization
# ----------------------------------------------------------------------

def _phase_objective(scenario: Scenario, objective: str, point):
    """The objective at the W states of phase vectors (B, n): B floats, kernels evaluated once.

    The B states go through the emitter algebra as one stack of amplitude
    vectors; each value has the bits of a call on w_state of its row.
    """
    n = scenario.n_emitters
    if objective == "energy":
        energy = _energy_at(scenario, point, scenario.evaluation_time)
    else:
        channel = _receiver_channel(scenario, [point])

    def value_of(thetas: np.ndarray) -> list[float]:
        stack = _w_amplitudes(n, thetas)
        for vec in stack:
            _check_norm(vec)
        if objective == "energy":
            return energy(stack).tolist()
        return _capacities(channel, stack)[:, 0, 0].tolist()

    return value_of


def optimize_phases(scenario: Scenario, objective: str, point,
                    budget: int = 800, restarts: int = 4, seed: int = 0) -> PhaseOptimum:
    """Search emitter phases maximizing energy or capacity at a fixed point.

    objective: "energy" (density at `point`, at the scenario evaluation
    time) or "capacity" (receiver moved to `point`).  The kernels at the
    point are evaluated once.  The global-phase direction is removed by
    pinning the first phase to 0; _nelder_mead runs from `restarts`
    starting points, and the result is the best evaluation found together
    with the full trace.

    Restart k gets min(per_restart, budget - evaluations of the restarts
    before it), with per_restart = max(16, budget // restarts), and is
    skipped once that is 0.  The restarts advance in lockstep: each round
    takes the next point of every live restart and evaluates them as one
    stack.  A restart whose share is fixed from the start
    ((k + 1) per_restart <= budget, always so when budget >= 16 restarts)
    starts in round 1; any other waits until the restarts before it are
    done.  Each restart keeps its own trace, and the reported trace is
    their concatenation in restart order, so the result is that of
    running the restarts one after another.
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
    if budget < 1:
        raise ValueError("budget must be at least one evaluation")
    point = tuple(float(c) for c in point)
    value_of = _phase_objective(scenario, objective, point)

    if n == 1:
        # the objective is constant along the global-phase direction
        [val] = value_of(np.zeros((1, 1)))
        return PhaseOptimum((0.0,), val, objective, 1, True, 1, (((0.0,), val),))

    rng = np.random.default_rng(seed)
    starts = [np.zeros(n - 1)]
    while len(starts) < restarts:
        starts.append(rng.uniform(0.0, 2.0 * math.pi, n - 1))

    per_restart = max(16, budget // restarts)
    traces: list[list[tuple[tuple[float, ...], float]]] = [[] for _ in starts]
    results: list[tuple | None] = [None] * restarts  # _nelder_mead's (x, f(x), converged)
    live: dict[int, tuple] = {}  # restart -> (its search, the point it waits on)
    begun = 0
    while True:
        while begun < restarts and ((begun + 1) * per_restart <= budget or not live):
            # final: either the share is fixed, or every restart before `begun` is done
            share = min(per_restart, budget - sum(map(len, traces[:begun])))
            if share <= 0:  # the runs before used the whole budget: not converged
                begun = restarts
                break
            search = _nelder_mead(starts[begun], share, 1e-6, 1e-12)
            live[begun] = (search, next(search))
            begun += 1
        if not live:
            break
        reduced = np.array([x for _, x in live.values()])
        full = np.concatenate((np.zeros((len(live), 1)), np.mod(reduced, 2.0 * math.pi)),
                              axis=1)
        for (k, (search, _)), theta, val in zip(list(live.items()), full.tolist(),
                                                value_of(full)):
            traces[k].append((tuple(theta), val))
            try:
                live[k] = (search, search.send(-val))
            except StopIteration as done:
                results[k] = done.value
                del live[k]

    best_val, best_full, converged = -math.inf, np.zeros(n), True
    for x, value, done in filter(None, results):
        converged = converged and done
        if -value > best_val:
            best_val = -value
            best_full = np.concatenate(([0.0], np.mod(x, 2.0 * math.pi)))
    trace = tuple(entry for run in traces for entry in run)
    return PhaseOptimum(tuple(float(t) for t in best_full), float(best_val),
                        objective, len(trace), converged, len(starts), trace)


def _nelder_mead(x0, maxfev: int, xatol: float, fatol: float):
    """Minimize from x0 as a generator: it yields each point and is sent that point's value.

    Its return value (StopIteration.value) is (x, f(x), whether it stopped
    before maxfev calls).  The points and result are those of scipy 1.17's
    minimize(f, x0, method="Nelder-Mead") with options maxfev, xatol and
    fatol: default simplex, coefficients 1, 2, 1/2, 1/2, and the step that
    would call f once too often dropped.  Each yielded point is a fresh
    array.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    sim = np.tile(x0, (n + 1, 1))
    sim[np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.full(n + 1, np.inf)
    calls = min(n + 1, maxfev)
    for k in range(calls):
        fsim[k] = yield sim[k].copy()
    sim, fsim = ordered(*ordered(sim, fsim))  # twice, as scipy does: argsort is not stable
    while calls < maxfev:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = yield xr
        calls += 1
        if fxr < fsim[0]:
            if calls < maxfev:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = yield xe
                calls += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif calls < maxfev:
            outside = fxr < fsim[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fxc = yield xc
            calls += 1
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    if calls >= maxfev:
                        break
                    fsim[j] = yield sim[j].copy()
                    calls += 1
        sim, fsim = ordered(sim, fsim)
    return sim[0], np.min(fsim), calls < maxfev


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def write_grid_csv(grid: GridMap, path) -> None:
    """First row x axis, first column y axis, fixed 9-significant-digit cells."""
    # Python floats format faster than numpy scalars (same bytes); row by row bounds memory
    lines = ["," + ",".join(map(_FMT.format, grid.x.tolist()))]
    lines += [",".join(map(_FMT.format, [yv, *row.tolist()]))
              for yv, row in zip(grid.y.tolist(), grid.values)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    side = {"quantity": grid.quantity, "fingerprint": grid.fingerprint,
            "x_range": [float(grid.x[0]), float(grid.x[-1]), int(grid.x.size)],
            "y_range": [float(grid.y[0]), float(grid.y[-1]), int(grid.y.size)],
            **grid.meta}
    _write_sidecar(side, path)


def read_grid_csv(path) -> GridMap:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: empty grid CSV")
    table = [[float(v) for v in line.split(",")] for line in rows[1:]]
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
    return GridMap([float(v) for v in rows[0].split(",")[1:]], [row[0] for row in table],
                   [row[1:] for row in table], quantity, fingerprint, meta)


def write_sweep_csv(curve: SweepCurve, path) -> None:
    lines = ["lambda_B,capacity"]
    lines += [",".join(map(_FMT.format, pair))
              for pair in zip(curve.couplings.tolist(), curve.capacities.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    side = {"fingerprint": curve.fingerprint, "argmax_index": curve.argmax_index,
            "argmax_coupling": curve.argmax_coupling,
            "argmax_capacity": curve.argmax_capacity, **curve.meta}
    _write_sidecar(side, path)


def _write_sidecar(side: dict, path) -> None:
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(side, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sidecar_path(path) -> str:
    path = str(path)
    return (path[:-4] if path.endswith(".csv") else path) + ".json"
