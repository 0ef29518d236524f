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
channel_capacity(p=..., q=...) on the signalling receivers through one
module-level ufunc, for one emitter state or a stack of them.  A
receiver that no emitter is in causal contact with
(kernels._in_causal_contact) runs no quadrature and no algebra, and its
capacity is exactly 0; the map's sidecar counts the others as
cells_in_contact.  A receiver that has not coupled is a null channel
(q = 0, no signalling receiver, no contact), so its outputs are zeros
on the same path.  The energy objective of a phase search goes through
observables._energy_at, the factory behind energy_density.

CSV layout: first row is the x axis (blank corner cell), each following
row starts with its y value; numbers are printed with 9 significant
digits in scientific notation so identical runs are byte-identical, each
row by one str.format template of _FMT fields (_row_format).  A
JSON sidecar carries the scenario fingerprint, quantity tag, wall time
and, for capacity maps, the noise probability and cells_in_contact.
_write_lines writes every CSV, sidecar and run manifest (_write_json
for the JSON ones), and _beside names a sidecar or manifest after its CSV.

A phase search runs _nelder_mead, scipy's Nelder-Mead step for step on
Python floats, without importing scipy.  _nelder_mead is a generator that
yields each point and is sent its value, so optimize_phases advances its
restarts in lockstep: each round stacks the next point of every live
restart into one batch of W states, checked and evaluated as one stack;
what an evaluation does not change (kernels, strengths, angles) is formed
once per search.  Each restart keeps its own trace and a budget share
fixed before the first round, so trace, result and evaluation count are
those of running the restarts one after another with those shares.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .observables import channel_capacity, energy_density, _energy_at, _receiver_channel
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
    fingerprint: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lam = np.asarray(self.couplings, dtype=float)
        cap = np.asarray(self.capacities, dtype=float)
        if lam.shape != cap.shape or lam.ndim != 1:
            raise ValueError("couplings and capacities must be equal-length vectors")
        lam.setflags(write=False)
        cap.setflags(write=False)
        object.__setattr__(self, "couplings", lam)
        object.__setattr__(self, "capacities", cap)

    @property
    def argmax_index(self) -> int:
        return int(np.argmax(self.capacities))

    @property
    def argmax_coupling(self) -> float:
        return float(self.couplings[self.argmax_index])

    @property
    def argmax_capacity(self) -> float:
        return float(self.capacities[self.argmax_index])


@dataclass(frozen=True)
class PhaseOptimum:
    """Best-found emitter phases for an objective; not a certified optimum."""

    phases: tuple[float, ...]
    value: float
    objective: str
    converged: bool
    restarts: int
    trace: tuple[tuple[tuple[float, ...], float], ...]

    @property
    def evaluations(self) -> int:
        return len(self.trace)


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


# looks channel_capacity up on each call, so a wrapper put in its place sees every cell
_capacity = np.frompyfunc(lambda p, q: channel_capacity(p=p, q=q), 2, 1)


def _capacities(channel, state) -> np.ndarray:
    """Capacity per receiver and coupling of an observables._channel.

    A (B, 2^n) stack of pure states adds a leading axis B.
    channel_capacity runs on the receivers with a signal; every other one
    has p = q and capacity exactly 0 without any algebra.
    """
    lead = () if isinstance(state, EmitterState) else (len(state),)
    caps = np.zeros(lead + channel.signal.shape + channel.q.shape)
    if channel.signal.any():
        caps[..., channel.signal, :] = _capacity(channel.p(state), channel.q)
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
    meta = {"wall_time_s": time.perf_counter() - t0}
    return SweepCurve(lam, caps, scenario_fingerprint(scenario, {"sweep": "lambda_B"}), meta)


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
        _check_norm(stack)
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

    Restart k gets the share min(per_restart, budget - k per_restart),
    with per_restart = max(16, budget // restarts), fixed up front; a
    restart whose share is not positive is never built (no start drawn),
    and the search then counts as not converged.  Every other restart
    starts in round 1 and the restarts advance in lockstep: each round
    takes the next point of every live restart and evaluates them as one
    stack.  Each restart keeps its own trace, and the reported trace is
    their concatenation in restart order, so the result is that of running
    the restarts one after another, each with its share.
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
        return PhaseOptimum((0.0,), val, objective, True, 1, (((0.0,), val),))

    per_restart = max(16, budget // restarts)
    shares = [min(per_restart, budget - k * per_restart)
              for k in range(min(restarts, -(-budget // per_restart)))]  # the positive ones
    traces: list[list[tuple[tuple[float, ...], float]]] = [[] for _ in shares]
    results: list[tuple] = [()] * len(shares)  # _nelder_mead's (x, f(x), converged)
    live: dict[int, tuple] = {}  # restart -> (its search, the point it waits on)
    rng = np.random.default_rng(seed)
    for k, share in enumerate(shares):
        search = _nelder_mead(rng.uniform(0.0, math.tau, n - 1) if k else [0.0] * (n - 1),
                              share, 1e-6, 1e-12)
        live[k] = (search, next(search))
    while live:
        # Python's % rounds as np.mod does; the first phase is pinned to 0
        thetas = [(0.0, *[v % math.tau for v in x]) for _, x in live.values()]
        for (k, (search, _)), theta, val in zip(list(live.items()), thetas,
                                                value_of(np.array(thetas))):
            traces[k].append((theta, val))
            try:
                live[k] = (search, search.send(-val))
            except StopIteration as done:
                results[k] = done.value
                del live[k]

    best_val, best_full, converged = -math.inf, (0.0,) * n, len(shares) == restarts
    for x, value, done in results:
        converged = converged and done
        if -value > best_val:
            best_val = -value
            best_full = (0.0, *[v % math.tau for v in x])
    return PhaseOptimum(best_full, float(best_val), objective, converged, restarts,
                        tuple(entry for run in traces for entry in run))


def _nelder_mead(x0, maxfev: int, xatol: float, fatol: float):
    """Minimize from x0 as a generator: it yields each point and is sent that point's value.

    Its return value (StopIteration.value) is (x, f(x), whether it stopped
    before maxfev calls).  The points and result are those of scipy 1.17's
    minimize(f, x0, method="Nelder-Mead") with options maxfev, xatol and
    fatol: default simplex, coefficients 1, 2, 1/2, 1/2, and the step that
    would call f once too often dropped.  Points are lists of floats with
    scipy's arithmetic done per coordinate, which rounds as numpy does (the
    centroid sums from 0.0 in vertex order, as np.add.reduce); only the
    n + 1 values are ordered by numpy's argsort, so ties break as scipy's.
    """
    x0 = [float(v) for v in x0]
    n = len(x0)

    def ordered(sim, fsim):
        ind = np.array(fsim).argsort().tolist()
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    sim = [x0] + [x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1:]
                  for k, v in enumerate(x0)]
    fsim = [math.inf] * (n + 1)
    calls = min(n + 1, maxfev)
    for k in range(calls):
        fsim[k] = yield sim[k]
    sim, fsim = ordered(*ordered(sim, fsim))  # twice, as scipy does: argsort is not stable
    while calls < maxfev:
        best, worst = sim[0], sim[-1]
        # all(<=) is False on a NaN, as np.max(...) <= tol is
        if (all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best))
                and all(abs(fsim[0] - f) <= fatol for f in fsim[1:])):
            break
        xbar = [0.0] * n
        for x in sim[:-1]:
            xbar = [c + v for c, v in zip(xbar, x)]
        xbar = [c / n for c in xbar]
        xr = [2 * c - w for c, w in zip(xbar, worst)]
        fxr = yield xr
        calls += 1
        if fxr < fsim[0]:
            if calls < maxfev:
                xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
                fxe = yield xe
                calls += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif calls < maxfev:
            outside = fxr < fsim[-1]
            xc = ([1.5 * c - 0.5 * w for c, w in zip(xbar, worst)] if outside
                  else [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)])
            fxc = yield xc
            calls += 1
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for v, b in zip(sim[j], best)]
                    if calls >= maxfev:
                        break
                    fsim[j] = yield sim[j]
                    calls += 1
        sim, fsim = ordered(sim, fsim)
    return sim[0], np.min(fsim), calls < maxfev


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def write_grid_csv(grid: GridMap, path) -> list[str]:
    """Cells to 9 significant digits, x in row 0 and y in column 0; returns [csv, sidecar]."""
    # Python floats format faster than numpy scalars (same bytes); row by row bounds memory
    row = _row_format(grid.x.size + 1)
    lines = ["," + _row_format(grid.x.size).format(*grid.x.tolist())]
    lines += [row.format(yv, *values.tolist()) for yv, values in zip(grid.y.tolist(), grid.values)]
    return [_write_lines(path, lines), _write_json(_beside(path, ".json"), {
        "quantity": grid.quantity, "fingerprint": grid.fingerprint,
        "x_range": [float(grid.x[0]), float(grid.x[-1]), int(grid.x.size)],
        "y_range": [float(grid.y[0]), float(grid.y[-1]), int(grid.y.size)], **grid.meta})]


def read_grid_csv(path) -> GridMap:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: empty grid CSV")
    table = [[float(v) for v in line.split(",")] for line in rows[1:]]
    try:
        with open(_beside(path, ".json"), "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        meta = {}
    meta.pop("x_range", None)
    meta.pop("y_range", None)
    quantity, fingerprint = meta.pop("quantity", "unknown"), meta.pop("fingerprint", "")
    return GridMap([float(v) for v in rows[0].split(",")[1:]], [row[0] for row in table],
                   [row[1:] for row in table], quantity, fingerprint, meta)


def write_sweep_csv(curve: SweepCurve, path) -> list[str]:
    """One (lambda_B, capacity) row per sample; returns the CSV and sidecar paths."""
    lines = ["lambda_B,capacity"]
    lines += map(_row_format(2).format, curve.couplings.tolist(), curve.capacities.tolist())
    return [_write_lines(path, lines), _write_json(_beside(path, ".json"), {
        "fingerprint": curve.fingerprint, "argmax_index": curve.argmax_index,
        "argmax_coupling": curve.argmax_coupling,
        "argmax_capacity": curve.argmax_capacity, **curve.meta})]


def _row_format(columns: int) -> str:
    """One CSV row of `columns` numbers as a single str.format template of _FMT fields."""
    return ",".join([_FMT] * columns)


def _write_lines(path, lines) -> str:
    """Write every CSV, sidecar and manifest, one newline per line; returns str(path)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


def _write_json(path, obj: dict) -> str:
    return _write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


def _beside(path, suffix: str) -> str:
    """The file next to path: its .csv ending, if any, replaced by suffix."""
    return str(path).removesuffix(".csv") + suffix
