"""The benchmark's workloads: the CLI operations each one runs, and their checks.

A workload is a list of `Op`s.  Each op is one `qshock` command line, run
in-process through `qshock.cli.main(argv)`, plus the check that compares
what the command wrote or printed against a reference committed under
`perfbench/reference/` (generated from the seed code by
`make_reference.py`).  NOTES.md records why each workload exists.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = ROOT / "scenarios"
REFERENCE = HERE / "reference"

WORKLOADS = ("fig1-energy", "fig2-capacity", "explore", "oracle")

# Grid size of the map workloads.  The paper's 160 x 160 costs 40-80 s per
# map on a 2-core machine; 24 x 24 keeps one pass of a map workload near
# 2 s, so a 20 s run repeats it often enough for a steady median.  The
# window stays the paper's default (0..16 in x and y).
MAP_RESOLUTION = 24

# explore: a fixed mix, so that every seed asks for the same amount of work
EXPLORE_SWEEPS = 64
EXPLORE_OPTIMIZES = 40
SWEEP_SAMPLES = 100
OPTIMIZE_BUDGET = 120
OPTIMIZE_RESTARTS = 3

# Tolerances.  Rounding-level kernel changes (relative 1e-12, below the
# CSVs' 9 significant digits) pass; a wrong kernel moves shell cells by
# O(1) and fails.  Off the light-cone shells the exact values are 0 and the
# quadrature returns noise (energy ~1e-28, capacity ~1e-20), so each check
# also allows an absolute slack far above that noise and far below the
# signal (energy up to ~1e-2, capacity up to ~1e-7 bits here).
MAP_RTOL = 1e-6
MAP_ATOL_SHARE = 1e-6    # absolute slack, as a share of the map's largest |value|
VALUE_RTOL = 1e-6
VALUE_ATOL = {"energy": 1e-12, "capacity": 1e-15}
ORACLE_ATOL = 1e-6       # the battery's own pipeline-vs-exact tolerance


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its output.

    `check(exit_code, stdout)` returns (evaluations, problem): the number of
    observable evaluations the command performed and None, or a one-line
    description of why the output is wrong.
    """

    label: str
    kind: str                     # map | diff | sweep | optimize | oracle
    argv: tuple[str, ...]
    check: Callable[[int, str], tuple[int, str | None]]
    out: Path | None = None


# ----------------------------------------------------------------------
# output readers and comparisons
# ----------------------------------------------------------------------

def read_csv_matrix(path) -> np.ndarray:
    """A CSV of numbers as a float matrix; empty cells become NaN."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return np.array([[float(v) if v else math.nan for v in row] for row in rows])


def compare_grids(out_path, ref_path) -> str | None:
    """None when the map CSV at out_path matches the reference within tolerance."""
    try:
        got = read_csv_matrix(out_path)
    except (OSError, ValueError) as exc:
        return f"unreadable output {out_path}: {exc}"
    ref = read_csv_matrix(ref_path)
    if got.shape != ref.shape:
        return f"shape {got.shape} != reference {ref.shape}"
    if not np.array_equal(np.isnan(got), np.isnan(ref)):
        return "blank cells differ from the reference"
    finite = ~np.isnan(ref)
    atol = MAP_ATOL_SHARE * float(np.max(np.abs(ref[1:, 1:])))
    err = np.abs(got[finite] - ref[finite])
    slack = MAP_RTOL * np.abs(ref[finite]) + atol
    bad = int(np.count_nonzero(~(err <= slack)))
    if bad:
        return f"{bad} cells outside rtol {MAP_RTOL:g} / atol {atol:.3g}"
    return None


def close(value: float, ref: float, quantity: str) -> bool:
    return abs(value - ref) <= VALUE_RTOL * abs(ref) + VALUE_ATOL[quantity]


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".json")


# ----------------------------------------------------------------------
# map workloads
# ----------------------------------------------------------------------

def _map_op(command: str, config: str, out: Path, ref: Path | None) -> Op:
    cells = MAP_RESOLUTION * MAP_RESOLUTION

    def check(code: int, _stdout: str):
        if code != 0:
            return 0, f"exit code {code}"
        return cells, compare_grids(out, ref) if ref else None

    argv = (command, "--config", str(SCENARIOS / config), "--out", str(out),
            "--resolution", str(MAP_RESOLUTION))
    return Op(f"{command} {config}", "map", argv, check, out)


def _diff_op(a: Path, b: Path, out: Path, ref: Path | None) -> Op:
    def check(code: int, _stdout: str):
        if code != 0:
            return 0, f"exit code {code}"
        return 0, compare_grids(out, ref) if ref else None

    argv = ("diff", "--a", str(a), "--b", str(b), "--out", str(out))
    return Op("diff", "diff", argv, check, out)


def _reference(name: str, checked: bool) -> Path | None:
    return REFERENCE / name if checked else None


def fig1_energy(workdir: Path, checked: bool = True) -> list[Op]:
    """Paper Fig. 1a/1b: two energy maps and their difference.

    make_reference.py passes checked=False: it writes the references.
    """
    a, b, d = workdir / "fig1.csv", workdir / "fig1_classical.csv", workdir / "fig1b.csv"
    return [_map_op("energy-map", "fig1.cfg", a, _reference(a.name, checked)),
            _map_op("energy-map", "fig1_classical.cfg", b, _reference(b.name, checked)),
            _diff_op(a, b, d, _reference(d.name, checked))]


def fig2_capacity(workdir: Path, checked: bool = True) -> list[Op]:
    """Paper Fig. 2b and its classical-mixture counterpart."""
    return [_map_op("capacity-map", f"{name}.cfg", workdir / f"{name}.csv",
                    _reference(f"{name}.csv", checked))
            for name in ("fig2b", "fig2_classical")]


# ----------------------------------------------------------------------
# explore: seeded sweeps and phase optimizations
# ----------------------------------------------------------------------

def sweep_argv(config: Path, out: Path) -> tuple[str, ...]:
    return ("sweep", "--config", str(config), "--out", str(out),
            "--samples", str(SWEEP_SAMPLES))


def optimize_argv(spec: dict, out: Path) -> tuple[str, ...]:
    x, y = spec["point"]
    return ("optimize", "--config", str(SCENARIOS / "fig2a.cfg"),
            "--objective", spec["objective"], "--point", f"{x!r},{y!r}",
            "--budget", str(OPTIMIZE_BUDGET), "--restarts", str(OPTIMIZE_RESTARTS),
            "--seed", str(spec["seed"]), "--out", str(out))


def write_sweep_config(spec: dict, path: Path) -> None:
    """The spec's base scenario with the receiver moved to the spec's point."""
    cfg = json.loads((SCENARIOS / f"{spec['base']}.cfg").read_text(encoding="utf-8"))
    x, y = spec["point"]
    cfg["receiver"]["position"] = [x, y, 0.0]
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")


def second_column(path: Path) -> np.ndarray:
    """Second column of a CSV with a header row: sweep capacities in coupling
    order, or optimize objective values in evaluation order."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()][1:]
    return np.array([float(line.split(",")[1]) for line in lines])


def _sweep_op(spec: dict, config: Path, out: Path) -> Op:
    def check(code: int, _stdout: str):
        if code != 0:
            return 0, f"exit code {code}"
        caps = second_column(out)
        if caps.size != SWEEP_SAMPLES:
            return caps.size, f"{caps.size} samples, expected {SWEEP_SAMPLES}"
        # the reference argmax must still reach the maximum: ties may swap
        # the index, a wrong curve may not
        best = spec["max_capacity"]
        if not (close(float(caps.max()), best, "capacity")
                and close(float(caps[spec["argmax_index"]]), best, "capacity")):
            return caps.size, (f"argmax {int(caps.argmax())} / {caps.max():.9g} vs "
                               f"reference {spec['argmax_index']} / {best:.9g}")
        return caps.size, None

    x, y = spec["point"]
    return Op(f"sweep {spec['base']} @ {x:.3f},{y:.3f}", "sweep",
              sweep_argv(config, out), check, out)


def _optimize_op(spec: dict, out: Path) -> Op:
    def check(code: int, _stdout: str):
        if code != 0:
            return 0, f"exit code {code}"
        values = second_column(out)
        if values.size == 0:
            return 0, "empty optimization trace"
        if not close(float(values.max()), spec["best"], spec["objective"]):
            return values.size, f"best {values.max():.9g} vs reference {spec['best']:.9g}"
        return values.size, None

    x, y = spec["point"]
    return Op(f"optimize {spec['objective']} @ {x:.3f},{y:.3f} seed {spec['seed']}",
              "optimize", optimize_argv(spec, out), check, out)


def explore_pool() -> dict:
    with open(REFERENCE / "explore_pool.json", encoding="utf-8") as fh:
        return json.load(fh)


def explore(workdir: Path, seed: int) -> list[Op]:
    """A seeded draw of sweeps and optimizations from the reference pool.

    The seed picks which pool entries run and in which order; each entry
    carries its reference result, so every seed is checkable.  The program
    sees only the generated config files and command lines.
    """
    pool = explore_pool()
    rng = random.Random(seed)
    picks = []
    # equal draws from each base scenario or objective and each kind of point
    # (uniform or on a shell), so seeds differ in points, not in the mix of work
    for kind, key, count in (("sweep", "base", EXPLORE_SWEEPS),
                             ("optimize", "objective", EXPLORE_OPTIMIZES)):
        entries = pool[kind + "s"]
        strata = sorted({(e[key], e["where"]) for e in entries})
        for stratum in strata:
            group = [e for e in entries if (e[key], e["where"]) == stratum]
            picks += [(kind, e) for e in rng.sample(group, count // len(strata))]
    rng.shuffle(picks)
    sub = workdir / "explore"
    sub.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (kind, spec) in enumerate(picks):
        out = sub / f"op{i:03d}.csv"
        if kind == "sweep":
            config = sub / f"op{i:03d}.cfg"
            write_sweep_config(spec, config)
            ops.append(_sweep_op(spec, config, out))
        else:
            ops.append(_optimize_op(spec, out))
    return ops


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

_ORACLE_ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(pass|FAIL)\s*$")


def parse_oracle_table(stdout: str) -> list[dict]:
    """Rows of the `qshock oracle` table: case, pipeline, exact, verdict."""
    rows = []
    for line in stdout.splitlines():
        m = _ORACLE_ROW.match(line)
        if m:
            rows.append({"case": m.group(1), "pipeline": float(m.group(2)),
                         "exact": float(m.group(3)), "verdict": m.group(6)})
    return rows


def check_oracle_rows(rows: list[dict], ref_rows: list[dict]) -> str | None:
    if [r["case"] for r in rows] != [r["case"] for r in ref_rows]:
        return f"cases differ from the reference ({len(rows)} vs {len(ref_rows)} rows)"
    for row, ref in zip(rows, ref_rows):
        if row["verdict"] != ref["verdict"]:
            return f"{row['case']}: verdict {row['verdict']} vs {ref['verdict']}"
        if abs(row["exact"] - ref["exact"]) > ORACLE_ATOL:
            return f"{row['case']}: exact {row['exact']:.9g} vs {ref['exact']:.9g}"
    return None


def oracle(ref_rows: list[dict] | None = None) -> list[Op]:
    """The truncated-Fock battery, `qshock oracle`."""
    if ref_rows is None:
        with open(REFERENCE / "oracle.json", encoding="utf-8") as fh:
            ref_rows = json.load(fh)

    def check(code: int, stdout: str):
        rows = parse_oracle_table(stdout)
        if code != 0:
            return len(rows), f"exit code {code}"
        return len(rows), check_oracle_rows(rows, ref_rows)

    return [Op("oracle", "oracle", ("oracle",), check)]


def build(name: str, workdir: Path, seed: int) -> list[Op]:
    """The op list of workload `name`; only explore depends on the seed."""
    if name == "fig1-energy":
        return fig1_energy(workdir)
    if name == "fig2-capacity":
        return fig2_capacity(workdir)
    if name == "explore":
        return explore(workdir, seed)
    if name == "oracle":
        return oracle()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def retried_cells(ops: list[Op]) -> int:
    """Cells the mapper retried at a looser tolerance, from the map sidecars."""
    total = 0
    for op in ops:
        if op.kind != "map" or op.out is None:
            continue
        try:
            meta = json.loads(_sidecar(op.out).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        total += len(meta.get("retried_cells", []))
    return total


def written_bytes(path: Path) -> int:
    """Size of a CSV and its sidecar, whichever exist."""
    return sum(p.stat().st_size for p in (Path(path), _sidecar(Path(path)))
               if p.exists())
