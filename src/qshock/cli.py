"""Command-line surface: validate, map, sweep, optimize, kernel dumps, oracle.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 64 usage
error.  Each subparser names its command function with set_defaults.  The
six commands that write a CSV (energy-map, capacity-map, diff, sweep,
optimize, kernels) return the paths they wrote, their settings,
fingerprints and summary line, and one step, _recorded, times the
command, writes the run record `<out>.manifest.json` beside the CSV
(subcommand, config, outputs, settings, fingerprints, wall_time_s) and
prints the summary.  outputs lists every file the command wrote: the CSV,
and its `<out>.json` sidecar for the maps, diff and sweep.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
import warnings

import numpy as np

from .kernels import (KernelSet, QuadratureError, closed_form_commutator,
                      closed_form_radiation, closed_form_variance)
from .mapper import (DEFAULT_RESOLUTION, DEFAULT_WINDOW, capacity_map, coupling_sweep,
                     diff_map, energy_map, optimize_phases, read_grid_csv, write_grid_csv,
                     write_sweep_csv, _beside, _row_format, _write_json, _write_lines)
from .observables import ReceiverNotCoupledWarning
from .oracle import OracleBudgetError, run_standard_comparisons
from .scenario import ValidationError, load_scenario_file, scenario_fingerprint

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # unknown flags and malformed values -> 64
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _numbers(text: str, flag: str, form: str, counts) -> list[float]:
    """The comma-separated finite numbers given to flag, as many as counts allows."""
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in counts:
        raise ValidationError(flag, f"expected {form}")
    if not all(math.isfinite(v) for v in parts):
        raise ValidationError(flag, f"values must be finite, got {text!r}")
    return parts


def _window_from(args):
    if args.window is None:
        return DEFAULT_WINDOW
    return tuple(_numbers(args.window, "--window", "xmin,xmax,ymin,ymax", (4,)))


def _point_from(text: str):
    parts = _numbers(text, "--point", "x,y[,z]", (2, 3))
    return tuple(parts + [0.0] * (3 - len(parts)))


def build_parser() -> _Parser:
    parser = _Parser(prog="qshock",
                     description="Shockwave fields from pre-timed delta-coupled "
                                 "emitters: energy maps, receiver capacity, sweeps.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="scenario configuration file")
        p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("validate", help="check a scenario configuration")
    p.add_argument("--config", required=True)
    p.set_defaults(command=_cmd_validate)

    for name, help_text in (("energy-map", "energy density over an (x, y) window"),
                            ("capacity-map", "channel capacity vs receiver location")):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        p.add_argument("--window", default=None, help="xmin,xmax,ymin,ymax "
                                                      "(default 0,16,0,16)")
        p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
        p.set_defaults(command=_cmd_map)

    p = sub.add_parser("diff", help="cellwise difference of two maps")
    p.add_argument("--a", required=True, help="minuend CSV")
    p.add_argument("--b", required=True, help="subtrahend CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(command=_cmd_diff)

    p = sub.add_parser("sweep", help="capacity vs receiver coupling strength")
    add_common(p)
    p.add_argument("--lambda-min", type=float, default=0.0)
    p.add_argument("--lambda-max", type=float, default=8.0)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(command=_cmd_sweep)

    p = sub.add_parser("optimize", help="search emitter phases for a target")
    add_common(p)
    p.add_argument("--objective", choices=("energy", "capacity"), required=True)
    p.add_argument("--point", required=True, help="x,y[,z] objective location")
    p.add_argument("--budget", type=int, default=800)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(command=_cmd_optimize)

    p = sub.add_parser("kernels", help="dump kernel profiles as CSV")
    p.add_argument("--kind", choices=("commutator", "radiation-time",
                                      "radiation-radial", "variance"),
                   required=True)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--r", default="0.5,8,32", help="min,max,count for r (or d)")
    p.add_argument("--dt", default="5", help="time difference (single value)")
    p.add_argument("--out", required=True)
    p.set_defaults(command=_cmd_kernels)

    p = sub.add_parser("oracle", help="pipeline vs exact Fock comparison table")
    p.set_defaults(command=_cmd_oracle)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser main uses: built on the first call, then kept for the process.

    parse_args fills a fresh namespace on every call, so reuse carries no
    state from one command to the next.
    """
    return build_parser()


# ----------------------------------------------------------------------
# subcommand bodies
# ----------------------------------------------------------------------

def _recorded(command):
    """The output-writing command as one step that keeps its run record.

    command(args) writes args.out and returns (outputs, settings,
    fingerprints, summary): outputs the paths it wrote, summary taking the
    wall time in seconds to the stdout line.
    The step times the command, writes <out>.manifest.json beside the CSV
    and prints the summary.
    """
    def run(args) -> int:
        t0 = time.perf_counter()
        outputs, settings, fingerprints, summary = command(args)
        wall_time_s = time.perf_counter() - t0
        _write_json(_beside(args.out, ".manifest.json"), {
            "subcommand": args.subcommand, "config": getattr(args, "config", None),
            "outputs": outputs, "settings": settings, "fingerprints": fingerprints,
            "wall_time_s": wall_time_s})
        print(summary(wall_time_s))
        return EXIT_OK

    return run


def _cmd_validate(args) -> int:
    scenario = load_scenario_file(args.config)
    print(f"ok: {scenario.n_emitters} emitters, receiver couples at "
          f"t={scenario.receiver.coupling_time}, evaluation time "
          f"{scenario.evaluation_time}")
    print(f"fingerprint: {scenario_fingerprint(scenario)}")
    return EXIT_OK


@_recorded
def _cmd_map(args):
    scenario = load_scenario_file(args.config)
    window = _window_from(args)
    grid = {"energy-map": energy_map, "capacity-map": capacity_map}[args.subcommand](
        scenario, window, args.resolution)
    outputs = write_grid_csv(grid, args.out)
    ny, nx = grid.values.shape
    return (outputs, {"window": list(window), "resolution": args.resolution},
            {"scenario": scenario_fingerprint(scenario), "grid": grid.fingerprint},
            lambda wall_time_s: f"wrote {args.out} ({ny}x{nx} cells, {wall_time_s:.1f}s)")


@_recorded
def _cmd_diff(args):
    grid = diff_map(read_grid_csv(args.a), read_grid_csv(args.b))
    outputs = write_grid_csv(grid, args.out)
    return (outputs, {"a": args.a, "b": args.b}, {"grid": grid.fingerprint},
            lambda _: f"wrote {args.out}")


@_recorded
def _cmd_sweep(args):
    for flag, value in (("--lambda-min", args.lambda_min), ("--lambda-max", args.lambda_max)):
        if not math.isfinite(value):
            raise ValidationError(flag, f"must be finite, got {value!r}")
    scenario = load_scenario_file(args.config)
    curve = coupling_sweep(scenario, np.linspace(args.lambda_min, args.lambda_max,
                                                 args.samples))
    outputs = write_sweep_csv(curve, args.out)
    return (outputs, {"lambda_min": args.lambda_min, "lambda_max": args.lambda_max,
                      "samples": args.samples},
            {"scenario": scenario_fingerprint(scenario), "curve": curve.fingerprint},
            lambda _: f"wrote {args.out}; argmax capacity {curve.argmax_capacity:.6e} "
                      f"at lambda_B = {curve.argmax_coupling:.4f}")


@_recorded
def _cmd_optimize(args):
    scenario = load_scenario_file(args.config)
    point = _point_from(args.point)
    result = optimize_phases(scenario, args.objective, point, budget=args.budget,
                             restarts=args.restarts, seed=args.seed)
    lines = ["evaluation,value," + ",".join(f"theta_{i+1}"
                                            for i in range(len(result.phases)))]
    row = "{}," + _row_format(1 + len(result.phases))
    lines += [row.format(i, value, *thetas) for i, (thetas, value) in enumerate(result.trace)]
    outputs = [_write_lines(args.out, lines)]
    status = "converged" if result.converged else "budget exhausted (best-so-far)"
    return (outputs, {"objective": args.objective, "point": list(point), "budget": args.budget,
                      "restarts": args.restarts, "seed": args.seed,
                      "converged": result.converged},
            {"scenario": scenario_fingerprint(scenario)},
            lambda _: f"{status}: value {result.value:.8e} at phases "
                      + ", ".join(f"{t:.4f}" for t in result.phases)
                      + f" ({result.evaluations} evaluations)")


@_recorded
def _cmd_kernels(args):
    ks = KernelSet(args.radius)
    lo, hi, count = _numbers(args.r, "--r", "min,max,count", (3,))
    if count != int(count) or count < 1:
        raise ValidationError("--r", f"count must be an integer >= 1, got {args.r!r}")
    rs = np.linspace(lo, hi, int(count))
    dt = _numbers(args.dt, "--dt", "one time difference", (1,))[0]
    if args.kind == "variance":  # position independent: one quadrature for every row
        kv = ks.vacuum_variance_value()
        values, errors, exact = (np.full(rs.shape, v) for v in (
            kv.value, kv.error, closed_form_variance(args.radius)))
    else:
        kv = getattr(ks, args.kind.replace("-", "_") + "_value")(rs, dt)  # one batch
        values, errors = kv.value, kv.error
        exact = (closed_form_commutator(rs, dt, args.radius, args.radius)
                 if args.kind == "commutator" else closed_form_radiation(
                     rs, dt, args.radius)[0 if args.kind == "radiation-time" else 1])
    lines = ["r,dt,value,err_estimate,closed_form"]
    lines += map(_row_format(5).format, rs, [dt] * len(rs), values, errors, exact)
    outputs = [_write_lines(args.out, lines)]
    return (outputs, {"kind": args.kind, "radius": args.radius, "dt": dt}, {},
            lambda _: f"wrote {args.out} ({len(rs)} samples)")


def _cmd_oracle(args) -> int:
    rows = run_standard_comparisons()
    width = max(len(r.case) for r in rows)
    print(f"{'case':<{width}}  {'pipeline':>14}  {'exact':>14}  {'|diff|':>10}  "
          f"{'tol':>8}  result")
    failures = 0
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{r.case:<{width}}  {r.pipeline:>14.8e}  {r.exact:>14.8e}  "
              f"{r.difference:>10.2e}  {r.tolerance:>8.0e}  {status}")
    print(f"{len(rows) - failures}/{len(rows)} comparisons passed")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def main(argv=None) -> int:
    """Run one command; a receiver that has not coupled is reported as one stderr line."""
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ReceiverNotCoupledWarning)
        code = _run(args)
    for w in caught:  # a command runs one receiver channel, so it warns at most once
        if issubclass(w.category, ReceiverNotCoupledWarning):
            print(f"warning: {w.message}", file=sys.stderr)
        else:  # as it would have been shown
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


def _run(args) -> int:
    try:
        return args.command(args)
    except (ValidationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (QuadratureError, OracleBudgetError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
