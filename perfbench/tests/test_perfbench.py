"""Tests of the benchmark itself: metric names, output checks, the explore
generator, layer coverage of the traced run, and the compare verdicts.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import child
import collect
import compare
import workloads as wl
from spans import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# ----------------------------------------------------------------------
# emitted metrics
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, key):
    done = run_bench(ROOT, "--workload", "explore", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in SPEC[key]}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "explore", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def _perturbed_copy(src: Path, dst: Path, share: float, cell=None) -> None:
    """Copy a map CSV, scaling one cell (or every cell) by 1 + share."""
    grid = wl.read_csv_matrix(src)
    values = grid[1:, 1:]
    if cell is None:
        values *= 1.0 + share
    else:
        values[cell] *= 1.0 + share
    lines = ["," + ",".join(str(float(v)) for v in grid[0, 1:])]
    lines += [",".join(str(float(v)) for v in row) for row in grid[1:]]
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", ["fig1.csv", "fig1b.csv", "fig2b.csv"])
def test_map_check_tolerance(tmp_path, name):
    ref = wl.REFERENCE / name
    out = tmp_path / name
    values = wl.read_csv_matrix(ref)[1:, 1:]
    peak = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    _perturbed_copy(ref, out, 1e-12)                 # rounding-level everywhere
    assert wl.compare_grids(out, ref) is None
    _perturbed_copy(ref, out, 1e-4, cell=peak)       # one wrong cell
    assert wl.compare_grids(out, ref) is not None


class _FakeCli:
    """Stands in for qshock.cli: 'writes' each op's output by copying a file."""

    def __init__(self, outputs):
        self.outputs = outputs

    def main(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        source = self.outputs[out.name]
        if isinstance(source, Exception):
            raise source
        shutil.copyfile(source, out)
        return 0


def test_perturbed_output_counts_as_failed(tmp_path):
    ops = wl.fig1_energy(tmp_path)
    wrong = tmp_path / "wrong.csv"
    values = wl.read_csv_matrix(wl.REFERENCE / "fig1.csv")[1:, 1:]
    _perturbed_copy(wl.REFERENCE / "fig1.csv", wrong, 1e-3,
                    cell=np.unravel_index(np.argmax(values), values.shape))
    good = {op.out.name: wl.REFERENCE / op.out.name for op in ops}
    assert child.run_pass(_FakeCli(good), ops)["problems"] == []
    bad = dict(good, **{"fig1.csv": wrong, "fig1b.csv": RuntimeError("boom")})
    result = child.run_pass(_FakeCli(bad), ops)
    assert len(result["latencies"]) == 3
    assert [p.split(":")[0] for p in result["problems"]] == ["energy-map fig1.cfg", "diff"]


def test_sweep_and_optimize_checks(tmp_path):
    pool = wl.explore_pool()
    sweep = next(s for s in pool["sweeps"] if s["max_capacity"] > 1e-9)
    op = wl._sweep_op(sweep, tmp_path / "s.cfg", tmp_path / "s.csv")
    caps = np.zeros(wl.SWEEP_SAMPLES)
    caps[sweep["argmax_index"]] = sweep["max_capacity"]
    body = "\n".join(f"{i},{float(c)!r}" for i, c in enumerate(caps))
    op.out.write_text("lambda_B,capacity\n" + body + "\n", encoding="utf-8")
    assert op.check(0, "") == (wl.SWEEP_SAMPLES, None)
    caps[sweep["argmax_index"]] *= 1.001
    body = "\n".join(f"{i},{float(c)!r}" for i, c in enumerate(caps))
    op.out.write_text("lambda_B,capacity\n" + body + "\n", encoding="utf-8")
    assert op.check(0, "")[1] is not None
    assert op.check(2, "")[1] == "exit code 2"

    spec = next(s for s in pool["optimizes"] if s["best"] > 1e-6)
    op = wl._optimize_op(spec, tmp_path / "o.csv")
    for best, ok in ((spec["best"], True), (spec["best"] * 0.999, False)):
        op.out.write_text(f"evaluation,value,theta_1\n0,{best!r},0\n", encoding="utf-8")
        assert (op.check(0, "")[1] is None) is ok


def test_oracle_check():
    ref = json.loads((wl.REFERENCE / "oracle.json").read_text(encoding="utf-8"))
    table = "\n".join(f"{r['case']}  {r['pipeline']:.8e}  {r['exact']:.8e}  0.00e+00  "
                      f"1e-06  {r['verdict']}" for r in ref)
    (op,) = wl.oracle(ref)
    assert op.check(0, table) == (len(ref), None)
    assert op.check(0, table.replace("pass", "FAIL", 1))[1] is not None
    assert op.check(0, "\n".join(table.splitlines()[1:]))[1] is not None


# ----------------------------------------------------------------------
# explore generator
# ----------------------------------------------------------------------

def _explore_fingerprint(workdir: Path, seed: int):
    ops = wl.explore(workdir, seed)
    configs = [Path(op.argv[2]).read_text(encoding="utf-8") for op in ops
               if op.kind == "sweep"]
    argvs = [tuple(a.replace(str(workdir), "<dir>") for a in op.argv) for op in ops]
    return argvs, configs


def test_explore_is_deterministic_per_seed(tmp_path):
    first = _explore_fingerprint(tmp_path / "a", 7)
    assert first == _explore_fingerprint(tmp_path / "b", 7)
    assert first != _explore_fingerprint(tmp_path / "c", 8)
    kinds = [argv[0] for argv in first[0]]
    assert len(kinds) >= 100
    assert kinds.count("sweep") == wl.EXPLORE_SWEEPS
    assert kinds.count("optimize") == wl.EXPLORE_OPTIMIZES


# ----------------------------------------------------------------------
# traced run: every layer is reached on the workload predicted to use it
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli():
    import qshock.cli
    return qshock.cli


def _traced(cli, ops):
    run = child.measure_traced(cli, ops, seconds=0)
    assert [msg for p in run["passes"] for msg in p["problems"]] == []
    return run["metrics"]


def test_fig1_energy_layers(cli, tmp_path):
    m = _traced(cli, wl.fig1_energy(tmp_path))
    for name in ("kernels.radiation.calls", "emitters.pair_correlation.calls",
                 "observables.energy_density.calls", "scenario.load.calls",
                 "mapper.grid.self_s", "mapper.write.self_s", "mapper.write.bytes",
                 "mapper.read.self_s", "mapper.parallel_efficiency", "cli.self_s",
                 "kernels.share"):
        assert m[name] > 0, name
    assert m["kernels.commutator.calls"] == 0 and m["oracle.expm.calls"] == 0


def test_fig2_capacity_layers(cli, tmp_path):
    m = _traced(cli, wl.fig2_capacity(tmp_path))
    for name in ("kernels.commutator.calls", "kernels.variance.calls",
                 "kernels.cache_hit_ratio", "emitters.product_expectation.calls",
                 "observables.excitation_probability.calls",
                 "observables.channel_capacity.calls", "scenario.build.calls",
                 "mapper.grid.self_s"):
        assert m[name] > 0, name
    assert m["kernels.radiation.calls"] == 0


def test_explore_layers(cli, tmp_path):
    ops = wl.explore(tmp_path, 1)
    ops = [next(op for op in ops if op.kind == "sweep")] + \
          [op for op in ops if op.kind == "optimize"][:2]
    m = _traced(cli, ops)
    for name in ("mapper.sweep.self_s", "mapper.optimize.self_s", "scenario.build.calls",
                 "kernels.commutator.calls", "kernels.cache_hit_ratio",
                 "emitters.product_expectation.calls", "cli.self_s"):
        assert m[name] > 0, name
    assert m["mapper.parallel_efficiency"] == 0 and m["oracle.exact.calls"] == 0


def test_oracle_layers(cli, monkeypatch):
    import qshock.oracle
    cheap = qshock.oracle.standard_comparison_cases()[:2]
    monkeypatch.setattr(qshock.oracle, "standard_comparison_cases", lambda: cheap)
    ref = json.loads((wl.REFERENCE / "oracle.json").read_text(encoding="utf-8"))
    m = _traced(cli, wl.oracle(ref_rows=ref[:len(cheap)]))
    for name in ("oracle.exact.calls", "oracle.discrete.self_s", "oracle.expm.calls",
                 "oracle.expm.max_dim", "oracle.battery.self_s"):
        assert m[name] > 0, name
    assert m["kernels.radiation.calls"] == 0


def test_tracer_reports_missing_names_and_restores(monkeypatch):
    import qshock.cli
    original = qshock.cli.energy_map
    tracer = Tracer()
    tracer.install()
    try:
        assert qshock.cli.energy_map is not original
    finally:
        tracer.restore()
    assert qshock.cli.energy_map is original
    assert tracer.absent == []

    import spans
    monkeypatch.setattr(spans, "SPANS", (("qshock.cli", "no_such_function", "cli"),))
    tracer = Tracer().install()
    tracer.restore()
    assert tracer.absent == ["qshock.cli.no_such_function"]


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans[:] = [["outer", 0.0, 10.0, -1, None], ["inner", 2.0, 5.0, 0, None],
                       ["inner", 6.0, 7.0, 0, None]]
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == pytest.approx(6.0)
    assert summary["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------

BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


@pytest.mark.parametrize("new, expected", [
    ([v * 0.7 for v in BASE], "improved"),
    ([v * 1.05 for v in BASE], "no worse"),
    ([v * 1.5 for v in BASE], "worse"),
])
def test_verdicts(new, expected):
    assert compare.verdict(BASE, new, "lower", 0.1, False)[0] == expected


def test_no_gain_when_more_operations_fail():
    faster = [v * 0.7 for v in BASE]
    assert compare.verdict(BASE, faster, "lower", 0.1, True)[0] == "no worse"


def test_no_gain_from_fewer_than_ten_pairs():
    faster = [v * 0.7 for v in BASE]
    assert compare.verdict(BASE[:9], faster[:9], "lower", 0.1, False)[0] == "no worse"


def test_wide_parent_spread_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.1, False)[0] \
        == "unresolved"


def test_pairs_alternate_which_side_runs_first():
    assert [collect.pair_order(i, 2) for i in range(4)] == [[0, 1], [1, 0], [0, 1], [1, 0]]
    assert collect.pair_order(1, 1) == [0]
