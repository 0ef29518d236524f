import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qshock import cli, oracle
from qshock.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION,
                        build_parser, main)
from qshock.kernels import KernelSet
from qshock.mapper import coupling_sweep, write_sweep_csv
from qshock.observables import ReceiverNotCoupledWarning
from qshock.scenario import Detector, Scenario, load_scenario_file, w_state

from conftest import three_emitter_config

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def assert_node_bound_failure(argv, capsys):
    """argv exits 2 with one stderr line, the head rule's node bound, and no warning."""
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_NUMERICAL
    assert escaped == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: head quadrature needs ")
    assert "nodes, above the bound of 1048576" in err[0]


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scn.cfg"
    path.write_text(three_emitter_config(evaluation_time=9.0))
    return path


class TestValidate:
    def test_ok(self, config_file, capsys):
        assert main(["validate", "--config", str(config_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3 emitters" in out
        assert "fingerprint" in out

    def test_broken_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text('{"receiver": {"position": [0,0,0], "time": 1, '
                       '"lambda": 1, "radius": -2}, "evaluation_time": 2}')
        assert main(["validate", "--config", str(bad)]) == EXIT_VALIDATION
        assert "radius" in capsys.readouterr().err

    @pytest.mark.parametrize("config, field, keys", [
        ("fig1", "evaluation_time", ("evaluation_time",)),
        ("fig2a", "state.components[0].weight", ("state", "components", 0, "weight")),
        ("fig2a", "state.components[0].amplitudes[1][0]",
         ("state", "components", 0, "amplitudes", 1, 0)),
        ("fig2a", "emitters[2].position[1]", ("emitters", 2, "position", 1)),
    ])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    def test_non_finite_number_exits_one_naming_its_field(self, tmp_path, capsys, config,
                                                          field, keys, value):
        # json.loads accepts NaN and +-Infinity, and an integer beyond float range
        cfg = load_scenario_file(SCENARIOS / f"{config}.cfg").to_config_dict()
        target = cfg
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = "VALUE"
        bad = tmp_path / "bad.cfg"
        bad.write_text(json.dumps(cfg).replace('"VALUE"', value))
        assert main(["validate", "--config", str(bad)]) == EXIT_VALIDATION
        assert f"error: {field}: expected a finite number" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent.cfg"]) == EXIT_VALIDATION

    def test_bundled_scenarios_validate(self):
        for cfg in sorted(SCENARIOS.glob("*.cfg")):
            assert main(["validate", "--config", str(cfg)]) == EXIT_OK


class TestUsageErrors:
    def test_unknown_flag(self):
        assert main(["validate", "--config", "x", "--bogus"]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_energy_map_has_no_quadrature_knobs(self, config_file, tmp_path):
        # closed-form energy maps have no tolerance and no worker pool
        for flag in (["--threads", "2"], ["--tolerance", "1e-6"]):
            assert main(["energy-map", "--config", str(config_file),
                         "--out", str(tmp_path / "e.csv"), *flag]) == EXIT_USAGE

    def test_sweep_and_optimize_have_no_threads(self, tmp_path):
        # both run serially: --threads could not change anything
        fig3, fig2a = str(SCENARIOS / "fig3.cfg"), str(SCENARIOS / "fig2a.cfg")
        for argv in (["sweep", "--config", fig3, "--samples", "5"],
                     ["optimize", "--config", fig2a, "--objective", "capacity",
                      "--point", "11,4.5", "--budget", "20"]):
            out = str(tmp_path / f"{argv[0]}.csv")
            assert main([*argv, "--out", out, "--threads", "2"]) == EXIT_USAGE
            assert main([*argv, "--out", out]) == EXIT_OK

    def test_capacity_map_has_no_threads(self, tmp_path):
        # the map integrates its commutators as one batch in this process
        argv = ["capacity-map", "--config", str(SCENARIOS / "fig3.cfg"),
                "--resolution", "3", "--out", str(tmp_path / "m.csv")]
        for threads in ("2", "0", "-2"):
            assert main([*argv, "--threads", threads]) == EXIT_USAGE
        assert main(argv) == EXIT_OK
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["settings"] == {"window": [0.0, 16.0, 0.0, 16.0], "resolution": 3}

    def test_capacity_commands_have_no_tolerance(self, config_file, tmp_path):
        # every numerical routine runs at one fixed setting: no subcommand
        # takes a tolerance, the kernel dump and the oracle included
        fig2a, out = str(SCENARIOS / "fig2a.cfg"), str(tmp_path / "out.csv")
        commands = (["validate", "--config", fig2a],
                    ["energy-map", "--config", str(config_file), "--out", out],
                    ["capacity-map", "--config", str(config_file), "--resolution", "3",
                     "--out", out],
                    ["diff", "--a", out, "--b", out, "--out", out],
                    ["sweep", "--config", fig2a, "--samples", "5", "--out", out],
                    ["optimize", "--config", fig2a, "--objective", "capacity",
                     "--point", "11,4.5", "--budget", "20", "--out", out],
                    ["kernels", "--kind", "variance", "--out", out],
                    ["oracle"])
        assert {argv[0] for argv in commands} == set(
            build_parser()._subparsers._group_actions[0].choices)
        for argv in commands:
            assert main([*argv, "--tolerance", "1e-6"]) == EXIT_USAGE, argv[0]
        assert not (tmp_path / "out.csv").exists()

    def test_tolerance_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        argv = ["sweep", "--config", str(SCENARIOS / "fig3.cfg"), "--samples", "20"]
        plain, loose = tmp_path / "plain.csv", tmp_path / "loose.csv"
        assert main([*argv, "--out", str(plain)]) == EXIT_OK
        monkeypatch.setenv("QSHOCK_KERNEL_RTOL", "1e-3")
        assert main([*argv, "--out", str(loose)]) == EXIT_OK
        assert plain.read_bytes() == loose.read_bytes()
        plain_run, loose_run = (json.loads((tmp_path / f"{name}.manifest.json").read_text())
                                for name in ("plain", "loose"))
        assert plain_run["settings"] == loose_run["settings"]
        assert "rel_tol" not in plain_run["settings"]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "energy-map" in capsys.readouterr().out


class TestMapsAndDiff:
    def test_energy_map_outputs(self, config_file, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["energy-map", "--config", str(config_file), "--out", str(out),
                     "--window", "3,13,0,10", "--resolution", "12"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 13                 # header + 12 rows
        assert lines[0].startswith(",")
        assert (tmp_path / "grid.json").exists()
        manifest = json.loads((tmp_path / "grid.manifest.json").read_text())
        assert manifest["subcommand"] == "energy-map"
        assert str(out) in manifest["outputs"]
        assert manifest["fingerprints"]["scenario"]
        assert "rel_tol" not in manifest["settings"]

    def test_byte_identical_reruns(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--config", str(config_file), "--window", "3,13,0,10",
                "--resolution", "10"]
        assert main(["energy-map", *args, "--out", str(a)]) == EXIT_OK
        assert main(["energy-map", *args, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_capacity_map_and_diff(self, tmp_path):
        cfg_w = tmp_path / "w.cfg"
        cfg_c = tmp_path / "c.cfg"
        cfg_w.write_text(three_emitter_config("w", evaluation_time=9.0))
        cfg_c.write_text(three_emitter_config("classical", evaluation_time=9.0))
        out_w, out_c, delta = (tmp_path / n for n in ("w.csv", "c.csv", "d.csv"))
        args = ["--window", "6,13,0,8", "--resolution", "8"]
        assert main(["capacity-map", "--config", str(cfg_w), "--out", str(out_w),
                     *args]) == EXIT_OK
        assert main(["capacity-map", "--config", str(cfg_c), "--out", str(out_c),
                     *args]) == EXIT_OK
        assert main(["diff", "--a", str(out_w), "--b", str(out_c),
                     "--out", str(delta)]) == EXIT_OK
        side = json.loads((tmp_path / "d.json").read_text())
        assert side["quantity"] == "delta"
        # without their sidecars the maps read back as quantity "unknown", still comparable
        for path in (out_w, out_c):
            path.with_suffix(".json").unlink()
        assert main(["diff", "--a", str(out_w), "--b", str(out_c),
                     "--out", str(delta)]) == EXIT_OK
        side = json.loads((tmp_path / "d.json").read_text())
        assert (side["quantity"], side["base_quantity"], side["minuend"]) == (
            "delta", "unknown", "")

    def test_quadrature_failure_exits_two(self, config_file, tmp_path, capsys,
                                          one_argument_diverges):
        assert main(["capacity-map", "--config", str(config_file),
                     "--out", str(tmp_path / "m.csv"), "--window", "8,12,2,6",
                     "--resolution", "4"]) == EXIT_NUMERICAL
        assert "numerical failure: head quadrature did not converge" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("radius", [1e-5, 1e-200, 1e110])
    def test_extreme_receiver_radius_exits_two(self, tmp_path, capsys, radius):
        # the head rule would need millions of nodes per argument, or more than a
        # float can count, or a radius power that overflows: refused before any
        cfg = json.loads((SCENARIOS / "fig2b.cfg").read_text())
        cfg["receiver"]["radius"] = radius
        path, out = tmp_path / "extreme.cfg", tmp_path / "m.csv"
        path.write_text(json.dumps(cfg))
        assert_node_bound_failure(["capacity-map", "--config", str(path), "--out", str(out),
                                   "--resolution", "4"], capsys)
        assert not out.exists()

    def test_receiver_radius_refused_by_nu_runs_no_commutator(self, tmp_path, capsys,
                                                              monkeypatch):
        # at radius 2e4 nu's rule alone exceeds the node bound; nu is integrated
        # first, so the map fails before any commutator quadrature
        calls = []
        real = KernelSet.commutator

        def spy(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(KernelSet, "commutator", spy)
        cfg = json.loads((SCENARIOS / "fig2b.cfg").read_text())
        cfg["receiver"]["radius"] = 2e4
        path, out = tmp_path / "wide.cfg", tmp_path / "m.csv"
        path.write_text(json.dumps(cfg))
        assert_node_bound_failure(["capacity-map", "--config", str(path), "--out", str(out),
                                   "--resolution", "4"], capsys)
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_diff_of_empty_csv_fails(self, tmp_path, capsys, text):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        assert main(["diff", "--a", str(empty), "--b", str(empty),
                     "--out", str(tmp_path / "d.csv")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "empty grid CSV" in err
        assert not (tmp_path / "d.csv").exists()

    def test_window_must_be_finite(self, config_file, tmp_path, capsys):
        out = tmp_path / "m.csv"
        for window in ("0,nan,0,16", "0,16,-inf,16", "0,16,0", "0,16,0,x"):
            assert main(["capacity-map", "--config", str(config_file), "--out", str(out),
                         "--resolution", "3", "--window", window]) == EXIT_VALIDATION
            assert "--window" in capsys.readouterr().err
        assert not out.exists()

    def test_diff_axis_mismatch_fails(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["energy-map", "--config", str(config_file), "--window", "3,13,0,10"]
        assert main([*common, "--resolution", "8", "--out", str(a)]) == EXIT_OK
        assert main([*common, "--resolution", "9", "--out", str(b)]) == EXIT_OK
        assert main(["diff", "--a", str(a), "--b", str(b),
                     "--out", str(tmp_path / "d.csv")]) == EXIT_VALIDATION


class TestSweepAndOptimize:
    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(SCENARIOS / "fig3.cfg"),
                     "--out", str(out), "--lambda-min", "0", "--lambda-max", "6",
                     "--samples", "20"])
        assert code == EXIT_OK
        assert "argmax" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 21

    def test_optimize_writes_trace(self, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text(json.dumps({
            "emitters": [
                {"position": [5, 0, 0], "time": 1, "lambda": 1},
                {"position": [6.5, 0, 0], "time": 2, "lambda": 1}],
            "receiver": {"position": [8, 6, 0], "time": 8, "lambda": 2},
            "state": {"type": "w", "phases": [0, 0]},
            "evaluation_time": 8}))
        out = tmp_path / "trace.csv"
        code = main(["optimize", "--config", str(cfg), "--objective", "energy",
                     "--point", "10.0833,4.8126", "--budget", "150",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("evaluation,value,theta_1")
        assert len(lines) > 10

    def test_receiver_not_coupled_is_one_warning_line(self, tmp_path, capsys):
        cfg = json.loads((SCENARIOS / "fig3.cfg").read_text())
        cfg["evaluation_time"] = cfg["receiver"]["time"]
        path = tmp_path / "early.cfg"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            code = main(["sweep", "--config", str(path), "--out", str(out), "--samples", "5"])
        assert code == EXIT_OK and escaped == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: ")
        t = cfg["evaluation_time"]
        assert f"evaluation_time {t!r}" in err[0] and f"receiver's time {t!r}" in err[0]
        # the CSV is the library's: a sweep of zeros
        with pytest.warns(ReceiverNotCoupledWarning):
            curve = coupling_sweep(load_scenario_file(path), np.linspace(0.0, 8.0, 5))
        write_sweep_csv(curve, tmp_path / "library.csv")
        (tmp_path / "library.json").unlink()
        assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()
        assert not curve.capacities.any()

    @pytest.mark.parametrize("command", [["capacity-map", "--resolution", "4"],
                                         ["sweep", "--lambda-max", "1e300", "--samples", "4"]])
    def test_huge_receiver_coupling_gives_zero_capacity(self, tmp_path, capsys, command):
        cfg = json.loads((SCENARIOS / "fig2b.cfg").read_text())
        cfg["receiver"]["lambda"] = 1e160
        path = tmp_path / "loud.cfg"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main([command[0], "--config", str(path), "--out", str(out),
                     *command[1:]]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        values = [float(v) for row in rows for v in row[1:]]
        if command[0] == "sweep":  # 0, 1e300/3, ...: only lambda_B = 0 gives C1 > 0
            assert values == [0.0] * 4
        else:
            assert len(values) == 16 and not any(values)
            assert json.loads(out.with_suffix(".json").read_text())["noise_probability"] == 0.5

    @pytest.mark.parametrize("command", [
        ["energy-map", "--resolution", "24"],
        ["optimize", "--objective", "energy", "--point", "10.75,5.56", "--budget", "30"]])
    def test_overflowing_energy_density_names_the_emitter_lambda(self, tmp_path, capsys,
                                                                 command):
        cfg = json.loads((SCENARIOS / "fig1.cfg").read_text())
        cfg["emitters"][1]["lambda"] = 1e200
        path = tmp_path / "loud.cfg"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main([command[0], "--config", str(path), "--out", str(out),
                     *command[1:]]) == EXIT_VALIDATION
        # one line naming the field; no numpy overflow warning, no trace of nan rows
        assert capsys.readouterr().err.splitlines() == [
            "error: emitters[1].lambda: 1e+200 overflows the energy density "
            "(4 lambda_i lambda_l or T00 is not finite)"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--lambda-max", "inf"), ("--lambda-min", "nan"),
                                             ("--lambda-min", "-inf")])
    def test_lambda_range_must_be_finite(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            code = main(["sweep", "--config", str(SCENARIOS / "fig3.cfg"), "--out", str(out),
                         f"{flag}={value}", "--samples", "5"])
        assert code == EXIT_VALIDATION and escaped == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: {flag}: must be finite, got {float(value)!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_exits_one(self, tmp_path, capsys, budget):
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--config", str(SCENARIOS / "fig2a.cfg"),
                     "--objective", "capacity", "--point", "11,4.5", "--budget", budget,
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("objective, point", [
        ("capacity", "nan,4"), ("energy", "inf,4"), ("energy", "11,4.5,-inf"),
        ("capacity", "11"), ("capacity", "1,2,3,4")])
    def test_point_must_be_finite(self, tmp_path, capsys, objective, point):
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--config", str(SCENARIOS / "fig2a.cfg"),
                     "--objective", objective, "--point", point, "--budget", "20",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "--point" in capsys.readouterr().err
        assert not out.exists()


class TestRunRecord:
    @pytest.mark.parametrize("argv", [
        ["energy-map", "--config", "CONFIG", "--resolution", "3"],
        ["capacity-map", "--config", "CONFIG", "--resolution", "3"],
        ["diff", "--a", "A", "--b", "B"],
        ["sweep", "--config", "CONFIG", "--samples", "5"],
        ["optimize", "--config", "CONFIG", "--objective", "energy", "--point", "1,2",
         "--budget", "8"],
        ["kernels", "--kind", "variance", "--r", "0.5,8,3"],
    ], ids=lambda argv: argv[0])
    def test_every_output_writing_command_writes_one_manifest(self, argv, config_file,
                                                              tmp_path):
        given = {"CONFIG": str(config_file)}
        if argv[0] == "diff":
            for name in ("A", "B"):
                given[name] = str(tmp_path / f"{name}.csv")
                assert main(["energy-map", "--config", given["CONFIG"], "--resolution", "3",
                             "--out", given[name]]) == EXIT_OK
        out = str(tmp_path / "out.csv")
        assert main([given.get(word, word) for word in argv] + ["--out", out]) == EXIT_OK
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert set(manifest) == {"subcommand", "config", "outputs", "settings",
                                 "fingerprints", "wall_time_s"}
        sidecar = str(tmp_path / "out.json")
        writes_sidecar = argv[0] in ("energy-map", "capacity-map", "diff", "sweep")
        assert manifest["outputs"] == ([out, sidecar] if writes_sidecar else [out])
        assert all(os.path.exists(path) for path in manifest["outputs"])
        assert manifest["subcommand"] == argv[0]
        assert manifest["config"] == (given["CONFIG"] if "--config" in argv else None)


class TestKernelsDump:
    @pytest.mark.parametrize("kind", ["commutator", "radiation-time", "radiation-radial",
                                      "variance"])
    def test_extreme_radius_exits_two(self, tmp_path, capsys, kind):
        out = tmp_path / "profile.csv"
        assert_node_bound_failure(["kernels", "--kind", kind, "--radius", "1e300",
                                   "--r", "0.5,3,4", "--dt", "1", "--out", str(out)], capsys)
        assert not out.exists()

    def test_radiation_profile(self, tmp_path):
        out = tmp_path / "profile.csv"
        code = main(["kernels", "--kind", "radiation-time", "--r", "4,6,9",
                     "--dt", "5", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "r,dt,value,err_estimate,closed_form"
        assert len(lines) == 10

    def test_manifest_records_no_tolerance(self, tmp_path):
        out = tmp_path / "nu.csv"
        assert main(["kernels", "--kind", "variance", "--r", "1,2,2",
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "nu.manifest.json").read_text())
        assert manifest["settings"] == {"kind": "variance", "radius": 0.5, "dt": 5.0}

    @pytest.mark.parametrize("samples", ["0.5,8,2.9", "0.5,8,0", "0.5,8,-3",
                                         "0.5,nan,4", "0.5,8", "0.5,8,inf"])
    def test_sample_count_must_be_a_positive_integer(self, tmp_path, capsys, samples):
        out = tmp_path / "k.csv"
        assert main(["kernels", "--kind", "commutator", "--r", samples,
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "--r" in capsys.readouterr().err
        assert not out.exists()

    def test_time_difference_must_be_finite(self, tmp_path):
        assert main(["kernels", "--kind", "radiation-time", "--dt", "nan",
                     "--out", str(tmp_path / "k.csv")]) == EXIT_VALIDATION

    def test_every_kind_has_closed_form_column(self, tmp_path):
        # the closed form is always written, so the switch that asked for it is gone
        for kind in ("commutator", "radiation-time", "radiation-radial", "variance"):
            out = tmp_path / f"{kind}.csv"
            argv = ["kernels", "--kind", kind, "--r", "2,4,5", "--dt", "3", "--out", str(out)]
            assert main([*argv, "--cross-check"]) == EXIT_USAGE
            assert not out.exists()
            assert main(argv) == EXIT_OK
            lines = out.read_text().splitlines()
            assert lines[0] == "r,dt,value,err_estimate,closed_form"
            for line in lines[1:]:
                row = line.split(",")
                # both columns carry 9 significant digits
                assert float(row[4]) == pytest.approx(float(row[2]), rel=1e-8, abs=1e-12)


class TestOracleCommand:
    def test_table_passes(self, capsys):
        assert main(["oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pass" in out
        assert "FAIL" not in out


class TestSharedParser:
    """main parses every command with one parser, built once per process."""

    @pytest.fixture()
    def recorded(self, monkeypatch):
        """Each command function replaced by one that records its namespace and name."""
        calls = []

        def recorder(name):
            def record(args):
                calls.append({**vars(args), "command": name})
                return EXIT_OK
            return record

        for name in ("_cmd_validate", "_cmd_map", "_cmd_diff", "_cmd_sweep",
                     "_cmd_optimize", "_cmd_kernels", "_cmd_oracle"):
            monkeypatch.setattr(cli, name, recorder(name))
        cli._shared_parser.cache_clear()  # set_defaults binds the functions at build time
        yield calls
        cli._shared_parser.cache_clear()

    def test_built_once_and_build_parser_stays_fresh(self, monkeypatch, recorded):
        builds = []

        def counting_build():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._shared_parser.cache_clear()
        try:
            for argv in (["validate", "--config", "a"], ["oracle"],
                         ["diff", "--a", "x", "--b", "y", "--out", "z"], ["frobnicate"]):
                main(argv)
            assert len(builds) == 1
            assert cli._shared_parser() is cli._shared_parser()
        finally:
            cli._shared_parser.cache_clear()
        assert build_parser() is not build_parser()

    def test_successive_commands_share_no_state(self, recorded):
        opt = ["optimize", "--config", "c", "--out", "o", "--point", "1,2"]
        assert main([*opt, "--objective", "energy", "--seed", "5",
                     "--budget", "7", "--restarts", "2"]) == EXIT_OK
        assert main(["sweep", "--config", "c", "--out", "s", "--samples", "9"]) == EXIT_OK
        assert main([*opt, "--objective", "capacity"]) == EXIT_OK
        assert main(["capacity-map", "--config", "c", "--out", "m",
                     "--resolution", "5"]) == EXIT_OK
        assert main(["capacity-map", "--config", "c", "--out", "m"]) == EXIT_OK
        first, sweep, second, sized, default = recorded
        assert (first["seed"], first["budget"], first["restarts"]) == (5, 7, 2)
        assert (second["seed"], second["budget"], second["restarts"]) == (0, 800, 4)
        assert second["objective"] == "capacity"
        assert sweep == {"subcommand": "sweep", "config": "c", "out": "s",
                         "lambda_min": 0.0, "lambda_max": 8.0, "samples": 9,
                         "command": "_cmd_sweep"}
        assert {first["command"], second["command"]} == {"_cmd_optimize"}
        assert {sized["command"], default["command"]} == {"_cmd_map"}
        assert sized["resolution"] == 5
        assert "threads" not in sized
        assert default["resolution"] == cli.DEFAULT_RESOLUTION

    def test_usage_errors_exit_64_between_commands(self, recorded, capsys):
        bad = (["energy-map", "--config", "c", "--out", "e", "--threads", "2"],
               ["capacity-map", "--config", "c", "--out", "m", "--threads", "0"],
               ["frobnicate"], ["validate"], ["sweep", "--config", "c", "--out", "s",
                                              "--samples", "many"], [])
        for argv in bad:
            assert main(argv) == EXIT_USAGE
            assert main(["validate", "--config", "c"]) == EXIT_OK
        assert all(call == {"subcommand": "validate", "config": "c",
                            "command": "_cmd_validate"} for call in recorded)
        assert main(["--help"]) == 0
        assert "energy-map" in capsys.readouterr().out


# Runs the commands in a fresh interpreter; after each one, prints its exit
# code and the scipy modules loaded so far as one JSON line.
_FRESH = """
import io, json, sys
from contextlib import redirect_stdout
import qshock.cli
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps([None, loaded()]))
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        code = qshock.cli.main(argv)
    print(json.dumps([code, loaded()]))
"""


def _fresh_interpreter(commands, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _FRESH, json.dumps(commands)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


class TestColdStart:
    """Only the subcommands that call into scipy load it."""

    def test_import_and_closed_form_commands_load_no_scipy(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        commands = [["validate", "--config", str(SCENARIOS / "fig1.cfg")],
                    ["energy-map", "--config", str(SCENARIOS / "fig1.cfg"),
                     "--resolution", "4", "--out", a],
                    ["energy-map", "--config", str(SCENARIOS / "fig1_classical.cfg"),
                     "--resolution", "4", "--out", b],
                    ["diff", "--a", a, "--b", b, "--out", str(tmp_path / "d.csv")],
                    ["optimize", "--config", str(SCENARIOS / "fig2a.cfg"),
                     "--objective", "energy", "--point", "11,4.5", "--budget", "20",
                     "--out", str(tmp_path / "o.csv")]]
        steps = _fresh_interpreter(commands, tmp_path)
        assert steps == [[None, []]] + [[EXIT_OK, []]] * len(commands)

    def test_scipy_commands_run_in_a_clean_interpreter(self, tmp_path):
        # the phase search is in-package: no command loads scipy.optimize
        commands = [["optimize", "--config", str(SCENARIOS / "fig2a.cfg"),
                     "--objective", "capacity", "--point", "11,4.5", "--budget", "20",
                     "--out", str(tmp_path / "o.csv")],
                    ["capacity-map", "--config", str(SCENARIOS / "fig2b.cfg"),
                     "--resolution", "4", "--out", str(tmp_path / "c.csv")]]
        start, optimize, capacity = _fresh_interpreter(commands, tmp_path)
        assert start == [None, []]
        for code, loaded in (optimize, capacity):
            assert code == EXIT_OK and "scipy.special" in loaded
            assert "scipy.optimize" not in loaded
        assert (tmp_path / "c.csv").is_file() and (tmp_path / "o.csv").is_file()

    def test_exact_evolution_calls_module_level_expm(self, monkeypatch):
        # benchmark instrumentation wraps qshock.oracle.expm by name
        shapes = []
        real = oracle.expm

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return real(a, *args, **kwargs)

        scenario = Scenario((Detector((0.0, 0.0, 0.0), 0.5, 0.9),),
                            Detector((0.7, 0.9, 0.2), 3.0, 0.8), w_state(1, [0.4]), 5.0)
        modes = oracle.ModeSet(((0.9, 0.2, -0.3), (-0.4, 1.1, 0.3)), (12.0, 20.0), 4)
        expected = oracle.exact_probability(modes, scenario, True)
        monkeypatch.setattr(oracle, "expm", counting)
        assert oracle.exact_probability(modes, scenario, True) == expected
        assert shapes == [(4, 4)] * 4   # one per mode: emitter, then receiver
