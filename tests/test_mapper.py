import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qshock.emitters import MonopolePhase, product_expectation
from qshock.kernels import KernelSet, QuadratureError
from qshock.mapper import (DEFAULT_WINDOW, GridMap, PhaseOptimum, SweepCurve, _BLOCK_CELLS,
                           _nelder_mead, _phase_objective, capacity_map, coupling_sweep, diff_map, energy_map,
                           optimize_phases, read_grid_csv, write_grid_csv,
                           write_sweep_csv)
from qshock.observables import (ChannelPoint, ReceiverNotCoupledWarning, channel_capacity,
                                channel_point, energy_density, excitation_probability)
from qshock.scenario import (Detector, EmitterState, Scenario, load_scenario,
                             load_scenario_file, w_state)

from conftest import four_emitter_config, three_emitter_config

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
WINDOW = (3.0, 13.0, 0.0, 10.0)
R = 0.5  # the default smearing radius of every detector here


@pytest.fixture(scope="module")
def fig_scenario():
    return load_scenario(three_emitter_config())


@pytest.fixture(scope="module")
def small_energy_map(fig_scenario):
    return energy_map(fig_scenario, WINDOW, 24)


class TestGridMap:
    def test_dimension_check(self):
        with pytest.raises(ValueError, match="does not match"):
            GridMap(np.arange(3.0), np.arange(4.0), np.zeros((3, 3)), "energy", "f")

    def test_rejects_nan(self):
        values = np.zeros((2, 2))
        values[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GridMap(np.arange(2.0), np.arange(2.0), values, "energy", "f")
        # non-finite axes too, as a window of nan would give
        for bad in (np.nan, np.inf, -np.inf):
            axis = np.array([0.0, bad])
            with pytest.raises(ValueError, match="finite"):
                GridMap(axis, np.arange(2.0), np.zeros((2, 2)), "energy", "f")
            with pytest.raises(ValueError, match="finite"):
                GridMap(np.arange(2.0), axis, np.zeros((2, 2)), "energy", "f")


class TestEnergyMap:
    def test_empty_scenario_all_zero(self):
        receiver = Detector((0.0, 0.0, 0.0), 1.0, 2.0)
        scn = Scenario((), receiver, EmitterState.pure([1.0]), 8.0)
        grid = energy_map(scn, WINDOW, 8)
        assert np.all(grid.values == 0.0)

    def test_window_outside_light_cones(self, fig_scenario):
        grid = energy_map(fig_scenario, (100.0, 110.0, 100.0, 110.0), 6)
        assert np.all(np.abs(grid.values) < 1e-20)

    @staticmethod
    def assert_pointwise(scn, grid):
        # every cell has the bits of energy_density evaluated at its point alone
        t = scn.evaluation_time
        assert grid.values.tolist() == [[energy_density(scn, (xv, yv, 0.0), t)
                                         for xv in grid.x] for yv in grid.y]

    def test_cells_match_pointwise_evaluation(self, small_energy_map, fig_scenario):
        self.assert_pointwise(fig_scenario, small_energy_map)

    @pytest.mark.parametrize("config", sorted(p.name for p in SCENARIOS.glob("*.cfg")))
    def test_bundled_config_cells_match_pointwise_evaluation(self, config):
        scn = load_scenario_file(SCENARIOS / config)
        self.assert_pointwise(scn, energy_map(scn, DEFAULT_WINDOW, 24))

    def test_cells_match_pointwise_evaluation_across_row_blocks(self, fig_scenario):
        # a narrow window at high y resolution: three blocks of rows, the
        # last one partial, each its own energy_density call
        grid = energy_map(fig_scenario, (9.0, 9.5, 0.0, 10.0), (3, 2800))
        assert 2 * _BLOCK_CELLS < grid.values.size < 3 * _BLOCK_CELLS
        self.assert_pointwise(fig_scenario, grid)

    def test_exact_shell_edge_takes_jump_midpoint(self):
        # the cell at x = 5.5 sits exactly on r - dt = R (dt = 5, R = 0.5)
        emitters = (Detector((0.0, 0.0, 0.0), 0.0, 1.0),)
        scn = Scenario(emitters, Detector((9.0, 0.0, 0.0), 9.0, 2.0),
                       w_state(1, [0.0]), 5.0)
        grid = energy_map(scn, (0.0, 11.0, 0.0, 11.0), 3)
        assert grid.x[1] == 5.5 and grid.y[0] == 0.0
        midpoint = (0.5 / (4.0 * 5.5)) / 2.0  # half the shell-side |kernel| R/4r
        by_kernels = 4.0 * (midpoint**2 + midpoint**2)
        assert grid.values[0, 1] == energy_density(scn, (5.5, 0.0, 0.0), 5.0)
        assert grid.values[0, 1] == pytest.approx(by_kernels, rel=1e-15)

    def test_deterministic_rerun(self, small_energy_map, fig_scenario):
        again = energy_map(fig_scenario, WINDOW, 24)
        assert np.array_equal(small_energy_map.values, again.values)
        assert small_energy_map.fingerprint == again.fingerprint

    def test_resolution_guard(self, fig_scenario):
        with pytest.raises(ValueError, match="resolution"):
            energy_map(fig_scenario, WINDOW, 1)

    def test_map_level_global_phase_invariance(self):
        base = load_scenario(three_emitter_config(phases=(0.2, 1.0, -0.7)))
        shift = load_scenario(three_emitter_config(phases=(1.5, 2.3, 0.6)))
        g1 = energy_map(base, WINDOW, 10)
        g2 = energy_map(shift, WINDOW, 10)
        np.testing.assert_allclose(g2.values, g1.values, atol=1e-12)


CAPACITY_WINDOW = (8.0, 12.0, 2.0, 6.0)


@pytest.fixture(scope="module")
def contact_scenario():
    return load_scenario(three_emitter_config(evaluation_time=9.0))


@pytest.fixture(scope="module")
def small_capacity_map(contact_scenario):
    return capacity_map(contact_scenario, CAPACITY_WINDOW, 6)


def contact_cells(scn, grid):
    """Cells whose receiver lies on some earlier emitter's smeared light-cone shell."""
    rec = scn.receiver
    return np.array([[any(
        0.0 < rec.coupling_time - e.coupling_time
        and abs(math.dist((xv, yv, 0.0), e.position)
                - (rec.coupling_time - e.coupling_time)) < 2 * R
        for e in scn.emitters) for xv in grid.x] for yv in grid.y])


class TestCapacityMap:
    def test_non_converging_argument_aborts(self, contact_scenario, one_argument_diverges):
        # one argument of the map's commutator batch fails: the map fails
        # whole, with the failing argument's achieved and requested error
        with pytest.raises(QuadratureError, match="did not converge") as failure:
            capacity_map(contact_scenario, CAPACITY_WINDOW, 4)
        assert failure.value.requested == 1e-8
        assert failure.value.achieved > 1.0

    @pytest.mark.parametrize("state_type", ["w", "classical"])
    def test_cells_equal_pointwise_channel(self, state_type):
        # a cell from the map's batch equals the receiver evaluated alone there
        scn = load_scenario(four_emitter_config(phases=(0, 0, math.pi, math.pi),
                                                state_type=state_type))
        grid = capacity_map(scn, (8.0, 14.0, 0.0, 6.0), 6)
        for iy, yv in enumerate(grid.y):
            for ix, xv in enumerate(grid.x):
                moved = scn.with_receiver(replace(scn.receiver, position=(xv, yv, 0.0)))
                assert grid.values[iy, ix] == channel_capacity(channel_point(moved))
        assert np.count_nonzero(grid.values) > 0

    def test_spacelike_window_is_zero(self):
        scn = load_scenario(three_emitter_config(evaluation_time=9.0))
        grid = capacity_map(scn, (200.0, 210.0, 0.0, 10.0), 5)
        assert np.all(grid.values == 0.0)
        assert grid.meta["cells_in_contact"] == 0

    def test_receiver_not_yet_coupled_has_no_contact_cells(self):
        # a null channel: nu = 0, so q = 0 even where lambda_B^2 overflows
        scn = load_scenario(three_emitter_config(evaluation_time=8.0))  # t_B = 8
        for lam_b in (2.0, 1e160):
            loud = scn.with_receiver(replace(scn.receiver, coupling_strength=lam_b))
            with pytest.warns(ReceiverNotCoupledWarning):
                grid = capacity_map(loud, CAPACITY_WINDOW, 3)
            assert np.all(grid.values == 0.0)
            assert grid.meta["cells_in_contact"] == 0 and grid.meta["noise_probability"] == 0.0

    def test_quadrature_only_in_contact_cells(self, commutator_calls):
        # the 24x24 fig2b map: a cell needs the commutator for all four
        # emitters iff at least one of them is in causal contact, and the
        # distinct (d, dt) among those cells go to the quadrature as one
        # batch, each exactly once
        scn = load_scenario(four_emitter_config(phases=(0, 0, math.pi, math.pi)))
        grid = capacity_map(scn, (0.0, 16.0, 0.0, 16.0), 24)
        contact = contact_cells(scn, grid)
        assert np.count_nonzero(contact) == 174
        assert grid.meta["cells_in_contact"] == 174
        t_b = scn.receiver.coupling_time
        needed = {(float(np.linalg.norm(np.array((xv, yv, 0.0)) - e.position)),
                   t_b - e.coupling_time)
                  for iy, yv in enumerate(grid.y) for ix, xv in enumerate(grid.x)
                  if contact[iy, ix] for e in scn.emitters if e.coupling_time < t_b}
        assert len(needed) == 643
        [batch] = commutator_calls
        assert len(batch) == len(needed)
        assert set(batch) == needed
        assert np.all(grid.values[~contact] == 0.0)
        assert np.count_nonzero(grid.values[contact]) > 0

    def test_ridge_in_contact_region(self):
        scn = load_scenario(three_emitter_config(evaluation_time=9.0))
        grid = capacity_map(scn, (6.0, 13.0, 0.0, 8.0), 12)
        assert grid.values.max() > 1e-12
        assert grid.quantity == "capacity"

    def test_capacity_global_phase_invariance(self):
        a = load_scenario(three_emitter_config(phases=(0.3, -0.5, 1.1),
                                               evaluation_time=9.0))
        b = load_scenario(three_emitter_config(phases=(1.0, 0.2, 1.8),
                                               evaluation_time=9.0))
        g1 = capacity_map(a, (8.0, 12.0, 2.0, 6.0), 6)
        g2 = capacity_map(b, (8.0, 12.0, 2.0, 6.0), 6)
        np.testing.assert_allclose(g2.values, g1.values, atol=1e-12)


class TestDiffMap:
    def test_self_difference_zero(self, small_energy_map):
        delta = diff_map(small_energy_map, small_energy_map)
        assert np.all(delta.values == 0.0)
        assert delta.quantity == "delta"

    def test_axis_mismatch_rejected(self, small_energy_map, fig_scenario):
        other = energy_map(fig_scenario, WINDOW, 12)
        with pytest.raises(ValueError, match="axes"):
            diff_map(small_energy_map, other)

    def test_quantity_mismatch_rejected(self, small_energy_map):
        fake = GridMap(small_energy_map.x, small_energy_map.y,
                       np.zeros_like(small_energy_map.values), "capacity", "f")
        with pytest.raises(ValueError, match="difference"):
            diff_map(small_energy_map, fake)

    def test_entangled_minus_classical_support(self, fig_scenario):
        # cross terms live only where at least two shells overlap
        scn_c = load_scenario(three_emitter_config("classical"))
        w_grid = energy_map(fig_scenario, WINDOW, 24)
        c_grid = energy_map(scn_c, WINDOW, 24)
        delta = diff_map(w_grid, c_grid)
        t = fig_scenario.evaluation_time
        overlap = np.zeros_like(delta.values, dtype=bool)
        counts = np.zeros_like(delta.values, dtype=int)
        for e in fig_scenario.emitters:
            dt = t - e.coupling_time
            ex, ey, _ = e.position
            rr = np.hypot(delta.x[None, :] - ex, delta.y[:, None] - ey)
            counts += (np.abs(rr - dt) <= e.smearing_radius + 1e-9).astype(int)
        overlap = counts >= 2
        assert np.all(np.abs(delta.values[~overlap]) < 1e-8)
        assert np.abs(delta.values[overlap]).max() > 1e-8


class TestCouplingSweep:
    def test_fig_curve_shape(self):
        scn = load_scenario(four_emitter_config(phases=(0, 0, math.pi, math.pi)))
        lams = np.linspace(0.0, 8.0, 40)
        curve = coupling_sweep(scn, lams)
        assert curve.capacities[0] == 0.0                    # lambda_B = 0
        assert 0 < curve.argmax_index < len(lams) - 1        # interior optimum
        assert curve.capacities[-1] < 0.05 * curve.argmax_capacity

    def test_argmax_consistency_enforced(self):
        with pytest.raises(ValueError, match="argmax"):
            SweepCurve(np.arange(3.0), np.array([0.0, 2.0, 1.0]), 0, 0.0, 0.0, "f")

    def test_too_few_samples(self):
        scn = load_scenario(four_emitter_config())
        with pytest.raises(ValueError, match="samples"):
            coupling_sweep(scn, [1.0, 2.0])

    def test_non_finite_coupling_rejected(self):
        scn = load_scenario(four_emitter_config())
        with pytest.raises(ValueError, match="finite"):
            coupling_sweep(scn, [0.0, 1.0, np.nan])

    @pytest.mark.parametrize("state_type, receiver_pos, receiver_time", [
        ("w", (11.0, 4.5, 0.0), 8.0),
        ("classical", (11.0, 4.5, 0.0), 8.0),
        ("w", (5.0, 2.0, 0.0), 3.5),   # the fourth emitter fires after the receiver
    ])
    def test_capacities_equal_pointwise_channel(self, state_type, receiver_pos,
                                                receiver_time):
        cfg = json.loads(four_emitter_config(phases=(0, 0, math.pi, math.pi),
                                             state_type=state_type,
                                             receiver_pos=receiver_pos))
        cfg["receiver"]["time"] = receiver_time
        scn = load_scenario(json.dumps(cfg))
        lams = np.linspace(0.0, 8.0, 25)
        curve = coupling_sweep(scn, lams)
        expect = [channel_capacity(channel_point(
            scn.with_receiver(replace(scn.receiver, coupling_strength=lb)))) for lb in lams]
        assert np.array_equal(curve.capacities, expect)
        assert curve.argmax_capacity > 0.0

    def test_huge_receiver_coupling_gives_pure_noise(self):
        # lambda_B^2 nu overflows: C1 = 0, so p = q = 1/2 and the capacity is
        # exactly 0, with no register algebra at infinite angles
        scn = load_scenario(four_emitter_config())
        finite = [0.0, 1.5, 4.0]
        curve = coupling_sweep(scn, finite + [1e160, 1.7e308])
        assert np.array_equal(curve.capacities[3:], [0.0, 0.0])
        assert np.array_equal(curve.capacities[:3], coupling_sweep(scn, finite).capacities)
        huge = scn.with_receiver(replace(scn.receiver, coupling_strength=1e160))
        assert channel_point(huge) == ChannelPoint(0.5, 0.5)
        grid = capacity_map(huge, WINDOW, 6)
        assert np.array_equal(grid.values, np.zeros((6, 6)))
        assert grid.meta["noise_probability"] == 0.5 and grid.meta["cells_in_contact"] > 0

    def test_receiver_not_yet_coupled(self):
        cfg = json.loads(four_emitter_config())
        cfg["evaluation_time"] = cfg["receiver"]["time"]
        scn = load_scenario(json.dumps(cfg))
        with pytest.warns(ReceiverNotCoupledWarning):
            curve = coupling_sweep(scn, np.linspace(0.0, 8.0, 5))
        assert np.array_equal(curve.capacities, np.zeros(5))


class TestOptimizePhases:
    def test_single_emitter_constant_objective(self):
        cfg = json.dumps({
            "emitters": [{"position": [0, 0, 0], "time": 0, "lambda": 1}],
            "receiver": {"position": [3, 0, 0], "time": 4, "lambda": 2},
            "state": {"type": "w", "phases": [0]},
            "evaluation_time": 5})
        scn = load_scenario(cfg)
        res = optimize_phases(scn, "capacity", (3.0, 0.0, 0.0), budget=64)
        values = [v for _, v in res.trace]
        assert max(values) == pytest.approx(min(values), abs=1e-15)
        assert res.converged

    def test_two_emitter_energy_optimum_compensates_monopole_phase(self):
        cfg = json.dumps({
            "emitters": [
                {"position": [5, 0, 0], "time": 1, "lambda": 1},
                {"position": [6.5, 0, 0], "time": 2, "lambda": 1}],
            "receiver": {"position": [8, 6, 0], "time": 8, "lambda": 2},
            "state": {"type": "w", "phases": [0, 0]},
            "evaluation_time": 8})
        scn = load_scenario(cfg)
        point = (10.0833, 4.8126, 0.0)  # both shells cross here
        res = optimize_phases(scn, "energy", point, budget=400, seed=3)
        # 1-D brute-force oracle over the relative phase
        thetas = np.linspace(0.0, 2.0 * math.pi, 1441)
        brute = max(energy_density(scn.with_state(w_state(2, [0.0, t2])), point, 8.0)
                    for t2 in thetas)
        assert res.value >= brute - 1e-9
        # optimum sits where the relative phase cancels Omega (t2 - t1) = 2
        assert math.cos(res.phases[1] - 2.0) == pytest.approx(1.0, abs=1e-6)

    def test_capacity_objective_beats_reference_pattern(self):
        scn = load_scenario(four_emitter_config())
        point = (11.0, 4.5, 0.0)
        res = optimize_phases(scn, "capacity", point, budget=700, seed=0)
        ref = channel_capacity(channel_point(
            scn.with_state(w_state(4, [0, 0, math.pi, math.pi]))
               .with_receiver(replace(scn.receiver, position=point))))
        assert res.value >= ref - 1e-12

    def test_budget_exhaustion_flagged(self):
        scn = load_scenario(four_emitter_config())
        res = optimize_phases(scn, "capacity", (11.0, 4.5, 0.0), budget=20)
        assert not res.converged
        assert res.evaluations <= 24  # one simplex step may overshoot slightly

    @pytest.mark.parametrize("objective", ["energy", "capacity"])
    def test_trace_values_equal_pointwise_evaluation(self, objective):
        scn = load_scenario(four_emitter_config())
        point = (11.0, 4.5, 0.0)
        res = optimize_phases(scn, objective, point, budget=60, restarts=2, seed=1)
        for theta, value in res.trace:
            with_theta = scn.with_state(w_state(4, theta))
            if objective == "energy":
                expect = energy_density(with_theta, point, scn.evaluation_time)
            else:
                expect = channel_capacity(channel_point(
                    with_theta.with_receiver(replace(scn.receiver, position=point))))
            assert value == expect
        assert res.value > 0.0

    def test_objective_validation(self):
        scn = load_scenario(four_emitter_config())
        with pytest.raises(ValueError, match="objective"):
            optimize_phases(scn, "entropy", (0, 0, 0))

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            optimize_phases(load_scenario(four_emitter_config()), "capacity",
                            (11.0, 4.5, 0.0), budget=budget)



def minimize_nelder_mead(f, x0, maxfev, xatol=1e-6, fatol=1e-12):
    """Drive the _nelder_mead generator with f, one point at a time."""
    search = _nelder_mead(x0, maxfev, xatol, fatol)
    try:
        x = next(search)
        while True:
            x = search.send(f(x))
    except StopIteration as done:
        return done.value


def sequential_search(scn, objective, point, budget, restarts, seed):
    """optimize_phases with its restarts run one after another, one state per objective call."""
    n = scn.n_emitters
    value_of = _phase_objective(scn, objective, point)
    trace = []

    def negative(reduced):
        full = np.concatenate(([0.0], np.mod(reduced, 2 * math.pi)))
        [value] = value_of(full[None])
        trace.append((tuple(full.tolist()), value))
        return -value

    rng = np.random.default_rng(seed)
    starts = [np.zeros(n - 1)] + [rng.uniform(0.0, 2 * math.pi, n - 1)
                                  for _ in range(restarts - 1)]
    per_restart = max(16, budget // restarts)
    best_value, best, converged = -math.inf, np.zeros(n), True
    for start in starts:
        if len(trace) >= budget:
            break
        x, value, done = minimize_nelder_mead(negative, start,
                                              min(per_restart, budget - len(trace)))
        converged = converged and done
        if -value > best_value:
            best_value, best = -value, np.concatenate(([0.0], np.mod(x, 2 * math.pi)))
    return PhaseOptimum(tuple(best.tolist()), float(best_value), objective, len(trace),
                        converged, restarts, tuple(trace))


def optimum_bits(res: PhaseOptimum):
    """Every number of a PhaseOptimum as its exact hex form."""
    return (tuple(map(float.hex, res.phases)), float.hex(res.value), res.objective,
            res.evaluations, res.converged, res.restarts,
            [(tuple(map(float.hex, theta)), float.hex(value)) for theta, value in res.trace])


class TestLockstep:
    """The restarts advance in rounds, with the result of running them one after another."""

    @pytest.mark.parametrize("budget, restarts", [(20, 4), (50, 3), (120, 3), (800, 4)])
    @pytest.mark.parametrize("objective, point", [("energy", (10.75, 5.56, 0.0)),
                                                  ("capacity", (11.0, 4.5, 0.0))])
    def test_equals_sequential_restarts(self, objective, point, budget, restarts):
        scn = load_scenario(four_emitter_config())
        got = optimize_phases(scn, objective, point, budget, restarts, seed=5)
        assert optimum_bits(got) == optimum_bits(
            sequential_search(scn, objective, point, budget, restarts, seed=5))
        assert got.value > 0.0

    @pytest.mark.parametrize("budget, restarts, first_round", [
        (120, 3, 3),  # every share fixed: all restarts start in round 1
        (40, 4, 2),   # shares of 16: restarts 0 and 1 fixed, 2 and 3 wait their turn
        (20, 4, 1)])  # only restart 0 fixed
    def test_rounds_stack_the_restarts_with_a_fixed_share(self, monkeypatch, budget,
                                                         restarts, first_round):
        import qshock.mapper
        sizes, original = [], qshock.mapper._w_amplitudes
        monkeypatch.setattr(qshock.mapper, "_w_amplitudes",
                            lambda n, thetas: sizes.append(len(thetas)) or original(n, thetas))
        res = optimize_phases(load_scenario(four_emitter_config()), "capacity",
                              (11.0, 4.5, 0.0), budget, restarts)
        assert sizes[0] == max(sizes) == first_round
        assert sum(sizes) == res.evaluations <= budget


class TestNelderMead:
    """_nelder_mead reproduces scipy.optimize.minimize(method="Nelder-Mead") bit for bit."""

    @staticmethod
    def compare(f, x0, maxfev):
        from scipy.optimize import minimize
        ours, theirs = [], []

        def logged(calls):
            return lambda x: calls.append(x.tobytes()) or f(x)

        res = minimize(logged(theirs), x0, method="Nelder-Mead",
                       options={"maxfev": maxfev, "xatol": 1e-6, "fatol": 1e-12})
        x, value, converged = minimize_nelder_mead(logged(ours), x0, maxfev)
        assert ours == theirs  # the same points, in the same order
        assert (x.tobytes(), np.float64(value).tobytes()) == (res.x.tobytes(),
                                                              np.float64(res.fun).tobytes())
        assert (len(ours), converged) == (res.nfev, bool(res.success))
        return converged

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("maxfev", [1, 3, 17, 5000])
    def test_rosenbrock(self, dim, maxfev):
        from scipy.optimize import rosen
        # the first coordinate pinned at its optimum, so dim = 1 is a Rosenbrock too
        converged = self.compare(lambda x: float(rosen(np.concatenate(([1.0], x)))),
                                 np.linspace(-1.2, 0.8, dim), maxfev)
        assert converged == (maxfev == 5000)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_budget_cuts_shrink_steps(self, dim):
        # on a staircase contractions fail and the simplex shrinks every few calls,
        # so some of these budgets run out in the middle of a shrink
        for maxfev in range(1, 41):
            self.compare(lambda x: float(np.floor(4.0 * np.sum(x * x))),
                         np.linspace(-1.2, 0.8, dim), maxfev)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("objective, point", [("energy", (10.75, 5.56, 0.0)),
                                                  ("capacity", (11.0, 4.5, 0.0))])
    def test_phase_objectives(self, n, objective, point):
        scn = load_scenario(four_emitter_config())
        scn = Scenario(scn.emitters[:n], scn.receiver, w_state(n, [0.0] * n),
                       scn.evaluation_time)
        value_of = _phase_objective(scn, objective, point)

        def negative(reduced):
            [value] = value_of(np.concatenate(([0.0], np.mod(reduced, 2 * math.pi)))[None])
            return -value

        rng = np.random.default_rng(n)
        outcomes = {self.compare(negative, x0, maxfev)
                    for x0 in (np.zeros(n - 1), rng.uniform(0.0, 2 * math.pi, n - 1))
                    for maxfev in (2, 25, 800)}
        assert outcomes == {True, False}  # both converged and budget-exhausted runs


class TestKernelsEvaluatedOnce:
    """A sweep or a phase search evaluates each kernel once, however many samples."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        for name in ("commutator", "vacuum_variance"):
            original = getattr(KernelSet, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, self.radius,
                              [np.ravel(a).tolist() for a in (*args, *kwargs.values())]))
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(KernelSet, name, counted)
        return calls

    @staticmethod
    def assert_each_once(calls, n_emitters):
        # nu once, and one commutator batch holding each emitter's (d, dt, R_i) once
        assert sorted(name for name, *_ in calls) == ["commutator", "vacuum_variance"]
        [batch] = [args for name, _, args in calls if name == "commutator"]
        assert len(batch[0]) == len(set(zip(*batch))) == n_emitters

    def test_sweep(self, kernel_calls):
        coupling_sweep(load_scenario(four_emitter_config()), np.linspace(0.0, 8.0, 60))
        self.assert_each_once(kernel_calls, 4)

    def test_capacity_map(self, kernel_calls):
        # nu once for the grid and its sidecar's noise probability, and one
        # commutator batch holding each distinct (d, dt, R_i) once
        scn = load_scenario(four_emitter_config(phases=(0, 0, math.pi, math.pi)))
        grid = capacity_map(scn, (8.0, 14.0, 0.0, 6.0), 6)
        assert sorted(name for name, *_ in kernel_calls) == ["commutator", "vacuum_variance"]
        [batch] = [args for name, _, args in kernel_calls if name == "commutator"]
        assert len(batch[0]) == len(set(zip(*batch))) > 0
        assert grid.meta["noise_probability"] == excitation_probability(scn, couple=False)

    def test_capacity_search(self, kernel_calls):
        res = optimize_phases(load_scenario(four_emitter_config()), "capacity",
                              (11.0, 4.5, 0.0), budget=60, restarts=2)
        assert res.evaluations > 1
        self.assert_each_once(kernel_calls, 4)

    @pytest.mark.parametrize("receiver_pos, receiver_time", [
        ((40.0, 0.0, 0.0), 8.0),   # outside every emitter's shell
        ((7.0, 0.0, 0.0), 30.0),   # inside every shell's inner hole
    ])
    def test_disconnected_receiver_runs_no_quadrature(self, commutator_calls,
                                                      receiver_pos, receiver_time):
        cfg = json.loads(four_emitter_config(receiver_pos=receiver_pos))
        cfg["receiver"]["time"] = receiver_time
        cfg["evaluation_time"] = receiver_time + 1.0
        scn = load_scenario(json.dumps(cfg))
        curve = coupling_sweep(scn, np.linspace(0.0, 8.0, 30))
        assert np.all(curve.capacities == 0.0)
        res = optimize_phases(scn, "capacity", receiver_pos, budget=40, restarts=2)
        assert [value for _, value in res.trace] == [0.0] * res.evaluations
        assert commutator_calls == []

    def test_energy_search(self, kernel_calls, monkeypatch):
        import qshock.observables
        radiation = []
        original = qshock.observables.closed_form_radiation
        monkeypatch.setattr(qshock.observables, "closed_form_radiation",
                            lambda *args: radiation.append(args) or original(*args))
        res = optimize_phases(load_scenario(four_emitter_config()), "energy",
                              (11.0, 4.5, 0.0), budget=60, restarts=2)
        assert res.evaluations > 1
        assert len(radiation) == 1 and kernel_calls == []


class TestChannelAlgebra:
    """Maps and sweeps against the channel formula (derivations section 7), written out.

    nu and each Delta_i come from KernelSet one value at a time, C1 from
    math.exp and E from product_expectation of one angle vector; every
    signalling cell and sample must equal the formula bit for bit.
    """

    @staticmethod
    def capacity(scn, position, lambda_b):
        rec = scn.receiver
        ks = KernelSet(rec.smearing_radius)
        g = []
        for e in scn.emitters:
            dt = rec.coupling_time - e.coupling_time
            d = float(np.linalg.norm(np.subtract(position, e.position)))
            delta = ks.commutator(d, dt, e.smearing_radius) if dt > 0.0 else 0.0
            g.append(2.0 * lambda_b * e.coupling_strength * delta)
        c1 = math.exp(-2.0 * lambda_b**2 * ks.vacuum_variance())
        e_factor = product_expectation(scn.emitter_state, g, MonopolePhase.from_scenario(scn))
        p, q = 0.5 * (1.0 - c1 * e_factor), 0.5 * (1.0 - c1)
        return channel_capacity(p=p, q=q)

    @staticmethod
    def signals(scn, position) -> bool:
        rec = scn.receiver
        return any(0.0 < rec.coupling_time - e.coupling_time
                   and abs(math.dist(position, e.position)
                           - (rec.coupling_time - e.coupling_time))
                   < rec.smearing_radius + e.smearing_radius for e in scn.emitters)

    @pytest.mark.parametrize("config", ["fig2b", "fig2_classical"])
    def test_map_cells(self, config):
        scn = load_scenario_file(SCENARIOS / f"{config}.cfg")
        grid = capacity_map(scn, DEFAULT_WINDOW, 24)
        signalling = 0
        for iy, yv in enumerate(grid.y.tolist()):
            for ix, xv in enumerate(grid.x.tolist()):
                if self.signals(scn, (xv, yv, 0.0)):
                    signalling += 1
                    expect = self.capacity(scn, (xv, yv, 0.0), scn.receiver.coupling_strength)
                else:
                    expect = 0.0
                assert grid.values[iy, ix] == expect, (xv, yv)
        assert signalling == grid.meta["cells_in_contact"] == 174
        assert np.count_nonzero(grid.values) > 0

    def test_sweep_samples(self):
        scn = load_scenario_file(SCENARIOS / "fig3.cfg")
        lams = np.linspace(0.0, 8.0, 100)
        curve = coupling_sweep(scn, lams)
        assert curve.capacities.tolist() == [
            self.capacity(scn, scn.receiver.position, lb) for lb in lams.tolist()]
        assert curve.argmax_capacity > 0.0


class TestSerialization:
    def test_csv_roundtrip_and_byte_identity(self, small_energy_map, tmp_path):
        p1 = tmp_path / "map1.csv"
        p2 = tmp_path / "map2.csv"
        write_grid_csv(small_energy_map, p1)
        write_grid_csv(small_energy_map, p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = read_grid_csv(p1)
        np.testing.assert_allclose(back.x, small_energy_map.x, rtol=1e-8)
        np.testing.assert_allclose(back.values, small_energy_map.values,
                                   rtol=1e-7, atol=1e-300)
        assert back.quantity == "energy"
        assert back.fingerprint == small_energy_map.fingerprint

    def test_sidecar_contents(self, small_energy_map, small_capacity_map, tmp_path):
        path = tmp_path / "map.csv"
        write_grid_csv(small_energy_map, path)
        side = json.loads((tmp_path / "map.json").read_text())
        assert side["quantity"] == "energy"
        assert side["fingerprint"] == small_energy_map.fingerprint
        assert "wall_time_s" in side
        assert "rel_tol" not in side  # closed-form kernels: no tolerance
        write_grid_csv(small_capacity_map, path)
        side = json.loads((tmp_path / "map.json").read_text())
        assert side["quantity"] == "capacity"
        assert "rel_tol" not in side  # no quadrature knob reaches a capacity map
        assert 0.0 < side["noise_probability"] < 0.5
        in_contact = np.count_nonzero(contact_cells(
            load_scenario(three_emitter_config(evaluation_time=9.0)), small_capacity_map))
        assert 0 < in_contact < small_capacity_map.values.size
        assert side["cells_in_contact"] == in_contact
        assert side["fingerprint"] == small_capacity_map.fingerprint

    def test_grid_csv_exact_bytes(self, tmp_path):
        # signed zero, the smallest subnormal, extreme exponents, and values
        # that round up, round down or carry into the exponent at 9 digits
        grid = GridMap(np.array([-0.0, 5e-324, 1e300]), np.array([1e-300, 2.5e-8]),
                       np.array([[1.234567895, 1.000000005, 0.1234567885],
                                 [9.9999999951, -1e-300, -0.0]]), "energy", "fp")
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        (tmp_path / "grid.json").unlink()
        assert path.read_bytes() == (
            b",-0.00000000e+00,4.94065646e-324,1.00000000e+300\n"
            b"1.00000000e-300,1.23456790e+00,1.00000000e+00,1.23456788e-01\n"
            b"2.50000000e-08,1.00000000e+01,-1.00000000e-300,-0.00000000e+00\n")

    def test_sweep_csv(self, tmp_path):
        curve = SweepCurve(np.array([0.0, 1.0, 2.0, 3.0]),
                           np.array([0.0, 0.5, 0.8, 0.2]), 2, 2.0, 0.8, "fp")
        path = tmp_path / "sweep.csv"
        write_sweep_csv(curve, path)
        assert path.read_bytes() == (
            b"lambda_B,capacity\n0.00000000e+00,0.00000000e+00\n"
            b"1.00000000e+00,5.00000000e-01\n2.00000000e+00,8.00000000e-01\n"
            b"3.00000000e+00,2.00000000e-01\n")
        side = json.loads((tmp_path / "sweep.json").read_text())
        assert side["argmax_coupling"] == 2.0
