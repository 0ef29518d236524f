"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary. Absolute map values carry no external reference, so the map
criteria assert structure (support, peak locations, orderings) plus the
independent oracles at their stated tolerances.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from qshock.kernels import (KernelSet, closed_form_commutator, closed_form_radiation,
                            closed_form_variance)
from qshock.mapper import capacity_map, coupling_sweep, diff_map, energy_map
from qshock.observables import (channel_capacity, channel_point, energy_density,
                                excitation_probability)
from qshock.oracle import run_standard_comparisons
from qshock.scenario import Detector, Scenario, load_scenario, w_state

from conftest import blahut_arimoto_grid, four_emitter_config, three_emitter_config

R = 0.5


def report(criterion: str, detail: str, elapsed: float, limit: float | None = None):
    budget = f", limit {limit:.0f}s" if limit else ""
    print(f"\nPASS {criterion}: {detail} ({elapsed:.1f}s{budget})")


# ----------------------------------------------------------------------
# criterion 1: microcausality / no-signaling
# ----------------------------------------------------------------------

# The pipeline skips the commutator quadrature at receivers outside every
# emitter's light-cone shell, so p = q there by construction.  The kernel
# itself is therefore checked at every spacelike pair: its exact closed form
# is 0, and the quadrature's off-support noise (at most 1.1e-14 over these
# 93 pairs) stays below KERNEL_NOISE_BOUND.
KERNEL_NOISE_BOUND = 1e-12


def test_criterion_1_no_signaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    kernels = KernelSet(R)
    worst_gap, worst_cap, worst_kernel = 0.0, 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        emitters = []
        for i in range(n):
            pos = rng.uniform(-3.0, 3.0, size=3)
            emitters.append(Detector(tuple(pos), float(rng.uniform(0.0, 3.0)),
                                     float(rng.uniform(0.3, 2.0))))
        t_b = float(rng.uniform(4.0, 8.0))
        # place the receiver beyond every smeared light cone with margin
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        needed = max((t_b - e.coupling_time) + 2 * R + 0.1 + 1e-6
                     + float(np.linalg.norm(e.position))
                     for e in emitters)
        receiver = Detector(tuple(needed * direction * 1.05), t_b,
                            float(rng.uniform(0.5, 3.0)))
        scenario = Scenario(tuple(emitters), receiver, w_state(n, rng.uniform(
            0, 2 * math.pi, size=n)), t_b + 1.0)
        for e in emitters:
            d = float(np.linalg.norm(np.array(receiver.position) - e.position))
            dt = t_b - e.coupling_time
            assert d > dt + 2 * R + 0.1
            assert closed_form_commutator(d, dt, R, R) == 0.0
            worst_kernel = max(worst_kernel, abs(kernels.commutator(d, dt)))
        p = excitation_probability(scenario, couple=True)
        q = excitation_probability(scenario, couple=False)
        cap = channel_capacity(p=p, q=q)
        worst_gap = max(worst_gap, abs(p - q))
        worst_cap = max(worst_cap, cap)
    elapsed = time.perf_counter() - t0
    assert worst_gap < 1e-9
    assert worst_cap < 1e-12
    assert worst_kernel < KERNEL_NOISE_BOUND
    assert elapsed < 60.0
    report("criterion 1 (no-signaling)",
           f"50 spacelike scenarios, max |p-q| {worst_gap:.1e}, "
           f"max capacity {worst_cap:.1e}, max |Delta| quadrature "
           f"{worst_kernel:.1e} (closed form 0)", elapsed, 60)


# ----------------------------------------------------------------------
# criterion 2: strong-Huygens support of the single-emitter density
# ----------------------------------------------------------------------

def test_criterion_2_sharp_shell_support():
    t0 = time.perf_counter()
    emitter = Detector((0.0, 0.0, 0.0), 0.0, 1.0)
    receiver = Detector((20.0, 0.0, 0.0), 19.0, 1.0)
    scenario = Scenario((emitter,), receiver, w_state(1, [0.0]), 5.0)
    dt = 5.0
    radii = np.linspace(0.05, 9.0, 200)
    values = np.array([energy_density(scenario, (r, 0.0, 0.0), dt) for r in radii])
    shell = (radii >= dt - R - 0.05) & (radii <= dt + R + 0.05)
    peak = values[shell].max()
    outside_max = np.abs(values[~shell]).max()
    elapsed = time.perf_counter() - t0
    assert peak > 0.0
    assert outside_max < 1e-6 * peak
    assert elapsed < 60.0
    report("criterion 2 (sharp shell support)",
           f"200 radii, outside/peak {outside_max / peak:.1e}", elapsed, 60)


# ----------------------------------------------------------------------
# criterion 3: three-emitter energy map structure
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig1_maps():
    scn_w = load_scenario(three_emitter_config("w"))
    scn_c = load_scenario(three_emitter_config("classical"))
    t0 = time.perf_counter()
    grid_w = energy_map(scn_w, (0.0, 16.0, 0.0, 16.0), 160)
    grid_c = energy_map(scn_c, (0.0, 16.0, 0.0, 16.0), 160)
    return scn_w, grid_w, grid_c, time.perf_counter() - t0


def test_criterion_3_energy_map_structure(fig1_maps):
    scn, grid_w, grid_c, map_time = fig1_maps
    t0 = time.perf_counter()
    t = scn.evaluation_time
    step = float(grid_w.x[1] - grid_w.x[0])
    # distance of every cell to each emitter and shell-membership masks
    counts = np.zeros_like(grid_w.values, dtype=int)
    edge_dist = np.full_like(grid_w.values, np.inf)
    for e in scn.emitters:
        dt = t - e.coupling_time
        rr = np.hypot(grid_w.x[None, :] - e.position[0],
                      grid_w.y[:, None] - e.position[1])
        counts += (np.abs(rr - dt) <= R + 1e-9).astype(int)
        edge_dist = np.minimum(edge_dist, np.abs(np.abs(rr - dt) - R))
    # maxima on the leading/trailing edges of the shells
    top = np.argsort(grid_w.values.ravel())[-20:]
    assert np.all(edge_dist.ravel()[top] <= 1.5 * step * math.sqrt(2.0))
    # entangled-minus-mixture difference lives only where shells overlap
    delta = diff_map(grid_w, grid_c)
    single = counts < 2
    assert np.all(np.abs(delta.values[single]) < 1e-8)
    assert np.abs(delta.values[~single]).max() > 1e-8
    elapsed = time.perf_counter() - t0 + map_time
    report("criterion 3 (three-emitter energy structure)",
           f"top cells on shell edges; |diff| < 1e-8 on {single.sum()} "
           f"single-shell cells, max overlap diff "
           f"{np.abs(delta.values[~single]).max():.2e}", elapsed)


# ----------------------------------------------------------------------
# criterion 4: four-emitter capacity maps and quantum enhancement
# ----------------------------------------------------------------------

def test_criterion_4_capacity_peaks_and_enhancement():
    t0 = time.perf_counter()
    window, resolution = (0.0, 16.0, 0.0, 16.0), 160
    scn_0 = load_scenario(four_emitter_config((0.0, 0.0, 0.0, 0.0)))
    scn_pi = load_scenario(four_emitter_config((0.0, 0.0, math.pi, math.pi)))
    scn_cl = load_scenario(four_emitter_config(state_type="classical"))
    grid_0 = capacity_map(scn_0, window, resolution)
    grid_pi = capacity_map(scn_pi, window, resolution)
    grid_cl = capacity_map(scn_cl, window, resolution)
    peak_0, peak_pi = grid_0.values.max(), grid_pi.values.max()
    delta = diff_map(grid_pi, grid_cl)
    elapsed = time.perf_counter() - t0
    assert peak_pi > peak_0
    assert delta.values.max() > 0.0
    assert elapsed < 600.0
    report("criterion 4 (capacity peaks, quantum enhancement)",
           f"peak(0,0,pi,pi) {peak_pi:.3e} > peak(0) {peak_0:.3e}; "
           f"max enhancement {delta.values.max():.3e}", elapsed, 600)


# ----------------------------------------------------------------------
# criterion 5: finite optimal receiver coupling
# ----------------------------------------------------------------------

def test_criterion_5_finite_optimal_coupling():
    t0 = time.perf_counter()
    lams = np.linspace(0.0, 8.0, 100)
    curves = {}
    for lam_a in (1.0, 2.0):
        scn = load_scenario(four_emitter_config((0.0, 0.0, math.pi, math.pi),
                                                lam=lam_a))
        curves[lam_a] = coupling_sweep(scn, lams)
    elapsed = time.perf_counter() - t0
    for lam_a, curve in curves.items():
        assert curve.capacities[0] == 0.0
        assert 0 < curve.argmax_index < len(lams) - 1
        assert curve.capacities[-1] < 0.05 * curve.argmax_capacity
        # rises from zero toward the optimum
        assert curve.capacities[curve.argmax_index // 2] > curve.capacities[1]
    assert abs(curves[1.0].argmax_index - curves[2.0].argmax_index) <= 1
    assert elapsed < 300.0
    report("criterion 5 (finite optimal receiver coupling)",
           f"argmax at lambda_B = {curves[1.0].argmax_coupling:.3f} "
           f"(index {curves[1.0].argmax_index}) for both emitter strengths",
           elapsed, 300)


# ----------------------------------------------------------------------
# criterion 6: truncated-Fock oracle equivalence
# ----------------------------------------------------------------------

def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    rows = run_standard_comparisons()
    elapsed = time.perf_counter() - t0
    assert len(rows) >= 12
    for row in rows:
        assert row.passed, f"{row.case}: |diff| = {row.difference:.2e}"
    energy_rows = [r for r in rows if r.case.startswith("T00")]
    assert energy_rows and all(r.difference <= 1e-6 for r in energy_rows)
    assert elapsed < 600.0
    worst = max(r.difference for r in rows)
    report("criterion 6 (oracle equivalence)",
           f"{len(rows)} comparisons, worst |diff| {worst:.1e}", elapsed, 600)


# ----------------------------------------------------------------------
# criterion 7: capacity formula against the iterative oracle
# ----------------------------------------------------------------------

def test_criterion_7_capacity_grid():
    t0 = time.perf_counter()
    axis = np.linspace(0.005, 0.995, 100)
    ps, qs = np.meshgrid(axis, axis, indexing="ij")
    oracle = blahut_arimoto_grid(ps.ravel(), qs.ravel(), gap=2e-10)
    formula = np.array([channel_capacity(p=p, q=q)
                        for p, q in zip(ps.ravel(), qs.ravel())])
    worst = np.abs(formula - oracle).max()
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert channel_capacity(p=0.37, q=0.37) == 0.0
    assert channel_capacity(p=1.0, q=0.0) == 1.0
    report("criterion 7 (capacity vs alternating-maximization oracle)",
           f"100x100 grid, max |dC| {worst:.1e}", elapsed)


# ----------------------------------------------------------------------
# criterion 8: the quadrature against the exact closed forms
# ----------------------------------------------------------------------

def test_criterion_8_quadrature_stability():
    # every quadrature value lies within its reported error (or 1e-13) of
    # the kernel's exact position-space closed form
    t0 = time.perf_counter()
    kernels = KernelSet(R)
    rng = np.random.default_rng(8)
    worst = 0.0

    def check(kv, exact):
        nonlocal worst
        gap = abs(kv.value - float(exact))
        assert gap <= max(kv.error, 1e-13), (kv, float(exact))
        worst = max(worst, gap)

    check(kernels.vacuum_variance_value(), closed_form_variance(R))
    checked = 1
    while checked < 30:
        d = float(rng.uniform(0.5, 7.0))
        dt = float(rng.uniform(d - 2 * R + 0.05, d + 2 * R - 0.05))
        if dt <= 0:
            continue
        check(kernels.commutator_value(d, dt), closed_form_commutator(d, dt, R, R))
        checked += 1
    while checked < 50:
        dt = float(rng.uniform(1.0, 8.0))
        # shell peak r = dt, then a point near the outer shell edge
        check(kernels.radiation_radial_value(dt, dt), closed_form_radiation(dt, dt, R)[1])
        r = dt + 0.9 * R
        check(kernels.radiation_time_value(r, dt), closed_form_radiation(r, dt, R)[0])
        checked += 2
    elapsed = time.perf_counter() - t0
    report("criterion 8 (quadrature vs closed forms)",
           f"{checked} kernel samples within their reported error, "
           f"worst gap {worst:.1e}", elapsed)


# ----------------------------------------------------------------------
# criterion 9: strong-coupling washout
# ----------------------------------------------------------------------

def test_criterion_9_strong_coupling_washout():
    t0 = time.perf_counter()
    scn = load_scenario(four_emitter_config((0.0, 0.0, math.pi, math.pi)))
    strong = scn.with_receiver(replace(scn.receiver, coupling_strength=50.0))
    cp = channel_point(strong)
    cap = channel_capacity(cp)
    elapsed = time.perf_counter() - t0
    assert abs(cp.p - 0.5) < 1e-3
    assert cap < 1e-6
    report("criterion 9 (strong-coupling washout)",
           f"|p - 1/2| = {abs(cp.p - 0.5):.1e}, capacity {cap:.1e}", elapsed)
