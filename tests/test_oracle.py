import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import dense_exact_energy, dense_exact_probability
from qshock.oracle import (ModeSet, OracleBudgetError, _case_modes, _case_scenario,
                           discrete_energy, discrete_probability, exact_energy,
                           exact_probability, mode_amplitudes,
                           run_standard_comparisons, standard_comparison_cases)
from qshock.scenario import Detector, EmitterState, Scenario, classical_mixture, \
    w_state

R = 0.5


def small_modes(cutoff=7):
    return ModeSet((( 0.9, 0.2, -0.3), (-0.4, 1.1, 0.3)), (12.0, 20.0), cutoff)


def one_alice_scenario():
    emitters = (Detector((0.0, 0.0, 0.0), 0.5, 0.9),)
    receiver = Detector((0.7, 0.9, 0.2), 3.0, 0.8)
    return Scenario(emitters, receiver, w_state(1, [0.4]), 5.0)


class TestModeSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModeSet(((0.0, 0.0, 0.0),), (1.0,), 4)      # zero momentum
        with pytest.raises(ValueError):
            ModeSet(((1.0, 0.0, 0.0),), (-1.0,), 4)     # negative weight
        with pytest.raises(ValueError):
            ModeSet(((1.0, 0.0, 0.0),), (1.0,), 1)      # cutoff too small

    def test_amplitudes_use_shared_form_factor(self):
        from qshock.kernels import sphere_form_factor
        modes = small_modes()
        amps = mode_amplitudes(modes, (0.0, 0.0, 0.0), 0.0, R)
        k0 = np.linalg.norm(modes.momenta[0])
        expect = math.sqrt(modes.weights[0]) * sphere_form_factor(k0, R) \
            / math.sqrt(16 * math.pi**3 * k0)
        assert amps[0] == pytest.approx(expect)

    def test_budget_refusal_reports_requirement(self):
        scn = one_alice_scenario()
        with pytest.raises(OracleBudgetError) as exc:
            exact_probability(small_modes(cutoff=80), scn, True)
        assert exc.value.dimension == 4 * 80**2
        assert exc.value.budget == 4096
        assert str(exc.value).endswith("exceeds budget 4096; shrink modes/cutoff")
        with pytest.raises(OracleBudgetError):
            exact_energy(small_modes(cutoff=80), scn, (0.8, -0.4, 0.3), 2.6)


class TestExactProbability:
    def test_no_modes_limit(self):
        # a single negligible-weight mode stands in for the no-field limit
        modes = ModeSet(((1.0, 0.0, 0.0),), (1e-20,), 3)
        scn = one_alice_scenario()
        assert exact_probability(modes, scn, True) == pytest.approx(0.0, abs=1e-18)
        assert discrete_probability(modes, scn, True) == pytest.approx(0.0, abs=1e-18)

    def test_single_mode_silent_closed_form(self):
        # by hand: the receiver displaces one mode conditioned on its
        # monopole eigenvalue; projecting |g> on the excited state after a
        # coherent kick of amplitude -+ i lam beta gives
        #   q = (1 - exp(-2 lam^2 |beta|^2)) / 2
        modes = ModeSet(((0.9, 0.2, -0.3),), (12.0,), 24)
        scn = one_alice_scenario()
        rec = scn.receiver
        beta = mode_amplitudes(modes, rec.position, rec.coupling_time,
                               rec.smearing_radius)[0]
        by_hand = 0.5 * (1.0 - math.exp(-2.0 * rec.coupling_strength**2
                                        * abs(beta) ** 2))
        got = exact_probability(modes, scn, couple=False)
        assert got == pytest.approx(by_hand, abs=1e-12)

    @pytest.mark.parametrize("n, kind", [(1, "w"), (2, "classical"), (3, "product")])
    def test_silent_is_the_coupled_value_with_no_emitters(self, n, kind):
        modes, scn = _case_modes(2, 5), _case_scenario(n, kind)
        alone = Scenario((), scn.receiver, EmitterState.pure([1.0]), scn.evaluation_time)
        silent = exact_probability(modes, scn, couple=False)
        assert silent > 0.0
        assert float.hex(silent) == float.hex(exact_probability(modes, alone, couple=True))

    def test_receiver_gap_drops_out(self):
        modes = small_modes()
        scn = one_alice_scenario()
        base = exact_probability(modes, scn, True)
        bumped = Scenario(scn.emitters,
                          Detector(scn.receiver.position, 3.0, 0.8, gap=5.7),
                          scn.emitter_state, 5.0)
        assert exact_probability(modes, bumped, True) == pytest.approx(base,
                                                                       abs=1e-13)

    def test_evaluation_before_receiver(self):
        modes = small_modes(cutoff=3)
        scn = one_alice_scenario()
        early = Scenario(scn.emitters, scn.receiver, scn.emitter_state, 2.0)
        assert exact_probability(modes, early, True) == 0.0
        assert discrete_probability(modes, early, True) == 0.0


class TestUnitarityAndCommutation:
    def test_norm_preserved(self):
        # _evolve raises if the norm drifts; a clean run certifies unitarity
        modes = small_modes()
        scn = one_alice_scenario()
        exact_probability(modes, scn, True)

    def test_spacelike_order_invariance(self):
        # equal coupling times + a +-k symmetric mode set make the two
        # emitter generators commute exactly; permuting their order must
        # leave the probability unchanged (high cutoff keeps truncation-edge
        # commutator leakage below the tolerance)
        momenta = ((0.9, 0.2, -0.3), (-0.9, -0.2, 0.3))
        modes = ModeSet(momenta, (9.0, 9.0), 8)
        d1 = Detector((0.0, 0.0, 0.0), 1.0, 0.9)
        d2 = Detector((2.5, 0.0, 0.0), 1.0, 1.1)
        receiver = Detector((1.0, 0.8, 0.0), 3.0, 0.8)
        state = w_state(2, [0.4, -0.9])
        fwd = Scenario((d1, d2), receiver, state, 5.0)
        # swapped emitter order permutes both the register and the unitaries
        state_swapped = w_state(2, [-0.9, 0.4])
        rev = Scenario((d2, d1), receiver, state_swapped, 5.0)
        assert exact_probability(modes, fwd, True) == pytest.approx(
            exact_probability(modes, rev, True), abs=1e-12)

    def test_cutoff_convergence_demonstrated(self):
        modes = small_modes(cutoff=6)
        scn = one_alice_scenario()
        coarse = exact_probability(modes, scn, True)
        fine = exact_probability(modes.with_cutoff(8), scn, True)
        assert abs(fine - coarse) < 1e-7


class TestExactEnergy:
    def test_vacuum_is_zero(self):
        modes = small_modes(cutoff=4)
        receiver = Detector((0.7, 0.9, 0.2), 3.0, 0.8)
        scn = Scenario((), receiver, EmitterState.pure([1.0]), 5.0)
        assert exact_energy(modes, scn, (0.5, 0.0, 0.0), 2.0) == pytest.approx(
            0.0, abs=1e-13)

    def test_single_mode_single_emitter_by_hand(self):
        # one emitter, one mode: the evolved field state is an equal mixture
        # of coherent states |-+ i lam beta> over the monopole eigenbasis, so
        #   <:(d phi)^2:> = sum_j |lam|^2 [2 Re(i beta conj(delta_j))]^2
        # averaged over the two monopole branches (equal magnitudes).
        modes = ModeSet(((0.9, 0.2, -0.3),), (12.0,), 30)
        emitter = Detector((0.0, 0.0, 0.0), 0.5, 0.9)
        receiver = Detector((5.0, 5.0, 5.0), 9.0, 0.0)
        scn = Scenario((emitter,), receiver, w_state(1, [0.0]), 5.0)
        x_obs, t_obs = (0.8, -0.4, 0.3), 2.6
        from qshock.oracle import derivative_amplitudes
        beta = mode_amplitudes(modes, emitter.position, emitter.coupling_time,
                               emitter.smearing_radius)[0]
        by_hand = 0.0
        for j in range(4):
            delta = derivative_amplitudes(modes, x_obs, t_obs, j)[0]
            kick = 2.0 * emitter.coupling_strength * float(np.imag(
                delta * np.conj(beta)))
            by_hand += kick * kick
        got = exact_energy(modes, scn, x_obs, t_obs)
        assert got == pytest.approx(by_hand, rel=1e-10)
        assert discrete_energy(modes, scn, x_obs, t_obs) == pytest.approx(
            by_hand, rel=1e-12)

    def test_cross_term_structure(self):
        # two entangled emitters on shared modes: exact energy carries the
        # pair-correlator cross term of the pipeline reduction
        modes = small_modes(cutoff=8)
        d1 = Detector((0.0, 0.0, 0.0), 0.4, 0.9)
        d2 = Detector((1.4, 0.15, 0.0), 0.85, 1.0)
        receiver = Detector((5.0, 5.0, 5.0), 9.0, 0.0)
        point, t_obs = (0.8, -0.4, 0.3), 2.6
        scn_w = Scenario((d1, d2), receiver, w_state(2, [0.3, 0.6]), 5.0)
        scn_c = Scenario((d1, d2), receiver, classical_mixture(2), 5.0)
        for scn in (scn_w, scn_c):
            assert exact_energy(modes, scn, point, t_obs) == pytest.approx(
                discrete_energy(modes, scn, point, t_obs), abs=1e-9)
        # the two states share singles, differ only through the cross term
        assert abs(exact_energy(modes, scn_w, point, t_obs)
                   - exact_energy(modes, scn_c, point, t_obs)) > 1e-6


class TestStandardBattery:
    def test_case_coverage(self):
        cases = standard_comparison_cases()
        assert len(cases) >= 12
        assert {c["n"] for c in cases} == {1, 2, 3}
        assert {c["state"] for c in cases} == {"w", "classical", "product"}
        assert {c["couple"] for c in cases} == {True, False}
        assert {c["n_modes"] for c in cases} == {1, 2, 3, 4}

    @pytest.mark.parametrize("kind", ["probability", "energy"])
    def test_cutoff_not_converged_is_a_numerical_failure(self, monkeypatch, kind):
        import qshock.oracle as oracle
        [case] = [c for c in standard_comparison_cases() if c["kind"] == kind][:1]
        monkeypatch.setattr(oracle, "standard_comparison_cases", lambda: [case])
        monkeypatch.setattr(oracle, "_CUTOFF_TOL", -1.0)  # no two runs agree that well
        with pytest.raises(FloatingPointError, match="cutoff not converged"):
            run_standard_comparisons()

    def test_full_battery_passes(self):
        rows = run_standard_comparisons()
        assert {row.tolerance for row in rows} == {1e-6}
        for row in rows:
            assert row.passed, f"{row.case}: |diff| {row.difference:.2e}"


@pytest.mark.parametrize("name, failing", [("_vacuum_factor", {"p"}), ("_t00", {"T00"})])
def test_battery_runs_the_pipeline_algebra(monkeypatch, name, failing):
    # a one-percent fault in the pipeline's C1 or T00 contraction fails exactly
    # the battery's cases of that observable
    import qshock.observables as observables
    original = getattr(observables, name)
    monkeypatch.setattr(observables, name, lambda *args: 0.99 * original(*args))
    rows = run_standard_comparisons()
    assert {row.case.split("[")[0] for row in rows if not row.passed} == failing


def test_emitter_firing_at_the_observation_time_is_not_a_source():
    # the pipeline's rule t - t_i > 0 (Theta(0) = 0) holds on both routes
    scn, modes = _case_scenario(2, "w"), _case_modes(2, 6)
    first, second = scn.emitters
    silent = replace(scn, emitters=(first, replace(second, coupling_strength=0.0)))
    x, t = second.position, second.coupling_time
    for route in (exact_energy, discrete_energy):
        assert route(modes, scn, x, t) == route(modes, silent, x, t)


class TestDenseAnchor:
    """Factorised evolution against one full-dimension expm per detector."""

    @pytest.mark.parametrize("n, kind, couple, n_modes, cutoff", [
        (2, "w", True, 3, 4),
        (2, "product", False, 2, 6),
        (3, "classical", True, 2, 5),  # a coupled mixture: three stacked components
    ])
    def test_probability(self, n, kind, couple, n_modes, cutoff):
        modes, scn = _case_modes(n_modes, cutoff), _case_scenario(n, kind)
        assert exact_probability(modes, scn, couple) == pytest.approx(
            dense_exact_probability(modes, scn, couple), abs=1e-12)

    def test_energy(self):
        modes, scn = _case_modes(2, 6), _case_scenario(2, "classical")
        point, t_obs = (0.8, -0.4, 0.3), 2.6
        assert exact_energy(modes, scn, point, t_obs) == pytest.approx(
            dense_exact_energy(modes, scn, point, t_obs), abs=1e-12)

    def test_mixture_of_distinct_components(self):
        # every component of a classical mixture gives the same p and T00 (its
        # monopoles have zero mean), so only distinct components test the weights
        w, product = (_case_scenario(2, kind).emitter_state.vectors() for kind in
                      ("w", "product"))
        state = EmitterState.mixture([(0.3, next(w)[1]), (0.7, next(product)[1])])
        modes, scn = _case_modes(2, 6), replace(_case_scenario(2, "w"), emitter_state=state)
        point, t_obs = (0.8, -0.4, 0.3), 2.6
        assert exact_probability(modes, scn, True) == pytest.approx(
            dense_exact_probability(modes, scn, True), abs=1e-12)
        assert exact_energy(modes, scn, point, t_obs) == pytest.approx(
            dense_exact_energy(modes, scn, point, t_obs), abs=1e-12)


# generated scenarios: the receiver of the battery, emitters placed around it
_AT, _TIME = np.array([0.7, 0.9, 0.2]), 3.0
_EDGE = 2 * R  # R_i + R_B: the shell edges sit at d = dt +- _EDGE
_STRONG = 3.0  # largest coupling drawn; fig2b's receiver has 2
_directions = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2 * math.pi)).map(
    lambda cp: np.array([math.sqrt(1 - cp[0] ** 2) * math.cos(cp[1]),
                         math.sqrt(1 - cp[0] ** 2) * math.sin(cp[1]), cp[0]]))
_couplings = st.floats(0.0, _STRONG)


@st.composite
def _emitters(draw):
    """One emitter at d = 0, on a shell edge, at dt -> 0+ or anywhere."""
    where = draw(st.sampled_from(["d=0", "outer edge", "inner edge", "dt->0+", "free"]))
    if where == "dt->0+":
        dt, d = draw(st.sampled_from([1e-12, 1e-9, 1e-6])), draw(st.floats(0.0, 4.0))
    elif where == "free":
        dt, d = draw(st.floats(-2.0, 2.9)), draw(st.floats(0.0, 4.0))
    else:
        dt = draw(st.floats(_EDGE if where == "inner edge" else 0.0, 2.9))
        d = {"d=0": 0.0, "outer edge": dt + _EDGE, "inner edge": dt - _EDGE}[where]
    return Detector(tuple(_AT + d * draw(_directions)), _TIME - dt, draw(_couplings), 2.0, R)


def _random_vector(draw, n):
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 ** (n + 1),
                                   max_size=2 ** (n + 1))))
    vec = parts[::2] + 1j * parts[1::2]
    assume(np.linalg.norm(vec) > 0.1)
    return vec / np.linalg.norm(vec)


@st.composite
def _scenarios(draw):
    n = draw(st.integers(1, 3))
    emitters = tuple(draw(_emitters()) for _ in range(n))
    kind = draw(st.sampled_from(["w", "classical", "pure", "mixed"]))
    if kind == "w":
        state = w_state(n, draw(st.lists(st.floats(-math.pi, math.pi),
                                         min_size=n, max_size=n)))
    elif kind == "classical":
        state = classical_mixture(n)
    elif kind == "pure":
        state = EmitterState.pure(_random_vector(draw, n))
    else:
        p = draw(st.floats(0.05, 0.95))
        state = EmitterState.mixture([(p, _random_vector(draw, n)),
                                      (1.0 - p, _random_vector(draw, n))])
    receiver = Detector(tuple(_AT), _TIME, draw(_couplings), 2.0, R)
    return Scenario(emitters, receiver, state, 5.0)


def _converged(exact, modes, *args):
    """exact at cutoff + 2, for draws whose truncation converged to 1e-7."""
    fine = exact(modes.with_cutoff(modes.cutoff + 2), *args)
    assume(abs(fine - exact(modes, *args)) <= 1e-7)
    return fine


@settings(max_examples=100, deadline=None)
@given(_scenarios(), st.integers(1, 2), st.integers(4, 6),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.floats(0.5, 5.0))
def test_generated_scenarios_match_exact_evolution(scn, n_modes, cutoff, point, t):
    modes = _case_modes(n_modes, cutoff)
    for couple in (True, False):
        exact = _converged(exact_probability, modes, scn, couple)
        assert discrete_probability(modes, scn, couple) == pytest.approx(exact, abs=1e-6)
    exact = _converged(exact_energy, modes, scn, point, t)
    assert discrete_energy(modes, scn, point, t) == pytest.approx(exact, abs=1e-6)


class TestFourEmitters:
    """n = 4 with fig2b's phases, outside the standard battery."""

    @pytest.mark.parametrize("state", [w_state(4, [0.0, 0.0, math.pi, math.pi]),
                                       classical_mixture(4)])
    def test_converged_and_matches_pipeline(self, state):
        scn = replace(_case_scenario(4, "w"), emitter_state=state)
        modes = _case_modes(2, 5)
        coarse = exact_probability(modes, scn, True)
        fine = exact_probability(modes.with_cutoff(7), scn, True)
        assert abs(fine - coarse) < 1e-7
        assert abs(fine - discrete_probability(modes, scn, True)) < 1e-6


def test_no_signalling_from_emitter_after_receiver():
    # the receiver projector commutes with every later unitary, so an
    # emitter coupling after the receiver is indistinguishable from silence
    base = _case_scenario(2, "w")
    first, second = base.emitters
    assert base.receiver.coupling_time < 3.5 < base.evaluation_time
    modes = _case_modes(2, 6)

    def probability(strength):
        late = replace(second, coupling_time=3.5, coupling_strength=strength)
        scn = replace(base, emitters=(first, late))
        return exact_probability(modes, scn, True)

    assert probability(second.coupling_strength) == pytest.approx(
        probability(0.0), abs=1e-15)
