import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from qshock.kernels import KernelSet
from qshock.mapper import capacity_map, coupling_sweep, optimize_phases
from qshock.observables import (ReceiverNotCoupledWarning,
                                binary_entropy, channel_capacity,
                                channel_point, energy_density,
                                excitation_probability)
from qshock.scenario import (Detector, EmitterState, Scenario, ValidationError,
                             classical_mixture, load_scenario, w_state)

from conftest import blahut_arimoto_capacity, distance, three_emitter_config

R = 0.5


def spacelike_scenario():
    # receiver far outside every emitter's smeared light cone
    emitters = (Detector((0.0, 0.0, 0.0), 1.0, 1.0),
                Detector((2.0, 0.0, 0.0), 2.0, 1.0))
    receiver = Detector((40.0, 0.0, 0.0), 8.0, 2.0)
    return Scenario(emitters, receiver, w_state(2, [0.0, 0.0]), 9.0)


def noise(lambda_b):
    # q = (1 - C1)/2 of the spacelike receiver coupled with strength lambda_b
    scn = spacelike_scenario()
    return excitation_probability(
        scn.with_receiver(replace(scn.receiver, coupling_strength=lambda_b)), couple=False)


class TestC1Factor:
    """C1 = exp(-2 lambda_B^2 nu), read off the noise probability q = (1 - C1)/2."""

    def test_zero_coupling(self):
        assert noise(0.0) == 0.0

    def test_strong_coupling_limit(self):
        assert noise(50.0) == 0.5  # C1 < 1e-100

    def test_monotone_decreasing(self):
        vals = [noise(lb) for lb in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_explicit_value(self):
        # nu(1/2) = 1/16 from the kernels oracle
        assert noise(2.0) == pytest.approx(0.5 * (1.0 - math.exp(-0.5)), rel=1e-9)


class TestExcitationProbability:
    def test_no_interaction_at_all(self):
        scn = spacelike_scenario()
        silent = scn.with_receiver(replace(scn.receiver, coupling_strength=0.0))
        assert excitation_probability(silent, couple=False) == 0.0

    def test_spacelike_receiver_sees_only_noise(self):
        scn = spacelike_scenario()
        p = excitation_probability(scn, couple=True)
        q = excitation_probability(scn, couple=False)
        assert p == pytest.approx(q, abs=1e-12)
        assert q == pytest.approx(0.5 * (1 - math.exp(-0.5)), rel=1e-12)

    def test_receiver_not_yet_coupled(self):
        scn = spacelike_scenario()
        early = Scenario(scn.emitters, scn.receiver, scn.emitter_state, 7.0)
        with pytest.warns(ReceiverNotCoupledWarning):
            assert excitation_probability(early, couple=True) == 0.0

    def test_in_contact_signal(self):
        scn = load_scenario(three_emitter_config(evaluation_time=9.0))
        p = excitation_probability(scn, couple=True)
        q = excitation_probability(scn, couple=False)
        assert 0.0 < q < 0.5
        assert p != pytest.approx(q, abs=1e-9)

    def test_emitter_after_receiver_gated_out(self):
        # an emitter firing after the receiver cannot contribute signal
        emitters = (Detector((2.0, 0.0, 0.0), 10.0, 1.0),)
        receiver = Detector((0.0, 0.0, 0.0), 8.0, 2.0)
        scn = Scenario(emitters, receiver, w_state(1, [0.0]), 12.0)
        p = excitation_probability(scn, couple=True)
        q = excitation_probability(scn, couple=False)
        assert p == q

    def test_probability_bounds(self):
        scn = load_scenario(three_emitter_config(evaluation_time=9.0))
        for couple in (True, False):
            p = excitation_probability(scn, couple)
            assert 0.0 <= p <= 1.0

    @given(data=st.data())
    @hsettings(max_examples=40, deadline=None)
    def test_probability_within_vacuum_noise_band(self, data):
        # |E| <= 1 pins p to [(1 - C1)/2, (1 + C1)/2] for any emitter state
        n = data.draw(st.integers(1, 4))
        coord = st.floats(-3.0, 3.0)
        emitters = tuple(Detector((data.draw(coord), data.draw(coord), 0.0),
                                  data.draw(st.floats(0.0, 3.0)),
                                  data.draw(st.floats(0.0, 3.0)))
                         for _ in range(n))
        kind = data.draw(st.sampled_from(["w", "classical", "pure"]))
        if kind == "w":
            state = w_state(n, data.draw(st.lists(st.floats(0.0, 6.3),
                                                  min_size=n, max_size=n)))
        elif kind == "classical":
            state = classical_mixture(n)
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state = EmitterState.pure(vec / np.linalg.norm(vec))
        t_b = data.draw(st.floats(2.0, 6.0))
        receiver = Detector((data.draw(coord), data.draw(coord), data.draw(coord)),
                            t_b, data.draw(st.floats(0.0, 4.0)))
        scn = Scenario(emitters, receiver, state, t_b + 1.0)
        q = excitation_probability(scn, couple=False)
        p = excitation_probability(scn, couple=True)
        assert q <= p <= 1.0 - q


def random_pure(rng, n):
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return vec / np.linalg.norm(vec)


DISCONNECTED_STATES = {
    "w": lambda rng: w_state(3, [0.3, 1.1, 2.0]),
    "classical": lambda rng: classical_mixture(3),
    "random pure": lambda rng: EmitterState.pure(random_pure(rng, 3)),
    "random mixed": lambda rng: EmitterState.mixture(
        [(0.3, random_pure(rng, 3)), (0.7, random_pure(rng, 3))]),
}
# receiver (position, coupling time) that no emitter below can signal
DISCONNECTED_RECEIVERS = {
    "outside the shells": ((30.0, 0.0, 0.0), 6.0),
    "inside the inner hole": ((0.5, 0.5, 0.0), 12.0),  # d + 2R <= dt for all
}


def disconnected_scenario(state_kind, receiver_kind, seed=11):
    emitters = (Detector((0.0, 0.0, 0.0), 0.0, 1.0),
                Detector((1.0, 0.0, 0.0), 0.5, 1.5),
                Detector((0.0, 1.0, 0.0), 1.0, 0.7))
    position, t_b = DISCONNECTED_RECEIVERS[receiver_kind]
    for e in emitters:
        d = math.dist(position, e.position)
        assert abs(d - (t_b - e.coupling_time)) >= 2 * R
    state = DISCONNECTED_STATES[state_kind](np.random.default_rng(seed))
    return Scenario(emitters, Detector(position, t_b, 2.0), state, t_b + 1.0)


# coordinates whose offsets and squares stay finite: zeros of either sign,
# subnormal and tiny values, 1e+-150 and ordinary map coordinates
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-150, -1e-150, 1e150, -1e150]),
    st.floats(-1e150, 1e150), st.floats(-20.0, 20.0))


class TestReceiverDistances:
    @hsettings(max_examples=60, deadline=None)
    @given(emitters=st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES),
                             min_size=1, max_size=4),
           receivers=st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES),
                              min_size=1, max_size=5))
    def test_both_geometry_paths_equal_the_written_out_distance(self, emitters, receivers):
        # the distances reaching the contact test (_receiver_kernels) and the
        # radiation kernels (_emission_kernels) are, bit for bit, conftest's
        # distance of each receiver-emitter pair; the emitters fire after the
        # receiver, so no commutator is integrated
        import qshock.observables as observables
        scn = Scenario(tuple(Detector(p, 5.0, 1.0) for p in emitters),
                       Detector((0.0, 0.0, 0.0), 1.0, 2.0),
                       w_state(len(emitters), [0.0] * len(emitters)), 6.0)
        contact_ds, radiation_rs = [], []
        contact = observables._in_causal_contact

        def radiation(r, dt, radius):
            radiation_rs.append(r)
            return np.zeros(r.shape), np.zeros(r.shape)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(observables, "_in_causal_contact",
                       lambda d, *rest: contact_ds.append(d) or contact(d, *rest))
            mp.setattr(observables, "closed_form_radiation", radiation)
            observables._receiver_kernels(scn, receivers)
            observables._emission_kernels(scn, receivers, 6.0)
        expect = [[distance(r, e) for e in emitters] for r in receivers]
        [ds], [rs] = contact_ds, radiation_rs
        assert ds.tolist() == expect
        assert rs.tolist() == expect


class TestDisconnectedReceiver:
    """No emitter in causal contact: no quadrature, p = q bit for bit, capacity 0."""

    @pytest.mark.parametrize("receiver_kind", sorted(DISCONNECTED_RECEIVERS))
    @pytest.mark.parametrize("state_kind", sorted(DISCONNECTED_STATES))
    def test_noise_only_and_no_commutator_call(self, state_kind, receiver_kind,
                                               commutator_calls):
        scn = disconnected_scenario(state_kind, receiver_kind)
        point = channel_point(scn)
        assert commutator_calls == []
        assert point.p == point.q
        assert point.q == 0.5 * (1.0 - math.exp(-2.0 * 2.0**2 * KernelSet(R).vacuum_variance()))
        assert channel_capacity(point) == 0.0
        assert excitation_probability(scn, True) == excitation_probability(scn, False)
        assert commutator_calls == []


UNCOUPLED_CALLS = {
    "channel_point": lambda scn: channel_point(scn),
    "excitation_probability coupled": lambda scn: excitation_probability(scn, True),
    "excitation_probability silent": lambda scn: excitation_probability(scn, False),
    "capacity_map": lambda scn: capacity_map(scn, (0.0, 4.0, 0.0, 4.0), 2),
    "coupling_sweep": lambda scn: coupling_sweep(scn, [0.0, 1.0, 2.0]),
    "optimize_phases": lambda scn: optimize_phases(scn, "capacity", (1.0, 0.0, 0.0),
                                                   budget=4, restarts=1),
}


class TestReceiverNotCoupledWarning:
    @pytest.mark.parametrize("entry", sorted(UNCOUPLED_CALLS))
    def test_names_the_calling_line(self, entry):
        # attributed to the first frame outside the package: the call above
        scn = spacelike_scenario()
        early = Scenario(scn.emitters, scn.receiver, scn.emitter_state, 7.0)
        with pytest.warns(ReceiverNotCoupledWarning) as records:
            UNCOUPLED_CALLS[entry](early)
        assert {r.filename for r in records
                if issubclass(r.category, ReceiverNotCoupledWarning)} == {__file__}


class TestEnergyDensity:
    def test_vacuum(self):
        receiver = Detector((0.0, 0.0, 0.0), 1.0, 2.0)
        scn = Scenario((), receiver, EmitterState.pure([1.0]), 2.0)
        assert energy_density(scn, (1.0, 1.0, 1.0), 2.0) == 0.0

    def test_single_emitter_off_shell(self):
        emitters = (Detector((0.0, 0.0, 0.0), 0.0, 1.0),)
        scn = Scenario(emitters, Detector((9.0, 0.0, 0.0), 9.0, 2.0),
                       w_state(1, [0.0]), 5.0)
        on_peak = energy_density(scn, (5.45, 0.0, 0.0), 5.0)
        for r in (3.0, 4.3, 5.7, 8.0):
            off = energy_density(scn, (r, 0.0, 0.0), 5.0)
            assert abs(off) < 1e-6 * abs(on_peak)

    def test_single_emitter_nonnegative(self):
        emitters = (Detector((0.0, 0.0, 0.0), 0.0, 1.0),)
        scn = Scenario(emitters, Detector((9.0, 0.0, 0.0), 9.0, 2.0),
                       w_state(1, [0.0]), 5.0)
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rng.uniform(-7, 7, size=3)
            assert energy_density(scn, x, 5.0) >= 0.0

    def test_classical_mixture_equals_sum_of_singles(self):
        # cross terms vanish for the incoherent mixture
        scn = load_scenario(three_emitter_config("classical"))
        point, t = (10.0833, 4.8126, 0.0), 8.0
        total = energy_density(scn, point, t)
        singles = 0.0
        for keep in range(3):
            emitters = (scn.emitters[keep],)
            single = Scenario(emitters, scn.receiver, w_state(1, [0.0]),
                              scn.evaluation_time)
            singles += energy_density(single, point, t)
        assert total == pytest.approx(singles, rel=1e-10)

    def test_entangled_differs_only_in_overlap(self):
        scn_w = load_scenario(three_emitter_config("w"))
        scn_c = load_scenario(three_emitter_config("classical"))
        t = 8.0
        overlap_point = (10.0833, 4.8126, 0.0)      # shells of emitters 1 and 2 cross
        single_point = (5.0, 7.0, 0.0)              # only emitter 1's shell
        dw = energy_density(scn_w, overlap_point, t)
        dc = energy_density(scn_c, overlap_point, t)
        assert abs(dw - dc) > 1e-8
        dw1 = energy_density(scn_w, single_point, t)
        dc1 = energy_density(scn_c, single_point, t)
        assert dw1 == pytest.approx(dc1, abs=1e-12)

    def test_inactive_emitters_gated(self):
        scn = load_scenario(three_emitter_config())
        # before anyone fires
        assert energy_density(scn, (5.0, 1.0, 0.0), 0.5) == 0.0

    @pytest.mark.parametrize("lam, x, t", [
        (1e200, (5.0, 7.0, 0.0), 8.0),   # 4 lambda^2 overflows
        (1e150, (5.0, 0.0, 0.0), 1.5),   # finite weights, T00 overflows at the ball's centre
    ])
    def test_overflow_names_the_emitter_lambda(self, lam, x, t):
        scn = load_scenario(three_emitter_config())
        emitters = list(scn.emitters)
        emitters[0] = replace(emitters[0], coupling_strength=lam)
        scn = Scenario(emitters, scn.receiver, scn.emitter_state, scn.evaluation_time)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^emitters\[0\]\.lambda: "):
                energy_density(scn, x, t)

    def test_point_arrays_with_mixed_radii(self):
        # (..., 3) points give an array of shape (...); radii differ per emitter
        emitters = (Detector((5.0, 0.0, 0.0), 1.0, 1.0, smearing_radius=0.5),
                    Detector((6.5, 0.0, 0.0), 2.0, 1.0, smearing_radius=0.8))
        scn = Scenario(emitters, Detector((11.0, 4.5, 0.0), 8.0, 2.0),
                       w_state(2, [0.0, 0.4]), 8.0)
        rng = np.random.default_rng(4)
        points = np.column_stack((rng.uniform(5.0, 13.0, 12), rng.uniform(0.0, 8.0, 12),
                                  np.zeros(12))).reshape(3, 4, 3)
        grid = energy_density(scn, points, 8.0)
        assert grid.shape == (3, 4) and np.any(grid > 0.0)
        for idx in np.ndindex(3, 4):
            assert grid[idx] == pytest.approx(energy_density(scn, points[idx], 8.0),
                                              rel=1e-12, abs=0.0)
        with pytest.raises(ValueError, match="shape"):
            energy_density(scn, (1.0, 2.0), 8.0)


class TestChannelCapacity:
    def test_useless_channel(self):
        assert channel_capacity(p=0.3, q=0.3) == 0.0
        assert channel_capacity(p=0.0, q=0.0) == 0.0
        assert channel_capacity(p=1.0, q=1.0) == 0.0

    def test_noiseless_bit(self):
        assert channel_capacity(p=1.0, q=0.0) == 1.0
        assert channel_capacity(p=0.0, q=1.0) == 1.0

    def test_symmetric_point(self):
        # p = 1 - q reduces to the symmetric channel 1 - h(q)
        got = channel_capacity(p=0.89, q=0.11)
        assert got == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-12)
        assert got == pytest.approx(0.5000840418355, abs=1e-10)  # oracle-frozen

    def test_against_blahut_arimoto_samples(self):
        # well-separated rows: the iteration certifies 1e-12 quickly
        rng = np.random.default_rng(17)
        drawn = 0
        while drawn < 40:
            p, q = rng.uniform(0.01, 0.99, size=2)
            if abs(p - q) < 0.02:
                continue
            drawn += 1
            assert channel_capacity(p=p, q=q) == pytest.approx(
                blahut_arimoto_capacity(p, q), abs=2e-11)

    def test_near_diagonal_against_longdouble_referee(self):
        # the alternating maximization stalls here, so referee the closed
        # form against itself evaluated in extended precision
        def referee(p, q):
            p, q = np.longdouble(p), np.longdouble(q)
            h = lambda x: -x * np.log2(x) - (1 - x) * np.log2(1 - x)
            s = (h(p) - h(q)) / (q - p)
            return float((-q * h(p) + p * h(q)) / (q - p) + np.log2(1 + 2**s))

        rng = np.random.default_rng(23)
        for _ in range(25):
            base = rng.uniform(0.05, 0.95)
            delta = rng.uniform(1e-4, 5e-3)
            got = channel_capacity(p=base + delta, q=base)
            assert got == pytest.approx(referee(base + delta, base), abs=1e-11)

    @given(p=st.floats(0.01, 0.99), q=st.floats(0.01, 0.99))
    @hsettings(max_examples=40, deadline=None)
    def test_relabeling_symmetries(self, p, q):
        c = channel_capacity(p=p, q=q)
        assert channel_capacity(p=q, q=p) == pytest.approx(c, abs=1e-12)
        assert channel_capacity(p=1 - p, q=1 - q) == pytest.approx(c, abs=1e-12)
        assert 0.0 <= c <= 1.0

    def test_small_gap_series_consistency(self):
        # quadratic branch continuous against the closed form
        base = 0.37
        for delta in (3e-5, 1e-5, 3e-6):
            full = channel_capacity(p=base + delta, q=base)
            series = delta**2 / (8 * math.log(2) * (base + delta / 2)
                                 * (1 - base - delta / 2))
            assert full == pytest.approx(series, rel=2e-4)

    @pytest.mark.parametrize("p, q, exact", [
        (5e-20, 0.0, 2.6536892271152149e-20),     # p / (e ln 2)
        (3e-17, 1e-17, 3.8035099023530844e-18),   # 400-digit mpmath
    ])
    def test_tiny_probabilities_keep_the_one_minus_x_entropy_term(self, p, q, exact):
        # 1 - p and 1 - q round to 1, where log2(1 - x) drops the term
        assert channel_capacity(p=p, q=q) == pytest.approx(exact, rel=1e-12)

    def test_invalid_probability_is_hard_error(self):
        with pytest.raises(ValueError, match="probability"):
            channel_capacity(p=1.2, q=0.1)
        # boundary dust within 1e-12 is clamped, not fatal
        assert channel_capacity(p=1.0 + 1e-13, q=0.0) == 1.0

    def test_channel_point_invariants(self):
        scn = load_scenario(three_emitter_config(evaluation_time=9.0))
        cp = channel_point(scn)
        assert 0.0 <= cp.p <= 1.0
        assert cp.q < 0.5  # strictly below one half at finite coupling


class TestMonotoneNoise:
    def test_noise_increases_and_capacity_dies(self):
        scn = load_scenario(three_emitter_config(evaluation_time=9.0))
        qs, caps = [], []
        for lb in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            strong = scn.with_receiver(replace(scn.receiver, coupling_strength=lb))
            p = excitation_probability(strong, True)
            q = excitation_probability(strong, False)
            qs.append(q)
            caps.append(channel_capacity(p=p, q=q))
        assert all(a < b for a, b in zip(qs, qs[1:]))          # q strictly rises
        assert qs[-1] == pytest.approx(0.5, abs=1e-6)
        assert caps[-1] < 1e-10                                 # capacity dies

    def test_large_coupling_probability_half(self):
        scn = load_scenario(three_emitter_config(evaluation_time=9.0))
        strong = scn.with_receiver(replace(scn.receiver, coupling_strength=50.0))
        p = excitation_probability(strong, True)
        q = excitation_probability(strong, False)
        assert abs(p - 0.5) < 1e-3
        assert channel_capacity(p=p, q=q) < 1e-6
