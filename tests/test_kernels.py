import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from qshock.kernels import (KernelSet, QuadratureError, _R_FLOOR, _in_causal_contact,
                            closed_form_commutator, closed_form_radiation,
                            closed_form_variance, sphere_form_factor)

from conftest import retarded_dr, retarded_dt

R = 0.5
KS = KernelSet(R)  # holds no state between calls, so one instance serves every test


# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------

def form_factor_3d(k: float, radius: float, n: int = 400) -> float:
    """Direct 3-D Fourier transform of the ball: nested midpoint quadrature
    over (r, cos angle), Richardson-extrapolated once in the mesh size."""
    def midpoint(m):
        rs = (np.arange(m) + 0.5) * radius / m
        mus = -1.0 + (np.arange(m) + 0.5) * 2.0 / m
        grid = np.cos(k * rs[:, None] * mus[None, :]) * rs[:, None] ** 2
        return float(2.0 * np.pi * grid.sum() * (radius / m) * (2.0 / m))

    coarse, fine = midpoint(n), midpoint(2 * n)
    return (4.0 * fine - coarse) / 3.0


def variance_interval_doubling(radius: float, rtol: float = 1e-8) -> float:
    """nu by trapezoid interval doubling; the truncated tail is below
    radius^2 / kmax^2 ~ 1e-8 relative at this range."""
    def integrand(k):
        k = np.asarray(k)
        s = np.where(k > 0, sphere_form_factor(np.maximum(k, 1e-12), radius), 0.0)
        return k * s**2 / (4.0 * np.pi**2)

    prev = None
    kmax = 10000.0 / radius
    n = 1 << 20
    for _ in range(6):
        ks = np.linspace(0.0, kmax, n + 1)
        val = float(np.trapezoid(integrand(ks), ks))
        if prev is not None and abs(val - prev) < rtol * abs(val):
            return val
        prev = val
        n *= 2
    raise AssertionError("oracle did not settle")


# ----------------------------------------------------------------------
# sphere form factor
# ----------------------------------------------------------------------

class TestSphereFormFactor:
    def test_zero_momentum_is_ball_volume(self):
        assert sphere_form_factor(0.0, R) == pytest.approx(math.pi / 6.0, rel=1e-14)
        assert sphere_form_factor(1e-9, R) == pytest.approx(math.pi / 6.0, rel=1e-10)

    def test_analytic_zero(self):
        # first positive root of tan(u) = u, at u = kR
        u0 = 4.493409457909064
        assert sphere_form_factor(u0 / R, R) == pytest.approx(0.0, abs=1e-12)

    def test_against_3d_fourier_oracle(self):
        # frozen from the oracle below; S(1, 1/2) = 4 pi (sin .5 - .5 cos .5)
        frozen = 0.5106251413825657
        assert sphere_form_factor(1.0, R) == pytest.approx(frozen, rel=1e-12)
        assert form_factor_3d(1.0, R) == pytest.approx(frozen, rel=1e-6)

    def test_negative_momentum_rejected(self):
        with pytest.raises(ValueError):
            sphere_form_factor(-1.0, R)

    def test_vectorized(self):
        ks = np.array([0.0, 0.5, 2.0])
        out = sphere_form_factor(ks, R)
        assert out.shape == (3,)


# ----------------------------------------------------------------------
# vacuum variance
# ----------------------------------------------------------------------

class TestVacuumVariance:
    def test_value_against_interval_doubling_oracle(self):
        # oracle-frozen: 0.0625 (= R^4, see docs/derivations.md section 2)
        assert KS.vacuum_variance() == pytest.approx(0.0625, rel=1e-9)
        assert variance_interval_doubling(R) == pytest.approx(0.0625, rel=1e-6)

    def test_positive_and_finite(self):
        for radius in (0.1, 0.5, 1.0, 3.0):
            nu = KernelSet(radius).vacuum_variance()
            assert 0.0 < nu < math.inf

    def test_scaling_power_four(self):
        ratio = KernelSet(1.0).vacuum_variance() / KernelSet(0.5).vacuum_variance()
        assert ratio == pytest.approx(16.0, rel=1e-9)

    def test_small_momentum_integrand_limit(self):
        # k -> 0: integrand ~ k (4 pi R^3/3)^2 / (4 pi^2)
        k = 1e-6
        expect = k * (4 * math.pi * R**3 / 3.0) ** 2 / (4 * math.pi**2)
        got = k * sphere_form_factor(k, R) ** 2 / (4 * math.pi**2)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_closed_form_agrees(self):
        for radius in (0.1, 0.5, 1.0, 3.0):
            assert KernelSet(radius).vacuum_variance() == pytest.approx(
                float(closed_form_variance(radius)), rel=1e-12)


# ----------------------------------------------------------------------
# commutator kernel
# ----------------------------------------------------------------------

class TestCommutatorKernel:
    def test_spacelike_zero(self):
        assert KS.commutator(10.0, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_zero_time_difference_exact(self):
        assert KS.commutator(3.0, 0.0) == 0.0

    def test_cross_strategies_agree_at_null_point(self):
        primary = KS.commutator(3.0, 3.0)
        assert primary != 0.0
        assert abs(closed_form_commutator(3.0, 3.0, R, R) - primary) <= 1e-12

    def test_value_regression(self):
        # = -pi/360, the lens-volume closed form at d = dt = 6R
        assert KS.commutator(3.0, 3.0) == pytest.approx(-8.726646259972e-03, rel=1e-9)

    @given(d=st.floats(0.1, 8.0), dt=st.floats(0.05, 8.0))
    @hsettings(max_examples=25, deadline=None)
    def test_antisymmetry(self, d, dt):
        assert KS.commutator(d, -dt) == -KS.commutator(d, dt)

    @given(d=st.floats(0.0, 12.0), dt=st.floats(-5.0, 5.0))
    @hsettings(max_examples=40, deadline=None)
    def test_microcausality(self, d, dt):
        if d > abs(dt) + 2 * R + 0.1:
            assert abs(KS.commutator(d, dt)) < 1e-8

    def test_support_edges(self):
        # support is |dt| in (d - 2R, d + 2R)
        assert abs(KS.commutator(3.0, 1.95)) < 1e-10
        assert abs(KS.commutator(3.0, 2.05)) > 1e-10
        assert abs(KS.commutator(3.0, 3.95)) > 1e-10
        assert abs(KS.commutator(3.0, 4.05)) < 1e-10

    def test_colocated_support(self):
        # d = 0: the self-commutator is nonzero only for |dt| < 2R
        assert abs(KS.commutator(0.0, 0.5)) > 1e-6
        assert abs(KS.commutator(0.0, 1.5)) < 1e-10

    def test_mixed_radii(self):
        ks = KernelSet(0.5)
        ks2 = KernelSet(0.7)
        mixed = ks.commutator(3.0, 3.0, other_radius=0.7)
        swapped = ks2.commutator(3.0, 3.0, other_radius=0.5)
        assert mixed == pytest.approx(swapped, rel=1e-10)
        assert mixed != pytest.approx(ks.commutator(3.0, 3.0), rel=1e-3)


# ----------------------------------------------------------------------
# radiation kernels vs the closed-form retarded oracle
# ----------------------------------------------------------------------

SHELL_POINTS = [(5.3, 5.0), (4.8, 5.0), (5.45, 5.0), (4.55, 5.0), (2.2, 2.0),
                (7.9, 8.0)]
OFF_SHELL_POINTS = [(6.5, 5.0), (3.0, 5.0), (0.5, 5.0), (9.0, 5.0)]


class TestRadiationKernels:
    @pytest.mark.parametrize("r,dt", SHELL_POINTS)
    def test_time_component_matches_retarded_oracle(self, r, dt):
        assert KS.radiation_time(r, dt) == pytest.approx(
            0.5 * retarded_dt(r, dt, R), abs=1e-10)

    @pytest.mark.parametrize("r,dt", SHELL_POINTS)
    def test_radial_component_matches_retarded_oracle(self, r, dt):
        assert KS.radiation_radial(r, dt) == pytest.approx(
            0.5 * retarded_dr(r, dt, R), abs=1e-10)

    @pytest.mark.parametrize("r,dt", OFF_SHELL_POINTS)
    def test_sharp_support(self, r, dt):
        shell_peak = abs(KS.radiation_time(dt + R * 0.9, dt))
        for kernel in (KS.radiation_time, KS.radiation_radial):
            assert abs(kernel(r, dt)) < 1e-6 * shell_peak

    def test_on_cone_values(self):
        # at r = dt the time kernel crosses zero and the radial one peaks
        dt = 5.0
        assert KS.radiation_time(dt, dt) == pytest.approx(0.0, abs=1e-12)
        assert KS.radiation_radial(dt, dt) == pytest.approx(
            -R**2 / (8.0 * dt**2), rel=1e-9)

    def test_interior_region(self):
        # r + dt < R: uniform rise inside the source ball
        assert KS.radiation_time(0.05, 0.3) == pytest.approx(0.5, abs=1e-10)
        assert KS.radiation_radial(0.05, 0.3) == pytest.approx(0.0, abs=1e-10)

    def test_near_centre_series_path(self):
        # removable singularity at r = 0
        assert KS.radiation_time(0.0, 0.3) == pytest.approx(0.5, abs=1e-8)
        assert KS.radiation_time(1e-9, 5.0) == pytest.approx(0.0, abs=1e-8)

    def test_centre_at_dt_equal_radius_is_set_by_the_r_floor(self):
        # derivations section 4: at the centre the time kernel is
        # 1/2 Theta(R - dt) - (R/2) delta(dt - R); both evaluators floor r at
        # _R_FLOOR, so at r = 0, dt = R they return the shell value at r = 1e-6
        floored = (_R_FLOOR - R) / (4.0 * _R_FLOOR)
        time, _ = closed_form_radiation(0.0, R, R)
        assert time == closed_form_radiation(_R_FLOOR, R, R)[0]
        assert time == pytest.approx(floored, rel=1e-12)
        assert time == pytest.approx(-124999.75, rel=1e-12)
        assert KS.radiation_time(0.0, R) == pytest.approx(floored, rel=1e-9)
        # off the floor the shell is a spike of width 2r whose weight tends to -R/2:
        # over [R - 2r, R + 2r] the interior adds r/2 and the shell (r - R)/2
        for r in (1e-2, 1e-3):
            dt = np.linspace(R - 2.0 * r, R + 2.0 * r, 400_001)
            kernel = closed_form_radiation(r, dt, R)[0]
            weight = np.sum(0.5 * (kernel[1:] + kernel[:-1]) * np.diff(dt))  # trapezoids
            assert weight == pytest.approx(r - 0.5 * R, rel=1e-6)
            assert closed_form_radiation(r, R, R)[0] == pytest.approx((r - R) / (4.0 * r))

    def test_one_over_r_decay_along_shell(self):
        u = 0.3
        v1 = KS.radiation_time(5.0 + u, 5.0)
        v2 = KS.radiation_time(10.0 + u, 10.0)
        assert v1 / v2 == pytest.approx((10.0 + u) / (5.0 + u), rel=1e-6)

    def test_invalid_arguments(self):
        for kernel in (KS.radiation_time, KS.radiation_radial):
            with pytest.raises(ValueError, match="dt > 0"):
                kernel(1.0, -0.5)
            with pytest.raises(ValueError, match="distance from emitter centre"):
                kernel([1.0, -1e-9], 0.5)
        with pytest.raises(ValueError, match="separation distance"):
            KS.commutator([0.5, -0.5], 1.0)

    def test_cross_strategies_on_shell(self):
        r, dt = 5.3, 5.0
        time, radial = closed_form_radiation(r, dt, R)
        assert abs(KS.radiation_time(r, dt) - time) <= 1e-10
        assert abs(KS.radiation_radial(r, dt) - radial) <= 1e-10


# ----------------------------------------------------------------------
# purity and stability
# ----------------------------------------------------------------------

# (d, dt, R_i, Delta) at R = 0.5: on and off the support, on its edges
# |d - dt| = R + R_i, at d = dt, below the distance floor and near d = 0
GOLDEN_COMMUTATOR = [
    (3.0, 3.0, 0.5, "-0x1.1df46a2529d3dp-7"),
    (3.0, 2.0, 0.5, "-0x1.9f9e973e7942bp-55"),
    (3.0, 4.0, 0.5, "0x1.af1f2390200bbp-54"),
    (2.0, 3.0, 0.5, "-0x1.39b0bd0ad4983p-54"),
    (3.0, 1.95, 0.5, "0x1.9f02f6222c720p-57"),
    (3.0, 2.05, 0.5, "-0x1.5be76b4489099p-18"),
    (3.0, 3.95, 0.5, "-0x1.5be76b44a1a55p-18"),
    (3.0, -3.0, 0.5, "0x1.1df46a2529d3dp-7"),
    (0.0, 0.5, 0.5, "-0x1.4f1a6c638ac9dp-4"),
    (1e-09, 0.7, 0.5, "-0x1.6cce88305b622p-5"),
    (1.26e-06, 0.698, 0.5, "-0x1.705b963503c4bp-5"),
    (0.6000000001, 0.7, 0.5, "-0x1.555adadadce4bp-5"),
    (0.3, 0.2, 0.5, "-0x1.b4f7aa7ead681p-5"),
    (5.3, 5.0, 0.5, "-0x1.b9ed241b5a0cbp-9"),
    (10.0, 10.0, 0.5, "-0x1.57254c2c9ebc6p-9"),
    (12.5, 12.9, 0.5, "-0x1.17e007bbee54dp-10"),
    (16.06, 11.58, 0.5, "0x1.6604414c35cdep-49"),
    (7.2, 7.0, 0.7, "-0x1.dc975b9345ba7p-8"),
    (4.0, 4.75, 0.25, "0x1.1a346f8674e0fp-51"),
    (6.5, 6.0, 1.1, "-0x1.2c40a2a70579fp-6"),
    (8.0, 8.9, 0.5, "-0x1.ef3a555b38116p-17"),
    (0.05, 0.9, 0.5, "-0x1.da6b9d3c5000ep-8"),
]
# (r, dt, time kernel, radial kernel) at R = 0.5
GOLDEN_RADIATION = [
    (5.3, 5.0, "0x1.cfb2b78c1351ep-7", "-0x1.e70761c9dd8cap-7"),
    (4.8, 5.0, "-0x1.5555555555555p-7", "0x1.3000000000005p-7"),
    (0.05, 0.3, "0x1.0000000000002p-1", "0x1.0023d3e9176e6p-50"),
    (5.5, 5.0, "0x1.745d1745d1745p-7", "-0x1.745d1745d1746p-7"),
]


class TestKernelSet:
    def test_repeated_calls_return_identical_values(self):
        ks = KernelSet(R)
        assert ks.commutator(3.0, 3.0) == ks.commutator(3.0, 3.0)
        assert ks.vacuum_variance() == ks.vacuum_variance()

    def test_values_independent_of_call_order(self):
        # nearby arguments get their own values, whatever came before
        ks = KernelSet(R)
        first = ks.commutator(0.6000000001, 0.7)
        second = ks.commutator(0.6000000004, 0.7)
        assert second == KernelSet(R).commutator(0.6000000004, 0.7)
        assert first == KernelSet(R).commutator(0.6000000001, 0.7)
        assert first != second
        # ... and whatever shares their batch: neighbours, repeats, other
        # panel counts, radii and signs, in any order
        together = ks.commutator([9.0, 0.6000000004, 0.6000000001, 3.0, 0.6000000001],
                                 [8.7, 0.7, 0.7, -3.0, 0.7], [1.1, 0.5, 0.5, 0.7, 0.5])
        assert together.tolist()[1:3] == [second, first]
        assert together[4] == first
        assert together[0] == ks.commutator(9.0, 8.7, 1.1)
        assert together[3] == ks.commutator(3.0, -3.0, 0.7)
        assert ks.commutator([0.6000000001] * 3, 0.7).tolist() == [first] * 3

    @given(args=st.lists(st.tuples(
               st.one_of(st.floats(0.0, 12.0), st.floats(0.0, 2e-6)),
               st.one_of(st.floats(-12.0, 12.0), st.just(0.0)),
               st.sampled_from([0.25, 0.5, 1.1]),
               st.sampled_from([None, "equal", "outer", "inner"])), min_size=1, max_size=8))
    @hsettings(max_examples=40, deadline=None)
    @example(args=[(3.0, 0.0, 0.5, "equal"), (3.0, 0.0, 0.5, "outer"),
                   (3.0, 0.0, 0.25, "inner"), (1e-9, -0.7, 1.1, None),
                   (0.0, 0.0, 0.5, None), (4.0, -5.0, 0.5, None)])
    # one panel rule of four arguments over every distinct |dt|, so they share
    # one sin(k dt) row per dt; d - dt = +-0.5 and d + dt = 5.5 recur across
    # arguments; mixed radii at the same (d, dt) take rules of one argument
    @example(args=[(3.0, 2.5, 0.5, None), (2.5, 3.0, 0.5, None), (3.0, -2.5, 0.5, None),
                   (2.0, 3.5, 0.5, None), (4.0, 2.5, 0.25, None), (4.0, 2.5, 1.1, None)])
    def test_array_call_equals_elementwise_calls(self, args):
        # d == dt and |d - dt| == R_a + R_b (up to the rounding of d +- S) on
        # request; the batch's values and errors are the scalar calls' bits
        rows = []
        for d, dt, other, edge in args:
            sign = -1.0 if dt < 0 else 1.0
            if edge == "equal":
                dt = sign * d
            elif edge is not None:
                dt = sign * (d + (R + other if edge == "outer" else -(R + other)))
            rows.append((d, dt, other))
        d, dt, other = (np.array(col) for col in zip(*rows))
        batch = KS.commutator_value(d, dt, other)
        single = [KS.commutator_value(*row) for row in rows]
        assert batch.value.tolist() == [kv.value for kv in single]
        assert batch.error.tolist() == [kv.error for kv in single]
        assert all(type(kv.value) is float for kv in single)

    def test_radiation_arrays_equal_elementwise_calls(self):
        r, dt = np.array([[5.3, 4.8], [0.05, 1e-9]]), np.array([5.0, 0.3])
        for kernel in (KS.radiation_time_value, KS.radiation_radial_value):
            batch = kernel(r, dt)
            assert batch.value.shape == batch.error.shape == (2, 2)
            for idx in np.ndindex(r.shape):
                single = kernel(float(r[idx]), float(dt[idx[1]]))
                assert (batch.value[idx], batch.error[idx]) == (single.value, single.error)
            empty = kernel(np.zeros((0, 2)), dt)  # no argument, no rule
            assert empty.value.shape == empty.error.shape == (0, 2)

    @given(args=st.lists(st.tuples(st.one_of(st.floats(0.0, 12.0), st.floats(0.0, 2e-6)),
                                   st.floats(0.01, 12.0)), min_size=1, max_size=8),
           radius=st.sampled_from([0.25, 0.5, 1.1]))
    @hsettings(max_examples=30, deadline=None)
    # one rule of three arguments over every distinct dt, so they share one
    # trig(k dt) row per dt, and r - dt = +-0.3 recurs; (0.05, 5.0) and
    # (4.8, 5.0) take rules of their own
    @example(args=[(5.3, 5.0), (5.0, 5.3), (5.5, 4.8), (0.05, 5.0), (4.8, 5.0)], radius=0.5)
    def test_radiation_array_call_equals_elementwise_calls(self, args, radius):
        ks = KernelSet(radius)
        r, dt = (np.array(col) for col in zip(*args))
        for kernel in (ks.radiation_time_value, ks.radiation_radial_value):
            batch, single = kernel(r, dt), [kernel(*row) for row in args]
            assert batch.value.tolist() == [kv.value for kv in single]
            assert batch.error.tolist() == [kv.error for kv in single]

    def test_exp1_of_conjugate_is_conjugate_bit_for_bit(self):
        # the Fourier tails evaluate E1(-i a K) once per distinct |a| and take
        # a < 0 as the conjugate, which holds bit for bit in scipy's exp1
        from scipy.special import exp1
        a = np.concatenate([np.geomspace(1e-14, 1e3, 400), np.linspace(0.01, 40.0, 2000)])
        for cut in (6.0, 10.0, 30.0, 7.3):
            z = -1j * (a * cut)
            assert (-1j * (-a * cut)).view(np.uint64).tolist() == \
                np.conj(z).view(np.uint64).tolist()
            assert exp1(np.conj(z)).view(np.uint64).tolist() == \
                np.conj(exp1(z)).view(np.uint64).tolist()

    @pytest.mark.parametrize("radius", [1e-5, 1e-200, 1e110, 1e300])
    def test_rule_above_the_node_bound_is_refused(self, radius):
        # refused before a rule is built or a radius power taken (which overflows)
        ks = KernelSet(radius)
        for call in (lambda: ks.commutator(3.0, 2.9), ks.vacuum_variance,
                     lambda: ks.radiation_time(3.0, 2.9), lambda: ks.radiation_radial(3.0, 2.9)):
            with pytest.raises(QuadratureError, match=r"nodes, above the bound of 1048576"):
                call()

    def test_one_non_converging_argument_fails_the_batch(self, one_argument_diverges):
        with pytest.raises(QuadratureError, match="did not converge") as failure:
            KS.commutator([3.0, 3.0, 5.3], [3.0, 2.9, 5.0])
        assert failure.value.requested == 1e-8
        assert failure.value.achieved > 1.0
        assert str(failure.value).endswith(
            f"(achieved {failure.value.achieved:.3e}, requested 1.000e-08)")

    @given(d=st.floats(0.0, 20.0), dt=st.floats(-20.0, 20.0),
           other=st.sampled_from([0.25, 0.5, 1.1]))
    @hsettings(max_examples=60, deadline=None)
    @example(d=16.06, dt=11.58, other=0.5)  # |value| 2.5e-15 against an estimate of 1e-16
    def test_off_support_error_covers_the_value(self, d, dt, other):
        # off the support the exact kernel is 0, so |value| is all error
        if abs(max(d, _R_FLOOR) - abs(dt)) < R + other:
            return
        kv = KernelSet(R).commutator_value(d, dt, other)
        assert abs(kv.value) <= kv.error
        assert kv.value == KernelSet(R).commutator(d, dt, other)

    def test_values_equal_recorded_bits(self):
        # recorded from the per-argument quadrature this batched one replaced
        d, dt, other, expect = zip(*GOLDEN_COMMUTATOR)
        assert KS.commutator(d, dt, other).tolist() == [float.fromhex(h) for h in expect]
        for d_i, dt_i, other_i, h in GOLDEN_COMMUTATOR:  # one argument at a time, too
            assert KS.commutator(d_i, dt_i, other_i) == float.fromhex(h)
        assert KS.vacuum_variance() == float.fromhex("0x1.ffffffffffffep-5")
        r, dt, time, radial = zip(*GOLDEN_RADIATION)
        assert KS.radiation_time(r, dt).tolist() == [float.fromhex(h) for h in time]
        assert KS.radiation_radial(r, dt).tolist() == [float.fromhex(h) for h in radial]

    def test_radius_must_be_positive(self):
        for radius in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                KernelSet(radius)


# ----------------------------------------------------------------------
# position-space closed forms vs the quadrature
# ----------------------------------------------------------------------

RADIUS_PAIRS = [(0.5, 0.5), (0.5, 0.7), (0.3, 1.1)]


class TestClosedForms:
    def test_commutator_matches_quadrature_sampled(self):
        rng = np.random.default_rng(2024)
        worst = {"far": 0.0, "near": 0.0}
        for ra, rb in RADIUS_PAIRS:
            ks, s = KernelSet(ra), ra + rb
            for i in range(110):
                # every fifth point probes the d -> 0 cancellation regime
                d = 10.0 ** rng.uniform(-6, -3) if i % 5 == 0 else rng.uniform(1e-3, 6.0)
                dt = rng.choice((-1.0, 1.0)) * rng.uniform(max(d - s - 0.2, 0.0),
                                                          d + s + 0.2)
                diff = abs(ks.commutator(d, dt, other_radius=rb)
                           - closed_form_commutator(d, dt, ra, rb))
                key = "far" if d >= 1e-3 else "near"
                worst[key] = max(worst[key], diff)
        assert worst["far"] <= 1e-12
        assert worst["near"] <= 1e-9

    def test_commutator_error_estimate_covers_closed_form_gap(self):
        # as d -> 0 the tail's 1/d coefficients amplify the shift that
        # merging atom frequencies makes; the reported error must carry it,
        # yet stay below criterion 8's 1e-13 floor away from d -> 0
        ks = KernelSet(R)
        rng = np.random.default_rng(300)
        for _ in range(300):
            d, dt = rng.uniform(1e-6, 1e-3), rng.uniform(0.05, 0.95)
            kv = ks.commutator_value(d, dt)
            assert abs(kv.value - closed_form_commutator(d, dt, R, R)) <= kv.error
        for _ in range(50):
            d = rng.uniform(0.5, 7.0)
            dt = rng.uniform(d - 2 * R + 0.05, d + 2 * R - 0.05)
            assert ks.commutator_value(d, dt).error < 1e-13

    @pytest.mark.parametrize("ra,rb", RADIUS_PAIRS)
    def test_commutator_at_near_half_atom_keys(self, ra, rb):
        # atoms merge at frequencies +-ra +-rb +-d +-dt rounded to 12
        # decimals; d half a unit of the 12th decimal off a 12-decimal value
        # puts f * 1e12 near a rounding half, where np.round(f, 12) (rint of
        # the rounded product) and Python's round (of the exact decimal) can
        # pick different keys.  Each value stays within its reported error or
        # 1e-13 of the closed form, criterion 8's rule
        ks, s = KernelSet(ra), ra + rb
        rng = np.random.default_rng(12)
        points = 0
        while points < 6:
            d = round(rng.uniform(0.6, 6.5), 12) + rng.choice((5e-13, -5e-13))
            dt = round(rng.uniform(d - s + 0.05, d + s - 0.05), 11)
            f = np.array([0.0 + ra * s0 + rb * s1 + d * s2 + dt * s3
                          for s0, s1, s2, s3 in itertools.product((1.0, -1.0), repeat=4)])
            if dt <= 0.0 or (np.round(f, 12) == [round(v, 12) for v in f.tolist()]).all():
                continue
            kv = ks.commutator_value(d, dt, other_radius=rb)
            exact = float(closed_form_commutator(d, dt, ra, rb))
            assert abs(kv.value - exact) <= max(kv.error, 1e-13), (d, dt, kv, exact)
            points += 1

    def test_radiation_matches_quadrature_sampled(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for radius in (0.3, 0.5, 1.1):
            ks = KernelSet(radius)
            for _ in range(60):
                r, dt = rng.uniform(0.0, 8.0), rng.uniform(0.01, 8.0)
                if min(abs(abs(r - dt) - radius), abs(r + dt - radius)) <= 1e-6:
                    continue
                time, radial = closed_form_radiation(r, dt, radius)
                worst = max(worst, abs(ks.radiation_time(r, dt) - time),
                            abs(ks.radiation_radial(r, dt) - radial))
        assert worst <= 1e-10

    @pytest.mark.parametrize("r,dt,time,radial", [
        # outer shell edge r - dt = R: half of the shell-side (R/4r, -R/4r)
        (5.5, 5.0, 1.0 / 88.0, -1.0 / 88.0),
        # inner shell edge r - dt = -R: half of (-R/4r, R/4r)
        (4.5, 5.0, -1.0 / 72.0, 1.0 / 72.0),
        # r + dt = R: mean of the interior (1/2, 0) and the shell side (0, -1/2)
        (0.25, 0.25, 0.25, -0.25),
    ])
    def test_light_cone_edges_take_jump_midpoint(self, r, dt, time, radial):
        closed = closed_form_radiation(r, dt, R)
        assert closed[0] == pytest.approx(time, abs=1e-15)
        assert closed[1] == pytest.approx(radial, abs=1e-15)
        assert abs(KS.radiation_time(r, dt) - time) <= 1e-12
        assert abs(KS.radiation_radial(r, dt) - radial) <= 1e-12

    @given(d=st.floats(1e-6, 10.0), dt=st.floats(0.0, 10.0),
           radii=st.sampled_from(RADIUS_PAIRS))
    @hsettings(max_examples=200, deadline=None)
    def test_commutator_exactly_odd_and_causal(self, d, dt, radii):
        ra, rb = radii
        value = closed_form_commutator(d, dt, ra, rb)
        assert closed_form_commutator(d, -dt, ra, rb) == -value
        if abs(d - dt) >= ra + rb:  # |dt| outside (d - S, d + S)
            assert value == 0.0

    @given(d=st.one_of(st.floats(0.0, 12.0), st.floats(0.0, 2e-6)),
           dt=st.one_of(st.floats(-12.0, 12.0), st.just(0.0)),
           radii=st.sampled_from(RADIUS_PAIRS + [(0.25, 0.75)]),
           edge=st.sampled_from([None, -1.0, 1.0]))
    @hsettings(max_examples=300, deadline=None)
    @example(d=3.0, dt=2.0, radii=(0.5, 0.5), edge=None)    # d - dt == S exactly
    @example(d=2.0, dt=3.0, radii=(0.5, 0.5), edge=None)    # dt - d == S exactly
    @example(d=4.0, dt=5.0, radii=(0.25, 0.75), edge=None)  # mixed radii, dt - d == S
    @example(d=0.0, dt=6.0, radii=(0.5, 0.5), edge=None)    # d floored, inner hole
    @example(d=1e-9, dt=0.0, radii=(0.5, 0.5), edge=None)   # dt = 0 at the floor
    @example(d=0.0, dt=0.0, radii=(0.3, 1.1), edge=None)
    def test_exactly_zero_without_causal_contact(self, d, dt, radii, edge):
        ra, rb = radii
        if edge is not None:  # on a support edge, up to the rounding of d +- S
            dt = max(d, 1e-6) + edge * (ra + rb)
        # an emitter firing with or after the receiver never signals it
        assert not _in_causal_contact(d, -abs(dt), ra, rb)
        if not _in_causal_contact(d, abs(dt), ra, rb):
            assert closed_form_commutator(d, dt, ra, rb) == 0.0

    def test_arrays_broadcast(self):
        d = np.array([0.5, 3.0, 10.0])
        out = closed_form_commutator(d, 3.0, R, R)
        assert out.shape == (3,)
        assert out[2] == 0.0
        time, radial = closed_form_radiation(np.array([[4.8], [5.3]]), 5.0, R)
        assert time.shape == radial.shape == (2, 1)
        # one radius per emitter broadcasts against the last axis
        rs, radii = np.array([[4.8, 5.3], [0.1, 5.6]]), np.array([0.5, 0.7])
        time, radial = closed_form_radiation(rs, 5.0, radii)
        for idx in np.ndindex(rs.shape):
            single = closed_form_radiation(rs[idx], 5.0, radii[idx[1]])
            assert (time[idx], radial[idx]) == (single[0], single[1])
        with pytest.raises(ValueError):
            closed_form_radiation(1.0, 0.0, R)
