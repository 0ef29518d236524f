"""Radial kernel integrals for uniform-ball smeared detectors of a massless field.

Every field-theoretic quantity in the pipeline reduces to a 1-D momentum
integral over k in [0, inf) built from the ball form factor

    S(k) = 4 pi (sin kR - kR cos kR) / k^3,

namely

    vacuum variance   nu          = (1/4pi^2) int k S(k)^2 dk
    commutator kernel Delta(d,dt) = -(1/2pi^2) int k S(k)^2 sinc(kd) sin(k dt) dk
    radiation kernels (time)      = (1/4pi^2) int k^2 S(k) sinc(kr)  cos(k dt) dk
                      (radial)    = (1/4pi^2) int k^2 S(k) sinc'(kr) sin(k dt) dk

(the derivations note in docs/derivations.md records how the 3-D mode
integrals collapse to these forms).  The radiation integrands decay only
like 1/k with oscillation, so a plain adaptive quadrature cannot be
trusted.  The evaluator splits each integral at a cut
K0:  the head [0, K0] is integrated with panel-doubled Gauss-Legendre
rules on the cancellation-free combined integrand, while on the tail
the integrand is *identically* a finite sum of Fourier atoms
trig(a k)/k^m whose tails have closed forms in the sine/cosine
integrals, evaluated through the complex exponential integral.  The
only truncation error is therefore the head-panel estimate.

Each kernel also has an exact closed form in position space (the ball's
retarded field, the two-ball overlap volume, nu = R^4), kept alongside
as array functions.  The energy density evaluates the radiation kernels
through theirs; the quadrature serves the commutator and nu, and the
test suite and the `kernels --cross-check` CLI subcommand compare the two.

The commutator of balls with radii R_B and R_i vanishes exactly unless
|d - |dt|| < R_B + R_i (the strong Huygens principle); _in_causal_contact
states that support, together with the time ordering dt > 0 that lets an
emitter signal a receiver.  Capacity maps, sweeps and phase searches run
the commutator quadrature only at a receiver that at least one emitter
is in causal contact with; everywhere else every Delta is exactly 0 and
no quadrature runs.  Off that support the quadrature returns rounding
noise instead of 0, and its reported error then covers that noise.

Every quadrature runs with one fixed setting (_REL_TOL, _ABS_FLOOR,
_MAX_DOUBLINGS, the 12-point Gauss-Legendre panel rule); no caller
varies it.  KernelSet(radius) is the one entry point to the quadrature.
It keeps no state between calls: every call runs its quadrature,
so each value is a pure function of its arguments, whatever was
evaluated before.  Callers that need a kernel at many points evaluate
each distinct argument once themselves (observables._receiver_kernels).

scipy.special (exp1, for the quadrature tails) is imported inside
_tail_sum, once per kernel evaluation, so the closed forms and the
import of this module do not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureError",
    "KernelValue",
    "KernelSet",
    "sphere_form_factor",
    "closed_form_variance",
    "closed_form_commutator",
    "closed_form_radiation",
]

_FOUR_PI = 4.0 * math.pi
_INV_4PI2 = 1.0 / (4.0 * math.pi**2)
_INV_2PI2 = 1.0 / (2.0 * math.pi**2)

# Arguments closer to a kernel singularity than this are nudged outward;
# the kernels are smooth there and the shift is far below every tolerance.
_R_FLOOR = 1e-6

# The one setting of every kernel quadrature.  The head has converged once
# two successive panel doublings differ by at most
# _REL_TOL * max(|value|, 1) + _ABS_FLOOR.  The first doubling already
# agrees to rounding (at most 1.6e-13 over 1500 sampled kernels with R from
# 0.1 to 3), so neither term limits the accuracy; at R = 0.5 the floor alone
# accepts every head sampled.  The head cut K0 is max(6, 3/R) for radius R.
_REL_TOL = 1e-8
_ABS_FLOOR = 1e-13
_MAX_DOUBLINGS = 12
# 12-point Gauss-Legendre rule on [-1, 1], applied on every head panel
_GL_NODES, _GL_WEIGHTS = leggauss(12)


def _in_causal_contact(d, dt, radius_b, radius_i):
    """Whether emitter i, fired dt before the receiver at distance d, can signal it.

    True iff dt > 0 and |max(d, _R_FLOOR) - dt| < R_B + R_i: outside that
    set the commutator kernel Delta(d, dt) is exactly 0 (its closed form
    returns 0.0; docs/derivations.md section 3).  Broadcasts over arrays.
    """
    d = np.maximum(d, _R_FLOOR)
    return (np.asarray(dt) > 0.0) & (np.abs(d - dt) < radius_b + radius_i)


class QuadratureError(RuntimeError):
    """Raised when a kernel integral cannot reach the requested tolerance."""

    def __init__(self, message: str, achieved: float, requested: float):
        super().__init__(f"{message} (achieved {achieved:.3e}, requested {requested:.3e})")
        self.message = message
        self.achieved = achieved
        self.requested = requested

    def __reduce__(self):  # rebuilt from its own arguments when a worker raises it
        return type(self), (self.message, self.achieved, self.requested)


@dataclass(frozen=True)
class KernelValue:
    """A kernel value with its achieved error estimate."""

    value: float
    error: float


# ----------------------------------------------------------------------
# stable elementary pieces
# ----------------------------------------------------------------------

def _ball_g(u: np.ndarray) -> np.ndarray:
    """(sin u - u cos u)/u^3, series-protected near u = 0 (limit 1/3)."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 5e-2
    us = np.where(small, u, 1.0)
    ub = np.where(small, 1.0, u)
    series = 1.0 / 3.0 - us**2 / 30.0 + us**4 / 840.0 - us**6 / 45360.0
    closed = (np.sin(ub) - ub * np.cos(ub)) / ub**3
    return np.where(small, series, closed)


def _sinc(u: np.ndarray) -> np.ndarray:
    return np.sinc(np.asarray(u, dtype=float) / math.pi)


def _dsinc(u: np.ndarray) -> np.ndarray:
    """d/du [sin u / u], series-protected near u = 0 (odd, ~ -u/3)."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 5e-2
    us = np.where(small, u, 1.0)
    ub = np.where(small, 1.0, u)
    series = -us / 3.0 + us**3 / 30.0 - us**5 / 840.0
    closed = (ub * np.cos(ub) - np.sin(ub)) / ub**2
    return np.where(small, series, closed)


def sphere_form_factor(k, radius: float):
    """Spatial Fourier transform of the unit-height ball of the given radius.

    S(k) = 4 pi (sin kR - kR cos kR)/k^3; continuous at k = 0 with limit
    (4/3) pi R^3 (the ball volume), real for all k >= 0.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("momentum magnitude must be >= 0")
    out = _FOUR_PI * radius**3 * _ball_g(k * radius)
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# Fourier-atom tails
# ----------------------------------------------------------------------
#
# On [K0, inf) each integrand below is *identically* Re[sum_j c_j
# e^{i a_j k}] / k^m after product-to-sum expansion of its trig factors,
# so the tail integral is a finite sum of
#
#   T_m(a, K) = int_K^inf e^{iak} k^-m dk
#
# with T_1 = E1(-iaK) and the upward recursion
# T_{m} = e^{iaK} / ((m-1) K^{m-1}) + ia T_{m-1} / (m-1).

def _expand_trig_product(coeff: float, factors) -> list[tuple[complex, float, complex]]:
    """Expand coeff * prod trig(a_j k) into [(c, a, s)] with the piece = Re sum c e^{iak}.

    Atoms merge at frequencies rounded to 12 decimals; s = sum c_j (a_j - a).
    """
    terms: list[tuple[complex, float]] = [(complex(coeff), 0.0)]
    for kind, a in factors:
        nxt: list[tuple[complex, float]] = []
        for c, f in terms:
            if kind == "cos":
                nxt += [(c / 2.0, f + a), (c / 2.0, f - a)]
            else:
                nxt += [(c / 2.0j, f + a), (-c / 2.0j, f - a)]
        terms = nxt
    merged: dict[float, complex] = {}
    shifts: dict[float, complex] = {}
    for c, f in terms:
        key = round(f, 12)
        merged[key] = merged.get(key, 0.0j) + c
        shifts[key] = shifts.get(key, 0.0j) + c * (f - key)
    return [(c, f, shifts[f]) for f, c in merged.items() if abs(c) > 0.0]


def _tail_T(m: int, a: float, cut: float, exp1) -> tuple[complex, float]:
    """T_m(a, K) and its slope |dT_m/da| = |T_{m-1}(a, K)|, T_0 = -e^{iaK}/(ia).

    exp1 is scipy.special.exp1, passed in by the caller (see _tail_sum).
    """
    z = 1j * a
    if abs(z) * cut < 1e-14:
        if m == 1:
            raise ValueError("divergent zero-frequency tail of power 1")
        # T_1 diverges like log|a| at a = 0: take it at this branch's threshold
        slope = 1.0 / ((m - 2) * cut ** (m - 2)) if m > 2 else abs(exp1(-1e-14j))
        return complex(1.0 / ((m - 1) * cut ** (m - 1))), slope
    t = prev = exp1(-z * cut)
    phase = np.exp(z * cut)  # hoisted: the same factor at every step
    for mm in range(2, m + 1):
        prev, t = t, phase / ((mm - 1) * cut ** (mm - 1)) + z * t / (mm - 1)
    return complex(t), (abs(prev) if m > 1 else 1.0 / abs(a))


def _tail_sum(pieces, cut: float) -> tuple[float, float]:
    """Tail integral and its error bound, the sum of eps |c T_m| + |s dT_m/da|.

    scipy.special is imported here, once per kernel evaluation, so that
    importing the package (and every closed-form path) does not load scipy.
    """
    from scipy.special import exp1

    total, bound, eps = 0.0j, 0.0, float(np.finfo(float).eps)
    for coeff, factors, power in pieces:
        for c, a, shift in _expand_trig_product(coeff, factors):
            if power == 1 and abs(a) < 1e-12:
                # sin-type expansions leave zero coefficient here; anything
                # else would be a genuinely divergent integral.
                if abs(c) > 1e-10 * abs(coeff):
                    raise ValueError("non-vanishing zero-frequency 1/k atom")
                continue
            t, slope = _tail_T(power, a, cut, exp1)
            total += c * t
            bound += eps * abs(c * t) + abs(shift) * slope
    return float(total.real), float(bound)


# ----------------------------------------------------------------------
# head quadrature
# ----------------------------------------------------------------------

def _head_quad(f, cut: float, freq: float) -> tuple[float, float]:
    """Panel-doubled composite Gauss-Legendre on [0, cut]; returns (value, error)."""
    panels = max(4, int(math.ceil(cut * (freq + 1.0) / 3.0)))
    prev = None
    cur = 0.0
    err = math.inf
    for _ in range(_MAX_DOUBLINGS):
        edges = np.linspace(0.0, cut, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        cur = float(f(nodes) @ weights)
        if prev is not None:
            err = abs(cur - prev)
            if err <= _REL_TOL * max(abs(cur), 1.0) + _ABS_FLOOR:
                return cur, err
        prev = cur
        panels *= 2
    raise QuadratureError("head quadrature did not converge", err, _REL_TOL)


# ----------------------------------------------------------------------
# integrand definitions (head callable + tail atoms, valid for k >= K0)
# ----------------------------------------------------------------------

def _variance_parts(radius: float):
    r3 = radius**3

    def head(k):
        return k * (_FOUR_PI * r3 * _ball_g(k * radius)) ** 2

    pieces = [
        (16 * math.pi**2, (("sin", radius), ("sin", radius)), 5),
        (-32 * math.pi**2 * radius, (("sin", radius), ("cos", radius)), 4),
        (16 * math.pi**2 * radius**2, (("cos", radius), ("cos", radius)), 3),
    ]
    return head, pieces, 2 * radius


def _commutator_parts(d: float, dt: float, ra: float, rb: float):
    """k S_a S_b sinc(kd) sin(k dt); two radii supported for mixed detectors."""
    pa, pb = _FOUR_PI * ra**3, _FOUR_PI * rb**3

    def head(k):
        return (k * pa * _ball_g(k * ra) * pb * _ball_g(k * rb)
                * _sinc(k * d) * np.sin(k * dt))

    c0 = 16 * math.pi**2 / d
    pieces = [
        (c0, (("sin", ra), ("sin", rb), ("sin", d), ("sin", dt)), 6),
        (-c0 * rb, (("sin", ra), ("cos", rb), ("sin", d), ("sin", dt)), 5),
        (-c0 * ra, (("cos", ra), ("sin", rb), ("sin", d), ("sin", dt)), 5),
        (c0 * ra * rb, (("cos", ra), ("cos", rb), ("sin", d), ("sin", dt)), 4),
    ]
    return head, pieces, ra + rb + d + abs(dt)


def _radiation_time_parts(r: float, dt: float, radius: float):
    r3 = radius**3

    def head(k):
        return k * k * _FOUR_PI * r3 * _ball_g(k * radius) * _sinc(k * r) * np.cos(k * dt)

    pieces = [
        (_FOUR_PI / r, (("sin", radius), ("sin", r), ("cos", dt)), 2),
        (-_FOUR_PI * radius / r, (("cos", radius), ("sin", r), ("cos", dt)), 1),
    ]
    return head, pieces, radius + r + abs(dt)


def _radiation_radial_parts(r: float, dt: float, radius: float):
    r3 = radius**3

    def head(k):
        return k * k * _FOUR_PI * r3 * _ball_g(k * radius) * _dsinc(k * r) * np.sin(k * dt)

    pieces = [
        (_FOUR_PI / r, (("sin", radius), ("cos", r), ("sin", dt)), 2),
        (-_FOUR_PI / r**2, (("sin", radius), ("sin", r), ("sin", dt)), 3),
        (-_FOUR_PI * radius / r, (("cos", radius), ("cos", r), ("sin", dt)), 1),
        (_FOUR_PI * radius / r**2, (("cos", radius), ("sin", r), ("sin", dt)), 2),
    ]
    return head, pieces, radius + r + abs(dt)


# ----------------------------------------------------------------------
# public kernel set
# ----------------------------------------------------------------------

class KernelSet:
    """Kernel evaluations for one smearing radius; each call runs its quadrature."""

    def __init__(self, radius: float):
        if not 0 < radius < math.inf:
            raise ValueError("smearing radius must be finite and > 0")
        self.radius = float(radius)

    def _evaluate(self, parts, prefactor: float) -> KernelValue:
        """prefactor * (head + Fourier tail), split at K0 = max(6, 3/R)."""
        head_f, pieces, freq = parts
        cut = max(6.0, 3.0 / self.radius)
        head, head_err = _head_quad(head_f, cut, freq)
        tail, tail_err = _tail_sum(pieces, cut)
        value = prefactor * (head + tail)
        error = (max(abs(prefactor) * head_err, 1e-15 * abs(value), 1e-16)
                 + abs(prefactor) * tail_err)
        return KernelValue(value, error)

    # -- kernels --------------------------------------------------------

    def vacuum_variance_value(self) -> KernelValue:
        return self._evaluate(_variance_parts(self.radius), _INV_4PI2)

    def vacuum_variance(self) -> float:
        """Smeared-field vacuum variance; position/time independent, > 0."""
        val = self.vacuum_variance_value()
        if not val.value > 0.0:
            raise QuadratureError("vacuum variance must be positive", val.error, _REL_TOL)
        return val.value

    def commutator_value(self, d: float, dt: float,
                         other_radius: float | None = None) -> KernelValue:
        """Delta(d, dt) and its error; off the support the error covers |value|.

        There the exact kernel is 0 and the quadrature returns only rounding
        noise, which the head-panel estimate does not bound.
        """
        if d < 0:
            raise ValueError("separation distance must be >= 0")
        rb = self.radius if other_radius is None else float(other_radius)
        if dt == 0.0:
            return KernelValue(0.0, 0.0)
        sign = 1.0 if dt > 0 else -1.0
        d_eff = max(d, _R_FLOOR)
        base = self._evaluate(_commutator_parts(d_eff, abs(dt), self.radius, rb),
                              -_INV_2PI2)
        error = base.error
        if abs(d_eff - abs(dt)) >= self.radius + rb:
            error = max(error, abs(base.value))
        return KernelValue(sign * base.value, error)

    def commutator(self, d: float, dt: float, other_radius: float | None = None) -> float:
        """Smeared field commutator kernel Delta(d, dt); odd in dt, causal in d."""
        return self.commutator_value(d, dt, other_radius).value

    def radiation_time_value(self, r: float, dt: float) -> KernelValue:
        self._check_radiation_args(r, dt)
        return self._evaluate(_radiation_time_parts(max(r, _R_FLOOR), dt, self.radius),
                              _INV_4PI2)

    def radiation_radial_value(self, r: float, dt: float) -> KernelValue:
        self._check_radiation_args(r, dt)
        return self._evaluate(_radiation_radial_parts(max(r, _R_FLOOR), dt, self.radius),
                              _INV_4PI2)

    def radiation_time(self, r: float, dt: float) -> float:
        """Time component of the emission kernel (Im of the 0-derivative overlap)."""
        return self.radiation_time_value(r, dt).value

    def radiation_radial(self, r: float, dt: float) -> float:
        """Radial scalar of the spatial emission kernel; caller applies r-hat."""
        return self.radiation_radial_value(r, dt).value

    @staticmethod
    def _check_radiation_args(r: float, dt: float) -> None:
        if r < 0:
            raise ValueError("distance from emitter centre must be >= 0")
        if dt <= 0:
            raise ValueError("radiation kernels require dt > 0; callers gate on the "
                             "switching step function")


# ----------------------------------------------------------------------
# position-space closed forms (the energy density's radiation kernels, and the
# independent cross-check of the quadrature)
# ----------------------------------------------------------------------

# 3-point Gauss-Legendre rule on [-1, 1]; exact for polynomials of degree <= 5
_GL3_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


def closed_form_variance(radius):
    """Vacuum variance nu = R^4 (docs/derivations.md section 2)."""
    return np.asarray(radius, dtype=float) ** 4


def closed_form_commutator(d, dt, radius_a, radius_b):
    """Commutator kernel Delta(d, dt) as a 1-D integral of the two-ball lens volume.

    Delta = -sign(dt)/(2d) int rho V(rho) drho over
    |d - |dt|| <= rho <= min(d + |dt|, S), where V is the overlap volume
    of the two balls at centre distance rho: the lens
    pi (S - rho)^2 (rho^2 + 2 S rho - 3 D^2) / (12 rho) for D <= rho <= S
    (S = Ra + Rb, D = |Ra - Rb|), and the smaller ball's volume below D
    (docs/derivations.md section 3).  rho V is a polynomial of degree <= 4
    on each piece, so one 3-point Gauss-Legendre panel per piece is exact
    and, unlike differencing an antiderivative, keeps its relative
    accuracy as the interval shrinks with d -> 0.  Exactly odd in dt and
    exactly zero outside the support.  d is floored like the quadrature's.
    """
    d = np.maximum(np.asarray(d, dtype=float), _R_FLOOR)
    dt = np.asarray(dt, dtype=float)
    big, small = max(radius_a, radius_b), min(radius_a, radius_b)
    s, dd = big + small, big - small
    ball = _FOUR_PI / 3.0 * small**3
    lo = np.abs(d - np.abs(dt))
    hi = np.minimum(d + np.abs(dt), s)

    def gl3(f, a, b):
        half = 0.5 * np.maximum(b - a, 0.0)
        nodes = (0.5 * (a + b))[..., None] + half[..., None] * _GL3_NODES
        return half * (f(nodes) @ _GL3_WEIGHTS)

    inside = gl3(lambda rho: ball * rho, lo, np.minimum(hi, dd))
    lens = gl3(lambda rho: math.pi / 12.0 * (s - rho) ** 2
               * (rho**2 + 2.0 * s * rho - 3.0 * dd**2), np.maximum(lo, dd), hi)
    return -np.sign(dt) * (inside + lens) / (2.0 * d)


def closed_form_radiation(r, dt, radius):
    """(time, radial) emission kernels from the retarded field of the ball.

    They are half the t- and r-derivatives of psi, the field of the ball
    flashed at dt = 0 (docs/derivations.md section 4): 1/2 and 0 inside
    the ball's light cone (r + dt < R); on the shell |r - dt| < R < r + dt
    (r - dt)/(4r) and -(r - dt)/(4r) - psi/(2r) with
    psi = (R^2 - (r - dt)^2)/(4r); zero elsewhere.  Exactly on
    r - dt = +-R and r + dt = R the values are the jump midpoints, as the
    Fourier integrals give.  Requires r >= 0 and dt > 0; r is floored like
    the quadrature's.  r, dt and radius broadcast (one radius per emitter).
    """
    r = np.asarray(r, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if np.any(r < 0) or np.any(dt <= 0):
        raise ValueError("radiation kernels require r >= 0 and dt > 0")
    r = np.maximum(r, _R_FLOOR)
    u = r - dt
    # heaviside(x, 0.5) gives each region weight 1/2 on its own boundary
    interior = np.heaviside(radius - r - dt, 0.5)
    shell = np.heaviside(radius - np.abs(u), 0.5) * np.heaviside(r + dt - radius, 0.5)
    psi = (radius**2 - u**2) / (4.0 * r)
    time = 0.5 * interior + shell * u / (4.0 * r)
    radial = shell * (-u / (4.0 * r) - psi / (2.0 * r))
    return time, radial
