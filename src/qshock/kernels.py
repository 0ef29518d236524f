"""Radial kernel integrals for uniform-ball smeared detectors of a massless field.

Every field-theoretic quantity in the pipeline reduces to a 1-D momentum
integral over k in [0, inf) built from the ball form factor

    S(k) = 4 pi (sin kR - kR cos kR) / k^3,

namely

    vacuum variance   nu          = (1/4pi^2) int k S(k)^2 dk
    commutator kernel Delta(d,dt) = -(1/2pi^2) int k S(k)^2 sinc(kd) sin(k dt) dk
    radiation kernels (time)      = (1/4pi^2) int k^2 S(k) sinc(kr)  cos(k dt) dk
                      (radial)    = (1/4pi^2) int k^2 S(k) sinc'(kr) sin(k dt) dk

(docs/derivations.md records how the 3-D mode integrals collapse to these
forms).  The radiation integrands decay only like 1/k with oscillation,
so each integral is split at a cut K0: the head [0, K0] is integrated
with panel-doubled Gauss-Legendre rules on the cancellation-free
combined integrand, and on the tail the integrand is *identically* a
finite sum of Fourier atoms trig(a k)/k^m, whose tails have closed forms
through the complex exponential integral.  The only truncation error is
the head-panel estimate.

Each kernel also has an exact closed form in position space (the ball's
retarded field, the two-ball overlap volume, nu = R^4), kept alongside
as array functions.  The energy density evaluates the radiation kernels
through theirs; the quadrature serves the commutator and nu, and the
tests and the closed_form column of `qshock kernels` compare the two.

The commutator of balls with radii R_B and R_i vanishes exactly unless
|d - |dt|| < R_B + R_i (the strong Huygens principle); _in_causal_contact
states that support and the time ordering dt > 0, and capacity
observables run the commutator quadrature only inside it.  Off the
support the quadrature returns rounding noise instead of 0, and its
reported error then covers that noise.

Every quadrature runs at one fixed setting.  KernelSet(radius), the one
entry point, integrates arrays of arguments as one batch, with the
operations, in the order, of each argument alone: every value is a pure
function of its own arguments, bit for bit, whatever was evaluated
before or with it.  What arguments share is formed once: per panel rule,
its nodes and weights and the ball factors (k S_a S_b per distinct radius
R_b; k S^2, k^2 S); per rule and distinct dt, sin(k dt) or cos(k dt), when
the rule has at least as many arguments as the batch has distinct dt and
the table fits a block; per argument, sinc(kd) or sinc'(kr) and the
products, in the order one argument alone takes them.  A tail block
evaluates E1 once per distinct |frequency|, conjugated for negative ones.
A head rule of more than _MAX_NODES nodes is refused before it is built
or a radius power is taken.  scipy.special (exp1) is imported inside
_tail_sum, so the closed forms and the import of this module do not load
scipy.
"""

from __future__ import annotations

import functools
import itertools
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
# A batch of arguments is worked through in blocks whose (arguments x nodes)
# and (arguments x terms) arrays hold at most this many elements, which
# bounds the working memory of a large batch.
_BLOCK = 1 << 14
# A head rule of more nodes than this is refused: twice the 516096 of the twelfth
# rule of a head made never to converge (converging heads use at most 1440).
_MAX_NODES = 1 << 20
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


@dataclass(frozen=True)
class KernelValue:
    """A kernel value with its achieved error estimate (arrays for array arguments)."""

    value: float | np.ndarray
    error: float | np.ndarray


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
    """sin(u)/u, in place on the fresh float array u, with np.sinc(u/pi)'s bits and zero guard."""
    u /= math.pi
    u *= math.pi
    u[u == 0.0] = np.finfo(float).eps
    out = np.sin(u)
    out /= u
    return out


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
# T_{m} = e^{iaK} / ((m-1) K^{m-1}) + ia T_{m-1} / (m-1).  The pieces of a
# kernel share their factors' frequencies (only sin/cos differ), hence the
# atoms and T_m.  Every atom coefficient is purely real or imaginary, so
# numpy's fused complex products round as Python's do.

def _pow(x: np.ndarray, n: int) -> np.ndarray:
    """x**n elementwise by Python's float power; numpy's power differs in the last bit."""
    return np.array([v ** n for v in x.tolist()])


@functools.cache
def _expansion(kinds: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sign table (terms, factors) and exact factor of each term of a trig product.

    Each factor ("s" sin, "c" cos) splits every term into its f + a and
    f - a branch, in that order, times 1/2 (cos) or +-1/(2i) (sin).
    """
    units = [1.0 + 0.0j]
    for kind in kinds:
        units = [u for c in units
                 for u in ((c / 2.0, c / 2.0) if kind == "c" else (c / 2.0j, -c / 2.0j))]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(kinds))))
    units = np.array(units)
    signs.flags.writeable = units.flags.writeable = False
    return signs, units


def _round12(f: np.ndarray) -> np.ndarray:
    """round(f, 12) elementwise, bit for bit.

    Below 2**45, f * 1e12 is within 2**-9 of the exact product, so away from
    a half rint picks the N that round picks, and N / 1e12 is its double.
    """
    scaled = f * 1e12
    keys = np.rint(scaled) / 1e12
    near = (np.abs(scaled - np.floor(scaled) - 0.5) < 1e-2) | (np.abs(scaled) >= 2.0**45)
    keys[near] = [round(v, 12) for v in f[near].tolist()]
    return keys


def _tail_T(a: np.ndarray, cut: float, powers, exp1) -> dict:
    """{m: (T_m(a, K), |dT_m/da| = |T_{m-1}|)} for m in powers, from one recursion.

    T_0 = -e^{iaK}/(ia).  At a = 0, T_m = 1/((m-1) K^{m-1}) for m >= 2; T_1
    diverges like log|a| there, so T_2's slope |T_1| is taken at aK = 1e-14.
    """
    zero = np.abs(a) * cut < 1e-14
    a = np.where(zero, 1.0, a)
    # E1 once per distinct |a|: E1(conj z) = conj E1(z) bit for bit gives a < 0
    size, at_size = np.unique(np.abs(a), return_inverse=True)
    e1 = exp1(-1j * (size * cut))[at_size]
    terms = [None, np.where(a < 0, e1.conj(), e1)]
    phase = np.exp(1j * (a * cut))  # the same factor at every step
    for mm in range(2, max(powers) + 1):
        terms.append(phase / ((mm - 1) * cut ** (mm - 1)) + 1j * a * terms[-1] / (mm - 1))
    out = {1: (terms[1], 1.0 / np.abs(a))}
    for m in set(powers) - {1}:
        slope = 1.0 / ((m - 2) * cut ** (m - 2)) if m > 2 else abs(exp1(-1e-14j))
        out[m] = (np.where(zero, 1.0 / ((m - 1) * cut ** (m - 1)), terms[m]),
                  np.where(zero, slope, np.hypot(terms[m - 1].real, terms[m - 1].imag)))
    return out


def _tail_sum(freqs, pieces, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Tail integral and its error bound per argument, the sum of eps |c T_m| + |s dT_m/da|.

    freqs are the factors' frequencies, one array (arguments,) each; pieces
    are (coeff (arguments,), kinds, power).  Terms merge into atoms at
    frequencies rounded to 12 decimals, each at its first term;
    s = sum c_j (a_j - a).  scipy.special is imported here, not on import.
    """
    from scipy.special import exp1

    f = 0.0
    for a, signs in zip(freqs, _expansion(pieces[0][1])[0].T):  # factor by factor
        f = f + a[:, None] * signs
    keys = _round12(f)
    offsets = f - keys
    first = np.argmax(keys[:, :, None] == keys[:, None, :], axis=1)  # of each frequency
    lead = first == np.arange(f.shape[1])
    repeats = [(t, np.flatnonzero(~lead[:, t])) for t in np.flatnonzero(~lead.all(axis=0))]
    tails = _tail_T(keys[lead], cut, {p for *_, p in pieces}, exp1)
    values, errors = [np.zeros((len(f), 1))], [np.zeros((len(f), 1))]
    for coeff, kinds, power in pieces:
        parts = coeff[:, None] * _expansion(kinds)[1]
        shifts = parts * offsets
        c, s = np.where(lead, parts, 0.0), np.where(lead, shifts, 0.0)
        for t, rows in repeats:  # into the atom of the first term, in term order
            c[rows, first[rows, t]] += parts[rows, t]
            s[rows, first[rows, t]] += shifts[rows, t]
        keep = lead & (c != 0.0)
        if power == 1:
            # sin-type expansions leave zero coefficient at zero frequency;
            # anything else would be a genuinely divergent integral
            at_zero = keep & (np.abs(keys) < 1e-12)
            if np.any(at_zero & (np.abs(c) > 1e-10 * np.abs(coeff)[:, None])):
                raise ValueError("non-vanishing zero-frequency 1/k atom")
            keep &= ~at_zero
        t_m, slope = np.zeros(f.shape, dtype=complex), np.zeros(f.shape)
        t_m[lead], slope[lead] = tails[power]
        atom = c * t_m
        values.append(np.where(keep, atom.real, 0.0))
        errors.append(np.where(keep, np.finfo(float).eps * np.hypot(atom.real, atom.imag)
                               + np.hypot(s.real, s.imag) * slope, 0.0))
    # running sums from 0 over the atoms in order, as one argument alone adds
    # them; take copies the last column, so the block's sums can be freed
    return tuple(np.add.accumulate(np.hstack(v), axis=1).take(-1, axis=1)
                 for v in (values, errors))


# ----------------------------------------------------------------------
# head quadrature
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _panel_rule(cut: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the 12-point rule on `panels` panels of [0, cut]."""
    edges = np.linspace(0.0, cut, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _head_quad(head, cut: float, freqs) -> tuple[np.ndarray, np.ndarray]:
    """Panel-doubled composite Gauss-Legendre on [0, cut] per argument; (value, error).

    head(k, rows) forms what the arguments `rows` share at a rule's nodes k
    and returns the integrand of any `sub` of them, shape (sub, nodes).
    Arguments with the same panel count share each rule; each row is reduced
    by its own dot product, and doubles until it converges.  A rule of more
    than _MAX_NODES nodes raises QuadratureError before it is built.
    """
    with np.errstate(over="ignore"):  # an infinite count fails the bound below
        panels = np.maximum(4.0, np.ceil(cut * (sum(freqs) + 1.0) / 3.0))
    value, error, cur = np.empty(panels.shape), np.empty(panels.shape), np.empty(panels.shape)
    pending, prev, err = np.arange(panels.size), None, np.full(panels.shape, math.inf)
    for _ in range(_MAX_DOUBLINGS):
        need = panels[pending].max(initial=0.0) * _GL_NODES.size
        if not need <= _MAX_NODES:
            raise QuadratureError(f"head quadrature needs {need:.3g} nodes, above the bound "
                                  f"of {_MAX_NODES}", float(err.max()), _REL_TOL)
        for count in sorted(set(panels[pending].astype(int).tolist())):
            rows = pending[panels[pending] == count]
            nodes, weights = _panel_rule(cut, count)
            at, step = head(nodes, rows), max(1, _BLOCK // nodes.size)
            cur[rows] = [row @ weights for i in range(0, rows.size, step)
                         for row in at(rows[i:i + step])]
        if prev is not None:
            err = np.abs(cur[pending] - prev)
            done = err <= _REL_TOL * np.maximum(np.abs(cur[pending]), 1.0) + _ABS_FLOOR
            value[pending[done]], error[pending[done]] = cur[pending[done]], err[done]
            pending, err = pending[~done], err[~done]
            if not pending.size:
                return value, error
        prev = cur[pending]
        panels[pending] *= 2
    raise QuadratureError("head quadrature did not converge", float(err[0]), _REL_TOL)


# ----------------------------------------------------------------------
# integrands over 1-D arrays of arguments: head, tail frequencies, pieces;
# radius powers wait for head and pieces(), after the rule-size check
# ----------------------------------------------------------------------

def _variance_parts(radius: float):
    one = np.ones(1)

    def head(k, rows):
        values = k * (_FOUR_PI * radius**3 * _ball_g(k * radius)) ** 2
        return lambda sub: values[None].repeat(sub.size, axis=0)

    return head, (radius * one, radius * one), lambda: [
        (16 * math.pi**2 * one, "ss", 5), (-32 * math.pi**2 * radius * one, "sc", 4),
        (16 * math.pi**2 * radius**2 * one, "cc", 3)]


def _of_distinct(trig, k, rows, distinct, at):
    """sub -> trig(k x) of the arguments sub of rows, x = distinct[at[sub]]: one node
    row per distinct x if they are no more than the rows and fit a block, else per row."""
    if distinct.size <= min(rows.size, _BLOCK // k.size):
        table = trig(k * distinct[:, None])
        return lambda sub: table[at[sub]]
    return lambda sub: trig(k * distinct[at[sub], None])


def _commutator_parts(d, dt, ra: float, rb):
    """k S_a S_b sinc(kd) sin(k dt), dt > 0; per-argument radii rb for mixed detectors."""
    radii, at_radius = np.unique(rb, return_inverse=True)
    times = np.unique(dt, return_inverse=True)

    def head(k, rows):
        # k S_a S_b per distinct radius, times sinc(kd), times sin(k dt)
        pair = (k * (_FOUR_PI * ra**3) * _ball_g(k * ra)
                * (_FOUR_PI * _pow(radii, 3))[:, None] * _ball_g(k * radii[:, None]))
        sines = _of_distinct(np.sin, k, rows, *times)
        return lambda sub: _sinc(k * d[sub, None]) * pair[at_radius[sub]] * sines(sub)

    def pieces():
        c0 = 16 * math.pi**2 / d
        return [(c0, "ssss", 6), (-c0 * rb, "scss", 5), (-c0 * ra, "csss", 5),
                (c0 * ra * rb, "ccss", 4)]
    return head, (np.full(d.shape, ra), rb, d, dt), pieces


def _radiation_parts(r, dt, radius: float, radial: bool):
    """k^2 S sinc(kr) cos(k dt) (time) or k^2 S sinc'(kr) sin(k dt) (radial), dt > 0."""
    of_r, of_dt = (_dsinc, np.sin) if radial else (_sinc, np.cos)
    times = np.unique(dt, return_inverse=True)

    def head(k, rows):
        ball = k * k * _FOUR_PI * radius**3 * _ball_g(k * radius)
        trig = _of_distinct(of_dt, k, rows, *times)
        return lambda sub: of_r(k * r[sub, None]) * ball * trig(sub)

    def pieces():
        r2 = _pow(r, 2)
        return ([(_FOUR_PI / r, "scs", 2), (-_FOUR_PI / r2, "sss", 3),
                 (-_FOUR_PI * radius / r, "ccs", 1), (_FOUR_PI * radius / r2, "css", 2)]
                if radial else [(_FOUR_PI / r, "ssc", 2), (-_FOUR_PI * radius / r, "csc", 1)])
    return head, (np.full(r.shape, radius), r, dt), pieces


# ----------------------------------------------------------------------
# public kernel set
# ----------------------------------------------------------------------

def _arguments(*values) -> tuple[tuple, list[np.ndarray]]:
    """The broadcast shape of the arguments and each of them flattened to 1-D."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    return arrays[0].shape, [a.ravel() for a in arrays]


def _kernel_value(shape: tuple, value: np.ndarray, error: np.ndarray) -> KernelValue:
    """Floats for scalar arguments, else arrays of their broadcast shape."""
    return KernelValue(*(float(v[0]) if shape == () else v.reshape(shape)
                         for v in (value, error)))


class KernelSet:
    """Kernel evaluations for one smearing radius; each call runs its quadrature.

    Arrays of arguments are integrated as one batch; scalars give floats.
    """

    def __init__(self, radius: float):
        if not 0 < radius < math.inf:
            raise ValueError("smearing radius must be finite and > 0")
        self.radius = float(radius)

    def _evaluate(self, parts, prefactor: float) -> tuple[np.ndarray, np.ndarray]:
        """prefactor * (head + Fourier tail) per argument, split at K0 = max(6, 3/R).

        A head starts from max(4, ceil(K0 (F + 1)/3)) panels, F the sum of its
        frequencies; a tail block, with a dozen arrays live, holds _BLOCK / 8 terms.
        """
        head_f, freqs, pieces = parts
        cut = max(6.0, 3.0 / self.radius)
        head, head_err = _head_quad(head_f, cut, freqs)
        pieces, step = pieces(), max(1, _BLOCK >> (len(freqs) + 3))
        tail, tail_err = (np.concatenate(column) for column in zip(*(
            _tail_sum([a[i:i + step] for a in freqs],
                      [(c[i:i + step], kinds, p) for c, kinds, p in pieces], cut)
            for i in range(0, max(len(freqs[0]), 1), step))))
        value, scale = prefactor * (head + tail), abs(prefactor)
        floor = np.maximum(1e-15 * np.abs(value), 1e-16)
        return value, np.maximum(scale * head_err, floor) + scale * tail_err

    def vacuum_variance_value(self) -> KernelValue:
        return _kernel_value((), *self._evaluate(_variance_parts(self.radius), _INV_4PI2))

    def vacuum_variance(self) -> float:
        """Smeared-field vacuum variance; position/time independent, > 0."""
        val = self.vacuum_variance_value()
        if not val.value > 0.0:
            raise QuadratureError("vacuum variance must be positive", val.error, _REL_TOL)
        return val.value

    def commutator_value(self, d, dt, other_radius=None) -> KernelValue:
        """Delta(d, dt) and its error; off the support the error covers |value|.

        d, dt and other_radius (the second ball's radius, default this one's)
        broadcast; dt = 0 gives exactly 0 without a quadrature.  Off the
        support the exact kernel is 0 and the quadrature returns rounding
        noise, which the head-panel estimate does not bound.
        """
        shape, (d, dt, rb) = _arguments(d, dt, self.radius if other_radius is None
                                        else other_radius)
        if np.any(d < 0):
            raise ValueError("separation distance must be >= 0")
        value, error = np.zeros(d.shape), np.zeros(d.shape)
        live = dt != 0.0
        if live.any():
            d_eff, dt_abs, rb = np.maximum(d[live], _R_FLOOR), np.abs(dt[live]), rb[live]
            base, err = self._evaluate(_commutator_parts(d_eff, dt_abs, self.radius, rb),
                                       -_INV_2PI2)
            off = ~_in_causal_contact(d_eff, dt_abs, self.radius, rb)
            value[live] = np.where(dt[live] > 0, 1.0, -1.0) * base
            error[live] = np.where(off, np.maximum(err, np.abs(base)), err)
        return _kernel_value(shape, value, error)

    def commutator(self, d, dt, other_radius=None):
        """Smeared field commutator kernel Delta(d, dt); odd in dt, causal in d."""
        return self.commutator_value(d, dt, other_radius).value

    def radiation_time(self, r, dt):
        """Time component of the emission kernel (Im of the 0-derivative overlap)."""
        return self.radiation_time_value(r, dt).value

    def radiation_radial(self, r, dt):
        """Radial scalar of the spatial emission kernel; caller applies r-hat."""
        return self.radiation_radial_value(r, dt).value

    def _radiation_value(self, r, dt, radial: bool) -> KernelValue:
        """The radial (radial=True) or time emission kernel and its error."""
        shape, (r, dt) = _arguments(r, dt)
        if np.any(r < 0):
            raise ValueError("distance from emitter centre must be >= 0")
        if np.any(dt <= 0):
            raise ValueError("radiation kernels require dt > 0; callers gate on the "
                             "switching step function")
        return _kernel_value(shape, *self._evaluate(
            _radiation_parts(np.maximum(r, _R_FLOOR), dt, self.radius, radial), _INV_4PI2))

    radiation_time_value = functools.partialmethod(_radiation_value, radial=False)
    radiation_radial_value = functools.partialmethod(_radiation_value, radial=True)


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
