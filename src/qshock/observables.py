"""Physical outputs: energy density, receiver excitation probability, capacity.

With delta switching the evolution is a product of conditional
displacements and everything reduces exactly (no perturbative step) to
the kernel integrals plus emitter-register algebra:

  * excitation probability of the receiver, initially in its ground
    state, after the emitters did (couple=True) or did not (couple=False)
    fire:

        p = (1/2) [1 - C1 * E],
        C1 = exp(-2 lambda_B^2 nu),
        E  = Re < prod_i (cos g_i + i mu_i sin g_i) >,
        g_i = 2 lambda_B lambda_i Theta(t_B - t_i) Delta(|x_i - x_B|, t_B - t_i);

    with couple=False all g_i = 0, E = 1 and p = q = (1 - C1)/2 -- the
    receiver's own vacuum noise.  The receiver gap drops out exactly.

  * normal-ordered energy density of the emitted field,

        T00(x, t) = sum_j [ sum_i 4 lambda_i^2 Theta_i (Im A_{i,j})^2
                    + 8 sum_{i<l} lambda_i lambda_l Theta_i Theta_l
                        <mu_i mu_l> Im A_{i,j} Im A_{l,j} ],

    where Im A_{i,0} / Im A_{i,radial} are the radiation kernels and the
    spatial j-sum contracts the radial scalars with unit separation
    vectors -- one quadratic form over arrays of points;

  * the capacity of the binary channel in which "1" = all emitters fire
    and "0" = none do, from the excitation probabilities (p, q).

Each observable splits into its geometry, the kernel values at the
receivers or the points (_receiver_kernels, _emission_kernels), and its
algebra over the emitter register, written once: _channel forms C1, q,
the angles g and p(state) from nu and the Delta rows, _energy forms
4 lambda lambda^T and T00(state) from the kernel rows of the fired
emitters (_fired, t - t_i > 0).  _receiver_channel and _energy_at are the
kernels followed by these two; every entry point here and in the mapper
calls one of them, and the truncated-Fock oracle runs the same two on
its mode-sum kernels.  _receiver_kernels integrates nu once, first, and
then the distinct commutator arguments of all its receivers as one
batch.  nu and Delta come from the kernel quadrature, the radiation
kernels from their closed form (docs/derivations.md).

A receiver that no emitter is in causal contact with (time-ordered and
inside the commutator's support, kernels._in_causal_contact) gets every
Delta_i = 0 exactly without any quadrature, and then p = q bit for bit:
the register algebra is skipped (E = 1) and the capacity is exactly 0.
A receiver that has not coupled by the evaluation time is a null
channel, nu = 0 and every Delta_i = 0, so q = 0 and no cell signals.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .emitters import pair_correlation, product_expectation
from .kernels import KernelSet, _in_causal_contact, closed_form_radiation
from .scenario import Scenario, ValidationError

__all__ = [
    "ChannelPoint",
    "ReceiverNotCoupledWarning",
    "excitation_probability",
    "energy_density",
    "channel_capacity",
    "channel_point",
    "binary_entropy",
]

_PROB_DUST = 1e-12


class ReceiverNotCoupledWarning(RuntimeWarning):
    """The evaluation time precedes the receiver's coupling instant."""


@dataclass(frozen=True)
class ChannelPoint:
    """Excitation probabilities p (emitters fired) and q (they did not)."""

    p: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "p", _clamp_probability(self.p, "p"))
        object.__setattr__(self, "q", _clamp_probability(self.q, "q"))


def _clamp_probability(value: float, name: str) -> float:
    value = float(value)
    if not -_PROB_DUST <= value <= 1.0 + _PROB_DUST:
        raise ValueError(f"{name} = {value!r} is not a probability; this signals a "
                         "kernel bug rather than rounding dust")
    return min(max(value, 0.0), 1.0)


# -- receiver channel: geometry (kernel calls), then algebra -------------

def _receiver_kernels(scenario: Scenario, positions=None):
    """nu, the gated Delta (receivers, n) and the contact mask (receivers, n).

    positions (receivers, 3) default to the scenario's receiver; the
    receiver's coupling and timing hold at each of them.  mask[r, i] says
    whether emitter i is in causal contact with receiver r
    (kernels._in_causal_contact).  Delta[r, i] = Delta(|x_i - x_r|, t_B - t_i)
    at a receiver in contact with at least one emitter, for every emitter
    that fired before t_B (an off-support one's as rounding noise); every
    other Delta is exactly 0.  The distinct (d, dt, R_i), by exact
    equality, go to the quadrature as one batch.  When the evaluation time
    does not exceed the receiver's coupling instant, a
    ReceiverNotCoupledWarning and the null channel's nu = 0, every
    Delta = 0 and no contact, without any quadrature.
    """
    rec = scenario.receiver
    where = np.reshape(rec.position if positions is None else positions, (-1, 3))
    if scenario.evaluation_time <= rec.coupling_time:
        warnings.warn(f"evaluation_time {scenario.evaluation_time!r} does not exceed the "
                      f"receiver's time {rec.coupling_time!r}: the receiver has not coupled, "
                      "so its excitation probability and capacity are 0",
                      ReceiverNotCoupledWarning, stacklevel=_outside_package())
        silent = np.zeros((len(where), scenario.n_emitters))
        return 0.0, silent, silent != 0.0
    emitters = scenario.emitters
    offsets = where[:, None, :] - np.array([e.position for e in emitters]).reshape(-1, 3)
    ds = np.linalg.norm(offsets, axis=-1)
    dts = rec.coupling_time - np.array([e.coupling_time for e in emitters])
    radii = np.array([e.smearing_radius for e in emitters])
    contact = _in_causal_contact(ds, dts, rec.smearing_radius, radii)
    rows, cols = np.nonzero(contact.any(axis=-1)[:, None] & (dts > 0.0))
    ks, deltas = KernelSet(rec.smearing_radius), np.zeros(ds.shape)
    nu = ks.vacuum_variance()  # first: a radius its rule refuses fails before any Delta
    if rows.size:
        args = np.column_stack((ds[rows, cols], dts[cols], radii[cols]))
        distinct, inverse = np.unique(args, axis=0, return_inverse=True)
        deltas[rows, cols] = ks.commutator(*distinct.T)[inverse.reshape(-1)]
    return nu, deltas, contact


def _outside_package() -> int:
    """The stacklevel of the innermost calling frame outside this package."""
    frame, level = sys._getframe(1), 1
    while frame.f_back and frame.f_globals.get("__name__", "").startswith(__package__ + "."):
        frame, level = frame.f_back, level + 1
    return level


class _ReceiverChannel(NamedTuple):
    """q per coupling; p of the signalling receivers as a function of the emitter state."""

    q: np.ndarray                   # (couplings,): the noise (1 - C1)/2
    p: Callable[..., np.ndarray]    # state -> (signalling receivers, couplings)
    signal: np.ndarray              # (receivers,): whether some Delta_i != 0
    contact: np.ndarray | None = None  # (receivers, n): _receiver_kernels' mask

    def point(self, state) -> ChannelPoint:
        """(p, q) of the first receiver at the first coupling."""
        q = self.q[0]
        return ChannelPoint(self.p(state)[0, 0] if self.signal[0] else q, q)


def _receiver_channel(scenario: Scenario, positions=None, couplings=None):
    """The receiver channel at positions (receivers, 3): _receiver_kernels, then _channel.

    Positions default to the scenario's receiver, couplings to its
    coupling; the channel carries the kernels' contact mask.
    """
    nu, deltas, contact = _receiver_kernels(scenario, positions)
    return _channel(scenario, nu, deltas, couplings)._replace(contact=contact)


def _channel(scenario: Scenario, nu: float, deltas, couplings=None) -> _ReceiverChannel:
    """The channel of receivers with vacuum variance nu and Delta rows deltas (receivers, n).

    Couplings default to the scenario receiver's.  C1 = exp(-2 lambda_B^2 nu),
    q = (1 - C1)/2 and the angles g_i = 2 lambda_B lambda_i Delta_i
    (multiplied left to right) are formed here; p(state) = (1 - C1 E)/2
    with E = product_expectation(state, g) for the receivers with some
    Delta_i != 0 (channel.signal), and every other receiver keeps p = q
    exactly without any algebra.  Not clamped to [0, 1].
    """
    lam_b = np.asarray([scenario.receiver.coupling_strength] if couplings is None
                       else couplings, dtype=float)
    c1 = np.array([_vacuum_factor(lb, nu) for lb in lam_b])
    q = 0.5 * (1.0 - c1)
    signal = deltas.any(axis=-1)
    # where C1 = 0, p = q = 1/2 whatever E is: those couplings get zero angles,
    # so no algebra runs at angles that may be infinite
    g = (2.0 * np.where(c1 > 0.0, lam_b, 0.0)[:, None]
         * np.array([e.coupling_strength for e in scenario.emitters]) * deltas[signal, None, :])
    phases = scenario.monopole_phases
    return _ReceiverChannel(
        q, lambda state: 0.5 * (1.0 - c1 * product_expectation(state, g, phases)), signal)


def _vacuum_factor(lam_b: float, nu: float) -> float:
    """C1 = exp(-2 lambda_B^2 nu): 0 where lambda_B^2 overflows, 1 at nu = 0."""
    try:
        return math.exp(-2.0 * float(lam_b)**2 * nu)
    except OverflowError:
        return 0.0 if nu else 1.0


def excitation_probability(scenario: Scenario, couple: bool) -> float:
    """Probability that the receiver ends excited at the evaluation time.

    couple=False encodes the emitters staying silent, which leaves only
    the receiver's own vacuum noise q = (1 - C1)/2: that needs nu alone,
    so the channel is asked for no receiver position and runs no
    commutator quadrature.
    """
    if couple:
        return channel_point(scenario).p
    return _clamp_probability(_receiver_channel(scenario, np.empty((0, 3))).q[0],
                              "excitation probability")


# -- energy density: geometry (closed-form kernels), then algebra ---------

def _fired(scenario: Scenario, t: float) -> list[int]:
    """Indices of the emitters that source the field at t: t - t_i > 0 and lambda_i != 0."""
    return [i for i, e in enumerate(scenario.emitters)
            if float(t) - e.coupling_time > 0 and e.coupling_strength != 0.0]


def _emission_kernels(scenario: Scenario, x, t: float) -> tuple[list[int], np.ndarray]:
    """The emitters _fired by t and their kernels K (..., m, 4).

    Each row of K is a time kernel and a radial kernel times r-hat at x (..., 3).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ValueError("observation points must have shape (..., 3)")
    active = _fired(scenario, t)
    fired = [scenario.emitters[i] for i in active]
    offset = x[..., None, :] - np.array([e.position for e in fired]).reshape(-1, 3)
    r = np.linalg.norm(offset, axis=-1)
    k_time, k_rad = closed_form_radiation(
        r, float(t) - np.array([e.coupling_time for e in fired]),
        np.array([e.smearing_radius for e in fired]))
    rhat = np.divide(offset, r[..., None], out=np.zeros_like(offset),
                     where=r[..., None] > 1e-12)
    return active, np.concatenate([k_time[..., None], k_rad[..., None] * rhat], axis=-1)


def _energy_at(scenario: Scenario, x, t: float):
    """T00 at points x (..., 3) and time t: _emission_kernels, then _energy."""
    return _energy(scenario, *_emission_kernels(scenario, x, t))


def _energy(scenario: Scenario, active: list[int], kernels):
    """T00 as a function of the emitter state, from the kernel rows (..., m, 4) of `active`.

    Each call applies the strengths of the fired emitters `active` to their
    block of pair_correlation(state): T00 = sum_j K_aj M_ab K_bj with
    M = 4 lambda lambda^T (.) C.  A (B, 2^n) stack of pure states gives one
    T00 per row, each from its own quadratic form.  Where 4 lambda lambda^T
    or T00 is not finite, the ValidationError names the lambda of the
    strongest fired emitter.
    """
    lam = np.array([scenario.emitters[i].coupling_strength for i in active])
    with np.errstate(over="ignore"):
        weights = 4.0 * np.outer(lam, lam)
    if not np.isfinite(weights).all():
        raise _energy_overflow(active, lam)
    rows, cols = np.ix_(active, active)
    phases = scenario.monopole_phases

    def t00(state):
        corr = pair_correlation(state, phases)[..., rows, cols]
        with np.errstate(over="ignore", invalid="ignore"):
            total = (_t00(kernels, weights * corr) if corr.ndim == 2
                     else np.array([_t00(kernels, weights * c) for c in corr]))
        if not np.isfinite(total).all():
            raise _energy_overflow(active, lam)
        return total

    return t00


def _energy_overflow(active: list[int], lam: np.ndarray) -> ValidationError:
    k = active[int(np.argmax(lam))]
    return ValidationError(f"emitters[{k}].lambda",
                           f"{float(lam.max())!r} overflows the energy density "
                           "(4 lambda_i lambda_l or T00 is not finite)")


def energy_density(scenario: Scenario, x, t: float):
    """Normal-ordered energy density of the emitted field at points x (..., 3), time t.

    A float for one point, else an array of shape x.shape[:-1].  Emitters
    that have not fired by t are gated out; the receiver is a passive
    probe and does not source this observable.
    """
    total = _energy_at(scenario, x, t)(scenario.emitter_state)
    return float(total) if total.ndim == 0 else total


def _t00(kernels, weights):
    """sum_j K_aj M_ab K_bj for kernels K (..., m, 4) and weights M (m, m)."""
    return np.einsum("...aj,ab,...bj->...", kernels, weights, kernels)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with the endpoint limits 0.

    Once 1 - x rounds to 1 (x below about 2^-54) the second term is
    (1-x) log1p(-x) / ln 2, about x / ln 2, which log2(1 - x) would drop.
    """
    if x <= 0.0 or x >= 1.0:
        return 0.0
    if 1.0 - x == 1.0:
        return -x * math.log2(x) - math.log1p(-x) / math.log(2.0)
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def channel_capacity(point: ChannelPoint | None = None, *,
                     p: float | None = None, q: float | None = None) -> float:
    """Capacity in bits of the binary channel with hit probabilities (p, q).

    Input 1 excites the receiver with probability p, input 0 with
    probability q.  Zero iff p = q; the boundary limits (p or q in
    {0, 1}, p -> q) are taken explicitly.  Symmetric under relabelling
    inputs (p <-> q) and outputs (p, q) -> (1-p, 1-q).
    """
    if point is not None:
        p, q = point.p, point.q
    if p is None or q is None:
        raise ValueError("channel_capacity needs a ChannelPoint or both p and q")
    p = _clamp_probability(p, "p")
    q = _clamp_probability(q, "q")
    delta = p - q
    if delta == 0.0:
        return 0.0
    mean = 0.5 * (p + q)
    var = mean * (1.0 - mean)
    # near-useless channel: the closed form cancels catastrophically, so use
    # the quadratic limit C ~ (p-q)^2 / (8 ln2 pbar(1-pbar)) instead
    if abs(delta) <= 3e-5 * math.sqrt(var) and abs(delta) <= 1e-2 * var:
        return delta * delta / (8.0 * math.log(2.0) * var)
    hp, hq = binary_entropy(p), binary_entropy(q)
    s = (hp - hq) / (q - p)
    # log2(1 + 2^s) without overflow for |s| beyond float range
    if s > 50.0:
        log_term = s + math.log1p(2.0 ** (-s)) / math.log(2.0)
    elif s < -50.0:
        log_term = math.log1p(2.0**s) / math.log(2.0)
    else:
        log_term = math.log2(1.0 + 2.0**s)
    capacity = (-q * hp + p * hq) / (q - p) + log_term
    if capacity < 0.0:
        # rounding noise of the cancelling closed form near p = q
        if capacity < -1e-9:
            raise FloatingPointError(f"capacity {capacity!r} went negative")
        capacity = 0.0
    return min(capacity, 1.0)


def channel_point(scenario: Scenario) -> ChannelPoint:
    """Evaluate (p, q) for the scenario's receiver in place, from one set of kernels."""
    return _receiver_channel(scenario).point(scenario.emitter_state)
