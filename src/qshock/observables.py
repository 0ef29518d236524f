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
algebra over the emitter register.  One factory per observable evaluates
the geometry once and returns the algebra as a function of the emitter
state: _receiver_channel forms C1, q, the angles g and p for any batch
of receivers and couplings, _energy_at forms T00 at any array of points.
Every entry point here and in the mapper calls one of them.
_receiver_kernels integrates nu once, first, and then the distinct
commutator arguments of all its receivers as one batch.  nu and Delta
come from the kernel quadrature, the radiation kernels from their closed
form (docs/derivations.md).

A receiver that no emitter is in causal contact with (time-ordered and
inside the commutator's support, kernels._in_causal_contact) gets every
Delta_i = 0 exactly without any quadrature, and then p = q bit for bit:
the register algebra is skipped (E = 1) and the capacity is exactly 0.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .emitters import MonopolePhase, _angles, pair_correlation, product_expectation
from .kernels import KernelSet, _in_causal_contact, closed_form_radiation
from .scenario import Scenario, ValidationError

__all__ = [
    "ChannelPoint",
    "ReceiverNotCoupledWarning",
    "excitation_probability",
    "energy_density",
    "energy_quadratic_form",
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
    equality, go to the quadrature as one batch.  None, with a
    ReceiverNotCoupledWarning, when the evaluation time does not exceed
    the receiver's coupling instant: the probability is then 0.
    """
    rec = scenario.receiver
    if scenario.evaluation_time <= rec.coupling_time:
        warnings.warn(f"evaluation_time {scenario.evaluation_time!r} does not exceed the "
                      f"receiver's time {rec.coupling_time!r}: the receiver has not coupled, "
                      "so its excitation probability and capacity are 0",
                      ReceiverNotCoupledWarning, stacklevel=_outside_package())
        return None
    emitters = scenario.emitters
    where = np.reshape(rec.position if positions is None else positions, (-1, 3))
    offsets = where[:, None, :] - np.array([e.position for e in emitters]).reshape(-1, 3)
    # |offset| as stacked (1x3)(3x1) matmuls: each uses the dot of np.linalg.norm
    # of one 3-vector, so the bits match; norm(..., axis=-1) and einsum round the
    # last bit otherwise, which channel_capacity amplifies (ROADMAP item 1)
    ds = np.sqrt(np.matmul(offsets[..., None, :], offsets[..., :, None]))[..., 0, 0]
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
    contact: np.ndarray             # (receivers, n): _receiver_kernels' mask


def _receiver_channel(scenario: Scenario, positions=None, couplings=None):
    """The receiver channel at positions (receivers, 3) and couplings, kernels evaluated once.

    Positions default to the scenario's receiver, couplings to its
    coupling.  C1 = exp(-2 lambda_B^2 nu), q = (1 - C1)/2 and the angles
    g_i = 2 lambda_B lambda_i Delta_i (multiplied left to right) are formed
    here; p(state) = (1 - C1 E)/2 with E = product_expectation(state, g)
    for the receivers that get a signal (channel.signal), and every other
    receiver keeps p = q exactly without any algebra.  Not clamped to
    [0, 1].  None when the receiver has not coupled (see _receiver_kernels).
    """
    kernels = _receiver_kernels(scenario, positions)
    if kernels is None:
        return None
    nu, deltas, contact = kernels
    lam_b = np.asarray([scenario.receiver.coupling_strength] if couplings is None
                       else couplings, dtype=float)
    c1 = np.array([_vacuum_factor(lb, nu) for lb in lam_b])
    q = 0.5 * (1.0 - c1)
    signal = deltas.any(axis=-1)
    # where C1 = 0, p = q = 1/2 whatever E is: those couplings get zero angles,
    # so no algebra runs at angles that may be infinite
    g = (2.0 * np.where(c1 > 0.0, lam_b, 0.0)[:, None]
         * np.array([e.coupling_strength for e in scenario.emitters]) * deltas[signal, None, :])
    angles, phases = _angles(g), MonopolePhase.from_scenario(scenario)
    return _ReceiverChannel(
        q, lambda state: 0.5 * (1.0 - c1 * product_expectation(state, angles, phases)),
        signal, contact)


def _vacuum_factor(lam_b: float, nu: float) -> float:
    """C1 = exp(-2 lambda_B^2 nu), and 0 where lambda_B^2 overflows."""
    try:
        return math.exp(-2.0 * float(lam_b)**2 * nu)
    except OverflowError:
        return 0.0


def excitation_probability(scenario: Scenario, couple: bool) -> float:
    """Probability that the receiver ends excited at the evaluation time.

    couple=False encodes the emitters staying silent, which leaves only
    the receiver's own vacuum noise q = (1 - C1)/2: that needs nu alone,
    so the channel is asked for no receiver position and runs no
    commutator quadrature.
    """
    if couple:
        return channel_point(scenario).p
    channel = _receiver_channel(scenario, np.empty((0, 3)))
    return 0.0 if channel is None else _clamp_probability(channel.q[0],
                                                          "excitation probability")


# -- energy density: geometry (closed-form kernels), then algebra ---------

def _emission_kernels(scenario: Scenario, x, t: float) -> tuple[list[int], np.ndarray]:
    """Indices of the emitters fired by t (nonzero coupling), their kernels K (..., m, 4).

    Each row of K is a time kernel and a radial kernel times r-hat at x (..., 3).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ValueError("observation points must have shape (..., 3)")
    active = [i for i, e in enumerate(scenario.emitters)
              if float(t) - e.coupling_time > 0 and e.coupling_strength != 0.0]
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
    """T00 at points x (..., 3) and time t as a function of the emitter state.

    The kernels of the fired emitters are evaluated once; each call applies
    their strengths to their block of pair_correlation(state).  A (B, 2^n)
    stack of pure states gives one T00 per row, each from its own
    quadratic form.  Where 4 lambda lambda^T or T00 is not finite, the
    ValidationError names the lambda of the strongest fired emitter.
    """
    active, kernels = _emission_kernels(scenario, x, t)
    lam = np.array([scenario.emitters[i].coupling_strength for i in active])
    with np.errstate(over="ignore"):
        weights = 4.0 * np.outer(lam, lam)
    if not np.isfinite(weights).all():
        raise _energy_overflow(active, lam)
    rows, cols = np.ix_(active, active)
    phases = MonopolePhase.from_scenario(scenario)

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


def energy_quadratic_form(kernels, strengths, correlation):
    """T00 = sum_j K_aj M_ab K_bj, M = 4 lambda lambda^T (.) C (derivations section 5).

    kernels (..., m, 4) holds each fired emitter's time kernel and radial
    kernel times r-hat; C is their block of the pair-correlation matrix.
    """
    lam = np.asarray(strengths, dtype=float)
    return _t00(kernels, 4.0 * np.outer(lam, lam) * correlation)


def _t00(kernels, weights):
    """sum_j K_aj M_ab K_bj for kernels K (..., m, 4) and weights M (m, m)."""
    return np.einsum("...aj,ab,...bj->...", kernels, weights, kernels)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with the endpoint limits 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
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
    channel = _receiver_channel(scenario)
    if channel is None:
        return ChannelPoint(0.0, 0.0)
    q = channel.q[0]
    return ChannelPoint(channel.p(scenario.emitter_state)[0, 0] if channel.signal[0] else q, q)
