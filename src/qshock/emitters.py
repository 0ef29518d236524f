"""Exact monopole-operator expectations over the emitter register.

The interaction-picture monopole operator of emitter i at its coupling
instant is

    mu_i = sigma_i^+ e^{i Omega_i t_i} + sigma_i^- e^{-i Omega_i t_i},

which squares to the identity on qubit i.  Both observables computed
here are evaluated without any perturbative truncation:

  * pair_correlation: the matrix <mu_i mu_l> of the two-operator cross
    terms of the energy density;
  * product_expectation: Re <prod_i (cos g_i + i mu_i sin g_i)>, the
    emitter-side factor of the receiver excitation probability (g_i is
    2 lambda_B lambda_i times the gated commutator kernel; see
    observables for the correspondence).

mu_i is index-permuted: (mu_i psi)[k] = f_i[k] psi[k XOR b_i], with b_i
emitter i's bit and f_i[k] = e^{+i Omega_i t_i} where k has it set,
e^{-i Omega_i t_i} where not.  These tables (24 n 2^n bytes) are built
once per (n, phases) and serve both functions here.
product_expectation applies each factor to a whole batch of angle
vectors (..., n) at once.  Cost is O(n 2^n) per pure component and angle
vector; mixtures are weight-averaged component-wise.  n is capped at 24
by the state-vector representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scenario import EmitterState, Scenario

__all__ = ["MonopolePhase", "pair_correlation", "product_expectation", "MAX_EMITTERS"]

MAX_EMITTERS = 24


@dataclass(frozen=True)
class MonopolePhase:
    """Per-emitter phases Omega_i * t_i entering the monopole operators."""

    phases: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))

    @staticmethod
    def from_scenario(scenario: Scenario) -> "MonopolePhase":
        return MonopolePhase(tuple(e.gap * e.coupling_time for e in scenario.emitters))

    def __len__(self) -> int:
        return len(self.phases)


def _check_register(n: int) -> None:
    if n > MAX_EMITTERS:
        raise ValueError(f"state-vector register capped at {MAX_EMITTERS} emitters")


@lru_cache(maxsize=8)
def _flip_tables(phases: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """perm (n, 2^n) = k XOR b_i and factor (n, 2^n) = e^{+-i phase_i}, read-only."""
    n = len(phases)
    index = np.arange(2**n)
    bits = 1 << np.arange(n - 1, -1, -1)[:, None]  # emitter 1 = MSB
    up = np.array([np.exp(1j * p) for p in phases]).reshape(n, 1)
    down = np.array([np.exp(-1j * p) for p in phases]).reshape(n, 1)
    perm = index ^ bits
    factor = np.where(index & bits, up, down)
    perm.setflags(write=False)
    factor.setflags(write=False)
    return perm, factor


def pair_correlation(state: EmitterState, phases: MonopolePhase) -> np.ndarray:
    """The n x n matrix C_il = <mu_i mu_l> over the emitter state.

    For each pure component C is the Gram matrix Re <mu_i psi | mu_l psi>
    (mu is Hermitian), so it costs n monopole applications per component.
    Real and symmetric by construction; the diagonal is mu^2 = 1 exactly.
    """
    n = state.n_emitters
    _check_register(n)
    if len(phases) != n:
        raise ValueError(f"expected {n} monopole phases, got {len(phases)}")
    perm, factor = _flip_tables(phases.phases)
    total = np.zeros((n, n))
    for w, vec in state.vectors():
        flipped = factor * vec[perm]
        total += w * (flipped.conj() @ flipped.T).real
    total = 0.5 * (total + total.T)
    np.fill_diagonal(total, 1.0)
    return total


class _Angles(tuple):
    """(g, g != 0, which emitters turn in some / in every angle vector, cos g, i sin g)."""


def _angles(g) -> _Angles:
    g = np.asarray(g, dtype=float)
    turning, axes = g != 0.0, tuple(range(g.ndim - 1))
    return _Angles((g, turning, turning.any(axis=axes).tolist(), turning.all(axis=axes).tolist(),
                    np.cos(g)[..., None], 1j * np.sin(g)[..., None]))


def product_expectation(state: EmitterState, g, phases: MonopolePhase):
    """Re < prod_i (cos g_i + i mu_i sin g_i) > over the emitter state.

    g holds one angle per emitter, or a batch of them (..., n), or is
    _angles of either, formed once for repeated calls: a float for one
    angle vector, else an array of shape g.shape[:-1].  Bounded by 1 in
    magnitude for any normalized state (each factor is unitary),
    invariant under a global phase of the state.
    """
    n = state.n_emitters
    _check_register(n)
    g, turning, touched, everywhere, cos, isin = g if isinstance(g, _Angles) else _angles(g)
    if g.shape[-1:] != (n,):
        raise ValueError(f"expected {n} angles, got shape {g.shape}")
    if len(phases) != n:
        raise ValueError(f"expected {n} monopole phases, got {len(phases)}")
    perm, factor = _flip_tables(phases.phases)
    batch = g.shape[:-1]
    total = np.zeros(batch)
    for w, vec in state.vectors():
        work = vec
        for i in range(n):
            if not touched[i]:
                continue
            flipped = factor[i] * work[..., perm[i]]
            turned = cos[..., i, :] * work + isin[..., i, :] * flipped
            # rows with g_i = 0 skip the factor, as a single-vector call does
            work = turned if everywhere[i] else np.where(turning[..., i, None],
                                                         turned, work)
        if work.shape != batch + vec.shape:  # no angle turned this component
            work = np.broadcast_to(work, batch + vec.shape)
        for k in np.ndindex(batch):
            total[k] += w * np.vdot(vec, work[k]).real
    # each factor is unitary, so |E| <= 1 up to rounding dust
    if np.any(np.abs(total) > 1.0):
        if np.any(np.abs(total) > 1.0 + 1e-12):
            raise FloatingPointError(f"product expectation {total!r} left [-1, 1]")
        total = np.clip(total, -1.0, 1.0)
    return float(total) if total.ndim == 0 else total
