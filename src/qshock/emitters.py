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

State vectors are applied factor by factor, costing O(n 2^n) per pure
component; mixtures are weight-averaged component-wise.  n is capped at
24 by the state-vector representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import EmitterState, Scenario

__all__ = ["MonopolePhase", "pair_correlation", "product_expectation",
           "apply_monopole", "MAX_EMITTERS"]

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


def apply_monopole(vec: np.ndarray, n: int, i: int, phase: float) -> np.ndarray:
    """Apply mu_i (1-based emitter index, emitter 1 = MSB) to a state vector.

    |g> -> e^{i phase} |e> and |e> -> e^{-i phase} |g> on qubit i.
    """
    if not 1 <= i <= n:
        raise IndexError(f"emitter index {i} out of range 1..{n}")
    view = vec.reshape([2] * n)
    out = np.empty_like(view)
    axis = i - 1
    ground = tuple(slice(None) if ax != axis else 0 for ax in range(n))
    excited = tuple(slice(None) if ax != axis else 1 for ax in range(n))
    out[excited] = np.exp(1j * phase) * view[ground]
    out[ground] = np.exp(-1j * phase) * view[excited]
    return out.reshape(-1)


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
    total = np.zeros((n, n))
    for w, vec in state.vectors():
        flipped = np.array([apply_monopole(vec, n, i, phases.phases[i - 1])
                            for i in range(1, n + 1)]).reshape(n, vec.size)
        total += w * (flipped.conj() @ flipped.T).real
    total = 0.5 * (total + total.T)
    np.fill_diagonal(total, 1.0)
    return total


def product_expectation(state: EmitterState, g, phases: MonopolePhase) -> float:
    """Re < prod_i (cos g_i + i mu_i sin g_i) > over the emitter state.

    Bounded by 1 in magnitude for any normalized state (each factor is
    unitary), invariant under a global phase of the state.
    """
    n = state.n_emitters
    _check_register(n)
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"expected {n} angles, got shape {g.shape}")
    if len(phases) != n:
        raise ValueError(f"expected {n} monopole phases, got {len(phases)}")
    total = 0.0
    for w, vec in state.vectors():
        work = vec
        for idx in range(1, n + 1):
            gi = g[idx - 1]
            if gi == 0.0:
                continue
            flipped = apply_monopole(work, n, idx, phases.phases[idx - 1])
            work = np.cos(gi) * work + 1j * np.sin(gi) * flipped
        total += w * np.vdot(vec, work).real
    # each factor is unitary, so |E| <= 1 up to rounding dust
    if abs(total) > 1.0:
        if abs(total) > 1.0 + 1e-12:
            raise FloatingPointError(f"product expectation {total!r} left [-1, 1]")
        total = float(np.clip(total, -1.0, 1.0))
    return float(total)
