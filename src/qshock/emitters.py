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

Both take the monopole phases Omega_i t_i as any sequence of n floats
(a tuple, a list or an array; Scenario.monopole_phases gives a
scenario's).  mu_i is index-permuted: (mu_i psi)[k] = f_i[k] psi[k XOR
b_i], with b_i emitter i's bit and f_i[k] = e^{+i Omega_i t_i} where k has
it set, e^{-i Omega_i t_i} where not.  These tables (24 n 2^n bytes) are
built once per tuple of phases, as floats, and serve both functions here.

Both functions run one core over a stack of pure amplitude vectors
(S, 2^n): each monopole factor is applied to every vector of the stack,
and to a whole batch of angle vectors (..., n), at once, and each
reduction (the Gram matrices, the overlaps <psi|work>) is one stacked
np.matmul, which on OpenBLAS rounds as f.conj() @ f.T and np.vdot per
vector do (an einsum sums in another order).  For an EmitterState the
stack is its components, whose weights fold the per-vector results in
component order; a (B, 2^n) array is B pure states, and the results keep
that leading axis with the bits of B separate calls.  Cost is O(n 2^n)
per vector and angle vector; n is capped at scenario.MAX_EMITTERS (24),
checked before any state exists.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .scenario import MAX_EMITTERS, EmitterState, _check_register

__all__ = ["pair_correlation", "product_expectation", "MAX_EMITTERS"]


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


def _register(state, phases) -> tuple[np.ndarray, tuple | None, np.ndarray, np.ndarray]:
    """The amplitude stack (S, 2^n), the weights folding it (None: B pure states), perm, factor."""
    if isinstance(state, EmitterState):
        weights, vectors = zip(*state.vectors())
        stack, n = np.array(vectors), state.n_emitters
    else:
        stack, weights = np.asarray(state, dtype=complex), None
        n = stack.shape[-1].bit_length() - 1
        if stack.ndim != 2 or stack.shape[-1] != 2**n:
            raise ValueError(f"expected a (B, 2^n) stack of amplitude vectors, "
                             f"got shape {stack.shape}")
    _check_register(n)
    if len(phases) != n:
        raise ValueError(f"expected {n} monopole phases, got {len(phases)}")
    return (stack, weights, *_flip_tables(tuple(map(float, phases))))


def _fold(rows: np.ndarray, weights) -> np.ndarray:
    """sum_c w_c rows[c] in component order; weights None keeps one result per row."""
    if weights is None:  # the bits of 0 + 1.0 * row, as for a one-component state
        return 0.0 + rows
    total = np.zeros(rows.shape[1:])
    for w, row in zip(weights, rows):
        total += w * row
    return total


def pair_correlation(state, phases) -> np.ndarray:
    """The n x n matrix C_il = <mu_i mu_l> over the emitter state.

    state is an EmitterState, or a (B, 2^n) stack of pure states, which
    gives one matrix per row (B, n, n).  For each pure vector C is the Gram
    matrix Re <mu_i psi | mu_l psi> (mu is Hermitian), so it costs n
    monopole applications per vector.  Real and symmetric by
    construction; the diagonal is mu^2 = 1 exactly.
    """
    stack, weights, perm, factor = _register(state, phases)
    n = len(perm)
    flipped = factor * stack.take(perm, axis=-1)
    total = _fold((flipped.conj() @ np.swapaxes(flipped, -1, -2)).real, weights)
    total = 0.5 * (total + np.swapaxes(total, -1, -2))
    total[..., range(n), range(n)] = 1.0
    return total


def product_expectation(state, g, phases):
    """Re < prod_i (cos g_i + i mu_i sin g_i) > over the emitter state.

    g holds one angle per emitter, or a batch of them (..., n): a float
    for one angle vector, else an array of shape g.shape[:-1].  state is an
    EmitterState, or a (B, 2^n) stack of pure states, which adds a leading
    axis B.  Bounded by 1 in magnitude for any normalized state (each
    factor is unitary), invariant under a global phase of the state.
    """
    stack, weights, perm, factor = _register(state, phases)
    n, g = len(perm), np.asarray(g, dtype=float)
    if g.shape[-1:] != (n,):
        raise ValueError(f"expected {n} angles, got shape {g.shape}")
    batch, cos, isin = g.shape[:-1], np.cos(g)[..., None], 1j * np.sin(g)[..., None]
    lead = stack.shape[:1] + (1,) * len(batch)
    work = stack.reshape(lead + stack.shape[1:])
    for i in range(n):
        work = cos[..., i, :] * work + isin[..., i, :] * (factor[i] * work.take(perm[i], axis=-1))
    # <psi|work>; out is (S, *batch, 1, 1) even where n = 0 turned nothing
    overlaps = np.matmul(stack.conj().reshape(lead + (1,) + stack.shape[1:]), work[..., None],
                         out=np.empty(stack.shape[:1] + batch + (1, 1), dtype=complex))
    total = _fold(overlaps[..., 0, 0].real, weights)
    # each factor is unitary, so |E| <= 1 up to rounding dust
    if (np.abs(total) > 1.0).any():
        if (np.abs(total) > 1.0 + 1e-12).any():
            raise FloatingPointError(f"product expectation {total!r} left [-1, 1]")
        total = np.clip(total, -1.0, 1.0)
    return float(total) if total.ndim == 0 else total
