"""Independent brute-force validator on a truncated Fock space.

The continuum field is replaced by a finite set of discrete modes.  On
that mode set two entirely different routes compute the same numbers:

  * exact_*: evolve the state vector of qubits (x) truncated modes
    through each detector's delta-coupling unitary
    exp(-i lam mu (x) Phi), in coupling-time order, and read the
    observable off the evolved state;

  * discrete_*: the pipeline's own algebra, observables._channel and
    observables._energy, on nu, Delta_i and the radiation-kernel rows
    formed as the same discrete mode sums in place of the momentum
    integrals.

Agreement validates the operator algebra the maps run (the
conditional-displacement reduction, the C1 vacuum factor, the signal
angles, the energy-density cross terms) in complete isolation from
kernel accuracy, which the tests check against the kernels' closed
forms.  The oracle never integrates.  Both energy routes source the
field from the emitters the pipeline fires (observables._fired).

The evolution is factorised; no operator of the full Hilbert dimension
is built.  The state is a stack: one leading axis over the components of
the emitter state (one for a pure state, one per term of a mixture),
then one axis per qubit and per mode.
mu^2 = 1 gives exp(-i lam mu (x) Phi) = P+ (x) e^{-i lam Phi}
+ P- (x) e^{+i lam Phi} with P+- = (1 +- mu)/2, and the per-mode terms of
Phi = sum_j (beta_j a_j^+ + conj(beta_j) a_j) act on different axes, so
they commute exactly even after truncation and e^{-i lam Phi} is one
cutoff x cutoff exponential per mode (docs/derivations.md section 9).
Each detector's exponentials are formed once per call and applied to the
whole stack, as one matmul per axis; the observables are read off the
stack, each component with its weight.
The split uses only mu^2 = 1 and the mode structure, never the kernels
or the reduction to the signal angles g_i.  A silent receiver
(couple=False) is the same evolution on the scenario without its
emitters: the zero-emitter register, one qubit and the modes.

Every exponential goes through the module-level expm, a Hermitian
eigendecomposition in numpy; the oracle loads no scipy module.

The battery runs at one fixed setting, the module constants below;
_check_budget holds every exact evolution to _DIMENSION_BUDGET.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

# perfbench/spans.py wraps both names here
from .emitters import pair_correlation, product_expectation  # noqa: F401
from .kernels import sphere_form_factor
from .observables import _channel, _energy, _fired
from .scenario import Detector, EmitterState, Scenario, classical_mixture, w_state

__all__ = [
    "ModeSet",
    "OracleBudgetError",
    "mode_amplitudes",
    "derivative_amplitudes",
    "exact_probability",
    "exact_energy",
    "discrete_probability",
    "discrete_energy",
    "ComparisonRow",
    "standard_comparison_cases",
    "run_standard_comparisons",
]

_AGREEMENT_TOL = 1e-6       # |pipeline - exact| for a case to pass
_CUTOFF_TOL = 1e-7          # |exact(cutoff + 2) - exact(cutoff)|
_DIMENSION_BUDGET = 4096    # largest Hilbert dimension an exact evolution builds
_SQRT_16PI3 = math.sqrt(16.0 * math.pi**3)


class OracleBudgetError(RuntimeError):
    """The requested Hilbert dimension exceeds the oracle's fixed budget."""

    def __init__(self, dimension: int, budget: int):
        super().__init__(f"Hilbert dimension {dimension} exceeds budget {budget}; "
                         f"shrink modes/cutoff")
        self.dimension = dimension
        self.budget = budget


@dataclass(frozen=True)
class ModeSet:
    """Discrete field modes: momenta, quadrature weights, Fock cutoff per mode."""

    momenta: tuple[tuple[float, float, float], ...]
    weights: tuple[float, ...]
    cutoff: int

    def __post_init__(self):
        momenta = tuple(tuple(float(c) for c in k) for k in self.momenta)
        weights = tuple(float(w) for w in self.weights)
        if len(momenta) != len(weights):
            raise ValueError("momenta and weights differ in length")
        if any(len(k) != 3 for k in momenta):
            raise ValueError("momenta must be 3-vectors")
        if any(np.linalg.norm(k) <= 0 for k in momenta):
            raise ValueError("mode momenta must be nonzero")
        if any(w <= 0 for w in weights):
            raise ValueError("mode weights must be positive")
        if self.cutoff < 2:
            raise ValueError("Fock cutoff must be >= 2")
        object.__setattr__(self, "momenta", momenta)
        object.__setattr__(self, "weights", weights)

    @property
    def n_modes(self) -> int:
        return len(self.momenta)

    def with_cutoff(self, cutoff: int) -> "ModeSet":
        return ModeSet(self.momenta, self.weights, cutoff)

    def fock_dimension(self) -> int:
        return self.cutoff ** self.n_modes


def _plane_waves(modes: ModeSet, position, time: float):
    """|k| (M,), momenta (M, 3) and sqrt(w) e^{i(|k|t - k.x)} / sqrt(16 pi^3 |k|) (M,)."""
    kvecs = np.array(modes.momenta)
    k = np.linalg.norm(kvecs, axis=1)
    phase = np.exp(1j * (k * time - kvecs @ np.asarray(position, dtype=float)))
    return k, kvecs, np.sqrt(modes.weights) * phase / (_SQRT_16PI3 * np.sqrt(k))


def mode_amplitudes(modes: ModeSet, position, time: float, radius: float) -> np.ndarray:
    """Per-mode coupling amplitudes sqrt(w) S(|k|) e^{i(|k|t - k.x)} / sqrt(16 pi^3 |k|).

    Uses the same ball form factor as the continuum pipeline, so a
    pipeline/oracle disagreement can only come from the operator algebra.
    """
    k, _, waves = _plane_waves(modes, position, time)
    return sphere_form_factor(k, radius) * waves


def derivative_amplitudes(modes: ModeSet, position, time: float, j: int) -> np.ndarray:
    """Point-observation amplitudes of the field derivative d_j phi."""
    k, kvecs, waves = _plane_waves(modes, position, time)
    return (1j * k if j == 0 else -1j * kvecs[:, j - 1]) * waves


# ----------------------------------------------------------------------
# factorised evolution on a (components,) + (2,)*n_qubits + (cutoff,)*n_modes
# state stack
# ----------------------------------------------------------------------

def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of an anti-Hermitian a, as every generator -i lam Phi here is.

    V diag(e^{-i w}) V^+ from numpy's eigh of the Hermitian i a, on the
    calling thread.  scipy.linalg.expm's threaded getrs woke or kept
    spinning a second BLAS thread on each tiny call, so its cost swung
    with machine load (about 1 ms per call when that thread slept).
    """
    w, v = np.linalg.eigh(1j * a)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _check_budget(n_qubits: int, modes: ModeSet) -> int:
    dim = 2**n_qubits * modes.fock_dimension()
    if dim > _DIMENSION_BUDGET:
        raise OracleBudgetError(dim, _DIMENSION_BUDGET)
    return dim


def _annihilator(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1)


def _mode_generators(amplitudes: np.ndarray, a: np.ndarray) -> np.ndarray:
    """amplitude a^+ + conj(amplitude) a per mode, (M, cutoff, cutoff)."""
    b = amplitudes[:, None, None]
    return b * a.T + np.conj(b) * a


def _apply(op: np.ndarray, psi: np.ndarray, axis: int) -> np.ndarray:
    """op acting on the single tensor factor `axis` of the state array."""
    shape = psi.shape
    block = psi.reshape(math.prod(shape[:axis]), shape[axis], -1)
    return np.matmul(op, block).reshape(shape)


def _norms2(psi: np.ndarray) -> np.ndarray:
    """Squared norm of each component of a stack, (components,)."""
    flat = psi.reshape(len(psi), -1)
    return np.einsum("ci,ci->c", flat.conj(), flat).real


def _vacuum_state(registers: np.ndarray, n_qubits: int, modes: ModeSet) -> np.ndarray:
    """Registers (x) mode vacuum: axes (components,) + one per qubit and mode."""
    psi = np.zeros((len(registers),) + (2,) * n_qubits + (modes.cutoff,) * modes.n_modes,
                   dtype=complex)
    psi[(Ellipsis,) + (0,) * modes.n_modes] = registers.reshape((-1,) + (2,) * n_qubits)
    return psi


def _evolve(detectors, qubit_indices, n_qubits, modes: ModeSet,
            psi: np.ndarray) -> np.ndarray:
    """Apply each detector's unitary in coupling-time order (stable on ties).

    Each unitary is P+ (x) prod_j e^{-i lam Phi_j} + P- (x) prod_j
    e^{+i lam Phi_j}: two 2 x 2 projectors on the detector's qubit axis and
    one cutoff x cutoff exponential per mode axis (module docstring),
    formed once and applied to every component of the stack psi.
    """
    a = _annihilator(modes.cutoff)
    eye = np.eye(2)
    order = sorted(range(len(detectors)), key=lambda i: detectors[i].coupling_time)
    for i in order:
        det = detectors[i]
        betas = mode_amplitudes(modes, det.position, det.coupling_time,
                                det.smearing_radius)
        kicks = [expm(-1j * det.coupling_strength * g) for g in _mode_generators(betas, a)]
        phase = np.exp(1j * det.gap * det.coupling_time)
        mu = np.array([[0.0, np.conj(phase)], [phase, 0.0]])  # basis (g, e)
        plus = _apply(0.5 * (eye + mu), psi, 1 + qubit_indices[i])
        minus = _apply(0.5 * (eye - mu), psi, 1 + qubit_indices[i])
        for m, u in enumerate(kicks, start=1 + n_qubits):
            plus = _apply(u, plus, m)
            minus = _apply(u.conj().T, minus, m)
        psi = plus + minus
        norms = np.sqrt(_norms2(psi))
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise FloatingPointError(f"evolution lost unitarity: |psi| = {norms!r}")
    return psi


def exact_probability(modes: ModeSet, scenario: Scenario, couple: bool) -> float:
    """Receiver excitation probability from exact evolution on the mode set.

    With couple=False no operator touches the emitter register, which
    factors out of the expectation exactly; the receiver then couples
    alone, so the evolution runs on the same scenario with no emitters
    (the receiver qubit and the modes only).
    """
    if not couple:
        scenario = Scenario((), scenario.receiver, EmitterState.pure([1.0]),
                            scenario.evaluation_time)
    rec = scenario.receiver
    if scenario.evaluation_time <= rec.coupling_time:
        return 0.0
    n = scenario.n_emitters
    n_qubits = n + 1
    _check_budget(n_qubits, modes)
    fired = [i for i, e in enumerate(scenario.emitters)
             if e.coupling_time <= scenario.evaluation_time]
    detectors = [scenario.emitters[i] for i in fired] + [rec]
    qubit_indices = fired + [n]  # receiver is the last qubit
    ground = np.array([1.0, 0.0], dtype=complex)
    weights, registers = zip(*((w, np.kron(vec, ground))
                               for w, vec in scenario.emitter_state.vectors()))
    fin = _evolve(detectors, qubit_indices, n_qubits, modes,
                  _vacuum_state(np.array(registers), n_qubits, modes))
    excited = fin[(slice(None),) * (1 + n) + (1,)]  # receiver projector |e><e|
    return float(np.dot(weights, _norms2(excited)))


def exact_energy(modes: ModeSet, scenario: Scenario, x, t: float) -> float:
    """Normal-ordered discrete energy density at (x, t) from exact evolution."""
    n = scenario.n_emitters
    _check_budget(n, modes)
    fired = _fired(scenario, t)
    a = _annihilator(modes.cutoff)
    weights, vectors = zip(*scenario.emitter_state.vectors())
    fin = _evolve([scenario.emitters[i] for i in fired], fired, n, modes,
                  _vacuum_state(np.array(vectors), n, modes))
    total = 0.0
    for j in range(4):
        deltas = derivative_amplitudes(modes, x, t, j)
        dfin = sum(_apply(op, fin, m)
                   for m, op in enumerate(_mode_generators(deltas, a), start=1 + n))
        total += float(np.dot(weights, _norms2(dfin) - np.sum(np.abs(deltas) ** 2)))
    return total


# ----------------------------------------------------------------------
# pipeline algebra on the identical mode sums
# ----------------------------------------------------------------------

def discrete_probability(modes: ModeSet, scenario: Scenario, couple: bool) -> float:
    """observables._channel on the mode-sum nu and Delta_i of the receiver.

    Delta_i counts every emitter coupled by the receiver's instant, as the
    exact evolution orders them; couple=False leaves every Delta_i = 0.
    """
    rec = scenario.receiver
    if scenario.evaluation_time <= rec.coupling_time:
        return 0.0
    beta_rec = mode_amplitudes(modes, rec.position, rec.coupling_time,
                               rec.smearing_radius)
    deltas = np.zeros((1, scenario.n_emitters))
    for i, e in enumerate(scenario.emitters):
        if couple and e.coupling_time <= rec.coupling_time:
            beta_i = mode_amplitudes(modes, e.position, e.coupling_time, e.smearing_radius)
            deltas[0, i] = 2.0 * float(np.imag(np.sum(beta_i * np.conj(beta_rec))))
    nu = float(np.sum(np.abs(beta_rec) ** 2))
    return _channel(scenario, nu, deltas).point(scenario.emitter_state).p


def discrete_energy(modes: ModeSet, scenario: Scenario, x, t: float) -> float:
    """observables._energy on the mode-sum kernel rows of the fired emitters."""
    active = _fired(scenario, t)
    deltas = np.array([derivative_amplitudes(modes, x, t, j) for j in range(4)])
    kernels = np.empty((len(active), 4))
    for a, i in enumerate(active):
        e = scenario.emitters[i]
        beta_i = mode_amplitudes(modes, e.position, e.coupling_time, e.smearing_radius)
        kernels[a] = np.imag(deltas @ np.conj(beta_i))
    return float(_energy(scenario, active, kernels)(scenario.emitter_state))


# ----------------------------------------------------------------------
# standard comparison battery (used by tests and the `oracle` subcommand)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    """One battery case; difference and passed follow from the values and _AGREEMENT_TOL."""

    case: str
    pipeline: float
    exact: float
    tolerance: ClassVar[float] = _AGREEMENT_TOL

    @property
    def difference(self) -> float:
        return abs(self.pipeline - self.exact)

    @property
    def passed(self) -> bool:
        return self.difference <= self.tolerance


def _case_modes(n_modes: int, cutoff: int) -> ModeSet:
    # weights sized so the conditional displacements are O(0.1): large enough
    # for meaningful probabilities, small enough for fast cutoff convergence
    pool = [((0.9, 0.2, -0.3), 12.0),
            ((-0.4, 1.1, 0.3), 20.0),
            ((0.1, -0.6, 0.9), 9.0),
            ((0.5, 0.5, 0.8), 15.0)]
    chosen = pool[:n_modes]
    return ModeSet(tuple(k for k, _ in chosen), tuple(w for _, w in chosen), cutoff)


def _case_scenario(n: int, state_kind: str) -> Scenario:
    emitters = tuple(Detector((1.4 * i, 0.15 * i, 0.0), 0.4 + 0.45 * i, 0.9 + 0.1 * i,
                              2.0, 0.5) for i in range(n))
    receiver = Detector((0.7, 0.9, 0.2), 3.0, 0.8, 2.0, 0.5)
    if state_kind == "w":
        thetas = [0.3 * (i + 1) for i in range(n)]
        state = w_state(n, thetas)
    elif state_kind == "classical":
        state = classical_mixture(n)
    else:  # product: every emitter in (|g> + e^{i phi}|e>)/sqrt(2)
        single = [np.array([1.0, np.exp(0.4j * (i + 1))]) / math.sqrt(2.0)
                  for i in range(n)]
        state = EmitterState.pure(functools.reduce(np.kron, single))
    return Scenario(emitters, receiver, state, 5.0)


def standard_comparison_cases() -> list[dict]:
    """>= 12 cases spanning emitter count, state family, coupling, and modes.

    Per-case cutoffs keep every Hilbert space, including the cutoff+2
    convergence run, inside _DIMENSION_BUDGET.
    """
    grid = [
        # (n, state, couple, n_modes, base_cutoff)
        (1, "w", True, 1, 7), (1, "w", False, 2, 7), (1, "classical", True, 3, 4),
        (2, "w", True, 2, 6), (2, "w", False, 3, 4), (2, "classical", True, 3, 4),
        (2, "product", True, 2, 6), (3, "w", True, 2, 5),
        (3, "classical", True, 2, 5), (3, "product", True, 2, 5),
        (3, "w", False, 4, 4), (2, "product", False, 1, 7),
        (3, "classical", False, 3, 4), (1, "classical", True, 2, 7),
    ]
    cases = []
    for n, kind, couple, n_modes, cutoff in grid:
        cases.append({"name": f"p[n={n},{kind},{'couple' if couple else 'silent'},"
                              f"modes={n_modes}]",
                      "kind": "probability", "n": n, "state": kind,
                      "couple": couple, "n_modes": n_modes, "cutoff": cutoff})
    for n, kind, cutoff in [(1, "w", 8), (2, "w", 6), (2, "classical", 6)]:
        cases.append({"name": f"T00[n={n},{kind},modes=2]", "kind": "energy",
                      "n": n, "state": kind, "couple": True, "n_modes": 2,
                      "cutoff": cutoff})
    return cases


def run_standard_comparisons() -> list[ComparisonRow]:
    """Run the battery; each case first demonstrates Fock-cutoff convergence."""
    rows = []
    for case in standard_comparison_cases():
        scenario = _case_scenario(case["n"], case["state"])
        modes = _case_modes(case["n_modes"], case["cutoff"])
        if case["kind"] == "probability":
            exact, discrete, args = exact_probability, discrete_probability, (case["couple"],)
        else:
            exact, discrete, args = exact_energy, discrete_energy, ((0.8, -0.4, 0.3), 2.6)
        coarse = exact(modes, scenario, *args)
        fine = exact(modes.with_cutoff(case["cutoff"] + 2), scenario, *args)
        if abs(fine - coarse) > _CUTOFF_TOL:
            raise FloatingPointError(
                f"{case['name']}: cutoff not converged ({abs(fine - coarse):.2e})")
        pipeline = discrete(modes, scenario, *args)
        rows.append(ComparisonRow(case["name"], pipeline, fine))
    return rows
