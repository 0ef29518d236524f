"""Shared test oracles, deliberately independent of the package internals.

Each helper recomputes a quantity by a different route than the code
under test: dense matrix algebra for the emitter register and for the
truncated-Fock evolution (one full-dimension expm per detector), closed-form
retarded fields for the radiation kernels, interval-doubled summation
for the variance integral, Blahut-Arimoto iteration for capacities, and
detector distances written out coordinate by coordinate.
"""

import json
import math

import numpy as np
import pytest


# ----------------------------------------------------------------------
# dense qubit-register oracle
# ----------------------------------------------------------------------

def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_monopole(n: int, i: int, phase: float) -> np.ndarray:
    """mu_i as a dense 2^n matrix; basis (g, e) per qubit, emitter 1 = MSB."""
    raise_op = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |e><g|
    mu = raise_op * np.exp(1j * phase) + raise_op.conj().T * np.exp(-1j * phase)
    mats = [np.eye(2, dtype=complex)] * n
    mats[i - 1] = mu
    return kron_chain(mats)


def dense_pair_correlation(state, i, l, phases) -> float:
    n = state.n_emitters
    op = dense_monopole(n, i, phases[i - 1]) @ dense_monopole(n, l, phases[l - 1])
    total = 0.0
    for w, vec in state.vectors():
        total += w * np.real(np.vdot(vec, op @ vec))
    return float(total)


def dense_product_expectation(state, g, phases) -> float:
    n = state.n_emitters
    op = np.eye(2**n, dtype=complex)
    for i in range(1, n + 1):
        mu = dense_monopole(n, i, phases[i - 1])
        op = op @ (np.cos(g[i - 1]) * np.eye(2**n) + 1j * np.sin(g[i - 1]) * mu)
    total = 0.0
    for w, vec in state.vectors():
        total += w * np.real(np.vdot(vec, op @ vec))
    return float(total)


# ----------------------------------------------------------------------
# dense truncated-Fock evolution: full-dimension kron generators + expm
# ----------------------------------------------------------------------

def dense_field_operator(amplitudes, cutoff: int) -> np.ndarray:
    """sum_j (amp_j a_j^+ + conj(amp_j) a_j) over the joint mode space."""
    a = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1)
    eye = np.eye(cutoff)
    n_modes = len(amplitudes)
    out = np.zeros((cutoff**n_modes,) * 2, dtype=complex)
    for j, amp in enumerate(amplitudes):
        mats = [eye] * n_modes
        mats[j] = amp * a.conj().T + np.conj(amp) * a
        out += kron_chain(mats)
    return out


def dense_evolve(detectors, qubits, n_qubits, modes, psi) -> np.ndarray:
    """Each detector's exp(-i lam mu (x) Phi) as one dense expm, time-ordered."""
    from scipy.linalg import expm

    from qshock.oracle import mode_amplitudes
    order = sorted(range(len(detectors)), key=lambda i: detectors[i].coupling_time)
    for i in order:
        det = detectors[i]
        betas = mode_amplitudes(modes, det.position, det.coupling_time,
                                det.smearing_radius)
        mu = dense_monopole(n_qubits, qubits[i] + 1, det.gap * det.coupling_time)
        gen = np.kron(mu, dense_field_operator(betas, modes.cutoff))
        psi = expm(-1j * det.coupling_strength * gen) @ psi
    return psi


def dense_exact_probability(modes, scenario, couple: bool) -> float:
    """Receiver excitation from dense evolution; the receiver is the last qubit."""
    rec = scenario.receiver
    n = scenario.n_emitters if couple else 0
    emitters = [(e, i) for i, e in enumerate(scenario.emitters)
                if couple and e.coupling_time <= scenario.evaluation_time]
    detectors = [e for e, _ in emitters] + [rec]
    qubits = [i for _, i in emitters] + [n]
    vac = np.zeros(modes.fock_dimension(), dtype=complex)
    vac[0] = 1.0
    ground = np.array([1.0, 0.0], dtype=complex)
    vectors = scenario.emitter_state.vectors() if couple else [(1.0, np.ones(1))]
    projector = np.kron(np.kron(np.eye(2**n), np.diag([0.0, 1.0])),
                        np.eye(modes.fock_dimension()))
    prob = 0.0
    for w, vec in vectors:
        fin = dense_evolve(detectors, qubits, n + 1, modes,
                           np.kron(np.kron(vec, ground), vac))
        prob += w * float(np.real(np.vdot(fin, projector @ fin)))
    return prob


def dense_exact_energy(modes, scenario, x, t: float) -> float:
    """Normal-ordered energy density at (x, t) from dense evolution."""
    from qshock.oracle import derivative_amplitudes
    n = scenario.n_emitters
    emitters = [(e, i) for i, e in enumerate(scenario.emitters)
                if e.coupling_time <= t and e.coupling_strength != 0.0]
    vac = np.zeros(modes.fock_dimension(), dtype=complex)
    vac[0] = 1.0
    evolved = [(w, dense_evolve([e for e, _ in emitters], [i for _, i in emitters],
                                n, modes, np.kron(vec, vac)))
               for w, vec in scenario.emitter_state.vectors()]
    total = 0.0
    for j in range(4):
        deltas = derivative_amplitudes(modes, x, t, j)
        deriv = np.kron(np.eye(2**n), dense_field_operator(deltas, modes.cutoff))
        for w, fin in evolved:
            dfin = deriv @ fin
            total += w * (float(np.real(np.vdot(dfin, dfin)))
                          - float(np.sum(np.abs(deltas) ** 2)))
    return total


# ----------------------------------------------------------------------
# detector geometry
# ----------------------------------------------------------------------

def distance(a, b) -> float:
    """|a - b| of two 3-vectors, its squares summed left to right.

    The formula the receiver and emission geometry are held to: it is the
    value of np.linalg.norm(offsets, axis=-1), while np.linalg.norm of one
    3-vector on its own rounds differently for about one offset in ten.
    """
    dx, dy, dz = (float(u) - float(v) for u, v in zip(a, b, strict=True))
    return math.sqrt(dx * dx + dy * dy + dz * dz)


# ----------------------------------------------------------------------
# closed-form retarded field of a ball flashed at one instant
# ----------------------------------------------------------------------

def retarded_potential(r: float, dt: float, radius: float) -> float:
    if dt <= 0:
        return 0.0
    if r + dt <= radius:
        return dt
    if abs(r - dt) < radius < r + dt:
        return (radius**2 - (r - dt) ** 2) / (4.0 * r)
    return 0.0


def retarded_dt(r: float, dt: float, radius: float) -> float:
    if dt <= 0:
        return 0.0
    if r + dt < radius:
        return 1.0
    if abs(r - dt) < radius < r + dt:
        return (r - dt) / (2.0 * r)
    return 0.0


def retarded_dr(r: float, dt: float, radius: float) -> float:
    if dt <= 0 or r + dt < radius:
        return 0.0
    if abs(r - dt) < radius < r + dt:
        return -(r - dt) / (2.0 * r) - (radius**2 - (r - dt) ** 2) / (4.0 * r * r)
    return 0.0


# ----------------------------------------------------------------------
# Blahut-Arimoto capacity of the 2x2 channel
# ----------------------------------------------------------------------

def blahut_arimoto_capacity(p: float, q: float, gap: float = 1e-12) -> float:
    """Capacity of one channel by blahut_arimoto_grid, stopped on the duality gap.

    The midpoint of the (lower, upper) bracket is within gap/(2 ln2) of
    the capacity; raises if the bracket never closes.
    """
    return float(blahut_arimoto_grid(np.array([p]), np.array([q]), gap=gap)[0])


def blahut_arimoto_grid(ps: np.ndarray, qs: np.ndarray, gap: float = 2e-10,
                        max_iter: int = 20000) -> np.ndarray:
    """Vectorized, accelerated Blahut-Arimoto over flat (p, q) arrays of channels.

    The plain update r_x <- r_x exp(D_x) / Z moves u = log(r_1 / r_0) by
    f = D_1 - D_0, which shrinks like (1 - c) per step with c -> 0 as
    p -> q.  Each cell here moves u by mu f instead: mu doubles after a step
    that keeps the sign of f and halves after one that flips it; a step
    that does not shrink |f| is undone and retried from the point before it
    with a quarter of mu.  Any r bounds the capacity by
    sum_x r_x D_x <= C <= max_x D_x, so the stop on the duality gap holds
    as for the plain iteration.
    """
    ps = np.asarray(ps, dtype=float).ravel()
    qs = np.asarray(qs, dtype=float).ravel()
    w = np.stack([np.stack([1.0 - qs, qs], axis=1),
                  np.stack([1.0 - ps, ps], axis=1)], axis=1)  # (cells, x, y)
    logw = np.where(w > 0, np.log(np.maximum(w, 1e-300)), 0.0)
    u = np.zeros(len(ps))                     # log(r_1 / r_0)
    mu = np.ones(len(ps))                     # step along f
    base_u, base_f = u.copy(), np.full(len(ps), np.inf)  # the last accepted point
    caps = np.zeros(len(ps))
    active = np.ones(len(ps), dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if not idx.size:
            return caps
        half = 0.5 * np.tanh(0.5 * u[idx])
        ra = np.stack([0.5 - half, 0.5 + half], axis=1)
        wa, la = w[idx], logw[idx]
        qy = np.einsum("cx,cxy->cy", ra, wa)
        div = np.einsum("cxy->cx", wa * (la - np.log(np.maximum(qy, 1e-300))[:, None, :]))
        lower = np.einsum("cx,cx->c", ra, div)
        upper = div.max(axis=1)
        done = (upper - lower) < gap
        caps[idx[done]] = 0.5 * (lower[done] + upper[done]) / np.log(2.0)
        active[idx[done]] = False
        f, f0, m = div[:, 1] - div[:, 0], base_f[idx], mu[idx]
        worse = np.abs(f) >= np.abs(f0)
        m = np.where(worse, 0.25 * m, np.where((f < 0) != (f0 < 0), 0.5 * m, 2.0 * m))
        start = np.where(worse, base_u[idx], u[idx])
        step = np.where(worse, f0, f)
        base_u[idx], base_f[idx], mu[idx] = start, step, m
        u[idx] = start + m * step
    raise AssertionError(f"{active.sum()} cells never closed the duality gap")


# ----------------------------------------------------------------------
# configuration snippets
# ----------------------------------------------------------------------

def three_emitter_config(state_type="w", phases=(0.0, 0.0, 0.0),
                         evaluation_time=8.0) -> str:
    state = {"type": state_type}
    if state_type == "w":
        state["phases"] = list(phases)
    return json.dumps({
        "emitters": [
            {"position": [5.0, 0.0, 0.0], "time": 1.0, "lambda": 1.0},
            {"position": [6.5, 0.0, 0.0], "time": 2.0, "lambda": 1.0},
            {"position": [8.0, 0.0, 0.0], "time": 3.0, "lambda": 1.0},
        ],
        "receiver": {"position": [11.0, 4.5, 0.0], "time": 8.0, "lambda": 2.0},
        "state": state,
        "evaluation_time": evaluation_time,
    })


def four_emitter_config(phases=(0.0, 0.0, 0.0, 0.0), state_type="w",
                        lam=1.0, receiver_pos=(11.0, 4.5, 0.0)) -> str:
    state = {"type": state_type}
    if state_type == "w":
        state["phases"] = list(phases)
    return json.dumps({
        "emitters": [
            {"position": [5.0, 0.0, 0.0], "time": 1.0, "lambda": lam},
            {"position": [6.5, 0.0, 0.0], "time": 2.0, "lambda": lam},
            {"position": [8.0, 0.0, 0.0], "time": 3.0, "lambda": lam},
            {"position": [9.5, 0.0, 0.0], "time": 4.0, "lambda": lam},
        ],
        "receiver": {"position": list(receiver_pos), "time": 8.0, "lambda": 2.0},
        "state": state,
        "evaluation_time": 9.0,
    })


@pytest.fixture
def one_argument_diverges(monkeypatch):
    """The head quadrature of the first commutator argument of every batch never converges.

    Its head integrand gains a term proportional to the node count, so each
    panel doubling moves its estimate further; the batch's other arguments
    are untouched.
    """
    from qshock import kernels
    original = kernels._commutator_parts

    def parts(*args):
        head, *rest = original(*args)

        def diverging(k, rows):
            at = head(k, rows)

            def values(sub):
                out = at(sub)
                out[sub == 0] += k.size
                return out
            return values

        return (diverging, *rest)

    monkeypatch.setattr(kernels, "_commutator_parts", parts)


@pytest.fixture
def commutator_calls(monkeypatch):
    """Every KernelSet.commutator call made during the test, as a list of (d, dt) pairs."""
    from qshock.kernels import KernelSet
    calls = []
    original = KernelSet.commutator

    def counted(self, d, dt, *args, **kwargs):
        ds, dts = np.broadcast_arrays(d, dt)
        calls.append(list(zip(ds.ravel().tolist(), dts.ravel().tolist())))
        return original(self, d, dt, *args, **kwargs)

    monkeypatch.setattr(KernelSet, "commutator", counted)
    return calls
