import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from qshock.emitters import _flip_tables, pair_correlation, product_expectation
from qshock.scenario import (EmitterState, ValidationError, _check_norm, _w_amplitudes,
                             classical_mixture, w_state)

from conftest import dense_pair_correlation, dense_product_expectation


def phases_for(n, omega=2.0, times=None):
    times = times if times is not None else [1.0 + 0.5 * i for i in range(n)]
    return tuple(omega * t for t in times)


def apply_monopole(vec, phases, i):
    # (mu_i psi)[k] = f_i[k] psi[k XOR b_i], from the tables pair_correlation and
    # product_expectation use
    perm, factor = _flip_tables(tuple(phases))
    return factor[i] * vec[perm[i]]


class TestMonopoleAlgebra:
    def test_squares_to_identity(self):
        # mu applied twice restores any state vector
        rng = np.random.default_rng(3)
        n = 3
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        vec /= np.linalg.norm(vec)
        phases = (0.3, 0.7, 1.9)
        out = apply_monopole(apply_monopole(vec, phases, 1), phases, 1)
        np.testing.assert_allclose(out, vec, atol=1e-14)

    def test_flip_phases(self):
        # |g> -> e^{i phi} |e> on the targeted qubit, emitter 1 the MSB
        vec = np.zeros(4, dtype=complex)
        vec[0b00] = 1.0
        out = apply_monopole(vec, (0.5, 0.0), 0)
        assert out[0b10] == pytest.approx(np.exp(0.5j))
        assert np.count_nonzero(out) == 1


def assert_matches_dense(state, ph, corr):
    n = state.n_emitters
    assert corr.shape == (n, n)
    assert np.array_equal(corr, corr.T)
    assert np.all(np.diag(corr) == 1.0)
    for i in range(1, n + 1):
        for l in range(1, n + 1):
            assert corr[i - 1, l - 1] == pytest.approx(
                dense_pair_correlation(state, i, l, ph), abs=1e-12)


class TestPairCorrelation:
    def test_classical_mixture_vanishes(self):
        for n in (2, 3, 4):
            state = classical_mixture(n)
            ph = phases_for(n)
            corr = pair_correlation(state, ph)
            np.testing.assert_allclose(corr, np.eye(n), atol=1e-14)
            assert_matches_dense(state, ph, corr)

    def test_w3_equal_monopole_phases(self):
        # oracle-frozen: equal Omega t for all emitters gives 2/n off the diagonal
        state = w_state(3, [0.0, 0.0, 0.0])
        ph = (2.0, 2.0, 2.0)
        expect = np.full((3, 3), 2.0 / 3.0)
        np.fill_diagonal(expect, 1.0)
        np.testing.assert_allclose(pair_correlation(state, ph), expect, atol=1e-14)
        assert dense_pair_correlation(state, 1, 2, ph) == pytest.approx(
            2.0 / 3.0, abs=1e-14)

    @given(n=st.integers(2, 5), data=st.data())
    @hsettings(max_examples=30, deadline=None)
    def test_w_state_matches_dense_oracle(self, n, data):
        thetas = data.draw(st.lists(st.floats(-4, 4), min_size=n, max_size=n))
        times = data.draw(st.lists(st.floats(0, 5), min_size=n, max_size=n))
        state = w_state(n, thetas)
        ph = phases_for(n, times=times)
        corr = pair_correlation(state, ph)
        assert_matches_dense(state, ph, corr)
        # the correlator depends only on the phase differences
        for i in range(n):
            for l in range(n):
                if i != l:
                    expect = (2.0 / n) * math.cos((thetas[i] - thetas[l])
                                                  - (ph[i] - ph[l]))
                    assert corr[i, l] == pytest.approx(expect, abs=1e-12)

    def test_random_pure_state_and_mixture_match_dense(self):
        rng = np.random.default_rng(9)
        n = 3
        vecs = [rng.normal(size=2**n) + 1j * rng.normal(size=2**n) for _ in range(2)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        ph = phases_for(n)
        for state in (EmitterState.pure(vecs[0]),
                      EmitterState.mixture([(0.3, vecs[0]), (0.7, vecs[1])])):
            assert_matches_dense(state, ph, pair_correlation(state, ph))

    def test_global_phase_shift_invariance(self):
        n = 4
        ph = phases_for(n)
        base = w_state(n, [0.1, 0.7, -0.3, 1.9])
        shifted = w_state(n, [0.1 + 2.2, 0.7 + 2.2, -0.3 + 2.2, 1.9 + 2.2])
        np.testing.assert_allclose(pair_correlation(base, ph),
                                   pair_correlation(shifted, ph), atol=1e-12)

    def test_phase_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="phases"):
            pair_correlation(w_state(2, [0, 0]), phases_for(3))


class TestProductExpectation:
    def test_identity_product(self):
        state = w_state(3, [0.3, -0.2, 0.9])
        assert product_expectation(state, [0.0, 0.0, 0.0], phases_for(3)) == 1.0

    def test_classical_mixture_factorizes(self):
        # every energy-eigenstate component gives prod cos g
        n = 3
        state = classical_mixture(n)
        g = [0.4, -0.7, 1.2]
        expect = np.prod(np.cos(g))
        ph = phases_for(n)
        assert product_expectation(state, g, ph) == pytest.approx(expect, abs=1e-14)
        assert dense_product_expectation(state, g, ph) == pytest.approx(
            expect, abs=1e-14)

    def test_all_ground_product_state(self):
        n = 3
        vec = np.zeros(2**n, dtype=complex)
        vec[0] = 1.0
        state = EmitterState.pure(vec)
        g = [0.5, 0.1, -0.9]
        assert product_expectation(state, g, phases_for(n)) == pytest.approx(
            float(np.prod(np.cos(g))), abs=1e-14)

    def test_w4_pi_pattern_matches_dense(self):
        state = w_state(4, [0.0, 0.0, math.pi, math.pi])
        g = [0.31, -0.12, 0.55, 0.21]
        ph = phases_for(4, times=[1.0, 2.0, 3.0, 4.0])
        got = product_expectation(state, g, ph)
        assert got == pytest.approx(dense_product_expectation(state, g, ph),
                                    abs=1e-12)

    @given(n=st.integers(1, 5), data=st.data())
    @hsettings(max_examples=30, deadline=None)
    def test_matches_dense_oracle(self, n, data):
        thetas = data.draw(st.lists(st.floats(-4, 4), min_size=n, max_size=n))
        g = data.draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))
        state = w_state(n, thetas)
        ph = phases_for(n)
        got = product_expectation(state, g, ph)
        assert got == pytest.approx(dense_product_expectation(state, g, ph),
                                    abs=1e-12)
        assert abs(got) <= 1.0

    @given(n=st.integers(1, 4), data=st.data())
    @hsettings(max_examples=20, deadline=None)
    def test_global_phase_invariance(self, n, data):
        thetas = data.draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))
        g = data.draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
        shift = data.draw(st.floats(-3, 3))
        ph = phases_for(n)
        a = product_expectation(w_state(n, thetas), g, ph)
        b = product_expectation(w_state(n, [t + shift for t in thetas]), g, ph)
        assert a == pytest.approx(b, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="angles"):
            product_expectation(w_state(2, [0, 0]), [0.1], phases_for(2))
        with pytest.raises(ValueError, match="phases"):
            product_expectation(w_state(2, [0, 0]), [0.1, 0.2], phases_for(3))

    def test_mixture_averaging(self):
        # half excited-1, half excited-2 equals the hand-built average
        n = 2
        e1 = np.zeros(4, dtype=complex)
        e1[0b10] = 1.0
        e2 = np.zeros(4, dtype=complex)
        e2[0b01] = 1.0
        mix = EmitterState.mixture([(0.5, e1), (0.5, e2)])
        g = [0.8, -0.3]
        ph = phases_for(2)
        avg = 0.5 * (dense_product_expectation(EmitterState.pure(e1), g, ph)
                     + dense_product_expectation(EmitterState.pure(e2), g, ph))
        assert product_expectation(mix, g, ph) == pytest.approx(avg, abs=1e-14)


class TestBatchedProductExpectation:
    """A batch of angle vectors gives, element for element, the scalar call's bits."""

    @staticmethod
    def states(n, rng):
        vecs = [rng.normal(size=2**n) + 1j * rng.normal(size=2**n) for _ in range(2)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        return (w_state(n, rng.uniform(-3, 3, n)), classical_mixture(n),
                EmitterState.pure(vecs[0]),
                EmitterState.mixture([(0.4, vecs[0]), (0.6, vecs[1])]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(7,), (3, 5)])
    def test_rows_equal_scalar_calls(self, n, shape):
        rng = np.random.default_rng(10 * n + len(shape))
        ph = phases_for(n)
        g = rng.uniform(-2, 2, shape + (n,))
        g[..., 0, :] = 0.0                        # all-zero angle vectors
        g[(rng.random(shape + (n,)) < 0.3)] = 0.0  # some emitters off in some rows
        if n > 1:
            g[..., -1] = 0.0                      # a column gated out of every row
        for state in self.states(n, rng):
            got = product_expectation(state, g, ph)
            assert got.shape == shape
            expect = [product_expectation(state, row, ph) for row in g.reshape(-1, n)]
            assert all(isinstance(v, float) for v in expect)
            assert np.array_equal(got, np.reshape(expect, shape))

    def test_batch_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="angles"):
            product_expectation(w_state(2, [0, 0]), np.zeros((4, 3)), phases_for(2))


class TestStackedStates:
    """A (B, 2^n) stack of pure states gives, row for row, the bits of one call per state."""

    @staticmethod
    def assert_rows_equal(stack, states, ph, rng):
        n = len(ph)
        corr = pair_correlation(stack, ph)
        assert corr.shape == (len(states), n, n)
        for row, state in zip(corr, states):
            assert row.tobytes() == pair_correlation(state, ph).tobytes()
        g = rng.uniform(-2, 2, (3, 2, n))
        g[0] = 0.0                                 # no emitter turns
        g[1, 0, 0] = 0.0                           # one emitter off in one angle vector
        for angles in (g[2, 1], g, g[:1]):
            got = product_expectation(stack, angles, ph)
            assert got.shape == (len(states),) + angles.shape[:-1]
            expect = np.array([product_expectation(state, angles, ph) for state in states])
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_w_states(self, n):
        rng = np.random.default_rng(40 + n)
        thetas = rng.uniform(-3, 3, (5, n))
        self.assert_rows_equal(_w_amplitudes(n, thetas), [w_state(n, t) for t in thetas],
                               phases_for(n), rng)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mixture(self, n):
        rng = np.random.default_rng(50 + n)
        ph = phases_for(n)
        vecs = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        weights = (0.2, 0.5, 0.3)
        mix = EmitterState.mixture(zip(weights, vecs))
        stack = np.array([vec for _, vec in mix.vectors()])
        self.assert_rows_equal(stack, [EmitterState.pure(vec) for vec in stack], ph, rng)
        # the mixture weights its components' values in component order
        g = rng.uniform(-2, 2, n)
        expect = 0.0
        for w, value in zip(weights, product_expectation(stack, g, ph).tolist()):
            expect += w * value
        assert product_expectation(mix, g, ph) == expect
        # and symmetrises the weighted sum of their Gram matrices, written out
        total = np.zeros((n, n))
        for w, vec in mix.vectors():
            flipped = np.array([apply_monopole(vec, ph, i) for i in range(n)])
            total += w * (flipped.conj() @ flipped.T).real
        total = 0.5 * (total + total.T)
        np.fill_diagonal(total, 1.0)
        assert pair_correlation(mix, ph).tobytes() == total.tobytes()

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError, match="stack"):
            pair_correlation(np.ones((2, 3)), phases_for(2))
        with pytest.raises(ValueError, match="stack"):
            product_expectation(np.ones(4), [0.1, 0.2], phases_for(2))


def looped_fold(rows, weights):
    if weights is None:
        return rows
    total = np.zeros(rows.shape[1:])
    for w, row in zip(weights, rows):
        total += w * row
    return total


def looped_pair_correlation(stack, weights, ph):
    """pair_correlation with its Gram matrices formed one vector at a time."""
    n = len(ph)
    perm, factor = _flip_tables(tuple(ph))
    flipped = factor * stack[:, perm]
    total = looped_fold(np.array([(f.conj() @ f.T).real for f in flipped]), weights)
    total = 0.5 * (total + np.swapaxes(total, -1, -2))
    total[..., range(n), range(n)] = 1.0
    return total


def looped_product_expectation(stack, weights, g, ph):
    """product_expectation with one np.vdot per vector and angle vector."""
    perm, factor = _flip_tables(tuple(ph))
    batch, cos, isin = g.shape[:-1], np.cos(g)[..., None], 1j * np.sin(g)[..., None]
    work = stack.reshape(stack.shape[:1] + (1,) * len(batch) + stack.shape[1:])
    for i in range(len(ph)):
        work = cos[..., i, :] * work + isin[..., i, :] * (factor[i] * work[..., perm[i]])
    rows = np.empty(stack.shape[:1] + batch)
    work = np.broadcast_to(work, rows.shape + stack.shape[1:])
    for k in np.ndindex(rows.shape):
        rows[k] = np.vdot(stack[k[0]], work[k]).real
    return np.clip(looped_fold(rows, weights), -1.0, 1.0)  # as the library clips |E| <= 1


def hexes(values):
    return [float.hex(v) for v in np.ravel(values).tolist()]


class TestStackedReductions:
    """One stacked matmul per reduction has the bits of the per-vector np.vdot and Gram forms."""

    @staticmethod
    def unit_vectors(rng, count, n):
        vecs = rng.normal(size=(count, 2**n)) + 1j * rng.normal(size=(count, 2**n))
        return vecs / np.linalg.norm(vecs, axis=1)[:, None]

    @staticmethod
    def angles(rng, n):
        g = rng.uniform(-2, 2, (3, 2, n))
        g[0] = 0.0         # no emitter turns
        g[1, 0, :1] = 0.0  # one emitter off in one angle vector
        return g

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])  # n = 0: the one-amplitude register
    def test_stack_of_pure_states(self, n):
        rng = np.random.default_rng(90 + n)
        ph, stack = phases_for(n), self.unit_vectors(rng, 5, n)
        assert hexes(pair_correlation(stack, ph)) == hexes(
            looped_pair_correlation(stack, None, ph))
        for g in (self.angles(rng, n), rng.uniform(-2, 2, n)):
            assert hexes(product_expectation(stack, g, ph)) == hexes(
                looped_product_expectation(stack, None, g, ph))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_mixture(self, n):
        rng = np.random.default_rng(100 + n)
        ph, weights = phases_for(n), (0.2, 0.5, 0.3)
        mix = EmitterState.mixture(zip(weights, self.unit_vectors(rng, 3, n)))
        stack = np.array([vec for _, vec in mix.vectors()])
        assert hexes(pair_correlation(mix, ph)) == hexes(
            looped_pair_correlation(stack, weights, ph))
        for g in (self.angles(rng, n), rng.uniform(-2, 2, n)):
            assert hexes(product_expectation(mix, g, ph)) == hexes(
                looped_product_expectation(stack, weights, g, ph))

    def test_check_norm_names_the_first_offending_row(self):
        rng = np.random.default_rng(110)
        stack = self.unit_vectors(rng, 6, 3)
        _check_norm(stack)
        _check_norm(stack[None])  # any leading shape
        stack[3] *= 1.1
        stack[5] *= 0.5
        norm = math.sqrt(np.vdot(stack[3], stack[3]).real)
        with pytest.raises(ValidationError) as err:
            _check_norm(stack)
        assert err.value.message == f"component norm {norm!r} != 1"
        stack[3, 0] = math.nan
        with pytest.raises(ValidationError, match="component norm nan != 1"):
            _check_norm(stack)


@pytest.mark.parametrize("n", [1, 3])
def test_phases_as_tuple_list_or_array_give_the_same_bits(n):
    # the tables are keyed by the phases as floats, whatever sequence holds them
    rng = np.random.default_rng(70 + n)
    ph = phases_for(n)
    state = w_state(n, rng.uniform(0, 2 * math.pi, n))
    g = rng.uniform(-2, 2, (4, n))
    results = []
    for form in (ph, list(ph), np.array(ph), list(np.array(ph))):
        _flip_tables.cache_clear()
        results.append((pair_correlation(state, form).tobytes(),
                         product_expectation(state, g, form).tobytes()))
    assert results[1:] == results[:1] * 3
