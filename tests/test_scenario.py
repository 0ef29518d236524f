import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qshock.scenario import (MAX_EMITTERS, Detector, EmitterState, Scenario, SchemaError,
                             ValidationError, classical_mixture, load_scenario,
                             scenario_fingerprint, w_state)

from conftest import four_emitter_config, three_emitter_config

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "schemas" / "scenario.schema.json"


class TestDetector:
    def test_defaults(self):
        d = Detector((0, 0, 0), 1.0, 1.0)
        assert d.smearing_radius == 0.5
        assert d.gap == 2.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError, match="smearing_radius"):
            Detector((0, 0, 0), 1.0, 1.0, smearing_radius=-0.1)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValidationError, match="coupling_strength"):
            Detector((0, 0, 0), 1.0, -0.5)

    def test_immutable(self):
        d = Detector((0, 0, 0), 1.0, 1.0)
        with pytest.raises(Exception):
            d.coupling_time = 2.0


class TestWState:
    def test_single_qubit_is_excited_state(self):
        state = w_state(1, [0.0])
        (w, vec), = state.components
        assert w == 1.0
        assert vec == (0j, 1 + 0j)  # index 1 = |e>

    def test_three_equal_phases(self):
        state = w_state(3, [0.0, 0.0, 0.0])
        vec = np.array(state.components[0][1])
        amp = 1.0 / math.sqrt(3.0)
        # emitter 1 = MSB: |egg> = 4, |geg> = 2, |gge> = 1
        assert vec[4] == pytest.approx(amp)
        assert vec[2] == pytest.approx(amp)
        assert vec[1] == pytest.approx(amp)
        assert np.count_nonzero(vec) == 3

    def test_four_with_pi_pattern(self):
        state = w_state(4, [0.0, 0.0, math.pi, math.pi])
        vec = np.array(state.components[0][1])
        assert vec[8] == pytest.approx(0.5)
        assert vec[4] == pytest.approx(0.5)
        assert vec[2] == pytest.approx(-0.5)
        assert vec[1] == pytest.approx(-0.5)

    def test_zero_emitters_rejected(self):
        with pytest.raises(ValueError):
            w_state(0, [])

    @pytest.mark.parametrize("phases", [[0.0, 1.0], [0.0] * 4, [[0.0, 1.0, 2.0]]])
    def test_phase_count_must_match(self, phases):
        with pytest.raises(ValueError, match="expected 3 phases"):
            w_state(3, phases)

    @given(n=st.integers(1, 8),
           data=st.data())
    def test_unit_norm_for_all_phases(self, n, data):
        phases = data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
        vec = np.array(w_state(n, phases).components[0][1])
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    @given(n=st.integers(1, 8), data=st.data())
    def test_amplitudes_equal_per_element_conversion(self, n, data):
        # the stored amplitudes are exactly complex(a) of the numpy W vector
        phases = data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
        vec = np.zeros(2**n, dtype=complex)
        for m, theta in enumerate(phases):
            vec[1 << (n - 1 - m)] = np.exp(1j * theta) / math.sqrt(n)
        (w, stored), = w_state(n, phases).components
        assert w == 1.0 and len(stored) == 2**n
        for got, a in zip(stored, vec):
            assert type(got) is complex
            want = complex(a)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


class TestClassicalMixture:
    def test_single(self):
        state = classical_mixture(1)
        assert len(state.components) == 1
        assert state.components[0][0] == 1.0

    def test_three_components(self):
        state = classical_mixture(3)
        assert len(state.components) == 3
        assert all(w == pytest.approx(1 / 3) for w, _ in state.components)

    def test_components_match_w_state_support(self):
        # mixture components sit exactly on the superposition's support
        n = 4
        mix = classical_mixture(n)
        wvec = np.array(w_state(n, [0.3, 1.1, -0.4, 2.2]).components[0][1])
        support = set(np.flatnonzero(np.abs(wvec) > 0).tolist())
        for _, vec in mix.components:
            idx = int(np.flatnonzero(np.abs(np.array(vec)) > 0)[0])
            assert idx in support
        assert sum(w for w, _ in mix.components) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classical_mixture(0)


class TestEmitterState:
    def test_norm_enforced(self):
        with pytest.raises(ValidationError, match="norm"):
            EmitterState.pure([0.5, 0.5])

    def test_weights_must_sum_to_one(self):
        good = np.array([1.0, 0.0])
        with pytest.raises(ValidationError, match="weights"):
            EmitterState.mixture([(0.6, good), (0.6, good)])

    @pytest.mark.parametrize("weight, amplitudes", [
        (math.nan, [1.0, 0.0]), (1.0, [math.nan, 0.0]), (1.0, [complex(0.0, math.nan), 1.0]),
        (math.inf, [1.0, 0.0]), (1.0, [math.inf, 0.0])])
    def test_non_finite_weight_or_amplitude_rejected(self, weight, amplitudes):
        with pytest.raises(ValidationError):
            EmitterState.mixture([(weight, amplitudes)])

    def test_non_finite_evaluation_time_rejected(self):
        emitter = Detector((0.0, 0.0, 0.0), 0.0, 1.0)
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="evaluation_time"):
                Scenario((emitter,), emitter, w_state(1, [0.0]), t)

    def test_vectors_are_the_amplitudes_read_only(self):
        state = EmitterState.mixture([(0.25, [0.6, 0.8j]), (0.75, np.array([1.0, 0.0]))])
        for (w, vec), (weight, amplitudes) in zip(state.vectors(), state.components):
            assert w == weight and vec.dtype == complex and vec.tolist() == list(amplitudes)
            with pytest.raises(ValueError):
                vec[0] = 0.0

    def test_amplitudes_stored_as_python_complex(self):
        amps = np.array([0.6, 0.8j])
        for state in (EmitterState.pure(amps), EmitterState.pure(a for a in amps),
                      EmitterState.mixture([(1.0, amps)]),
                      EmitterState(((1, [0.6, 0.8j]),))):
            (w, stored), = state.components
            assert type(w) is float and stored == (0.6 + 0j, 0.8j)
            assert all(type(a) is complex for a in stored)


def test_monopole_phases_are_gap_times_coupling_time():
    emitters = (Detector((0.0, 0.0, 0.0), 1.5, 1.0, gap=2.0),
                Detector((1.0, 0.0, 0.0), 0.25, 1.0, gap=3.0),
                Detector((2.0, 0.0, 0.0), -0.5, 1.0))
    scn = Scenario(emitters, emitters[0], w_state(3, [0.0, 0.0, 0.0]), 4.0)
    assert scn.monopole_phases == (3.0, 0.75, -1.0)
    assert Scenario((), emitters[0], EmitterState.pure([1.0]), 4.0).monopole_phases == ()


class TestLoadScenario:
    def test_three_emitter_example(self):
        scn = load_scenario(three_emitter_config())
        assert scn.n_emitters == 3
        assert [e.position[0] for e in scn.emitters] == [5.0, 6.5, 8.0]
        assert [e.coupling_time for e in scn.emitters] == [1.0, 2.0, 3.0]
        assert all(e.coupling_strength == 1.0 for e in scn.emitters)
        assert all(e.gap == 2.0 for e in scn.emitters)          # default applied
        assert all(e.smearing_radius == 0.5 for e in scn.emitters)
        assert scn.evaluation_time == 8.0

    def test_vacuum_scenario(self):
        cfg = json.dumps({
            "receiver": {"position": [0, 0, 0], "time": 1.0, "lambda": 2.0},
            "evaluation_time": 2.0})
        scn = load_scenario(cfg)
        assert scn.n_emitters == 0
        assert len(scn.emitter_state.components[0][1]) == 1

    @pytest.mark.parametrize("state_type", ["w", "classical"])
    def test_register_cap_checked_before_any_state_is_built(self, monkeypatch, state_type):
        import time
        import qshock.emitters
        import qshock.scenario

        def built(*_):  # a regression fails here, before the 2^25 amplitudes are written
            raise AssertionError("an amplitude vector was built")

        monkeypatch.setattr(qshock.scenario, "_single_excitation_index", built)
        cfg = json.loads(three_emitter_config(state_type))
        cfg["emitters"] = [{"position": [0.5 * i, 0.0, 0.0], "time": 1.0, "lambda": 1.0}
                           for i in range(MAX_EMITTERS + 1)]
        if state_type == "w":
            cfg["state"]["phases"] = [0.0] * (MAX_EMITTERS + 1)
        t0 = time.perf_counter()
        with pytest.raises(ValidationError, match="cap of 24") as refused:
            load_scenario(json.dumps(cfg))
        assert refused.value.field == "emitters"
        assert qshock.emitters.MAX_EMITTERS == MAX_EMITTERS == 24  # still importable there
        for build in (lambda: w_state(25, [0.0] * 25), lambda: classical_mixture(25)):
            with pytest.raises(ValidationError, match="cap of 24"):
                build()
        assert time.perf_counter() - t0 < 1.0

    def test_negative_radius_names_field(self):
        cfg = json.dumps({
            "emitters": [{"position": [0, 0, 0], "time": 0, "lambda": 1,
                          "radius": -1}],
            "receiver": {"position": [1, 0, 0], "time": 1, "lambda": 1},
            "state": {"type": "w", "phases": [0]},
            "evaluation_time": 2})
        with pytest.raises(ValidationError, match=r"emitters\[0\].smearing_radius"):
            load_scenario(cfg)

    def test_invalid_json_reports_line(self):
        with pytest.raises(SchemaError, match="line"):
            load_scenario("{\n  broken\n}")

    def test_unknown_field_rejected(self):
        cfg = json.dumps({
            "receiver": {"position": [0, 0, 0], "time": 1, "lambda": 1},
            "evaluation_time": 2, "typo_field": 1})
        with pytest.raises(SchemaError, match="typo_field"):
            load_scenario(cfg)

    def test_phase_count_mismatch(self):
        cfg = json.dumps({
            "emitters": [{"position": [0, 0, 0], "time": 0, "lambda": 1}],
            "receiver": {"position": [1, 0, 0], "time": 1, "lambda": 1},
            "state": {"type": "w", "phases": [0, 0]},
            "evaluation_time": 2})
        with pytest.raises(SchemaError, match="phases"):
            load_scenario(cfg)

    def test_pure_state_roundtrip(self):
        amp = 1 / math.sqrt(2)
        cfg = json.dumps({
            "emitters": [{"position": [0, 0, 0], "time": 0, "lambda": 1}],
            "receiver": {"position": [1, 0, 0], "time": 1, "lambda": 1},
            "state": {"type": "pure", "amplitudes": [[amp, 0], [0, amp]]},
            "evaluation_time": 2})
        scn = load_scenario(cfg)
        vec = np.array(scn.emitter_state.components[0][1])
        assert vec[0] == pytest.approx(amp)
        assert vec[1] == pytest.approx(amp * 1j)

    def test_bundled_scenarios_parse(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[1] / "scenarios"
        for cfg in sorted(root.glob("*.cfg")):
            scn = load_scenario(cfg.read_text())
            assert scn.receiver.coupling_strength == 2.0

    def test_serialized_form_roundtrips(self):
        from pathlib import Path
        repo = Path(__file__).resolve().parents[1]
        for cfg in sorted((repo / "scenarios").glob("*.cfg")):
            scn = load_scenario(cfg.read_text())
            again = load_scenario(json.dumps(scn.to_config_dict()))
            assert scenario_fingerprint(again) == scenario_fingerprint(scn), cfg.name
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((repo / "schemas" / "scenario.schema.json").read_text())
        for cfg in sorted((repo / "scenarios").glob("*.cfg")):
            jsonschema.validate(load_scenario(cfg.read_text()).to_config_dict(), schema)

    def test_serialized_form_rejects_malformed_components(self):
        base = json.loads(four_emitter_config(state_type="classical"))
        mixture = load_scenario(json.dumps(base)).to_config_dict()["state"]
        for state, field in (({**mixture, "type": "pure"}, "components"),
                             ({"type": "mixture", "components": []}, "components"),
                             ({"type": "mixture"}, "components")):
            with pytest.raises(SchemaError, match=field):
                load_scenario(json.dumps({**base, "state": state}))
        heavy = [{**c, "weight": 0.5} for c in mixture["components"]]
        with pytest.raises(ValidationError, match="weights sum"):
            load_scenario(json.dumps({**base, "state": {"type": "mixture",
                                                        "components": heavy}}))


class TestFingerprint:
    def test_deterministic_and_sensitive(self):
        a = load_scenario(three_emitter_config())
        b = load_scenario(three_emitter_config())
        c = load_scenario(three_emitter_config(phases=(0.0, 0.0, 0.1)))
        assert scenario_fingerprint(a) == scenario_fingerprint(b)
        assert scenario_fingerprint(a) != scenario_fingerprint(c)


# ----------------------------------------------------------------------
# generated configurations: 0-4 emitters, every state form
# ----------------------------------------------------------------------

_coord = st.floats(-50.0, 50.0, allow_nan=False)


@st.composite
def _detector_configs(draw):
    cfg = {"position": [draw(_coord) for _ in range(3)], "time": draw(_coord),
           "lambda": draw(st.floats(0.0, 20.0))}
    if draw(st.booleans()):
        cfg["gap"] = draw(_coord)
    if draw(st.booleans()):
        cfg["radius"] = draw(st.floats(1e-3, 5.0))
    return cfg


@st.composite
def _unit_amplitudes(draw, n):
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2**(n + 1), max_size=2**(n + 1)))
    norm = math.sqrt(sum(v * v for v in parts))
    assume(norm > 1e-3)
    return [[parts[2 * i] / norm, parts[2 * i + 1] / norm] for i in range(2**n)]


@st.composite
def _state_configs(draw, n):
    forms = ["pure", "pure-components", "mixture"] + (["w", "classical"] if n else ["none"])
    form = draw(st.sampled_from(forms))
    if form == "none":
        return None
    if form == "w":
        return {"type": "w", "phases": [draw(st.floats(-10.0, 10.0)) for _ in range(n)]}
    if form == "classical":
        return {"type": "classical"}
    if form == "pure":
        return {"type": "pure", "amplitudes": draw(_unit_amplitudes(n))}
    count = 1 if form == "pure-components" else draw(st.integers(1, 3))
    raw = [draw(st.floats(0.01, 1.0)) for _ in range(count)]
    return {"type": "pure" if form == "pure-components" else "mixture",
            "components": [{"weight": w / sum(raw), "amplitudes": draw(_unit_amplitudes(n))}
                           for w in raw]}


@st.composite
def scenario_configs(draw):
    n = draw(st.integers(0, 4))
    cfg = {"emitters": [draw(_detector_configs()) for _ in range(n)],
           "receiver": draw(_detector_configs()), "evaluation_time": draw(_coord)}
    state = draw(_state_configs(n))
    if state is not None:
        cfg["state"] = state
    return cfg


class TestGeneratedRoundTrip:
    @given(cfg=scenario_configs())
    @settings(max_examples=150, deadline=None)
    def test_serialized_form_reloads_equal(self, cfg):
        scenario = load_scenario(json.dumps(cfg))
        again = load_scenario(json.dumps(scenario.to_config_dict()))
        assert again == scenario
        assert scenario_fingerprint(again) == scenario_fingerprint(scenario)

    @pytest.fixture(scope="class")
    def validator(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        return jsonschema.validators.validator_for(schema)(schema)

    @given(cfg=scenario_configs())
    @settings(max_examples=150, deadline=None)
    def test_generated_and_serialized_forms_match_schema(self, validator, cfg):
        validator.validate(cfg)
        validator.validate(load_scenario(json.dumps(cfg)).to_config_dict())
