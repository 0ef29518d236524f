"""Data model for emitters, receiver, initial states, and run configuration.

Conventions (natural units, hbar = c = 1):
  * every detector is a two-level system at rest, delta-coupled at its
    coupling instant and smeared over a uniform ball (default radius 1/2,
    default energy gap 2);
  * amplitude vectors over n emitters use the energy eigenbasis with
    emitter 1 as the most significant qubit and bit value 1 = excited,
    so e.g. |e g g> is index 0b100.

Scenarios are immutable after construction.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValidationError",
    "SchemaError",
    "Detector",
    "EmitterState",
    "Scenario",
    "w_state",
    "classical_mixture",
    "load_scenario",
    "load_scenario_file",
    "scenario_fingerprint",
    "MAX_EMITTERS",
]

DEFAULT_RADIUS = 0.5
DEFAULT_GAP = 2.0
MAX_EMITTERS = 24  # amplitude vectors hold 2^n complex numbers

_NORM_TOL = 1e-12


class ValidationError(ValueError):
    """A scenario value violates an invariant; `field` names the offender."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.message = message


class SchemaError(ValidationError):
    """The configuration text does not conform to the documented schema."""


@dataclass(frozen=True)
class Detector:
    """A localized two-level system: where, when, and how strongly it couples."""

    position: tuple[float, float, float]
    coupling_time: float
    coupling_strength: float
    gap: float = DEFAULT_GAP
    smearing_radius: float = DEFAULT_RADIUS

    def __post_init__(self):
        pos = tuple(float(c) for c in self.position)
        if len(pos) != 3 or not all(math.isfinite(c) for c in pos):
            raise ValidationError("position", "must be a finite 3-vector")
        object.__setattr__(self, "position", pos)
        for name in ("coupling_time", "coupling_strength", "gap", "smearing_radius"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(name, "must be finite")
        if self.smearing_radius <= 0:
            raise ValidationError("smearing_radius", "must be > 0")
        if self.coupling_strength < 0:
            raise ValidationError("coupling_strength", "must be >= 0")


@dataclass(frozen=True)
class EmitterState:
    """Pure amplitude vector over the emitters, or a weighted ensemble of them.

    `components` holds (weight, amplitudes) pairs; a pure state is the
    single pair with weight 1.  Amplitude tuples have length 2^n and hold
    Python complex numbers; vectors() serves the same amplitudes as arrays,
    converted once here.
    """

    components: tuple[tuple[float, tuple[complex, ...]], ...]

    def __post_init__(self):
        if not self.components:
            raise ValidationError("state", "needs at least one component")
        dim = len(self.components[0][1])
        if dim < 1 or dim & (dim - 1):
            raise ValidationError("state", f"amplitude length {dim} is not a power of two")
        total = 0.0
        frozen, arrays = [], []
        for w, vec in self.components:
            w = float(w)
            if not w >= 0:  # NaN-safe comparisons, here and below
                raise ValidationError("state", "mixture weights must be >= 0")
            if len(vec) != dim:
                raise ValidationError("state", "mixture components differ in length")
            array = np.array(vec, dtype=complex)
            with np.errstate(invalid="ignore"):  # an infinite amplitude: its norm is NaN
                _check_norm(array)
            total += w
            array.setflags(write=False)
            frozen.append((w, tuple(array.tolist())))
            arrays.append((w, array))
        if not abs(total - 1.0) <= _NORM_TOL:
            raise ValidationError("state", f"mixture weights sum to {total!r} != 1")
        object.__setattr__(self, "components", tuple(frozen))
        object.__setattr__(self, "_vectors", tuple(arrays))

    @property
    def n_emitters(self) -> int:
        return int(math.log2(len(self.components[0][1])))

    def vectors(self):
        """Iterate over (weight, complex ndarray) pairs; the arrays are read-only."""
        return iter(self._vectors)

    # __post_init__ converts every amplitude to complex; these only collect them
    @staticmethod
    def pure(amplitudes) -> "EmitterState":
        return EmitterState(((1.0, tuple(amplitudes)),))

    @staticmethod
    def mixture(pairs) -> "EmitterState":
        return EmitterState(tuple((float(w), tuple(vec)) for w, vec in pairs))


def _check_norm(vecs: np.ndarray) -> None:
    """Raise unless each vector of vecs (..., 2^n) has norm 1 within _NORM_TOL (np.vdot's bits)."""
    for square in (vecs.conj()[..., None, :] @ vecs[..., None]).real.ravel().tolist():
        norm = math.sqrt(square)
        if not abs(norm - 1.0) <= _NORM_TOL:  # NaN-safe
            raise ValidationError("state", f"component norm {norm!r} != 1")


def _check_register(n: int) -> None:
    """Refuse more than MAX_EMITTERS emitters before any 2^n-amplitude array exists."""
    if n > MAX_EMITTERS:
        raise ValidationError("emitters", f"{n} emitters exceed the state-vector "
                                          f"register's cap of {MAX_EMITTERS}")


def _single_excitation_index(n: int, m: int) -> int:
    # emitter m (1-based) excited, all others ground; emitter 1 is the MSB
    return 1 << (n - m)


def w_state(n: int, phases) -> EmitterState:
    """Equal-weight single-excitation superposition with per-emitter phases.

    Amplitude exp(i theta_m)/sqrt(n) sits on the basis state where exactly
    emitter m is excited.
    """
    if n < 1:
        raise ValueError("w_state needs n >= 1")
    _check_register(n)
    thetas = np.asarray(phases, dtype=float)
    if thetas.shape != (n,):
        raise ValueError(f"expected {n} phases, got {thetas.size}")
    return EmitterState(((1.0, _w_amplitudes(n, thetas)),))


def _w_amplitudes(n: int, thetas: np.ndarray) -> np.ndarray:
    """W-state amplitude vectors (..., 2^n) of phase vectors thetas (..., n)."""
    vec = np.zeros(thetas.shape[:-1] + (2**n,), dtype=complex)
    vec[..., _single_excitation_index(n, np.arange(1, n + 1))] = \
        np.exp(1j * thetas) / math.sqrt(n)
    return vec


def classical_mixture(n: int) -> EmitterState:
    """Incoherent counterpart of the single-excitation superposition: weight 1/n each."""
    if n < 1:
        raise ValueError("classical_mixture needs n >= 1")
    _check_register(n)
    pairs = []
    for m in range(1, n + 1):
        vec = np.zeros(2**n, dtype=complex)
        vec[_single_excitation_index(n, m)] = 1.0
        pairs.append((1.0 / n, vec.tolist()))
    return EmitterState.mixture(pairs)


@dataclass(frozen=True)
class Scenario:
    """Emitters, receiver, initial emitter state, and the evaluation time."""

    emitters: tuple[Detector, ...]
    receiver: Detector
    emitter_state: EmitterState
    evaluation_time: float

    def __post_init__(self):
        object.__setattr__(self, "emitters", tuple(self.emitters))
        object.__setattr__(self, "evaluation_time", float(self.evaluation_time))
        if not math.isfinite(self.evaluation_time):
            raise ValidationError("evaluation_time", "must be finite")
        n = len(self.emitters)
        dim = len(self.emitter_state.components[0][1])
        if dim != 2**n:
            raise ValidationError(
                "state", f"amplitude length {dim} does not match {n} emitters")

    @property
    def n_emitters(self) -> int:
        return len(self.emitters)

    @property
    def monopole_phases(self) -> tuple[float, ...]:
        """Omega_i t_i per emitter: the phases of the monopole operators (emitters)."""
        return tuple(e.gap * e.coupling_time for e in self.emitters)

    def with_receiver(self, receiver: Detector) -> "Scenario":
        return Scenario(self.emitters, receiver, self.emitter_state, self.evaluation_time)

    def with_state(self, state: EmitterState) -> "Scenario":
        return Scenario(self.emitters, self.receiver, state, self.evaluation_time)

    def to_config_dict(self) -> dict:
        def det(d: Detector) -> dict:
            return {"position": list(d.position), "time": d.coupling_time,
                    "lambda": d.coupling_strength, "gap": d.gap,
                    "radius": d.smearing_radius}

        state = {"type": "pure" if len(self.emitter_state.components) == 1 else "mixture",
                 "components": [{"weight": w, "amplitudes": [[a.real, a.imag] for a in vec]}
                                for w, vec in self.emitter_state.components]}
        return {"emitters": [det(e) for e in self.emitters],
                "receiver": det(self.receiver),
                "state": state,
                "evaluation_time": self.evaluation_time}


# ----------------------------------------------------------------------
# configuration parsing
# ----------------------------------------------------------------------

def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SchemaError(f"{where}.{key}" if where else key, "missing required field")
    return mapping[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(where, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):  # json.loads accepts NaN and Infinity too
        raise SchemaError(where, f"expected a finite number, got {number!r}")
    return number


def _detector_from(cfg, where: str) -> Detector:
    if not isinstance(cfg, dict):
        raise SchemaError(where, "expected an object")
    known = {"position", "time", "lambda", "gap", "radius"}
    for key in cfg:
        if key not in known:
            raise SchemaError(f"{where}.{key}", "unknown field")
    pos = _require(cfg, "position", where)
    if not isinstance(pos, list) or len(pos) != 3:
        raise SchemaError(f"{where}.position", "expected [x, y, z]")
    position = tuple(_number(c, f"{where}.position[{i}]") for i, c in enumerate(pos))
    time = _number(_require(cfg, "time", where), f"{where}.time")
    lam = _number(_require(cfg, "lambda", where), f"{where}.lambda")
    gap = _number(cfg.get("gap", DEFAULT_GAP), f"{where}.gap")
    radius = _number(cfg.get("radius", DEFAULT_RADIUS), f"{where}.radius")
    try:
        return Detector(position, time, lam, gap, radius)
    except ValidationError as exc:
        raise ValidationError(f"{where}.{exc.field}", exc.message) from None


def _state_from(cfg, n: int) -> EmitterState:
    _check_register(n)
    if cfg is None:
        if n == 0:
            return EmitterState.pure([1.0])
        raise SchemaError("state", "required when emitters are present")
    if not isinstance(cfg, dict):
        raise SchemaError("state", "expected an object")
    kind = _require(cfg, "type", "state")
    if kind == "w":
        phases = cfg.get("phases", [0.0] * n)
        if not isinstance(phases, list):
            raise SchemaError("state.phases", "expected a list of angles")
        if len(phases) != n:
            raise SchemaError("state.phases", f"expected {n} angles, got {len(phases)}")
        if n == 0:
            raise SchemaError("state.type", "w state needs at least one emitter")
        return w_state(n, [_number(t, f"state.phases[{i}]") for i, t in enumerate(phases)])
    if kind == "classical":
        if n == 0:
            raise SchemaError("state.type", "classical mixture needs at least one emitter")
        return classical_mixture(n)
    if kind == "pure" and "amplitudes" in cfg:
        where = "state.amplitudes"
        pairs = [(1.0, _amplitudes_from(cfg["amplitudes"], where, n))]
    elif kind in ("pure", "mixture"):
        # the form Scenario.to_config_dict emits: weighted amplitude vectors
        where = "state.components"
        comps = _require(cfg, "components", "state")
        if not isinstance(comps, list) or not comps or (kind == "pure" and len(comps) != 1):
            raise SchemaError(where, "expected one component for a pure state, "
                                     "at least one for a mixture")
        pairs = []
        for i, comp in enumerate(comps):
            at = f"{where}[{i}]"
            if not isinstance(comp, dict) or set(comp) != {"weight", "amplitudes"}:
                raise SchemaError(at, "expected an object with weight and amplitudes")
            pairs.append((_number(comp["weight"], f"{at}.weight"),
                          _amplitudes_from(comp["amplitudes"], f"{at}.amplitudes", n)))
    else:
        raise SchemaError("state.type", f"unknown state type {kind!r}")
    try:
        return EmitterState.mixture(pairs)
    except ValidationError as exc:
        raise ValidationError(where, exc.message) from None


def _amplitudes_from(amps, where: str, n: int) -> list[complex]:
    if not isinstance(amps, list) or len(amps) != 2**n:
        raise SchemaError(where, f"expected 2^{n} [re, im] pairs")
    vec = []
    for i, pair in enumerate(amps):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{where}[{i}]", "expected [re, im]")
        vec.append(complex(_number(pair[0], f"{where}[{i}][0]"),
                           _number(pair[1], f"{where}[{i}][1]")))
    return vec


def load_scenario(config_text: str) -> Scenario:
    """Parse and validate a JSON scenario configuration.

    Raises SchemaError with the offending field path (or JSON line/column)
    on malformed input, ValidationError on invariant violations.
    """
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<config>", f"invalid JSON at line {exc.lineno}, "
                                      f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise SchemaError("<config>", "top level must be an object")
    known = {"emitters", "receiver", "state", "evaluation_time"}
    for key in raw:
        if key not in known:
            raise SchemaError(key, "unknown top-level field")
    emitters_cfg = raw.get("emitters", [])
    if not isinstance(emitters_cfg, list):
        raise SchemaError("emitters", "expected a list")
    emitters = tuple(_detector_from(cfg, f"emitters[{i}]")
                     for i, cfg in enumerate(emitters_cfg))
    receiver = _detector_from(_require(raw, "receiver", ""), "receiver")
    state = _state_from(raw.get("state"), len(emitters))
    eval_time = _number(_require(raw, "evaluation_time", ""), "evaluation_time")
    return Scenario(emitters, receiver, state, eval_time)


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def scenario_fingerprint(scenario: Scenario, extra: dict | None = None) -> str:
    """Deterministic sha256 of the canonical configuration (plus run settings)."""
    payload = scenario.to_config_dict()
    if extra:
        payload = {"scenario": payload, "settings": extra}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                       default=lambda o: repr(o))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
