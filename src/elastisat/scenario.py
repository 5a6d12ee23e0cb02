"""YAML scenario files: schema validation and initial-condition construction.

A scenario fixes the body, material, viscosity, initial condition,
integrator settings and classifier thresholds.  Validation is strict:
unknown keys anywhere are rejected so a typo cannot silently fall back
to a default.  The canonical JSON form of the document (sorted keys)
is what gets hashed into run manifests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

import numpy as np
import yaml
from scipy.spatial.transform import Rotation

from .body_model import DeformationState, ReferenceBody, build_ellipsoid_body, rigid_state
from .classifier import CaptureThresholds
from .dissipation import ViscosityParams
from .dynamics import IntegratorSettings
from .energetics import MaterialParams
from .errors import ConfigError, InvalidParameterError

_TOP_KEYS = {"name", "seed", "body", "material", "viscosity", "initial", "integrator", "classifier"}
_BODY_KEYS = {"semi_axes", "density", "basis_degree", "quadrature_order"}
_INITIAL_KEYS = {
    "explicit": {"kind", "q", "qdot"},
    "orbital": {
        "kind", "orbit_radius", "spin_rate", "spin_factor", "tangential_factor",
        "radial_velocity", "spin_axis", "rotation_angle", "strain", "jitter",
    },
    "equilibrium": {"kind", "L0", "orbit_radius", "perturbation", "spin_boost"},
}


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(node).__name__}")
    return node


def _check_keys(mapping: dict, allowed: set, path: str):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} under {path}; allowed: {sorted(allowed)}")


def _as_float(mapping: dict, key: str, path: str, default=None):
    if key not in mapping:
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise ConfigError(f"{path}.{key} must be a number, got {value!r}")
    return float(value)


def _as_vector(mapping: dict, key: str, path: str, length: int | None = None, default=None):
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and x == x for x in value
    ):
        raise ConfigError(f"{path}.{key} must be a list of numbers")
    if length is not None and len(value) != length:
        raise ConfigError(f"{path}.{key} must have length {length}, got {len(value)}")
    return np.asarray(value, dtype=float)


def _record(cls, doc: dict, section: str):
    """The record cls built from doc's section: its fields are the allowed keys.

    Every key is optional and a missing one keeps the field's default. A
    string field (the integrator method) takes a string, every other field
    a number; cls checks the ranges itself.
    """
    mapping = _require_mapping(doc.get(section, {}), section)
    _check_keys(mapping, {f.name for f in fields(cls)}, section)
    values = {}
    for f in fields(cls):
        if f.name not in mapping:
            continue
        if isinstance(f.default, str):
            if not isinstance(mapping[f.name], str):
                raise ConfigError(f"{section}.{f.name} must be a string")
            values[f.name] = mapping[f.name]
        else:
            values[f.name] = _as_float(mapping, f.name, section)
    try:
        return cls(**values)
    except InvalidParameterError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


@dataclass
class Scenario:
    """Fully validated run description; everything a subcommand needs."""

    name: str
    seed: int | None
    body: ReferenceBody
    material: MaterialParams
    viscosity: ViscosityParams
    settings: IntegratorSettings
    thresholds: CaptureThresholds
    initial: dict
    doc: dict

    def canonical_json(self) -> str:
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def initial_state(self) -> DeformationState:
        """Build the initial DeformationState described by the initial section.

        Equilibrium-seeded scenarios run the Newton solver here, so this
        can raise NoConvergenceError on hostile parameters.
        """
        section = self.initial
        kind = section["kind"]
        if kind == "explicit":
            return DeformationState(section["q"].copy(), section["qdot"].copy())
        if kind == "orbital":
            return self._orbital_state(section)
        # equilibrium
        from .equilibria import solve_relative_equilibrium

        L0, guess, omega0 = self.equilibrium_seed()
        eq = solve_relative_equilibrium(self.body, self.material, L0, state0=guess, omega0=omega0)
        state = eq.state
        if section["spin_boost"] != 1.0:
            # Scale the velocity field about the barycenter, leaving the
            # barycenter velocity itself untouched: a pure spin kick.
            cdot = self.body.barycenter(state.qdot)
            qdot_const = rigid_state(self.body, velocity=cdot).qdot
            state.qdot = qdot_const + section["spin_boost"] * (state.qdot - qdot_const)
        if section["perturbation"] > 0.0:
            rng = np.random.default_rng(self.seed)
            state.qdot = state.qdot + section["perturbation"] * rng.standard_normal(state.qdot.size)
        return state

    def equilibrium_seed(self):
        """(L0, state0, omega0) that seed a relative-equilibrium solve for this scenario.

        With an orbit radius (kind orbital, or equilibrium with
        orbit_radius) Newton starts from the synchronous guess at that
        radius; kind equilibrium with L0 leaves the start to the solver;
        kind explicit targets the momentum of the explicit state.
        """
        from .energetics import angular_momentum
        from .equilibria import synchronous_guess

        radius = self.initial.get("orbit_radius")
        if radius is not None:
            guess, omega0 = synchronous_guess(self.body, self.material, radius)
            return angular_momentum(self.body, guess), guess, omega0
        if self.initial["kind"] == "equilibrium":
            return self.initial["L0"], None, None
        state = self.initial_state()
        return angular_momentum(self.body, state), state, None

    def _orbital_state(self, section: dict) -> DeformationState:
        r = section["orbit_radius"]
        rate_circ = np.sqrt(self.material.kM / r**3)
        axis = section["spin_axis"]
        if section["spin_rate"] is not None:
            spin_mag = section["spin_rate"]
        else:
            spin_mag = section["spin_factor"] * rate_circ
        spin = spin_mag * axis
        R = Rotation.from_rotvec(section["rotation_angle"] * axis).as_matrix()
        if section["strain"] is not None:
            R = R @ np.diag(1.0 + section["strain"])
        c0 = np.array([r, 0.0, 0.0])
        v_circ = r * rate_circ
        v0 = np.array([section["radial_velocity"], section["tangential_factor"] * v_circ, 0.0])
        state = rigid_state(self.body, rotation=R, translation=c0, velocity=v0, spin=spin)
        if section["jitter"] > 0.0:
            rng = np.random.default_rng(self.seed)
            state.qdot = state.qdot + section["jitter"] * rng.standard_normal(state.qdot.size)
        return state


def _parse_initial(node, n_modes: int, has_seed: bool) -> dict:
    section = _require_mapping(node, "initial")
    kind = section.get("kind")
    if kind not in _INITIAL_KEYS:
        raise ConfigError(
            f"initial.kind must be one of {sorted(_INITIAL_KEYS)}, got {kind!r}"
        )
    _check_keys(section, _INITIAL_KEYS[kind], "initial")
    for key, value in section.items():
        # every initial value enters the state, so an infinite one would reach the solver
        entries = value if isinstance(value, list) else [value]
        if any(isinstance(x, float) and np.isinf(x) for x in entries):
            raise ConfigError(f"initial.{key} must be finite, got {value!r}")
    out = {"kind": kind}
    if kind == "explicit":
        q = _as_vector(section, "q", "initial", length=n_modes)
        qdot = _as_vector(section, "qdot", "initial", length=n_modes)
        if q is None or qdot is None:
            raise ConfigError("initial.q and initial.qdot are required for kind explicit")
        out["q"], out["qdot"] = q, qdot
    elif kind == "orbital":
        r = _as_float(section, "orbit_radius", "initial")
        if r is None or r <= 0.0:
            raise ConfigError("initial.orbit_radius must be a positive number")
        spin_rate = _as_float(section, "spin_rate", "initial")
        spin_factor = _as_float(section, "spin_factor", "initial")
        if spin_rate is not None and spin_factor is not None:
            raise ConfigError("initial.spin_rate and initial.spin_factor are mutually exclusive")
        if spin_factor is None:
            spin_factor = 1.0
        axis = _as_vector(section, "spin_axis", "initial", length=3,
                          default=np.array([0.0, 0.0, 1.0]))
        norm = np.linalg.norm(axis)
        if norm == 0.0:
            raise ConfigError("initial.spin_axis must be nonzero")
        jitter = _as_float(section, "jitter", "initial", default=0.0)
        if jitter < 0.0:
            raise ConfigError("initial.jitter must be nonnegative")
        if jitter > 0.0 and not has_seed:
            raise ConfigError("initial.jitter requires a top-level seed for reproducibility")
        strain = _as_vector(section, "strain", "initial", length=3)
        if strain is not None and np.any(strain <= -1.0):
            raise ConfigError("initial.strain entries must be > -1")
        out.update(
            strain=strain,
            orbit_radius=r,
            spin_rate=spin_rate,
            spin_factor=spin_factor,
            tangential_factor=_as_float(section, "tangential_factor", "initial", default=1.0),
            radial_velocity=_as_float(section, "radial_velocity", "initial", default=0.0),
            spin_axis=axis / norm,
            rotation_angle=_as_float(section, "rotation_angle", "initial", default=0.0),
            jitter=jitter,
        )
    else:
        L0 = _as_vector(section, "L0", "initial", length=3)
        orbit_radius = _as_float(section, "orbit_radius", "initial")
        if (L0 is None) == (orbit_radius is None):
            raise ConfigError(
                "kind equilibrium takes exactly one of initial.L0 or initial.orbit_radius"
            )
        if orbit_radius is not None and orbit_radius <= 0.0:
            raise ConfigError("initial.orbit_radius must be a positive number")
        spin_boost = _as_float(section, "spin_boost", "initial", default=1.0)
        if spin_boost <= 0.0:
            raise ConfigError("initial.spin_boost must be positive")
        perturbation = _as_float(section, "perturbation", "initial", default=0.0)
        if perturbation < 0.0:
            raise ConfigError("initial.perturbation must be nonnegative")
        if perturbation > 0.0 and not has_seed:
            raise ConfigError("initial.perturbation requires a top-level seed")
        out["L0"] = L0
        out["orbit_radius"] = orbit_radius
        out["spin_boost"] = spin_boost
        out["perturbation"] = perturbation
    return out


def scenario_from_mapping(doc) -> Scenario:
    """Validate a parsed YAML document and assemble the Scenario."""
    doc = _require_mapping(doc, "document root")
    _check_keys(doc, _TOP_KEYS, "document root")

    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ConfigError(f"name must be a string, got {name!r}")
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    if "body" not in doc:
        raise ConfigError("missing required section: body")
    body_sec = _require_mapping(doc["body"], "body")
    _check_keys(body_sec, _BODY_KEYS, "body")
    semi_axes = _as_vector(body_sec, "semi_axes", "body", length=3)
    if semi_axes is None:
        raise ConfigError("body.semi_axes is required")
    degree = body_sec.get("basis_degree", 1)
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise ConfigError("body.basis_degree must be an integer")
    order = body_sec.get("quadrature_order", 8)
    if isinstance(order, bool) or not isinstance(order, int):
        raise ConfigError("body.quadrature_order must be an integer")

    try:
        body = build_ellipsoid_body(
            tuple(semi_axes),
            density_value=_as_float(body_sec, "density", "body", default=1.0),
            basis_degree=degree,
            quadrature_order=order,
        )
    except InvalidParameterError as exc:
        raise ConfigError(f"body: {exc}") from exc

    material = _record(MaterialParams, doc, "material")
    viscosity = _record(ViscosityParams, doc, "viscosity")
    settings = _record(IntegratorSettings, doc, "integrator")
    thresholds = _record(CaptureThresholds, doc, "classifier")

    if "initial" not in doc:
        raise ConfigError("missing required section: initial")
    initial = _parse_initial(doc["initial"], body.n_modes, seed is not None)

    return Scenario(
        name=name,
        seed=seed,
        body=body,
        material=material,
        viscosity=viscosity,
        settings=settings,
        thresholds=thresholds,
        initial=initial,
        doc=doc,
    )


# libyaml's parser where PyYAML was built with it: the same mappings as the
# pure-Python SafeLoader (one resolver and constructor), about 10x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _read_yaml(path):
    try:
        with open(path) as fh:
            return yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"could not read {path}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_mapping(_read_yaml(path))


_SWEEP_KEYS = {"base", "sweep"}
_SWEEP_SPEC_KEYS = {"parameter", "values"}


def load_sweep(path):
    """Parse a sweep file: a base scenario plus one swept dotted parameter.

    Returns (base_doc, parameter, values).  Each sweep point is the base
    document with the dotted path overridden and, when a seed is present,
    the seed advanced by the point index.
    """
    doc = _require_mapping(_read_yaml(path), "document root")
    _check_keys(doc, _SWEEP_KEYS, "document root")
    if "base" not in doc or "sweep" not in doc:
        raise ConfigError("sweep file needs both a base and a sweep section")
    base = _require_mapping(doc["base"], "base")
    sweep_sec = _require_mapping(doc["sweep"], "sweep")
    _check_keys(sweep_sec, _SWEEP_SPEC_KEYS, "sweep")
    parameter = sweep_sec.get("parameter")
    if not isinstance(parameter, str) or not parameter:
        raise ConfigError("sweep.parameter must be a dotted key path")
    values = sweep_sec.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values must be a nonempty list")
    try:  # the sweep hash and the summary encode base and values as JSON
        json.dumps({"base": base, "values": values}, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep base and values must be JSON data: {exc}") from exc
    scenario_from_mapping(sweep_point(base, parameter, values[0], 0))  # fail fast
    return base, parameter, values


def sweep_point(base: dict, parameter: str, value, index: int) -> dict:
    """Base document with the swept parameter overridden and the seed advanced."""
    doc = json.loads(json.dumps(base))  # deep copy of plain YAML data
    node = doc
    parts = parameter.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value
    if "seed" in doc and doc["seed"] is not None:
        doc["seed"] = int(doc["seed"]) + index
    return doc
