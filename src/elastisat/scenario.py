"""YAML scenario files: schema validation and initial-condition construction.

A scenario fixes the body, material, viscosity, initial condition,
integrator settings and classifier thresholds. Every section is a record:
the keyword parameters of the callable that builds it (a dataclass, or
build_ellipsoid_body for the body) are its keys, their defaults are the
defaults, and their declared types say how a value is read. A parameter
without a default is a required key. The record checks its own ranges.
Validation is strict: an unknown key anywhere is rejected, so a typo
cannot fall back to a default, and every number is finite unless the
field's own default is infinite (only integrator.max_step). The canonical
JSON form of the document (sorted keys) is what gets hashed into run
manifests.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from types import UnionType
from typing import get_args, get_origin

import numpy as np
import yaml

from .body_model import (DeformationState, ReferenceBody, axis_rotation, build_ellipsoid_body,
                         rigid_state)
from .classifier import CaptureThresholds
from .dissipation import ViscosityParams
from .dynamics import IntegratorSettings
from .energetics import MaterialParams, angular_momentum
from .equilibria import synchronous_guess
from .errors import ConfigError, InvalidParameterError

_TOP_KEYS = {"name", "seed", "body", "material", "viscosity", "initial", "integrator", "classifier"}


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(node).__name__}")
    return node


def _check_keys(mapping: dict, allowed: set, path: str):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} under {path}; allowed: {sorted(allowed)}")


def _as_float(value, path: str, infinite_ok: bool = False) -> float:
    """value as a float: NaN never passes, and +-inf only where infinite_ok."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not (math.isfinite(number) or infinite_ok and number == number):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return number


def _as_vector(value, path: str, length: int | None) -> tuple:
    """value as a tuple of finite floats, of the given length unless that is None."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path} must be a list of numbers")
    if length is not None and len(value) != length:
        raise ConfigError(f"{path} must have length {length}, got {len(value)}")
    return tuple(_as_float(x, f"{path}[{i}]") for i, x in enumerate(value))


def _read(value, kind, default, path: str):
    """value read as the declared type kind: str, int, float or a tuple of floats.

    An optional type (T | None) reads as T. A tuple[float, ...] has any
    length, a tuple[float, float, float] three entries.
    """
    if isinstance(kind, UnionType):
        (kind,) = (t for t in get_args(kind) if t is not type(None))
    if kind is str or kind is int:
        if type(value) is not kind:  # bool is no int here
            raise ConfigError(f"{path} must be {'a string' if kind is str else 'an integer'}")
        return value
    if get_origin(kind) is tuple:
        args = get_args(kind)
        return _as_vector(value, path, None if args[-1] is Ellipsis else len(args))
    return _as_float(value, path, infinite_ok=default == math.inf)


@lru_cache(maxsize=16)
def _parameters(build):
    return inspect.signature(build, eval_str=True).parameters


def _record(build, node, section: str):
    """build(**values) from one section: build's keyword parameters are the allowed keys.

    A missing key keeps the default build states, and a parameter without
    one is required. Each value is read as the parameter's declared type;
    build checks the ranges itself, and its InvalidParameterError becomes
    a ConfigError.
    """
    mapping = _require_mapping(node, section)
    parameters = _parameters(build)
    _check_keys(mapping, set(parameters), section)
    values = {}
    for name, p in parameters.items():
        if name in mapping:
            values[name] = _read(mapping[name], p.annotation, p.default, f"{section}.{name}")
        elif p.default is p.empty:
            raise ConfigError(f"{section}.{name} is required")
    try:
        return build(**values)
    except InvalidParameterError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _kicked(state: DeformationState, amplitude: float, seed) -> DeformationState:
    """state with a seeded Gaussian velocity kick of the given amplitude added, if positive."""
    if amplitude > 0.0:
        rng = np.random.default_rng(seed)
        state.qdot = state.qdot + amplitude * rng.standard_normal(state.qdot.size)
    return state


def _synchronous_seed(body: ReferenceBody, material: MaterialParams, radius: float):
    """(L0, state0, omega0): Newton from the rigid synchronous orbit at radius, at its momentum."""
    guess, omega0 = synchronous_guess(body, material, radius)
    return angular_momentum(body, guess), guess, omega0


@dataclass(frozen=True)
class OrbitalStart:
    """initial kind orbital: a rigid body on a parameterized orbit.

    The barycenter starts at (orbit_radius, 0, 0) with velocity
    (radial_velocity, tangential_factor x circular speed, 0). The body is
    turned by rotation_angle about spin_axis, prestretched by 1 + strain
    along its own axes, and spins about spin_axis at spin_rate, or at
    spin_factor (default 1) times the circular rate; the two are exclusive.
    jitter > 0 adds a Gaussian velocity kick drawn from the scenario seed.
    """

    orbit_radius: float
    spin_rate: float | None = None
    spin_factor: float | None = None
    tangential_factor: float = 1.0
    radial_velocity: float = 0.0
    spin_axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    rotation_angle: float = 0.0
    strain: tuple[float, float, float] | None = None
    jitter: float = 0.0

    def __post_init__(self):
        if not self.orbit_radius > 0:
            raise InvalidParameterError(f"orbit_radius must be > 0, got {self.orbit_radius}")
        if self.spin_rate is not None and self.spin_factor is not None:
            raise InvalidParameterError("spin_rate and spin_factor are mutually exclusive")
        if np.linalg.norm(self.spin_axis) == 0.0:
            raise InvalidParameterError("spin_axis must be nonzero")
        if self.strain is not None and not min(self.strain) > -1:
            raise InvalidParameterError(f"strain entries must be > -1, got {self.strain}")
        if not self.jitter >= 0:
            raise InvalidParameterError(f"jitter must be >= 0, got {self.jitter}")

    def state(self, body: ReferenceBody, material: MaterialParams, seed) -> DeformationState:
        r = self.orbit_radius
        rate_circ = np.sqrt(material.kM / r**3)
        axis = np.asarray(self.spin_axis) / np.linalg.norm(self.spin_axis)
        spin_factor = 1.0 if self.spin_factor is None else self.spin_factor
        spin = (spin_factor * rate_circ if self.spin_rate is None else self.spin_rate) * axis
        R = axis_rotation(axis, self.rotation_angle)
        if self.strain is not None:
            R = R @ np.diag(1.0 + np.asarray(self.strain))
        v0 = np.array([self.radial_velocity, self.tangential_factor * (r * rate_circ), 0.0])
        state = rigid_state(body, rotation=R, translation=np.array([r, 0.0, 0.0]), velocity=v0,
                            spin=spin)
        return _kicked(state, self.jitter, seed)

    def equilibrium_seed(self, body: ReferenceBody, material: MaterialParams, seed):
        return _synchronous_seed(body, material, self.orbit_radius)


@dataclass(frozen=True)
class EquilibriumStart:
    """initial kind equilibrium: the relative equilibrium at momentum L0, a
    nonzero vector, or at the momentum of the rigid synchronous orbit at
    orbit_radius (exactly one).

    Newton starts from a rigid synchronous orbit: the one at orbit_radius,
    or for L0 the one at the radius whose Keplerian momentum is |L0| (at
    least 1.5 mean radii), its spin turned along L0. spin_boost scales the
    velocity about the barycenter, a pure spin kick; perturbation > 0 adds
    a Gaussian velocity kick drawn from the seed.
    """

    L0: tuple[float, float, float] | None = None
    orbit_radius: float | None = None
    perturbation: float = 0.0
    spin_boost: float = 1.0

    def __post_init__(self):
        if (self.L0 is None) == (self.orbit_radius is None):
            raise InvalidParameterError("kind equilibrium takes exactly one of L0 or orbit_radius")
        if self.L0 is not None and not any(self.L0):
            raise InvalidParameterError("L0 must be a nonzero 3-vector")
        if self.orbit_radius is not None and not self.orbit_radius > 0:
            raise InvalidParameterError(f"orbit_radius must be > 0, got {self.orbit_radius}")
        if not self.spin_boost > 0:
            raise InvalidParameterError(f"spin_boost must be > 0, got {self.spin_boost}")
        if not self.perturbation >= 0:
            raise InvalidParameterError(f"perturbation must be >= 0, got {self.perturbation}")

    def state(self, body: ReferenceBody, material: MaterialParams, seed) -> DeformationState:
        """Runs the Newton solver, so this can raise NoConvergenceError."""
        from .equilibria import solve_relative_equilibrium

        L0, guess, omega0 = self.equilibrium_seed(body, material, seed)
        state = solve_relative_equilibrium(body, material, L0, guess, omega0).state
        if self.spin_boost != 1.0:
            # Scale the velocity field about the barycenter, leaving the
            # barycenter velocity itself untouched: a pure spin kick.
            qdot_const = rigid_state(body, velocity=body.barycenter(state.qdot)).qdot
            state.qdot = qdot_const + self.spin_boost * (state.qdot - qdot_const)
        return _kicked(state, self.perturbation, seed)

    def equilibrium_seed(self, body: ReferenceBody, material: MaterialParams, seed):
        if self.orbit_radius is not None:
            return _synchronous_seed(body, material, self.orbit_radius)
        L0 = np.array(self.L0)
        L_mag = float(np.linalg.norm(L0))
        radius = max(L_mag**2 / (body.mass**2 * material.kM), 1.5 * body.mean_radius)
        guess, omega = synchronous_guess(body, material, radius)
        return L0, guess, float(np.linalg.norm(omega)) * (L0 / np.linalg.norm(L0))


@dataclass(frozen=True)
class ExplicitStart:
    """initial kind explicit: the Galerkin coefficients q and qdot, one per mode.

    Newton starts from this state at its momentum L0, spinning at L0 / max(|L0|, 1).
    """

    q: tuple[float, ...]
    qdot: tuple[float, ...]

    def state(self, body: ReferenceBody, material: MaterialParams, seed) -> DeformationState:
        return DeformationState(np.array(self.q), np.array(self.qdot))

    def equilibrium_seed(self, body: ReferenceBody, material: MaterialParams, seed):
        state = self.state(body, material, seed)
        L0 = angular_momentum(body, state)
        return L0, state, L0 / max(np.linalg.norm(L0), 1.0)


_STARTS = {"orbital": OrbitalStart, "equilibrium": EquilibriumStart, "explicit": ExplicitStart}


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
    initial: OrbitalStart | EquilibriumStart | ExplicitStart
    doc: dict

    def canonical_json(self) -> str:
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def initial_state(self) -> DeformationState:
        """The initial DeformationState; an equilibrium start runs Newton here."""
        return self.initial.state(self.body, self.material, self.seed)

    def equilibrium_seed(self):
        """(L0, state0, omega0) that seed Newton for this scenario, as its start's class says."""
        return self.initial.equilibrium_seed(self.body, self.material, self.seed)


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

    body = _record(build_ellipsoid_body, doc.get("body", {}), "body")
    material = _record(MaterialParams, doc.get("material", {}), "material")
    viscosity = _record(ViscosityParams, doc.get("viscosity", {}), "viscosity")
    settings = _record(IntegratorSettings, doc.get("integrator", {}), "integrator")
    thresholds = _record(CaptureThresholds, doc.get("classifier", {}), "classifier")

    section = _require_mapping(doc.get("initial", {}), "initial")
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in _STARTS:
        raise ConfigError(f"initial.kind must be one of {sorted(_STARTS)}, got {kind!r}")
    initial = _record(_STARTS[kind], {k: v for k, v in section.items() if k != "kind"}, "initial")
    n = body.n_modes
    if isinstance(initial, ExplicitStart) and not len(initial.q) == len(initial.qdot) == n:
        raise ConfigError(f"initial.q and initial.qdot must have length {n}, one per mode")
    for noise in ("jitter", "perturbation"):  # a random draw is reproducible only from a seed
        if getattr(initial, noise, 0.0) > 0.0 and seed is None:
            raise ConfigError(f"initial.{noise} requires a top-level seed for reproducibility")

    return Scenario(name, seed, body, material, viscosity, settings, thresholds, initial, doc)


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
    document with the dotted path overridden and, when a seed is present
    and is not the swept parameter, the seed advanced by the point index.
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
    """Base document with the swept parameter set and, unless swept, the seed advanced by index."""
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
    seed = doc.get("seed")
    if parameter != "seed" and type(seed) is int:  # a seed of any other type fails validation
        doc["seed"] = seed + index
    return doc
