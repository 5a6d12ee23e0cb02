"""Scenario schema validation and initial-condition construction."""

import copy
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import elastisat as es
from elastisat import ConfigError
from elastisat import scenario as scenario_module

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _doc(**overrides):
    doc = {
        "name": "t",
        "body": {"semi_axes": [1.0, 0.85, 0.6]},
        "initial": {"kind": "orbital", "orbit_radius": 3.0},
    }
    doc.update(overrides)
    return doc


def test_defaults_fill_every_section():
    sc = es.scenario_from_mapping(_doc())
    assert sc.name == "t"
    assert sc.seed is None
    assert sc.material.lam == sc.material.mu == sc.material.epsilon == sc.material.kM == 1.0
    assert sc.material.self_gravity_k == 0.0
    assert sc.viscosity.eta == 0.0
    assert sc.settings.method == "dop853"
    assert sc.settings.rel_tol == 1e-9
    assert sc.settings.abs_tol == 1e-11
    assert sc.settings.t_end == 1.0
    assert sc.settings.impact_radius == 1e-2
    assert sc.settings.escape_radius == 1e3
    assert sc.thresholds.cdot_max == 1e-6
    assert sc.thresholds.spin_orbit_gap == 1e-3
    assert sc.thresholds.y_drift == 1e-6
    assert sc.thresholds.shape_residual == 1e-6
    assert sc.thresholds.window_periods == 5.0
    assert sc.body.n_modes == 12


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["body"].update(axes=[1, 1, 1]),
        lambda d: d.update(material={"lamda": 1.0}),
        lambda d: d.update(viscosity={"etta": 0.1}),
        lambda d: d.update(integrator={"dt": 0.1}),
        lambda d: d.update(classifier={"tol": 1e-6}),
        lambda d: d["initial"].update(L0=[0, 0, 1]),
    ],
)
def test_unknown_keys_are_rejected(mutate):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ConfigError, match="unknown key"):
        es.scenario_from_mapping(doc)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(name=3),
        lambda d: d.update(seed="x"),
        lambda d: d.update(seed=True),
        lambda d: d.pop("body"),
        lambda d: d["body"].pop("semi_axes"),
        lambda d: d["body"].update(semi_axes=[1.0, 0.85]),
        lambda d: d["body"].update(semi_axes=[1.0, 0.85, -0.6]),
        lambda d: d["body"].update(basis_degree=1.5),
        lambda d: d.update(material={"epsilon": "soft"}),
        lambda d: d.update(material={"epsilon": 0.0}),
        lambda d: d.update(integrator={"method": "verlet"}),
        lambda d: d.update(integrator={"method": 5}),
        lambda d: d.update(integrator={"t_end": -1.0}),
        lambda d: d.update(initial={"kind": "warp"}),
        lambda d: d.pop("initial"),
        lambda d: d.update(initial={"kind": "orbital"}),
        lambda d: d.update(initial={"kind": "orbital", "orbit_radius": -2.0}),
        lambda d: d["initial"].update(spin_axis=[0, 0, 0]),
        lambda d: d["initial"].update(jitter=-0.5),
        lambda d: d["initial"].update(strain=[-1.0, 0.0, 0.0]),
        lambda d: d.update(initial={"kind": "explicit", "q": [0.0] * 12}),
        lambda d: d.update(initial={"kind": "explicit", "q": [0.0] * 12, "qdot": [0.0] * 7}),
        lambda d: d.update(initial={"kind": "equilibrium", "orbit_radius": 3.0, "spin_boost": 0.0}),
        lambda d: d.update(
            initial={"kind": "equilibrium", "orbit_radius": 3.0, "perturbation": -1.0}
        ),
        # NaN is no key's value; an infinite t_end or a negative window would break a run
        lambda d: d["initial"].update(tangential_factor=float("nan")),
        lambda d: d["body"].update(semi_axes=[1.0, float("nan"), 0.6]),
        lambda d: d["body"].update(density=float("nan")),
        lambda d: d.update(material={"mu": float("nan")}),
        lambda d: d.update(viscosity={"eta": float("nan")}),
        lambda d: d.update(integrator={"rel_tol": float("nan")}),
        lambda d: d.update(integrator={"t_end": float("inf")}),
        lambda d: d["initial"].update(orbit_radius=float("nan")),
        lambda d: d["initial"].update(strain=[float("nan"), 0.0, 0.0]),
        lambda d: d.update(classifier={"window_periods": -1.0}),
        lambda d: d.update(classifier={"y_drift": float("nan")}),
        # an integer beyond the float range, and a kind that is a list, used to exit 1
        lambda d: d.update(material={"lam": 10**400}),
        lambda d: d.update(initial={"kind": ["orbital"], "orbit_radius": 3.0}),
    ],
)
def test_bad_values_are_rejected(mutate):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        es.scenario_from_mapping(doc)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.name)
def test_bundled_scenarios_load(path):
    # a sweep file has a base and a sweep section, every other file is one scenario
    if "sweep" in yaml.safe_load(path.read_text()):
        base, parameter, values = es.load_sweep(path)
        assert parameter and values
    else:
        assert isinstance(es.load_scenario(path), es.Scenario)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.name)
def test_libyaml_and_python_loaders_read_the_same_documents(path):
    text = path.read_text()
    doc = yaml.load(text, Loader=yaml.SafeLoader)
    assert yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)) == doc
    if "sweep" in doc:
        assert es.load_sweep(path) == (doc["base"], doc["sweep"]["parameter"],
                                       doc["sweep"]["values"])
    else:
        assert es.load_scenario(path).config_hash() == es.scenario_from_mapping(doc).config_hash()


def test_python_loader_fallback_reads_and_rejects_yaml(tmp_path, monkeypatch):
    monkeypatch.setattr(scenario_module, "_YAML_LOADER", yaml.SafeLoader)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(_doc(name="fallback")))
    assert es.load_scenario(path).name == "fallback"
    path.write_text("integrator: [unclosed\n")
    with pytest.raises(ConfigError, match="could not parse"):
        es.load_scenario(path)


# Every section record with a valid initial section for it: the keys of a
# section are the keyword parameters of its record (its dataclass fields).
SECTION_RECORDS = [
    ("body", es.build_ellipsoid_body, None),
    ("material", es.MaterialParams, None),
    ("viscosity", es.ViscosityParams, None),
    ("integrator", es.IntegratorSettings, None),
    ("classifier", es.CaptureThresholds, None),
    ("initial", scenario_module.OrbitalStart, {"kind": "orbital", "orbit_radius": 3.0}),
    ("initial", scenario_module.EquilibriumStart, {"kind": "equilibrium", "orbit_radius": 3.0}),
    ("initial", scenario_module.ExplicitStart,
     {"kind": "explicit", "q": [0.0] * 12, "qdot": [0.0] * 12}),
]


@pytest.mark.parametrize("section, record, initial", SECTION_RECORDS,
                         ids=[record.__name__ for _, record, _ in SECTION_RECORDS])
def test_no_key_takes_nan_or_an_infinity(section, record, initial):
    # derived from the records, so a field added later is covered too: every
    # number in a scenario is finite, except an unbounded integrator.max_step
    base = _doc(initial=initial) if initial else _doc()
    for name, p in inspect.signature(record, eval_str=True).parameters.items():
        if p.annotation is str:
            continue
        for bad in (float("nan"), float("inf"), float("-inf")):
            doc = copy.deepcopy(base)
            value = bad
            if "tuple" in str(p.annotation):
                valid = doc[section].get(name, [1.0, 1.0, 1.0])
                value = [valid[0], bad, *valid[2:]]  # one bad entry in a vector
            doc.setdefault(section, {})[name] = value
            if (section, name, bad) == ("integrator", "max_step", float("inf")):
                assert es.scenario_from_mapping(doc).settings.max_step == bad
                continue
            with pytest.raises(ConfigError) as info:
                es.scenario_from_mapping(doc)
            assert name in str(info.value), (section, name, value)


def test_randomized_initials_require_a_seed():
    doc = _doc()
    doc["initial"]["jitter"] = 1e-3
    with pytest.raises(ConfigError, match="seed"):
        es.scenario_from_mapping(doc)
    doc["seed"] = 11
    sc = es.scenario_from_mapping(doc)
    a = sc.initial_state()
    b = sc.initial_state()
    assert np.array_equal(a.qdot, b.qdot)  # same seed, same draw

    doc = _doc(initial={"kind": "equilibrium", "orbit_radius": 3.0, "perturbation": 1e-4})
    with pytest.raises(ConfigError, match="seed"):
        es.scenario_from_mapping(doc)


def test_spin_rate_and_factor_are_exclusive():
    doc = _doc()
    doc["initial"].update(spin_rate=0.2, spin_factor=1.0)
    with pytest.raises(ConfigError, match="mutually exclusive"):
        es.scenario_from_mapping(doc)


def test_equilibrium_takes_exactly_one_target():
    for initial in (
        {"kind": "equilibrium"},
        {"kind": "equilibrium", "orbit_radius": 3.0, "L0": [0.0, 0.0, 3.7]},
    ):
        with pytest.raises(ConfigError, match="exactly one"):
            es.scenario_from_mapping(_doc(initial=initial))


def test_explicit_initial_roundtrip():
    q = (0.1 * np.arange(12)).tolist()
    qdot = (0.01 * np.arange(12) - 0.05).tolist()
    sc = es.scenario_from_mapping(_doc(initial={"kind": "explicit", "q": q, "qdot": qdot}))
    state = sc.initial_state()
    assert np.array_equal(state.q, np.array(q))
    assert np.array_equal(state.qdot, np.array(qdot))
    state.q[0] = 99.0  # the scenario must hand out copies
    assert np.array_equal(sc.initial_state().q, np.array(q))


def test_orbital_state_matches_requested_kinematics():
    doc = _doc(
        initial={
            "kind": "orbital",
            "orbit_radius": 3.0,
            "tangential_factor": 1.2,
            "radial_velocity": 0.05,
            "spin_factor": 0.7,
            "rotation_angle": 0.3,
        }
    )
    sc = es.scenario_from_mapping(doc)
    state = sc.initial_state()
    body = sc.body
    rate = np.sqrt(sc.material.kM / 3.0**3)
    assert np.allclose(body.barycenter(state.q), [3.0, 0.0, 0.0], atol=1e-13)
    assert np.allclose(
        body.barycenter(state.qdot), [0.05, 1.2 * 3.0 * rate, 0.0], atol=1e-13
    )
    omega, _ = es.instantaneous_spin(body, state)
    assert np.allclose(omega, [0.0, 0.0, 0.7 * rate], atol=1e-12)
    R, _, residual = es.comoving_decomposition(body, state)
    c, s = np.cos(0.3), np.sin(0.3)
    assert np.allclose(R, [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], atol=1e-12)
    assert residual < 1e-12


def test_orbital_spin_rate_overrides_circular_scaling():
    doc = _doc(initial={"kind": "orbital", "orbit_radius": 3.0, "spin_rate": 0.41})
    sc = es.scenario_from_mapping(doc)
    omega, _ = es.instantaneous_spin(sc.body, sc.initial_state())
    assert np.allclose(omega, [0.0, 0.0, 0.41], atol=1e-12)


def test_orbital_strain_prestretches_the_body():
    strain = [0.1, 0.0, -0.05]
    doc = _doc(initial={"kind": "orbital", "orbit_radius": 3.0, "strain": strain})
    sc = es.scenario_from_mapping(doc)
    state = sc.initial_state()
    F = state.q.reshape(-1, 3)[1:4].T  # deformation gradient of the linear map
    assert np.allclose(F, np.diag(1.0 + np.array(strain)), atol=1e-14)
    assert es.elastic_energy(sc.body, state, sc.material) > 1e-4


def test_spin_boost_kicks_spin_but_not_the_orbit():
    base = _doc(initial={"kind": "equilibrium", "orbit_radius": 2.5})
    boosted = _doc(initial={"kind": "equilibrium", "orbit_radius": 2.5, "spin_boost": 1.01})
    s0 = es.scenario_from_mapping(base).initial_state()
    s1 = es.scenario_from_mapping(boosted).initial_state()
    body = es.scenario_from_mapping(base).body
    assert np.array_equal(s0.q, s1.q)
    assert np.allclose(body.barycenter(s0.qdot), body.barycenter(s1.qdot), atol=1e-14)
    L0 = es.angular_momentum(body, s0)
    L1 = es.angular_momentum(body, s1)
    assert L1[2] > L0[2]
    w0, _ = es.instantaneous_spin(body, s0)
    w1, _ = es.instantaneous_spin(body, s1)
    assert np.isclose(w1[2], 1.01 * w0[2], rtol=1e-9)


def test_equilibrium_from_momentum_target():
    L0 = [0.0, 0.0, 3.7]
    sc = es.scenario_from_mapping(_doc(initial={"kind": "equilibrium", "L0": L0}))
    state = sc.initial_state()
    assert np.allclose(es.angular_momentum(sc.body, state), L0, atol=1e-10)
    # every start kind hands Newton a complete seed; the L0 seed spins along L0
    L0 = [0.3, -0.4, 3.7]
    n = sc.body.n_modes
    for initial in ({"kind": "orbital", "orbit_radius": 3.0},
                    {"kind": "equilibrium", "orbit_radius": 2.5},
                    {"kind": "explicit", "q": state.q.tolist(), "qdot": [0.01] * n},
                    {"kind": "equilibrium", "L0": L0}):
        target, state0, omega0 = es.scenario_from_mapping(_doc(initial=initial)).equilibrium_seed()
        assert target.shape == np.shape(omega0) == (3,) and state0.q.shape == (n,), initial
    assert np.allclose(np.cross(omega0, L0), 0.0, atol=1e-15) and omega0 @ L0 > 0


def test_sweep_point_overrides_and_advances_seed():
    base = _doc(seed=7)
    point = es.sweep_point(base, "initial.tangential_factor", 0.8, 3)
    assert point["initial"]["tangential_factor"] == 0.8
    assert point["seed"] == 10
    assert "tangential_factor" not in base["initial"]  # deep copy, base untouched
    assert base["seed"] == 7
    assert es.sweep_point(base, "seed", 7, 3)["seed"] == 7  # a swept seed is not advanced
    # dotted paths create missing intermediate sections
    point = es.sweep_point(base, "classifier.cdot_max", 1e-5, 0)
    assert point["classifier"]["cdot_max"] == 1e-5
    es.scenario_from_mapping(point)  # still a valid scenario


def test_sweep_point_without_seed_stays_seedless():
    point = es.sweep_point(_doc(), "viscosity.eta", 0.2, 5)
    assert "seed" not in point
    assert point["viscosity"]["eta"] == 0.2


def test_load_sweep_validates_shape(tmp_path):
    good = {
        "base": _doc(),
        "sweep": {"parameter": "initial.tangential_factor", "values": [0.5, 1.5]},
    }

    def dump(doc):
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(doc))
        return path

    base, parameter, values = es.load_sweep(dump(good))
    assert parameter == "initial.tangential_factor"
    assert values == [0.5, 1.5]
    assert base == _doc()

    for bad in (
        {"base": _doc()},
        {"sweep": good["sweep"]},
        {"base": _doc(), "sweep": {"parameter": "x", "values": []}},
        {"base": _doc(), "sweep": {"parameter": "", "values": [1]}},
        {"base": _doc(), "sweep": {"parameter": "x", "values": 3}},
        {"base": _doc(), "sweep": good["sweep"], "extra": 1},
        {"base": {"initial": {"kind": "orbital"}}, "sweep": good["sweep"]},
    ):
        with pytest.raises(ConfigError):
            es.load_sweep(dump(bad))


def test_config_hash_ignores_key_order_only():
    doc_a = _doc(material={"mu": 2.0, "lam": 1.5})
    doc_b = {k: doc_a[k] for k in reversed(list(doc_a))}
    doc_b["material"] = {"lam": 1.5, "mu": 2.0}
    h_a = es.scenario_from_mapping(doc_a).config_hash()
    h_b = es.scenario_from_mapping(doc_b).config_hash()
    assert h_a == h_b
    doc_c = copy.deepcopy(doc_a)
    doc_c["material"]["mu"] = 2.5
    assert es.scenario_from_mapping(doc_c).config_hash() != h_a


def test_load_scenario_reads_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(_doc(name="roundtrip")))
    sc = es.load_scenario(path)
    assert sc.name == "roundtrip"
    with pytest.raises(ConfigError, match="not found"):
        es.load_scenario(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("integrator: [unclosed\n")
    with pytest.raises(ConfigError, match="parse"):
        es.load_scenario(bad)


# Generated scenario documents for the config-hash and sweep properties:
# every section the schema allows, with optional keys present or absent.
def _optional(**keys):
    return st.fixed_dictionaries({}, optional=keys)


_POSITIVE = st.floats(0.1, 10.0)
SCENARIO_DOCS = st.fixed_dictionaries(
    {
        "name": st.text(alphabet="abcxyz-_0123", min_size=1, max_size=8),
        "body": st.fixed_dictionaries(
            {"semi_axes": st.lists(st.floats(0.3, 2.0), min_size=3, max_size=3)},
            optional={"density": _POSITIVE, "basis_degree": st.sampled_from([1, 2])},
        ),
        "initial": st.fixed_dictionaries(
            {"kind": st.just("orbital"), "orbit_radius": st.floats(2.0, 20.0)},
            optional={"tangential_factor": st.floats(0.0, 2.0),
                      "rotation_angle": st.floats(-3.0, 3.0)},
        ),
    },
    optional={
        "seed": st.integers(0, 2**31),
        "material": _optional(lam=st.floats(0.0, 3.0), mu=_POSITIVE, epsilon=_POSITIVE),
        "viscosity": _optional(eta=st.floats(0.0, 2.0)),
        "integrator": _optional(t_end=_POSITIVE, record_every=_POSITIVE,
                                method=st.just("dop853")),
        "classifier": _optional(cdot_max=_POSITIVE, window_periods=_POSITIVE),
    },
)
SWEPT = st.sampled_from([
    "material.epsilon", "viscosity.eta", "initial.orbit_radius",
    "integrator.t_end", "classifier.cdot_max", "body.density",
])
CONFIG_PROPERTY = settings(max_examples=25, deadline=None)


def _leaves(doc, prefix=""):
    """Dotted path -> value for every non-mapping leaf of a nested mapping."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


@CONFIG_PROPERTY
@given(doc=SCENARIO_DOCS)
def test_config_hash_survives_the_canonical_json_round_trip(doc):
    sc = es.scenario_from_mapping(doc)
    again = es.scenario_from_mapping(json.loads(sc.canonical_json()))
    assert again.canonical_json() == sc.canonical_json()
    assert again.config_hash() == sc.config_hash()


@CONFIG_PROPERTY
@given(doc=SCENARIO_DOCS, parameter=SWEPT, value=st.floats(0.5, 5.0), index=st.integers(0, 50))
def test_sweep_point_changes_only_the_swept_key_and_the_seed(doc, parameter, value, index):
    before = copy.deepcopy(doc)
    point = es.sweep_point(doc, parameter, value, index)
    assert doc == before  # the base is never mutated

    base_leaves, point_leaves = _leaves(doc), _leaves(point)
    missing = object()
    changed = {
        key for key in base_leaves.keys() | point_leaves.keys()
        if base_leaves.get(key, missing) != point_leaves.get(key, missing)
    }
    expected = {parameter} if base_leaves.get(parameter, missing) != value else set()
    if "seed" in doc and index > 0:
        expected.add("seed")
    assert changed == expected
    assert point_leaves[parameter] == value
    if "seed" in doc:
        assert point["seed"] == doc["seed"] + index

    # the point is a scenario of its own, and its hash round-trips too
    sc = es.scenario_from_mapping(point)
    assert es.scenario_from_mapping(json.loads(sc.canonical_json())).config_hash() == sc.config_hash()
