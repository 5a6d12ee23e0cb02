"""Trichotomy classifier: metrics, invariance, and evidence gates."""

import numpy as np
import pytest

import elastisat as es
from elastisat.dynamics import EnergyBreakdown, Trajectory, _build_trajectory
from elastisat.errors import (
    ImpactProximityError,
    InsufficientDataError,
    InvalidParameterError,
    SingularConfigurationError,
)


def _solve_at_radius(body, material, r):
    guess, omega0 = es.synchronous_guess(body, material, r)
    L0 = es.angular_momentum(body, guess)
    return es.solve_relative_equilibrium(body, material, L0, state0=guess, omega0=omega0)


def _integrate_equilibrium(body, material, eq, periods, samples_per_period=8):
    T = 2 * np.pi / np.linalg.norm(eq.omega)
    settings = es.IntegratorSettings(t_end=periods * T, record_every=T / samples_per_period)
    return es.integrate(body, eq.state, material, es.ViscosityParams(0.0), settings)


def test_metrics_vanish_on_equilibrium_trajectory(triaxial, material):
    eq = _solve_at_radius(triaxial, material, 2.5)
    traj = _integrate_equilibrium(triaxial, material, eq, periods=6)
    metrics = es.capture_metrics(triaxial, traj.tail(traj.times[0]), eq)
    assert metrics.cdot_max < 1e-10
    assert metrics.spin_orbit_gap < 1e-10
    assert metrics.y_drift < 1e-10
    assert metrics.shape_residual < 1e-10


def test_metrics_invariant_under_group_rotation(triaxial, material):
    eq = _solve_at_radius(triaxial, material, 2.5)
    traj = _integrate_equilibrium(triaxial, material, eq, periods=2)
    base = es.capture_metrics(triaxial, traj, eq)

    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])  # about the group axis
    n = len(traj)
    qh = traj.q_history.reshape(n, -1, 3) @ R.T
    vh = traj.qdot_history.reshape(n, -1, 3) @ R.T
    # rebuild the whole per-sample record, as integrate does, from the rotated states
    rotated = _build_trajectory(
        triaxial, traj.times, np.hstack([qh.reshape(n, -1), vh.reshape(n, -1)]),
        material, es.ViscosityParams(0.0), traj.termination, traj.termination_reason,
        traj.nfev, traj.njev,
    )
    assert np.allclose(rotated.Y, traj.Y, atol=1e-12)  # Y is a body-frame vector
    assert np.allclose(rotated.omega_spin, traj.omega_spin @ R.T, atol=1e-12)
    rot = es.capture_metrics(triaxial, rotated, eq)
    assert rot.cdot_max == pytest.approx(base.cdot_max, abs=1e-14)
    assert rot.spin_orbit_gap == pytest.approx(base.spin_orbit_gap, abs=1e-12)
    assert rot.y_drift == pytest.approx(base.y_drift, abs=1e-12)
    assert rot.shape_residual == pytest.approx(base.shape_residual, abs=1e-12)


def test_group_orbit_distance_vanishes_on_the_orbit(triaxial, material):
    eq = _solve_at_radius(triaxial, material, 2.5)
    rng = np.random.default_rng(71)
    for theta in rng.uniform(0.0, 2 * np.pi, size=4):
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        q = (eq.q.reshape(-1, 3) @ R.T).reshape(-1)
        v = (eq.velocity.reshape(-1, 3) @ R.T).reshape(-1)
        d = es.group_orbit_distance(triaxial, es.DeformationState(q, v), eq)
        assert d < 1e-12

    off = es.DeformationState(eq.q * 1.001, eq.velocity.copy())
    assert es.group_orbit_distance(triaxial, off, eq) > 1e-4


def test_conservative_eccentric_tides_keep_flexing(triaxial):
    # elastic tides on an eccentric orbit oscillate forever without viscosity:
    # the rigidity metric stays bounded away from zero
    mat = es.MaterialParams()
    r = 4.0
    rate = np.sqrt(mat.kM / r**3)
    state = es.rigid_state(
        triaxial,
        translation=(r, 0.0, 0.0),
        velocity=(0.0, 0.9 * r * rate, 0.0),
        spin=(0.0, 0.0, rate),
    )
    T = 2 * np.pi / rate
    settings = es.IntegratorSettings(t_end=2 * T, record_every=T / 32)
    traj = es.integrate(triaxial, state, mat, es.ViscosityParams(0.0), settings)
    second_period = traj.cdot_max[traj.times > T]
    assert second_period.min() > 1e-4


def test_windowed_dissipation_on_synthetic_decay():
    times = np.linspace(0.0, 10.0, 2001)
    zeros = np.zeros(times.size)
    monitors = EnergyBreakdown(K=zeros, U_g=zeros, U_sg=zeros, U_e=zeros, H=zeros,
                               L=np.tile([0.0, 0.0, 1.0], (times.size, 1)))
    traj = Trajectory(
        times=times,
        q_history=np.zeros((times.size, 12)),
        qdot_history=np.zeros((times.size, 12)),
        monitors=monitors,
        dissipation_rate=-np.exp(-times),
        cdot_max=np.zeros(times.size),
        Y=np.zeros((times.size, 3)),
        omega_spin=np.zeros((times.size, 3)),
        omega_orbit=np.zeros((times.size, 3)),
        termination="completed",
        termination_reason=None,
    )
    vals = es.windowed_dissipation(traj, window=2.0)
    assert vals.size == 5
    refs = [np.exp(-2.0 * k) * (1.0 - np.exp(-2.0)) for k in range(5)]
    assert np.allclose(vals, refs, rtol=1e-4)
    assert np.all(np.diff(vals) < 0.0)
    with pytest.raises(InsufficientDataError):
        es.windowed_dissipation(traj, window=20.0)


def test_capture_metrics_demand_enough_samples(triaxial, material):
    eq = _solve_at_radius(triaxial, material, 2.5)
    T = 2 * np.pi / np.linalg.norm(eq.omega)
    settings = es.IntegratorSettings(t_end=T / 2, record_every=T / 8)
    traj = es.integrate(triaxial, eq.state, material, es.ViscosityParams(0.0), settings)
    assert len(traj) < 8
    with pytest.raises(InsufficientDataError):
        es.capture_metrics(triaxial, traj, eq)


def test_classify_rejects_short_window(triaxial, material):
    eq = _solve_at_radius(triaxial, material, 2.5)
    traj = _integrate_equilibrium(triaxial, material, eq, periods=2)
    out = es.classify_outcome(triaxial, traj, material)  # default window: 5 periods
    assert out.outcome == es.Outcome.UNDETERMINED
    assert "window" in out.reason


def test_classify_flags_flexing_tail(triaxial):
    mat = es.MaterialParams()
    r = 4.0
    rate = np.sqrt(mat.kM / r**3)
    state = es.rigid_state(
        triaxial,
        translation=(r, 0.0, 0.0),
        velocity=(0.0, 0.9 * r * rate, 0.0),
        spin=(0.0, 0.0, rate),
    )
    T = 2 * np.pi / rate
    settings = es.IntegratorSettings(t_end=2 * T, record_every=T / 16)
    traj = es.integrate(triaxial, state, mat, es.ViscosityParams(0.0), settings)
    thr = es.CaptureThresholds(window_periods=1.0)
    out = es.classify_outcome(triaxial, traj, mat, thr)
    assert out.outcome == es.Outcome.UNDETERMINED
    assert "cdot_max" in out.reason


def test_classified_equilibrium_trajectory_is_captured(triaxial, material):
    # a trajectory already sitting on the invariant manifold passes every gate
    eq = _solve_at_radius(triaxial, material, 2.5)
    traj = _integrate_equilibrium(triaxial, material, eq, periods=6, samples_per_period=16)
    out = es.classify_outcome(triaxial, traj, material)
    assert out.outcome == es.Outcome.SYNCHRONOUS_CAPTURE
    assert out.metrics is not None
    assert out.equilibrium is not None
    assert np.linalg.norm(np.asarray(out.equilibrium.L) - np.asarray(eq.L)) < 1e-8


@pytest.mark.parametrize("error", [SingularConfigurationError, ImpactProximityError])
def test_classify_maps_inadmissible_newton_to_undetermined(triaxial, material, monkeypatch, error):
    eq = _solve_at_radius(triaxial, material, 2.5)
    traj = _integrate_equilibrium(triaxial, material, eq, periods=6)

    def fail(*args, **kwargs):
        raise error("Newton left the admissible set")

    monkeypatch.setattr("elastisat.classifier.solve_relative_equilibrium", fail)
    out = es.classify_outcome(triaxial, traj, material)
    assert out.outcome == es.Outcome.UNDETERMINED
    assert "admissible set" in out.reason


def test_outcome_tags_are_the_variant_names():
    assert es.Outcome.SYNCHRONOUS_CAPTURE.value == "SynchronousCapture"
    assert es.Outcome.IMPACT.value == "Impact"
    assert es.Outcome.UNBOUNDED.value == "Unbounded"
    assert es.Outcome.UNDETERMINED.value == "Undetermined"


@pytest.mark.parametrize("name", [
    "cdot_max", "spin_orbit_gap", "y_drift", "shape_residual", "window_periods", "equilibrium_tol",
])
@pytest.mark.parametrize("value", [-1.0, 0.0, np.nan])
def test_thresholds_must_be_positive(name, value):
    # a negative window once indexed an empty tail; a NaN gate passed silently
    with pytest.raises(InvalidParameterError, match=name):
        es.CaptureThresholds(**{name: value})
