"""Time integration: invariants, events, diagnostics, method agreement."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import elastisat as es
from elastisat import dynamics
from elastisat.errors import InvalidParameterError

EPS3 = es.MaterialParams(epsilon=3.0)


def _orbit_state(body, r=2.5, tangential=1.0, spin_factor=1.0, kM=1.0):
    rate = np.sqrt(kM / r**3)
    return es.rigid_state(
        body,
        translation=(r, 0.0, 0.0),
        velocity=(0.0, tangential * r * rate, 0.0),
        spin=(0.0, 0.0, spin_factor * rate),
    )


def test_conservative_run_preserves_energy_and_momentum(triaxial, material):
    state = _orbit_state(triaxial, tangential=0.95, spin_factor=1.3)
    T = 2 * np.pi * np.sqrt(2.5**3)
    settings = es.IntegratorSettings(t_end=2 * T, record_every=T / 32)
    traj = es.integrate(triaxial, state, material, es.ViscosityParams(0.0), settings)
    assert traj.termination == "completed"
    H, L = traj.monitors.H, traj.monitors.L
    assert np.max(np.abs(H - H[0])) < 1e-9 * abs(H[0])
    assert np.max(np.linalg.norm(L - L[0], axis=1)) < 1e-10 * np.linalg.norm(L[0])


def test_viscous_run_dissipates_monotonically(triaxial):
    state = _orbit_state(triaxial, tangential=0.95, spin_factor=1.3)
    T = 2 * np.pi * np.sqrt(2.5**3)
    settings = es.IntegratorSettings(t_end=T, record_every=T / 64)
    traj = es.integrate(triaxial, state, EPS3, es.ViscosityParams(0.8), settings)
    H, L = traj.monitors.H, traj.monitors.L
    drops = np.diff(H)
    assert np.all(drops <= 1e-12 * abs(H[0]))
    assert H[-1] < H[0] - 1e-4 * abs(H[0])
    assert np.max(np.linalg.norm(L - L[0], axis=1)) < 1e-10 * np.linalg.norm(L[0])
    # recorded rate is Hdot and never positive; the exact Hdot = -qdot.g
    # balance is checked against quadrature in the acceptance suite
    assert np.all(traj.dissipation_rate <= 0.0)


def test_monitor_rows_match_recomputed_breakdown(triaxial):
    state = _orbit_state(triaxial, tangential=0.9)
    settings = es.IntegratorSettings(t_end=5.0, record_every=1.0)
    visc = es.ViscosityParams(0.5)
    traj = es.integrate(triaxial, state, EPS3, visc, settings)
    rows = traj.monitor_rows()
    for i in range(len(traj)):
        st = traj.state(i)
        mon = es.energy_breakdown(triaxial, st, EPS3)
        assert traj.monitors.H[i] == pytest.approx(mon.H, rel=1e-13)
        assert traj.monitors.K[i] == pytest.approx(mon.K, rel=1e-13)
        assert np.allclose(traj.monitors.L[i], mon.L, rtol=1e-13)
        assert traj.dissipation_rate[i] == pytest.approx(
            es.dissipation_rate(triaxial, st, visc), rel=1e-13)
        assert traj.cdot_max[i] == pytest.approx(es.max_cauchy_green_rate(triaxial, st), rel=1e-13)
        _, Y, _ = es.comoving_decomposition(triaxial, st)
        w_spin, w_orbit = es.instantaneous_spin(triaxial, st)
        assert np.allclose(traj.Y[i], Y, rtol=1e-13, atol=0.0)
        assert np.allclose(traj.omega_spin[i], w_spin, rtol=1e-13, atol=0.0)
        assert np.allclose(traj.omega_orbit[i], w_orbit, rtol=1e-13, atol=0.0)
        assert rows[i, -2:] == pytest.approx(
            [np.linalg.norm(Y), np.linalg.norm(w_spin)], rel=1e-13
        )


def test_impact_event_matches_radial_fall_oracle(triaxial, material):
    # released at rest from r0: pointlike free-fall time to the final
    # barycenter distance, t = sqrt(r0^3/2kM) (acos(sqrt(s)) + sqrt(s(1-s)))
    r0 = 5.0
    state = es.rigid_state(triaxial, translation=(r0, 0.0, 0.0))
    settings = es.IntegratorSettings(t_end=20.0, record_every=0.05, impact_radius=0.8)
    traj = es.integrate(triaxial, state, material, es.ViscosityParams(0.1), settings)
    assert traj.termination == "impact-detected"
    d = np.linalg.norm(triaxial.barycenter(traj.final_state.q))
    s = d / r0
    t_ref = np.sqrt(r0**3 / (2 * material.kM)) * (np.arccos(np.sqrt(s)) + np.sqrt(s * (1 - s)))
    assert traj.times[-1] == pytest.approx(t_ref, rel=0.03)
    # the event state itself is just outside the impact sphere
    Z = traj.final_state.q.reshape(-1, 3)
    assert d > 0.8


def test_escape_event_fires_on_hyperbolic_orbit(triaxial, material):
    state = _orbit_state(triaxial, r=8.0, tangential=1.5)
    settings = es.IntegratorSettings(t_end=400.0, record_every=1.0, escape_radius=30.0)
    traj = es.integrate(triaxial, state, material, es.ViscosityParams(0.05), settings)
    assert traj.termination == "escape-detected"
    c = triaxial.barycenter(traj.final_state.q)
    assert np.linalg.norm(c) == pytest.approx(30.0, abs=1.0)
    assert es.two_body_energy(triaxial, traj, material) > 0.0


def test_bound_orbit_two_body_energy_is_negative(triaxial, material):
    state = _orbit_state(triaxial, r=3.0)
    settings = es.IntegratorSettings(t_end=1.0, record_every=0.5)
    traj = es.integrate(triaxial, state, material, es.ViscosityParams(0.0), settings)
    assert es.two_body_energy(triaxial, traj, material) < 0.0


@pytest.mark.parametrize("method", ["dop853"])
def test_trajectory_counts_every_rhs_call(triaxial, monkeypatch, method):
    calls = []
    build = dynamics._rhs

    def counting_rhs(*args):
        rhs = build(*args)
        return lambda t, y, out: calls.append(1) or rhs(t, y, out)

    monkeypatch.setattr(dynamics, "_rhs", counting_rhs)
    settings = es.IntegratorSettings(method=method, t_end=0.5, record_every=0.25, max_step=0.05)
    traj = es.integrate(triaxial, _orbit_state(triaxial), EPS3, es.ViscosityParams(0.3), settings)
    assert traj.nfev == len(calls) > 0
    assert traj.njev == 0
    assert traj.tail(0.25).nfev == traj.nfev  # the counts describe the whole run


def test_comoving_decomposition_recovers_rigid_placement(triaxial):
    rng = np.random.default_rng(53)
    R = Rotation.random(random_state=rng).as_matrix()
    c = np.array([2.0, -1.5, 0.7])
    state = es.rigid_state(triaxial, rotation=R, translation=c, spin=(0.1, 0.0, 0.3))
    R_fit, Y, residual = es.comoving_decomposition(triaxial, state)
    assert np.allclose(R_fit, R, atol=1e-12)
    assert np.allclose(Y, R.T @ c, atol=1e-12)
    assert residual < 1e-12


def test_instantaneous_spin_on_rigid_state(triaxial):
    r = 3.0
    rate = np.sqrt(1.0 / r**3)
    w = np.array([0.0, 0.0, 0.7 * rate])
    state = es.rigid_state(
        triaxial, translation=(r, 0, 0), velocity=(0.0, r * rate, 0.0), spin=w
    )
    w_spin, w_orbit = es.instantaneous_spin(triaxial, state)
    assert np.allclose(w_spin, w, atol=1e-12)
    assert np.allclose(w_orbit, [0.0, 0.0, rate], atol=1e-12)


def test_recording_grid_and_tail(triaxial, material):
    state = _orbit_state(triaxial)
    settings = es.IntegratorSettings(t_end=4.0, record_every=0.5)
    traj = es.integrate(triaxial, state, material, es.ViscosityParams(0.0), settings)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(4.0)
    assert np.allclose(np.diff(traj.times), 0.5, atol=1e-12)
    tail = traj.tail(2.2)
    assert tail.times[0] >= 2.2 - 1e-12
    assert tail.times[-1] == traj.times[-1]
    assert len(tail) < len(traj)
    st = traj.state(1)
    assert st.q.shape == (triaxial.n_modes,)


def test_settings_validation():
    with pytest.raises(InvalidParameterError):
        es.IntegratorSettings(t_end=-1.0)
    for method in ("verlet", "rk45"):
        with pytest.raises(InvalidParameterError):
            es.IntegratorSettings(method=method)
    with pytest.raises(InvalidParameterError):
        es.IntegratorSettings(rel_tol=0.0)
    # a zero step bound or impact radius would break the run, not the config;
    # NaN fails every check, and the sample grid needs a finite t_end and interval
    for bad in ({"max_step": 0.0}, {"max_step": -1.0}, {"impact_radius": 0.0},
                {"impact_radius": -1.0}, {"escape_radius": 1e-2},
                {"impact_radius": 2.0, "escape_radius": 1.0},
                {"t_end": np.nan}, {"t_end": np.inf}, {"record_every": np.nan},
                {"record_every": np.inf}, {"rel_tol": np.nan}, {"abs_tol": np.nan},
                {"max_step": np.nan}, {"impact_radius": np.nan}, {"escape_radius": np.nan}):
        with pytest.raises(InvalidParameterError):
            es.IntegratorSettings(**bad)

