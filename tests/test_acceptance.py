"""Acceptance sweep: ten end-to-end guarantees, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to watch
them go by).  The synchronous-capture run behind criterion 9 is the long
pole of the suite; it is shared through a module fixture and uses the
documented higher-dissipation setting from scenarios/capture.yaml.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.spatial.transform import Rotation

import elastisat as es
from elastisat.cli import main as cli_main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _check(failures, ok, desc):
    if not ok:
        failures.append(desc)


def _report(num, label, failures):
    marker = "PASS" if not failures else "FAIL"
    print(f"\n[{marker}] criterion {num}: {label}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _total_potential(body, q, material):
    state = es.DeformationState(q, np.zeros_like(q))
    return (
        es.gravitational_energy(body, state, material)
        + es.self_gravity_energy(body, state, material)
        + es.elastic_energy(body, state, material)
    )


@pytest.fixture(scope="module")
def capture_run():
    scenario = es.load_scenario(SCENARIOS / "capture.yaml")
    trajectory = es.integrate(
        scenario.body, scenario.initial_state(), scenario.material,
        scenario.viscosity, scenario.settings,
    )
    verdict = es.classify_outcome(
        scenario.body, trajectory, scenario.material, scenario.thresholds
    )
    return scenario, trajectory, verdict


def test_criterion_01_conservation(sphere):
    mat = es.MaterialParams()
    r = 3.0
    rate = np.sqrt(mat.kM / r**3)
    T = 2 * np.pi / rate
    state0 = es.rigid_state(
        sphere, translation=(r, 0.0, 0.0), velocity=(0.0, r * rate, 0.0),
        spin=(0.0, 0.0, rate),
    )
    settings = es.IntegratorSettings(t_end=10 * T, record_every=T / 20)
    traj = es.integrate(sphere, state0, mat, es.ViscosityParams(0.0), settings)
    H, L = traj.monitors.H, traj.monitors.L
    rel_H = float(np.max(np.abs(H - H[0])) / abs(H[0]))
    rel_L = float(np.max(np.linalg.norm(L - L[0], axis=1)) / np.linalg.norm(L[0]))

    failures = []
    _check(failures, traj.termination == "completed", f"termination {traj.termination}")
    _check(failures, rel_H < 1e-8, f"relative H drift {rel_H:.3e}")
    _check(failures, rel_L < 1e-8, f"relative L drift {rel_L:.3e}")
    _report(1, "sphere, 10 conservative periods: H and L hold to 1e-8", failures)


def test_criterion_02_dissipation_law(triaxial, random_state):
    failures = []
    visc = es.ViscosityParams(0.5)
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        state = random_state(triaxial, rng)
        power = float(state.qdot @ es.viscous_force(triaxial, state, visc))
        rate = es.dissipation_rate(triaxial, state, visc)
        worst = max(worst, abs(power + rate) / abs(rate))
    _check(failures, worst < 1e-10, f"power identity off by {worst:.3e} relative")

    worst_rigid = 0.0
    for _ in range(20):
        R = Rotation.random(random_state=rng).as_matrix()
        state = es.rigid_state(
            triaxial, rotation=R, translation=3.0 * rng.standard_normal(3),
            velocity=rng.standard_normal(3), spin=rng.standard_normal(3),
        )
        worst_rigid = max(worst_rigid, float(np.linalg.norm(
            es.viscous_force(triaxial, state, visc))))
    _check(failures, worst_rigid < 1e-12, f"rigid viscous force {worst_rigid:.3e}")

    # power balance along an actual trajectory: augment the equations of
    # motion with the dissipated energy and integrate both at once
    mat = es.MaterialParams()
    r = 2.5
    rate_c = np.sqrt(mat.kM / r**3)
    state0 = es.rigid_state(
        triaxial, translation=(r, 0.0, 0.0), velocity=(0.0, r * rate_c, 0.0),
        spin=(0.0, 0.0, 1.3 * rate_c),
    )
    n = triaxial.n_modes

    def rhs(t, y):
        st = es.DeformationState(y[:n].copy(), y[n:2 * n].copy())
        qdot, qddot = es.equations_of_motion(triaxial, st, mat, visc)
        return np.concatenate([qdot, qddot, [es.dissipation_rate(triaxial, st, visc)]])

    T = 2 * np.pi / rate_c
    y0 = np.concatenate([state0.q, state0.qdot, [0.0]])
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-11, atol=1e-13)
    final = es.DeformationState(sol.y[:n, -1].copy(), sol.y[n:2 * n, -1].copy())
    dH = (es.energy_breakdown(triaxial, final, mat).H
          - es.energy_breakdown(triaxial, state0, mat).H)
    integrated = float(sol.y[-1, -1])
    mismatch = abs(dH - integrated) / abs(dH)
    _check(failures, mismatch < 1e-6, f"dH vs integrated rate off {mismatch:.3e}")
    dL = float(np.max(np.abs(
        es.angular_momentum(triaxial, final) - es.angular_momentum(triaxial, state0))))
    _check(failures, dL < 1e-8, f"L drift {dL:.3e}")
    _report(2, "viscous power identity, rigid kernel, trajectory balance", failures)


def test_criterion_03_gradient_oracle(triaxial, random_state):
    mat = es.MaterialParams(self_gravity_k=0.3, softening=0.05)
    rng = np.random.default_rng(30)
    h = 1e-6
    failures = []
    worst = 0.0
    for _ in range(20):
        state = random_state(triaxial, rng)
        f = es.conservative_force(triaxial, state, mat)
        fd = np.empty_like(f)
        for j in range(f.size):
            qp, qm = state.q.copy(), state.q.copy()
            qp[j] += h
            qm[j] -= h
            fd[j] = -(_total_potential(triaxial, qp, mat)
                      - _total_potential(triaxial, qm, mat)) / (2 * h)
        worst = max(worst, float(
            np.linalg.norm(f - fd) / max(np.linalg.norm(f), 1.0)))
    _check(failures, worst < 1e-6, f"worst gradient mismatch {worst:.3e}")
    _report(3, "conservative force vs central differences on 20 states", failures)


def test_criterion_04_third_derivative_formulas():
    kM = 1.0
    rng = np.random.default_rng(40)
    failures = []

    def V(y):
        return -kM / np.linalg.norm(y)

    def d3(Y, da, db, dc, h):
        val = 0.0
        for sa in (1, -1):
            for sb in (1, -1):
                for sc in (1, -1):
                    val += sa * sb * sc * V(Y + h * (sa * da + sb * db + sc * dc))
        return val / (8 * h**3)

    e1, e2, e3 = np.eye(3)
    for _ in range(10):
        Y = rng.standard_normal(3)
        Y *= (2.0 + rng.random()) / np.linalg.norm(Y)
        h = 3e-3 * np.linalg.norm(Y)
        exact = es.gravity_third_derivatives(Y, kM)
        for val, (da, db, dc) in zip(exact, ((e1, e1, e1), (e1, e1, e2), (e1, e1, e3))):
            fd = (4.0 * d3(Y, da, db, dc, h) - d3(Y, da, db, dc, 2 * h)) / 3.0
            ok = abs(val - fd) <= 1e-5 * max(abs(val), 1e-3)
            _check(failures, ok, f"at Y={Y}, {val:.6e} vs fd {fd:.6e}")

    d111, d112, d113 = es.gravity_third_derivatives(np.array([1.0, 0.0, 0.0]), 1.0)
    _check(failures, d111 == 6.0, f"substitution d111 {d111!r}")
    _check(failures, d112 == 0.0, f"substitution d112 {d112!r}")
    _check(failures, d113 == 0.0, f"substitution d113 {d113!r}")
    _report(4, "third-derivative closed forms vs finite differences", failures)


def test_criterion_05_stress_symmetry_frame_indifference(triaxial, random_state):
    mat = es.MaterialParams(lam=1.3, mu=0.8, epsilon=2.0)
    rng = np.random.default_rng(50)
    failures = []
    for _ in range(20):
        F = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if np.linalg.det(F) <= 0.1:
            continue
        tau = es.kirchhoff_stress(rng.standard_normal(3), F, mat)
        asym = np.linalg.norm(tau - tau.T)
        _check(failures, asym <= 1e-12 * np.linalg.norm(tau),
               f"stress asymmetry {asym:.3e}")
    for _ in range(20):
        state = random_state(triaxial, rng)
        U = es.elastic_energy(triaxial, state, mat)
        R = Rotation.random(random_state=rng).as_matrix()
        A = state.q.reshape(-1, 3)
        rotated = es.DeformationState((A @ R.T).reshape(-1), state.qdot.copy())
        U_rot = es.elastic_energy(triaxial, rotated, mat)
        _check(failures, abs(U_rot - U) <= 1e-12 * max(abs(U), 1.0),
               f"frame dependence {abs(U_rot - U):.3e} at U={U:.3e}")
    _report(5, "Kirchhoff stress symmetry and frame indifference", failures)


@pytest.mark.slow
def test_criterion_06_relative_equilibrium(triaxial):
    mat = es.MaterialParams(epsilon=0.1)
    r = 10.0
    failures = []
    guess, omega0 = es.synchronous_guess(triaxial, mat, r)
    eq = es.solve_relative_equilibrium(
        triaxial, mat, es.angular_momentum(triaxial, guess), state0=guess, omega0=omega0
    )
    _check(failures, eq.residual_norm < 1e-10, f"residual {eq.residual_norm:.3e}")
    w_spin, w_orbit = es.instantaneous_spin(triaxial, eq.state)
    gap = float(np.linalg.norm(w_spin - w_orbit))
    _check(failures, gap < 1e-9, f"spin-orbit gap {gap:.3e}")
    kepler = np.sqrt(mat.kM / r**3)
    offset = abs(eq.omega[2] - kepler) / kepler
    _check(failures, offset < 3.0 * (1.0 / r) ** 2, f"Kepler offset {offset:.3e}")

    T = 2 * np.pi / abs(eq.omega[2])
    settings = es.IntegratorSettings(t_end=5 * T, record_every=T / 10)
    traj = es.integrate(triaxial, eq.state, mat, es.ViscosityParams(0.5), settings)
    _check(failures, traj.termination == "completed", f"termination {traj.termination}")
    drift = max(
        es.group_orbit_distance(triaxial, traj.state(i), eq)
        for i in range(len(traj.times))
    )
    _check(failures, drift < 1e-6, f"group-orbit drift {drift:.3e}")
    _report(6, "stiff equilibrium at r=10 and 5 viscous periods on its orbit", failures)


def test_criterion_07_catalog_count(triaxial, material):
    failures = []
    entries = es.rigid_quadrupole_catalog(triaxial, material, 3.0)
    _check(failures, len(entries) == 24, f"{len(entries)} families")
    worst = max(
        max(float(np.linalg.norm(e.res_force)), float(np.linalg.norm(e.res_torque)))
        for e in entries
    )
    _check(failures, worst < 1e-10, f"worst residual {worst:.3e}")
    axisym = es.build_ellipsoid_body((1.0, 1.0, 0.6))
    try:
        es.rigid_quadrupole_catalog(axisym, material, 3.0)
        _check(failures, False, "axisymmetric body did not raise")
    except es.DegenerateCatalogError:
        pass
    _report(7, "exactly 24 rigid families; axisymmetric input rejected", failures)


def test_criterion_08_nondegeneracy_dichotomy(triaxial, sphere):
    failures = []
    stiff = es.MaterialParams(epsilon=0.1)
    guess, omega0 = es.synchronous_guess(triaxial, stiff, 10.0)
    eq = es.solve_relative_equilibrium(
        triaxial, stiff, es.angular_momentum(triaxial, guess), state0=guess, omega0=omega0
    )
    report = es.nondegeneracy_spectrum(triaxial, stiff, eq)
    _check(failures, report.nondegenerate, f"triaxial n_zero {report.n_zero}")

    mat = es.MaterialParams()
    guess, omega0 = es.synchronous_guess(sphere, mat, 3.0)
    eq_s = es.solve_relative_equilibrium(
        sphere, mat, es.angular_momentum(sphere, guess), state0=guess, omega0=omega0
    )
    report_s = es.nondegeneracy_spectrum(sphere, mat, eq_s)
    _check(failures, not report_s.nondegenerate, f"sphere n_zero {report_s.n_zero}")
    _check(failures, report_s.n_zero >= 1, f"sphere n_zero {report_s.n_zero}")
    _report(8, "triaxial nondegenerate, sphere degenerate", failures)


@pytest.mark.slow
def test_criterion_09_trichotomy_and_isolation(capture_run):
    failures = []
    for name, expected in (
        ("unbounded.yaml", es.Outcome.UNBOUNDED),
        ("impact.yaml", es.Outcome.IMPACT),
    ):
        sc = es.load_scenario(SCENARIOS / name)
        traj = es.integrate(sc.body, sc.initial_state(), sc.material, sc.viscosity, sc.settings)
        out = es.classify_outcome(sc.body, traj, sc.material, sc.thresholds)
        _check(failures, out.outcome == expected,
               f"{name} -> {out.outcome.value} ({out.reason})")
        if expected is es.Outcome.UNBOUNDED:
            _check(failures, out.escape_energy > 0.0,
                   f"escape energy {out.escape_energy}")

    scenario, trajectory, verdict = capture_run
    _check(failures, verdict.outcome == es.Outcome.SYNCHRONOUS_CAPTURE,
           f"capture -> {verdict.outcome.value} ({verdict.reason})")
    if verdict.metrics is not None:
        _check(failures, verdict.metrics.spin_orbit_gap < 1e-3,
               f"spin-orbit gap {verdict.metrics.spin_orbit_gap:.3e}")
        _check(failures, verdict.metrics.cdot_max < 1e-6,
               f"cdot_max {verdict.metrics.cdot_max:.3e}")
    windows = es.windowed_dissipation(trajectory, trajectory.times[-1] / 8)
    _check(failures, bool(np.all(np.diff(windows) < 0.0)),
           f"windowed dissipation not decreasing: {windows}")

    if failures:  # restarts only make sense off a captured run
        _report(9, "trichotomy, capture gates, isolation restarts", failures)

    # isolation: kick the captured endpoint twice within the same momentum
    # level set and confirm both runs settle back onto the same group orbit
    body = scenario.body
    final = trajectory.final_state
    L_orig = es.angular_momentum(body, final)
    T = 2 * np.pi / abs(verdict.equilibrium.omega[2])
    Dv = np.column_stack([
        es.angular_momentum(body, es.DeformationState(final.q, e))
        for e in np.eye(body.n_modes)
    ])
    rng = np.random.default_rng(90)
    settings = dataclasses.replace(scenario.settings, t_end=32 * T)
    for k in range(2):
        dv = rng.standard_normal(body.n_modes)
        dv -= Dv.T @ np.linalg.solve(Dv @ Dv.T, Dv @ dv)
        dv *= 1e-4 * np.linalg.norm(final.qdot) / np.linalg.norm(dv)
        restart = es.DeformationState(final.q.copy(), final.qdot + dv)
        traj_r = es.integrate(body, restart, scenario.material, scenario.viscosity, settings)
        out_r = es.classify_outcome(body, traj_r, scenario.material, scenario.thresholds)
        _check(failures, out_r.outcome == es.Outcome.SYNCHRONOUS_CAPTURE,
               f"restart {k} -> {out_r.outcome.value} ({out_r.reason})")
        d = es.group_orbit_distance(body, traj_r.final_state, verdict.equilibrium)
        _check(failures, d < 1e-6, f"restart {k} distance to original orbit {d:.3e}")
        dL = float(np.max(np.abs(es.angular_momentum(body, traj_r.final_state) - L_orig)))
        _check(failures, dL < 1e-8, f"restart {k} momentum drift {dL:.3e}")
    _report(9, "trichotomy, capture gates, isolation restarts", failures)


def test_criterion_10_byte_determinism(tmp_path):
    failures = []
    cfg = str(SCENARIOS / "impact.yaml")
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli_main(["simulate", "--config", cfg, "--out", str(out)])
        _check(failures, rc == 0, f"exit code {rc}")
        digests.append({
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("monitors.csv", "result.json")
        })
        manifest = json.loads((out / "manifest.json").read_text())
        _check(failures, manifest["outputs"] == digests[-1], "manifest hash mismatch")
    _check(failures, digests[0] == digests[1], "outputs differ between reruns")
    _report(10, "repeated simulate is byte-identical", failures)
