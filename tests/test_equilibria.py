"""Relative equilibria: Newton solver, spectra, and the rigid catalog."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import elastisat as es
from elastisat.body_model import skew
from elastisat.equilibria import equilibrium_residual, equilibrium_velocity
from elastisat.errors import DegenerateCatalogError, NoConvergenceError


def _solve_at_radius(body, material, r):
    guess, omega0 = es.synchronous_guess(body, material, r)
    L0 = es.angular_momentum(body, guess)
    return es.solve_relative_equilibrium(body, material, L0, state0=guess, omega0=omega0)


def test_newton_converges_and_is_synchronous(triaxial, material):
    eq = _solve_at_radius(triaxial, material, 3.0)
    assert eq.residual_norm < 1e-11
    assert eq.iterations <= 30
    w_spin, w_orbit = es.instantaneous_spin(triaxial, eq.state)
    assert np.allclose(w_spin, eq.omega, atol=1e-9)
    assert np.allclose(w_orbit, eq.omega, atol=1e-9)
    # Kepler up to the quadrupole correction
    kepler = np.sqrt(material.kM / eq.orbit_radius**3)
    rel = abs(np.linalg.norm(eq.omega) - kepler) / kepler
    assert rel < 3.0 * (1.0 / eq.orbit_radius) ** 2
    assert rel > 1e-5


def test_equilibrium_state_is_steady(triaxial, material):
    # uniform rotation: qddot must equal the centripetal coefficient field
    eq = _solve_at_radius(triaxial, material, 3.0)
    _, qddot = es.equations_of_motion(triaxial, eq.state, material)
    A = eq.q.reshape(-1, 3)
    W = skew(eq.omega)
    expected = (A @ (W @ W)).reshape(-1)
    assert np.linalg.norm(qddot - expected) < 1e-8 * max(1.0, np.linalg.norm(expected))


def test_augmented_hamiltonian_is_critical(triaxial, material):
    eq = _solve_at_radius(triaxial, material, 3.0)
    rng = np.random.default_rng(61)
    h = 1e-6
    base = eq.state
    for _ in range(5):
        dq = rng.standard_normal(base.q.size)
        dv = rng.standard_normal(base.q.size)
        scale = np.sqrt(dq @ dq + dv @ dv)

        def psi(s):
            st = es.DeformationState(base.q + s * dq, base.qdot + s * dv)
            return es.augmented_hamiltonian(triaxial, st, material, eq.omega, eq.L)

        deriv = (psi(h) - psi(-h)) / (2 * h)
        assert abs(deriv) < 1e-6 * scale


def test_group_covariance_of_residual(triaxial, material):
    eq = _solve_at_radius(triaxial, material, 3.0)
    rng = np.random.default_rng(67)
    R = Rotation.random(random_state=rng).as_matrix()
    q_rot = (eq.q.reshape(-1, 3) @ R.T).reshape(-1)
    res = equilibrium_residual(triaxial, material, q_rot, R @ eq.omega, R @ eq.L)
    assert np.linalg.norm(res, ord=np.inf) < 1e-10


def test_equilibrium_velocity_matches_spin_field(triaxial, material):
    eq = _solve_at_radius(triaxial, material, 3.0)
    v = equilibrium_velocity(triaxial, eq.q, eq.omega)
    assert np.allclose(v, eq.state.qdot, atol=1e-14)
    # the velocity field is omega x zeta at every material point
    st = es.DeformationState(eq.q, v)
    x = np.array([0.3, -0.2, 0.1])
    zeta, _ = es.evaluate_map(triaxial, st, x)
    zdot, _ = es.evaluate_map(triaxial, es.DeformationState(v, v), x)
    assert np.allclose(zdot, np.cross(eq.omega, zeta), atol=1e-13)


def test_stiff_limit_shrinks_rigid_misfit(triaxial):
    misfits = []
    for eps in (1.0, 0.1, 0.01):
        mat = es.MaterialParams(epsilon=eps)
        eq = _solve_at_radius(triaxial, mat, 4.0)
        _, _, residual = es.comoving_decomposition(triaxial, eq.state)
        misfits.append(residual)
    assert misfits[1] < 0.2 * misfits[0]
    assert misfits[2] < 0.2 * misfits[1]


def test_nondegeneracy_dichotomy(triaxial, sphere, material):
    eq_tri = _solve_at_radius(triaxial, material, 3.0)
    rep_tri = es.nondegeneracy_spectrum(triaxial, material, eq_tri)
    assert rep_tri.nondegenerate
    assert rep_tri.n_zero == 0

    eq_sph = _solve_at_radius(sphere, material, 3.0)
    rep_sph = es.nondegeneracy_spectrum(sphere, material, eq_sph)
    assert not rep_sph.nondegenerate
    assert rep_sph.n_zero >= 1


def test_solver_failure_carries_residual_trace(triaxial, material):
    guess, omega0 = es.synchronous_guess(triaxial, material, 3.0)
    L0 = es.angular_momentum(triaxial, guess)
    with pytest.raises(NoConvergenceError) as info:
        es.solve_relative_equilibrium(
            triaxial, material, L0, state0=guess, omega0=omega0,
            tol=1e-15, max_iter=1,
        )
    assert len(info.value.residual_trace) >= 1


@pytest.mark.parametrize("draw, converges", [(5, True), (11, False)])
def test_newton_survives_inadmissible_points(triaxial, material, draw, converges):
    # Seeds that pass require_regular but whose Newton steps or Jacobian
    # stencil reach det(Dzeta) <= 0: a trial point there is a rejected step,
    # and a stencil there ends the solve with NoConvergenceError.
    rng = np.random.default_rng(0)
    for _ in range(draw):
        guess, omega0 = es.synchronous_guess(triaxial, material, 2.5)
        guess.q = guess.q + 0.25 * rng.standard_normal(guess.q.size)
    L0 = es.angular_momentum(triaxial, guess)
    if converges:
        eq = es.solve_relative_equilibrium(triaxial, material, L0, state0=guess, omega0=omega0)
        assert eq.residual_norm <= 1e-12
    else:
        with pytest.raises(NoConvergenceError, match="admissible"):
            es.solve_relative_equilibrium(triaxial, material, L0, state0=guess, omega0=omega0)


def test_catalog_enumerates_24_families(triaxial, material):
    cat = es.rigid_quadrupole_catalog(triaxial, material, 3.0)
    assert len(cat) == 24
    # all orientations distinct
    for i in range(24):
        for j in range(i + 1, 24):
            assert np.linalg.norm(cat[i].rotation - cat[j].rotation) > 0.1
    for fam in cat:
        assert np.linalg.norm(fam.res_force) < 1e-12
        assert np.linalg.norm(fam.res_torque) < 1e-12
        assert abs(np.linalg.det(fam.rotation) - 1.0) < 1e-12
    stable = [fam for fam in cat if fam.stable]
    assert len(stable) == 4
    for fam in stable:
        assert fam.radial_axis[0] == 0   # long axis points at the planet
        assert fam.normal_axis[0] == 2   # largest-inertia axis spans the normal
    signatures = {}
    for fam in cat:
        key = (fam.n_negative, fam.n_zero, fam.n_positive)
        signatures[key] = signatures.get(key, 0) + 1
    assert signatures == {(0, 0, 8): 4, (1, 0, 7): 8, (2, 0, 6): 8, (3, 0, 5): 4}


def test_catalog_spin_rates_near_kepler(triaxial, material):
    r = 5.0
    cat = es.rigid_quadrupole_catalog(triaxial, material, r)
    kepler = np.sqrt(material.kM / r**3)
    rates = sorted({round(fam.spin_rate, 12) for fam in cat})
    assert len(rates) == 3   # one rate per radial-axis choice
    for rate in rates:
        assert abs(rate - kepler) / kepler < 3.0 * (1.0 / r) ** 2


def test_catalog_rejects_axisymmetric_body(material):
    axisym = es.build_ellipsoid_body((1.0, 1.0, 0.6))
    with pytest.raises(DegenerateCatalogError):
        es.rigid_quadrupole_catalog(axisym, material, 3.0)
