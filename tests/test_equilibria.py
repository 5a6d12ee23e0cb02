"""Relative equilibria: Newton solver, spectra, and the rigid catalog."""

import numpy as np
import pytest
from scipy.linalg import expm, null_space
from scipy.spatial.transform import Rotation

import elastisat as es
from elastisat import equilibria
from elastisat.body_model import skew
from elastisat.energetics import force_kernel
from elastisat.equilibria import (
    RigidBodyModel,
    _maccullagh_potential,
    _restricted_spectrum,
    _rigid_hessian,
    _rigid_momentum_jacobian,
    equilibrium_jacobian,
    equilibrium_residual,
    equilibrium_velocity,
)
from elastisat.errors import DegenerateCatalogError, NoConvergenceError

SELF_GRAVITY = es.MaterialParams(self_gravity_k=0.2, softening=0.05)


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
    res = equilibrium_residual(force_kernel(triaxial, material), q_rot, R @ eq.omega, R @ eq.L)
    assert np.linalg.norm(res, ord=np.inf) < 1e-10


def test_equilibrium_velocity_matches_spin_field(triaxial, material):
    eq = _solve_at_radius(triaxial, material, 3.0)
    v = equilibrium_velocity(eq.q, eq.omega)
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


def _perturbed_seed(body, material, draw):
    """Draw number `draw` of noisy synchronous seeds at r = 2.5 (noise 0.25): (L0, guess, omega0)."""
    rng = np.random.default_rng(0)
    for _ in range(draw):
        guess, omega0 = es.synchronous_guess(body, material, 2.5)
        guess.q = guess.q + 0.25 * rng.standard_normal(guess.q.size)
    return es.angular_momentum(body, guess), guess, omega0


@pytest.mark.parametrize("draw, converges", [(5, True), (11, False)])
def test_newton_survives_inadmissible_points(triaxial, material, draw, converges):
    # Seeds that pass require_regular but whose Newton steps reach
    # det(Dzeta) <= 0: a trial point there is a rejected step.  Draw 5
    # converges anyway; from draw 11 every cut of some step stays
    # inadmissible or raises the residual, so the line search stalls.
    L0, guess, omega0 = _perturbed_seed(triaxial, material, draw)
    if converges:
        eq = es.solve_relative_equilibrium(triaxial, material, L0, state0=guess, omega0=omega0)
        assert eq.residual_norm <= 1e-12
    else:
        with pytest.raises(NoConvergenceError, match="line search stalled") as info:
            es.solve_relative_equilibrium(triaxial, material, L0, state0=guess, omega0=omega0)
        assert "stationary point" not in str(info.value)  # |res| 0.16, far from stationary


@pytest.mark.parametrize("draw", [4, 10])
def test_newton_names_a_stationary_point_that_is_no_root(triaxial, material, draw):
    # These seeds end at |res| ~ 2.3e-6, where J^T res nearly vanishes on
    # Newton's system: no step reduces the residual norm to first order.
    L0, guess, omega0 = _perturbed_seed(triaxial, material, draw)
    with pytest.raises(NoConvergenceError, match="line search stalled") as info:
        es.solve_relative_equilibrium(triaxial, material, L0, state0=guess, omega0=omega0)
    assert "stationary point of the residual norm, not a root" in str(info.value)
    assert info.value.residual_trace[-1] < 1e-5


@pytest.mark.parametrize("draw", [None, 5], ids=["synchronous", "draw5"])
def test_newton_debug_log_traces_every_iteration_and_cut(triaxial, material, caplog, draw):
    # The plain synchronous seed at r = 2.5 takes full steps; draw 5
    # reaches inadmissible trial points (see above) and converges after
    # cuts.  Debug logging reads what Newton computes and changes no iterate.
    if draw is None:
        guess, omega0 = es.synchronous_guess(triaxial, material, 2.5)
        L0 = es.angular_momentum(triaxial, guess)
    else:
        L0, guess, omega0 = _perturbed_seed(triaxial, material, draw)
    quiet = es.solve_relative_equilibrium(triaxial, material, L0, state0=guess, omega0=omega0)
    with caplog.at_level("DEBUG", logger="elastisat.equilibria"):
        eq = es.solve_relative_equilibrium(triaxial, material, L0, state0=guess, omega0=omega0)
    assert np.array_equal(eq.q, quiet.q) and eq.residual_trace == quiet.residual_trace

    lines = [r.getMessage() for r in caplog.records if r.name == "elastisat.equilibria"]
    steps = [m for m in lines if ", |step| " in m]
    accepted = [m for m in lines if ": accepted alpha " in m]
    cuts = [m for m in lines if ": step cut at alpha " in m]
    assert len(steps) == len(accepted) == eq.iterations - 1
    assert len(steps) + len(accepted) + len(cuts) == len(lines)
    trace = [f"{v:.3e}" for v in eq.residual_trace]
    assert [m.split("|res| ")[1].split(",")[0] for m in steps] == trace[:-1]
    assert [m.split("|res| ")[1] for m in accepted] == trace[1:]
    assert all(float(m.split("|step| ")[1]) > 0 for m in steps)
    if draw == 5:
        assert any("trial point inadmissible" in m for m in cuts)
    else:
        assert not cuts


def _fd_jacobian(kernel, q, omega):
    """Central finite differences of equilibrium_residual in (q, omega)."""
    u = np.concatenate([q, omega])
    n = q.size
    cols = []
    for j in range(u.size):
        h = 1e-6 * max(1.0, abs(u[j]))
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        cols.append((equilibrium_residual(kernel, up[:n], up[n:], np.zeros(3))
                     - equilibrium_residual(kernel, um[:n], um[n:], np.zeros(3)))
                    / (2.0 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("self_gravity", [False, True])
def test_newton_jacobian_matches_finite_differences(triaxial, material, self_gravity):
    mat = SELF_GRAVITY if self_gravity else material
    rng = np.random.default_rng(71)
    guess, omega0 = es.synchronous_guess(triaxial, mat, 3.0)
    kernel = force_kernel(triaxial, mat)
    for _ in range(3):
        q = guess.q + 0.05 * rng.standard_normal(guess.q.size)
        omega = omega0 + 0.05 * rng.standard_normal(3)
        J = equilibrium_jacobian(kernel, q, omega)
        J_fd = _fd_jacobian(kernel, q, omega)
        assert np.linalg.norm(J - J_fd) <= 1e-7 * np.linalg.norm(J)


def _block_jacobian(kernel, q, omega):
    """equilibrium_jacobian as np.block of the blocks, with kron and a column per axis."""
    body = kernel.body
    A = q.reshape(-1, 3)
    W = skew(omega)
    dW = [skew(e) for e in np.eye(3)]
    SA, SV = body.S @ A, body.S @ (A @ W.T)
    Dq, Dv = np.hstack([-skew(x) for x in SV]), np.hstack([skew(x) for x in SA])
    return np.block([
        [-kernel.jacobian(q[None]) + np.kron(body.S, W @ W),
         np.column_stack([(SA @ (E @ W + W @ E)).reshape(-1) for E in dW])],
        [Dq + Dv @ np.kron(np.eye(A.shape[0]), W),
         Dv @ np.column_stack([(A @ E.T).reshape(-1) for E in dW])],
    ])


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("self_gravity", [False, True])
def test_newton_jacobian_is_the_block_assembly(material, degree, self_gravity):
    # equilibrium_jacobian copies whole blocks into one array; Newton's
    # arithmetic must not change, so it equals the block-by-block assembly bit for bit
    body = es.build_ellipsoid_body((1.0, 0.85, 0.6), basis_degree=degree)
    mat = SELF_GRAVITY if self_gravity else material
    rng = np.random.default_rng(73)
    guess, omega0 = es.synchronous_guess(body, mat, 3.0)
    kernel = force_kernel(body, mat)
    for _ in range(3):
        q = guess.q + 0.05 * rng.standard_normal(guess.q.size)
        omega = omega0 + 0.05 * rng.standard_normal(3)
        assert np.array_equal(equilibrium_jacobian(kernel, q, omega),
                              _block_jacobian(kernel, q, omega))


@pytest.mark.parametrize("self_gravity", [False, True])
@pytest.mark.parametrize("r", [2.5, 3.0, 4.0, 6.0])
def test_phase_row_pins_the_orbit_point(triaxial, material, monkeypatch, r, self_gravity):
    # The phase row fixes where on the rotation orbit Newton lands, so a
    # Jacobian that differs at the finite-difference level moves the raw
    # (unaligned) q by round-off only.
    mat = SELF_GRAVITY if self_gravity else material
    eq = _solve_at_radius(triaxial, mat, r)
    monkeypatch.setattr(equilibria, "equilibrium_jacobian", _fd_jacobian)
    eq_fd = _solve_at_radius(triaxial, mat, r)
    assert eq.residual_norm <= 1e-12 and eq_fd.residual_norm <= 1e-12
    assert np.max(np.abs(eq.q - eq_fd.q)) <= 1e-10


def _rigid_energy(u, rigid, R0, kM, L0, omega_e):
    """Augmented rigid energy over the chart (c, theta, v, w), attitude R0 expm(skew theta)."""
    c, th, v, w = u[0:3], u[3:6], u[6:9], u[9:12]
    R = R0 @ expm(skew(th))
    I_s = R @ rigid.inertia @ R.T
    L = rigid.mass * np.cross(c, v) + I_s @ w
    K = 0.5 * rigid.mass * (v @ v) + 0.5 * (w @ I_s @ w)
    return K + _maccullagh_potential(c, I_s, rigid.mass, kM) - omega_e @ (L - L0)


def _fd_rigid_hessian(rigid, fam, kM, h=1e-4):
    """Four-point central-difference Hessian of _rigid_energy at the family's chart origin."""
    u0 = np.concatenate([fam.barycenter, np.zeros(3),
                         np.cross(fam.omega, fam.barycenter), fam.omega])
    E = h * np.eye(12)

    def psi(u):
        return _rigid_energy(u, rigid, fam.rotation, kM, fam.angular_momentum, fam.omega)

    H = np.empty((12, 12))
    for i in range(12):
        for j in range(i, 12):
            H[i, j] = H[j, i] = (psi(u0 + E[i] + E[j]) - psi(u0 + E[i] - E[j])
                                 - psi(u0 - E[i] + E[j]) + psi(u0 - E[i] - E[j])) / (4 * h * h)
    return H


@pytest.mark.parametrize("r", [3.0, 5.0])
def test_rigid_hessian_matches_the_expm_energy(triaxial, material, r):
    rigid = RigidBodyModel.from_body(triaxial)
    for fam in es.rigid_quadrupole_catalog(triaxial, material, r):
        H = _rigid_hessian(rigid, fam.rotation, fam.barycenter, fam.omega, material.kM)
        H_fd = _fd_rigid_hessian(rigid, fam, material.kM)
        assert np.abs(H - H.T).max() <= 1e-14 * np.abs(H).max()
        # block by block, so the small attitude blocks are held to their own
        # scale; 1e-7 absolute is about 30 times the stencil's round-off
        blocks = [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12)]
        for rows in blocks:
            for cols in blocks:
                err = np.abs(H[rows, cols] - H_fd[rows, cols]).max()
                assert err <= 1e-6 * np.abs(H_fd[rows, cols]).max() + 1e-7


def _scipy_restricted_spectrum(H, dL, T):
    """Eigenvalues of H on ker dL with T projected out, one matrix, through scipy's null_space."""
    K = null_space(dL)
    Hr = K.T @ H @ K
    t_k = K.T @ T
    if np.linalg.norm(t_k) > 1e-12 * max(1.0, np.linalg.norm(T)):
        Q = null_space(t_k.reshape(1, -1))
        Hr = Q.T @ Hr @ Q
    return np.linalg.eigvalsh(Hr)


def test_rigid_stack_is_the_one_family_calls(triaxial, material):
    # The catalog evaluates its families as one stack. Stacked over the 72
    # families at three radii, each family's Hessian, momentum Jacobian and
    # restricted spectrum must equal its one-family call bit for bit, the
    # spectrum must be the one scipy's null_space gives, and the catalog must
    # report it.
    rigid = RigidBodyModel.from_body(triaxial)
    cat = [fam for r in (2.2, 2.9, 4.9)
           for fam in es.rigid_quadrupole_catalog(triaxial, material, r)]
    R, c, omega, L = (np.array([getattr(fam, key) for fam in cat])
                      for key in ("rotation", "barycenter", "omega", "angular_momentum"))
    v = np.cross(omega, c)
    axis = L / np.linalg.norm(L, axis=-1)[:, None]
    T = np.concatenate([np.cross(axis, c), (R.mT @ axis[..., None])[..., 0],
                        np.cross(axis, v), np.cross(axis, omega)], axis=-1)
    H = _rigid_hessian(rigid, R, c, omega, material.kM)
    dL = _rigid_momentum_jacobian(rigid, R, c, v, omega)
    report = _restricted_spectrum(H, dL, T)
    assert H.shape == (72, 12, 12) and dL.shape == (72, 3, 12)
    for f, fam in enumerate(cat):
        H1 = _rigid_hessian(rigid, fam.rotation, fam.barycenter, fam.omega, material.kM)
        dL1 = _rigid_momentum_jacobian(rigid, fam.rotation, fam.barycenter, v[f], fam.omega)
        one = _restricted_spectrum(H1, dL1, T[f])[()]
        assert np.array_equal(H[f], H1)
        assert np.array_equal(dL[f], dL1)
        assert np.array_equal(one.eigenvalues, _scipy_restricted_spectrum(H1, dL1, T[f]))
        assert np.array_equal(report.eigenvalues[f], one.eigenvalues)
        assert np.array_equal(fam.spectrum.eigenvalues, one.eigenvalues)
        assert report[f].floor == one.floor
        assert (fam.spectrum.n_negative, fam.spectrum.n_zero, fam.spectrum.n_positive) == (
            one.n_negative, one.n_zero, one.n_positive)


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
        key = (fam.spectrum.n_negative, fam.spectrum.n_zero, fam.spectrum.n_positive)
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
