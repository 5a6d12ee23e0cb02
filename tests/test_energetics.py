"""Energy functionals, stresses, and exact force gradients."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import elastisat as es
from elastisat.body_model import _gradients, require_regular
from elastisat.dissipation import viscous_first_piola
from elastisat.energetics import first_piola, force_kernel
from elastisat.errors import InvalidParameterError


def _total_potential(body, q, material):
    state = es.DeformationState(q, np.zeros_like(q))
    return (
        es.gravitational_energy(body, state, material)
        + es.self_gravity_energy(body, state, material)
        + es.elastic_energy(body, state, material)
    )


def test_stored_energy_density_closed_form():
    mat = es.MaterialParams(lam=1.0, mu=1.0, epsilon=1.0)
    F = np.diag([1.1, 1.0, 1.0])
    # E = diag(0.105, 0, 0); W = lam/2 tr(E)^2 + mu tr(E^2)
    assert es.stored_energy_density(np.zeros(3), F, mat) == pytest.approx(
        0.0165375, rel=1e-14
    )
    softer = es.MaterialParams(lam=1.0, mu=1.0, epsilon=4.0)
    assert es.stored_energy_density(np.zeros(3), F, softer) == pytest.approx(
        0.0165375 / 4.0, rel=1e-14
    )


def test_stored_energy_vanishes_on_rotations():
    mat = es.MaterialParams()
    rng = np.random.default_rng(5)
    for _ in range(5):
        R = Rotation.random(random_state=rng).as_matrix()
        assert abs(es.stored_energy_density(np.zeros(3), R, mat)) < 1e-15


def test_kirchhoff_stress_symmetry():
    mat = es.MaterialParams()
    rng = np.random.default_rng(17)
    for _ in range(10):
        F = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if np.linalg.det(F) <= 0.1:
            continue
        tau = es.kirchhoff_stress(np.zeros(3), F, mat)
        assert np.linalg.norm(tau - tau.T) <= 1e-12 * max(np.linalg.norm(tau), 1e-30)


def test_frame_indifference_of_energies(triaxial, material, random_state):
    rng = np.random.default_rng(23)
    for _ in range(5):
        state = random_state(triaxial, rng)
        R = Rotation.random(random_state=rng).as_matrix()
        rotated = es.DeformationState(
            (state.q.reshape(-1, 3) @ R.T).reshape(-1), state.qdot.copy()
        )
        ue = es.elastic_energy(triaxial, state, material)
        assert es.elastic_energy(triaxial, rotated, material) == pytest.approx(
            ue, rel=1e-12, abs=1e-15
        )


def test_gravitational_energy_sphere_oracle(sphere, material):
    # mean-value property of the harmonic kernel: a rigid sphere has exactly
    # the point-mass energy -kM m / |c|; quadrature truncation is the only error
    errs = []
    for r in (5.0, 10.0):
        state = es.rigid_state(sphere, translation=(r, 0.0, 0.0))
        val = es.gravitational_energy(sphere, state, material)
        ref = -material.kM * sphere.mass / r
        assert val == pytest.approx(ref, rel=1e-7)
        errs.append(abs(val / ref - 1.0))
    # truncation decays with a high power of the size ratio
    assert errs[1] < 0.05 * errs[0]


def test_self_gravity_energy_matches_direct_pair_sum(triaxial):
    mat = es.MaterialParams(self_gravity_k=0.3, softening=0.05)
    state = es.rigid_state(triaxial, translation=(4.0, 0.0, 0.0))
    val = es.self_gravity_energy(triaxial, state, mat)
    Z = triaxial.nodes + np.array([4.0, 0.0, 0.0])
    m = triaxial.density * triaxial.weights
    diff = Z[:, None, :] - Z[None, :, :]
    d2 = np.sum(diff * diff, axis=-1) + mat.softening**2
    np.fill_diagonal(d2, np.inf)
    ref = -mat.self_gravity_k * np.sum(m[:, None] * m[None, :] / np.sqrt(d2))
    assert val == pytest.approx(ref, rel=1e-12)
    off = es.MaterialParams(self_gravity_k=0.0)
    assert es.self_gravity_energy(triaxial, state, off) == 0.0


def test_kinetic_energy_rigid_oracle(triaxial):
    v = np.array([0.2, -0.1, 0.05])
    w = np.array([0.0, 0.0, 0.4])
    state = es.rigid_state(triaxial, translation=(3.0, 0.0, 0.0), velocity=v, spin=w)
    a, b, c = triaxial.semi_axes
    I_zz = triaxial.mass * (a**2 + b**2) / 5.0
    ref = 0.5 * triaxial.mass * v @ v + 0.5 * I_zz * w[2] ** 2
    assert es.kinetic_energy(triaxial, state) == pytest.approx(ref, rel=1e-13)


def test_angular_momentum_rigid_oracle(triaxial):
    c = np.array([3.0, 0.0, 0.0])
    v = np.array([0.0, 0.5, 0.0])
    w = np.array([0.0, 0.0, 0.4])
    state = es.rigid_state(triaxial, translation=c, velocity=v, spin=w)
    a, b, _ = triaxial.semi_axes
    I_zz = triaxial.mass * (a**2 + b**2) / 5.0
    ref = np.cross(c, triaxial.mass * v) + np.array([0.0, 0.0, I_zz * w[2]])
    assert np.allclose(es.angular_momentum(triaxial, state), ref, atol=1e-13)


def test_conservative_force_matches_finite_differences(triaxial, random_state):
    mat = es.MaterialParams(self_gravity_k=0.1, softening=0.05)
    rng = np.random.default_rng(31)
    h = 1e-6
    kernel = force_kernel(triaxial, mat)
    for _ in range(5):
        state = random_state(triaxial, rng)
        f = es.conservative_force(kernel, state.q)
        fd = np.empty_like(f)
        for j in range(f.size):
            qp, qm = state.q.copy(), state.q.copy()
            qp[j] += h
            qm[j] -= h
            fd[j] = -(_total_potential(triaxial, qp, mat) - _total_potential(triaxial, qm, mat)) / (2 * h)
        assert np.linalg.norm(f - fd) <= 1e-6 * max(np.linalg.norm(f), 1.0)


def test_gravity_third_derivatives_match_finite_differences():
    kM = 1.0
    rng = np.random.default_rng(41)

    def V(y):
        return -kM / np.linalg.norm(y)

    for _ in range(10):
        Y = rng.standard_normal(3)
        Y *= (2.0 + rng.random()) / np.linalg.norm(Y)
        d111, d112, d113 = es.gravity_third_derivatives(Y, kM)
        e1, e2, e3 = np.eye(3)

        def d3(da, db, dc, h):
            # central mixed stencil for d^3 V / da db dc
            val = 0.0
            for sa in (1, -1):
                for sb in (1, -1):
                    for sc in (1, -1):
                        val += sa * sb * sc * V(Y + h * (sa * da + sb * db + sc * dc))
            return val / (8 * h**3)

        def d3_rich(da, db, dc):
            # the symmetric stencil has O(h^2) truncation; one Richardson
            # level cancels it
            h = 3e-3 * np.linalg.norm(Y)
            return (4.0 * d3(da, db, dc, h) - d3(da, db, dc, 2 * h)) / 3.0

        assert d111 == pytest.approx(d3_rich(e1, e1, e1), rel=1e-5, abs=1e-8)
        assert d112 == pytest.approx(d3_rich(e1, e1, e2), rel=1e-5, abs=1e-8)
        assert d113 == pytest.approx(d3_rich(e1, e1, e3), rel=1e-5, abs=1e-8)


def test_gravity_third_derivatives_substitution():
    d111, d112, d113 = es.gravity_third_derivatives(np.array([1.0, 0.0, 0.0]), 1.0)
    assert d111 == 6.0
    assert d112 == 0.0
    assert d113 == 0.0


def test_energy_breakdown_sums_to_total(triaxial, random_state):
    mat = es.MaterialParams(self_gravity_k=0.2, softening=0.05)
    rng = np.random.default_rng(43)
    state = random_state(triaxial, rng)
    mon = es.energy_breakdown(triaxial, state, mat)
    assert mon.H == pytest.approx(mon.K + mon.U_g + mon.U_sg + mon.U_e, rel=1e-14)
    assert mon.K == pytest.approx(es.kinetic_energy(triaxial, state), rel=1e-14)
    assert mon.U_e == pytest.approx(es.elastic_energy(triaxial, state, mat), rel=1e-14)
    assert np.allclose(mon.L, es.angular_momentum(triaxial, state), atol=1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_kernel_stress_force_matches_full_rule_quadrature(degree, random_state):
    # the stress rule is exact for the stress integrands, so the kernel's
    # stress force equals the order-8 quadrature of the same nodal stresses
    body = es.build_ellipsoid_body((1.0, 0.85, 0.6), basis_degree=degree)
    mat = es.MaterialParams(lam=1.3, mu=0.8, epsilon=0.5, self_gravity_k=0.2, softening=0.05)
    eta = 0.4
    rng = np.random.default_rng(47 + degree)
    for _ in range(3):
        state = random_state(body, rng, radius=3.0)
        Z = require_regular(body, state)
        kernel = force_kernel(body, mat, eta)(np.stack([state.q, state.qdot]))
        # gravity by hand: planet plus the double-counted softened pair sum
        m = body.density * body.weights
        diff = Z[:, None, :] - Z[None, :, :]
        s2 = np.sum(diff * diff, axis=-1) + mat.softening**2
        inv3 = s2**-1.5
        np.fill_diagonal(inv3, 0.0)
        dU_dZ = mat.kM * m[:, None] * Z / np.linalg.norm(Z, axis=1)[:, None] ** 3
        dU_dZ += 2.0 * mat.self_gravity_k * np.einsum("q,p,qp,qpi->qi", m, m, inv3, diff)
        stress_force = -kernel - body.P.T @ dU_dZ

        F = _gradients(body.Gm, state.q)
        Fdot = _gradients(body.Gm, state.qdot)
        P = first_piola(F, mat) + viscous_first_piola(F, Fdot, eta)
        full = np.einsum("q,qia,qam->mi", body.weights, P, body.Gm)
        assert np.linalg.norm(stress_force - full) <= 1e-13 * np.linalg.norm(full)



@pytest.mark.parametrize("name", ["lam", "mu", "epsilon", "kM", "self_gravity_k", "softening"])
@pytest.mark.parametrize("value", [-1.0, np.nan])
def test_material_params_reject_negative_and_nan(name, value):
    with pytest.raises(InvalidParameterError, match=name):
        es.MaterialParams(**{name: value})
