"""Reference-body construction: quadrature, mass data, rigid placements."""

import numpy as np
import pytest

import elastisat as es
from elastisat.body_model import det3, ellipsoid_quadrature, require_regular
from elastisat.errors import (
    ImpactProximityError,
    InvalidParameterError,
    SingularConfigurationError,
)


TRIAXIAL_AXES = (1.0, 0.85, 0.6)


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _ellipsoid_moment(axes, p, q, r):
    """Exact integral of x^2p y^2q z^2r over the ellipsoid, unit density."""
    s = p + q + r
    angular = (
        4.0
        * np.pi
        * _double_factorial(2 * p - 1)
        * _double_factorial(2 * q - 1)
        * _double_factorial(2 * r - 1)
        / _double_factorial(2 * s + 1)
    )
    radial = 1.0 / (2 * s + 3)
    a, b, c = axes
    return angular * radial * a ** (2 * p + 1) * b ** (2 * q + 1) * c ** (2 * r + 1)


def test_quadrature_integrates_even_monomials_exactly(triaxial):
    X, w = triaxial.nodes, triaxial.weights
    for p in range(5):
        for q in range(5 - p):
            for r in range(5 - p - q):
                if 2 * (p + q + r) > triaxial.quadrature_order:
                    continue
                num = np.sum(w * X[:, 0] ** (2 * p) * X[:, 1] ** (2 * q) * X[:, 2] ** (2 * r))
                ref = _ellipsoid_moment(triaxial.semi_axes, p, q, r)
                assert abs(num - ref) < 1e-13 * max(1.0, abs(ref))


def test_quadrature_kills_odd_monomials(triaxial):
    X, w = triaxial.nodes, triaxial.weights
    for expo in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (3, 0, 0), (1, 2, 0)]:
        val = np.sum(w * np.prod(X**np.array(expo), axis=1))
        assert abs(val) < 1e-14


def test_mass_and_inertia_match_uniform_ellipsoid(triaxial):
    a, b, c = triaxial.semi_axes
    volume = 4.0 * np.pi * a * b * c / 3.0
    assert triaxial.mass == pytest.approx(volume, rel=1e-13)
    assert np.all(np.abs(triaxial.first_moment) < 1e-14)
    second = np.diag(triaxial.second_moment)
    expect = triaxial.mass * np.array([a**2, b**2, c**2]) / 5.0
    assert np.allclose(second, expect, rtol=1e-13)
    off = triaxial.second_moment - np.diag(second)
    assert np.all(np.abs(off) < 1e-14)


def test_mass_matrix_is_kron_of_monomial_gram(triaxial):
    M = es.mass_matrix(triaxial)
    assert M.shape == (triaxial.n_modes, triaxial.n_modes)
    assert np.allclose(M, np.kron(triaxial.S, np.eye(3)))
    rng = np.random.default_rng(3)
    x = rng.standard_normal(triaxial.n_modes)
    assert np.allclose(triaxial.solve_mass(M @ x), x, atol=1e-12)


def test_rigid_state_evaluates_to_rigid_map(triaxial):
    rng = np.random.default_rng(7)
    from scipy.spatial.transform import Rotation

    R = Rotation.random(random_state=rng).as_matrix()
    cvec = np.array([3.0, -1.0, 0.5])
    v = np.array([0.1, 0.0, -0.2])
    w = np.array([0.0, 0.3, 0.7])
    state = es.rigid_state(triaxial, rotation=R, translation=cvec, velocity=v, spin=w)
    vel_state = es.DeformationState(state.qdot, state.qdot)
    for _ in range(6):
        x = 0.5 * rng.standard_normal(3)
        zeta, F = es.evaluate_map(triaxial, state, x)
        assert np.allclose(zeta, R @ x + cvec, atol=1e-14)
        assert np.allclose(F, R, atol=1e-14)
        zdot, _ = es.evaluate_map(triaxial, vel_state, x)
        assert np.allclose(zdot, v + np.cross(w, R @ x), atol=1e-14)


def test_identity_coefficients_are_identity_map(triaxial):
    q = es.identity_coefficients(triaxial)
    state = es.DeformationState(q, np.zeros_like(q))
    x = np.array([0.2, -0.3, 0.4])
    zeta, F = es.evaluate_map(triaxial, state, x)
    assert np.allclose(zeta, x, atol=1e-15)
    assert np.allclose(F, np.eye(3), atol=1e-15)


def test_skew_matches_cross_product():
    rng = np.random.default_rng(11)
    for _ in range(5):
        v, u = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(es.skew(v) @ u, np.cross(v, u), atol=1e-15)


def test_barycenter_of_rigid_placement(triaxial):
    state = es.rigid_state(triaxial, translation=(2.0, 1.0, -0.5))
    assert np.allclose(triaxial.barycenter(state.q), [2.0, 1.0, -0.5], atol=1e-13)


def test_require_regular_accepts_rigid_and_rejects_collapse(triaxial):
    good = es.rigid_state(triaxial, translation=(3.0, 0.0, 0.0))
    Z = require_regular(triaxial, good)
    assert Z.shape == (triaxial.nodes.shape[0], 3)

    flat = es.rigid_state(triaxial, translation=(3.0, 0.0, 0.0))
    A = flat.q.reshape(-1, 3)
    A[3] = 0.0  # kill the z column of the linear part: det F = 0
    # Dzeta is constant at degree 1, so every node is singular
    n_nodes = triaxial.nodes.shape[0]
    with pytest.raises(SingularConfigurationError, match=f"at {n_nodes} quadrature node"):
        require_regular(triaxial, flat)


def test_require_regular_flags_impact_proximity(triaxial):
    close = es.rigid_state(triaxial, translation=(1.2, 0.0, 0.0))
    with pytest.raises(ImpactProximityError):
        require_regular(triaxial, close, impact_radius=0.5)
    # same state is fine when no impact radius is enforced
    require_regular(triaxial, close)


def test_build_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        es.build_ellipsoid_body((1.0, -0.5, 0.6))
    with pytest.raises(InvalidParameterError):
        es.build_ellipsoid_body((1.0, np.nan, 0.6))
    with pytest.raises(InvalidParameterError):
        es.build_ellipsoid_body((1.0, 0.85, 0.6), density=0.0)
    with pytest.raises(InvalidParameterError):
        es.build_ellipsoid_body((1.0, 0.85, 0.6), density=np.nan)
    with pytest.raises(InvalidParameterError):
        es.build_ellipsoid_body((1.0, 0.85, 0.6), basis_degree=0)
    with pytest.raises(InvalidParameterError):
        es.build_ellipsoid_body((1.0, 0.85, 0.6), quadrature_order=1)


def test_monomial_count_for_degree_one(triaxial):
    assert len(es.monomial_exponents(1)) == 4
    assert triaxial.n_modes == 12


@pytest.mark.parametrize("degree, n_nodes", [(1, 2), (2, 60)])
def test_stress_rule_is_exact_for_degree_4_d_minus_1(degree, n_nodes):
    # the stress rule reproduces the order-8 rule on every monomial of
    # total degree <= 4 (d - 1), the degree of the stress integrands
    body = es.build_ellipsoid_body(TRIAXIAL_AXES, basis_degree=degree)
    assert body.stress_weights.shape == (n_nodes,)
    assert body.stress_Gm.shape == (n_nodes, 3, body.basis.n_monomials)
    order = 4 * (degree - 1)
    stress_nodes, stress_weights = ellipsoid_quadrature(body.semi_axes, order)
    assert np.array_equal(stress_weights, body.stress_weights)
    for expo in es.monomial_exponents(order):
        full_values = np.prod(body.nodes ** np.array(expo), axis=1)
        full = np.dot(body.weights, full_values)
        stress = np.dot(stress_weights, np.prod(stress_nodes ** np.array(expo), axis=1))
        # odd monomials integrate to zero; measure them against |m| integrated
        scale = max(abs(full), np.dot(body.weights, np.abs(full_values)))
        assert abs(stress - full) <= 1e-14 * scale, expo


def test_det3_matches_lapack_determinants():
    rng = np.random.default_rng(19)
    F = rng.standard_normal((50, 3, 3))
    F[0, :, 2] = 0.0  # an exactly singular matrix keeps det 0
    ref = np.linalg.det(F)
    got = det3(F)
    assert got[0] == 0.0
    scale = np.prod(np.linalg.norm(F, axis=2), axis=1)  # Hadamard bound on |det|
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)
