"""Kelvin-Voigt viscous force: power identity, rigid-motion kernel and the rigidity gauge."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import elastisat as es
from elastisat.body_model import _gradients, det3
from elastisat.errors import InvalidParameterError


def test_power_identity_on_random_states(triaxial, random_state):
    # qdot . g must equal (eta/2) integral of |Cdot|^2 = -Hdot: the defining identity
    visc = es.ViscosityParams(eta=0.8)
    rng = np.random.default_rng(101)
    for _ in range(30):
        state = random_state(triaxial, rng, noise=0.1)
        g = es.viscous_force(triaxial, state, visc)
        rate = es.dissipation_rate(triaxial, state, visc)
        assert state.qdot @ g == pytest.approx(-rate, rel=1e-12, abs=1e-14)
        assert rate <= 0.0


def test_rigid_motions_produce_no_viscous_force(triaxial):
    visc = es.ViscosityParams(eta=1.5)
    rng = np.random.default_rng(103)
    for _ in range(10):
        R = Rotation.random(random_state=rng).as_matrix()
        state = es.rigid_state(
            triaxial,
            rotation=R,
            translation=3.0 * rng.standard_normal(3),
            velocity=rng.standard_normal(3),
            spin=rng.standard_normal(3),
        )
        g = es.viscous_force(triaxial, state, visc)
        assert np.linalg.norm(g) < 1e-13
        assert abs(es.dissipation_rate(triaxial, state, visc)) < 1e-13


def test_viscous_force_scales_linearly_in_eta(triaxial, random_state):
    rng = np.random.default_rng(107)
    state = random_state(triaxial, rng, noise=0.1)
    g1 = es.viscous_force(triaxial, state, es.ViscosityParams(eta=0.5))
    g2 = es.viscous_force(triaxial, state, es.ViscosityParams(eta=1.0))
    assert np.allclose(2.0 * g1, g2, rtol=1e-13)
    g0 = es.viscous_force(triaxial, state, es.ViscosityParams(eta=0.0))
    assert np.all(g0 == 0.0)


def test_cauchy_green_rate_formula():
    rng = np.random.default_rng(109)
    F = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    Fd = rng.standard_normal((3, 3))
    Cdot = es.cauchy_green_rate(F, Fd)
    ref = Fd.T @ F + F.T @ Fd
    assert np.allclose(Cdot, ref, atol=1e-15)
    assert np.allclose(Cdot, Cdot.T, atol=1e-15)


def test_max_cauchy_green_rate_zero_iff_rigid(triaxial, random_state):
    spin_only = es.rigid_state(triaxial, translation=(3.0, 0, 0), spin=(0.1, 0.2, 0.3))
    assert es.max_cauchy_green_rate(triaxial, spin_only) < 1e-14
    rng = np.random.default_rng(113)
    flexing = random_state(triaxial, rng, noise=0.1)
    assert es.max_cauchy_green_rate(triaxial, flexing) > 1e-3


def test_negative_eta_rejected():
    for eta in (-0.1, np.nan):
        with pytest.raises(InvalidParameterError):
            es.ViscosityParams(eta=eta)


@pytest.mark.parametrize("degree", [1, 2])
def test_pointwise_checks_scan_the_same_values_as_every_node(degree, random_state):
    # the distinct-gradient table holds exactly the values found at the
    # full-rule nodes, so the maximum rate and the minimum det are bit-equal
    body = es.build_ellipsoid_body((1.0, 0.85, 0.6), basis_degree=degree)
    assert len(body.distinct_Gm) == (1 if degree == 1 else len(body.nodes))
    rng = np.random.default_rng(127 + degree)
    states = [random_state(body, rng, noise=0.1) for _ in range(4)]
    stack = es.DeformationState(np.stack([s.q for s in states]), np.stack([s.qdot for s in states]))
    F, Fdot = _gradients(body.Gm, stack.q), _gradients(body.Gm, stack.qdot)
    Cdot = es.cauchy_green_rate(F, Fdot)
    every_node = np.sqrt(np.max(np.einsum("...ij,...ij->...", Cdot, Cdot), axis=-1))
    assert np.array_equal(es.max_cauchy_green_rate(body, stack), every_node)
    assert np.array_equal(np.min(det3(body.distinct_gradients(stack.q)), axis=-1),
                          np.min(det3(F), axis=-1))
