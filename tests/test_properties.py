"""Invariants of the force kernel, its Hessian and the monitors over generated regular states (Hypothesis).

The states are rigid placements of the triaxial body on orbits of radius
2.5 to 8 with bounded strain and strain-rate noise.  Material constants,
self-gravity and viscosity are all switched on, so every term of the
kernel is exercised; the Hessian property also runs with self-gravity off.
The monitor functions are checked on stacks of such states against their
values state by state.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

import elastisat as es
from elastisat.body_model import require_regular
from elastisat.energetics import conservative_force, generalized_force, potential_hessian
from elastisat.errors import SingularConfigurationError

MAT = es.MaterialParams(lam=1.3, mu=0.8, epsilon=0.5, self_gravity_k=0.2, softening=0.05)
ETA = 0.4
PROPERTY = settings(max_examples=25, deadline=None)


def _vectors(size, bound):
    return arrays(np.float64, size, elements=st.floats(-bound, bound))


def _rotations():
    quats = _vectors(4, 1.0).filter(lambda v: np.linalg.norm(v) > 0.1)
    return quats.map(lambda v: Rotation.from_quat(v).as_matrix())


# (rotation, direction, radius, velocity, spin, q noise, qdot noise); the
# noise has the length of the degree-1 coefficient vector.
PLACEMENTS = st.tuples(
    _rotations(),
    _vectors(3, 1.0).filter(lambda v: np.linalg.norm(v) > 0.1),
    st.floats(2.5, 8.0),
    _vectors(3, 0.5),
    _vectors(3, 0.5),
    _vectors(12, 0.1),
    _vectors(12, 0.3),
)


def _state(body, placement):
    R, direction, radius, velocity, spin, dq, dqdot = placement
    state = es.rigid_state(
        body, rotation=R, translation=radius * direction / np.linalg.norm(direction),
        velocity=velocity, spin=spin,
    )
    state.q = state.q + dq
    state.qdot = state.qdot + dqdot
    return state


def _kernel(body, state):
    try:
        Z, _ = require_regular(body, state)
    except SingularConfigurationError:
        assume(False)
    return generalized_force(
        body, Z, body.stress_gradients(state.q), body.stress_gradients(state.qdot), MAT, ETA
    )


@PROPERTY
@given(placement=PLACEMENTS)
def test_kernel_exerts_no_torque(triaxial, placement):
    # dL/dt = sum_a A_a x f_a: gravity is central and the stresses are
    # frame-indifferent, so the sum vanishes to round-off
    state = _state(triaxial, placement)
    f = _kernel(triaxial, state)
    A = state.q.reshape(-1, 3)
    torque = np.cross(A, f).sum(axis=0)
    assert np.linalg.norm(torque) <= 1e-13 * np.linalg.norm(A) * np.linalg.norm(f)


@PROPERTY
@given(placement=PLACEMENTS)
def test_viscous_power_is_the_dissipation_rate(triaxial, placement):
    state = _state(triaxial, placement)
    visc = es.ViscosityParams(ETA)
    power = float(state.qdot @ es.viscous_force(triaxial, state, visc))
    rate = es.dissipation_rate(triaxial, state, visc)
    assert rate <= 0.0
    assert abs(power + rate) <= 1e-12 * abs(rate) + 1e-15


@PROPERTY
@given(placement=PLACEMENTS, R=_rotations())
def test_kernel_is_rotation_equivariant(triaxial, placement, R):
    # rotating the body and its velocity about the planet rotates every force row
    state = _state(triaxial, placement)
    f = _kernel(triaxial, state)
    rotated = es.DeformationState(
        (state.q.reshape(-1, 3) @ R.T).reshape(-1),
        (state.qdot.reshape(-1, 3) @ R.T).reshape(-1),
    )
    f_rot = _kernel(triaxial, rotated)
    assert np.linalg.norm(f_rot - f @ R.T) <= 1e-12 * np.linalg.norm(f)


@PROPERTY
@given(placement=PLACEMENTS, self_gravity=st.booleans())
def test_potential_hessian_is_the_symmetric_force_derivative(triaxial, placement, self_gravity):
    mat = MAT if self_gravity else dataclasses.replace(MAT, self_gravity_k=0.0)
    state = _state(triaxial, placement)
    try:
        H = potential_hessian(triaxial, state.q, mat)
    except SingularConfigurationError:
        assume(False)
    assert np.linalg.norm(H - H.T) <= 1e-12 * np.linalg.norm(H)

    def grad(q):
        return -conservative_force(triaxial, es.DeformationState(q, state.qdot), mat)

    h = 1e-5
    H_fd = np.column_stack([(grad(state.q + h * e) - grad(state.q - h * e)) / (2 * h)
                            for e in np.eye(state.q.size)])
    assert np.linalg.norm(H - H_fd) <= 1e-7 * np.linalg.norm(H)


def _monitors(body, state):
    """Every monitor function of state, as a flat dict of arrays.

    energy_breakdown calls each energy function and angular_momentum.
    """
    R, Y, residual = es.comoving_decomposition(body, state)
    omega_spin, omega_orbit = es.instantaneous_spin(body, state)
    mon = es.energy_breakdown(
        body, state, MAT, dissipation_rate=es.dissipation_rate(body, state, es.ViscosityParams(ETA))
    )
    return {
        **dataclasses.asdict(mon),
        "cdot_max": es.max_cauchy_green_rate(body, state),
        "R": R, "Y": Y, "xi_residual": residual,
        "omega_spin": omega_spin, "omega_orbit": omega_orbit,
    }


@PROPERTY
@given(placements=st.lists(PLACEMENTS, min_size=2, max_size=4))
def test_monitors_of_a_stack_are_the_monitors_of_each_state(triaxial, placements):
    states = [_state(triaxial, p) for p in placements]
    for state in states:
        try:
            require_regular(triaxial, state)
        except SingularConfigurationError:
            assume(False)
    stack = es.DeformationState(np.stack([s.q for s in states]), np.stack([s.qdot for s in states]))
    batched = _monitors(triaxial, stack)
    single = [_monitors(triaxial, s) for s in states]
    for name, column in batched.items():
        expected = np.stack([np.asarray(one[name]) for one in single])
        assert column.shape == expected.shape, name
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(column - expected)) <= 1e-13 * scale, name
