"""Invariants of the force kernel, its Hessian and the monitors over generated regular states (Hypothesis).

The states are rigid placements of the triaxial body on orbits of radius
2.5 to 8 with bounded strain and strain-rate noise.  Material constants,
self-gravity and viscosity are all switched on, so every term of the
kernel is exercised; the Hessian property also runs with self-gravity off,
and the kernel is checked against its node-space formulas at degrees 1
and 2, with and without viscosity and self-gravity. In the same cases the
kernel's Jacobian is checked against a central difference of the kernel
in (q, qdot) and, without viscosity, against the potentials' Hessian
derived apart from the kernel.  The integrator's
prebuilt right-hand side and terminal events are checked, in the same
cases, to equal the per-call formulas bit for bit, and require_regular to
reject a state exactly where the singular or the impact event is <= 0.
The kernel's and the right-hand side's results must not share their
scratch, the kernel and its Jacobian must read the state's flat layout,
the kernel's transposed stress product Sigma^T F^T must be (F Sigma)^T bit
for bit on operands laid out as the kernel's, and the degree-1 singular
gap, det3 on floats, must equal the
array formula bit for bit on generated coefficients, signed zeros and
near-singular gradients included.
The monitor functions are checked on stacks of such states against their
values state by state, angular_momentum's component-wise cross products
against np.cross bit for bit, and the spin fit and the comoving frame against
sums over the full-rule nodes at degrees 1 and 2.  The body's constant
tables are checked at basis degrees 1 and 2 through the methods built on
them: stress_divergence (the stress-adjoint table) against its defining
adjoint identity, and solve_mass (the inverse Gram matrix) against the
mass matrix.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

import elastisat as es
from elastisat.body_model import det3, require_regular
from elastisat.dynamics import _rhs, _termination_events
from elastisat.energetics import conservative_force, force_kernel
from elastisat.errors import ImpactProximityError, SingularConfigurationError

MAT = es.MaterialParams(lam=1.3, mu=0.8, epsilon=0.5, self_gravity_k=0.2, softening=0.05)
BODIES = {d: es.build_ellipsoid_body((1.0, 0.85, 0.6), basis_degree=d) for d in (1, 2)}
ETA = 0.4
PROPERTY = settings(max_examples=25, deadline=None)


def _vectors(size, bound):
    return arrays(np.float64, size, elements=st.floats(-bound, bound))


def _rotations():
    quats = _vectors(4, 1.0).filter(lambda v: np.linalg.norm(v) > 0.1)
    return quats.map(lambda v: Rotation.from_quat(v).as_matrix())


# (rotation, direction, radius, velocity, spin) of a rigid placement, and
# the placements with (q noise, qdot noise) of the degree-1 coefficient length.
RIGID = (
    _rotations(),
    _vectors(3, 1.0).filter(lambda v: np.linalg.norm(v) > 0.1),
    st.floats(2.5, 8.0),
    _vectors(3, 0.5),
    _vectors(3, 0.5),
)
PLACEMENTS = st.tuples(*RIGID, _vectors(12, 0.1), _vectors(12, 0.3))


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
        require_regular(body, state)
    except SingularConfigurationError:
        assume(False)
    return force_kernel(body, MAT, ETA)(np.stack([state.q, state.qdot]))


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


def _node_space_force(body, state, mat, eta):
    """f - g from the node-space formulas: P^T of the node gravity forces and F (S(E) + eta Cdot).

    The oracle for the kernel's node-product pullback and affine stress
    map: planet gravity kM m Z / |Z|^3 and the double-counted softened pair
    forces at the full-rule nodes, pulled back through P; the Saint
    Venant-Kirchhoff plus Kelvin-Voigt first Piola stress at the stress
    nodes, tested against the monomial gradients with the stress weights.
    """
    m = body.node_masses
    Z = body.P @ state.q.reshape(-1, 3)
    dU_dZ = mat.kM * m[:, None] * Z / np.linalg.norm(Z, axis=1)[:, None] ** 3
    if mat.self_gravity_k > 0.0:
        diff = Z[:, None, :] - Z[None, :, :]
        inv3 = (np.sum(diff * diff, axis=-1) + mat.softening**2) ** -1.5
        np.fill_diagonal(inv3, 0.0)
        dU_dZ += 2.0 * mat.self_gravity_k * np.einsum("q,p,qp,qpi->qi", m, m, inv3, diff)
    F = body.stress_gradients(state.q)
    Fdot = body.stress_gradients(state.qdot)
    E = 0.5 * (np.swapaxes(F, -1, -2) @ F - np.eye(3))
    trE = np.trace(E, axis1=-2, axis2=-1)[:, None, None]
    sigma = (mat.lam * trE * np.eye(3) + 2.0 * mat.mu * E) / mat.epsilon
    W = np.swapaxes(F, -1, -2) @ Fdot
    sigma = sigma + eta * (W + np.swapaxes(W, -1, -2))
    stress = np.einsum("s,sij,sja->ai", body.stress_weights, F @ sigma, body.stress_Gm)
    return -(body.P.T @ dU_dZ) - stress


@PROPERTY
@given(degree=st.sampled_from([1, 2]), eta=st.sampled_from([0.0, ETA]),
       self_gravity=st.booleans(), data=st.data())
def test_kernel_is_the_node_space_force(degree, eta, self_gravity, data):
    # the node-product gravity pullback and the affine stress map of
    # F^T [F | Fdot] are exact rewritings of the node-space formulas
    body = BODIES[degree]
    mat = MAT if self_gravity else dataclasses.replace(MAT, self_gravity_k=0.0)
    noise = (_vectors(body.n_modes, 0.1), _vectors(body.n_modes, 0.3))
    state = _state(body, data.draw(st.tuples(*RIGID, *noise)))
    try:
        require_regular(body, state)
    except SingularConfigurationError:
        assume(False)
    y = np.stack([state.q, state.qdot]) if eta > 0.0 else state.q[None]
    kernel = force_kernel(body, mat, eta)(y)
    oracle = _node_space_force(body, state, mat, eta)
    assert np.linalg.norm(kernel - oracle) <= 1e-13 * np.linalg.norm(oracle)


def _separate_hessian(body, q, mat):
    """Hessian of U_g + U_sg + U_e derived apart from the force kernel, shape (3N, 3N).

    The oracle for the kernel's Jacobian at eta = 0: per full-rule node the
    gravity block kM m (I/r^3 - 3 Z Z^T/r^5) and the softened pair blocks
    B_qp = k m_q m_p (I/s^3 - 3 d d^T/s^5), entering as
    2 (delta_qp sum_r B_qr - B_qp), pulled back through P; per stress node
    the Saint Venant-Kirchhoff tangent dF S(E) + F S(sym(F^T dF)) along
    every coefficient direction, tested against the monomial gradients.
    """
    n = q.size
    m = body.node_masses
    I3 = np.eye(3)
    P3 = np.kron(body.P, I3)
    Z = body.P @ q.reshape(-1, 3)
    r = np.linalg.norm(Z, axis=1)[:, None, None]
    ZZ = Z[:, :, None] * Z[:, None, :]
    node = mat.kM * m[:, None, None] * (I3 / r**3 - 3.0 * ZZ / r**5)
    pair = np.zeros((len(Z), 3, len(Z), 3))
    if mat.self_gravity_k > 0.0:
        d = Z[:, None, :] - Z[None, :, :]
        s = np.sqrt(np.sum(d * d, axis=-1) + mat.softening**2)
        np.fill_diagonal(s, np.inf)
        kmm = (mat.self_gravity_k * m[:, None] * m[None, :])[..., None, None]
        B = kmm * (I3 / s[..., None, None] ** 3
                   - 3.0 * d[..., :, None] * d[..., None, :] / s[..., None, None] ** 5)
        node += 2.0 * B.sum(axis=1)
        pair -= 2.0 * B.transpose(0, 2, 1, 3)
    pair[np.arange(len(Z)), :, np.arange(len(Z)), :] += node
    H = P3.T @ pair.reshape(P3.shape[0], -1) @ P3

    def S(E):
        trE = np.trace(E, axis1=-2, axis2=-1)[..., None, None]
        return (mat.lam * trE * I3 + 2.0 * mat.mu * E) / mat.epsilon

    F = body.stress_gradients(q)
    S_F = S(0.5 * (np.swapaxes(F, -1, -2) @ F - I3))
    for col, e in enumerate(np.eye(n)):
        dF = body.stress_gradients(e)
        FtdF = np.swapaxes(F, -1, -2) @ dF
        dP = dF @ S_F + F @ S(0.5 * (FtdF + np.swapaxes(FtdF, -1, -2)))
        H[:, col] += np.einsum("s,sij,sja->ai", body.stress_weights, dP, body.stress_Gm).reshape(-1)
    return H


@PROPERTY
@given(degree=st.sampled_from([1, 2]), eta=st.sampled_from([0.0, ETA]),
       self_gravity=st.booleans(), data=st.data())
def test_kernel_jacobian_is_the_kernel_derivative(degree, eta, self_gravity, data):
    # d kernel / d (q, qdot) by columns: the qdot columns at eta > 0 are the
    # exact viscous tangent, and at eta = 0 minus J is the potentials' Hessian
    body = BODIES[degree]
    mat = MAT if self_gravity else dataclasses.replace(MAT, self_gravity_k=0.0)
    noise = (_vectors(body.n_modes, 0.1), _vectors(body.n_modes, 0.3))
    state = _state(body, data.draw(st.tuples(*RIGID, *noise)))
    try:
        require_regular(body, state)
    except SingularConfigurationError:
        assume(False)
    y = np.stack([state.q, state.qdot]) if eta > 0.0 else state.q[None]
    kernel = force_kernel(body, mat, eta)
    J = kernel.jacobian(y)
    assert J.shape == (body.n_modes, y.size)

    h = 1e-6
    steps = h * np.eye(y.size).reshape(-1, *y.shape)
    J_fd = np.column_stack([(kernel(y + e) - kernel(y - e)).reshape(-1) / (2 * h) for e in steps])
    assert np.linalg.norm(J - J_fd) <= 1e-7 * np.linalg.norm(J)
    if eta == 0.0:
        H = _separate_hessian(body, state.q, mat)
        assert np.linalg.norm(J + H) <= 1e-13 * np.linalg.norm(H)


def _admissibility(body, state, impact_radius):
    """The error type require_regular raises on state at impact_radius, or None."""
    try:
        require_regular(body, state, impact_radius)
    except (SingularConfigurationError, ImpactProximityError) as exc:
        return type(exc)
    return None


@PROPERTY
@given(degree=st.sampled_from([1, 2]), eta=st.sampled_from([0.0, ETA]),
       self_gravity=st.booleans(), mirrored=st.booleans(), data=st.data())
def test_prebuilt_rhs_and_events_are_the_per_call_formulas(degree, eta, self_gravity, mirrored,
                                                           data):
    # _rhs and _termination_events bind their tables once per run; every
    # value must still be bit for bit the one of the per-call formulas.  A
    # mirrored placement (z -> -z) keeps every node distance and makes det
    # Dzeta negative, so the singular branch of the admissibility rule runs.
    body = BODIES[degree]
    mat = MAT if self_gravity else dataclasses.replace(MAT, self_gravity_k=0.0)
    noise = (_vectors(body.n_modes, 0.1), _vectors(body.n_modes, 0.3))
    state = _state(body, data.draw(st.tuples(*RIGID, *noise)))
    if mirrored:
        flip = np.tile([1.0, 1.0, -1.0], body.n_modes // 3)
        state = es.DeformationState(state.q * flip, state.qdot * flip)
    y = np.concatenate([state.q, state.qdot])
    accel = body.solve_mass(force_kernel(body, mat, eta)(np.stack([state.q, state.qdot])))
    expected = np.concatenate([state.qdot, accel.reshape(-1)])
    rhs = _rhs(body, mat, es.ViscosityParams(eta))
    first, second = rhs(0.0, y), rhs(0.0, y)
    assert np.array_equal(first, expected)
    # a fresh array per call: solve_ivp keeps earlier stages
    second[:] = 0.0
    assert np.array_equal(first, expected)
    # handed a stage row, rhs writes the same values into it
    row = np.full_like(y, np.nan)
    assert rhs(0.0, y, row) is row and np.array_equal(row, expected)

    settings_ = es.IntegratorSettings(impact_radius=0.5, escape_radius=20.0)
    impact, escape, singular = _termination_events(body, settings_)
    Z = body.node_positions(state.q)
    assert impact(0.0, y) == float(np.sqrt(np.min(np.vecdot(Z, Z)))) - 0.5
    assert escape(0.0, y) == 20.0 - float(np.linalg.norm(body.barycenter(state.q)))
    assert singular(0.0, y) == float(np.min(det3(body.distinct_gradients(state.q))))

    # one admissibility rule: require_regular fails exactly where the
    # integrator's events do, also at radii one rounding from the closest
    # node's distance; moving the body along its constant row (a
    # translation) gives each draw more distances to round
    for scale in (1.0, 1.1, 1.3):
        moved = es.DeformationState(state.q.copy(), state.qdot)
        moved.q[:3] *= scale
        y = np.concatenate([moved.q, moved.qdot])
        Z = body.node_positions(moved.q)
        d = math.sqrt(np.vecdot(Z, Z).min())
        for r in (0.5 * d, math.nextafter(d, 0.0), d, math.nextafter(d, math.inf), 2.0 * d):
            impact_at_r = _termination_events(body, es.IntegratorSettings(impact_radius=r))[0]
            expected = (SingularConfigurationError if singular(0.0, y) <= 0.0
                        else ImpactProximityError if impact_at_r(0.0, y) <= 0.0 else None)
            assert _admissibility(body, moved, r) is expected, (scale, r)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("eta", [0.0, ETA])
@pytest.mark.parametrize("degree", [1, 2])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_kernel_and_rhs_results_do_not_share_their_scratch(degree, eta, data):
    # the kernel and rhs keep every intermediate in scratch of their own;
    # kernel(y, out) fills out and returns it, and a result returned without
    # out is a fresh array that later calls leave alone: Newton keeps its
    # forces across calls and scipy's reference run keeps its stages
    body = BODIES[degree]  # MAT has self-gravity on
    noise = (_vectors(body.n_modes, 0.1), _vectors(body.n_modes, 0.3))
    a, b = (_state(body, data.draw(st.tuples(*RIGID, *noise))) for _ in range(2))
    kernel = force_kernel(body, MAT, eta)
    first = kernel(np.stack([a.q, a.qdot]))
    kept = first.copy()
    out = np.full_like(first, np.nan)
    assert kernel(np.stack([a.q, a.qdot]), out) is out and _same_bits(out, kept)
    kernel(np.stack([b.q, b.qdot]))
    kernel(np.stack([b.q, b.qdot]), out)
    assert _same_bits(first, kept)

    rhs = _rhs(body, MAT, es.ViscosityParams(eta))
    first = rhs(0.0, np.concatenate([a.q, a.qdot]))
    kept = first.copy()
    y = np.concatenate([b.q, b.qdot])
    rhs(0.0, y)
    rhs(0.0, y, np.empty_like(y))
    assert _same_bits(first, kept)


@pytest.mark.parametrize("eta", [0.0, ETA])
@pytest.mark.parametrize("degree", [1, 2])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_kernel_and_its_jacobian_read_the_flat_layout(degree, eta, data):
    # kernel(y) and kernel.jacobian(y) read y's flat layout, q in its first
    # 3N entries and qdot in the next 3N: the integrator's 1-D state and a
    # (2, 3N) stack give the same bits, and at eta = 0 qdot is not read, so
    # q alone gives them too and any qdot, NaN and inf included, leaves them
    body = BODIES[degree]  # MAT has self-gravity on
    noise = (_vectors(body.n_modes, 0.1), _vectors(body.n_modes, 0.3))
    state = _state(body, data.draw(st.tuples(*RIGID, *noise)))
    kernel = force_kernel(body, MAT, eta)
    flat = np.concatenate([state.q, state.qdot])
    other_qdot = np.concatenate([state.q, data.draw(arrays(np.float64, body.n_modes))])
    for evaluate in (kernel, kernel.jacobian):
        expected = evaluate(np.stack([state.q, state.qdot]))
        assert _same_bits(evaluate(flat), expected)
        if eta == 0.0:
            assert _same_bits(evaluate(state.q), expected)
            assert _same_bits(evaluate(other_qdot), expected)


@settings(max_examples=50, deadline=None)
@given(ns=st.sampled_from([len(BODIES[d].stress_block) for d in (1, 2)]),
       k=st.sampled_from([1, 2]), data=st.data())
def test_transposed_stress_product_is_the_transposed_product(ns, k, data):
    # the kernel writes (F Sigma)^T as Sigma^T F^T straight into its scratch;
    # that must be np.matmul(F, Sigma).mT bit for bit, with the operands laid
    # out as the kernel lays them: F the [..., :3] view of the (ns, 3, 3k)
    # [F | Fdot], Sigma a view of the (ns, 9) stress rows; ns = 2 and 60 are
    # the stress rules at basis degrees 1 and 2
    entries = st.floats(-1e100, 1e100)  # signed zeros and subnormals included, no overflow
    FFdot = data.draw(arrays(np.float64, (ns, 3, 3 * k), elements=entries))
    sigma = data.draw(arrays(np.float64, (ns, 9), elements=entries))
    F, Sigma = FFdot[..., :3], sigma.reshape(ns, 3, 3)
    transposed = np.matmul(Sigma.mT, F.mT, out=np.empty((ns, 3, 3)))
    assert _same_bits(transposed, np.ascontiguousarray(np.matmul(F, Sigma).mT))


# entries of a degree-1 q: signed zeros, subnormals and the rest of [-2, 2]
ENTRIES = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 5e-324]))


@st.composite
def _degree_1_coefficients(draw):
    """q of the degree-1 body, its x, y and z rows (Dzeta's columns) at times nearly dependent."""
    q = draw(arrays(np.float64, 12, elements=ENTRIES))
    if draw(st.booleans()):
        rows = q.reshape(4, 3)
        a, b = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        eps = draw(st.sampled_from([0.0, 1e-300, 1e-16, 1e-8]))
        rows[3] = a * rows[1] + b * rows[2] + eps * rows[0]
    return q


@settings(max_examples=300, deadline=None)
@given(q=_degree_1_coefficients(), qdot=_vectors(12, 1.0))
def test_degree_1_singular_gap_is_det3_bit_for_bit(q, qdot):
    # at degree 1 the gap evaluates det3 on floats; det <= 0, signed zeros
    # and near-singular gradients included, it is the array formula's value
    singular = _termination_events(BODIES[1], es.IntegratorSettings())[2]
    gap = singular(0.0, np.concatenate([q, qdot]))
    expected = float(np.min(det3(BODIES[1].distinct_gradients(q))))
    assert type(gap) is float and struct.pack("<d", gap) == struct.pack("<d", expected)


def test_singular_gap_takes_the_float_path_only_for_a_selecting_table(monkeypatch):
    # det3 runs at degree 2 and for a degree-1 table that is not a 0/1
    # selection of coefficient rows; the degree-1 body's own table skips it
    calls = []
    monkeypatch.setattr(es.dynamics, "det3", lambda F: calls.append(F.shape) or det3(F))
    body1 = BODIES[1]
    scaled = dataclasses.replace(body1, distinct_Gm=2.0 * body1.distinct_Gm)
    for body, det3_shape in ((body1, None), (BODIES[2], (270, 3, 3)), (scaled, (1, 3, 3))):
        calls.clear()
        state = _state(body, (np.eye(3), np.ones(3), 3.0, np.zeros(3), np.zeros(3),
                              0.01 * np.arange(body.n_modes), np.zeros(body.n_modes)))
        singular = _termination_events(body, es.IntegratorSettings())[2]
        gap = singular(0.0, np.concatenate([state.q, state.qdot]))
        assert calls == ([] if det3_shape is None else [det3_shape])
        assert gap == float(np.min(det3(body.distinct_gradients(state.q))))


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
    # the potentials' Hessian, minus the kernel's Jacobian at eta = 0, against
    # central differences of the admissible force
    mat = MAT if self_gravity else dataclasses.replace(MAT, self_gravity_k=0.0)
    state = _state(triaxial, placement)
    try:
        require_regular(triaxial, state)
    except SingularConfigurationError:
        assume(False)
    kernel = force_kernel(triaxial, mat)
    H = -kernel.jacobian(state.q[None])
    assert np.linalg.norm(H - H.T) <= 1e-12 * np.linalg.norm(H)

    def grad(q):
        return -conservative_force(kernel, q)

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
    return {
        **dataclasses.asdict(es.energy_breakdown(body, state, MAT)),
        "dissipation_rate": es.dissipation_rate(body, state, es.ViscosityParams(ETA)),
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


@PROPERTY
@given(placements=st.lists(PLACEMENTS, min_size=1, max_size=4))
def test_angular_momentum_crosses_are_np_cross(triaxial, placements):
    # angular_momentum writes the cross products A_a x Adot_b out by
    # components; they must be np.cross's, bit for bit, on one state and a stack
    states = [_state(triaxial, p) for p in placements]
    stack = es.DeformationState(np.stack([s.q for s in states]), np.stack([s.qdot for s in states]))
    for state in (states[0], stack):
        rows = state.q.shape[:-1] + (-1, 3)
        A, Adot = state.q.reshape(rows), state.qdot.reshape(rows)
        cross = np.cross(A[..., :, None, :], Adot[..., None, :, :])
        expected = np.einsum("ab,...abi->...i", triaxial.S, cross)
        assert np.array_equal(es.angular_momentum(triaxial, state), expected)


def _node_kinematics(body, state):
    """Spin, orbital rate and comoving fit of one state as sums over the full-rule nodes.

    The oracle for the Gram-matrix forms: I_c omega = L_c from node sums
    about the barycenter, and the mass-weighted Kabsch rotation of scipy's
    align_vectors with its misfit summed at the nodes.
    """
    m = body.node_masses
    Z, Zdot = body.node_positions(state.q), body.node_positions(state.qdot)
    c, cdot, xbar = m @ Z / body.mass, m @ Zdot / body.mass, m @ body.nodes / body.mass
    rel, reld, x = Z - c, Zdot - cdot, body.nodes - xbar
    I_c = np.eye(3) * (m @ np.vecdot(rel, rel)) - (m * rel.T) @ rel
    spin = np.linalg.solve(I_c, m @ np.cross(rel, reld))
    R = Rotation.align_vectors(rel, x, weights=m)[0].as_matrix()
    misfit = rel - x @ R.T
    return {
        "omega_spin": spin, "omega_orbit": np.cross(c, cdot) / (c @ c), "R": R, "Y": R.T @ c - xbar,
        "xi_residual": np.sqrt(m @ np.vecdot(misfit, misfit) / body.mass),
    }


@PROPERTY
@given(degree=st.sampled_from([1, 2]), data=st.data())
def test_kinematics_are_the_node_quadrature(degree, data):
    # the spin fit and the comoving frame are Gram-matrix forms of the
    # coefficient rows; the full rule integrates the same polynomial
    # moments exactly, so both agree to round-off on single states and stacks
    body = BODIES[degree]
    noise = (_vectors(body.n_modes, 0.1), _vectors(body.n_modes, 0.3))
    placements = data.draw(st.lists(st.tuples(*RIGID, *noise), min_size=1, max_size=3))
    states = [_state(body, p) for p in placements]
    for state in states:
        try:
            require_regular(body, state)
        except SingularConfigurationError:
            assume(False)
    stack = es.DeformationState(np.stack([s.q for s in states]), np.stack([s.qdot for s in states]))
    oracle = [_node_kinematics(body, s) for s in states]
    for state, expected in [*zip(states, oracle), (stack, None)]:
        R, Y, residual = es.comoving_decomposition(body, state)
        omega_spin, omega_orbit = es.instantaneous_spin(body, state)
        got = {"omega_spin": omega_spin, "omega_orbit": omega_orbit,
               "R": R, "Y": Y, "xi_residual": residual}
        # round-off is relative to the size of the state the value comes from;
        # below about 1e-309 it is a count of subnormal ulps (up to 62 seen in
        # 7,000 draws of subnormal velocities), so the bound has a floor of 2^10
        rate, size = np.max(np.abs(state.qdot)), np.max(np.abs(state.q))
        scale = {"omega_spin": rate, "omega_orbit": rate, "R": 1.0, "Y": size, "xi_residual": size}
        floor = 2**10 * np.finfo(float).smallest_subnormal
        for name, value in got.items():
            want = np.stack([one[name] for one in oracle]) if expected is None else expected[name]
            assert value.shape == want.shape, name
            assert np.max(np.abs(value - want)) <= max(1e-12 * scale[name], floor), name


@PROPERTY
@given(degree=st.sampled_from([1, 2]), batch=st.sampled_from([(), (3,)]),
       seed=st.integers(0, 2**32 - 1))
def test_stress_divergence_is_the_adjoint_of_stress_gradients(degree, batch, seed):
    # sum_s w_s P_s : F_s(q) = <stress_divergence(P), rows(q)>, for every
    # stress field P and coefficient vector q; a batch of fields is
    # mapped field by field
    body = BODIES[degree]
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(body.n_modes)
    P = rng.standard_normal((*batch, body.stress_weights.size, 3, 3))
    F = body.stress_gradients(q)
    weighted = np.einsum("s,...sij,sij->...", body.stress_weights, P, F)
    div = body.stress_divergence(P)
    assert div.shape == (*batch, body.basis.n_monomials, 3)
    paired = np.einsum("...ai,ai->...", div, q.reshape(-1, 3))
    scale = np.einsum("s,...sij,sij->...", body.stress_weights, np.abs(P), np.abs(F))
    assert np.all(np.abs(paired - weighted) <= 1e-13 * scale)


@PROPERTY
@given(degree=st.sampled_from([1, 2]), data=st.data())
def test_solve_mass_inverts_the_mass_matrix(degree, data):
    body = BODIES[degree]
    x = data.draw(_vectors(body.n_modes, 1e3).filter(lambda v: np.any(v)))
    M = es.mass_matrix(body)
    for rhs in (M @ x, (M @ x).reshape(-1, 3)):
        assert np.linalg.norm(body.solve_mass(rhs).reshape(-1) - x) <= 1e-13 * np.linalg.norm(x)
