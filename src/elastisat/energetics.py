"""Conservative energies, their generalized forces, and related tensors.

Gravity and self-gravity are evaluated on the body's full quadrature
rule, the stored energy on its stress rule (exact for the polynomial
energy density, see body_model). Every generalized force is the exact
gradient of the discretized potential with respect to the Galerkin
coefficients, taken on the same rule as the potential, so the discrete
system is exactly Hamiltonian when dissipation is off.

Stored energy is Saint Venant-Kirchhoff,

    W(F) = (1/eps) * [ (lam/2) (tr E)^2 + mu tr(E^2) ] = S(E) : E / 2,

with E = (F^T F - I)/2 and S the second Piola stress, a function of the
Cauchy-Green tensor only, hence frame-indifferent by construction. The
1/eps factor is the stiffness scale: smaller eps means a stiffer body.
One Green-strain and one S(E) routine feed the energy and its stress.
The energy and momentum monitors take a stack of states along leading
axes and return one value per state.

force_kernel is the one force kernel: it takes every table of a body,
material and viscosity once and returns kernel(y, out=None), the handle
the integrator, the Newton solver and the spectrum hold, reading y flat
(q, then qdot); conservative_force is the kernel at an admissible point.
A kernel keeps its intermediates, and its views of them, in scratch of
its own, so a call handed out allocates no array
(self-gravity's pair tensors aside), and it is not reentrant. Because S
is linear, its total stress S(E) + eta Cdot is one affine map of the
entries of F^T F and F^T Fdot, tabulated from S(E) and cauchy_green_rate
once per material and viscosity. The kernel carries its exact Jacobian
in (q, qdot), kernel.jacobian(y), built on the same tables and the same
affine map; minus the Jacobian at eta = 0 is the potentials' Hessian, so
Newton and the spectrum differentiate the kernel the integrator runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .body_model import DeformationState, ReferenceBody, _rows, det3, require_regular
from .dissipation import cauchy_green_rate
from .errors import InvalidParameterError, SingularConfigurationError

_I3 = np.eye(3)


@dataclass(frozen=True)
class MaterialParams:
    """Material and gravitational constants.

    lam, mu: Lame-type coefficients of the stored energy (pressure units).
    epsilon: stiffness scale; the stored energy carries a 1/epsilon factor.
    kM: gravitational parameter of the fixed planet (length^3/time^2).
    self_gravity_k: gravitational constant of the body's self-attraction
        (0 disables self-gravity).
    softening: length added in quadrature to the self-gravity kernel.
    """

    lam: float = 1.0
    mu: float = 1.0
    epsilon: float = 1.0
    kM: float = 1.0
    self_gravity_k: float = 0.0
    softening: float = 0.0

    def __post_init__(self):
        if not self.lam >= 0:
            raise InvalidParameterError(f"lam must be >= 0, got {self.lam}")
        if not self.mu > 0:
            raise InvalidParameterError(f"mu must be > 0, got {self.mu}")
        if not self.epsilon > 0:
            raise InvalidParameterError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.kM > 0:
            raise InvalidParameterError(f"kM must be > 0, got {self.kM}")
        if not self.self_gravity_k >= 0:
            raise InvalidParameterError(f"self_gravity_k must be >= 0, got {self.self_gravity_k}")
        if not self.softening >= 0:
            raise InvalidParameterError(f"softening must be >= 0, got {self.softening}")


@dataclass
class EnergyBreakdown:
    """The conservative budget: energies, their total H, and angular momentum.

    Each field carries the leading axes of the state it was evaluated on:
    scalars (and L of shape (3,)) for one state, columns of shape (n,)
    (and L of shape (n, 3)) for a stack of n states.
    """

    K: float | np.ndarray
    U_g: float | np.ndarray
    U_sg: float | np.ndarray
    U_e: float | np.ndarray
    H: float | np.ndarray
    L: np.ndarray


def _green_strain(F) -> np.ndarray:
    """E = (F^T F - I)/2 for F of shape (..., 3, 3)."""
    return 0.5 * (F.mT @ F - _I3)


def _second_piola(E, params: MaterialParams) -> np.ndarray:
    """S = (lam tr E I + 2 mu E)/eps for E of shape (..., 3, 3); linear in E."""
    trE = E[..., 0, 0] + E[..., 1, 1] + E[..., 2, 2]
    return (params.lam * trE[..., None, None] * _I3 + 2.0 * params.mu * E) / params.epsilon


def _stored_energy(F, params: MaterialParams) -> np.ndarray:
    """W(F) = S(E) : E / 2 for F of shape (..., 3, 3), shape (...)."""
    E = _green_strain(F)
    return 0.5 * np.einsum("...ij,...ij->...", _second_piola(E, params), E)


def stored_energy_density(x, F, params: MaterialParams) -> float:
    """Saint Venant-Kirchhoff stored energy density W(x, F); requires det F > 0."""
    F = np.asarray(F, dtype=float)
    if not det3(F) > 0.0:
        raise SingularConfigurationError("stored energy requires det F > 0")
    return float(_stored_energy(F, params))


def first_piola(F, params: MaterialParams) -> np.ndarray:
    """dW/dF = F S for F of shape (..., 3, 3), S = (lam tr E I + 2 mu E)/eps."""
    return np.matmul(F, _second_piola(_green_strain(F), params))


def kirchhoff_stress(x, F, params: MaterialParams) -> np.ndarray:
    """Kirchhoff stress tau[i,j] = F[i,a] dW/dF[j,a]; symmetric by frame indifference."""
    F = np.asarray(F, dtype=float)
    if not det3(F) > 0.0:
        raise SingularConfigurationError("Kirchhoff stress requires det F > 0")
    tau = F @ first_piola(F, params).T
    norm = np.linalg.norm(tau)
    if norm > 0 and np.linalg.norm(tau - tau.T) > 1e-12 * norm:
        raise AssertionError("Kirchhoff stress lost symmetry")
    return tau


def _softened_inverse_distances(Z, softening):
    """Pairwise 1/sqrt(|Zq - Zq'|^2 + delta^2) with zeroed diagonal, plus displacements."""
    diff = Z[:, None, :] - Z[None, :, :]
    s2 = np.einsum("qpi,qpi->qp", diff, diff) + softening**2
    if softening == 0.0:
        np.fill_diagonal(s2, 1.0)  # diagonal excluded below anyway
    inv = 1.0 / np.sqrt(s2)
    np.fill_diagonal(inv, 0.0)
    return inv, diff


def gravitational_energy(
    body: ReferenceBody, state: DeformationState, params: MaterialParams
) -> float | np.ndarray:
    """U_g = quadrature of -kM rho0 / |zeta(x)| over the body."""
    Z = require_regular(body, state)
    return -params.kM * body.density * np.sum(body.weights / np.linalg.norm(Z, axis=-1), axis=-1)


def self_gravity_energy(
    body: ReferenceBody, state: DeformationState, params: MaterialParams
) -> float | np.ndarray:
    """Softened double quadrature of -k rho0 rho0' / |zeta(x) - zeta(x')|.

    Pairs are double-counted, matching the defining double integral, so the
    gradient used by conservative_force is consistent with this value. A
    stack of states is summed one state at a time: its pair tensors would
    not fit in memory at once.
    """
    lead = state.q.shape[:-1]
    if params.self_gravity_k == 0.0:
        return np.zeros(lead)[()]
    m = body.node_masses
    energies = []
    for q in state.q.reshape(-1, state.q.shape[-1]):
        inv, _ = _softened_inverse_distances(body.node_positions(q), params.softening)
        energies.append(-params.self_gravity_k * np.einsum("q,p,qp->", m, m, inv))
    return np.reshape(energies, lead)[()]


def elastic_energy(
    body: ReferenceBody, state: DeformationState, params: MaterialParams
) -> float | np.ndarray:
    """U_e = stress-rule quadrature of the stored energy density (exact)."""
    return np.vecdot(_stored_energy(body.stress_gradients(state.q), params), body.stress_weights)


def kinetic_energy(body: ReferenceBody, state: DeformationState) -> float | np.ndarray:
    """K = (1/2) qdot^T M qdot via the scalar Gram matrix."""
    Adot = _rows(state.qdot)
    return 0.5 * np.einsum("ab,...ai,...bi->...", body.S, Adot, Adot)


def angular_momentum(body: ReferenceBody, state: DeformationState) -> np.ndarray:
    """L = integral of zeta x rho0 zetadot, shape (..., 3); exact for polynomial states."""
    A = _rows(state.q)[..., :, None, :]
    Adot = _rows(state.qdot)[..., None, :, :]
    # A_a x Adot_b written out by components: np.cross's products and
    # differences, the same three roundings per component, without its setup
    cross = np.empty(np.broadcast_shapes(A.shape, Adot.shape))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(A[..., j], Adot[..., k], out=cross[..., i])
        cross[..., i] -= A[..., k] * Adot[..., j]
    return np.einsum("ab,...abi->...i", body.S, cross)


def force_kernel(body: ReferenceBody, params: MaterialParams, eta: float = 0.0):
    """The force kernel of one (body, material, viscosity) and its exact Jacobian.

    Everything that depends only on the body, the material and eta is
    taken once here; the returned kernel(y) = f - g per monomial has shape
    (n_monomials, 3). y holds the Galerkin coefficients flat, q in its first
    3N entries and qdot in the next 3N (a 1-D state or a (2, 3N) stack); with
    eta = 0 qdot is not read and y may be q alone. f = -grad_q (U_g + U_sg +
    U_e) is the exact gradient of the discretized potentials and g the
    Kelvin-Voigt force of viscosity eta.
    kernel.jacobian(y) is d kernel / d y, shape (3N, k 3N) with k = 1 at
    eta = 0 and 2 otherwise: column w 3N + 3b + j is the derivative along
    y's flat entry w 3N + 3b + j, row 3a + i that of kernel(y)[a, i]. At eta = 0 it is
    minus the potentials' Hessian; at eta > 0 it is the exact
    d(f - g)/d(q, qdot). kernel.body and kernel.params are its body and
    material. The integrator builds one kernel per run, Newton one per solve
    and the spectrum one per call; only conservative_force checks admissibility.
    This is the only place the force arithmetic and its derivative live.

    kernel(y, out) writes f - g into out, a C-contiguous float (nm, 3)
    array, and returns it; kernel(y) returns a fresh array, which later
    calls leave alone. Every intermediate (node positions, radii, c, the
    gravity pullback, [F | Fdot], M, Sigma, the transposed first Piola stress
    and its divergence) lives in scratch allocated, and viewed, once per kernel; only
    self-gravity's pair tensors are built per call. So a kernel is not
    reentrant: one call at a time, and a kernel per thread. Each 2-D
    product is np.dot into its scratch, which calls the same BLAS gemm or
    gemv as the @ it replaces on the same operands, so the bits are those
    of the product formulas below; the products batched over stress nodes
    are np.matmul with out.

    Gravity: at the full-rule node x_q, zeta_q = (P A)_q with A the
    coefficient rows of q, and -dU_g/dzeta_q = c_q zeta_q with
    c_q = -kM m_q / |zeta_q|^3. Its pullback sum_q P_qa c_q zeta_q is
    (c @ node_products), reshaped to (nm, nm), times A. The radii are
    |P A|^2 node by node, which keeps them exact to round-off at a node
    close to the planet. Self-gravity pulls its node forces back through P.
    In the Jacobian, gravity's node blocks c_q (I - 3 zeta_q zeta_q^T / r^2)
    are pulled back through node_products the same way, and self-gravity's
    pair blocks, the Hessian of one softened pair term, through kron(P, I3).

    Stress: one product of [A^T | Adot^T] with the body's stress_block
    gives [F | Fdot] at every stress node, and one batched product
    M = F^T [F | Fdot] = [C | W], C = F^T F, W = F^T Fdot. The total second
    Piola stress S((C - I)/2) + eta (W + W^T), elastic plus viscous, is
    affine in the entries of M: M_flat @ L + sigma0 (_stress_map).
    stress_divergence sums the first Piola stress F Sigma on the stress rule
    from (F Sigma)^T = Sigma^T F^T, bit for bit np.matmul(F, Sigma).mT here.
    Along y's entry w 3N + 3b + j, d[F | Fdot] is e_j times row w nm + b of
    stress_block, so dM = dF^T [F | Fdot] + F^T d[F | Fdot],
    dSigma = dM_flat @ L and d(F Sigma) = dF Sigma + F dSigma, summed by
    stress_divergence for every direction at once.
    """
    k = 2 if eta > 0.0 else 1
    nm = body.basis.n_monomials
    P, node_products = body.P, body.node_products
    m = body.node_masses
    kM_m = -params.kM * m
    block = body.stress_block[:, : k * nm, : 3 * k]
    L, sigma0 = _stress_map(params, eta)
    stress_adjoint, stress_divergence = body.stress_adjoint, body.stress_divergence
    self_gravity = params.self_gravity_k > 0.0
    if self_gravity:
        PT, mm, softening = P.T, m[:, None] * m[None, :], params.softening
        two_k = 2.0 * params.self_gravity_k
    # the kernel's scratch, one array per intermediate written by every call, and its views
    nq, ns = len(P), len(block)
    Z, r2, c, root = np.empty((nq, 3)), np.empty(nq), np.empty(nq), np.empty(nq)
    pullback, force, divergence = np.empty((nm, nm)), np.empty((nm, 3)), np.empty((nm, 3))
    FFdot, M = np.empty((ns, 3, 3 * k)), np.empty((ns, 3, 3 * k))
    sigma, piola_T = np.empty((ns, 9)), np.empty((ns, 3, 3))
    pullback_flat, F_T, M_flat = pullback.reshape(-1), FFdot[..., :3].mT, M.reshape(ns, 9 * k)
    sigma_T, piola_T_rows = sigma.reshape(ns, 3, 3).mT, piola_T.reshape(-1, 3)
    sigma0_rows = np.empty((ns, 9))
    sigma0_rows[:] = sigma0  # one row per node: the add below does not broadcast

    def kernel(y, out=None):
        rows = y.reshape(-1, 3)[:k * nm]  # A, then Adot: its transpose is [A^T | Adot^T]
        A = rows[:nm]
        np.dot(P, A, Z)
        np.vecdot(Z, Z, r2)
        # c_q; dividing by r2 and sqrt(r2) in turn rounds differently from one
        # division by their product, and Newton's stop on seeds without a root
        # depends on that round-off (tests/test_equilibria.py, draw 4)
        np.divide(kM_m, r2, c)
        np.divide(c, np.sqrt(r2, root), c)
        np.dot(c, node_products, pullback_flat)
        np.dot(pullback, A, force)
        if self_gravity:
            inv, diff = _softened_inverse_distances(Z, softening)
            np.subtract(force, PT @ (two_k * np.einsum("qp,qpi->qi", mm * inv**3, diff)),
                        out=force)

        np.matmul(rows.T, block, FFdot)
        np.matmul(F_T, FFdot, M)
        np.dot(M_flat, L, sigma)
        np.add(sigma, sigma0_rows, sigma)
        # stress_divergence(F Sigma): (F Sigma)^T = Sigma^T F^T into scratch, then one product
        np.matmul(sigma_T, F_T, piola_T)
        np.dot(stress_adjoint, piola_T_rows, divergence)
        return np.subtract(force, divergence, out)

    def jacobian(y):
        n = 3 * nm
        A = y.reshape(-1, 3)[:nm]
        Z = P @ A
        # gravity's node blocks c_q (I - 3 Z Z^T / r^2), flattened to 9 entries,
        # and the pair blocks keep the rounding the Hessian has always had
        # (einsum radii, one division by r2 sqrt(r2), k m_q m_p from the left),
        # not the kernel's: Newton's stop on seeds without a root depends on
        # it, and with the kernel's radii and c draw 10 of
        # tests/test_equilibria.py runs out of iterations instead of stalling.
        # -3 (c_q / r^2) Z Z^T first, then c_q on the diagonal: the same
        # roundings as c_q I - 3 (c_q / r^2) Z Z^T, in fewer array passes.
        r2 = np.einsum("qi,qi->q", Z, Z)
        c = kM_m / (r2 * np.sqrt(r2))
        blocks = (Z[:, :, None] @ Z[:, None, :]).reshape(-1, 9)
        blocks *= -(3.0 * (c / r2))[:, None]
        blocks[:, ::4] += c[:, None]
        J = np.zeros((n, k * n))
        Jq = J[:, :n]
        if self_gravity:
            inv, diff = _softened_inverse_distances(Z, softening)
            s3 = params.self_gravity_k * m[:, None] * m[None, :] * inv**3
            # sd[q, i, p] = 3 k m_q m_p d_i / s^5; sd @ diff sums its d d^T terms over p
            sd = (3.0 * s3 * inv**2)[:, None, :] * np.ascontiguousarray(diff.transpose(0, 2, 1))
            blocks -= 2.0 * (s3.sum(axis=1)[:, None, None] * _I3 - sd @ diff).reshape(-1, 9)
            # the pair blocks laid out (q, i, p, j), so that they form the (3 nq, 3 nq) pair matrix
            B = -(sd[:, :, :, None] * diff[:, None, :, :])
            for i in range(3):
                B[:, i, :, i] += s3
            P3 = np.kron(P, _I3)
            Jq += 2.0 * (P3.T @ (B.reshape(len(P3), -1) @ P3))
        # node-diagonal blocks: sum_q P_qa P_qb blocks_q
        node_blocks = (node_products.T @ blocks).reshape(nm, nm, 3, 3)
        Jq += node_blocks.transpose(0, 2, 1, 3).reshape(n, n)

        FFdot = y.reshape(-1, 3)[:k * nm].T @ block
        F = FFdot[..., :3]
        sigma = ((F.mT @ FFdot).reshape(-1, 9 * k) @ L + sigma0).reshape(-1, 3, 3)
        # along y's entry w 3N + 3b + j, d[F | Fdot] at node s is e_j g^T with g = G[w nm + b, s],
        # so dF^T [F | Fdot] and F^T d[F | Fdot] are the outer products below
        # and dF Sigma has the one row g[:3] Sigma, in row j; axes (w nm + b, j, s, ., .)
        G = block.transpose(1, 0, 2)
        FFj = FFdot.transpose(1, 0, 2)[None, :, :, None, :]
        dM = G[:, None, :, :3, None] * FFj + FFj.mT[..., :3, :] * G[:, None, :, None, :]
        dsigma = dM.reshape(-1, 9 * k) @ L
        dP = F @ dsigma.reshape(len(G), 3, -1, 3, 3)
        dP += _I3[:, None, :, None] * (G[..., None, :3] @ sigma)[:, None]
        J -= stress_divergence(dP).reshape(k * n, n).T
        return J

    kernel.jacobian, kernel.body, kernel.params = jacobian, body, params
    return kernel


@lru_cache(maxsize=64)
def _stress_map(params: MaterialParams, eta: float):
    """(L, sigma0): the total second Piola stress as an affine map of M = F^T [F | Fdot].

    Per node, Sigma = M_flat @ L + sigma0 with M_flat the entries of
    M = [C | W] in row order, entry 6 i + 3 w + j for w = 0 (C) and 1 (W);
    L is (18, 9). With eta = 0 only C enters, M = C and L is (9, 9). The
    table is _second_piola and cauchy_green_rate evaluated on unit inputs,
    so S(E) keeps its one formula. Cached per (MaterialParams, eta), and
    read-only.
    """
    k = 2 if eta > 0.0 else 1
    unit = np.eye(9 * k).reshape(-1, 3, k, 3)
    L = _second_piola(0.5 * unit[:, :, 0], params)
    if eta > 0.0:
        L = L + eta * cauchy_green_rate(_I3, unit[:, :, 1])
    tables = L.reshape(9 * k, 9), _second_piola(-0.5 * _I3, params).reshape(9)
    for table in tables:
        table.flags.writeable = False  # shared by every caller through the cache
    return tables


def conservative_force(kernel, q: np.ndarray) -> np.ndarray:
    """The admissible force f = -grad_q (U_g + U_sg + U_e) at q, from a kernel of eta = 0.

    require_regular raises at an inadmissible q (det Dzeta <= 0, or a node at the planet).
    """
    state = DeformationState(q, np.zeros_like(q))
    require_regular(kernel.body, state)
    return kernel(state.q).reshape(-1)


def gravity_third_derivatives(Y, kM: float):
    """Closed-form third derivatives of V_g = -kM/|chi| at chi = Y.

    Returns the (1,1,1), (1,1,2) and (1,1,3) entries:

        d3V/d(chi1)^3        = 3 kM Y1 (5 Y1^2 - 3 r^2) / r^7
        d3V/d(chi1)^2 dchi2  = 3 kM Y2 (5 Y1^2 -   r^2) / r^7
        d3V/d(chi1)^2 dchi3  = 3 kM Y3 (5 Y1^2 -   r^2) / r^7
    """
    Y = np.asarray(Y, dtype=float)
    r = np.linalg.norm(Y)
    if r == 0.0:
        raise InvalidParameterError("third derivatives of -kM/|chi| are singular at Y = 0")
    r7 = r**7
    y1, y2, y3 = Y
    d111 = 3.0 * kM * y1 * (5.0 * y1**2 - 3.0 * r**2) / r7
    d112 = 3.0 * kM * y2 * (5.0 * y1**2 - r**2) / r7
    d113 = 3.0 * kM * y3 * (5.0 * y1**2 - r**2) / r7
    return d111, d112, d113


def energy_breakdown(
    body: ReferenceBody, state: DeformationState, params: MaterialParams
) -> EnergyBreakdown:
    """The conservative budget of one state or a stack (the loss rate is dissipation_rate)."""
    K = kinetic_energy(body, state)
    U_g = gravitational_energy(body, state, params)
    U_sg = self_gravity_energy(body, state, params)
    U_e = elastic_energy(body, state, params)
    return EnergyBreakdown(K=K, U_g=U_g, U_sg=U_sg, U_e=U_e, H=K + U_g + U_sg + U_e,
                           L=angular_momentum(body, state))
