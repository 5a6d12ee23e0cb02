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
One Green-strain and one S(E) routine feed the energy, its stress and
the stress tangent. The energy and momentum monitors take a stack of
states along leading axes and return one value per state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body_model import DeformationState, ReferenceBody, _rows, det3, require_regular
from .dissipation import viscous_first_piola
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
        if self.lam < 0:
            raise InvalidParameterError(f"lam must be >= 0, got {self.lam}")
        if self.mu <= 0:
            raise InvalidParameterError(f"mu must be > 0, got {self.mu}")
        if self.epsilon <= 0:
            raise InvalidParameterError(f"epsilon must be > 0, got {self.epsilon}")
        if self.kM <= 0:
            raise InvalidParameterError(f"kM must be > 0, got {self.kM}")
        if self.self_gravity_k < 0:
            raise InvalidParameterError(f"self_gravity_k must be >= 0, got {self.self_gravity_k}")
        if self.softening < 0:
            raise InvalidParameterError(f"softening must be >= 0, got {self.softening}")


@dataclass
class EnergyBreakdown:
    """Energies, total, angular momentum, and dissipation rate.

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
    dissipation_rate: float | np.ndarray = 0.0


def _green_strain(F) -> np.ndarray:
    """E = (F^T F - I)/2 for F of shape (..., 3, 3)."""
    return 0.5 * (np.matmul(np.swapaxes(F, -1, -2), F) - _I3)


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


def _first_piola_tangent(F, dF, params: MaterialParams) -> np.ndarray:
    """Derivative of first_piola at F along dF: dF S + F S(dE), dE = sym(F^T dF).

    F has shape (..., 3, 3) and dF broadcasts against it.
    """
    FtdF = np.matmul(np.swapaxes(F, -1, -2), dF)
    dE = 0.5 * (FtdF + np.swapaxes(FtdF, -1, -2))
    return (np.matmul(dF, _second_piola(_green_strain(F), params))
            + np.matmul(F, _second_piola(dE, params)))


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
    body: ReferenceBody, state: DeformationState, params: MaterialParams,
    impact_radius: float = 0.0,
) -> float | np.ndarray:
    """U_g = quadrature of -kM rho0 / |zeta(x)| over the body."""
    Z, _ = require_regular(body, state, impact_radius)
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
    m = body.density * body.weights
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
    A = _rows(state.q)
    Adot = _rows(state.qdot)
    cross = np.cross(A[..., :, None, :], Adot[..., None, :, :])
    return np.einsum("ab,...abi->...i", body.S, cross)


def generalized_force(
    body: ReferenceBody, Z, F, Fdot, params: MaterialParams, eta: float = 0.0,
) -> np.ndarray:
    """The force kernel: f - g per monomial, shape (n_monomials, 3).

    Z holds the full-rule node positions; F and Fdot are the deformation
    and velocity gradients at the stress-rule nodes (Fdot is read only when
    eta > 0). f = -grad_q (U_g + U_sg + U_e) is the exact gradient of the
    discretized potentials and g the Kelvin-Voigt force of viscosity eta.
    The integrator, conservative_force and through it the Newton solver
    and the spectrum all evaluate this.
    """
    m = body.density * body.weights
    # gravity: dU_g/dZ_q = kM m_q Z_q / |Z_q|^3
    r2 = np.einsum("qi,qi->q", Z, Z)
    dU_dZ = params.kM * (m / (r2 * np.sqrt(r2)))[:, None] * Z
    if params.self_gravity_k > 0.0:
        inv, diff = _softened_inverse_distances(Z, params.softening)
        coeff = m[:, None] * m[None, :] * inv**3
        dU_dZ += 2.0 * params.self_gravity_k * np.einsum("qp,qpi->qi", coeff, diff)

    P = first_piola(F, params)
    if eta > 0.0:
        P = P + viscous_first_piola(F, Fdot, eta)
    return -(body.P.T @ dU_dZ) - body.stress_divergence(P)


def conservative_force(
    body: ReferenceBody, state: DeformationState, params: MaterialParams,
    impact_radius: float = 0.0,
) -> np.ndarray:
    """Generalized force f = -grad_q (U_g + U_sg + U_e), the exact discrete gradient."""
    Z, _ = require_regular(body, state, impact_radius)
    return generalized_force(body, Z, body.stress_gradients(state.q), None, params).reshape(-1)


def potential_hessian(body: ReferenceBody, q: np.ndarray, params: MaterialParams) -> np.ndarray:
    """Hessian of U_g + U_sg + U_e in the Galerkin coefficients, shape (3N, 3N).

    The exact derivative of the conservative part of generalized_force, on
    the same rules. Per full-rule node, gravity contributes the block
    kM m_q (I/r^3 - 3 Z Z^T/r^5); self-gravity adds the pair blocks
    2 (delta_qp sum_r B_qr - B_qp), B_qp = k m_q m_p (I/s^3 - 3 d d^T/s^5)
    the Hessian of one softened pair term. Both are pulled back through
    zeta = P A. The stored energy contributes the stress-rule quadrature
    of the Saint Venant-Kirchhoff tangent along every coefficient
    direction (the tangent of first_piola, summed by stress_divergence).
    """
    q = np.asarray(q, dtype=float)
    Z, _ = require_regular(body, DeformationState(q, np.zeros_like(q)))
    n = q.size
    nq, nm = body.P.shape
    m = body.density * body.weights
    r2 = np.einsum("qi,qi->q", Z, Z)
    c3 = params.kM * m / (r2 * np.sqrt(r2))
    ZZ = Z[:, :, None] * Z[:, None, :]
    blocks = c3[:, None, None] * _I3 - 3.0 * (c3 / r2)[:, None, None] * ZZ
    H = np.zeros((n, n))
    if params.self_gravity_k > 0.0:
        inv, diff = _softened_inverse_distances(Z, params.softening)
        s3 = params.self_gravity_k * m[:, None] * m[None, :] * inv**3
        # sd[q, i, p] = 3 k m_q m_p d_i / s^5; sd @ diff sums its d d^T terms over p
        sd = (3.0 * s3 * inv**2)[:, None, :] * np.ascontiguousarray(diff.transpose(0, 2, 1))
        blocks += 2.0 * (s3.sum(axis=1)[:, None, None] * _I3 - sd @ diff)
        # B_qp laid out (q, i, p, j), so that it is the (3 nq, 3 nq) pair matrix
        B = -(sd[:, :, :, None] * diff[:, None, :, :])
        for i in range(3):
            B[:, i, :, i] += s3
        P3 = np.kron(body.P, _I3)
        H -= 2.0 * (P3.T @ (B.reshape(3 * nq, 3 * nq) @ P3))
    # node-diagonal blocks: sum_q P_qa P_qb blocks_q
    PP = (body.P[:, :, None] * body.P[:, None, :]).reshape(nq, nm * nm)
    H += (PP.T @ blocks.reshape(nq, 9)).reshape(nm, nm, 3, 3).transpose(0, 2, 1, 3).reshape(n, n)

    # stored energy: column (b, k) is the force change along dF_s = e_k grad m_b(x_s)^T
    F = body.stress_gradients(q)
    dF = np.einsum("sjb,ik->bksij", body.stress_Gm, _I3).reshape(n, *F.shape)
    H += body.stress_divergence(_first_piola_tangent(F, dF, params)).reshape(n, n).T
    return H


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
    body: ReferenceBody, state: DeformationState, params: MaterialParams,
    dissipation_rate: float | np.ndarray = 0.0, impact_radius: float = 0.0,
) -> EnergyBreakdown:
    """All conservative monitors of one state or a stack (dissipation rate supplied by caller)."""
    K = kinetic_energy(body, state)
    U_g = gravitational_energy(body, state, params, impact_radius)
    U_sg = self_gravity_energy(body, state, params)
    U_e = elastic_energy(body, state, params)
    return EnergyBreakdown(K=K, U_g=U_g, U_sg=U_sg, U_e=U_e, H=K + U_g + U_sg + U_e,
                           L=angular_momentum(body, state), dissipation_rate=dissipation_rate)
