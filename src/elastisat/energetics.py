"""Conservative energies, their generalized forces, and related tensors.

Gravity and self-gravity are evaluated on the body's full quadrature
rule, the stored energy on its stress rule (exact for the polynomial
energy density, see body_model). Every generalized force is the exact
gradient of the discretized potential with respect to the Galerkin
coefficients, taken on the same rule as the potential, so the discrete
system is exactly Hamiltonian when dissipation is off.

Stored energy is Saint Venant-Kirchhoff,

    W(F) = (1/eps) * [ (lam/2) (tr E)^2 + mu tr(E^2) ],   E = (F^T F - I)/2,

a function of the Cauchy-Green tensor only, hence frame-indifferent by
construction. The 1/eps factor is the stiffness scale: smaller eps means a
stiffer body.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body_model import DeformationState, ReferenceBody, require_regular
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
    """Energies, total, angular momentum, and dissipation rate at one instant."""

    K: float
    U_g: float
    U_sg: float
    U_e: float
    H: float
    L: np.ndarray
    dissipation_rate: float = 0.0

    @classmethod
    def assemble(cls, K, U_g, U_sg, U_e, L, dissipation_rate=0.0):
        return cls(K=K, U_g=U_g, U_sg=U_sg, U_e=U_e, H=K + U_g + U_sg + U_e,
                   L=np.asarray(L, dtype=float), dissipation_rate=dissipation_rate)


def cauchy_green(F) -> np.ndarray:
    """Right Cauchy-Green tensor C = F^T F."""
    F = np.asarray(F, dtype=float)
    return F.T @ F


def stored_energy_density(x, F, params: MaterialParams) -> float:
    """Saint Venant-Kirchhoff stored energy density W(x, F); requires det F > 0."""
    F = np.asarray(F, dtype=float)
    if np.linalg.det(F) <= 0.0:
        raise SingularConfigurationError("stored energy requires det F > 0")
    E = 0.5 * (cauchy_green(F) - _I3)
    tr = np.trace(E)
    return (0.5 * params.lam * tr * tr + params.mu * np.sum(E * E)) / params.epsilon


def _second_piola(E, params: MaterialParams) -> np.ndarray:
    """S = (lam tr E I + 2 mu E)/eps for E of shape (..., 3, 3); linear in E."""
    trE = E[..., 0, 0] + E[..., 1, 1] + E[..., 2, 2]
    return (params.lam * trE[..., None, None] * _I3 + 2.0 * params.mu * E) / params.epsilon


def first_piola(F, params: MaterialParams) -> np.ndarray:
    """dW/dF = F S for F of shape (..., 3, 3), S = (lam tr E I + 2 mu E)/eps."""
    E = 0.5 * (np.matmul(np.swapaxes(F, -1, -2), F) - _I3)
    return np.matmul(F, _second_piola(E, params))


def _first_piola_tangent(F, dF, params: MaterialParams) -> np.ndarray:
    """Derivative of first_piola at F along dF: dF S + F S(dE), dE = sym(F^T dF).

    F has shape (..., 3, 3) and dF broadcasts against it.
    """
    E = 0.5 * (np.matmul(np.swapaxes(F, -1, -2), F) - _I3)
    FtdF = np.matmul(np.swapaxes(F, -1, -2), dF)
    dE = 0.5 * (FtdF + np.swapaxes(FtdF, -1, -2))
    return np.matmul(dF, _second_piola(E, params)) + np.matmul(F, _second_piola(dE, params))


def kirchhoff_stress(x, F, params: MaterialParams) -> np.ndarray:
    """Kirchhoff stress tau[i,j] = F[i,a] dW/dF[j,a]; symmetric by frame indifference."""
    F = np.asarray(F, dtype=float)
    if np.linalg.det(F) <= 0.0:
        raise SingularConfigurationError("Kirchhoff stress requires det F > 0")
    tau = F @ first_piola(F, params).T
    norm = np.linalg.norm(tau)
    if norm > 0 and np.linalg.norm(tau - tau.T) > 1e-12 * norm:
        raise AssertionError("Kirchhoff stress lost symmetry")
    return tau


def _stored_energy_nodes(F, params: MaterialParams):
    E = 0.5 * (np.einsum("qki,qkj->qij", F, F) - _I3)
    tr = np.trace(E, axis1=1, axis2=2)
    return (0.5 * params.lam * tr**2 + params.mu * np.einsum("qij,qij->q", E, E)) / params.epsilon


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
) -> float:
    """U_g = quadrature of -kM rho0 / |zeta(x)| over the body."""
    Z, _ = require_regular(body, state, impact_radius)
    return float(-params.kM * body.density * np.sum(body.weights / np.linalg.norm(Z, axis=1)))


def self_gravity_energy(
    body: ReferenceBody, state: DeformationState, params: MaterialParams
) -> float:
    """Softened double quadrature of -k rho0 rho0' / |zeta(x) - zeta(x')|.

    Pairs are double-counted, matching the defining double integral, so the
    gradient used by conservative_force is consistent with this value.
    """
    if params.self_gravity_k == 0.0:
        return 0.0
    Z = body.node_positions(state.q)
    m = body.density * body.weights
    inv, _ = _softened_inverse_distances(Z, params.softening)
    return float(-params.self_gravity_k * np.einsum("q,p,qp->", m, m, inv))


def elastic_energy(body: ReferenceBody, state: DeformationState, params: MaterialParams) -> float:
    """U_e = stress-rule quadrature of the stored energy density (exact)."""
    F = body.stress_gradients(state.q)
    return float(np.dot(body.stress_weights, _stored_energy_nodes(F, params)))


def kinetic_energy(body: ReferenceBody, state: DeformationState) -> float:
    """K = (1/2) qdot^T M qdot via the scalar Gram matrix."""
    Adot = state.qdot.reshape(-1, 3)
    return float(0.5 * np.einsum("ab,ai,bi->", body.S, Adot, Adot))


def angular_momentum(body: ReferenceBody, state: DeformationState) -> np.ndarray:
    """L = integral of zeta x rho0 zetadot; exact for polynomial states."""
    A = state.q.reshape(-1, 3)
    Adot = state.qdot.reshape(-1, 3)
    cross = np.cross(A[:, None, :], Adot[None, :, :])
    return np.einsum("ab,abi->i", body.S, cross)


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
    dissipation_rate: float = 0.0, impact_radius: float = 0.0,
) -> EnergyBreakdown:
    """All conservative monitors at one instant (dissipation rate supplied by caller)."""
    return EnergyBreakdown.assemble(
        K=kinetic_energy(body, state),
        U_g=gravitational_energy(body, state, params, impact_radius),
        U_sg=self_gravity_energy(body, state, params),
        U_e=elastic_energy(body, state, params),
        L=angular_momentum(body, state),
        dissipation_rate=dissipation_rate,
    )
