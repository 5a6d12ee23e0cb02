"""Reference body, polynomial deformation basis, and ellipsoid quadrature.

The undeformed satellite is a triaxial ellipsoid with uniform density.
Deformations are expanded in vector-valued monomials of total degree
<= ``basis_degree``. Integrals over the body use tensorized Gauss-Legendre
rules mapped onto the ellipsoid, two of them:

- the full rule (order 8 by default) builds the Gram matrix S of the
  monomials and the reference moments once. Every mass-weighted
  polynomial moment of the deformed body (mass matrix, barycenter, K, L,
  the spin fit, the comoving frame) is a form in S and the coefficient
  rows. After that the full rule carries only gravity and self-gravity
  (1/|zeta| is not polynomial) and the pointwise checks: det Dzeta,
  impact distance and the Cdot_max gauge. The checks on Dzeta read only
  the distinct rows of the full-rule gradient table: one row at basis
  degree 1, where every node has the same Dzeta;
- the stress rule, exact for total degree 4 (d - 1) with d the basis
  degree, carries the stress integrands. Dzeta has degree d - 1 in x, so
  the Saint Venant-Kirchhoff energy density, the Kelvin-Voigt dissipation
  density and their stresses tested against grad m_a are polynomials of
  degree <= 4 (d - 1), and the stress rule integrates them exactly: 2
  nodes at d = 1, 60 at d = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DegenerateBasisError,
    ImpactProximityError,
    InvalidParameterError,
    SingularConfigurationError,
)


def monomial_exponents(degree: int) -> list[tuple[int, int, int]]:
    """Exponent triples of all scalar monomials with total degree <= degree.

    Ordered by total degree, then lexicographically, starting with the
    constant monomial. Degree 1 gives [1, x, y, z].
    """
    out = []
    for d in range(degree + 1):
        for px in range(d, -1, -1):
            for py in range(d - px, -1, -1):
                out.append((px, py, d - px - py))
    return out


def _eval_monomials(exponents, x):
    """Values of each monomial at points x, shape (npts, nmono)."""
    x = np.atleast_2d(x)
    cols = [x[:, 0] ** px * x[:, 1] ** py * x[:, 2] ** pz for px, py, pz in exponents]
    return np.stack(cols, axis=1)


def _eval_monomial_gradients(exponents, x):
    """Gradients of each monomial at points x, shape (npts, 3, nmono): [n, j, a] = d_j m_a."""
    x = np.atleast_2d(x)
    n = x.shape[0]
    grads = np.zeros((n, 3, len(exponents)))
    for a, (px, py, pz) in enumerate(exponents):
        if px > 0:
            grads[:, 0, a] = px * x[:, 0] ** (px - 1) * x[:, 1] ** py * x[:, 2] ** pz
        if py > 0:
            grads[:, 1, a] = py * x[:, 0] ** px * x[:, 1] ** (py - 1) * x[:, 2] ** pz
        if pz > 0:
            grads[:, 2, a] = pz * x[:, 0] ** px * x[:, 1] ** py * x[:, 2] ** (pz - 1)
    return grads


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule on (-1, 1); cached per n, read-only."""
    rule = leggauss(n)
    for table in rule:
        table.flags.writeable = False  # shared by every caller through the cache
    return rule


def ellipsoid_quadrature(semi_axes, order: int):
    """Gauss-Legendre product rule on the ellipsoid, exact for total degree <= order.

    Spherical-product transform x = (a r s cos(phi), b r s sin(phi), c r u)
    with s = sqrt(1 - u^2): Gauss-Legendre in the radial variable r on (0, 1)
    and in u = cos(theta) on (-1, 1), equispaced periodic rule in phi. All
    nodes are strictly interior and all weights positive.

    Returns (nodes (n, 3), weights (n,)).
    """
    a, b, c = semi_axes
    n_r = (order + 4) // 2       # integrates r^(order+2)
    n_u = (order + 2) // 2       # integrates u^order
    n_phi = order + 1            # trig degree <= order

    r_nodes, r_weights = _gauss_legendre(n_r)
    r_nodes = 0.5 * (r_nodes + 1.0)          # map to (0, 1)
    r_weights = 0.5 * r_weights
    u_nodes, u_weights = _gauss_legendre(n_u)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    phi_weight = 2.0 * np.pi / n_phi

    R, U, PHI = np.meshgrid(r_nodes, u_nodes, phi, indexing="ij")
    WR, WU = np.meshgrid(r_weights, u_weights, indexing="ij")
    s = np.sqrt(1.0 - U**2)
    nodes = np.stack(
        [a * R * s * np.cos(PHI), b * R * s * np.sin(PHI), c * R * U], axis=-1
    ).reshape(-1, 3)
    weights = (a * b * c * WR[..., None] * WU[..., None] * phi_weight * R**2).reshape(-1)
    return nodes, weights


@dataclass(frozen=True)
class DeformationBasis:
    """Vector-polynomial modes phi_(a,i)(x) = m_a(x) e_i.

    ``exponents`` lists the scalar monomials m_a, all of total degree up to
    the body's basis degree (monomial_exponents); the mode count is
    3 * len(exponents). Coefficient vectors are laid out component-fastest:
    q[3a + i] multiplies m_a(x) e_i, so q.reshape(-1, 3) has one monomial
    per row.
    """

    exponents: tuple[tuple[int, int, int], ...]

    @property
    def n_monomials(self) -> int:
        return len(self.exponents)

    @property
    def count(self) -> int:
        return 3 * len(self.exponents)


@dataclass(frozen=True)
class ReferenceBody:
    """Immutable reference configuration with its two quadrature rules and moments.

    The scalar Gram matrix ``S`` of the monomials in the rho0-weighted
    inner product (the mass matrix is kron(S, I3)) and ``mu_vec`` carry
    every polynomial moment. The full rule keeps its node tables, monomial
    values ``P`` (nodes x monomials) and gradients ``Gm`` (nodes x 3 x
    monomials), for gravity and the pointwise checks. The stress rule keeps
    only its weights ``stress_weights`` and monomial gradients ``stress_Gm``.

    Constant tables built once with the body: ``node_masses`` rho0 w_q at
    the full-rule nodes; ``node_products`` (nq, nm^2), whose entry
    [q, a nm + b] is P_qa P_qb (gravity and its Hessian); ``distinct_Gm``,
    Gm[:1] when every node's row of Gm equals the first (basis degree 1)
    and Gm itself otherwise (the pointwise checks); ``S_inv`` the inverse
    of S, L^-T L^-1 from numpy's Cholesky factor S = L L^T (solve_mass);
    ``stress_adjoint`` (nm, 3 ns), whose entry
    [a, 3s + j] is w_s d_j m_a(x_s) (stress_divergence); and
    ``stress_block`` (ns, 2 nm, 6), whose entries [s, w nm + a, 3w + j]
    are d_j m_a(x_s) for w = 0, 1 and zero elsewhere (the force kernel).
    """

    semi_axes: tuple[float, float, float]
    density: float
    basis: DeformationBasis
    quadrature_order: int
    nodes: np.ndarray            # (nq, 3)
    weights: np.ndarray          # (nq,)
    mass: float
    first_moment: np.ndarray     # (3,)
    second_moment: np.ndarray    # (3, 3)
    P: np.ndarray = field(repr=False)      # (nq, nm) monomial values
    Gm: np.ndarray = field(repr=False)     # (nq, 3, nm) monomial gradients
    S: np.ndarray = field(repr=False)      # (nm, nm) scalar Gram matrix
    mu_vec: np.ndarray = field(repr=False) # (nm,) integral of rho0 * m_a
    stress_weights: np.ndarray = field(repr=False)  # (ns,) stress-rule weights
    stress_Gm: np.ndarray = field(repr=False)       # (ns, 3, nm) stress-rule gradients
    node_masses: np.ndarray = field(repr=False)     # (nq,) rho0 * weights
    node_products: np.ndarray = field(repr=False)   # (nq, nm^2) P_qa P_qb
    distinct_Gm: np.ndarray = field(repr=False)     # (1 or nq, 3, nm) distinct rows of Gm
    S_inv: np.ndarray = field(repr=False)           # (nm, nm) inverse Gram matrix
    stress_adjoint: np.ndarray = field(repr=False)  # (nm, 3 ns) w_s grad m_a(x_s)
    stress_block: np.ndarray = field(repr=False)    # (ns, 2 nm, 6) block-diagonal stress_Gm

    @property
    def n_modes(self) -> int:
        return self.basis.count

    @property
    def mean_radius(self) -> float:
        a, b, c = self.semi_axes
        return float((a * b * c) ** (1.0 / 3.0))

    def inertia_tensor(self) -> np.ndarray:
        """Inertia tensor of the reference body about its centroid (the origin)."""
        return inertia(self.second_moment)

    def node_positions(self, q: np.ndarray) -> np.ndarray:
        """Images zeta(x_q) of all quadrature nodes, shape (..., nq, 3) for q (..., 3N)."""
        return self.P @ _rows(q)

    def distinct_gradients(self, q: np.ndarray) -> np.ndarray:
        """The distinct deformation gradients over the full-rule nodes, shape (..., nd, 3, 3).

        Dzeta(x_q) at the nodes of distinct_Gm: every full-rule node has one
        of these nd gradients (nd = 1 at basis degree 1, nq otherwise), so a
        minimum or maximum over them is one over all nodes.
        """
        return _gradients(self.distinct_Gm, q)

    def stress_gradients(self, q: np.ndarray) -> np.ndarray:
        """Deformation gradients Dzeta(x_s) at the stress-rule nodes, shape (..., ns, 3, 3)."""
        return _gradients(self.stress_Gm, q)

    def stress_divergence(self, P: np.ndarray) -> np.ndarray:
        """Galerkin force of a first-Piola field P (ns, 3, 3) at the stress nodes, shape (nm, 3).

        Row a is sum_s w_s P_s grad m_a(x_s): the stress-rule quadrature of
        P : Dphi, the adjoint of stress_gradients under the stress weights:
        one product of the stress-adjoint table with P^T stacked over the
        nodes. Leading axes of P, if any, are a batch and lead the result too.
        """
        return self.stress_adjoint @ P.mT.reshape(*P.shape[:-3], -1, 3)

    def barycenter(self, q: np.ndarray) -> np.ndarray:
        """Mass center of the deformed body (exact for polynomial maps), shape (..., 3)."""
        return (self.mu_vec @ _rows(q)) / self.mass

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs, M = kron(S, I3): one product with the inverse Gram matrix."""
        return (self.S_inv @ rhs.reshape(-1, 3)).reshape(rhs.shape)


def inertia(J: np.ndarray) -> np.ndarray:
    """Inertia tensor tr(J) I - J of second moments J (..., 3, 3), shape (..., 3, 3)."""
    return np.trace(J, axis1=-2, axis2=-1)[..., None, None] * np.eye(3) - J


def det3(F: np.ndarray) -> np.ndarray:
    """Determinants of 3x3 matrices F (..., 3, 3), by cofactor expansion, shape (...)."""
    return (
        F[..., 0, 0] * (F[..., 1, 1] * F[..., 2, 2] - F[..., 1, 2] * F[..., 2, 1])
        - F[..., 0, 1] * (F[..., 1, 0] * F[..., 2, 2] - F[..., 1, 2] * F[..., 2, 0])
        + F[..., 0, 2] * (F[..., 1, 0] * F[..., 2, 1] - F[..., 1, 1] * F[..., 2, 0])
    )


def _rows(q: np.ndarray) -> np.ndarray:
    """Coefficient vectors (..., 3N) as monomial rows (..., N, 3)."""
    return q.reshape(*q.shape[:-1], -1, 3)


def _gradients(Gm: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Deformation gradients at every node of a gradient table Gm (n, 3, nm), shape (..., n, 3, 3).

    F_n[i, j] = sum_a A[a, i] d_j m_a(x_n) with A = _rows(q): one BLAS
    product per state, in which row (n, j) of Gm times A is column j of F_n.
    """
    A = _rows(q)
    return (Gm.reshape(-1, A.shape[-2]) @ A).reshape(*A.shape[:-2], -1, 3, 3).mT


@dataclass
class DeformationState:
    """Galerkin coefficients of the map zeta and its velocity.

    zeta(x) = sum_k q[k] phi_k(x) and likewise for qdot; momenta are
    p = M qdot. Layout is component-fastest (see DeformationBasis). q and
    qdot have equal shape (..., 3N); leading axes hold a stack of states.
    """

    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.qdot = np.asarray(self.qdot, dtype=float)
        if self.q.shape != self.qdot.shape or self.q.ndim == 0:
            raise InvalidParameterError("q and qdot must be arrays of equal shape (..., 3N)")


def build_ellipsoid_body(
    semi_axes: tuple[float, float, float],
    density: float = 1.0,
    basis_degree: int = 1,
    quadrature_order: int = 8,
) -> ReferenceBody:
    """Construct the reference ellipsoid, its basis, both quadrature rules, and moments.

    Moments are computed by the full rule itself, so the moment invariants
    double as quadrature-exactness checks. The stress rule depends on the
    basis degree alone: it is exact for total degree 4 (basis_degree - 1).
    """
    semi_axes = tuple(float(s) for s in semi_axes)
    if len(semi_axes) != 3 or not all(s > 0 for s in semi_axes):
        raise InvalidParameterError(f"semi-axes must be three positive lengths, got {semi_axes}")
    if not density > 0:
        raise InvalidParameterError(f"density must be positive, got {density}")
    if basis_degree not in (1, 2):
        raise InvalidParameterError(f"basis_degree must be 1 or 2, got {basis_degree}")
    if quadrature_order < 2:
        raise InvalidParameterError(f"quadrature_order must be >= 2, got {quadrature_order}")
    # the Gram matrix has integrands of degree 2*basis_degree
    quadrature_order = max(quadrature_order, 2 * basis_degree)

    nodes, weights = ellipsoid_quadrature(semi_axes, quadrature_order)
    exponents = tuple(monomial_exponents(basis_degree))
    basis = DeformationBasis(exponents=exponents)

    P = _eval_monomials(exponents, nodes)
    Gm = _eval_monomial_gradients(exponents, nodes)
    rho_w = density * weights
    S = np.einsum("q,qa,qb->ab", rho_w, P, P)
    S = 0.5 * (S + S.T)
    mu_vec = rho_w @ P
    stress_nodes, stress_weights = ellipsoid_quadrature(semi_axes, 4 * (basis_degree - 1))

    mass = float(np.sum(rho_w))
    first_moment = rho_w @ nodes
    second_moment = np.einsum("q,qi,qj->ij", rho_w, nodes, nodes)

    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError(f"mass matrix is not positive definite: {exc}") from exc
    L_inv = np.linalg.inv(L)
    S_inv = L_inv.T @ L_inv
    stress_Gm = _eval_monomial_gradients(exponents, stress_nodes)
    ns, nm = len(stress_Gm), len(S)
    stress_block = np.zeros((ns, 2, nm, 2, 3))
    stress_block[:, 0, :, 0] = stress_block[:, 1, :, 1] = stress_Gm.transpose(0, 2, 1)

    return ReferenceBody(
        semi_axes=semi_axes,
        density=density,
        basis=basis,
        quadrature_order=quadrature_order,
        nodes=nodes,
        weights=weights,
        mass=mass,
        first_moment=first_moment,
        second_moment=second_moment,
        P=P,
        Gm=Gm,
        S=S,
        mu_vec=mu_vec,
        stress_weights=stress_weights,
        stress_Gm=stress_Gm,
        node_masses=rho_w,
        node_products=(P[:, :, None] * P[:, None, :]).reshape(len(P), -1),
        distinct_Gm=Gm[:1] if np.all(Gm == Gm[0]) else Gm,
        S_inv=S_inv,
        stress_adjoint=(stress_weights[:, None, None] * stress_Gm).reshape(-1, nm).T,
        stress_block=stress_block.reshape(ns, 2 * nm, 6),
    )


def evaluate_map(body: ReferenceBody, state: DeformationState, x):
    """Evaluate (zeta(x), Dzeta(x)) at one material point by exact polynomial evaluation."""
    x = np.asarray(x, dtype=float).reshape(1, 3)
    A = state.q.reshape(-1, 3)
    zeta = (_eval_monomials(body.basis.exponents, x) @ A)[0]
    grad = _gradients(_eval_monomial_gradients(body.basis.exponents, x), state.q)[0]
    return zeta, grad


def mass_matrix(body: ReferenceBody) -> np.ndarray:
    """Full Galerkin mass matrix M_jk = integral of rho0 phi_j . phi_k = kron(S, I3)."""
    return np.kron(body.S, np.eye(3))


def identity_coefficients(body: ReferenceBody) -> np.ndarray:
    """Coefficient vector of the identity map zeta(x) = x: row x_i is e_i, every other row zero."""
    E = np.array(body.basis.exponents, dtype=float)
    return (E * (E.sum(axis=1) == 1)[:, None]).reshape(-1)


def rigid_state(
    body: ReferenceBody,
    rotation=None,
    translation=None,
    velocity=None,
    spin=None,
) -> DeformationState:
    """State of a rigid placement zeta(x) = R x + c with zetadot = v + spin x (R x).

    Any argument left as None defaults to the identity / zero. The rows
    are those of the identity map rotated, A = X R^T and Adot = A W^T with
    W = skew(spin), and row 0 (the constant monomial) is (c, v).
    """
    R = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    A = _rows(identity_coefficients(body)) @ R.T
    Adot = A @ skew(np.zeros(3) if spin is None else spin).T
    A[0] = 0.0 if translation is None else translation
    Adot[0] = 0.0 if velocity is None else velocity
    return DeformationState(A.reshape(-1), Adot.reshape(-1))


def skew(v) -> np.ndarray:
    """Matrix of the cross product: skew(v) u = v x u; v of shape (..., 3) gives (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    W = np.zeros(v.shape + (3,))
    W[..., 0, 1], W[..., 0, 2] = -v[..., 2], v[..., 1]
    W[..., 1, 0], W[..., 1, 2] = v[..., 2], -v[..., 0]
    W[..., 2, 0], W[..., 2, 1] = -v[..., 1], v[..., 0]
    return W


def axis_rotation(axis, angle: float) -> np.ndarray:
    """Rotation matrix by angle about the unit vector axis (Rodrigues); the identity at angle 0."""
    E = skew(axis)
    return np.eye(3) + np.sin(angle) * E + (1.0 - np.cos(angle)) * (E @ E)


def require_regular(body: ReferenceBody, state: DeformationState, impact_radius: float = 0.0):
    """Raise unless det(Dzeta) > 0 at every node and no node is at/inside the impact radius.

    A stack of states passes only if every one of them does. The determinant
    is taken once per distinct gradient; the closest-node distance is the
    impact event's, so a state fails exactly where the integrator's singular
    or impact event is <= 0. Returns the node positions, shape (..., nq, 3).
    """
    Z = body.node_positions(state.q)
    dets = det3(body.distinct_gradients(state.q))
    repeat = len(body.nodes) // len(body.distinct_Gm)  # nodes per distinct gradient
    if np.any(dets <= 0.0):
        raise SingularConfigurationError(
            f"det(Dzeta) <= 0 at {int(np.sum(dets <= 0.0)) * repeat} quadrature node(s)"
        )
    dmin = math.sqrt(np.vecdot(Z, Z).min())
    if dmin <= impact_radius:
        raise ImpactProximityError(
            f"material point at distance {dmin:.3e} <= impact radius {impact_radius:.3e}"
        )
    return Z
