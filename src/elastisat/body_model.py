"""Reference body, polynomial deformation basis, and ellipsoid quadrature.

The undeformed satellite is a triaxial ellipsoid with uniform density.
Deformations are expanded in vector-valued monomials of total degree
<= ``basis_degree``. Integrals over the body use tensorized Gauss-Legendre
rules mapped onto the ellipsoid, two of them:

- the full rule (order 8 by default) carries everything that involves
  node positions: the moments, the mass matrix, gravity and self-gravity
  (1/|zeta| is not polynomial), and the pointwise regularity checks;
- the stress rule, exact for total degree 4 (d - 1) with d the basis
  degree, carries the stress integrands. Dzeta has degree d - 1 in x, so
  the Saint Venant-Kirchhoff energy density, the Kelvin-Voigt dissipation
  density and their stresses tested against grad m_a are polynomials of
  degree <= 4 (d - 1), and the stress rule integrates them exactly: 2
  nodes at d = 1, 60 at d = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_factor, cho_solve

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

    r_nodes, r_weights = leggauss(n_r)
    r_nodes = 0.5 * (r_nodes + 1.0)          # map to (0, 1)
    r_weights = 0.5 * r_weights
    u_nodes, u_weights = leggauss(n_u)
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
    """Vector-polynomial modes phi_(a,i)(x) = m_a(x) e_i up to a total degree.

    ``exponents`` lists the scalar monomials m_a; the mode count is
    3 * len(exponents). Coefficient vectors are laid out component-fastest:
    q[3a + i] multiplies m_a(x) e_i, so q.reshape(-1, 3) has one monomial
    per row.
    """

    degree: int
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

    All integral operators downstream reduce to contractions against the
    precomputed node tables of the full rule: monomial values ``P`` (nodes
    x monomials), monomial gradients ``Gm`` (nodes x 3 x monomials), and
    the scalar Gram matrix ``S`` of the monomials in the rho0-weighted
    inner product. The full mass matrix is kron(S, I3). The stress rule
    keeps only its weights ``stress_weights`` and monomial gradients
    ``stress_Gm``; stress_gradients and stress_divergence work on it.
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
    _S_cho: tuple = field(repr=False, compare=False)

    @property
    def n_modes(self) -> int:
        return self.basis.count

    @property
    def volume(self) -> float:
        return float(np.sum(self.weights))

    @property
    def mean_radius(self) -> float:
        a, b, c = self.semi_axes
        return float((a * b * c) ** (1.0 / 3.0))

    def inertia_tensor(self) -> np.ndarray:
        """Inertia tensor about the centroid, tr(J) I - J with J the second moment."""
        J = self.second_moment
        return np.trace(J) * np.eye(3) - J

    def node_positions(self, q: np.ndarray) -> np.ndarray:
        """Images zeta(x_q) of all quadrature nodes, shape (..., nq, 3) for q (..., 3N)."""
        return self.P @ _rows(q)

    def node_gradients(self, q: np.ndarray) -> np.ndarray:
        """Deformation gradients Dzeta(x_q) at the full-rule nodes, shape (..., nq, 3, 3)."""
        return _gradients(self.Gm, q)

    def stress_gradients(self, q: np.ndarray) -> np.ndarray:
        """Deformation gradients Dzeta(x_s) at the stress-rule nodes, shape (..., ns, 3, 3)."""
        return _gradients(self.stress_Gm, q)

    def stress_divergence(self, P: np.ndarray) -> np.ndarray:
        """Galerkin force of a first-Piola field P (ns, 3, 3) at the stress nodes, shape (nm, 3).

        Row a is sum_s w_s P_s grad m_a(x_s): the stress-rule quadrature of
        P : Dphi, the adjoint of stress_gradients under the stress weights.
        Leading axes of P, if any, are a batch and lead the result too.
        """
        return np.einsum("s,...sij,sja->...ai", self.stress_weights, P, self.stress_Gm)

    def barycenter(self, q: np.ndarray) -> np.ndarray:
        """Mass center of the deformed body (exact for polynomial maps), shape (..., 3)."""
        return (self.mu_vec @ _rows(q)) / self.mass

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs with the prefactored mass matrix."""
        return cho_solve(self._S_cho, rhs.reshape(-1, 3)).reshape(rhs.shape)


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
    F = (Gm.reshape(-1, A.shape[-2]) @ A).reshape(*A.shape[:-2], -1, 3, 3)
    return np.swapaxes(F, -1, -2)


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

    def copy(self) -> "DeformationState":
        return DeformationState(self.q.copy(), self.qdot.copy())


def build_ellipsoid_body(
    semi_axes,
    density_value: float = 1.0,
    basis_degree: int = 1,
    quadrature_order: int = 8,
) -> ReferenceBody:
    """Construct the reference ellipsoid, its basis, both quadrature rules, and moments.

    Moments are computed by the full rule itself, so the moment invariants
    double as quadrature-exactness checks. The stress rule depends on the
    basis degree alone: it is exact for total degree 4 (basis_degree - 1).
    """
    semi_axes = tuple(float(s) for s in semi_axes)
    if len(semi_axes) != 3 or any(s <= 0 for s in semi_axes):
        raise InvalidParameterError(f"semi-axes must be three positive lengths, got {semi_axes}")
    if density_value <= 0:
        raise InvalidParameterError(f"density must be positive, got {density_value}")
    if basis_degree not in (1, 2):
        raise InvalidParameterError(f"basis_degree must be 1 or 2, got {basis_degree}")
    if quadrature_order < 2:
        raise InvalidParameterError(f"quadrature_order must be >= 2, got {quadrature_order}")
    # the Gram matrix has integrands of degree 2*basis_degree
    quadrature_order = max(quadrature_order, 2 * basis_degree)

    nodes, weights = ellipsoid_quadrature(semi_axes, quadrature_order)
    exponents = tuple(monomial_exponents(basis_degree))
    basis = DeformationBasis(degree=basis_degree, exponents=exponents)

    P = _eval_monomials(exponents, nodes)
    Gm = _eval_monomial_gradients(exponents, nodes)
    rho_w = density_value * weights
    S = np.einsum("q,qa,qb->ab", rho_w, P, P)
    S = 0.5 * (S + S.T)
    mu_vec = rho_w @ P
    stress_nodes, stress_weights = ellipsoid_quadrature(semi_axes, 4 * (basis_degree - 1))

    mass = float(np.sum(rho_w))
    first_moment = rho_w @ nodes
    second_moment = np.einsum("q,qi,qj->ij", rho_w, nodes, nodes)

    try:
        S_cho = cho_factor(S)
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError(f"mass matrix is not positive definite: {exc}") from exc

    return ReferenceBody(
        semi_axes=semi_axes,
        density=density_value,
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
        stress_Gm=_eval_monomial_gradients(exponents, stress_nodes),
        _S_cho=S_cho,
    )


def evaluate_map(body: ReferenceBody, state: DeformationState, x):
    """Evaluate (zeta(x), Dzeta(x)) at one material point by exact polynomial evaluation."""
    x = np.asarray(x, dtype=float).reshape(1, 3)
    A = state.q.reshape(-1, 3)
    zeta = (_eval_monomials(body.basis.exponents, x) @ A)[0]
    grad = np.einsum("ai,ja->ij", A, _eval_monomial_gradients(body.basis.exponents, x)[0])
    return zeta, grad


def mass_matrix(body: ReferenceBody) -> np.ndarray:
    """Full Galerkin mass matrix M_jk = integral of rho0 phi_j . phi_k = kron(S, I3)."""
    M = np.kron(body.S, np.eye(3))
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError(f"mass matrix is not positive definite: {exc}") from exc
    return M


def identity_coefficients(body: ReferenceBody) -> np.ndarray:
    """Coefficient vector of the identity map zeta(x) = x."""
    A = np.zeros((body.basis.n_monomials, 3))
    for a, exp in enumerate(body.basis.exponents):
        for i in range(3):
            unit = tuple(1 if j == i else 0 for j in range(3))
            if exp == unit:
                A[a, i] = 1.0
    return A.reshape(-1)


def rigid_state(
    body: ReferenceBody,
    rotation=None,
    translation=None,
    velocity=None,
    spin=None,
) -> DeformationState:
    """State of a rigid placement zeta(x) = R x + c with zetadot = v + spin x (R x).

    Any argument left as None defaults to the identity / zero.
    """
    R = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    c = np.zeros(3) if translation is None else np.asarray(translation, dtype=float)
    v = np.zeros(3) if velocity is None else np.asarray(velocity, dtype=float)
    w = np.zeros(3) if spin is None else np.asarray(spin, dtype=float)

    nm = body.basis.n_monomials
    A = np.zeros((nm, 3))
    Adot = np.zeros((nm, 3))
    A[0] = c
    Adot[0] = v
    lin = {exp: a for a, exp in enumerate(body.basis.exponents)}
    W = skew(w)
    for j in range(3):
        a = lin[tuple(1 if k == j else 0 for k in range(3))]
        A[a] = R[:, j]
        Adot[a] = W @ R[:, j]
    return DeformationState(A.reshape(-1), Adot.reshape(-1))


def skew(v) -> np.ndarray:
    """Matrix of the cross product: skew(v) u = v x u."""
    v = np.asarray(v, dtype=float)
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def require_regular(body: ReferenceBody, state: DeformationState, impact_radius: float = 0.0):
    """Raise unless det(Dzeta) > 0 at every node and no node is at/inside the impact radius.

    A stack of states passes only if every one of them does. Returns (node
    positions, node gradients) so callers can reuse them.
    """
    Z = body.node_positions(state.q)
    F = body.node_gradients(state.q)
    dets = det3(F)
    if np.any(dets <= 0.0):
        raise SingularConfigurationError(
            f"det(Dzeta) <= 0 at {int(np.sum(dets <= 0.0))} quadrature node(s)"
        )
    dmin = float(np.sqrt(np.min(np.einsum("...i,...i->...", Z, Z))))
    if dmin <= impact_radius:
        raise ImpactProximityError(
            f"material point at distance {dmin:.3e} <= impact radius {impact_radius:.3e}"
        )
    return Z, F
