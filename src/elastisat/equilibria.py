"""Relative equilibria: Newton solver, nondegeneracy test, rigid catalog.

A relative equilibrium rotates rigidly at rate omega while every material
point balances gravity, elastic stress and the centrifugal field.  In
Galerkin coordinates it is a critical point of the augmented energy
H - omega . (L - L0) over the level set L = L0, so the solver works on
the closed system

    grad_q U(q) + S A skew(omega)^2 = 0,      L(q, v_e(q, omega)) = L0,

with v_e(q, omega) the rigid velocity field omega x zeta written in
coefficients.  Newton uses the exact Jacobian of this system
(equilibrium_jacobian, built on energetics.potential_hessian).  The
Jacobian is singular along the group orbit (rotations about L0), so each
step is a least-squares step with one more row, the phase condition
T0 . (u - u0) = 0 with T0 the orbit tangent at the seed u0: it pins where
on the orbit the solution lands.  The nondegeneracy spectrum takes the
same potential Hessian, and the rigid catalog a closed-form one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space

from .body_model import (
    DeformationState,
    ReferenceBody,
    mass_matrix,
    rigid_state,
    skew,
)
from .energetics import (
    MaterialParams,
    angular_momentum,
    conservative_force,
    energy_breakdown,
    potential_hessian,
)
from .errors import (
    DegenerateCatalogError,
    ImpactProximityError,
    InvalidParameterError,
    NoConvergenceError,
    SingularConfigurationError,
)


def equilibrium_velocity(body: ReferenceBody, q: np.ndarray, omega) -> np.ndarray:
    """Coefficients of the rigid velocity field zetadot = omega x zeta."""
    A = np.asarray(q, dtype=float).reshape(-1, 3)
    return (A @ skew(omega).T).reshape(-1)


def augmented_hamiltonian(
    body: ReferenceBody,
    state: DeformationState,
    material: MaterialParams,
    omega,
    L0,
) -> float:
    """H - omega . (L - L0); critical exactly at relative equilibria on L = L0."""
    bd = energy_breakdown(body, state, material)
    return float(bd.H - np.dot(np.asarray(omega, dtype=float), bd.L - np.asarray(L0, dtype=float)))


def equilibrium_residual(
    body: ReferenceBody,
    material: MaterialParams,
    q: np.ndarray,
    omega,
    L0,
) -> np.ndarray:
    """Stacked residual [grad_q U + S A skew(omega)^2; L - L0], length 3N + 3."""
    q = np.asarray(q, dtype=float)
    omega = np.asarray(omega, dtype=float)
    A = q.reshape(-1, 3)
    W = skew(omega)
    grad_U = -conservative_force(body, DeformationState(q, np.zeros_like(q)), material)
    res_q = grad_U + (body.S @ A @ (W @ W)).reshape(-1)
    v = equilibrium_velocity(body, q, omega)
    res_L = angular_momentum(body, DeformationState(q, v)) - np.asarray(L0, dtype=float)
    return np.concatenate([res_q, res_L])


def _momentum_jacobian(body: ReferenceBody, q: np.ndarray, v: np.ndarray):
    """(dL/dq, dL/dqdot) at (q, v), each (3, 3N); exact, L is bilinear.

    L = sum_a A_a x (S V)_a = sum_b (S A)_b x V_b with A, V the coefficient
    rows of q and v.
    """
    SA = body.S @ np.asarray(q, dtype=float).reshape(-1, 3)
    SV = body.S @ np.asarray(v, dtype=float).reshape(-1, 3)
    return np.hstack([-skew(x) for x in SV]), np.hstack([skew(x) for x in SA])


def equilibrium_jacobian(
    body: ReferenceBody,
    material: MaterialParams,
    q: np.ndarray,
    omega,
) -> np.ndarray:
    """Exact Jacobian of equilibrium_residual in (q, omega), shape (3N + 3, 3N + 3).

    The q block is potential_hessian + kron(S, W^2), the omega block
    S A d(W^2)/d omega, and the momentum rows follow from L being bilinear
    in (q, v) with v = A W^T.  L0 only shifts the residual.
    """
    q = np.asarray(q, dtype=float)
    omega = np.asarray(omega, dtype=float)
    A = q.reshape(-1, 3)
    W = skew(omega)
    dW = [skew(e) for e in np.eye(3)]
    Dq, Dv = _momentum_jacobian(body, q, equilibrium_velocity(body, q, omega))
    SA = body.S @ A
    return np.block([
        [potential_hessian(body, q, material) + np.kron(body.S, W @ W),
         np.column_stack([(SA @ (E @ W + W @ E)).reshape(-1) for E in dW])],
        [Dq + Dv @ np.kron(np.eye(A.shape[0]), W),
         Dv @ np.column_stack([(A @ E.T).reshape(-1) for E in dW])],
    ])


def synchronous_guess(body: ReferenceBody, material: MaterialParams, orbit_radius: float):
    """Rigid Keplerian seed: barycenter at (r, 0, 0), spin = orbit rate about z.

    Returns (state, omega).  The body axes start aligned with the space
    axes, so for a semi-axes-ordered ellipsoid the long axis points at
    the primary, which is the configuration the solver should refine.
    """
    if orbit_radius <= 0.0:
        raise InvalidParameterError("orbit radius must be positive")
    rate = np.sqrt(material.kM / orbit_radius**3)
    omega = np.array([0.0, 0.0, rate])
    c = np.array([orbit_radius, 0.0, 0.0])
    state = rigid_state(body, translation=c, velocity=np.cross(omega, c), spin=omega)
    return state, omega


@dataclass
class RelativeEquilibrium:
    """Converged critical point: coefficients, spin vector and audit data."""

    q: np.ndarray
    omega: np.ndarray
    L: np.ndarray
    residual_norm: float
    iterations: int
    energy: float
    augmented_energy: float
    orbit_radius: float
    residual_trace: list = field(default_factory=list)

    @property
    def state(self) -> DeformationState:
        return DeformationState(self.q.copy(), self.velocity.copy())

    @property
    def velocity(self) -> np.ndarray:
        A = self.q.reshape(-1, 3)
        return (A @ skew(self.omega).T).reshape(-1)


def _radius_from_momentum(body: ReferenceBody, material: MaterialParams, L_mag: float) -> float:
    """Circular-orbit radius whose Keplerian momentum matches |L0| (seed only)."""
    r = L_mag**2 / (body.mass**2 * material.kM)
    return max(r, 1.5 * body.mean_radius)


def solve_relative_equilibrium(
    body: ReferenceBody,
    material: MaterialParams,
    L0,
    state0: DeformationState | None = None,
    omega0=None,
    tol: float = 1e-12,
    max_iter: int = 80,
) -> RelativeEquilibrium:
    """Newton iteration with the exact Jacobian, a phase row and backtracking.

    L0 is the prescribed angular momentum.  A rigid Keplerian guess is
    built from |L0| when no seed is supplied.  Each step solves
    [J; T0] s = [-res; -T0 . (u - u0)] in the least-squares sense, with J
    from equilibrium_jacobian and T0 the unit tangent at the seed u0 of
    the rotation orbit about L0.  A line-search trial point outside the
    admissible set (det Dzeta <= 0 or a node at the planet) is rejected
    like a poor one.  Raises NoConvergenceError (with the residual trace
    attached) if the infinity norm of the residual does not reach tol
    within max_iter iterations, or if the line search stalls.
    """
    L0 = np.asarray(L0, dtype=float)
    if L0.shape != (3,) or not np.any(L0):
        raise InvalidParameterError("L0 must be a nonzero 3-vector")

    if state0 is None:
        r_seed = _radius_from_momentum(body, material, float(np.linalg.norm(L0)))
        state0, omega_seed = synchronous_guess(body, material, r_seed)
        axis = L0 / np.linalg.norm(L0)
        omega_seed = float(np.linalg.norm(omega_seed)) * axis
    else:
        omega_seed = None
    if omega0 is not None:
        omega_seed = np.asarray(omega0, dtype=float)
    if omega_seed is None:
        # spin rate implied by the seed state's own momentum budget
        omega_seed = L0 / max(np.linalg.norm(L0), 1.0)

    u = np.concatenate([state0.q, np.asarray(omega_seed, dtype=float)])
    nq = body.n_modes
    u0 = u.copy()
    N = skew(L0 / np.linalg.norm(L0))
    T0 = np.concatenate([(u0[:nq].reshape(-1, 3) @ N.T).reshape(-1), N @ u0[nq:]])
    T0 /= np.linalg.norm(T0)

    def residual(vec):
        return equilibrium_residual(body, material, vec[:nq], vec[nq:], L0)

    res = residual(u)
    norm = float(np.linalg.norm(res))
    trace = [norm]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if float(np.max(np.abs(res))) <= tol:
            break
        J = np.vstack([equilibrium_jacobian(body, material, u[:nq], u[nq:]), T0])
        rhs = np.append(-res, -T0 @ (u - u0))
        step = np.linalg.lstsq(J, rhs, rcond=None)[0]
        alpha = 1.0
        accepted = False
        while alpha >= 1e-6:
            u_try = u + alpha * step
            try:
                res_try = residual(u_try)
            except (SingularConfigurationError, ImpactProximityError):
                # a trial point outside the admissible set is rejected like a poor one
                alpha *= 0.5
                continue
            norm_try = float(np.linalg.norm(res_try))
            if norm_try <= (1.0 - 1e-4 * alpha) * norm or norm_try <= tol:
                u, res, norm = u_try, res_try, norm_try
                trace.append(norm)
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise NoConvergenceError(
                f"line search stalled at residual {norm:.3e}", residual_trace=trace
            )
    else:
        if float(np.max(np.abs(res))) > tol:
            raise NoConvergenceError(
                f"no convergence in {max_iter} iterations (residual {norm:.3e})",
                residual_trace=trace,
            )

    q_e = u[:nq]
    omega_e = u[nq:]
    v_e = equilibrium_velocity(body, q_e, omega_e)
    state_e = DeformationState(q_e.copy(), v_e)
    bd = energy_breakdown(body, state_e, material)
    return RelativeEquilibrium(
        q=q_e.copy(),
        omega=omega_e.copy(),
        L=bd.L.copy(),
        residual_norm=float(np.max(np.abs(res))),
        iterations=iterations,
        energy=float(bd.H),
        augmented_energy=float(bd.H - omega_e @ (bd.L - L0)),
        orbit_radius=float(np.linalg.norm(body.barycenter(q_e))),
        residual_trace=trace,
    )


@dataclass(frozen=True)
class NondegeneracyReport:
    """Spectrum of the augmented Hessian on ker dL modulo the rotation orbit."""

    eigenvalues: np.ndarray
    floor: float
    n_negative: int
    n_zero: int
    n_positive: int

    @property
    def nondegenerate(self) -> bool:
        return self.n_zero == 0


def nondegeneracy_spectrum(
    body: ReferenceBody,
    material: MaterialParams,
    eq: RelativeEquilibrium,
    floor_rel: float = 1e-8,
) -> NondegeneracyReport:
    """Restricted second-variation test of the augmented energy.

    Builds the exact full (q, v) Hessian of H - omega_e . L, with its q
    block from potential_hessian (the L0 shift is affine and drops out),
    restricts it to the kernel of dL at the
    equilibrium, projects out the tangent of the rotation orbit about
    L0, and reports the eigenvalue signature.  Eigenvalues with modulus
    below floor_rel times the spectral radius count as zero.
    """
    q = eq.q
    v = eq.velocity
    n = q.size
    M = mass_matrix(body)

    Hqq = potential_hessian(body, q, material)
    Rot = np.kron(np.eye(n // 3), skew(eq.omega))
    Hfull = np.block([[Hqq, -Rot.T @ M], [-M @ Rot, M]])
    Dq, Dv = _momentum_jacobian(body, q, v)

    axis = eq.L / np.linalg.norm(eq.L)
    E = skew(axis)
    T = np.concatenate([
        (q.reshape(-1, 3) @ E.T).reshape(-1),
        (v.reshape(-1, 3) @ E.T).reshape(-1),
    ])
    return _restricted_spectrum(Hfull, np.hstack([Dq, Dv]), T, floor_rel)


def _restricted_spectrum(H, dL, T, floor_rel) -> NondegeneracyReport:
    """Signature of the Hessian H on ker dL with the orbit tangent T projected out.

    Eigenvalues with modulus below floor_rel times the spectral radius
    count as zero.
    """
    K = null_space(dL)
    Hr = K.T @ H @ K
    t_k = K.T @ T
    if np.linalg.norm(t_k) > 1e-12 * max(1.0, np.linalg.norm(T)):
        Q = null_space(t_k.reshape(1, -1))
        Hp = Q.T @ Hr @ Q
    else:
        Hp = Hr

    eigenvalues = np.linalg.eigvalsh(Hp)
    floor = floor_rel * float(np.max(np.abs(eigenvalues)))
    return NondegeneracyReport(
        eigenvalues=eigenvalues,
        floor=floor,
        n_negative=int(np.sum(eigenvalues <= -floor)),
        n_zero=int(np.sum(np.abs(eigenvalues) < floor)),
        n_positive=int(np.sum(eigenvalues >= floor)),
    )


@dataclass(frozen=True)
class RigidBodyModel:
    """Rigid reduction of a reference body: mass and principal inertia frame."""

    mass: float
    principal_moments: np.ndarray   # ascending
    principal_axes: np.ndarray      # columns, reference coordinates

    @classmethod
    def from_body(cls, body: ReferenceBody) -> "RigidBodyModel":
        moments, axes = np.linalg.eigh(body.inertia_tensor())
        if np.linalg.det(axes) < 0.0:
            axes = axes.copy()
            axes[:, 2] = -axes[:, 2]
        return cls(mass=body.mass, principal_moments=moments, principal_axes=axes)

    @property
    def inertia(self) -> np.ndarray:
        P = self.principal_axes
        return P @ np.diag(self.principal_moments) @ P.T


@dataclass(frozen=True)
class RigidEquilibrium:
    """One axis-aligned rigid synchronous family at a fixed orbit radius."""

    rotation: np.ndarray
    barycenter: np.ndarray
    omega: np.ndarray
    spin_rate: float
    radial_axis: tuple      # (principal index, sign)
    normal_axis: tuple
    energy: float
    angular_momentum: np.ndarray
    res_force: np.ndarray
    res_torque: np.ndarray
    eigenvalues: np.ndarray
    n_negative: int
    n_zero: int
    n_positive: int

    @property
    def stable(self) -> bool:
        """Conditional (energetic) stability: definite restricted Hessian."""
        return self.n_negative == 0 and self.n_zero == 0


def _maccullagh_potential(c, I_s, mass, kM):
    r = np.linalg.norm(c)
    quad = np.trace(I_s) - 3.0 * (c @ I_s @ c) / r**2
    return -kM * mass / r - kM * quad / (2.0 * r**3)


def _rigid_momentum_jacobian(rigid, R0, c, v, w):
    """Analytic dL over the chart (c, theta, v, w) at theta = 0."""
    I_ref = rigid.inertia
    dL = np.zeros((3, 12))
    dL[:, 0:3] = -rigid.mass * skew(v)
    dL[:, 6:9] = rigid.mass * skew(c)
    dL[:, 9:12] = R0 @ I_ref @ R0.T
    for k in range(3):
        ek = skew(np.eye(3)[k])
        dIs = R0 @ (ek @ I_ref - I_ref @ ek) @ R0.T
        dL[:, 3 + k] = dIs @ w
    return dL


def _rigid_hessian(rigid, R0, c, omega, kM):
    """Exact Hessian of the augmented rigid energy over (c, theta, v, w) at theta = 0, w = omega.

    psi = m |v|^2/2 + w.I_s w/2 + U(c, I_s) - omega.(m c x v + I_s w - L0)
    with U the MacCullagh potential and I_s(theta) = R I_ref R^T for the
    attitude R = R0 exp(skew theta).  psi is linear in I_s, and to second
    order, with K = sum_k theta_k X_k and X_k = skew(R0 e_k),

        I_s(theta) = I_s + (K I_s - I_s K) + (K^2 I_s + I_s K^2)/2 - K I_s K + ...

    The theta-w block, (K I_s - I_s K)(w - omega), vanishes at w = omega.
    """
    m = rigid.mass
    I_s = R0 @ rigid.inertia @ R0.T
    r = float(np.linalg.norm(c))
    I3 = np.eye(3)
    Ic = I_s @ c
    cIc = float(c @ Ic)
    cc = np.outer(c, c)

    X = np.array([skew(R0[:, k]) for k in range(3)])
    D = X @ I_s - I_s @ X                                   # d I_s / d theta_k
    XX = np.einsum("kij,ljm->klim", X, X)
    XX = 0.5 * (XX + XX.transpose(1, 0, 2, 3))
    KJK = X[:, None] @ I_s @ X[None, :]
    Q = XX @ I_s + I_s @ XX - KJK - KJK.transpose(1, 0, 2, 3)   # d2 I_s / d theta_k d theta_l
    # psi = <I_s, G> + terms free of theta
    G = 1.5 * kM * cc / r**5 - 0.5 * np.outer(omega, omega)

    H = np.zeros((12, 12))
    H[0:3, 0:3] = (
        kM * m * (I3 / r**3 - 3.0 * cc / r**5)
        + kM * np.trace(I_s) * (1.5 * I3 / r**5 - 7.5 * cc / r**7)
        + 1.5 * kM * (2.0 * I_s / r**5 - 10.0 * (np.outer(Ic, c) + np.outer(c, Ic)) / r**7
                      - 5.0 * cIc * I3 / r**7 + 35.0 * cIc * cc / r**9)
    )
    H[0:3, 3:6] = 1.5 * kM * (2.0 * (D @ c).T / r**5 - 5.0 * np.outer(c, D @ c @ c) / r**7)
    H[3:6, 0:3] = H[0:3, 3:6].T
    H[0:3, 6:9] = m * skew(omega)
    H[6:9, 0:3] = H[0:3, 6:9].T
    H[3:6, 3:6] = np.einsum("klij,ij->kl", Q, G)
    H[6:9, 6:9] = m * I3
    H[9:12, 9:12] = I_s
    return H


def _rigid_spectrum(rigid, R0, c, omega, kM, floor_rel):
    v = np.cross(omega, c)
    I_s = R0 @ rigid.inertia @ R0.T
    L0 = rigid.mass * np.cross(c, v) + I_s @ omega
    H = _rigid_hessian(rigid, R0, c, omega, kM)
    dL = _rigid_momentum_jacobian(rigid, R0, c, v, omega)
    axis = L0 / np.linalg.norm(L0)
    T = np.concatenate([np.cross(axis, c), R0.T @ axis, np.cross(axis, v), np.cross(axis, omega)])
    return _restricted_spectrum(H, dL, T, floor_rel), L0


def rigid_quadrupole_catalog(
    body,
    material: MaterialParams,
    orbit_radius: float,
    degeneracy_tol: float = 1e-8,
    floor_rel: float = 1e-8,
) -> list:
    """All 24 axis-aligned rigid synchronous families at one orbit radius.

    A family points one principal axis (either sign) at the primary and
    another (either sign) along the orbit normal; the third is forced by
    orientation.  3 * 2 * 2 * 2 = 24.  The spin rate follows from the
    quadrupole-corrected radial balance

        omega^2 = kM / r^3 + 3 kM (tr I - 3 I_radial) / (2 m r^5).

    Raises DegenerateCatalogError when two principal moments coincide
    (the families stop being isolated).
    """
    rigid = RigidBodyModel.from_body(body) if isinstance(body, ReferenceBody) else body
    if orbit_radius <= 0.0:
        raise InvalidParameterError("orbit radius must be positive")
    moments = rigid.principal_moments
    scale = float(np.max(moments))
    gaps = [abs(moments[0] - moments[1]), abs(moments[1] - moments[2]),
            abs(moments[0] - moments[2])]
    if min(gaps) <= degeneracy_tol * scale:
        raise DegenerateCatalogError(
            f"principal moments {moments} are not pairwise distinct "
            f"(relative tolerance {degeneracy_tol:g})"
        )

    kM = material.kM
    m = rigid.mass
    r = orbit_radius
    trI = float(np.sum(moments))
    xhat, yhat, zhat = np.eye(3)
    entries = []
    for i in range(3):
        for s_r in (1, -1):
            for j in [k for k in range(3) if k != i]:
                for s_n in (1, -1):
                    k = 3 - i - j
                    X = np.empty((3, 3))
                    X[:, i] = s_r * xhat
                    X[:, j] = s_n * zhat
                    X[:, k] = yhat
                    R = X @ rigid.principal_axes.T
                    if np.linalg.det(R) < 0.0:
                        X[:, k] = -yhat
                        R = X @ rigid.principal_axes.T

                    I_rad = float(moments[i])
                    om2 = kM / r**3 + 3.0 * kM * (trI - 3.0 * I_rad) / (2.0 * m * r**5)
                    if om2 <= 0.0:
                        raise InvalidParameterError(
                            f"no real spin rate at radius {r:g} (omega^2 = {om2:.3e})"
                        )
                    rate = float(np.sqrt(om2))
                    omega = rate * zhat
                    c = r * xhat
                    v = np.cross(omega, c)
                    I_s = R @ rigid.inertia @ R.T

                    grad = (
                        kM * m * c / r**3
                        + 1.5 * kM * trI * c / r**5
                        + 3.0 * kM * (I_s @ c) / r**5
                        - 7.5 * kM * (c @ I_s @ c) * c / r**7
                    )
                    res_force = grad + m * np.cross(omega, np.cross(omega, c))
                    res_torque = 3.0 * kM * np.cross(c, I_s @ c) / r**5 - np.cross(
                        omega, I_s @ omega
                    )

                    report, L = _rigid_spectrum(rigid, R, c, omega, kM, floor_rel)
                    energy = (
                        0.5 * m * (v @ v)
                        + 0.5 * (omega @ I_s @ omega)
                        + _maccullagh_potential(c, I_s, m, kM)
                    )
                    entries.append(
                        RigidEquilibrium(
                            rotation=R,
                            barycenter=c,
                            omega=omega,
                            spin_rate=rate,
                            radial_axis=(i, s_r),
                            normal_axis=(j, s_n),
                            energy=float(energy),
                            angular_momentum=L,
                            res_force=res_force,
                            res_torque=res_torque,
                            eigenvalues=report.eigenvalues,
                            n_negative=report.n_negative,
                            n_zero=report.n_zero,
                            n_positive=report.n_positive,
                        )
                    )
    return entries
