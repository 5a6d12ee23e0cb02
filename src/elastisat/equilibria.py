"""Relative equilibria: Newton solver, nondegeneracy test, rigid catalog.

A relative equilibrium rotates rigidly at rate omega while every material
point balances gravity, elastic stress and the centrifugal field.  In
Galerkin coordinates it is a critical point of the augmented energy
H - omega . (L - L0) over the level set L = L0, so the solver works on
the closed system

    grad_q U(q) + S A skew(omega)^2 = 0,      L(q, v_e(q, omega)) = L0,

with v_e(q, omega) the rigid velocity field omega x zeta written in
coefficients.  The Jacobian is singular along the group orbit (rotations
about L0), so Newton steps are least-squares steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, null_space

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


def potential_gradient(body: ReferenceBody, material: MaterialParams, q: np.ndarray) -> np.ndarray:
    """grad_q of the total potential (gravity + elastic + self-gravity)."""
    state = DeformationState(np.asarray(q, dtype=float), np.zeros_like(q))
    return -conservative_force(body, state, material)


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
    res_q = potential_gradient(body, material, q) + (body.S @ A @ (W @ W)).reshape(-1)
    v = equilibrium_velocity(body, q, omega)
    res_L = angular_momentum(body, DeformationState(q, v)) - np.asarray(L0, dtype=float)
    return np.concatenate([res_q, res_L])


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
    fd_step: float = 1e-6,
) -> RelativeEquilibrium:
    """Newton iteration with least-squares steps and backtracking.

    L0 is the prescribed angular momentum.  A rigid Keplerian guess is
    built from |L0| when no seed is supplied.  Raises NoConvergenceError
    (with the residual trace attached) if the infinity norm of the
    residual does not reach tol, or if the finite-difference stencil
    leaves the admissible set (det Dzeta <= 0 or a node at the planet).
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

    def residual(vec):
        return equilibrium_residual(body, material, vec[:nq], vec[nq:], L0)

    res = residual(u)
    norm = float(np.linalg.norm(res))
    trace = [norm]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if float(np.max(np.abs(res))) <= tol:
            break
        J = np.empty((res.size, u.size))
        for j in range(u.size):
            h = fd_step * max(1.0, abs(u[j]))
            up = u.copy()
            um = u.copy()
            up[j] += h
            um[j] -= h
            try:
                J[:, j] = (residual(up) - residual(um)) / (2.0 * h)
            except (SingularConfigurationError, ImpactProximityError) as exc:
                raise NoConvergenceError(
                    f"Jacobian stencil left the admissible set: {exc}", residual_trace=trace
                ) from exc
        step = np.linalg.lstsq(J, -res, rcond=None)[0]
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
    fd_step: float = 1e-6,
) -> NondegeneracyReport:
    """Restricted second-variation test of the augmented energy.

    Builds the full (q, v) Hessian of H - omega_e . L (the L0 shift is
    affine and drops out), restricts it to the kernel of dL at the
    equilibrium, projects out the tangent of the rotation orbit about
    L0, and reports the eigenvalue signature.  Eigenvalues with modulus
    below floor_rel times the spectral radius count as zero.
    """
    q = eq.q
    v = eq.velocity
    n = q.size
    M = mass_matrix(body)

    Hqq = np.empty((n, n))
    for j in range(n):
        h = fd_step * max(1.0, abs(q[j]))
        qp = q.copy()
        qm = q.copy()
        qp[j] += h
        qm[j] -= h
        Hqq[:, j] = (
            potential_gradient(body, material, qp) - potential_gradient(body, material, qm)
        ) / (2.0 * h)
    Hqq = 0.5 * (Hqq + Hqq.T)

    Rot = np.kron(np.eye(n // 3), skew(eq.omega))
    Hfull = np.block([[Hqq, -Rot.T @ M], [-M @ Rot, M]])

    # dL is bilinear, so its columns are exact momentum evaluations.
    Dq = np.empty((3, n))
    Dv = np.empty((3, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        Dq[:, j] = angular_momentum(body, DeformationState(e, v))
        Dv[:, j] = angular_momentum(body, DeformationState(q, e))

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


def _rigid_energy(u, rigid, R0, kM, L0, omega_e):
    c, th, v, w = u[0:3], u[3:6], u[6:9], u[9:12]
    R = R0 @ expm(skew(th))
    I_s = R @ rigid.inertia @ R.T
    L = rigid.mass * np.cross(c, v) + I_s @ w
    K = 0.5 * rigid.mass * (v @ v) + 0.5 * (w @ I_s @ w)
    return K + _maccullagh_potential(c, I_s, rigid.mass, kM) - omega_e @ (L - L0)


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


def _rigid_spectrum(rigid, R0, c, omega, kM, floor_rel, fd_step=1e-5):
    v = np.cross(omega, c)
    I_s = R0 @ rigid.inertia @ R0.T
    L0 = rigid.mass * np.cross(c, v) + I_s @ omega
    u0 = np.concatenate([c, np.zeros(3), v, omega])

    def psi(u):
        return _rigid_energy(u, rigid, R0, kM, L0, omega)

    n = 12
    H = np.empty((n, n))
    base = psi(u0)
    hs = fd_step * np.maximum(1.0, np.abs(u0))
    for i in range(n):
        for j in range(i, n):
            hi, hj = hs[i], hs[j]
            if i == j:
                up = u0.copy(); up[i] += hi
                um = u0.copy(); um[i] -= hi
                H[i, i] = (psi(up) - 2.0 * base + psi(um)) / hi**2
            else:
                upp = u0.copy(); upp[i] += hi; upp[j] += hj
                upm = u0.copy(); upm[i] += hi; upm[j] -= hj
                ump = u0.copy(); ump[i] -= hi; ump[j] += hj
                umm = u0.copy(); umm[i] -= hi; umm[j] -= hj
                H[i, j] = H[j, i] = (psi(upp) - psi(upm) - psi(ump) + psi(umm)) / (4.0 * hi * hj)

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
