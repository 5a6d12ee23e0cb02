"""Relative equilibria: Newton solver, nondegeneracy test, rigid catalog.

A relative equilibrium rotates rigidly at rate omega while every material
point balances gravity, elastic stress and the centrifugal field.  In
Galerkin coordinates it is a critical point of the augmented energy
H - omega . (L - L0) over the level set L = L0, so the solver works on
the closed system

    grad_q U(q) + S A skew(omega)^2 = 0,      L(q, v_e(q, omega)) = L0,

with v_e(q, omega) the rigid velocity field omega x zeta written in
coefficients.  A solve builds one force kernel and hands it to the
residual, which checks each trial point's admissibility once (through
conservative_force), and to the exact Jacobian of this system
(equilibrium_jacobian), whose potential block is -kernel.jacobian.  The
Jacobian is singular along the group orbit (rotations about L0), so each
step is a least-squares step with one more row, the phase condition
T0 . (u - u0) = 0 with T0 the orbit tangent at the seed u0: it pins where
on the orbit the solution lands.  The nondegeneracy spectrum takes the
same potential Hessian, and the rigid catalog a closed-form one, which it
evaluates for all 24 families as one stack: the spectrum helpers take
leading axes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

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
    force_kernel,
)
from .errors import (
    DegenerateCatalogError,
    ImpactProximityError,
    InvalidParameterError,
    NoConvergenceError,
    SingularConfigurationError,
)

# An eigenvalue of the restricted spectrum with modulus below _FLOOR_REL times
# the spectral radius counts as zero; principal moments closer than
# _DEGENERACY_TOL times the largest make the rigid catalog degenerate.
_FLOOR_REL = 1e-8
_DEGENERACY_TOL = 1e-8

log = logging.getLogger(__name__)


def equilibrium_velocity(q: np.ndarray, omega) -> np.ndarray:
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


def equilibrium_residual(kernel, q: np.ndarray, omega, L0) -> np.ndarray:
    """[grad_q U + S A skew(omega)^2; L - L0], length 3N + 3; raises where q is inadmissible."""
    body = kernel.body
    q = np.asarray(q, dtype=float)
    omega = np.asarray(omega, dtype=float)
    A = q.reshape(-1, 3)
    W = skew(omega)
    grad_U = -conservative_force(kernel, q)
    res_q = grad_U + (body.S @ A @ (W @ W)).reshape(-1)
    v = equilibrium_velocity(q, omega)
    res_L = angular_momentum(body, DeformationState(q, v)) - np.asarray(L0, dtype=float)
    return np.concatenate([res_q, res_L])


def _momentum_jacobian(body: ReferenceBody, q: np.ndarray, v: np.ndarray):
    """(dL/dq, dL/dqdot) at (q, v), each (3, 3N); exact, L is bilinear.

    L = sum_a A_a x (S V)_a = sum_b (S A)_b x V_b with A, V the coefficient
    rows of q and v.
    """
    SA = body.S @ np.asarray(q, dtype=float).reshape(-1, 3)
    SV = body.S @ np.asarray(v, dtype=float).reshape(-1, 3)
    # the skew blocks of the rows side by side, block b in columns 3b to 3b + 2
    return ((-skew(SV)).transpose(1, 0, 2).reshape(3, -1),
            skew(SA).transpose(1, 0, 2).reshape(3, -1))


# d skew(omega) / d omega_k, stacked along the first axis
_DW = skew(np.eye(3))
_DW.flags.writeable = False


def equilibrium_jacobian(kernel, q: np.ndarray, omega) -> np.ndarray:
    """Exact Jacobian of equilibrium_residual in (q, omega), shape (3N + 3, 3N + 3).

    The q block is the potentials' Hessian -kernel.jacobian + kron(S, W^2),
    the omega block S A d(W^2)/d omega, and the momentum rows follow from L
    being bilinear in (q, v) with v = A W^T.  L0 only shifts the residual.
    The blocks are computed whole and copied into one array.  q is not
    checked: Newton takes the Jacobian only where it took the residual.
    """
    body = kernel.body
    q = np.asarray(q, dtype=float)
    omega = np.asarray(omega, dtype=float)
    A = q.reshape(-1, 3)
    nm, n = A.shape[0], q.size
    W = skew(omega)
    Dq, Dv = _momentum_jacobian(body, q, equilibrium_velocity(q, omega))
    Hqq = -kernel.jacobian(q[None])
    # kron(S, W^2) added entry by entry: S_ab (W^2)_ij at (3a + i, 3b + j)
    Hqq.reshape(nm, 3, nm, 3)[...] += body.S[:, None, :, None] * (W @ W)[:, None, :]
    J = np.empty((n + 3, n + 3))
    J[:n, :n] = Hqq
    J[:n, n:] = (body.S @ A @ (_DW @ W + W @ _DW)).reshape(3, n).T
    J[n:, :n] = Dq + Dv @ np.kron(np.eye(nm), W)
    # a C-ordered right factor: BLAS rounds this product differently for a transposed one
    J[n:, n:] = Dv @ (A @ _DW.mT).reshape(3, n).T.copy()
    return J


def synchronous_guess(body: ReferenceBody, material: MaterialParams, orbit_radius: float):
    """Rigid Keplerian seed: barycenter at (r, 0, 0), spin = orbit rate about z.

    Returns (state, omega).  The body axes start aligned with the space
    axes, so for a semi-axes-ordered ellipsoid the long axis points at
    the primary, which is the configuration the solver should refine.
    """
    if not orbit_radius > 0.0:
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
        return equilibrium_velocity(self.q, self.omega)


# Below this |J^T r| / (|J| |r|), Newton's iterate is taken for a
# stationary point of the residual norm (see _stationarity_note).  On the
# triaxial body at r = 2.5 with seed noise 0.25, the two stops at
# |r| ~ 2.3e-6 give 9.1e-10 and 1.7e-2, and the stops far from any root
# (|r| 0.04-0.16, stalled or out of iterations) give 0.41 to 0.99.
_STATIONARY_RATIO = 0.05


def _stationarity_note(J: np.ndarray, r: np.ndarray) -> str:
    """Suffix for NoConvergenceError naming a stationary point of |r| that is not a root.

    g = J^T r is the gradient of |r|^2 / 2 on Newton's system (phase row
    included). Where |g| is tiny next to |J| |r| (J's spectral norm), no
    step can reduce |r| to first order, so backtracking or more iterations
    cannot help.
    """
    ratio = float(np.linalg.norm(J.T @ r) / (np.linalg.norm(J, 2) * np.linalg.norm(r)))
    if ratio >= _STATIONARY_RATIO:
        return ""
    return f": stationary point of the residual norm, not a root (|J^T r| / (|J| |r|) = {ratio:.1e})"


def solve_relative_equilibrium(
    body: ReferenceBody,
    material: MaterialParams,
    L0,
    state0: DeformationState,
    omega0,
    tol: float = 1e-12,
    max_iter: int = 80,
) -> RelativeEquilibrium:
    """Newton iteration with the exact Jacobian, a phase row and backtracking.

    L0 is the prescribed angular momentum; Newton starts from the caller's
    seed, the state state0 (of which only q is read) and the spin omega0.
    Each step solves
    [J; T0] s = [-res; -T0 . (u - u0)] in the least-squares sense, with J
    from equilibrium_jacobian and T0 the unit tangent at the seed u0 of
    the rotation orbit about L0.  A line-search trial point outside the
    admissible set (det Dzeta <= 0 or a node at the planet) is rejected
    like a poor one.  Raises NoConvergenceError (with the residual trace
    attached) if the infinity norm of the residual does not reach tol
    within max_iter iterations, or if the line search stalls.  At debug
    level every iteration logs its residual and step norms, each step cut
    and the accepted step.
    """
    L0 = np.asarray(L0, dtype=float)
    if L0.shape != (3,) or not np.any(L0):
        raise InvalidParameterError("L0 must be a nonzero 3-vector")

    u = np.concatenate([state0.q, np.asarray(omega0, dtype=float)])
    nq = body.n_modes
    u0 = u.copy()
    N = skew(L0 / np.linalg.norm(L0))
    T0 = np.concatenate([(u0[:nq].reshape(-1, 3) @ N.T).reshape(-1), N @ u0[nq:]])
    T0 /= np.linalg.norm(T0)
    kernel = force_kernel(body, material)

    def residual(vec):
        return equilibrium_residual(kernel, vec[:nq], vec[nq:], L0)

    def linearization(vec, res_vec):
        """Newton's least-squares system at vec: [J; T0] and [-res; -T0 . (vec - u0)]."""
        J = np.vstack([equilibrium_jacobian(kernel, vec[:nq], vec[nq:]), T0])
        return J, np.append(-res_vec, -T0 @ (vec - u0))

    debug = log.isEnabledFor(logging.DEBUG)  # the step norm is taken for the log alone
    res = residual(u)
    norm = float(np.linalg.norm(res))
    trace = [norm]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if float(np.max(np.abs(res))) <= tol:
            break
        J, rhs = linearization(u, res)
        step = np.linalg.lstsq(J, rhs, rcond=None)[0]
        if debug:
            log.debug("Newton iteration %d: |res| %.3e, |step| %.3e",
                      iterations, norm, np.linalg.norm(step))
        alpha = 1.0
        accepted = False
        while alpha >= 1e-6:
            u_try = u + alpha * step
            try:
                res_try = residual(u_try)
            except (SingularConfigurationError, ImpactProximityError) as exc:
                # a trial point outside the admissible set is rejected like a poor one
                if debug:
                    log.debug("Newton iteration %d: step cut at alpha %g, trial point "
                              "inadmissible (%s)", iterations, alpha, exc)
                alpha *= 0.5
                continue
            norm_try = float(np.linalg.norm(res_try))
            if norm_try <= (1.0 - 1e-4 * alpha) * norm or norm_try <= tol:
                u, res, norm = u_try, res_try, norm_try
                trace.append(norm)
                accepted = True
                if debug:
                    log.debug("Newton iteration %d: accepted alpha %g, |res| %.3e",
                              iterations, alpha, norm)
                break
            if debug:
                log.debug("Newton iteration %d: step cut at alpha %g, trial |res| %.3e, "
                          "no sufficient decrease from %.3e",
                          iterations, alpha, norm_try, norm)
            alpha *= 0.5
        if not accepted:
            raise NoConvergenceError(
                f"line search stalled at residual {norm:.3e}{_stationarity_note(J, rhs)}",
                residual_trace=trace,
            )
    else:
        if float(np.max(np.abs(res))) > tol:
            raise NoConvergenceError(
                f"no convergence in {max_iter} iterations (residual {norm:.3e})"
                f"{_stationarity_note(*linearization(u, res))}",
                residual_trace=trace,
            )

    q_e = u[:nq]
    omega_e = u[nq:]
    v_e = equilibrium_velocity(q_e, omega_e)
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
    """Spectrum of the augmented Hessian on ker dL modulo the rotation orbit.

    The fields of a report on a stack of Hessians carry its leading axes;
    report[index] is the report of one Hessian, with a float floor and
    int counts (report[()] for a report of one).
    """

    eigenvalues: np.ndarray
    floor: float
    n_negative: int
    n_zero: int
    n_positive: int

    @property
    def nondegenerate(self) -> bool:
        return self.n_zero == 0

    def __getitem__(self, index) -> "NondegeneracyReport":
        return NondegeneracyReport(
            eigenvalues=self.eigenvalues[index],
            floor=float(self.floor[index]),
            n_negative=int(self.n_negative[index]),
            n_zero=int(self.n_zero[index]),
            n_positive=int(self.n_positive[index]),
        )


def nondegeneracy_spectrum(
    body: ReferenceBody,
    material: MaterialParams,
    eq: RelativeEquilibrium,
) -> NondegeneracyReport:
    """Restricted second-variation test of the augmented energy.

    Builds the exact full (q, v) Hessian of H - omega_e . L, with its q
    block -force_kernel(body, material).jacobian at eq.q, solved and so not
    checked again (the L0 shift is affine and drops out), restricts it to
    the kernel of dL at the equilibrium, projects out the tangent of the
    rotation orbit about L0, and reports the eigenvalue signature.
    Eigenvalues with modulus below _FLOOR_REL times the spectral radius
    count as zero.
    """
    q = eq.q
    v = eq.velocity
    n = q.size
    M = mass_matrix(body)

    Hqq = -force_kernel(body, material).jacobian(q[None])
    Rot = np.kron(np.eye(n // 3), skew(eq.omega))
    Hfull = np.block([[Hqq, -Rot.T @ M], [-M @ Rot, M]])
    Dq, Dv = _momentum_jacobian(body, q, v)

    axis = eq.L / np.linalg.norm(eq.L)
    E = skew(axis)
    T = np.concatenate([
        (q.reshape(-1, 3) @ E.T).reshape(-1),
        (v.reshape(-1, 3) @ E.T).reshape(-1),
    ])
    return _restricted_spectrum(Hfull, np.hstack([Dq, Dv]), T)[()]


def _null_space(A):
    """Orthonormal bases of ker A, as columns, for a stack A (..., m, n) of matrices of one rank.

    scipy.linalg.null_space's rule, matrix by matrix: the right singular
    vectors whose singular values are at most eps max(m, n) times the
    largest span the kernel. The bases are C-ordered, as scipy's are:
    BLAS rounds products with a transposed factor differently.
    """
    _, s, vh = np.linalg.svd(A)
    tol = np.max(s, axis=-1) * (np.finfo(float).eps * max(A.shape[-2:]))
    rank = np.sum(s > tol[..., None], axis=-1)
    if np.ptp(rank) > 0:
        raise ValueError(f"matrices of ranks {np.unique(rank)} in one stack: no common kernel size")
    return np.ascontiguousarray(vh[..., int(np.max(rank)):, :].mT)


def _restricted_spectrum(H, dL, T) -> NondegeneracyReport:
    """Signature of the Hessian H on ker dL with the orbit tangent T projected out.

    H (..., n, n), dL (..., m, n) and T (..., n) may carry leading axes,
    and the report carries them too. Eigenvalues with modulus below
    _FLOOR_REL times the spectral radius count as zero. Every dL of a stack
    must have the same rank, and T must have a part in ker dL for all of
    them or for none.
    """
    K = _null_space(dL)
    Hr = K.mT @ H @ K
    t_k = (K.mT @ T[..., None])[..., 0]
    project = np.sqrt(np.vecdot(t_k, t_k)) > 1e-12 * np.maximum(1.0, np.sqrt(np.vecdot(T, T)))
    if np.all(project):
        Q = _null_space(t_k[..., None, :])
        Hr = Q.mT @ Hr @ Q
    elif np.any(project):
        raise ValueError("the orbit tangent leaves ker dL for some matrices of the stack only")

    eigenvalues = np.linalg.eigvalsh(Hr)
    floor = _FLOOR_REL * np.max(np.abs(eigenvalues), axis=-1)
    below = floor[..., None]
    return NondegeneracyReport(
        eigenvalues=eigenvalues,
        floor=floor,
        n_negative=np.sum(eigenvalues <= -below, axis=-1),
        n_zero=np.sum(np.abs(eigenvalues) < below, axis=-1),
        n_positive=np.sum(eigenvalues >= below, axis=-1),
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
    """One axis-aligned rigid synchronous family at a fixed orbit radius.

    spectrum is the family's restricted spectrum, the report that
    classifies it.
    """

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
    spectrum: NondegeneracyReport

    @property
    def stable(self) -> bool:
        """Conditional (energetic) stability: a nondegenerate spectrum with no negative value."""
        return self.spectrum.nondegenerate and self.spectrum.n_negative == 0


# The rigid helpers below take leading axes on R0, c and the velocities,
# broadcast against each other, and return one value per family.


def _float_powers(r, *exponents):
    """[r**e for e in exponents], entry by entry in Python floats.

    numpy's power on float64 arrays may round some entries differently
    from the C library's pow behind Python's **, so a stack of families
    would not reproduce the one-family numbers.
    """
    values = np.ravel(r).tolist()
    return [np.reshape([x**e for x in values], np.shape(r)) for e in exponents]


def _maccullagh_potential(c, I_s, mass, kM):
    r = np.sqrt(np.vecdot(c, c))
    r2, r3 = _float_powers(r, 2, 3)
    quad = np.trace(I_s, axis1=-2, axis2=-1) - 3.0 * np.vecdot(c @ I_s, c) / r2
    return -kM * mass / r - kM * quad / (2.0 * r3)


def _rigid_momentum_jacobian(rigid, R0, c, v, w):
    """Analytic dL over the chart (c, theta, v, w) at theta = 0, shape (..., 3, 12)."""
    I_ref = rigid.inertia
    lead = np.broadcast_shapes(R0.shape[:-2], c.shape[:-1], v.shape[:-1], w.shape[:-1])
    dL = np.zeros(lead + (3, 12))
    dL[..., 0:3] = -rigid.mass * skew(v)
    dL[..., 6:9] = rigid.mass * skew(c)
    dL[..., 9:12] = R0 @ I_ref @ R0.mT
    # d I_s / d theta_k = R0 (E_k I_ref - I_ref E_k) R0^T, E_k = skew(e_k), along axis -3
    dIs = R0[..., None, :, :] @ (_DW @ I_ref - I_ref @ _DW) @ R0.mT[..., None, :, :]
    dL[..., 3:6] = (dIs @ w[..., None, :, None])[..., 0].mT
    return dL


def _rigid_hessian(rigid, R0, c, omega, kM):
    """Exact Hessian of the augmented rigid energy over (c, theta, v, w) at theta = 0, w = omega.

    psi = m |v|^2/2 + w.I_s w/2 + U(c, I_s) - omega.(m c x v + I_s w - L0)
    with U the MacCullagh potential and I_s(theta) = R I_ref R^T for the
    attitude R = R0 exp(skew theta).  psi is linear in I_s, and to second
    order, with K = sum_k theta_k X_k and X_k = skew(R0 e_k),

        I_s(theta) = I_s + (K I_s - I_s K) + (K^2 I_s + I_s K^2)/2 - K I_s K + ...

    The theta-w block, (K I_s - I_s K)(w - omega), vanishes at w = omega.
    H has shape (..., 12, 12).
    """
    m = rigid.mass
    I_s = R0 @ rigid.inertia @ R0.mT
    r = np.sqrt(np.vecdot(c, c))
    r3, r5, r7, r9 = (p[..., None, None] for p in _float_powers(r, 3, 5, 7, 9))
    I3 = np.eye(3)
    Ic = (I_s @ c[..., None])[..., 0]
    cIc = np.vecdot(c, Ic)[..., None, None]
    cc = c[..., :, None] * c[..., None, :]

    X = skew(R0.mT)                                         # X[..., k, :, :]
    D = X @ I_s[..., None, :, :] - I_s[..., None, :, :] @ X   # d I_s / d theta_k
    XX = np.einsum("...kij,...ljm->...klim", X, X)
    XX = 0.5 * (XX + XX.swapaxes(-4, -3))
    Is = I_s[..., None, None, :, :]
    KJK = X[..., :, None, :, :] @ Is @ X[..., None, :, :, :]
    Q = XX @ Is + Is @ XX - KJK - KJK.swapaxes(-4, -3)     # d2 I_s / d theta_k d theta_l
    # psi = <I_s, G> + terms free of theta
    G = 1.5 * kM * cc / r5 - 0.5 * (omega[..., :, None] * omega[..., None, :])
    Dc = (D @ c[..., None, :, None])[..., 0]                # (D_k c)_i at [..., k, i]
    Dcc = (Dc @ c[..., :, None])[..., 0]

    H = np.zeros(np.broadcast_shapes(I_s.shape[:-2], c.shape[:-1], omega.shape[:-1]) + (12, 12))
    H[..., 0:3, 0:3] = (
        kM * m * (I3 / r3 - 3.0 * cc / r5)
        + kM * np.trace(I_s, axis1=-2, axis2=-1)[..., None, None] * (1.5 * I3 / r5 - 7.5 * cc / r7)
        + 1.5 * kM * (2.0 * I_s / r5 - 10.0 * (Ic[..., :, None] * c[..., None, :]
                                               + c[..., :, None] * Ic[..., None, :]) / r7
                      - 5.0 * cIc * I3 / r7 + 35.0 * cIc * cc / r9)
    )
    H[..., 0:3, 3:6] = 1.5 * kM * (2.0 * Dc.mT / r5
                                   - 5.0 * (c[..., :, None] * Dcc[..., None, :]) / r7)
    H[..., 3:6, 0:3] = H[..., 0:3, 3:6].mT
    H[..., 0:3, 6:9] = m * skew(omega)
    H[..., 6:9, 0:3] = H[..., 0:3, 6:9].mT
    H[..., 3:6, 3:6] = np.einsum("...klij,...ij->...kl", Q, G)
    H[..., 6:9, 6:9] = m * I3
    H[..., 9:12, 9:12] = I_s
    return H


def rigid_quadrupole_catalog(
    body: ReferenceBody,
    material: MaterialParams,
    orbit_radius: float,
) -> list:
    """All 24 axis-aligned rigid synchronous families at one orbit radius.

    A family points one principal axis (either sign) at the primary and
    another (either sign) along the orbit normal; the third is forced by
    orientation.  3 * 2 * 2 * 2 = 24.  The spin rate follows from the
    quadrupole-corrected radial balance

        omega^2 = kM / r^3 + 3 kM (tr I - 3 I_radial) / (2 m r^5).

    The families are picked one by one and then evaluated as one stack:
    residuals, energies, momenta and the restricted spectra.  Raises
    DegenerateCatalogError when two principal moments coincide (the
    families stop being isolated).
    """
    rigid = RigidBodyModel.from_body(body)
    if not orbit_radius > 0.0:
        raise InvalidParameterError("orbit radius must be positive")
    moments = rigid.principal_moments
    scale = float(np.max(moments))
    gaps = [abs(moments[0] - moments[1]), abs(moments[1] - moments[2]),
            abs(moments[0] - moments[2])]
    if min(gaps) <= _DEGENERACY_TOL * scale:
        raise DegenerateCatalogError(
            f"principal moments {moments} are not pairwise distinct "
            f"(relative tolerance {_DEGENERACY_TOL:g})"
        )

    kM = material.kM
    m = rigid.mass
    r = orbit_radius
    trI = float(np.sum(moments))
    xhat, yhat, zhat = np.eye(3)
    axes, rotations, rates = [], [], []
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
                    axes.append(((i, s_r), (j, s_n)))
                    rotations.append(R)
                    rates.append(float(np.sqrt(om2)))

    # every family at once, along the first axis; c is common to all
    R = np.array(rotations)
    omega = np.array(rates)[:, None] * zhat
    c = r * xhat
    v = np.cross(omega, c)
    I_s = R @ rigid.inertia @ R.mT
    Ic = (I_s @ c[:, None])[..., 0]
    grad = (
        kM * m * c / r**3
        + 1.5 * kM * trI * c / r**5
        + 3.0 * kM * Ic / r**5
        - 7.5 * kM * np.vecdot(c @ I_s, c)[:, None] * c / r**7
    )
    res_force = grad + m * np.cross(omega, np.cross(omega, c))
    I_omega = (I_s @ omega[..., None])[..., 0]
    res_torque = 3.0 * kM * np.cross(c, Ic) / r**5 - np.cross(omega, I_omega)
    energy = (
        0.5 * m * np.vecdot(v, v)
        + 0.5 * np.vecdot((omega[:, None] @ I_s)[:, 0], omega)
        + _maccullagh_potential(c, I_s, m, kM)
    )
    L = m * np.cross(c, v) + I_omega
    H = _rigid_hessian(rigid, R, c, omega, kM)
    dL = _rigid_momentum_jacobian(rigid, R, c, v, omega)
    axis = L / np.sqrt(np.vecdot(L, L))[:, None]
    T = np.concatenate([np.cross(axis, c), (R.mT @ axis[..., None])[..., 0],
                        np.cross(axis, v), np.cross(axis, omega)], axis=-1)
    report = _restricted_spectrum(H, dL, T)

    return [
        RigidEquilibrium(
            rotation=R[f],
            barycenter=c.copy(),
            omega=omega[f],
            spin_rate=rates[f],
            radial_axis=radial_axis,
            normal_axis=normal_axis,
            energy=float(energy[f]),
            angular_momentum=L[f],
            res_force=res_force[f],
            res_torque=res_torque[f],
            spectrum=report[f],
        )
        for f, (radial_axis, normal_axis) in enumerate(axes)
    ]
