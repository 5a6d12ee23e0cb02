"""Equations of motion in Galerkin coordinates and their time integration.

The reduced system is M qddot = f(q) - g(q, qdot) with the constant mass
matrix M = kron(S, I3), whose Gram inverse the body tabulates once.
f - g comes from energetics.force_kernel, the one force kernel: f is the
exact gradient force of the conservative potentials and g the viscous
force. The right-hand side is built once per run (_rhs): it holds one
kernel and the inverse Gram matrix, and each call passes the stacked
(q, qdot) to the kernel and solves the mass matrix with one product into
the stage row the integrator hands it. The integrator is the program's
own DOP853 loop (dop853.solve_ivp, bit for bit scipy's solve_ivp with
method DOP853), so no command loads scipy. A run ends where one of three
gaps closes: the closest node's distance above the impact radius, the
escape ceiling above the barycenter's distance, and the smallest det
Dzeta over the distinct node gradients (the singular state itself has no
monitors and is not recorded). Every gap must be positive at the start.
The gap that closes and each run's step counts are logged at debug
level.
Trajectories are columnar, one row per sample: the conservative budget,
the dissipation rate and rigidity diagnostic, and the spin, orbital rate
and comoving planet offset the classifier reads. They are built in one
pass, each monitor evaluated on the stack of states. The spin fit and the
comoving frame are moments of the coefficient rows in the Gram matrix, so
only gravity and the pointwise checks read the full-rule nodes, and
regularity is checked once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .body_model import (DeformationState, ReferenceBody, _rows, det3, identity_coefficients,
                         inertia, require_regular)
from .dissipation import ViscosityParams, dissipation_rate, max_cauchy_green_rate
from .dop853 import MIN_RTOL, solve_ivp
from .energetics import (EnergyBreakdown, MaterialParams, angular_momentum, energy_breakdown,
                         force_kernel)
from .errors import InvalidParameterError

MONITOR_COLUMNS = (
    "t", "K", "U_g", "U_sg", "U_e", "H",
    "Lx", "Ly", "Lz", "diss_rate", "Cdot_max", "Y_norm", "omega_norm",
)

_METHODS = ("dop853",)

# (termination tag, reason) of each gap of _termination_events, in its order
_TERMINATIONS = (
    ("impact-detected", "impact radius reached"),
    ("escape-detected", "escape ceiling crossed"),
    ("step-failure", "configuration became singular (det Dzeta -> 0)"),
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IntegratorSettings:
    """Time-integration controls.

    method: the integration scheme; 'dop853' (adaptive embedded RK, order
        8, run by dop853.solve_ivp) is the one method.
    rel_tol: at least 100 machine epsilons (dop853.MIN_RTOL, about
        2.2e-14), the smallest the step control is meant for; abs_tol > 0.
    impact_radius: terminate when any material point gets this close to
        the planet; escape_radius: hard ceiling on the barycenter distance
        that stops runaway runs (classification happens downstream).
        Every number is positive (NaN fails), t_end and record_every are
        finite, and escape_radius exceeds impact_radius.
    """

    method: str = "dop853"
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    t_end: float = 1.0
    max_step: float = np.inf
    record_every: float | None = None
    impact_radius: float = 1e-2
    escape_radius: float = 1e3

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InvalidParameterError(f"unknown integrator method {self.method!r}")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise InvalidParameterError("tolerances must be positive")
        if not self.rel_tol >= MIN_RTOL:
            raise InvalidParameterError(f"rel_tol must be at least {MIN_RTOL:.6g} "
                                        f"(100 machine epsilons), got {self.rel_tol!r}")
        if not 0 < self.t_end < np.inf:
            raise InvalidParameterError("t_end must be positive and finite")
        if self.record_every is not None and not 0 < self.record_every < np.inf:
            raise InvalidParameterError("record_every must be positive and finite")
        if not self.max_step > 0:
            raise InvalidParameterError("max_step must be positive")
        if not self.impact_radius > 0:
            raise InvalidParameterError("impact_radius must be positive")
        if not self.escape_radius > self.impact_radius:
            raise InvalidParameterError("escape_radius must exceed impact_radius")

    @property
    def sample_interval(self) -> float:
        return self.record_every if self.record_every is not None else self.t_end / 500.0


@dataclass
class Trajectory:
    """Recorded integration output, one column per quantity, and the termination.

    Row i of every array is sample i: the state (q_history[i],
    qdot_history[i]); the conservative budget (monitors, one
    EnergyBreakdown of (n,) columns and an (n, 3) L); the two monitors of
    dissipation.py, the rate dissipation_rate[i] and the sup-node
    Cauchy-Green rate cdot_max[i]; the comoving planet offset Y[i] of
    comoving_decomposition; and the spin and orbital angular velocities
    omega_spin[i], omega_orbit[i] of instantaneous_spin.  nfev counts the integrator's
    right-hand-side evaluations over the whole run, the three dense-output
    stages of each step that records a sample or locates an event
    included; njev counts Jacobian evaluations, 0 for DOP853.
    """

    times: np.ndarray
    q_history: np.ndarray         # (n, 3N)
    qdot_history: np.ndarray      # (n, 3N)
    monitors: EnergyBreakdown     # (n,) columns, L (n, 3)
    dissipation_rate: np.ndarray  # (n,)
    cdot_max: np.ndarray          # (n,)
    Y: np.ndarray                 # (n, 3)
    omega_spin: np.ndarray        # (n, 3)
    omega_orbit: np.ndarray       # (n, 3)
    termination: str              # completed | impact-detected | escape-detected | step-failure
    termination_reason: str = ""
    nfev: int = 0
    njev: int = 0

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> DeformationState:
        return DeformationState(self.q_history[i].copy(), self.qdot_history[i].copy())

    @property
    def final_state(self) -> DeformationState:
        return self.state(len(self.times) - 1)

    def tail(self, t_from: float) -> "Trajectory":
        """Sub-trajectory with times >= t_from (shared termination tag)."""
        return _take_rows(self, np.nonzero(self.times >= t_from)[0])

    def monitor_rows(self) -> np.ndarray:
        """Monitor table in the frozen MONITOR_COLUMNS order, shape (n, 13)."""
        mon = self.monitors
        return np.column_stack([
            self.times, mon.K, mon.U_g, mon.U_sg, mon.U_e, mon.H, mon.L, self.dissipation_rate,
            self.cdot_max, row_norms(self.Y), row_norms(self.omega_spin),
        ])


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of X (n, 3), equal to np.linalg.norm of each row alone."""
    return np.sqrt(np.vecdot(X, X))


def _take_rows(record, idx):
    """Copy of a columnar record with the rows idx of every array, nested records included."""
    rows = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            rows[f.name] = value[idx]
        elif is_dataclass(value):
            rows[f.name] = _take_rows(value, idx)
    return replace(record, **rows)


def _rhs(body: ReferenceBody, material: MaterialParams, viscosity: ViscosityParams):
    """The right-hand side rhs(t, y, out=None) of the first-order system, set up once per run.

    y = (q, qdot), shape (2 * 3N,); rhs writes (qdot, M^-1 (f - g)) into
    out, the stage row the integrator hands it, and returns it. Without
    out it returns a fresh array on every call.
    """
    kernel = force_kernel(body, material, viscosity.eta)
    nq = body.n_modes
    S_inv = body.S_inv

    def rhs(t, y, out=None):
        ydot = np.empty_like(y) if out is None else out
        ydot[:nq] = y[nq:]
        # solve_mass: one product with the inverse Gram matrix, into ydot
        np.matmul(S_inv, kernel(y.reshape(2, nq)), out=ydot[nq:].reshape(-1, 3))
        return ydot

    return rhs


def equations_of_motion(
    body: ReferenceBody,
    state: DeformationState,
    material: MaterialParams,
    viscosity: ViscosityParams = ViscosityParams(0.0),
):
    """(qdot, qddot) of the reduced system M qddot = f_conservative - g_viscous."""
    require_regular(body, state)
    ydot = _rhs(body, material, viscosity)(0.0, np.concatenate([state.q, state.qdot]))
    return ydot[:body.n_modes], ydot[body.n_modes:]


def _about_barycenter(body: ReferenceBody, q: np.ndarray) -> np.ndarray:
    """Coefficients (..., 3N) of zeta - c, c the barycenter: the constant monomial's row less c."""
    q_c = q.copy()
    q_c[..., :3] -= body.barycenter(q)
    return q_c


def instantaneous_spin(body: ReferenceBody, state: DeformationState):
    """Best-fit rigid angular velocity about the barycenter and the orbital rate.

    Returns (omega_spin, omega_orbit), each (..., 3) for a state of leading
    shape (...). omega_spin fits zetadot ~ cdot + omega x (zeta - c) by
    mass-weighted least squares, I_c omega = L_c: the inertia tensor and
    angular momentum about the barycenter c, Gram-matrix forms of the
    coefficients of zeta - c and zetadot - cdot. omega_orbit =
    c x cdot / |c|^2 (zero where c = 0).
    """
    relative = DeformationState(*(_about_barycenter(body, v) for v in (state.q, state.qdot)))
    A = _rows(relative.q)
    I_c = inertia(A.mT @ body.S @ A)
    omega_spin = np.linalg.solve(I_c, angular_momentum(body, relative)[..., None])[..., 0]
    c = body.barycenter(state.q)
    c2 = np.vecdot(c, c)[..., None]
    cross = np.cross(c, body.barycenter(state.qdot))
    omega_orbit = np.divide(cross, c2, out=np.zeros_like(c), where=c2 > 0)
    return omega_spin, omega_orbit


def comoving_decomposition(body: ReferenceBody, state: DeformationState):
    """Mass-weighted orthogonal-Procrustes factorization zeta(x) ~ R (x + Y).

    Fits zeta ~ R x + t over the body; returns (R in SO(3), Y = R^T t,
    xi_residual) with xi_residual the mass-weighted RMS misfit (zero exactly
    for rigid placements of the reference shape). The correlation (of the
    centered reference rows, which center the product) and the misfit are
    Gram-matrix forms of coefficient rows. A state of leading shape (...)
    gives R (..., 3, 3), Y (..., 3) and xi_residual (...), from one batched SVD.
    """
    x = identity_coefficients(body)
    X = _rows(x)
    Hcorr = _rows(_about_barycenter(body, x)).T @ body.S @ _rows(state.q)
    U, _, Vt = np.linalg.svd(Hcorr)
    V, Ut = Vt.mT, U.mT
    # reflect the last singular direction where the best orthogonal fit is improper
    flip = np.ones(Hcorr.shape[:-1])
    flip[..., 2] = np.sign(det3(V @ Ut))
    R = (V * flip[..., None, :]) @ Ut
    t = body.barycenter(state.q) - R @ body.barycenter(x)
    Y = (R.mT @ t[..., None])[..., 0]
    D = _rows(state.q) - X @ R.mT
    D[..., 0, :] -= t
    residual = np.sqrt(np.einsum("ab,...ai,...bi->...", body.S, D, D) / body.mass)
    return R, Y, residual


def _build_trajectory(body, times, states, material, viscosity, termination, reason,
                      nfev, njev):
    """The columnar record of states (n, 2 * 3N) recorded at times, one call per quantity."""
    nq = states.shape[1] // 2
    st = DeformationState(states[:, :nq].copy(), states[:, nq:].copy())
    omega_spin, omega_orbit = instantaneous_spin(body, st)
    return Trajectory(
        times=np.asarray(times, dtype=float),
        q_history=st.q,
        qdot_history=st.qdot,
        monitors=energy_breakdown(body, st, material),
        dissipation_rate=dissipation_rate(body, st, viscosity),
        cdot_max=max_cauchy_green_rate(body, st),
        Y=comoving_decomposition(body, st)[1],
        omega_spin=omega_spin,
        omega_orbit=omega_orbit,
        termination=termination,
        termination_reason=reason,
        nfev=nfev,
        njev=njev,
    )


def _termination_events(body: ReferenceBody, settings: IntegratorSettings):
    """The gaps g(t, y) (impact, escape, singular) that end a run when one falls through zero.

    In the order of _TERMINATIONS: the closest node's distance less the
    impact radius, the escape ceiling less the barycenter's distance, and
    the smallest det(Dzeta) over the nodes' distinct gradients. Each reads
    the body's own node_positions, barycenter and distinct_gradients, the
    routines require_regular uses, so a gap is <= 0 exactly where that
    admissibility rule fails.
    """
    nq = body.n_modes
    impact_radius, escape_radius = settings.impact_radius, settings.escape_radius

    def impact_event(t, y):
        Z = body.node_positions(y[:nq])
        return math.sqrt(np.vecdot(Z, Z).min()) - impact_radius

    def escape_event(t, y):
        c = body.barycenter(y[:nq])
        return escape_radius - math.sqrt(c @ c)

    def singular_event(t, y):
        return float(det3(body.distinct_gradients(y[:nq])).min())

    return impact_event, escape_event, singular_event


def integrate(
    body: ReferenceBody,
    state0: DeformationState,
    material: MaterialParams,
    viscosity: ViscosityParams,
    settings: IntegratorSettings,
) -> Trajectory:
    """Integrate the reduced equations of motion from state0 to t_end.

    Stops early with the matching termination tag when a material point
    reaches the impact radius, the barycenter crosses the escape ceiling,
    or the configuration loses regularity (det Dzeta -> 0, mapped to
    step-failure since the model cannot be continued through it). Impact
    and escape append the event state as the last sample; a singular
    event records only its time, in termination_reason. Every gap must be
    positive at state0 (require_regular, then InvalidParameterError).
    """
    require_regular(body, state0, settings.impact_radius)
    distance = float(np.linalg.norm(body.barycenter(state0.q)))  # the escape gap's distance
    if not distance < settings.escape_radius:
        raise InvalidParameterError(f"barycenter at distance {distance:.6g} is at or beyond "
                                    f"the escape radius {settings.escape_radius:.6g}")
    y0 = np.concatenate([state0.q, state0.qdot])
    rhs = _rhs(body, material, viscosity)
    events = _termination_events(body, settings)

    dt = min(settings.sample_interval, settings.t_end)
    n_samples = max(1, int(round(settings.t_end / dt)))
    t_eval = np.linspace(0.0, settings.t_end, n_samples + 1)

    sol = solve_ivp(rhs, (0.0, settings.t_end), y0, t_eval, events, settings.rel_tol,
                    settings.abs_tol, settings.max_step)
    log.debug("DOP853 run: %d accepted steps, %d rejected, nfev %d",
              sol.n_steps, sol.n_rejected, sol.nfev)
    times = list(sol.t)
    states = list(sol.y.T)
    if sol.status == 1:
        which = next(i for i, te in enumerate(sol.t_events) if len(te) > 0)
        termination, reason = _TERMINATIONS[which]
        t_ev = sol.t_events[which][0]
        log.debug("%s fired at t = %.17g: %s", events[which].__name__, t_ev, termination)
        if termination == "step-failure":
            reason += f" at t = {t_ev:.6g}"
        elif not times or times[-1] < t_ev:
            times.append(t_ev)
            states.append(sol.y_events[which][0])
    elif sol.status == 0:
        termination, reason = "completed", ""
    else:
        termination, reason = "step-failure", sol.message
    if not times:  # event fired before the first sample beyond t=0
        times, states = [0.0], [y0]

    return _build_trajectory(
        body, np.array(times), np.array(states), material, viscosity, termination, reason,
        int(sol.nfev), int(sol.njev),
    )
