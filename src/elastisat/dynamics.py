"""Equations of motion in Galerkin coordinates and their time integration.

The reduced system is M qddot = f(q) - g(q, qdot) with the constant mass
matrix M prefactored once. f - g comes from energetics.generalized_force,
the one force kernel: f is the exact gradient force of the conservative
potentials and g the viscous force. solve_ivp integrates it; termination
is event-based (impact, escape ceiling, loss of regularity; the singular
event state itself has no monitors and is not recorded). Trajectories are
columnar, one row per sample: energy monitors, the rigidity diagnostic, and
the spin, orbital rate and comoving planet offset the classifier reads.
They are built in one pass, each monitor evaluated on the stack of states.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from .body_model import DeformationState, ReferenceBody, det3, require_regular
from .dissipation import ViscosityParams, dissipation_rate, max_cauchy_green_rate
from .energetics import EnergyBreakdown, MaterialParams, energy_breakdown, generalized_force
from .errors import InvalidParameterError

MONITOR_COLUMNS = (
    "t", "K", "U_g", "U_sg", "U_e", "H",
    "Lx", "Ly", "Lz", "diss_rate", "Cdot_max", "Y_norm", "omega_norm",
)

_SCIPY_METHODS = {"dop853": "DOP853", "rk45": "RK45"}


@dataclass(frozen=True)
class IntegratorSettings:
    """Time-integration controls.

    method: the solve_ivp scheme, 'dop853' (adaptive embedded RK, order 8,
        default) or 'rk45' (adaptive embedded RK, order 5).
    impact_radius: terminate when any material point gets this close to
        the planet; escape_radius: hard ceiling on the barycenter distance
        that stops runaway runs (classification happens downstream).
        max_step and impact_radius are positive, escape_radius is larger.
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
        if self.method not in _SCIPY_METHODS:
            raise InvalidParameterError(f"unknown integrator method {self.method!r}")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InvalidParameterError("tolerances must be positive")
        if self.t_end <= 0:
            raise InvalidParameterError("t_end must be positive")
        if self.record_every is not None and self.record_every <= 0:
            raise InvalidParameterError("record_every must be positive")
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
    qdot_history[i]), the energy monitors (monitors is one EnergyBreakdown
    of (n,) columns and an (n, 3) L), the sup-node Cauchy-Green rate
    cdot_max[i], the comoving planet offset Y[i] of comoving_decomposition,
    and the spin and orbital angular velocities omega_spin[i],
    omega_orbit[i] of instantaneous_spin.  nfev and njev count solve_ivp's
    right-hand-side and Jacobian evaluations over the whole run.
    """

    times: np.ndarray
    q_history: np.ndarray        # (n, 3N)
    qdot_history: np.ndarray     # (n, 3N)
    monitors: EnergyBreakdown    # (n,) columns, L (n, 3)
    cdot_max: np.ndarray         # (n,)
    Y: np.ndarray                # (n, 3)
    omega_spin: np.ndarray       # (n, 3)
    omega_orbit: np.ndarray      # (n, 3)
    termination: str             # completed | impact-detected | escape-detected | step-failure
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
            self.times, mon.K, mon.U_g, mon.U_sg, mon.U_e, mon.H, mon.L, mon.dissipation_rate,
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


def _accel(body, q, qdot, material, viscosity):
    """Acceleration coefficients M^-1 (f - g), shape (n_monomials, 3)."""
    Fdot = body.stress_gradients(qdot) if viscosity.eta > 0.0 else None
    force = generalized_force(
        body, body.node_positions(q), body.stress_gradients(q), Fdot, material, viscosity.eta
    )
    return body.solve_mass(force)


def equations_of_motion(
    body: ReferenceBody,
    state: DeformationState,
    material: MaterialParams,
    viscosity: ViscosityParams = ViscosityParams(0.0),
    impact_radius: float = 0.0,
):
    """(qdot, qddot) of the reduced system M qddot = f_conservative - g_viscous."""
    require_regular(body, state, impact_radius)
    return state.qdot.copy(), _accel(body, state.q, state.qdot, material, viscosity).reshape(-1)


def instantaneous_spin(body: ReferenceBody, state: DeformationState):
    """Best-fit rigid angular velocity about the barycenter and the orbital rate.

    Returns (omega_spin, omega_orbit), each (..., 3) for a state of leading
    shape (...): omega_spin solves the weighted least-squares fit
    zetadot ~ cdot + omega x (zeta - c) over the nodes; omega_orbit =
    c x cdot / |c|^2 (zero where c = 0).
    """
    m = body.density * body.weights
    c = body.barycenter(state.q)
    cd = body.barycenter(state.qdot)
    rel = body.node_positions(state.q) - c[..., None, :]
    reld = body.node_positions(state.qdot) - cd[..., None, :]
    L_c = np.einsum("q,...qi->...i", m, np.cross(rel, reld))
    r2 = np.einsum("...qi,...qi->...q", rel, rel)
    I_c = (np.einsum("...q,ij->...ij", m * r2, np.eye(3))
           - np.einsum("q,...qi,...qj->...ij", m, rel, rel))
    omega_spin = np.linalg.solve(I_c, L_c[..., None])[..., 0]
    c2 = np.vecdot(c, c)[..., None]
    omega_orbit = np.divide(np.cross(c, cd), c2, out=np.zeros_like(c), where=c2 > 0)
    return omega_spin, omega_orbit


def comoving_decomposition(body: ReferenceBody, state: DeformationState):
    """Mass-weighted orthogonal-Procrustes factorization zeta(x) ~ R (x + Y).

    Fits the quadrature-node images against the reference nodes; returns
    (R in SO(3), Y, xi_residual) with xi_residual the mass-weighted RMS
    misfit (zero exactly for rigid placements of the reference shape).
    A state of leading shape (...) gives R (..., 3, 3), Y (..., 3) and
    xi_residual (...), from one batched SVD.
    """
    Z, _ = require_regular(body, state)
    m = body.density * body.weights
    xbar = body.first_moment / body.mass
    zbar = body.barycenter(state.q)
    Hcorr = (m[:, None] * (body.nodes - xbar)).T @ (Z - zbar[..., None, :])
    U, _, Vt = np.linalg.svd(Hcorr)
    V, Ut = np.swapaxes(Vt, -1, -2), np.swapaxes(U, -1, -2)
    # reflect the last singular direction where the best orthogonal fit is improper
    flip = np.ones(Hcorr.shape[:-1])
    flip[..., 2] = np.sign(det3(V @ Ut))
    R = (V * flip[..., None, :]) @ Ut
    t = zbar - R @ xbar
    Y = (np.swapaxes(R, -1, -2) @ t[..., None])[..., 0]
    misfit = Z - (body.nodes @ np.swapaxes(R, -1, -2) + t[..., None, :])
    residual = np.sqrt(np.einsum("q,...qi,...qi->...", m, misfit, misfit) / np.sum(m))
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
        monitors=energy_breakdown(
            body, st, material, dissipation_rate=dissipation_rate(body, st, viscosity)
        ),
        cdot_max=max_cauchy_green_rate(body, st),
        Y=comoving_decomposition(body, st)[1],
        omega_spin=omega_spin,
        omega_orbit=omega_orbit,
        termination=termination,
        termination_reason=reason,
        nfev=nfev,
        njev=njev,
    )


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
    event records only its time, in termination_reason.
    """
    require_regular(body, state0, settings.impact_radius)
    nq = body.n_modes
    y0 = np.concatenate([state0.q, state0.qdot])

    def rhs(t, y):
        acc = _accel(body, y[:nq], y[nq:], material, viscosity)
        return np.concatenate([y[nq:], acc.reshape(-1)])

    def impact_event(t, y):
        Z = body.node_positions(y[:nq])
        return float(np.min(np.linalg.norm(Z, axis=1))) - settings.impact_radius

    def escape_event(t, y):
        c = body.barycenter(y[:nq])
        return settings.escape_radius - float(np.linalg.norm(c))

    def singular_event(t, y):
        return float(np.min(det3(body.node_gradients(y[:nq]))))

    for ev in (impact_event, escape_event, singular_event):
        ev.terminal = True
        ev.direction = -1.0

    dt = min(settings.sample_interval, settings.t_end)
    n_samples = max(1, int(round(settings.t_end / dt)))
    t_eval = np.linspace(0.0, settings.t_end, n_samples + 1)

    sol = solve_ivp(
        rhs,
        (0.0, settings.t_end),
        y0,
        method=_SCIPY_METHODS[settings.method],
        rtol=settings.rel_tol,
        atol=settings.abs_tol,
        max_step=settings.max_step,
        t_eval=t_eval,
        events=[impact_event, escape_event, singular_event],
        dense_output=False,
    )
    times = list(sol.t)
    states = list(sol.y.T)
    if sol.status == 1:
        tags = ["impact-detected", "escape-detected", "step-failure"]
        reasons = ["impact radius reached", "escape ceiling crossed",
                   "configuration became singular (det Dzeta -> 0)"]
        which = next(i for i, te in enumerate(sol.t_events) if len(te) > 0)
        termination, reason = tags[which], reasons[which]
        t_ev = sol.t_events[which][0]
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
