"""Trajectory outcome classification.

Maps a finished trajectory onto the trichotomy: impact, unbounded, or
synchronous capture, with a first-class undetermined verdict whenever the
evidence is incomplete.  Capture is never inferred from decay alone: a
relative equilibrium re-solved from the final state (at the trajectory's
own angular momentum) must exist, and the tail metrics measured against
it must all clear their thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .body_model import DeformationState, ReferenceBody, axis_rotation, skew
from .dynamics import Trajectory, row_norms
from .energetics import MaterialParams
from .equilibria import RelativeEquilibrium, solve_relative_equilibrium
from .errors import (
    ImpactProximityError,
    InsufficientDataError,
    InvalidParameterError,
    NoConvergenceError,
    SingularConfigurationError,
)


class Outcome(str, Enum):
    SYNCHRONOUS_CAPTURE = "SynchronousCapture"
    IMPACT = "Impact"
    UNBOUNDED = "Unbounded"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class CaptureThresholds:
    """Acceptance gates for declaring synchronous capture on a tail window.

    Capture is an asymptotic statement with no attached rates, so these
    are reporting gates, not physical constants; they are exposed in the
    scenario schema and echoed into every result document. Each is positive
    (NaN fails).
    """

    cdot_max: float = 1e-6
    spin_orbit_gap: float = 1e-3
    y_drift: float = 1e-6
    shape_residual: float = 1e-6
    window_periods: float = 5.0
    equilibrium_tol: float = 1e-10

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise InvalidParameterError(f"{f.name} must be > 0, got {getattr(self, f.name)}")


@dataclass
class CaptureMetrics:
    """Rigidity / synchrony measurements over the assessment window.

    cdot_max is the sup-node Cauchy-Green rate at the trajectory end;
    spin_orbit_gap and y_drift are window averages; shape_residual is the
    mass-metric distance of the final phase point to the matched
    equilibrium's rotation orbit, relative to the state norm.
    """

    cdot_max: float
    spin_orbit_gap: float
    y_drift: float
    shape_residual: float
    window: tuple
    n_samples: int
    omega_spin: np.ndarray
    omega_orbit: np.ndarray


@dataclass
class Classification:
    """A verdict and its evidence; the termination tag is the trajectory's own.

    reason names the deciding check. metrics and equilibrium are set once
    Newton has matched an equilibrium to the tail, escape_energy on an
    escape and t_impact on an impact.
    """

    outcome: Outcome
    reason: str
    metrics: CaptureMetrics | None = None
    equilibrium: RelativeEquilibrium | None = None
    escape_energy: float | None = None
    t_impact: float | None = None


def two_body_energy(body: ReferenceBody, trajectory: Trajectory, material: MaterialParams) -> float:
    """Barycenter point-mass energy 0.5 m |cdot|^2 - kM m / |c| at the final sample."""
    st = trajectory.final_state
    c = body.barycenter(st.q)
    cdot = body.barycenter(st.qdot)
    r = float(np.linalg.norm(c))
    return float(0.5 * body.mass * (cdot @ cdot) - material.kM * body.mass / r)


def group_orbit_distance(body: ReferenceBody, state: DeformationState, eq: RelativeEquilibrium) -> float:
    """Mass-metric distance from a phase point to the equilibrium's rotation orbit.

    The orbit is {rotate(eq, theta) : theta} about the momentum axis; the
    squared distance is a sinusoid in theta, so the minimizer is closed
    form.  The distance itself is evaluated at the optimal angle as an
    explicit difference (no large-term cancellation, exact zero on the
    orbit to round-off).  Returned value is relative to the state's own
    mass norm.
    """
    axis = eq.L / np.linalg.norm(eq.L)
    E = skew(axis)
    S = body.S

    Af = state.q.reshape(-1, 3)
    Vf = state.qdot.reshape(-1, 3)
    Ae = eq.q.reshape(-1, 3)
    Ve = eq.velocity.reshape(-1, 3)

    B = Ae.T @ S @ Af + Ve.T @ S @ Vf
    a = float(np.trace(E @ B))
    b = float(-np.trace(E @ E @ B))
    theta = np.arctan2(a, b)

    # the rotation about the momentum axis by the optimal angle, acting
    # spatially: columns transform as A -> A R^T
    R = axis_rotation(axis, theta)
    dA = Ae @ R.T - Af
    dV = Ve @ R.T - Vf
    d2 = float(np.einsum("ab,ai,bi->", S, dA, dA) + np.einsum("ab,ai,bi->", S, dV, dV))
    norm_f = float(np.einsum("ab,ai,bi->", S, Af, Af) + np.einsum("ab,ai,bi->", S, Vf, Vf))
    return float(np.sqrt(max(d2, 0.0) / norm_f))


def capture_metrics(
    body: ReferenceBody,
    trajectory_tail: Trajectory,
    equilibrium: RelativeEquilibrium,
) -> CaptureMetrics:
    """Measure synchrony of a trajectory tail against a matched equilibrium.

    The caller slices the tail to the configured window; this needs at
    least 8 samples (InsufficientDataError otherwise).
    """
    n = len(trajectory_tail)
    if n < 8:
        raise InsufficientDataError(f"only {n} samples in the assessment window")
    times = trajectory_tail.times
    gaps = np.abs(row_norms(trajectory_tail.omega_spin) - row_norms(trajectory_tail.omega_orbit))
    # planet position in the comoving frame is -Y, so its rate is |dY/dt|
    rates = np.linalg.norm(np.diff(trajectory_tail.Y, axis=0), axis=1) / np.diff(times)

    return CaptureMetrics(
        cdot_max=float(trajectory_tail.cdot_max[-1]),
        spin_orbit_gap=float(np.mean(gaps)),
        y_drift=float(np.mean(rates)),
        shape_residual=group_orbit_distance(body, trajectory_tail.final_state, equilibrium),
        window=(float(times[0]), float(times[-1])),
        n_samples=n,
        omega_spin=trajectory_tail.omega_spin[-1].copy(),
        omega_orbit=trajectory_tail.omega_orbit[-1].copy(),
    )


def windowed_dissipation(trajectory: Trajectory, window: float) -> np.ndarray:
    """Integral of |dissipation_rate| over successive equal windows.

    Trapezoid rule on the recorded samples; trailing partial window is
    dropped.  A capture run should show this sequence decreasing toward
    zero as the trajectory settles onto the non-dissipating manifold.
    """
    t = trajectory.times
    diss = np.abs(trajectory.dissipation_rate)
    n_windows = int(np.floor((t[-1] - t[0]) / window))
    if n_windows < 1:
        raise InsufficientDataError("trajectory shorter than one window")
    out = np.empty(n_windows)
    for k in range(n_windows):
        lo = t[0] + k * window
        hi = lo + window
        sel = (t >= lo) & (t <= hi)
        if np.sum(sel) < 2:
            raise InsufficientDataError("window too narrow for the sampling interval")
        out[k] = np.trapezoid(diss[sel], t[sel])
    return out


def _undetermined(reason, **kw):
    return Classification(outcome=Outcome.UNDETERMINED, reason=reason, **kw)


def classify_outcome(
    body: ReferenceBody,
    trajectory: Trajectory,
    material: MaterialParams,
    thresholds: CaptureThresholds = CaptureThresholds(),
) -> Classification:
    """Assign the trichotomy verdict for one finished trajectory.

    Never raises on ambiguity: anything that fails the capture evidence
    chain (short tail, no equilibrium at the trajectory momentum, metric
    above gate) comes back Undetermined with the failing reason.  A Newton
    solve that runs out of iterations, whose line search stalls, or whose
    seed (the final state) is not admissible counts as no equilibrium.
    """
    term = trajectory.termination

    if term == "impact-detected":
        return Classification(
            outcome=Outcome.IMPACT,
            reason="a material point reached the impact radius",
            t_impact=float(trajectory.times[-1]),
        )

    if term == "escape-detected":
        e2 = two_body_energy(body, trajectory, material)
        if e2 > 0.0:
            return Classification(
                outcome=Outcome.UNBOUNDED,
                reason=f"escape ceiling crossed with positive two-body energy {e2:.6g}",
                escape_energy=e2,
            )
        return _undetermined(
            f"escape ceiling crossed but two-body energy {e2:.6g} is negative; "
            "the orbit may still be bound",
            escape_energy=e2,
        )

    if term != "completed":
        return _undetermined(
            f"integration did not complete: {trajectory.termination_reason or term}"
        )

    rate = float(np.linalg.norm(trajectory.omega_orbit[-1]))
    if rate <= 0.0:
        return _undetermined("no orbital motion at the final sample")
    window = thresholds.window_periods * 2.0 * np.pi / rate
    t_from = float(trajectory.times[-1]) - window
    if t_from < float(trajectory.times[0]):
        return _undetermined(
            f"assessment window {window:.3g} exceeds trajectory span "
            f"{float(trajectory.times[-1]) - float(trajectory.times[0]):.3g}"
        )
    tail = trajectory.tail(t_from)

    # Cheap pre-gate: the rigidity metric needs no equilibrium, and a tail
    # that is still flexing cannot be captured. Skipping the Newton solve
    # here also keeps conservative runs from paying for a doomed search.
    cdot_end = float(tail.cdot_max[-1])
    if not cdot_end < thresholds.cdot_max:
        return _undetermined(
            f"tail rigidity cdot_max {cdot_end:.3e} is not below {thresholds.cdot_max:.3e}"
        )

    L0 = trajectory.monitors.L[-1]
    try:
        eq = solve_relative_equilibrium(
            body, material, L0, state0=trajectory.final_state,
            omega0=trajectory.omega_spin[-1], tol=thresholds.equilibrium_tol,
        )
    except (NoConvergenceError, SingularConfigurationError, ImpactProximityError) as exc:
        return _undetermined(
            f"no relative equilibrium found at the trajectory momentum: {exc}"
        )

    try:
        metrics = capture_metrics(body, tail, eq)
    except InsufficientDataError as exc:
        return _undetermined(f"capture assessment impossible: {exc}")

    checks = [
        ("tail rigidity cdot_max", metrics.cdot_max, thresholds.cdot_max),
        ("spin-orbit gap", metrics.spin_orbit_gap, thresholds.spin_orbit_gap),
        ("comoving planet drift rate", metrics.y_drift, thresholds.y_drift),
        ("group-orbit shape residual", metrics.shape_residual, thresholds.shape_residual),
    ]
    for label, value, gate in checks:
        if not value < gate:
            return _undetermined(
                f"{label} {value:.3e} is not below {gate:.3e}",
                metrics=metrics, equilibrium=eq,
            )

    return Classification(
        outcome=Outcome.SYNCHRONOUS_CAPTURE,
        reason="tail is rigid, synchronous, and on a relative-equilibrium group orbit",
        metrics=metrics,
        equilibrium=eq,
    )
