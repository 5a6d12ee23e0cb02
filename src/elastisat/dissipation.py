"""Kelvin-Voigt-type viscous force and the exact power balance it obeys.

The nonconservative force is the weak form of the viscous first
Piola-Kirchhoff stress P_v = eta F Cdot, with Cdot the rate of the
Cauchy-Green tensor. Since F Cdot : Fdot = |Cdot|^2 / 2 identically, the
power drained from the system is

    dH/dt = -qdot . g = -(eta/2) * integral of |Cdot|^2  <=  0,

vanishing exactly when the instantaneous motion is rigid (Cdot = 0), and
the force exerts no net torque, so angular momentum is untouched. The
force and the rate are both integrated on the body's stress rule, which
is exact for these polynomial densities; the rigidity gauge
max_cauchy_green_rate is a pointwise check and scans the full-rule nodes'
distinct gradients (one at basis degree 1, where Dzeta is constant).
Both monitors, like cauchy_green_rate itself, take a stack of states (or
of gradients) along leading axes and return one value per state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body_model import DeformationState, ReferenceBody
from .errors import InvalidParameterError


@dataclass(frozen=True)
class ViscosityParams:
    """Viscous coefficient eta >= 0 (pressure * time); eta = 0 is conservative."""

    eta: float = 0.0

    def __post_init__(self):
        if not self.eta >= 0:
            raise InvalidParameterError(f"eta must be >= 0, got {self.eta}")


def cauchy_green_rate(F, Fdot) -> np.ndarray:
    """Cdot = Fdot^T F + F^T Fdot for F, Fdot (..., 3, 3); zero exactly for rigid motion."""
    FtFd = F.mT @ Fdot
    return FtFd + FtFd.mT


def viscous_first_piola(F, Fdot, eta: float) -> np.ndarray:
    """Nodal viscous stress P_v = eta F Cdot for node gradients F, Fdot (..., 3, 3)."""
    return eta * (F @ cauchy_green_rate(F, Fdot))


def viscous_force(
    body: ReferenceBody, state: DeformationState, params: ViscosityParams
) -> np.ndarray:
    """Generalized viscous force g, to be subtracted from the conservative force.

    The viscous half of energetics.force_kernel: the same nodal stress
    on the same stress rule as dissipation_rate, so qdot . g = -Hdot exactly.
    """
    if params.eta == 0.0:
        return np.zeros_like(state.q)
    F = body.stress_gradients(state.q)
    Fdot = body.stress_gradients(state.qdot)
    return body.stress_divergence(viscous_first_piola(F, Fdot, params.eta)).reshape(-1)


def _squared_rate(state: DeformationState, gradients) -> np.ndarray:
    """|Cdot|^2 at the nodes of a body's gradient routine, shape (..., n)."""
    Cdot = cauchy_green_rate(gradients(state.q), gradients(state.qdot))
    return np.einsum("...ij,...ij->...", Cdot, Cdot)


def dissipation_rate(
    body: ReferenceBody, state: DeformationState, params: ViscosityParams
) -> float | np.ndarray:
    """Hdot = -(eta/2) * stress-rule quadrature of |Cdot|^2 (exact); always <= 0."""
    if params.eta == 0.0:
        return np.zeros(state.q.shape[:-1])[()]
    density = _squared_rate(state, body.stress_gradients)
    return -0.5 * params.eta * np.vecdot(density, body.stress_weights)


def max_cauchy_green_rate(body: ReferenceBody, state: DeformationState) -> float | np.ndarray:
    """Largest Frobenius norm of Cdot over the full-rule nodes (rigidity gauge).

    The maximum runs over the nodes' distinct gradients, the same set of values.
    """
    return np.sqrt(np.max(_squared_rate(state, body.distinct_gradients), axis=-1))
