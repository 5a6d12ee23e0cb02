"""A fixed computation that measures how fast the machine runs right now.

Shared machines change speed: on a 2-vCPU Intel Xeon virtual machine
(2.1 GHz) whose host other tenants share, the same elastisat run took
anywhere from 1x to 2x its fastest time, in phases lasting seconds to
minutes.  The benchmark therefore times this reference next to
every operation, and run.py reports times scaled to a machine on which
the reference takes `run.NOMINAL_S`.

The reference does the same kind of work as elastisat (a DOP853 solve
whose right-hand side is small numpy algebra over 270 quadrature-like
nodes) but uses none of its code, so a change to the program never
changes the reference.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import solve_ivp

_rng = np.random.default_rng(20121203)
_G = 0.1 * _rng.standard_normal((270, 4, 3))
_W = _rng.random(270) / 270.0
_EYE = np.eye(3)
_Y0 = np.concatenate([np.full(12, 0.01), np.zeros(12)])


def _rhs(t, y):
    A = y[:12].reshape(4, 3) + np.eye(4, 3)
    F = np.tensordot(_G, A, axes=([1], [0])).transpose(0, 2, 1)
    E = 0.5 * (np.matmul(F.transpose(0, 2, 1), F) - _EYE)
    P = np.matmul(F, E + 0.1 * np.trace(E, axis1=1, axis2=2)[:, None, None] * _EYE)
    force = np.tensordot(_W[:, None, None] * P, _G, axes=([0, 2], [0, 2])).T
    return np.concatenate([y[12:], -force.reshape(-1) - 0.5 * y[12:]])


def reference_seconds() -> float:
    """Wall time of one fixed reference solve (about 30 ms)."""
    started = time.perf_counter()
    solve_ivp(_rhs, (0.0, 12.0), _Y0, method="DOP853", rtol=1e-10, atol=1e-12)
    return time.perf_counter() - started
