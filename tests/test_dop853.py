"""The program's DOP853 loop against scipy's, bit for bit.

dop853.solve_ivp must return what scipy.integrate.solve_ivp(method="DOP853")
returns for the same right-hand side and keywords, with each of the loop's
gaps handed to scipy as a terminal event of direction -1: the same sample
times and states, event times and states, nfev, status and message. The
runs cover the capture equilibrium start, an impact, an escape, a finite
max_step and a degree-2 body; the impact and escape runs reject steps, so
the retry on the loop's reused buffers is compared too, and no run writes
into the caller's y0. The vendored tableau must equal scipy's, and the
Brent root finder must equal scipy.optimize.brentq on generated brackets.
"""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from elastisat import dop853
from elastisat.dynamics import _rhs, _termination_events, integrate
from elastisat.scenario import scenario_from_mapping

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _problem(name, **integrator):
    """(rhs, y0, span and the loop's keywords) of a bundled scenario, as integrate sets them up."""
    doc = yaml.safe_load((SCENARIOS / name).read_text())
    degree = integrator.pop("basis_degree", None)
    if degree is not None:
        doc["body"]["basis_degree"] = degree
    doc["integrator"].update(integrator)
    sc = scenario_from_mapping(doc)
    state, s = sc.initial_state(), sc.settings
    dt = min(s.sample_interval, s.t_end)
    t_eval = np.linspace(0.0, s.t_end, max(1, int(round(s.t_end / dt))) + 1)
    kwargs = dict(rtol=s.rel_tol, atol=s.abs_tol, max_step=s.max_step,
                  t_eval=t_eval, events=_termination_events(sc.body, s))
    rhs = _rhs(sc.body, sc.material, sc.viscosity)
    return rhs, np.concatenate([state.q, state.qdot]), (0.0, s.t_end), kwargs


def _scipy(rhs, span, y0, kwargs):
    """scipy's DOP853 on the same problem, each gap a terminal event that falls through zero."""
    events = []
    for gap in kwargs["events"]:
        def event(t, y, gap=gap):
            return gap(t, y)
        event.terminal, event.direction = True, -1.0
        events.append(event)
    return scipy_solve_ivp(rhs, span, y0, method="DOP853", **{**kwargs, "events": events})


CASES = {
    "capture-start": ("capture.yaml", {"t_end": 6.0}),
    "impact": ("impact.yaml", {}),
    "escape": ("unbounded.yaml", {"escape_radius": 15.0, "t_end": 200.0}),
    "max-step": ("capture.yaml", {"t_end": 1.0, "max_step": 0.01}),
    "degree-2": ("impact.yaml", {"basis_degree": 2, "t_end": 2.0}),
}


@pytest.mark.parametrize("case", CASES)
def test_loop_equals_scipy_dop853_bit_for_bit(case):
    name, integrator = CASES[case]
    rhs, y0, span, kwargs = _problem(name, **integrator)
    start = y0.copy()
    ours = dop853.solve_ivp(rhs, span, y0, **kwargs)
    assert np.array_equal(y0, start)  # the loop's state buffers never alias the caller's y0
    ref = _scipy(rhs, span, y0, kwargs)
    assert ref.status == (1 if case in ("impact", "escape") else 0)
    assert (ours.status, ours.message, ours.nfev, ours.njev) == (
        ref.status, ref.message, ref.nfev, ref.njev)
    for field in ("t", "y"):
        mine, theirs = getattr(ours, field), getattr(ref, field)
        assert mine.shape == theirs.shape and np.array_equal(mine, theirs), field
    for mine, theirs in zip(ours.t_events + ours.y_events, ref.t_events + ref.y_events,
                            strict=True):
        assert mine.shape == theirs.shape and np.array_equal(mine, theirs)
    assert ours.n_steps > 0
    if case in ("impact", "escape"):
        # rejected steps retried on the loop's reused buffers, matched above bit for bit
        assert ours.n_rejected > 0


def test_too_small_a_step_ends_the_run_with_scipys_message():
    def rhs(t, y, out=None):
        out = np.empty_like(y) if out is None else out
        out[:] = 1.0 / (1.0 - t) ** 2  # blows up at t = 1
        return out

    kwargs = dict(rtol=1e-9, atol=1e-12, t_eval=np.linspace(0.0, 2.0, 5), events=())
    ours = dop853.solve_ivp(rhs, (0.0, 2.0), np.ones(2), **kwargs)
    ref = _scipy(rhs, (0.0, 2.0), np.ones(2), kwargs)
    assert ours.status == ref.status == -1
    assert ours.message == ref.message == dop853.TOO_SMALL_STEP
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)


def test_integrate_counts_the_steps(caplog):
    rhs, y0, span, kwargs = _problem("impact.yaml")
    sol = dop853.solve_ivp(rhs, span, y0, **kwargs)
    sc = scenario_from_mapping(yaml.safe_load((SCENARIOS / "impact.yaml").read_text()))
    with caplog.at_level("DEBUG", logger="elastisat.dynamics"):
        traj = integrate(sc.body, sc.initial_state(), sc.material, sc.viscosity, sc.settings)
    assert traj.nfev == sol.nfev
    assert (f"DOP853 run: {sol.n_steps} accepted steps, {sol.n_rejected} rejected, "
            f"nfev {sol.nfev}") in caplog.messages


def test_tableau_is_scipys():
    for name in ("C", "A", "B", "E3", "E5", "D"):
        assert np.array_equal(getattr(dop853, name), getattr(dop853_coefficients, name)), name
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(dop853, name) == getattr(dop853_coefficients, name), name


# Smooth functions of the offset u = x - root, each with one sign change at u = 0.
SHAPES = {
    "linear": lambda u, a, b: a * u,
    "cubic": lambda u, a, b: a * u + b * u ** 3,
    "exp": lambda u, a, b: a * math.expm1(u) + b * u,
    "sine": lambda u, a, b: a * u + 0.9 * a * math.sin(u) + b * u ** 5,
    "flat": lambda u, a, b: a * u ** 3 + b * u ** 5,
}


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)),
       a=st.floats(1e-3, 1e3), b=st.floats(0.0, 10.0), sign=st.sampled_from([-1.0, 1.0]),
       root=st.floats(-10.0, 10.0), left=st.floats(1e-6, 5.0), right=st.floats(1e-6, 5.0),
       tol=st.sampled_from([4 * dop853.EPS, 2e-12, 1e-6]))
def test_brentq_equals_scipys(shape, a, b, sign, root, left, right, tol):
    calls = {"ours": [], "scipy": []}

    def f_for(who):
        def f(x):
            calls[who].append(x)
            return sign * SHAPES[shape](x - root, a, b)
        return f

    def outcome(solve, f):
        """The root, or the type and message of the error (both fail alike on flat roots)."""
        try:
            return solve(f, root - left, root + right, xtol=tol, rtol=4 * dop853.EPS)
        except (ValueError, RuntimeError) as exc:
            return type(exc), str(exc)

    assert outcome(dop853.brentq, f_for("ours")) == outcome(scipy_brentq, f_for("scipy"))
    assert calls["ours"] == calls["scipy"]


def test_brentq_errors_are_scipys():
    for f, message in [(lambda x: x * x + 1.0, "different signs"),
                       (lambda x: math.nan, "is NaN")]:
        for solver in (dop853.brentq, scipy_brentq):
            with pytest.raises(ValueError, match=message):
                solver(f, 0.0, 1.0, xtol=2e-12, rtol=4 * dop853.EPS)
    steep = lambda x: math.tan(x) - 1e-3 if x < 1.0 else 1.0  # noqa: E731
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        dop853.brentq(steep, -1.4, 2.0, 2e-12, 4 * dop853.EPS, maxiter=3)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        scipy_brentq(steep, -1.4, 2.0, maxiter=3)
    # an endpoint that is a root is returned as it is
    assert dop853.brentq(lambda x: x, 0.0, 1.0, 2e-12, 4 * dop853.EPS) == 0.0
    assert dop853.brentq(lambda x: x - 1.0, 0.0, 1.0, 2e-12, 4 * dop853.EPS) == 1.0


def test_loop_rejects_what_it_does_not_run():
    rhs, y0, span, kwargs = _problem("impact.yaml")
    with pytest.raises(ValueError, match="rtol must be at least"):
        dop853.solve_ivp(rhs, span, y0, **{**kwargs, "rtol": 1e-15})
