"""Cost per call of the force kernel and the routines around it, in microseconds.

    PYTHONPATH=src python tools/kernel_timing.py [--repeat R]

Times, with one BLAS thread:

- ``rhs``, the right-hand side ``dynamics._rhs`` builds once per run and
  the integrator calls at every stage, without the integrator's own
  overhead (perfbench's ``dynamics.rhs_us`` includes it);
- ``loop_per_step``, that overhead: the wall time of a 30-time-unit
  integration of the capture start (``dop853.solve_ivp`` with the
  settings, samples and events ``integrate`` passes it), less ``nfev``
  times the ``rhs`` figure, divided by the accepted steps; it holds the
  integrator's own arithmetic, the events and the dense output;
- the pieces of a Newton iteration on their own: ``require_regular``, the
  admissibility check; ``force_kernel``, building the kernel a solve
  holds (once per solve); ``conservative_force``, the admissible force
  (``require_regular`` then the prebuilt kernel); and ``kernel.jacobian``
  of a prebuilt kernel at eta = 0;
- the integrator's three gaps (impact, escape, singular), each and their
  sum ``events``, which the integrator evaluates once per accepted step;
- what the ``equilibria`` command runs: ``equilibrium_residual`` and
  ``equilibrium_jacobian``, once per Newton iteration, at the relative
  equilibrium the capture start solves for; one whole
  ``solve_relative_equilibrium`` from capture's seed; and
  ``nondegeneracy_spectrum`` at the equilibrium;
- ``catalog_per_family``, one ``rigid_quadrupole_catalog`` call on the
  body and orbit radius of ``scenarios/catalog.yaml`` divided by its 24
  families.

Each routine runs on the equilibrium start of ``scenarios/capture.yaml``
(basis degree 1, the benchmark's state) and on the same scenario at basis
degree 2; the catalog body takes the same basis degree. Each figure is the
best of R repeats of a batch of calls that takes at least 0.2 s, divided
by the batch size: the best repeat is the one least disturbed by other
work on the machine. ``loop_per_step`` takes the best of R integrations.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from elastisat import dynamics  # noqa: E402
from elastisat.body_model import require_regular  # noqa: E402
from elastisat.dynamics import _rhs, _termination_events  # noqa: E402
from elastisat.energetics import conservative_force, force_kernel  # noqa: E402
from elastisat.equilibria import (equilibrium_jacobian, equilibrium_residual,  # noqa: E402
                                  nondegeneracy_spectrum, rigid_quadrupole_catalog,
                                  solve_relative_equilibrium)
from elastisat.scenario import scenario_from_mapping  # noqa: E402

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _scenario(name: str, degree: int):
    doc = yaml.safe_load((SCENARIOS / name).read_text())
    doc["body"]["basis_degree"] = degree
    return scenario_from_mapping(doc)


def _calls(degree: int) -> dict:
    """Name -> (zero-argument call, operations per call) of every timed routine at this degree."""
    sc = _scenario("capture.yaml", degree)
    body, mat = sc.body, sc.material
    state = sc.initial_state()
    y = np.concatenate([state.q, state.qdot])
    rhs = _rhs(body, mat, sc.viscosity)
    kernel = force_kernel(body, mat)
    calls = {
        "rhs": lambda: rhs(0.0, y),
        "require_regular": lambda: require_regular(body, state),
        "force_kernel": lambda: force_kernel(body, mat),
        "conservative_force": lambda: conservative_force(kernel, state.q),
        "kernel.jacobian": lambda: kernel.jacobian(state.q[None]),
    }
    events = _termination_events(body, sc.settings)
    for event in events:
        calls[event.__name__] = lambda event=event: event(0.0, y)
    calls["events"] = lambda: [event(0.0, y) for event in events]

    L0, state0, omega0 = sc.equilibrium_seed()
    eq = solve_relative_equilibrium(body, mat, L0, state0=state0, omega0=omega0)
    calls["equilibrium_residual"] = lambda: equilibrium_residual(kernel, eq.q, eq.omega, L0)
    calls["equilibrium_jacobian"] = lambda: equilibrium_jacobian(kernel, eq.q, eq.omega)
    calls["solve_relative_equilibrium"] = lambda: solve_relative_equilibrium(
        body, mat, L0, state0=state0, omega0=omega0)
    calls["nondegeneracy_spectrum"] = lambda: nondegeneracy_spectrum(body, mat, eq)
    calls = {name: (call, 1) for name, call in calls.items()}

    cat = _scenario("catalog.yaml", degree)
    radius = cat.initial.orbit_radius
    families = len(rigid_quadrupole_catalog(cat.body, cat.material, radius))
    calls["catalog_per_family"] = (
        lambda: rigid_quadrupole_catalog(cat.body, cat.material, radius), families)
    return calls


LOOP_T_END = 30.0


def loop_us_per_step(degree: int, rhs_us: float, repeat: int) -> float:
    """The integrator's own cost per accepted step on LOOP_T_END time units of the capture start."""
    sc = _scenario("capture.yaml", degree)
    state = sc.initial_state()
    settings = sc.settings
    n_samples = max(1, int(round(LOOP_T_END / settings.sample_interval)))
    kwargs = dict(rtol=settings.rel_tol, atol=settings.abs_tol, max_step=settings.max_step,
                  t_eval=np.linspace(0.0, LOOP_T_END, n_samples + 1),
                  events=_termination_events(sc.body, settings))
    rhs = _rhs(sc.body, sc.material, sc.viscosity)
    y0 = np.concatenate([state.q, state.qdot])
    wall = []
    for _ in range(repeat):
        start = time.perf_counter()
        sol = dynamics.solve_ivp(rhs, (0.0, LOOP_T_END), y0, **kwargs)
        wall.append(time.perf_counter() - start)
    return (min(wall) * 1e6 - sol.nfev * rhs_us) / sol.n_steps


def best_us(call, repeat: int) -> float:
    """Best-of-repeat time of one call in microseconds."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat, number)) / number * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="repeats per routine (default 7)")
    args = parser.parse_args(argv)
    print(f"{'degree':>6}  {'routine':<26} {'us/call':>9}")
    for degree in (1, 2):
        for name, (call, per_call) in _calls(degree).items():
            us = best_us(call, args.repeat) / per_call
            print(f"{degree:>6}  {name:<26} {us:>9.2f}", flush=True)
            if name == "rhs":
                us = loop_us_per_step(degree, us, args.repeat)
                print(f"{degree:>6}  {'loop_per_step':<26} {us:>9.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
