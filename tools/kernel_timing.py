"""Cost per call of the force kernel and the routines around it, in microseconds.

    PYTHONPATH=src python tools/kernel_timing.py [--repeat R]

Times, with one BLAS thread:

- ``rhs``, the right-hand side ``dynamics._rhs`` builds once per run and
  solve_ivp calls at every stage, without solve_ivp's own overhead
  (perfbench's ``dynamics.rhs_us`` includes it);
- ``energetics.conservative_force`` and ``energetics.potential_hessian``,
  what Newton and the spectrum call;
- the integrator's three terminal events (impact, escape, singular), each
  and their sum ``events``, which solve_ivp evaluates once per accepted
  step.

Each routine runs on the equilibrium start of ``scenarios/capture.yaml``
(basis degree 1, the benchmark's state) and on the same scenario at basis
degree 2. Each figure is the best of R repeats of a batch of calls that
takes at least 0.2 s, divided by the batch size: the best repeat is the
one least disturbed by other work on the machine.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from elastisat.dynamics import _rhs, _termination_events  # noqa: E402
from elastisat.energetics import conservative_force, potential_hessian  # noqa: E402
from elastisat.scenario import scenario_from_mapping  # noqa: E402

CAPTURE = Path(__file__).resolve().parents[1] / "scenarios" / "capture.yaml"


def _calls(degree: int) -> dict:
    """Name -> zero-argument call of every timed routine on the capture start at this degree."""
    doc = yaml.safe_load(CAPTURE.read_text())
    doc["body"]["basis_degree"] = degree
    sc = scenario_from_mapping(doc)
    body, mat = sc.body, sc.material
    state = sc.initial_state()
    y = np.concatenate([state.q, state.qdot])
    rhs = _rhs(body, mat, sc.viscosity)
    calls = {
        "rhs": lambda: rhs(0.0, y),
        "conservative_force": lambda: conservative_force(body, state, mat),
        "potential_hessian": lambda: potential_hessian(body, state.q, mat),
    }
    events = _termination_events(body, sc.settings)
    for event in events:
        calls[event.__name__] = lambda event=event: event(0.0, y)
    calls["events"] = lambda: [event(0.0, y) for event in events]
    return calls


def best_us(call, repeat: int) -> float:
    """Best-of-repeat time of one call in microseconds."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat, number)) / number * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="repeats per routine (default 7)")
    args = parser.parse_args(argv)
    print(f"{'degree':>6}  {'routine':<20} {'us/call':>9}")
    for degree in (1, 2):
        for name, call in _calls(degree).items():
            print(f"{degree:>6}  {name:<20} {best_us(call, args.repeat):>9.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
