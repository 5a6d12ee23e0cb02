"""Seeded input generators for the three benchmark workloads.

Each generator turns a seed into one *round*: a fixed list of CLI
operations, each with the scenario document it runs on and the verdict it
must reach.  The benchmark repeats the round, so every operation is also
checked against a byte-identical repeat of itself.

Seeds only jitter inputs inside fixed strata (one draw per stratum), so
every seed yields the same mix of code paths and nearly the same cost.
That keeps run-to-run spread small while still varying the inputs.

The scenario constants are copied from the bundled scenario files as they
stood when the benchmark was defined, so later edits to `scenarios/` do
not silently change the benchmark.
"""

from __future__ import annotations

import copy
import random

WORKLOADS = ("capture", "outcomes", "solver")

# Why each workload exists; mirrored in BENCHMARK.json.
WHY = {
    "capture": "paper's headline path: equilibrium start, viscous ring-down to SynchronousCapture; stiff, "
               "kernel-bound, runs both Newton solves and the classifier tail metrics",
    "outcomes": "non-stiff Impact, bound (Undetermined) and Unbounded runs: event location, classifier "
                "pre-gate and output writing; guards against capture-only speedups that slow the rest",
    "solver": "equilibria and catalog commands, no integration: Newton, nondegeneracy spectrum and the "
              "24-family rigid catalog, each about half the time",
}

# Body and material of scenarios/capture.yaml (the documented
# higher-dissipation setting).
_CAPTURE = {
    "body": {"semi_axes": [1.0, 0.85, 0.6], "density": 1.0, "basis_degree": 1,
             "quadrature_order": 8},
    "material": {"lam": 1.0, "mu": 1.0, "epsilon": 3.0, "kM": 1.0,
                 "self_gravity_k": 0.0, "softening": 0.0},
    "viscosity": {"eta": 1.2},
    "initial": {"kind": "equilibrium", "orbit_radius": 2.5, "perturbation": 0.0},
    # t_end and the classifier window are shortened from the file's 640
    # and 5 periods so that several runs fit the benchmark's time budget.
    # The kick is small enough that the tail passes every capture gate with
    # a margin of at least 4 by t = 30: the gate metrics scale linearly with
    # the kick, and the largest, shape_residual, is about 0.25 times the
    # kick there against a gate of 1e-6.
    "integrator": {"method": "dop853", "rel_tol": 1.0e-9, "abs_tol": 1.0e-11,
                   "t_end": 30.0, "record_every": 1.25, "impact_radius": 0.01,
                   "escape_radius": 1000.0},
    "classifier": {"cdot_max": 1.0e-6, "spin_orbit_gap": 1.0e-3, "y_drift": 1.0e-6,
                   "shape_residual": 1.0e-6, "window_periods": 1.25,
                   "equilibrium_tol": 1.0e-10},
}
_CAPTURE_KICK = (0.5e-6, 1.0e-6)

# Base of scenarios/sweep_speed.yaml.  t_end and the escape radius are
# shortened so each point takes about a second; the classifier window is
# a quarter period so bound points reach the rigidity pre-gate.
_SWEEP_BASE = {
    "body": {"semi_axes": [1.0, 0.85, 0.6]},
    "material": {"epsilon": 1.0},
    "viscosity": {"eta": 0.15},
    "initial": {"kind": "orbital", "orbit_radius": 5.0, "spin_factor": 1.0},
    "integrator": {"rel_tol": 1.0e-8, "abs_tol": 1.0e-10, "t_end": 20.0,
                   "record_every": 1.0, "impact_radius": 1.0, "escape_radius": 10.0},
    "classifier": {"window_periods": 0.25},
}
# Tangential speed factors at r = 5, one jittered draw around each stratum
# center, and the verdict each band gives: Impact below about 0.75
# (periapsis inside the impact radius within t_end), bound between 0.8 and
# 1.0 (tail still flexing), Unbounded above sqrt(2) with the escape radius
# reached before t_end.  A point's cost depends smoothly on its factor, so
# narrow strata keep the latency percentiles steady from seed to seed.
_OUTCOME_BANDS = (
    ("Impact", (0.30, 0.55)),
    ("Undetermined", (0.85, 0.95)),
    ("Unbounded", (1.70, 1.90)),
)
_OUTCOME_JITTER = 0.02

# scenarios/catalog.yaml: triaxial body, epsilon 1, orbital radius.
_SOLVER_MATERIAL = {"epsilon": 1.0}
# Orbit radii for `equilibria`, one draw per stratum.  Newton takes 5
# iterations for radii in [3.1, 4.9] and 4 beyond 5.8, for every body the
# generator draws; the strata avoid the radii where that count changes, so
# each seed costs the same.  Three slow solves against nine fast ones keep
# the median latency inside the fast group and the tail percentile inside
# the slow one.  (Below about 2.5 the Newton line search can step into a
# singular configuration and the command fails.)
_EQ_RADII = (tuple((3.1 + 0.6 * i, 3.1 + 0.6 * (i + 1)) for i in range(3))
             + tuple((5.8 + 0.5 * i, 5.8 + 0.5 * (i + 1)) for i in range(9)))
_CATALOG_RADII = ((2.8, 3.2), (3.2, 3.6))
# One catalog takes about as long as six equilibria (Newton plus spectrum),
# so two catalogs against twelve equilibria splits the round in halves.


def _triaxial(rng: random.Random) -> list:
    """Distinct semi-axes near the bundled (1, 0.85, 0.6) body."""
    return [1.0, round(0.85 + rng.uniform(-0.03, 0.03), 6),
            round(0.60 + rng.uniform(-0.03, 0.03), 6)]


def _capture(rng: random.Random, seed: int) -> list:
    doc = copy.deepcopy(_CAPTURE)
    doc["name"] = f"capture-{seed}"
    doc["initial"]["spin_boost"] = 1.0 + round(rng.uniform(*_CAPTURE_KICK), 12)
    return [{"command": "simulate", "doc": doc, "expect": "SynchronousCapture"}]


def _outcomes(rng: random.Random, seed: int) -> list:
    ops = []
    for expect, strata in _OUTCOME_BANDS:
        for center in strata:
            doc = copy.deepcopy(_SWEEP_BASE)
            doc["name"] = f"outcomes-{seed}-{len(ops)}"
            factor = center + rng.uniform(-_OUTCOME_JITTER, _OUTCOME_JITTER)
            doc["initial"]["tangential_factor"] = round(factor, 6)
            ops.append({"command": "simulate", "doc": doc, "expect": expect})
    return ops


def _solver(rng: random.Random, seed: int) -> list:
    ops = []
    for lo, hi in _EQ_RADII:
        doc = {"name": f"solver-{seed}-{len(ops)}", "body": {"semi_axes": _triaxial(rng)},
               "material": dict(_SOLVER_MATERIAL),
               "initial": {"kind": "orbital", "orbit_radius": round(rng.uniform(lo, hi), 6)}}
        ops.append({"command": "equilibria", "doc": doc, "expect": "nondegenerate"})
    for position, (lo, hi) in zip((4, 11), _CATALOG_RADII):
        doc = {"name": f"solver-{seed}-catalog-{position}",
               "body": {"semi_axes": _triaxial(rng)},
               "material": dict(_SOLVER_MATERIAL),
               "initial": {"kind": "orbital", "orbit_radius": round(rng.uniform(lo, hi), 6)}}
        # 24 families, exactly 4 of them stable (long axis radial,
        # largest-inertia axis normal).
        ops.insert(position, {"command": "catalog", "doc": doc, "expect": "24 families, 4 stable"})
    return ops


_GENERATORS = {"capture": _capture, "outcomes": _outcomes, "solver": _solver}

# Fewest rounds per run.  Two is the least that checks each operation
# against a repeat; the tail percentile is fixed from this minimum.
MIN_ROUNDS = {"capture": 2, "outcomes": 4, "solver": 3}


def generate(workload: str, seed: int) -> list:
    """One round of operations for `workload` at `seed` (deterministic)."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), seed)


def tail_percentile(workload: str) -> int:
    """Highest whole percentile with at least ten samples beyond it at the
    fewest operations a run makes; 100 (the maximum) when there are fewer
    than eleven."""
    n_min = MIN_ROUNDS[workload] * len(generate(workload, 0))
    if n_min <= 10:
        return 100
    return (100 * (n_min - 10)) // n_min
