"""In-memory spans around the calls one elastisat module makes into another.

The benchmark wraps the module-level names through which one layer calls
the next (for example `elastisat.cli.integrate`, the name `cli` uses to
reach `dynamics`).  Nothing under `src/` changes: a wrapper records a span
(name, start, end, parent span, and a few counts read from the returned
value) and calls the original.  Spans stay in memory until the run ends.

A name that no longer exists, for example after a refactor moves a call,
is recorded as absent; the metrics that need it are then reported as
absent and the run still completes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time


def _ode_counts(sol):
    """nfev, njev and the simulated span of one solve_ivp result."""
    start, end = float(sol.t[0]), float(sol.t[-1])
    for t_ev in sol.t_events or ():
        if len(t_ev):
            end = max(end, float(t_ev[0]))
    return {"nfev": int(sol.nfev), "njev": int(sol.njev), "tu": end - start}


def _iterations(eq):
    return {"iterations": int(eq.iterations)}


def _length(result):
    return {"n": len(result)}


# (module, attribute path, counts read from the returned value).  A span
# is named after the binding it wraps, e.g. `cli.integrate`.
HOOKS = (
    ("elastisat.cli", "main", None),
    ("elastisat.cli", "load_scenario", None),
    ("elastisat.scenario", "build_ellipsoid_body", None),
    ("elastisat.scenario", "Scenario.initial_state", None),
    ("elastisat.cli", "integrate", _length),
    ("elastisat.dynamics", "solve_ivp", _ode_counts),
    ("elastisat.equilibria", "conservative_force", None),
    ("elastisat.equilibria", "equilibrium_residual", None),
    # Newton is reached through three bindings: the equilibrium start
    # (scenario imports it from equilibria at call time), the classifier
    # and the `equilibria` command.
    ("elastisat.equilibria", "solve_relative_equilibrium", _iterations),
    ("elastisat.classifier", "solve_relative_equilibrium", _iterations),
    ("elastisat.cli", "solve_relative_equilibrium", _iterations),
    ("elastisat.cli", "nondegeneracy_spectrum", None),
    ("elastisat.cli", "rigid_quadrupole_catalog", _length),
    ("elastisat.cli", "classify_outcome", None),
    ("elastisat.classifier", "capture_metrics", None),
)

NEWTON = ("equilibria.solve_relative_equilibrium", "classifier.solve_relative_equilibrium",
          "cli.solve_relative_equilibrium")


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Installs the wrappers, records spans, and removes the wrappers again."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, counts]
        self.absent = []
        self._stack = []
        self._installed = []   # (owner, attribute, original)

    def install(self):
        for module, path, counts in HOOKS:
            name = span_name(module, path)
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(original, name, counts))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Spans recorded since the last call; the tracer starts afresh."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, original, name, counts):
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(result)
            return result

        return wrapper


# Per-layer metric -> (unit, span names it needs).
LAYER_METRICS = {
    "scenario.load_ms": ("ms", ("cli.load_scenario",)),
    "body_model.build_ms": ("ms", ("scenario.build_ellipsoid_body",)),
    "scenario.initial_state_s": ("s", ("scenario.Scenario.initial_state",)),
    "dynamics.integrate_s": ("s", ("cli.integrate",)),
    "dynamics.ode_s": ("s", ("dynamics.solve_ivp",)),
    "dynamics.rhs_calls_per_tu": ("count/tu", ("dynamics.solve_ivp",)),
    "dynamics.jac_calls": ("count", ("dynamics.solve_ivp",)),
    "dynamics.rhs_us": ("us", ("dynamics.solve_ivp",)),
    "dynamics.monitors_ms_per_sample": ("ms", ("cli.integrate", "dynamics.solve_ivp")),
    "energetics.force_calls": ("count", ("equilibria.conservative_force",)),
    "energetics.force_us": ("us", ("equilibria.conservative_force",)),
    "equilibria.residual_calls_per_iter": ("count", ("equilibria.equilibrium_residual",) + NEWTON),
    "equilibria.residual_us": ("us", ("equilibria.equilibrium_residual",)),
    "equilibria.newton_iters": ("count", NEWTON),
    "equilibria.spectrum_s": ("s", ("cli.nondegeneracy_spectrum",)),
    "equilibria.catalog_ms_per_family": ("ms", ("cli.rigid_quadrupole_catalog",)),
    "classifier.classify_s": ("s", ("cli.classify_outcome",)),
    "classifier.newton_s": ("s", ("classifier.solve_relative_equilibrium",)),
    "classifier.tail_metrics_s": ("s", ("classifier.capture_metrics",)),
    "cli.self_s": ("s", ("cli.main",)),
}


def _ratio(num, den):
    """num / den, or 0 when the layer did no work in this workload."""
    return num / den if den else 0.0


def round_metrics(spans: list) -> dict:
    """Per-layer numbers for one traced round of operations.

    Times ending in `_s` are totals over the round; `_ms`/`_us` values are
    per call (or per unit named in the metric).  A layer the workload does
    not reach reads 0.
    """
    calls, total, counts = {}, {}, {}
    child_time = {}
    for name, start, end, parent, extra in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        for key, value in (extra or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_time = sum(end - start - child_time.get(i, 0.0)
                    for i, (name, start, end, _, _) in enumerate(spans) if name == "cli.main")

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    ode = "dynamics.solve_ivp"
    nfev = counts.get((ode, "nfev"), 0)
    samples = counts.get(("cli.integrate", "n"), 0)
    iters = sum(counts.get((name, "iterations"), 0) for name in NEWTON)
    families = counts.get(("cli.rigid_quadrupole_catalog", "n"), 0)
    return {
        "scenario.load_ms": 1e3 * _ratio(t("cli.load_scenario"), n("cli.load_scenario")),
        "body_model.build_ms": 1e3 * _ratio(t("scenario.build_ellipsoid_body"),
                                            n("scenario.build_ellipsoid_body")),
        "scenario.initial_state_s": t("scenario.Scenario.initial_state"),
        "dynamics.integrate_s": t("cli.integrate"),
        "dynamics.ode_s": t(ode),
        "dynamics.rhs_calls_per_tu": _ratio(nfev, counts.get((ode, "tu"), 0.0)),
        "dynamics.jac_calls": counts.get((ode, "njev"), 0),
        # Solver step and event overhead are included: ode time per RHS call.
        "dynamics.rhs_us": 1e6 * _ratio(t(ode), nfev),
        "dynamics.monitors_ms_per_sample": 1e3 * _ratio(t("cli.integrate") - t(ode), samples),
        "energetics.force_calls": n("equilibria.conservative_force"),
        "energetics.force_us": 1e6 * _ratio(t("equilibria.conservative_force"),
                                            n("equilibria.conservative_force")),
        "equilibria.residual_calls_per_iter": _ratio(n("equilibria.equilibrium_residual"), iters),
        "equilibria.residual_us": 1e6 * _ratio(t("equilibria.equilibrium_residual"),
                                               n("equilibria.equilibrium_residual")),
        "equilibria.newton_iters": iters,
        "equilibria.spectrum_s": t("cli.nondegeneracy_spectrum"),
        "equilibria.catalog_ms_per_family": 1e3 * _ratio(t("cli.rigid_quadrupole_catalog"), families),
        "classifier.classify_s": t("cli.classify_outcome"),
        "classifier.newton_s": t("classifier.solve_relative_equilibrium"),
        "classifier.tail_metrics_s": t("classifier.capture_metrics"),
        "cli.self_s": self_time,
    }


def layer_metrics(rounds: list, absent: list) -> dict:
    """Median over traced rounds of each per-layer metric whose spans exist."""
    per_round = [round_metrics(spans) for spans in rounds]
    out = {}
    for metric, (_, needs) in LAYER_METRICS.items():
        if any(name in absent for name in needs):
            continue
        out[metric] = statistics.median(r[metric] for r in per_round)
    return out
