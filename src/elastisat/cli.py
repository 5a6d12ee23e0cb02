"""Command-line front end: simulate, equilibria, catalog, sweep.

All machine-readable outputs (CSV monitors, result/equilibrium/catalog
JSON) are byte-deterministic for a fixed config and seed: floats are
emitted in shortest round-trip form and keys are sorted.  Wall-clock
timing lives only in the run manifest, which is excluded from that
guarantee.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import classify_outcome
from .dynamics import MONITOR_COLUMNS, integrate
from .equilibria import (
    nondegeneracy_spectrum,
    rigid_quadrupole_catalog,
    solve_relative_equilibrium,
)
from .errors import ConfigError, ElastisatError
from .scenario import OrbitalStart, load_scenario, load_sweep, scenario_from_mapping, sweep_point

log = logging.getLogger("elastisat")


def _jsonable(obj):
    """Recursively convert numpy scalars and arrays into plain json values."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()  # plain Python numbers already
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _encode(name: str, content) -> bytes:
    """The bytes of one output, by its suffix.

    A .csv content is (header, rows), written by csv.writer with its \\r\\n
    line ends; floats come out in shortest round-trip form and None as an
    empty cell. Anything else is JSON, keys sorted, indented by 2.
    """
    if name.endswith(".csv"):
        header, rows = content
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(header)
        writer.writerows(_jsonable(rows))
        return text.getvalue().encode()
    return (json.dumps(_jsonable(content), sort_keys=True, indent=2) + "\n").encode()


def _write(outdir: Path, files: dict) -> dict:
    """Write each {name: content} under outdir; returns {name: SHA-256 of the bytes written}."""
    digests = {}
    for name, content in files.items():
        data = _encode(name, content)
        (outdir / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def _output_dir(path) -> Path:
    """The --out directory, made if missing; a path that cannot be one is a config error."""
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path} cannot be an output directory: {exc}") from exc
    return outdir


@contextmanager
def _phase(phases: dict, name: str):
    """Record the wall time of the with-block as phases[name], in seconds."""
    started = time.perf_counter()
    yield
    phases[name] = time.perf_counter() - started


def _finish(outdir: Path, config_hash: str, files: dict, started: float, phases: dict,
            summary: str, extra: dict) -> int:
    """Write the outputs (the write phase), then the manifest; print the summary line."""
    with _phase(phases, "write"):
        outputs = _write(outdir, files)
    manifest = {"tool": "elastisat", "version": __version__, "config_sha256": config_hash,
                "outputs": outputs, "wall_time_s": time.perf_counter() - started,
                "phases_s": phases, **extra}
    _write(outdir, {"manifest.json": manifest})
    print(summary)
    return 0


def _run(command, args) -> int:
    """Load the scenario, make --out, then write what command(scenario, phases) returns:
    (summary line, {file name: content}, extra manifest fields)."""
    started = time.perf_counter()
    phases = {}
    with _phase(phases, "load"):
        scenario = load_scenario(args.config)
    outdir = _output_dir(args.out)
    summary, files, extra = command(scenario, phases)
    return _finish(outdir, scenario.config_hash(), files, started, phases, summary, extra)


def _cmd_simulate(scenario, phases):
    """Integrate one scenario and classify it: monitors.csv and result.json."""
    with _phase(phases, "initial_state"):
        state0 = scenario.initial_state()
    log.info("integrating %s to t=%g with %s", scenario.name,
             scenario.settings.t_end, scenario.settings.method)
    with _phase(phases, "integrate"):
        trajectory = integrate(
            scenario.body, state0, scenario.material, scenario.viscosity, scenario.settings
        )
    with _phase(phases, "classify"):
        verdict = classify_outcome(
            scenario.body, trajectory, scenario.material, scenario.thresholds
        )

    mons = trajectory.monitors
    H, L = mons.H, mons.L
    steps = np.diff(H)
    result = {
        "name": scenario.name,
        "config_sha256": scenario.config_hash(),
        "termination": trajectory.termination,
        "termination_reason": trajectory.termination_reason,
        "outcome": verdict.outcome.value,
        "reason": verdict.reason,
        "escape_energy": verdict.escape_energy,
        "t_impact": verdict.t_impact,
        "metrics": None if verdict.metrics is None else asdict(verdict.metrics),
        "thresholds": asdict(scenario.thresholds),
        "equilibrium": None if verdict.equilibrium is None else asdict(verdict.equilibrium),
        "samples": len(trajectory),
        "t_final": float(trajectory.times[-1]),
        "counters": {"nfev": trajectory.nfev, "njev": trajectory.njev},
        "final": {
            "K": mons.K[-1], "U_g": mons.U_g[-1], "U_sg": mons.U_sg[-1],
            "U_e": mons.U_e[-1], "H": H[-1], "L": L[-1],
            "diss_rate": trajectory.dissipation_rate[-1],
        },
        "audit": {
            "H_drop": float(H[0] - H[-1]),
            "H_drift_rel": float(np.max(np.abs(H - H[0])) / max(abs(H[0]), 1e-300)),
            "H_increase_max": float(max(0.0, float(np.max(steps)) if steps.size else 0.0)),
            "L_drift_max": float(np.max(np.abs(L - L[0]))),
        },
    }
    log.info("%s: %s (%s)", scenario.name, verdict.outcome.value, verdict.reason)
    files = {"monitors.csv": (MONITOR_COLUMNS, trajectory.monitor_rows()), "result.json": result}
    return (f"{scenario.name}: {result['outcome']} ({result['reason']})", files,
            {k: result["audit"][k] for k in ("H_drift_rel", "L_drift_max")})


def _cmd_equilibria(scenario, phases):
    """Solve the scenario's relative equilibrium and its spectrum: equilibrium.json."""
    with _phase(phases, "solve"):
        L0, state0, omega0 = scenario.equilibrium_seed()
        eq = solve_relative_equilibrium(
            scenario.body, scenario.material, L0, state0=state0, omega0=omega0
        )
    with _phase(phases, "spectrum"):
        report = nondegeneracy_spectrum(scenario.body, scenario.material, eq)
    doc = asdict(eq)
    doc["spectrum"] = {**asdict(report), "nondegenerate": report.nondegenerate}
    doc["config_sha256"] = scenario.config_hash()
    summary = (
        f"{scenario.name}: relative equilibrium at radius {eq.orbit_radius:.6g}, "
        f"residual {eq.residual_norm:.3e}, "
        f"{'nondegenerate' if report.nondegenerate else 'degenerate'}"
    )
    return summary, {"equilibrium.json": doc}, {}


_CATALOG_COLUMNS = (
    "index", "radial_index", "radial_sign", "normal_index", "normal_sign",
    "spin_rate", "energy", "L_z", "res_force_norm", "res_torque_norm",
    "n_negative", "n_zero", "n_positive", "stable",
)
_FAMILY_FIELDS = ("radial_axis", "normal_axis", "rotation", "barycenter", "omega", "energy",
                  "angular_momentum", "stable")  # catalog.json, per family, with eigenvalues


def _cmd_catalog(scenario, phases):
    """The 24 rigid synchronous families at the orbit radius: catalog.csv and catalog.json."""
    if not isinstance(scenario.initial, OrbitalStart):
        raise ConfigError("catalog needs initial.kind orbital to fix the orbit radius")
    radius = scenario.initial.orbit_radius
    with _phase(phases, "catalog"):
        entries = rigid_quadrupole_catalog(scenario.body, scenario.material, radius)

    rows = [
        [i, *e.radial_axis, *e.normal_axis, e.spin_rate, e.energy, e.angular_momentum[2],
         np.linalg.norm(e.res_force), np.linalg.norm(e.res_torque),
         e.spectrum.n_negative, e.spectrum.n_zero, e.spectrum.n_positive, int(e.stable)]
        for i, e in enumerate(entries)
    ]
    doc = {
        "config_sha256": scenario.config_hash(),
        "orbit_radius": radius,
        "families": [{**{k: getattr(e, k) for k in _FAMILY_FIELDS},
                      "eigenvalues": e.spectrum.eigenvalues} for e in entries],
    }
    n_stable = sum(1 for e in entries if e.stable)
    summary = (f"{scenario.name}: {len(entries)} rigid families at radius {radius:g}, "
               f"{n_stable} energetically stable")
    return summary, {"catalog.csv": (_CATALOG_COLUMNS, rows), "catalog.json": doc}, {}


_SUMMARY_COLUMNS = ("index", "value", "outcome", "termination", "reason",
                    "H_final", "L_z_final", "t_final")


def _run_sweep_point(payload):
    """Simulate one sweep point into outdir/point-NNN; returns its summary.csv row.
    A point that fails writes error.json, and its row has empty final values."""
    index, value, doc, outdir_str = payload
    outdir = Path(outdir_str) / f"point-{index:03d}"
    row = [index, json.dumps(value)]
    try:
        scenario = scenario_from_mapping(doc)
        outdir.mkdir(parents=True, exist_ok=True)
        _write(outdir, {"config.json": doc})
        _, files, _ = _cmd_simulate(scenario, {})
        _write(outdir, files)
    except ElastisatError as exc:
        outdir.mkdir(parents=True, exist_ok=True)
        _write(outdir, {"error.json": {"index": index, "error": str(exc),
                                       "error_type": type(exc).__name__}})
        return row + ["error", "", str(exc), None, None, None]
    result = files["result.json"]
    return row + [result["outcome"], result["termination"], result["reason"],
                  result["final"]["H"], result["final"]["L"][2], result["t_final"]]


def _cmd_sweep(args) -> int:
    started = time.perf_counter()
    phases = {}
    with _phase(phases, "load"):
        base, parameter, values = load_sweep(args.config)
    outdir = _output_dir(args.out)

    with _phase(phases, "points"):
        payloads = [(i, value, sweep_point(base, parameter, value, i), str(outdir))
                    for i, value in enumerate(values)]
        workers = min(args.workers, len(payloads))  # the pool forks all its workers up front
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_run_sweep_point, payloads))
        else:
            rows = [_run_sweep_point(p) for p in payloads]

    sweep_hash = hashlib.sha256(
        json.dumps({"base": base, "parameter": parameter, "values": values},
                   sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    counts = Counter(row[2] for row in rows)
    summary = f"sweep over {parameter}: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items()))
    return _finish(outdir, sweep_hash, {"summary.csv": (_SUMMARY_COLUMNS, rows)},
                   started, phases, summary, {})


# (name, help, what main calls with the parsed arguments)
_COMMANDS = (
    ("simulate", "integrate one scenario and classify the outcome", partial(_run, _cmd_simulate)),
    ("equilibria", "solve a relative equilibrium and its spectrum", partial(_run, _cmd_equilibria)),
    ("catalog", "enumerate the 24 rigid synchronous families", partial(_run, _cmd_catalog)),
    ("sweep", "run a parameter sweep of simulate", _cmd_sweep),
)


def _workers(text: str) -> int:
    """--workers: a whole number of processes, at least 1; argparse exits 2 on anything else."""
    if (n := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastisat",
        description="Galerkin-reduced dissipative elastic satellite simulator",
    )
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        if func is _cmd_sweep:
            sp.add_argument("--workers", type=_workers, default=1)
        sp.set_defaults(func=func)
    return parser


_PARSER = build_parser()  # built once per process; parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except ElastisatError as exc:
        trace = getattr(exc, "residual_trace", None)
        if trace:
            log.error("run failed: %s (residual trace: %s)", exc,
                      ", ".join(f"{v:.3e}" for v in trace))
        else:
            log.error("run failed: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
