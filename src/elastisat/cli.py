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
import json
import logging
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .classifier import classify_outcome
from .dynamics import MONITOR_COLUMNS, integrate
from .equilibria import (
    nondegeneracy_spectrum,
    rigid_quadrupole_catalog,
    solve_relative_equilibrium,
)
from .errors import ConfigError, ElastisatError
from .scenario import Scenario, load_scenario, load_sweep, scenario_from_mapping, sweep_point

log = logging.getLogger("elastisat")

try:
    from importlib.metadata import version as _pkg_version

    _VERSION = _pkg_version("elastisat")
except Exception:  # pragma: no cover - not installed
    _VERSION = "unknown"


def _jsonable(obj):
    """Recursively convert numpy scalars and arrays into plain json values."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n")


def _write_monitor_csv(path: Path, trajectory):
    rows = trajectory.monitor_rows()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MONITOR_COLUMNS)
        for row in rows:
            writer.writerow([repr(float(x)) for x in row])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, config_hash: str, outputs, wall_time: float, extra=None):
    manifest = {
        "tool": "elastisat",
        "version": _VERSION,
        "config_sha256": config_hash,
        "outputs": {name: _sha256(outdir / name) for name in sorted(outputs)},
        "wall_time_s": wall_time,
    }
    if extra:
        manifest.update(extra)
    _write_json(outdir / "manifest.json", manifest)


def _equilibrium_doc(eq):
    if eq is None:
        return None
    return {
        "q": eq.q,
        "omega": eq.omega,
        "L": eq.L,
        "residual_norm": eq.residual_norm,
        "iterations": eq.iterations,
        "residual_trace": eq.residual_trace,
        "energy": eq.energy,
        "augmented_energy": eq.augmented_energy,
        "orbit_radius": eq.orbit_radius,
    }


def _simulate_scenario(scenario: Scenario, outdir: Path) -> dict:
    """Run one scenario end to end and write monitors.csv + result.json."""
    outdir.mkdir(parents=True, exist_ok=True)
    state0 = scenario.initial_state()
    log.info("integrating %s to t=%g with %s", scenario.name,
             scenario.settings.t_end, scenario.settings.method)
    trajectory = integrate(
        scenario.body, state0, scenario.material, scenario.viscosity, scenario.settings
    )
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
        "equilibrium": _equilibrium_doc(verdict.equilibrium),
        "samples": len(trajectory),
        "t_final": float(trajectory.times[-1]),
        "counters": {"nfev": trajectory.nfev, "njev": trajectory.njev},
        "final": {
            "K": mons.K[-1], "U_g": mons.U_g[-1], "U_sg": mons.U_sg[-1],
            "U_e": mons.U_e[-1], "H": H[-1], "L": L[-1],
            "diss_rate": mons.dissipation_rate[-1],
        },
        "audit": {
            "H_drop": float(H[0] - H[-1]),
            "H_drift_rel": float(np.max(np.abs(H - H[0])) / max(abs(H[0]), 1e-300)),
            "H_increase_max": float(max(0.0, float(np.max(steps)) if steps.size else 0.0)),
            "L_drift_max": float(np.max(np.abs(L - L[0]))),
        },
    }
    _write_monitor_csv(outdir / "monitors.csv", trajectory)
    _write_json(outdir / "result.json", result)
    log.info("%s: %s (%s)", scenario.name, verdict.outcome.value, verdict.reason)
    return result


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    scenario = load_scenario(args.config)
    outdir = Path(args.out)
    result = _simulate_scenario(scenario, outdir)
    _write_manifest(
        outdir, scenario.config_hash(), ["monitors.csv", "result.json"],
        time.perf_counter() - started,
        extra={"H_drift_rel": result["audit"]["H_drift_rel"],
               "L_drift_max": result["audit"]["L_drift_max"]},
    )
    print(f"{scenario.name}: {result['outcome']} ({result['reason']})")
    return 0


def _cmd_equilibria(args) -> int:
    started = time.perf_counter()
    scenario = load_scenario(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    L0, state0, omega0 = scenario.equilibrium_seed()
    eq = solve_relative_equilibrium(
        scenario.body, scenario.material, L0, state0=state0, omega0=omega0
    )
    report = nondegeneracy_spectrum(scenario.body, scenario.material, eq)
    doc = _equilibrium_doc(eq)
    doc["spectrum"] = {
        "eigenvalues": report.eigenvalues,
        "floor": report.floor,
        "n_negative": report.n_negative,
        "n_zero": report.n_zero,
        "n_positive": report.n_positive,
        "nondegenerate": report.nondegenerate,
    }
    doc["config_sha256"] = scenario.config_hash()
    _write_json(outdir / "equilibrium.json", doc)
    _write_manifest(outdir, scenario.config_hash(), ["equilibrium.json"],
                    time.perf_counter() - started)
    print(
        f"{scenario.name}: relative equilibrium at radius {eq.orbit_radius:.6g}, "
        f"residual {eq.residual_norm:.3e}, "
        f"{'nondegenerate' if report.nondegenerate else 'degenerate'}"
    )
    return 0


_CATALOG_COLUMNS = (
    "index", "radial_index", "radial_sign", "normal_index", "normal_sign",
    "spin_rate", "energy", "L_z", "res_force_norm", "res_torque_norm",
    "n_negative", "n_zero", "n_positive", "stable",
)


def _cmd_catalog(args) -> int:
    started = time.perf_counter()
    scenario = load_scenario(args.config)
    if scenario.initial["kind"] != "orbital":
        raise ConfigError("catalog needs initial.kind orbital to fix the orbit radius")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    radius = scenario.initial["orbit_radius"]
    entries = rigid_quadrupole_catalog(scenario.body, scenario.material, radius)

    with open(outdir / "catalog.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CATALOG_COLUMNS)
        for i, e in enumerate(entries):
            writer.writerow([
                i, e.radial_axis[0], e.radial_axis[1], e.normal_axis[0], e.normal_axis[1],
                repr(e.spin_rate), repr(e.energy), repr(float(e.angular_momentum[2])),
                repr(float(np.linalg.norm(e.res_force))),
                repr(float(np.linalg.norm(e.res_torque))),
                e.n_negative, e.n_zero, e.n_positive, int(e.stable),
            ])
    doc = {
        "config_sha256": scenario.config_hash(),
        "orbit_radius": radius,
        "families": [
            {
                "radial_axis": list(e.radial_axis),
                "normal_axis": list(e.normal_axis),
                "rotation": e.rotation,
                "barycenter": e.barycenter,
                "omega": e.omega,
                "energy": e.energy,
                "angular_momentum": e.angular_momentum,
                "eigenvalues": e.eigenvalues,
                "stable": e.stable,
            }
            for e in entries
        ],
    }
    _write_json(outdir / "catalog.json", doc)
    _write_manifest(outdir, scenario.config_hash(), ["catalog.csv", "catalog.json"],
                    time.perf_counter() - started)
    n_stable = sum(1 for e in entries if e.stable)
    print(f"{scenario.name}: {len(entries)} rigid families at radius {radius:g}, "
          f"{n_stable} energetically stable")
    return 0


def _run_sweep_point(payload):
    index, doc, outdir_str = payload
    outdir = Path(outdir_str) / f"point-{index:03d}"
    try:
        scenario = scenario_from_mapping(doc)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "config.json", doc)
        result = _simulate_scenario(scenario, outdir)
        return {
            "index": index,
            "outcome": result["outcome"],
            "termination": result["termination"],
            "reason": result["reason"],
            "H_final": float(result["final"]["H"]),
            "L_z_final": float(result["final"]["L"][2]),
            "t_final": float(result["t_final"]),
        }
    except ElastisatError as exc:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "error.json",
                    {"index": index, "error": str(exc), "error_type": type(exc).__name__})
        return {
            "index": index,
            "outcome": "error",
            "termination": "",
            "reason": str(exc),
            "H_final": None,
            "L_z_final": None,
            "t_final": None,
        }


_SUMMARY_COLUMNS = ("index", "value", "outcome", "termination", "reason",
                    "H_final", "L_z_final", "t_final")


def _cmd_sweep(args) -> int:
    started = time.perf_counter()
    base, parameter, values = load_sweep(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    payloads = [
        (i, sweep_point(base, parameter, value, i), str(outdir))
        for i, value in enumerate(values)
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_run_sweep_point, payloads))
    else:
        rows = [_run_sweep_point(p) for p in payloads]
    rows.sort(key=lambda r: r["index"])

    sweep_hash = hashlib.sha256(
        json.dumps({"base": base, "parameter": parameter, "values": values},
                   sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    with open(outdir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_COLUMNS)
        for row, value in zip(rows, values):
            writer.writerow([
                row["index"], json.dumps(value), row["outcome"], row["termination"],
                row["reason"],
                *("" if row[k] is None else repr(row[k])
                  for k in ("H_final", "L_z_final", "t_final")),
            ])
    _write_manifest(outdir, sweep_hash, ["summary.csv"], time.perf_counter() - started)
    counts = {}
    for row in rows:
        counts[row["outcome"]] = counts.get(row["outcome"], 0) + 1
    print(f"sweep over {parameter}: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastisat",
        description="Galerkin-reduced dissipative elastic satellite simulator",
    )
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="integrate one scenario and classify the outcome")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("equilibria", help="solve a relative equilibrium and its spectrum")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_equilibria)

    sp = sub.add_parser("catalog", help="enumerate the 24 rigid synchronous families")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("sweep", help="run a parameter sweep of simulate")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
