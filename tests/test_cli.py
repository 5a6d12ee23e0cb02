"""End-to-end checks of the command-line interface.

Commands run in-process through main(argv) so exit codes and outputs are
observable without spawning interpreters; one smoke test goes through
`python -m elastisat` to prove the packaging wiring, and fresh
interpreters show which modules an import or a command loads.
"""

import csv
import datetime
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import elastisat
from elastisat import cli
from elastisat.cli import main
from elastisat.dynamics import MONITOR_COLUMNS

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _write(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _orbital_doc(**over):
    doc = {
        "name": "cli-test",
        "body": {"semi_axes": [1.0, 0.85, 0.6]},
        "viscosity": {"eta": 0.1},
        "initial": {"kind": "orbital", "orbit_radius": 3.0},
        "integrator": {"t_end": 2.0, "record_every": 0.5, "rel_tol": 1e-8, "abs_tol": 1e-10},
    }
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(doc.get(key), dict):
            doc[key].update(val)
        else:
            doc[key] = val
    return doc


def test_simulate_writes_monitors_result_and_manifest(tmp_path, capsys):
    cfg = _write(tmp_path / "run.yaml", _orbital_doc())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "cli-test:" in capsys.readouterr().out

    with open(out / "monitors.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == MONITOR_COLUMNS
    result = json.loads((out / "result.json").read_text())
    assert len(rows) - 1 == result["samples"]
    assert result["outcome"] in ("SynchronousCapture", "Impact", "Unbounded", "Undetermined")
    assert result["termination"] == "completed"
    assert result["thresholds"]["cdot_max"] == 1e-6
    assert result["audit"]["L_drift_max"] < 1e-8
    assert result["counters"]["nfev"] > 0
    assert result["counters"]["njev"] == 0  # DOP853 uses no Jacobian

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "elastisat"
    assert manifest["config_sha256"] == result["config_sha256"]
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert manifest["wall_time_s"] > 0.0
    # wall time per phase, in the manifest only (the other outputs stay deterministic)
    phases = manifest["phases_s"]
    assert set(phases) == {"load", "initial_state", "integrate", "classify", "write"}
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= manifest["wall_time_s"]
    assert "phases_s" not in result


PHASES = {
    "simulate": {"load", "initial_state", "integrate", "classify", "write"},
    "equilibria": {"load", "solve", "spectrum", "write"},
    "catalog": {"load", "catalog", "write"},
    "sweep": {"load", "points", "write"},
}


@pytest.mark.parametrize("command", list(PHASES))
def test_manifest_hashes_every_output_and_times_each_phase(tmp_path, command):
    doc = _orbital_doc(integrator={"t_end": 0.5, "record_every": 0.25})
    if command == "sweep":
        doc = {"base": doc, "sweep": {"parameter": "integrator.t_end", "values": [0.5, 0.25]}}
    cfg = _write(tmp_path / "run.yaml", doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    phases = manifest["phases_s"]
    assert set(phases) == PHASES[command]
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= manifest["wall_time_s"]


def test_main_parses_with_the_parser_built_at_import(tmp_path, monkeypatch):
    def rebuilt():
        raise AssertionError("build_parser runs once per process, at import")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    cfg = _write(tmp_path / "eq.yaml", _orbital_doc())
    assert main(["equilibria", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_simulate_conservative_manifest_reports_energy_drift(tmp_path):
    doc = _orbital_doc(
        viscosity={"eta": 0.0},
        integrator={"t_end": 5.0, "record_every": 0.5, "rel_tol": 1e-10, "abs_tol": 1e-12},
    )
    cfg = _write(tmp_path / "cons.yaml", doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["H_drift_rel"] < 1e-8
    assert manifest["L_drift_max"] < 1e-8


def test_simulate_is_byte_deterministic(tmp_path):
    doc = _orbital_doc(seed=42)
    doc["initial"]["jitter"] = 1e-3
    cfg = _write(tmp_path / "run.yaml", doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("monitors.csv", "result.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_errors_exit_2(tmp_path):
    out = str(tmp_path / "out")
    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("initial: [unclosed\n")
    assert main(["simulate", "--config", str(bad_yaml), "--out", out]) == 2

    doc = _orbital_doc()
    doc["typo_section"] = {}
    cfg = _write(tmp_path / "unknown.yaml", doc)
    assert main(["simulate", "--config", cfg, "--out", out]) == 2

    # a step bound of zero is rejected when the scenario loads, not by the solver
    cfg = _write(tmp_path / "step.yaml", _orbital_doc(integrator={"max_step": 0.0}))
    assert main(["simulate", "--config", cfg, "--out", out]) == 2

    missing = str(tmp_path / "nope.yaml")
    assert main(["simulate", "--config", missing, "--out", out]) == 2

    # a file that is not UTF-8 text, and a directory, are configuration errors too
    not_text = tmp_path / "binary.yaml"
    not_text.write_bytes(b"name: \xff\xfe\n")
    assert main(["simulate", "--config", str(not_text), "--out", out]) == 2
    assert main(["simulate", "--config", str(tmp_path), "--out", out]) == 2

    # values that would crash or hang a run are rejected when the scenario loads:
    # an infinite lam, eta or self_gravity_k made the kernel NaN at t = 0 and
    # DOP853 never ended; an infinite kM, density or semi-axis raised ValueError
    inf = float("inf")
    for section, key, value in [
        ("classifier", "window_periods", -1.0), ("classifier", "cdot_max", float("nan")),
        ("integrator", "t_end", float("nan")), ("integrator", "t_end", inf),
        ("integrator", "record_every", float("nan")), ("integrator", "rel_tol", float("nan")),
        ("material", "lam", inf), ("material", "kM", inf), ("material", "self_gravity_k", inf),
        ("viscosity", "eta", inf), ("body", "density", inf),
        ("body", "semi_axes", [1.0, inf, 0.6]),
    ]:
        cfg = _write(tmp_path / "value.yaml", _orbital_doc(**{section: {key: value}}))
        assert main(["simulate", "--config", cfg, "--out", out]) == 2, (section, key, value)

    # an infinite initial value is rejected when the scenario loads, not by solve_ivp
    n_modes = 12
    for initial in [
        {"orbit_radius": inf}, {"spin_rate": -inf}, {"tangential_factor": inf},
        {"radial_velocity": inf},
        {"kind": "equilibrium", "orbit_radius": None, "L0": [0.0, 0.0, inf]},
        {"kind": "explicit", "orbit_radius": None, "q": [inf] + [0.0] * (n_modes - 1),
         "qdot": [0.0] * n_modes},
        {"kind": "explicit", "orbit_radius": None, "q": [1.0] * n_modes,
         "qdot": [0.0] * (n_modes - 1) + [-inf]},
    ]:
        doc = _orbital_doc(initial=initial)
        doc["initial"] = {k: v for k, v in doc["initial"].items() if v is not None}
        cfg = _write(tmp_path / "initial.yaml", doc)
        assert main(["simulate", "--config", cfg, "--out", out]) == 2, initial
    # a zero L0 has no relative equilibrium; both commands that solve for one
    # reject it when the scenario loads, where it used to fail the run (exit 3)
    doc = _orbital_doc(initial={"kind": "equilibrium", "L0": [0.0, 0.0, 0.0]})
    del doc["initial"]["orbit_radius"]
    cfg = _write(tmp_path / "zero_L0.yaml", doc)
    for command in ("simulate", "equilibria"):
        assert main([command, "--config", cfg, "--out", out]) == 2, command
    # an unbounded step stays legal
    cfg = _write(tmp_path / "step_inf.yaml", _orbital_doc(integrator={"max_step": inf}))
    assert main(["simulate", "--config", cfg, "--out", out]) == 0

    # catalog requires an orbital initial section to fix the radius
    eq_doc = _orbital_doc(initial={"kind": "equilibrium", "orbit_radius": 3.0})
    cfg = _write(tmp_path / "eq.yaml", eq_doc)
    assert main(["catalog", "--config", cfg, "--out", out]) == 2

    sweep = {
        "base": _orbital_doc(),
        "sweep": {"parameter": "initial.tangential_factor", "values": []},
    }
    cfg = _write(tmp_path / "sweep.yaml", sweep)
    assert main(["sweep", "--config", cfg, "--out", out]) == 2


@pytest.mark.parametrize("command", ["simulate", "equilibria", "catalog", "sweep"])
def test_out_path_that_cannot_be_a_directory_exits_2(tmp_path, command):
    doc = _orbital_doc()
    if command == "sweep":
        doc = {"base": doc, "sweep": {"parameter": "integrator.t_end", "values": [1.0]}}
    cfg = _write(tmp_path / "run.yaml", doc)
    existing = tmp_path / "existing.txt"
    existing.write_text("kept\n")
    # an existing file, and a path below one, cannot hold the outputs
    for out in (existing, existing / "out"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2, out
    assert existing.read_text() == "kept\n"


def test_debug_log_names_the_event_and_leaves_outputs_unchanged(tmp_path, caplog):
    cfg = str(SCENARIOS / "impact.yaml")
    quiet, loud = tmp_path / "quiet", tmp_path / "debug"
    assert main(["simulate", "--config", cfg, "--out", str(quiet)]) == 0
    with caplog.at_level("DEBUG", logger="elastisat.dynamics"):
        assert main(["--log-level", "debug", "simulate", "--config", cfg, "--out", str(loud)]) == 0
    hits = [r.getMessage() for r in caplog.records if r.name == "elastisat.dynamics"]
    # one line counts the run's steps, one names the event
    assert len(hits) == 2 and hits[0].startswith("DOP853 run: ")
    assert hits[1].startswith("impact_event fired at t = ")
    t_hit = float(hits[1].split("t = ")[1].split(":")[0])
    assert t_hit == json.loads((loud / "result.json").read_text())["t_final"]
    for name in ("monitors.csv", "result.json"):
        assert (quiet / name).read_bytes() == (loud / name).read_bytes()


def test_singular_run_is_undetermined_and_keeps_its_regular_samples(tmp_path):
    # a soft body squeezed along x at rate 3 reaches det(Dzeta) = 0 near t = 1/3;
    # the singular event state has no monitors, so it is not recorded
    q = [20.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    qdot = [0.0, float(np.sqrt(1.0 / 20.0)), 0.0, -3.0] + [0.0] * 8
    doc = _orbital_doc(
        material={"epsilon": 50.0},
        viscosity={"eta": 0.0},
        integrator={"t_end": 5.0, "record_every": 0.05},
    )
    doc["initial"] = {"kind": "explicit", "q": q, "qdot": qdot}
    cfg = _write(tmp_path / "singular.yaml", doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["outcome"] == "Undetermined"
    assert result["termination"] == "step-failure"
    assert "singular" in result["termination_reason"]
    assert " at t = 0.33" in result["termination_reason"]
    assert result["t_final"] < 0.334
    with open(out / "monitors.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == result["samples"]
    assert np.all(np.isfinite(np.array(rows, dtype=float)))


def test_failed_runs_exit_3(tmp_path, caplog):
    # a momentum target far below any orbit admits no relative equilibrium
    doc = _orbital_doc()
    doc["initial"] = {"kind": "equilibrium", "L0": [0.0, 0.0, 0.5]}
    cfg = _write(tmp_path / "hostile.yaml", doc)
    with caplog.at_level("ERROR", logger="elastisat"):
        assert main(["equilibria", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "residual trace" in caplog.text


def test_degenerate_catalog_exits_3(tmp_path):
    doc = _orbital_doc(body={"semi_axes": [1.0, 1.0, 0.6]})
    cfg = _write(tmp_path / "axisym.yaml", doc)
    assert main(["catalog", "--config", cfg, "--out", str(tmp_path / "out")]) == 3


def test_catalog_without_a_real_spin_rate_exits_3(tmp_path, caplog):
    cfg = _write(tmp_path / "close.yaml",
                 _orbital_doc(initial={"kind": "orbital", "orbit_radius": 0.5}))
    with caplog.at_level("ERROR", logger="elastisat"):
        assert main(["catalog", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "no real spin rate" in caplog.text


def _short_capture_doc(integrator=None, classifier=None):
    """capture.yaml's body, material and start, kicked by 1e-6 and classified at t = 30."""
    return {
        "name": "short-capture",
        "body": {"semi_axes": [1.0, 0.85, 0.6]},
        "material": {"epsilon": 3.0},
        "viscosity": {"eta": 1.2},
        "initial": {"kind": "equilibrium", "orbit_radius": 2.5, "spin_boost": 1.000001},
        "integrator": {"t_end": 30.0, "record_every": 1.25, **(integrator or {})},
        "classifier": {"window_periods": 1.25, **(classifier or {})},
    }


def _escape_doc():
    """sweep_speed.yaml's base, bound (factor 1.2) but past a ceiling of 10 by t = 150."""
    doc = yaml.safe_load((SCENARIOS / "sweep_speed.yaml").read_text())["base"]
    doc["initial"]["tangential_factor"] = 1.2
    doc["integrator"].update(escape_radius=10.0, t_end=150.0)
    return doc


@pytest.mark.parametrize("doc, reason, evidence", [
    (_escape_doc(), "escape ceiling crossed but two-body energy -0.120917 is negative", False),
    (_short_capture_doc(integrator={"record_every": 5.0}),
     "capture assessment impossible: only 5 samples", False),
    (_short_capture_doc(classifier={"shape_residual": 1e-12}),
     "group-orbit shape residual 2.445e-07 is not below 1.000e-12", True),
], ids=["bound-escape", "few-samples", "gate-after-newton"])
def test_undetermined_verdicts_name_the_failing_check(tmp_path, doc, reason, evidence):
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path / "run.yaml", doc),
                 "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["outcome"] == "Undetermined"
    assert result["reason"].startswith(reason)
    # metrics and the matched equilibrium are reported once Newton has run
    assert (result["metrics"] is not None, result["equilibrium"] is not None) == (evidence,) * 2


def _assert_residual_trace(eq_doc):
    # one 2-norm before the first step and one per accepted step; the last
    # iteration finds the residual below tol and takes no step
    trace = eq_doc["residual_trace"]
    assert len(trace) == eq_doc["iterations"]
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert eq_doc["residual_norm"] <= trace[-1]


def test_equilibria_solves_and_reports_spectrum(tmp_path, capsys):
    cfg = _write(tmp_path / "eq.yaml", _orbital_doc())
    out = tmp_path / "out"
    assert main(["equilibria", "--config", cfg, "--out", str(out)]) == 0
    assert "nondegenerate" in capsys.readouterr().out
    doc = json.loads((out / "equilibrium.json").read_text())
    assert doc["residual_norm"] < 1e-10
    assert doc["iterations"] > 1
    _assert_residual_trace(doc)
    # the quadrupole correction pulls the synchronous radius inside Kepler
    assert 2.5 < doc["orbit_radius"] < 3.0
    assert doc["spectrum"]["nondegenerate"] is True
    assert doc["spectrum"]["n_zero"] == 0
    assert len(doc["q"]) == 12


def test_simulate_writes_the_matched_equilibrium_with_its_trace(tmp_path):
    # a run that starts on a relative equilibrium reaches the classifier's
    # Newton solve, whose result lands in result.json
    doc = _orbital_doc(initial={"kind": "equilibrium", "orbit_radius": 3.0},
                       integrator={"record_every": 0.1},
                       classifier={"window_periods": 0.05})
    cfg = _write(tmp_path / "eq.yaml", doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["equilibrium"] is not None
    _assert_residual_trace(result["equilibrium"])


def test_equilibria_accepts_an_equilibrium_scenario_with_orbit_radius(tmp_path, capsys):
    # kind equilibrium with orbit_radius (and no L0) seeds Newton from the
    # synchronous guess, as the simulate command's initial state does
    out = tmp_path / "out"
    assert main(["equilibria", "--config", str(SCENARIOS / "capture.yaml"),
                 "--out", str(out)]) == 0
    assert "capture: relative equilibrium" in capsys.readouterr().out
    doc = json.loads((out / "equilibrium.json").read_text())
    assert doc["residual_norm"] < 1e-10
    assert 2.0 < doc["orbit_radius"] < 2.5
    assert len(doc["q"]) == 12


def test_catalog_enumerates_24_families(tmp_path, capsys):
    cfg = _write(tmp_path / "cat.yaml", _orbital_doc())
    out = tmp_path / "out"
    assert main(["catalog", "--config", cfg, "--out", str(out)]) == 0
    assert "24 rigid families" in capsys.readouterr().out
    with open(out / "catalog.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24
    assert sum(int(r["stable"]) for r in rows) == 4
    assert all(float(r["res_force_norm"]) < 1e-10 for r in rows)
    doc = json.loads((out / "catalog.json").read_text())
    assert len(doc["families"]) == 24


def test_sweep_outcomes_and_worker_determinism(tmp_path):
    sweep = {
        "base": _orbital_doc(
            initial={"kind": "orbital", "orbit_radius": 5.0},
            integrator={
                "t_end": 40.0, "record_every": 1.0,
                "impact_radius": 1.0, "escape_radius": 12.0,
                "rel_tol": 1e-8, "abs_tol": 1e-10,
            },
        ),
        "sweep": {"parameter": "initial.tangential_factor", "values": [0.3, 2.0]},
    }
    cfg = _write(tmp_path / "sweep.yaml", sweep)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    with open(out1 / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["outcome"] for r in rows] == ["Impact", "Unbounded"]
    assert [r["value"] for r in rows] == ["0.3", "2.0"]
    for i in range(2):
        assert (out1 / f"point-{i:03d}" / "result.json").exists()
        assert (out1 / f"point-{i:03d}" / "config.json").exists()


@pytest.mark.parametrize("values, pools", [([1.0, 2.0], [2]), ([1.0], [])])
def test_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch, values, pools):
    # the pool forks every worker it is given up front, so --workers 64
    # on two points starts two, and on one point the sweep runs serially
    import concurrent.futures

    made = []

    class RecordingPool:
        """ProcessPoolExecutor's stand-in: records max_workers and maps in this process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    sweep = {"base": _orbital_doc(integrator={"t_end": 0.5, "record_every": 0.25}),
             "sweep": {"parameter": "integrator.t_end", "values": values}}
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write(tmp_path / "sweep.yaml", sweep),
                 "--out", str(out), "--workers", "64"]) == 0
    assert made == pools
    assert len((out / "summary.csv").read_text().splitlines()) == 1 + len(values)


def test_swept_seed_is_the_seed_each_point_runs(tmp_path):
    # the seed advances by the point index only when another key is swept
    sweep = {"base": _orbital_doc(seed=3, integrator={"t_end": 0.5, "record_every": 0.25}),
             "sweep": {"parameter": "seed", "values": [7, 7, 9]}}
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write(tmp_path / "sweep.yaml", sweep),
                 "--out", str(out)]) == 0
    seeds = [json.loads((out / f"point-{i:03d}" / "config.json").read_text())["seed"]
             for i in range(3)]
    assert seeds == [7, 7, 9]
    with open(out / "summary.csv", newline="") as fh:
        assert [row["value"] for row in csv.DictReader(fh)] == ["7", "7", "9"]


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_sweep_workers_below_one_exit_2(tmp_path, capsys, workers):
    # a worker count below 1 used to run the points serially and exit 0;
    # the parser rejects it, a configuration error, before any point runs
    sweep = {"base": _orbital_doc(), "sweep": {"parameter": "integrator.t_end", "values": [1.0]}}
    cfg = _write(tmp_path / "sweep.yaml", sweep)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", cfg, "--out", str(out), "--workers", workers])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_survives_a_bad_point(tmp_path):
    # only the first value is validated up front; later failures become rows
    sweep = {
        "base": _orbital_doc(integrator={"t_end": 0.5, "record_every": 0.25}),
        "sweep": {"parameter": "material.epsilon", "values": [1.0, -1.0]},
    }
    cfg = _write(tmp_path / "sweep.yaml", sweep)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["outcome"] == "Undetermined"
    assert rows[1]["outcome"] == "error"
    assert [rows[1][k] for k in ("termination", "H_final", "L_z_final", "t_final")] == [""] * 4
    error = json.loads((out / "point-001" / "error.json").read_text())
    assert error["index"] == 1
    assert error["error_type"] == "ConfigError"
    assert "epsilon" in error["error"]


def test_rel_tol_below_the_floor_is_a_config_error(tmp_path):
    # below 100 machine epsilons the step control would have raised rel_tol
    # itself and only warned; the scenario is rejected instead
    floor = 100 * np.finfo(float).eps
    out = str(tmp_path / "out")
    for rel_tol, code in [(1e-15, 2), (np.nextafter(floor, 0.0), 2), (floor, 0)]:
        doc = _orbital_doc(integrator={"rel_tol": float(rel_tol), "t_end": 0.1,
                                       "record_every": 0.05})
        cfg = _write(tmp_path / "run.yaml", doc)
        assert main(["simulate", "--config", cfg, "--out", out]) == code, rel_tol
    sweep = {
        "base": _orbital_doc(integrator={"t_end": 0.5, "record_every": 0.25}),
        "sweep": {"parameter": "integrator.rel_tol", "values": [1e-8, 1e-15]},
    }
    cfg = _write(tmp_path / "sweep.yaml", sweep)
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    with open(Path(out) / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["outcome"] for r in rows] == ["Undetermined", "error"]
    error = json.loads((Path(out) / "point-001" / "error.json").read_text())
    assert error["error_type"] == "ConfigError"
    assert "rel_tol" in error["error"]


def test_sweep_point_with_an_infinite_value_is_an_error_row(tmp_path):
    # every point is validated when it runs: an infinite lam at point 1 used to hang the sweep
    sweep = {
        "base": _orbital_doc(integrator={"t_end": 0.5, "record_every": 0.25}),
        "sweep": {"parameter": "material.lam", "values": [1.0, float("inf")]},
    }
    cfg = _write(tmp_path / "sweep.yaml", sweep)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["outcome"] for r in rows] == ["Undetermined", "error"]
    error = json.loads((out / "point-001" / "error.json").read_text())
    assert error["error_type"] == "ConfigError"
    assert "material.lam" in error["error"]
    assert not (out / "point-001" / "result.json").exists()


def test_a_start_beyond_the_escape_ceiling_exits_3_and_is_an_error_row(tmp_path, caplog):
    doc = _orbital_doc(initial={"orbit_radius": 20.0},
                       integrator={"t_end": 50.0, "escape_radius": 10.0})
    cfg = _write(tmp_path / "far.yaml", doc)
    with caplog.at_level("ERROR", logger="elastisat"):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "barycenter at distance 20 is at or beyond the escape radius 10" in caplog.text
    sweep = {"base": _orbital_doc(integrator={"t_end": 0.5, "escape_radius": 10.0}),
             "sweep": {"parameter": "initial.orbit_radius", "values": [3.0, 20.0]}}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _write(tmp_path / "sweep.yaml", sweep),
                 "--out", str(out)]) == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["outcome"] for r in rows] == ["Undetermined", "error"]
    error = json.loads((out / "point-001" / "error.json").read_text())
    assert error["error_type"] == "InvalidParameterError"
    assert "escape radius" in error["error"]


@pytest.mark.parametrize("seed, parameter, values", [
    ("x", "viscosity.eta", [0.1]), (True, "viscosity.eta", [0.1]), (None, "seed", [1.7])])
def test_sweep_with_a_seed_that_is_no_integer_exits_2(tmp_path, caplog, seed, parameter, values):
    # the sweep advances only an integer seed; any other reaches validation as it is
    sweep = {"base": _orbital_doc(seed=seed), "sweep": {"parameter": parameter, "values": values}}
    out = tmp_path / "out"
    with caplog.at_level("ERROR", logger="elastisat"):
        assert main(["sweep", "--config", _write(tmp_path / "sweep.yaml", sweep),
                     "--out", str(out)]) == 2
    assert "seed must be an integer" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("where", ["values", "base"])
def test_sweep_rejects_data_json_cannot_encode(tmp_path, where):
    # a YAML date past index 0 used to crash the summary's json.dumps (exit 1)
    base = _orbital_doc(integrator={"t_end": 0.5, "record_every": 0.25})
    values = [0.5, datetime.date(2020, 1, 1)]
    if where == "base":
        base["initial"]["rotation_angle"] = datetime.date(2020, 1, 1)
        values = [0.5, 0.75]
    sweep = {"base": base, "sweep": {"parameter": "integrator.t_end", "values": values}}
    cfg = _write(tmp_path / "sweep.yaml", sweep)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_module_entrypoint_smoke(tmp_path):
    cfg = _write(tmp_path / "run.yaml", _orbital_doc(integrator={"t_end": 0.5}))
    proc = subprocess.run(
        [sys.executable, "-m", "elastisat", "simulate",
         "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cli-test:" in proc.stdout


_LOADED_AFTER = """
import json, sys
{run}
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
                        or m == "concurrent.futures.process")))
"""


@pytest.mark.parametrize("command", ["import", "equilibria", "catalog", "simulate"])
def test_import_equilibria_and_catalog_load_no_scipy(tmp_path, command):
    # no command loads scipy: the integrator, its dense output and its event
    # root finder are the program's own, and simulate runs impact.yaml, where
    # an event fires.  Only a sweep with workers loads multiprocessing.  Each
    # case runs in a fresh interpreter.
    out = tmp_path / "out"
    if command == "import":
        run = "import elastisat"
    else:
        if command == "simulate":
            cfg = str(SCENARIOS / "impact.yaml")
        else:
            cfg = _write(tmp_path / "run.yaml", _orbital_doc())
        run = (f"from elastisat.cli import main\n"
               f"assert main([{command!r}, '--config', {cfg!r}, '--out', {str(out)!r}]) == 0")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER.format(run=run)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    if command != "import":
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == elastisat.__version__
    if command == "simulate":
        result = json.loads((out / "result.json").read_text())
        assert result["termination"] == "impact-detected"


def test_all_is_every_public_name_the_package_binds():
    public = sorted(name for name in vars(elastisat)
                    if not name.startswith("_")
                    and not isinstance(getattr(elastisat, name), type(elastisat)))
    assert elastisat.__all__ == public
    star = {}
    exec("from elastisat import *", star)  # every listed name resolves
    assert sorted(star.keys() - {"__builtins__"}) == public
