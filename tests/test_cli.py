"""End-to-end checks of the command-line interface.

Commands run in-process through main(argv) so exit codes and outputs are
observable without spawning interpreters; one smoke test goes through
`python -m elastisat` to prove the packaging wiring.
"""

import csv
import datetime
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

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
