"""The output-comparison tool: per-field differences and equilibrium alignment."""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write_run(root, rows, q, note="ok", nfev=100):
    root.mkdir()
    with open(root / "monitors.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "H"])
        writer.writerows(rows)
    doc = {"outcome": note, "counters": {"nfev": nfev},
           "equilibrium": {"q": list(q), "L": [0.0, 0.0, 2.0]}}
    (root / "result.json").write_text(json.dumps(doc))
    (root / "manifest.json").write_text(json.dumps({"wall_time_s": len(note)}))


def test_reports_field_maxima_and_aligns_equilibria(tmp_path, capsys):
    rng = np.random.default_rng(3)
    q = rng.standard_normal(12)
    R = Rotation.from_rotvec([0.0, 0.0, 1e-3]).as_matrix()
    q_rot = (q.reshape(-1, 3) @ R.T).reshape(-1)
    _write_run(tmp_path / "a", [[0.0, -1.0], [1.0, -2.0]], q)
    _write_run(tmp_path / "b", [[0.0, -1.0], [1.0, -2.0 + 4e-16]], q_rot)
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out

    fields, problems, _ = compare_outputs.compare_csv(
        tmp_path / "a" / "monitors.csv", tmp_path / "b" / "monitors.csv")
    assert not problems
    assert fields["t"].max_abs == 0.0
    assert fields["H"].max_abs == abs(-2.0 + 4e-16 + 2.0)
    assert fields["H"].max_rel == fields["H"].max_abs / 2.0

    fields, problems, notes = compare_outputs.compare_json(
        tmp_path / "a" / "result.json", tmp_path / "b" / "result.json")
    assert not problems
    assert fields["equilibrium.q[]"].max_abs > 1e-4  # raw q is a rotation apart
    assert fields["equilibrium.q[] (aligned about L)"].max_abs < 1e-14
    assert "1.000e-03 rad" in notes[0]
    assert "manifest.json" not in out


def test_non_numeric_and_missing_outputs_fail(tmp_path, capsys):
    q = np.arange(12.0)
    _write_run(tmp_path / "a", [[0.0, 1.0]], q, note="Impact")
    _write_run(tmp_path / "b", [[0.0, 1.0]], q, note="Unbounded")
    (tmp_path / "a" / "extra.csv").write_text("x\n1\n")
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "only in A: extra.csv" in out
    assert "'Impact' != 'Unbounded'" in out


def test_bound_fails_fields_that_move_more_than_rel_times_their_scale(tmp_path, capsys):
    q = np.arange(12.0)
    _write_run(tmp_path / "a", [[0.0, -1.0], [1.0, -2.0]], q)
    _write_run(tmp_path / "b", [[0.0, -1.0], [1.0, -2.0 + 1e-9]], q)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert compare_outputs.main([a, b]) == 0  # without the flag, numbers never fail
    assert compare_outputs.main([a, b, "--bound", "1e-8"]) == 0
    capsys.readouterr()
    # H's limit is 1e-10 x max(1, 2): 2e-10 < 1e-9
    assert compare_outputs.main([a, b, "--bound", "1e-10"]) == 1
    out = capsys.readouterr().out
    assert "! H: max_abs 1.000e-09 > 1e-10 x max(1, 2.000e+00)" in out
    assert "! t:" not in out


def test_bound_fails_any_change_of_an_integer_counter(tmp_path, capsys):
    q = np.arange(12.0)
    _write_run(tmp_path / "a", [[0.0, 1.0]], q, nfev=100)
    _write_run(tmp_path / "b", [[0.0, 1.0]], q, nfev=101)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert compare_outputs.main([a, b]) == 0
    # 1 in 101 is well inside a loose relative bound, but counters must match
    assert compare_outputs.main([a, b, "--bound", "0.1"]) == 1
    assert "! counters.nfev: integer values differ by up to 1" in capsys.readouterr().out
