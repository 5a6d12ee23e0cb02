"""Fast check of the benchmark's own code (about a second; runs no workload).

    python3 perfbench/selftest.py     # from the repository root

Checks that BENCHMARK.json names exactly the workloads and metrics the
code produces, that every name is well formed, that generators are
deterministic per seed and differ between seeds, and that a traced name
which no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert spec["command"] == ["python3", "perfbench/run.py"], spec["command"]
    assert spec["paths"] == ["perfbench"], spec["paths"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]], w["name"]
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for m in spec["end_to_end"]:
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25, m
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]), setup
    names = [w["name"] for w in spec["workloads"]] + list(run.END_TO_END) + list(run.PER_LAYER)
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names)), "duplicate name"


def _fake_result(traced_rounds):
    rounds = [{"traced": i % 2 == 1, "latencies": [0.5 + 0.01 * i, 0.7], "sim_tu": 20.0,
               "refs": [run.NOMINAL_S, run.NOMINAL_S, 3.0 * run.NOMINAL_S]}
              for i in range(3)]
    return {"setup": {"setup_s": 0.9, "refs": [run.NOMINAL_S]}, "rounds": rounds, "attempted": 6, "failed": 0, "failures": [],
            "peak_rss_mb": 90.0, "absent": [],
            "layers": tracing.layer_metrics(traced_rounds, [])}


def check_metrics_produced():
    spans = [["cli.main", 0.0, 1.0, -1, None],
             ["cli.integrate", 0.1, 0.9, 0, {"n": 21}],
             ["dynamics.solve_ivp", 0.1, 0.8, 1, {"nfev": 300, "njev": 0, "tu": 20.0}]]
    result = _fake_result([spans])
    for workload in workloads.WORKLOADS:
        e2e = run.end_to_end(result, [0.9, 1.0, 1.1], workload)
        assert set(e2e) == set(run.END_TO_END), set(e2e) ^ set(run.END_TO_END)
        assert all(v > 0 for v in e2e.values()), e2e
    # Each latency is scaled by the mean reference time around it.
    assert run.calibrated(result["rounds"][0]) == [0.5, 0.35]
    layers = run.per_layer(result)
    assert set(layers) == set(run.PER_LAYER), set(layers) ^ set(run.PER_LAYER)
    assert layers["dynamics.rhs_calls_per_tu"] == 15.0
    assert abs(layers["cli.self_s"] - 0.2) < 1e-12
    assert abs(layers["dynamics.monitors_ms_per_sample"] - 1e3 * 0.1 / 21) < 1e-12


def check_generators():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 7)
        assert first == workloads.generate(workload, 7), workload
        assert first != workloads.generate(workload, 8), workload
        assert len(first) == len(workloads.generate(workload, 8)), workload
        assert all(op["expect"] and op["command"] in ("simulate", "equilibria", "catalog")
                   for op in first), workload
    bands = {op["expect"] for op in workloads.generate("outcomes", 3)}
    assert bands == {"Impact", "Undetermined", "Unbounded"}, bands
    commands = {op["command"] for op in workloads.generate("solver", 3)}
    assert commands == {"equilibria", "catalog"}, commands
    assert workloads.tail_percentile("solver") < 100


def check_absent_hook():
    saved = tracing.HOOKS
    tracing.HOOKS = saved + (("elastisat.cli", "no_such_name", None),
                             ("elastisat.no_such_module", "f", None))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        from elastisat import cli

        assert cli.integrate.__wrapped__ is not None
    finally:
        tracer.uninstall()
        tracing.HOOKS = saved
    assert not hasattr(cli.integrate, "__wrapped__"), "wrapper left installed"
    assert tracer.absent == ["cli.no_such_name", "no_such_module.f"], tracer.absent
    layers = tracing.layer_metrics([[]], ["dynamics.solve_ivp"])
    assert "dynamics.ode_s" not in layers and "dynamics.integrate_s" in layers


def main() -> int:
    checks = [check_benchmark_json, check_metrics_produced, check_generators, check_absent_hook]
    failed = 0
    for check in checks:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
