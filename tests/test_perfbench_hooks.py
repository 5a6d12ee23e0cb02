"""The benchmark's per-layer hooks still reach the names they wrap.

perfbench/tracing.py wraps module-level names of the program (HOOKS), the
names through which one layer calls the next.  A refactor that moves or
renames one of them leaves the hook absent, and a traced benchmark run
then drops the per-layer metrics that need it.  This test imports
perfbench's tracing and workloads modules as they are, through sys.path,
and runs one capture, one equilibria, one impact and one escape operation
of the benchmark's own generators under the tracer.
"""

import importlib
import json
import math
from pathlib import Path

import pytest
import yaml

from elastisat import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Spans the two operations must record: the force and residual calls inside
# Newton, the three bindings through which Newton is reached (the
# equilibrium start, the classifier and the equilibria command) and the
# integration loop.
REACHED = (
    "equilibria.conservative_force",
    "equilibria.equilibrium_residual",
    "equilibria.solve_relative_equilibrium",
    "classifier.solve_relative_equilibrium",
    "cli.solve_relative_equilibrium",
    "dynamics.solve_ivp",
)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_every_hook_is_present_and_every_layer_metric_is_finite(tmp_path, perfbench):
    tracing, workloads = perfbench
    ops = [workloads.generate("capture", seed=1)[0],
           next(op for op in workloads.generate("solver", seed=1)
                if op["command"] == "equilibria")]
    ops += [next(op for op in workloads.generate("outcomes", seed=1) if op["expect"] == expect)
            for expect in ("Impact", "Unbounded")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        for i, op in enumerate(ops):
            config = tmp_path / f"op-{i}.yaml"
            config.write_text(yaml.safe_dump(op["doc"], sort_keys=True))
            argv = ["--log-level", "warning", op["command"],
                    "--config", str(config), "--out", str(tmp_path / f"op-{i}")]
            assert cli.main(argv) == 0, op["command"]
    finally:
        tracer.uninstall()
    spans = tracer.take()

    recorded = {span[0] for span in spans}
    assert set(REACHED) <= recorded, set(REACHED) - recorded
    metrics = tracing.layer_metrics([spans], tracer.absent)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    # a run that an event ends counts its simulated time up to the event
    ode = [span[4] for span in spans if span[0] == "dynamics.solve_ivp"]
    for counts, i in zip(ode[1:], (2, 3), strict=True):
        result = json.loads((tmp_path / f"op-{i}" / "result.json").read_text())
        assert result["outcome"] == ops[i]["expect"]
        assert counts["nfev"] > 0 and counts["tu"] == result["t_final"]
