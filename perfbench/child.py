"""Workload process: runs one workload's operations through `elastisat.cli.main`.

Started by run.py, one at a time, with a single-threaded BLAS environment
and `src` on PYTHONPATH.  Two modes:

    child.py setup PLAN.json          time `import elastisat` + first load_scenario
    child.py run PLAN.json OUT.json   run rounds of the plan's operations

A round runs every operation of the plan once.  Rounds repeat until the
plan's seconds have passed and at least `min_rounds` are done, so each
operation is also checked against a byte-identical repeat.  The reference
computation (reference.py) is timed before every operation and after the
last one of a round, and three times after setup.  With tracing
on, odd rounds are traced and even rounds are not: the untraced rounds
give the tracing overhead, and the end-to-end run never wraps anything.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics

# Files each command writes that must repeat byte for byte (the manifest
# carries wall time and is excluded).
OUTPUTS = {
    "simulate": ("monitors.csv", "result.json"),
    "equilibria": ("equilibrium.json",),
    "catalog": ("catalog.csv", "catalog.json"),
}
# ROADMAP audit gates: energy may rise between samples only by round-off
# (relative to the energy scale), and angular momentum drift stays below
# 1e-12.
H_INCREASE_REL = 1e-12
L_DRIFT_MAX = 1e-12


def _verdict(command: str, outdir: Path) -> str:
    """The outcome an operation reached, in the generator's vocabulary."""
    if command == "simulate":
        return json.loads((outdir / "result.json").read_text())["outcome"]
    if command == "equilibria":
        doc = json.loads((outdir / "equilibrium.json").read_text())
        return "nondegenerate" if doc["spectrum"]["nondegenerate"] else "degenerate"
    families = json.loads((outdir / "catalog.json").read_text())["families"]
    return f"{len(families)} families, {sum(1 for f in families if f['stable'])} stable"


def _audit_failure(outdir: Path):
    doc = json.loads((outdir / "result.json").read_text())
    a = doc["audit"]
    scale = max(1.0, abs(doc["final"]["H"] + a["H_drop"]))  # |H| at t = 0
    if not a["H_increase_max"] <= H_INCREASE_REL * scale:
        return f"H_increase_max {a['H_increase_max']:.3e} above round-off"
    if not a["L_drift_max"] < L_DRIFT_MAX:
        return f"L_drift_max {a['L_drift_max']:.3e} not below {L_DRIFT_MAX:g}"
    return None


def _digest(command: str, outdir: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUTS[command]:
        h.update(name.encode())
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


def _check(op: dict, rc, digests: dict, index: int):
    """None when the operation is correct, else why it failed."""
    if rc != 0:
        return f"exit {rc}"
    outdir = Path(op["out"])
    try:
        got = _verdict(op["command"], outdir)
        if got != op["expect"]:
            return f"outcome {got!r}, expected {op['expect']!r}"
        if op["command"] == "simulate":
            why = _audit_failure(outdir)
            if why:
                return why
        digest = _digest(op["command"], outdir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    if digests.setdefault(index, digest) != digest:
        return "output differs from the first run of the same operation"
    return None


def _setup(plan: dict) -> dict:
    """Setup time and the reference times taken right after it."""
    started = time.perf_counter()
    from elastisat import cli

    cli.load_scenario(plan["ops"][0]["config"])
    setup_s = time.perf_counter() - started
    from reference import reference_seconds

    return {"setup_s": setup_s, "refs": [reference_seconds() for _ in range(3)]}


def _run(plan: dict) -> dict:
    setup = _setup(plan)
    from elastisat import cli
    from reference import reference_seconds

    tracer = Tracer() if plan["trace"] else None
    ops = plan["ops"]
    rounds, traced_spans, failures = [], [], []
    digests = {}
    attempted = failed = 0
    started = time.perf_counter()
    while len(rounds) < plan["min_rounds"] or time.perf_counter() - started < plan["seconds"]:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        latencies, refs, sim_tu = [], [], 0.0
        for index, op in enumerate(ops):
            refs.append(reference_seconds())
            argv = ["--log-level", "warning", op["command"],
                    "--config", op["config"], "--out", op["out"]]
            shutil.rmtree(op["out"], ignore_errors=True)  # no stale outputs to check
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed operation, not a lost one
                rc = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            attempted += 1
            why = _check(op, rc, digests, index)
            if why:
                failed += 1
                failures.append(f"round {len(rounds)} op {index} ({op['command']}): {why}")
            elif op["command"] == "simulate":
                sim_tu += json.loads((Path(op["out"]) / "result.json").read_text())["t_final"]
        refs.append(reference_seconds())
        if traced:
            tracer.uninstall()
            traced_spans.append(tracer.take())
        rounds.append({"traced": traced, "latencies": latencies, "refs": refs, "sim_tu": sim_tu})

    import numpy
    import scipy

    result = {
        "setup": setup,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = layer_metrics(traced_spans, tracer.absent)
        result["absent"] = tracer.absent
    return result


def main(argv) -> int:
    mode, plan_path = argv[0], argv[1]
    plan = json.loads(Path(plan_path).read_text())
    if mode == "setup":
        print(json.dumps(_setup(plan)))
        return 0
    result = _run(plan)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
