"""elastisat benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload capture|outcomes|solver --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is used from source (`src/`)
only through `elastisat.cli.main` on generated scenario YAML.  The
workload runs in its own single-threaded child process (BLAS thread
counts set to 1 in that child's environment only); setup is timed in
that child and in four more fresh processes, and the median is reported.

End-to-end times are scaled to a machine of fixed speed: a reference
computation (reference.py) is timed next to every operation, and each
time is multiplied by NOMINAL_S over the reference time around it.  On a
shared machine whose speed drifts this keeps the figures steady; the
unscaled wall times are printed on a `#` line.

With `--trace 0` the last line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run.  Lines before it,
prefixed with `#`, give the machine, the sample counts, the tail
percentile, fail_ratio and any failures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import workloads
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
DEADLINE_S = 170.0
# Reported times are scaled to a machine on which the reference computation
# (reference.py) takes this long; the raw wall times are printed too.
NOMINAL_S = 0.03

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
PER_LAYER["sim_tu_per_s"] = "tu/s"
PER_LAYER["trace.overhead_s"] = "s"


def percentile(values, p: int) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def write_plan(workdir: Path, workload: str, seed: int, seconds: int, trace: bool) -> Path:
    import yaml

    ops = []
    for i, op in enumerate(workloads.generate(workload, seed)):
        config = workdir / f"op-{i:03d}.yaml"
        config.write_text(yaml.safe_dump(op["doc"], sort_keys=True))
        ops.append({"command": op["command"], "config": str(config),
                    "out": str(workdir / f"op-{i:03d}"), "expect": op["expect"]})
    plan = workdir / "plan.json"
    plan.write_text(json.dumps({"workload": workload, "seconds": seconds, "trace": trace,
                                "min_rounds": workloads.MIN_ROUNDS[workload], "ops": ops}))
    return plan


def child(args, env, deadline, **kw):
    """Run child.py to completion; the timeout kills it and waits for it."""
    return subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=env,
                          timeout=max(1.0, deadline - time.monotonic()), check=True, **kw)


def calibrated(rnd: dict) -> list:
    """A round's latencies, each scaled by the mean of the reference times
    taken just before and just after it."""
    refs = rnd["refs"]
    return [latency * 2.0 * NOMINAL_S / (refs[k] + refs[k + 1])
            for k, latency in enumerate(rnd["latencies"])]


def end_to_end(result: dict, setups: list, workload: str, scale=calibrated) -> dict:
    """End-to-end metrics; `scale` maps a round to the latencies to use."""
    latencies = [x for r in result["rounds"] for x in scale(r)]
    round_times = [sum(scale(r)) for r in result["rounds"] if not r["traced"]]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(round_times),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": percentile(latencies, workloads.tail_percentile(workload)),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict:
    """Span metrics (unscaled) plus two figures from scaled round times."""
    untraced = [r for r in result["rounds"] if not r["traced"]]
    traced = [sum(calibrated(r)) for r in result["rounds"] if r["traced"]]
    metrics = dict(result["layers"])
    metrics["sim_tu_per_s"] = statistics.median(r["sim_tu"] / sum(calibrated(r)) for r in untraced)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(sum(calibrated(r)) for r in untraced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "elastisat" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/elastisat is missing", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    print("# machine " + json.dumps(machine()))

    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        plan = write_plan(workdir, args.workload, args.seed, args.seconds, bool(args.trace))
        out = workdir / "result.json"
        child(["run", str(plan), str(out)], env, deadline, stdout=subprocess.DEVNULL)
        result = json.loads(out.read_text())
        setups = [result["setup"]]
        for _ in range(SETUP_PROBES):
            probe = child(["setup", str(plan)], env, deadline, stdout=subprocess.PIPE, text=True)
            setups.append(json.loads(probe.stdout))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: workload process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    latencies = [x for r in result["rounds"] for x in r["latencies"]]
    print(f"# {args.workload} seed {args.seed}: {len(result['rounds'])} rounds, "
          f"{len(latencies)} operations, {len(setups)} setups, "
          f"op_tail_s is p{workloads.tail_percentile(args.workload)}, "
          f"fail_ratio {result['failed'] / result['attempted']:.6g}, "
          f"versions {result['versions']}")
    refs = [x for r in result["rounds"] for x in r["refs"]]
    print(f"# reference computation: median {1e3 * statistics.median(refs):.2f} ms, "
          f"{len(refs)} timings; end-to-end times are scaled to {1e3 * NOMINAL_S:g} ms")
    print("# round times (s, * traced): " + " ".join(
        f"{sum(r['latencies']):.3f}{'*' if r['traced'] else ''}" for r in result["rounds"]))
    for failure in result["failures"][:10]:
        print(f"# failed: {failure}")
    if args.trace:
        values, units = per_layer(result), PER_LAYER
        for name in result["absent"]:
            print(f"# absent hook: {name}")
        for name in sorted(set(units) - set(values)):
            print(f"# absent metric: {name}")
    else:
        raw = end_to_end(result, [s["setup_s"] for s in setups], args.workload,
                         scale=lambda r: r["latencies"])
        print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        scaled_setups = [s["setup_s"] * NOMINAL_S / statistics.median(s["refs"]) for s in setups]
        values, units = end_to_end(result, scaled_setups, args.workload), END_TO_END
    for name, value in values.items():
        print(f"# {name:36s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
