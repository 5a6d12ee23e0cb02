"""Paired benchmark runs of two checkouts, summarized into one BENCH_*.json.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds S [S ...] \
        --out BENCH_n.json

For each seed, runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, one process at a time, with
T the ``run_seconds`` of ``BENCHMARK.json`` (30). The side that goes first
alternates from pair to pair (the parent first at even pair indices), so a
drift in the machine's speed does not favour one side.
Each run's final JSON line is read; a run that fails or reports an
incorrect operation stops the script.

For every end-to-end metric of ``BENCHMARK.json`` the summary holds both
sides' values in seed order, their medians, the ratio of the medians
(change over parent), ``wins`` (the pairs in which the change is better in
the metric's direction), the parent's quartile spread (third minus first
quartile, ``statistics.quantiles`` with its default exclusive method) and
``clears_spread``: the change's median is better than the parent's by more
than that spread. The summary goes under ``workloads.W`` of the ``--out``
file; the other workloads already in that file are kept, so one file can
gather every workload of a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One perfbench run in checkout: (its final JSON line, its machine line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {checkout.name} (seed {seed}, exit "
                         f"{proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"perfbench in {checkout.name} (seed {seed}) reports "
                         f"{result['failed']} failed operations:\n{proc.stdout}")
    machine = next((json.loads(line[len("# machine "):]) for line in lines
                    if line.startswith("# machine ")), {})
    return result, machine


def summarize(parent: list, change: list, better: str) -> dict:
    """The statistics of one metric over paired values (parent[i], change[i])."""
    sign = 1.0 if better == "lower" else -1.0
    q1, _, q3 = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "change_median": c_med,
        "ratio": c_med / p_med,
        "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "parent_quartile_spread": q3 - q1,
        "clears_spread": sign * (p_med - c_med) > q3 - q1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    order, machine = [], {}
    for i, seed in enumerate(args.seeds):
        first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(first[0])
        for side in first:
            result, machine = run_once(sides[side], args.workload, seed, seconds)
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"pair {i} (seed {seed}, {first[0]} first): " + ", ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.4g} -> "
            f"{values['change'][m['name']][-1]:.4g}" for m in metrics), flush=True)

    summary = {
        "seeds": args.seeds,
        "seconds": seconds,
        "first": order,
        "machine": machine,
        "metrics": {m["name"]: {"unit": m["unit"],
                                **summarize(values["parent"][m["name"]],
                                            values["change"][m["name"]], m["better"])}
                    for m in metrics},
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    doc["workloads"][args.workload] = summary
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, s in summary["metrics"].items():
        print(f"{name:12s} parent {s['parent_median']:.4g}  change {s['change_median']:.4g}  "
              f"ratio {s['ratio']:.3f}  wins {s['wins']}/{s['pairs']}  "
              f"spread {s['parent_quartile_spread']:.3g}  clears {s['clears_spread']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
