"""Run every bundled scenario through the command line into one directory.

    python tools/bundled_outputs.py OUTDIR

Runs eleven runs, each as its own ``python -m elastisat`` process with one
BLAS thread (``OPENBLAS_NUM_THREADS=1``), on the ``src/`` and
``scenarios/`` next to this script. Eight are the bundled runs:

- ``simulate`` on capture, conservative, impact and unbounded;
- the serial ``sweep`` on ``sweep_speed.yaml``;
- ``catalog`` on ``catalog.yaml``;
- ``equilibria`` on ``catalog.yaml`` and on ``capture.yaml``.

Three more cover Newton's other two seed kinds (``capture.yaml`` seeds
from an orbit radius). The script writes their scenario documents,
``OUTDIR/seed-L0.yaml`` and ``OUTDIR/seed-explicit.yaml``, from the
constants below:

- ``equilibria`` and ``simulate`` on an equilibrium start at a given
  angular momentum ``L0`` (radius 2.21977, nondegenerate; Undetermined);
- ``equilibria`` on an ``explicit`` start (radius 2.87147).

Run ``OUTDIR/<run>`` holds that run's outputs. Two checkouts agree byte for
byte when, after running this script from each,
``diff -r -x manifest.json OUTDIR_A OUTDIR_B`` prints nothing (the
manifests hold wall times). The exit status is 1 if any run exits nonzero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_BODY = {"semi_axes": [1.0, 0.85, 0.6]}

# The scenario documents of the seed-kind runs, by file name under OUTDIR.
SEED_SCENARIOS = {
    "seed-L0.yaml": {
        "name": "seed-L0",
        "body": _BODY,
        "material": {"epsilon": 3.0},
        "viscosity": {"eta": 1.2},
        "initial": {"kind": "equilibrium", "L0": [0.0, 0.0, 3.563942]},
        "integrator": {"t_end": 10.0, "record_every": 0.5},
    },
    "seed-explicit.yaml": {
        "name": "seed-explicit",
        "body": _BODY,
        "material": {"epsilon": 1.0},
        "initial": {"kind": "explicit",
                    "q": [3.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
                    "qdot": [0.0, 0.57735, 0.0, 0.0, 0.19245, 0.0, -0.19245, 0.0, 0.0,
                             0.0, 0.0, 0.0]},
    },
}

# (output subdirectory, command, scenario file: under scenarios/, or one of
# SEED_SCENARIOS under OUTDIR)
RUNS = (
    ("simulate-capture", "simulate", "capture.yaml"),
    ("simulate-conservative", "simulate", "conservative.yaml"),
    ("simulate-impact", "simulate", "impact.yaml"),
    ("simulate-unbounded", "simulate", "unbounded.yaml"),
    ("sweep-speed", "sweep", "sweep_speed.yaml"),
    ("catalog", "catalog", "catalog.yaml"),
    ("equilibria-catalog", "equilibria", "catalog.yaml"),
    ("equilibria-capture", "equilibria", "capture.yaml"),
    ("equilibria-seed-L0", "equilibria", "seed-L0.yaml"),
    ("simulate-seed-L0", "simulate", "seed-L0.yaml"),
    ("equilibria-seed-explicit", "equilibria", "seed-explicit.yaml"),
)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    for file, doc in SEED_SCENARIOS.items():
        (outdir / file).write_text(json.dumps(doc, indent=2) + "\n")  # JSON is YAML
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    failed = 0
    for name, command, scenario in RUNS:
        config = outdir / scenario if scenario in SEED_SCENARIOS else ROOT / "scenarios" / scenario
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "elastisat", "--log-level", "warning", command,
             "--config", str(config), "--out", str(outdir / name)],
            env=env,
        )
        print(f"{name}: exit {proc.returncode} in {time.perf_counter() - started:.1f} s")
        failed |= proc.returncode != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
