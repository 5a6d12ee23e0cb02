"""Run every bundled scenario through the command line into one directory.

    python tools/bundled_outputs.py OUTDIR

Runs the eight bundled runs, each as its own ``python -m elastisat``
process with one BLAS thread (``OPENBLAS_NUM_THREADS=1``), on the
``src/`` and ``scenarios/`` next to this script:

- ``simulate`` on capture, conservative, impact and unbounded;
- the serial ``sweep`` on ``sweep_speed.yaml``;
- ``catalog`` on ``catalog.yaml``;
- ``equilibria`` on ``catalog.yaml`` and on ``capture.yaml``.

Run ``OUTDIR/<run>`` holds that run's outputs. Two checkouts agree byte for
byte when, after running this script from each,
``diff -r -x manifest.json OUTDIR_A OUTDIR_B`` prints nothing (the
manifests hold wall times). The exit status is 1 if any run exits nonzero.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (output subdirectory, command, scenario file)
RUNS = (
    ("simulate-capture", "simulate", "capture.yaml"),
    ("simulate-conservative", "simulate", "conservative.yaml"),
    ("simulate-impact", "simulate", "impact.yaml"),
    ("simulate-unbounded", "simulate", "unbounded.yaml"),
    ("sweep-speed", "sweep", "sweep_speed.yaml"),
    ("catalog", "catalog", "catalog.yaml"),
    ("equilibria-catalog", "equilibria", "catalog.yaml"),
    ("equilibria-capture", "equilibria", "capture.yaml"),
)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    failed = 0
    for name, command, scenario in RUNS:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "elastisat", "--log-level", "warning", command,
             "--config", str(ROOT / "scenarios" / scenario), "--out", str(outdir / name)],
            env=env,
        )
        print(f"{name}: exit {proc.returncode} in {time.perf_counter() - started:.1f} s")
        failed |= proc.returncode != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
