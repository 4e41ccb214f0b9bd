#!/usr/bin/env python3
"""Write the seeded golden CSVs that tests/test_golden.py checks against.

Each bundled sweep study runs once at trials = 1 with zero_timings, and its
CSV goes to tests/golden/<study>.csv (the manifest sidecar, which records
the run's date and machine, is not kept). The runtime bench is left out:
its output is wall-clock time. Rewrite the files only for an intended
change to seeded outputs, and say so in CHANGES.md.

The committed files are written with the BLAS thread variables
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS) unset, and the
script prints the values it runs under first: with OPENBLAS_NUM_THREADS=1
the d = 5, 10 and 20 rows of snr_vs_d.csv move in their last digits.

    PYTHONPATH=src python3 scripts/write_golden.py
"""

import os
import sys
from pathlib import Path

from syncluster.harness import _THREAD_VARIABLES, load_config, run_sweep

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "scripts" / "configs"
GOLDEN_DIR = ROOT / "tests" / "golden"
STUDIES = (
    "phase_grid", "eta_threshold", "eta_threshold_n", "refine_boundary", "noise_grid", "snr_vs_d",
)


def write_study(name, out_path):
    """Run one bundled study at trials = 1 and write its CSV to out_path."""
    spec = load_config(CONFIG_DIR / f"{name}.conf", {"trials": 1, "zero_timings": True})
    run_sweep(spec, out_path)
    Path(f"{out_path}.manifest.json").unlink()


def main():
    for name in _THREAD_VARIABLES:
        print(f"{name}={os.environ.get(name, 'unset')}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in STUDIES:
        write_study(name, GOLDEN_DIR / f"{name}.csv")
        print(f"wrote {GOLDEN_DIR / name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
