#!/usr/bin/env python3
"""Run the bundled experiment studies and write one CSV per study.

Each study is a config file under scripts/configs/; results land in
--out-dir (default results/) as <study>.csv plus a .manifest.json sidecar
recording the resolved spec. Studies are independent and seeded, so a
rerun with the same arguments reproduces every science column; the t_*_ms
timing columns are wall-clock times, byte-identical only when a config
sets zero_timings = 1.

    python3 scripts/run_all_studies.py
    python3 scripts/run_all_studies.py --only eta_threshold --workers 4
"""

import argparse
import sys
import time
from pathlib import Path

from syncluster.harness import load_config, run_runtime_bench, run_sweep

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
STUDIES = (
    "phase_grid",
    "eta_threshold",
    "refine_boundary",
    "noise_grid",
    "snr_vs_d",
    "runtime_bench",
)


def _axis_summary(summaries, key):
    return " ".join(f"{row[key]:g}:{row['exact']:.2f}" for row in summaries)


def run_study(name, out_dir, overrides):
    spec = load_config(CONFIG_DIR / f"{name}.conf", overrides)
    out_path = out_dir / f"{name}.csv"
    if spec.mode == "runtime":
        _, slopes = run_runtime_bench(spec, out_path)
        return (
            f"slope excl_eigen={slopes['excl_eigen']:.3f} "
            f"total={slopes['total']:.3f}"
        )
    _, summaries = run_sweep(spec, out_path)
    if spec.mode == "eta-sweep":
        return "success by eta " + _axis_summary(summaries, "eta")
    if spec.mode == "noise-grid":
        return "success by sigma " + _axis_summary(summaries, "sigma")
    if spec.mode == "snr":
        return "mean min ratio by d " + " ".join(
            f"{row['d']}:{row['snr_min']:.3f}" for row in summaries
        )
    rates = [row["exact"] for row in summaries]
    return f"{len(summaries)} cells, success {min(rates):.2f}..{max(rates):.2f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="directory for CSV outputs (default: results)")
    parser.add_argument("--only", action="append", choices=STUDIES, default=None,
                        help="run only this study; repeatable")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel trial workers override")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per cell override")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed override")
    args = parser.parse_args(argv)

    overrides = {"workers": args.workers, "trials": args.trials, "seed": args.seed}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.only or STUDIES:
        t0 = time.perf_counter()
        summary = run_study(name, args.out_dir, overrides)
        elapsed = time.perf_counter() - t0
        print(f"{name}: {summary} ({elapsed:.1f}s, wrote {args.out_dir / f'{name}.csv'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
