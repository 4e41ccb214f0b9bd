#!/usr/bin/env python3
"""Run the bundled experiment studies and write one CSV per study.

Each study is a config file under scripts/configs/, run as `syncluster
sweep --out <out-dir>/<study>.csv` (plus a .manifest.json sidecar). Studies
are independent and seeded, so a rerun with the same arguments reproduces
every science column; the t_*_ms timing columns are wall-clock times,
byte-identical only when a config sets zero_timings = 1.

    python3 scripts/run_all_studies.py
    python3 scripts/run_all_studies.py --only eta_threshold --workers 4
"""

import argparse
import sys
from pathlib import Path

from syncluster import cli

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
# Every config but instance.conf, the model that `syncluster generate` reads.
STUDIES = tuple(sorted(path.stem for path in CONFIG_DIR.glob("*.conf") if path.stem != "instance"))


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

    overrides = []
    for flag in ("workers", "trials", "seed"):
        if getattr(args, flag) is not None:
            overrides += [f"--{flag}", str(getattr(args, flag))]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.only or STUDIES:
        print(f"study={name}")
        code = cli.main(["sweep", "--config", str(CONFIG_DIR / f"{name}.conf"),
                         "--out", str(args.out_dir / f"{name}.csv"), *overrides])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
