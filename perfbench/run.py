"""The repository benchmark: one workload, one fresh process, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 runs trials back to back (closed loop, one client) for --seconds
and reports the end-to-end metrics of BENCHMARK.json; set-up time is the
median of several fresh processes, each timed from spawn through
`import syncluster` and one small warm-up trial. --trace 1 runs every trial
untraced and then traced and reports the per-layer metrics. The last line
of standard output is {"correct", "attempted", "failed", "metrics"}; the
full result, with the environment block (and the spans, when traced), is
written under perfbench/out/. `--workload all` runs each workload in its
own process. The package is imported from this checkout's src/ only; the
run fails without it.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# BLAS threads, pinned before numpy loads; one keeps a run insensitive to
# whatever else the machine's cores are doing.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Fresh processes timed per run for setup_s.
SETUP_SAMPLES = 5
# Failure messages kept in the result file.
FAILURES_KEPT = 20


def _prepare():
    """Pin BLAS threads and make this checkout's src/ the only syncluster."""
    if not (SRC / "syncluster" / "__init__.py").is_file():
        sys.exit(f"error: no syncluster package under {SRC}")
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import syncluster

    if Path(syncluster.__file__).resolve().parent != SRC / "syncluster":
        sys.exit(f"error: syncluster imported from {syncluster.__file__}, not {SRC}")


def _warm_up(workload):
    from syncluster import ModelParams, SolverConfig, generate_instance, harness
    from workloads import REFINE_FRACTION

    params = ModelParams(seed=0, **workload.warmup)
    _, a = generate_instance(params)
    harness.run_pipeline(a, params.K, params.d, SolverConfig(seed=0), workload.refine, REFINE_FRACTION)


def _setup_seconds(name):
    """Median over fresh processes of spawn-to-end-of-warm-up wall time.

    Uses the system-wide monotonic clock, read on both sides of the spawn.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def _table(rows):
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<32} {shown:>14} {unit}")


def _run(args, spec):
    from envinfo import environment
    from tracing import TracedRun
    from trials import run_loop, run_trial, summarize
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    _warm_up(workload)
    if args.trace:
        traced = TracedRun()
        records, wall = run_loop(workload, args.seed, args.seconds, traced.step, len(workload.cells))
        values = traced.metrics()
        section = "per_layer"
    else:
        records, wall = run_loop(workload, args.seed, args.seconds, run_trial, workload.scored_trials)
        values = summarize(workload, records, wall)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["setup_s"] = _setup_seconds(workload.name)
        section = "end_to_end"

    failed = sum(r.failure is not None for r in records)
    metrics = {
        m["name"]: {"value": values.get(m["name"], float("nan")), "unit": m["unit"]}
        for m in spec[section]
    }
    line = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}

    env = environment(BLAS_THREADS)
    print(f"{workload.name}: seed {args.seed}, {len(records)} trials in {wall:.2f} s, "
          f"{failed} failed, trace {args.trace}")
    print(f"  environment: {json.dumps(env)}")
    rows = [(n, m["value"], m["unit"]) for n, m in metrics.items()]
    if not args.trace:
        rows += [("trial_s.p90", values["trial_s.p90"], f"s ({values['trial_samples']} samples)"),
                 ("failed_ratio", values["failed_ratio"], "ratio")]
    _table(rows)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    full = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop_wall_s": wall, "result": line,
        "extra": {k: v for k, v in values.items() if k not in metrics},
        "failures": [f"trial {r.index}: {r.failure}" for r in records if r.failure][:FAILURES_KEPT],
        "trials": [{"index": r.index, "seed": r.seed, "trial_s": r.trial_s, "solve_s": r.solve_s,
                    "exact": r.exact} for r in records],
        "environment": env,
    }
    stem.with_suffix(".json").write_text(json.dumps(full, indent=2) + "\n")
    if args.trace:
        origin = traced.log.spans[0]["start"] if traced.log.spans else 0.0
        spans = [dict(s, start=s["start"] - origin, end=s["end"] - origin) for s in traced.log.spans]
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(line))


def _run_all(args):
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
        status = status or done.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    _prepare()
    from workloads import WORKLOADS

    if args.setup_probe:
        _warm_up(WORKLOADS[args.workload])
        print(time.monotonic())
        return 0
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    _run(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
