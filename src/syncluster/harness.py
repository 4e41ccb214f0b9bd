"""Experiment driver: parameter sweeps, runtime benches, CSV output.

Every experiment is one path. `resolve_cells` turns a SweepSpec into its
ordered list of cells (parameter points): the product of the n, d, density
and sigma axes, whatever the mode; `_run_trial` is the one place that
generates a seeded instance and runs it through `run_pipeline`. A sweep
runs `trials` trials per cell and writes one CSV row per trial plus one
mean row per cell; the runtime bench is one sweep with a warm-up plus
_BENCH_REPS trials per cell, reduced to per-phase medians and fitted
log-log slopes. Trials run round-robin over the cells. Every trial
derives a private integer sub-seed from (master seed, cell index, trial
index), so results are bit-reproducible and independent of worker count
and scheduling. A trial solves at the SolverConfig defaults, seeded with
its sub-seed (under refine transforms or both, the global solve runs
only to 1e-2; see run_pipeline), and refine_clusters re-votes its
REFINE_FRACTION (0.10) least-confident nodes. Per-trial failures are
recorded as flagged rows and never abort the sweep; the bench raises on
them, since a failed trial has no timings.

Science columns are deterministic given (config, seed); wall-clock timing
columns are not, so the zero_timings switch exists to blank them when
byte-identical output matters (tests, golden files).
"""

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .eigensolver import SolverConfig
from .errors import ParseError, SynclusterError, ValidationError, as_index, as_real, as_values
from .metrics import alpha_for_eta, beta_for_eta, eta, exact_recovery, snr_ratio, sync_error
from .model import ModelParams, RandomSource, generate_instance
from .recovery import REFINE_CHOICES, run_pipeline

MODES = ("grid", "eta-sweep", "runtime", "snr", "noise-grid")

# Phase timings as run_pipeline reports them. The bench names each phase by
# the middle of its column name (t_eigen_ms -> eigen) and adds two sums.
_TIMING_COLUMNS = ("t_eigen_ms", "t_cpqr_ms", "t_recover_ms", "t_refine_ms")
_BENCH_PHASES = tuple(col[2:-3] for col in _TIMING_COLUMNS) + ("excl_eigen", "total")

CSV_COLUMNS = (
    "mode", "n", "K", "d", "alpha", "beta", "p", "q", "sigma", "eta",
    "trial", "subseed", "exact", "sync_error_log", "snr_min",
) + _TIMING_COLUMNS + ("flags",)
CSV_SCHEMA_VERSION = 1

BENCH_COLUMNS = ("n", "phase", "ms")
_BENCH_REPS = 5
_TIMING_NOTE = "monotonic clock, per-phase wall time"
# Thread-count variables of the BLAS builds numpy ships with or links.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class SweepSpec:
    """Resolved description of one experiment run.

    n, d and sigma are the size, block-size and noise axes; alpha, beta
    and eta are density axes, and p and q absolute probabilities (see
    resolve_cells for the forms the density may take). mode names the
    study in the CSV and sends runtime specs to the bench. refine picks
    the passes; their settings are fixed (see the module docstring).
    """

    mode: str
    n: tuple = ()
    K: int = 2
    d: tuple = (2,)
    sizes: tuple = None
    alpha: tuple = ()
    beta: tuple = ()
    p: float = None
    q: float = None
    eta: tuple = ()
    sigma: tuple = (0.0,)
    trials: int = 20
    refine: str = "none"
    seed: int = 0
    workers: int = 1
    zero_timings: bool = False

    def validate(self):
        """Check the run settings, then resolve the cells and return them.

        Every axis must list its values, and every real-valued setting
        must be a real number. Each cell's ModelParams checks its model
        settings (sizes included) before any trial.

        Returns:
            The resolve_cells list, so a run expands the spec only once.
        """
        if self.refine not in REFINE_CHOICES:
            raise ValidationError(f"refine must be one of {'/'.join(REFINE_CHOICES)}")
        if as_index(self.trials, "trials") < 1:
            raise ValidationError("trials must be at least 1")
        if as_index(self.workers, "workers") < 1:
            raise ValidationError("workers must be at least 1")
        for name in ("n", "d"):
            for value in as_values(getattr(self, name), name):
                as_index(value, name)
        for name in ("p", "q"):
            if getattr(self, name) is not None:
                as_real(getattr(self, name), name)
        for name in ("alpha", "beta", "eta", "sigma"):
            for value in as_values(getattr(self, name), name):
                as_real(value, name)
        return resolve_cells(self)


def _derived_prob(coef, n, what):
    if n < 2:
        raise ValidationError("n must be at least 2")
    value = coef * math.log(n) / n
    if not 0.0 <= value <= 1.0:
        raise ValidationError(
            f"{what}={coef:g} gives a probability {value:.6f} outside [0, 1] at n={n}"
        )
    return value


def _densities(spec, n, d):
    """The (alpha, beta, p, q) points of the spec's one density form at (n, d)."""
    given = {name for name in ("p", "q") if getattr(spec, name) is not None}
    given |= {name for name in ("alpha", "beta", "eta") if getattr(spec, name)}
    if given == {"p", "q"}:
        return [(None, None, spec.p, spec.q)]
    if given == {"alpha", "beta"}:
        return [(a, b, None, None) for a in spec.alpha for b in spec.beta]
    if given == {"alpha", "eta"} and len(spec.alpha) == 1:
        a = spec.alpha[0]
        return [(a, beta_for_eta(target, a, n, d), None, None) for target in spec.eta]
    if given == {"beta", "eta"} and len(spec.beta) == 1:
        b = spec.beta[0]
        return [(alpha_for_eta(target, b, n, d), b, None, None) for target in spec.eta]
    raise ValidationError(
        "density must take one form: p and q together; alpha x beta; or eta with "
        "one value on exactly one of alpha and beta"
    )


def _cell(spec, n, d, density, sigma):
    alpha, beta, p, q = density
    if p is None:
        p = _derived_prob(alpha, n, "alpha")
        q = _derived_prob(beta, n, "beta")
    params = ModelParams(n=n, K=spec.K, d=d, p=p, q=q, sizes=spec.sizes, sigma=sigma)
    return {
        "mode": spec.mode, "n": n, "K": spec.K, "d": d,
        "alpha": alpha, "beta": beta, "p": p, "q": q,
        "sigma": sigma, "eta": eta(n, p, q, d), "params": params,
    }


def resolve_cells(spec):
    """Expand a SweepSpec into its ordered list of parameter cells.

    A study is the product n x d x density x sigma, in that order, for
    every mode. The density takes exactly one of three forms: p and q
    together, as absolute probabilities; alpha x beta, at
    p = alpha log(n)/n and q = beta log(n)/n; or eta targets with one
    value on exactly one of alpha and beta, the other solved per (n, d)
    to hit each target. Any other combination raises ValidationError, so
    no key a spec sets goes unused. mode is checked and copied into each
    cell. Each cell carries its ModelParams under "params" (seed 0), whose
    checks reject bad model settings.
    """
    if spec.mode not in MODES:
        raise ValidationError(f"mode must be one of {'/'.join(MODES)}")
    if not spec.n:
        raise ValidationError("n must list at least one size")
    return [
        _cell(spec, n, d, density, sigma)
        for n in spec.n
        for d in spec.d
        for density in _densities(spec, n, d)
        for sigma in spec.sigma
    ]


def _run_trial(task):
    """One (cell, trial): generate, run, evaluate. Returns a value dict."""
    cell, trial, subseed, spec = task
    values = dict(cell, trial=trial, subseed=subseed, exact=None, sync_error_log=None,
                  snr_min=None, flags=[])
    values.update(dict.fromkeys(_TIMING_COLUMNS, 0.0))
    gt, a = generate_instance(replace(cell["params"], seed=subseed))
    cfg = SolverConfig(seed=subseed)
    # A library failure in solving or scoring becomes a row flagged with the
    # error's name (NoConvergenceError -> NoConvergence), never an abort;
    # generation stays outside so a bad config still fails fast.
    try:
        factors, result, timings, flags = run_pipeline(a, cell["K"], cell["d"], cfg, spec.refine)
        exact = int(exact_recovery(result.labels, gt.labels, cell["K"]))
        error_log = sync_error(result.transforms, gt)
        snr_min = snr_ratio(factors, gt.labels) if cell["K"] == 2 else None
    except SynclusterError as exc:
        values["exact"] = 0
        values["flags"] = [type(exc).__name__.removesuffix("Error")]
        return values
    values.update(timings, flags=flags, exact=exact, sync_error_log=error_log, snr_min=snr_min)
    return values


def _fmt(value, timing=False):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}" if timing else repr(value)
    return str(value)


def _value_row(values, zero_timings):
    row = []
    for col in CSV_COLUMNS:
        if col == "flags":
            row.append(";".join(values["flags"]))
        elif col in _TIMING_COLUMNS and zero_timings:
            row.append("0.000")
        elif col in _TIMING_COLUMNS:
            row.append(_fmt(values[col], timing=True))
        else:
            row.append(_fmt(values[col]))
    return row


def _mean(values):
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _summary_values(cell, trials):
    out = dict(cell, trial="mean", subseed=None, flags=[])
    for col in ("exact", "sync_error_log", "snr_min") + _TIMING_COLUMNS:
        out[col] = _mean([v[col] for v in trials])
    return out


def run_sweep(spec, out_path=None):
    """Run every (cell, trial) of the spec; optionally write CSV + manifest.

    Trials run round-robin over the cells: trial t of every cell, then
    trial t + 1.

    Returns:
        (trial_values, summary_values): lists of per-row value dicts, in
        (cell, trial) order and cell order respectively.
    """
    cells = spec.validate()
    master = RandomSource(spec.seed)
    # Round t runs every cell once before round t + 1 starts, so a slow
    # spell of the machine falls on every cell rather than on a few.
    tasks = [
        (cell, t, master.subseed(ci, t), spec)
        for t in range(spec.trials)
        for ci, cell in enumerate(cells)
    ]
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            done = list(pool.map(_run_trial, tasks, chunksize=1))
    else:
        done = [_run_trial(t) for t in tasks]
    results = [done[t * len(cells) + ci] for ci in range(len(cells)) for t in range(spec.trials)]

    summaries = [
        _summary_values(cell, results[ci * spec.trials : (ci + 1) * spec.trials])
        for ci, cell in enumerate(cells)
    ]
    if out_path is not None:
        rows = [_value_row(values, spec.zero_timings) for values in results + summaries]
        _write_csv(out_path, spec, CSV_COLUMNS, rows, {"cells": len(cells)})
    return results, summaries


def _environment():
    """Interpreter, numpy and BLAS versions, thread settings and CPU counts."""
    import os
    import platform

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy < 1.25 has no mode="dicts"
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_variables": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _write_csv(out_path, spec, columns, rows, extra):
    """Write a header and rows to out_path, plus a JSON manifest sidecar."""
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    manifest = {
        "package_version": __version__,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "csv_columns": list(columns),
        "spec": asdict(spec),
        "timing": _TIMING_NOTE,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "log_convention": "natural log; exact matches floored at -746",
        "environment": _environment(),
        **extra,
    }
    with open(f"{out_path}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def fit_loglog_slope(ns, ts):
    """Least-squares slope of log(t) against log(n)."""
    ns = np.asarray(ns, dtype=np.float64)
    ts = np.maximum(np.asarray(ts, dtype=np.float64), 1e-9)
    if ns.size < 2:
        raise ValidationError("need at least two sizes to fit a slope")
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])


def run_runtime_bench(spec, out_path=None):
    """Median-of-reps phase timings across n, plus fitted log-log slopes.

    The given spec is validated as is and must resolve to one cell per n
    over at least two distinct n, to fit a slope. It then runs as one sweep
    pinned to a discarded warm-up plus _BENCH_REPS repetitions per n in one
    process, round-robin over n, so the warm-up is round 0 and a slow spell
    of the machine is not confounded with n; per-phase medians over the
    repetitions are reported. Slopes are fitted for the pipeline excluding
    the eigensolve and for the total. The manifest records the pinned spec,
    i.e. the repetitions that ran.

    Returns:
        (rows, slopes): rows are (n, phase, ms) tuples; slopes maps
        "excl_eigen" and "total" to fitted exponents.

    Raises:
        ValidationError: the spec is invalid, not mode=runtime, or not
            one cell at each of two or more distinct n.
        SynclusterError: a trial's pipeline raised; its row has no timings.
    """
    cells = spec.validate()
    if spec.mode != "runtime":
        raise ValidationError("run_runtime_bench needs mode=runtime")
    ns = [cell["n"] for cell in cells]
    if len(set(ns)) < 2 or len(set(ns)) < len(ns):
        raise ValidationError(
            "the runtime bench needs one cell at each of at least two distinct n"
        )
    pinned = replace(spec, trials=_BENCH_REPS + 1, workers=1)
    results, _ = run_sweep(pinned)
    rows, medians = [], []
    for ci, cell in enumerate(cells):
        samples = []
        for values in results[ci * pinned.trials : (ci + 1) * pinned.trials]:
            # Only a trial whose pipeline raised goes unscored (see _run_trial).
            if values["sync_error_log"] is None:
                raise SynclusterError(
                    f"runtime bench trial {values['trial']} at n={cell['n']} "
                    f"failed: {';'.join(values['flags'])}"
                )
            phases = [values[col] for col in _TIMING_COLUMNS]
            samples.append(phases + [sum(phases[1:]), sum(phases)])
        # Trial 0 is the discarded warm-up.
        medians.append(dict(zip(_BENCH_PHASES, np.median(samples[1:], axis=0).tolist())))
        rows.extend((cell["n"], phase, ms) for phase, ms in medians[-1].items())
    slopes = {
        key: fit_loglog_slope(ns, [m[key] for m in medians])
        for key in ("excl_eigen", "total")
    }
    if out_path is not None:
        csv_rows = [(n, phase, f"{ms:.3f}") for n, phase, ms in rows]
        timing = (f"{_TIMING_NOTE}; bench rows are the median of {_BENCH_REPS} "
                  "repetitions after one discarded warm-up")
        _write_csv(out_path, pinned, BENCH_COLUMNS, csv_rows, {"slopes": slopes, "timing": timing})
    return rows, slopes


# Configuration files: flat key=value lines, # comments, no sections. Each
# key maps to the converter of its text, which raises ValueError if it is bad.
def _ints(raw):
    return tuple(int(part) for part in raw.split(","))


def _floats(raw):
    return tuple(float(part) for part in raw.split(","))


def _range(raw):
    """Either a lo:hi:steps inclusive range or a comma list/scalar."""
    if ":" not in raw:
        return _floats(raw)
    fields = raw.split(":")
    if len(fields) != 3:
        raise ValueError("ranges are lo:hi:steps")
    lo, hi, steps = float(fields[0]), float(fields[1]), int(fields[2])
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return tuple(float(v) for v in np.linspace(lo, hi, steps))


def _switch(raw):
    """0 or 1; any other integer is an error, not a truthy value."""
    value = int(raw)
    if value not in (0, 1):
        raise ValueError(f"expected 0 or 1, got {value}")
    return bool(value)


# Every sweep key is the name of its SweepSpec field.
_SWEEP_KEYS = {
    "mode": str,
    "n": _ints,
    "K": int,
    "d": _ints,
    "sizes": _ints,
    "alpha": _range,
    "beta": _range,
    "p": float,
    "q": float,
    "eta": _floats,
    "sigma": _floats,
    "trials": int,
    "refine": str,
    "seed": int,
    "workers": int,
    "zero_timings": _switch,
}

_MODEL_KEYS = {
    "n": int, "K": int, "d": int, "sizes": _ints,
    "p": float, "q": float, "sigma": float, "seed": int,
}


def _parse_flat_file(path, keys):
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ParseError(f"{path}:{lineno}: expected key=value")
            key, raw = (part.strip() for part in body.split("=", 1))
            if key not in keys:
                raise ParseError(f"{path}:{lineno}: unknown key '{key}'")
            if key in entries:
                raise ParseError(f"{path}:{lineno}: duplicate key '{key}'")
            try:
                entries[key] = keys[key](raw)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: invalid value for '{key}': {exc}") from None
    return entries


def load_config(path, overrides=None):
    """Parse a sweep configuration file into a SweepSpec.

    The spec is checked when it runs: validate() runs before any trial and
    expands the cells only there.

    Args:
        path: flat key=value file; '#' starts a comment.
        overrides: {field: value} applied after the file (CLI flags win).

    Returns:
        SweepSpec.

    Raises:
        ParseError: unreadable syntax, unknown or duplicate keys (with the
            line number).
        ValidationError: the file has no mode.
        OSError: the file cannot be read.
    """
    entries = _parse_flat_file(path, _SWEEP_KEYS)
    if "mode" not in entries:
        raise ValidationError(f"{path}: missing required key 'mode'")
    spec = SweepSpec(**entries)
    if overrides:
        for name, value in overrides.items():
            if value is not None:
                setattr(spec, name, value)
    return spec


def load_model_config(path, overrides=None):
    """Parse a model configuration file into ModelParams (generate mode)."""
    entries = _parse_flat_file(path, _MODEL_KEYS)
    if overrides:
        entries.update({k: v for k, v in overrides.items() if v is not None})
    for required in ("n", "K", "d", "p", "q"):
        if required not in entries:
            raise ValidationError(f"{path}: missing required key '{required}'")
    return ModelParams(**entries)
