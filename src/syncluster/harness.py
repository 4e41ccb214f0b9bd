"""Experiment driver: parameter sweeps, runtime benches, CSV output.

A sweep resolves its mode into a list of cells (parameter points), runs
`trials` independent trials per cell, and writes one CSV row per trial plus
one mean row per cell. Every trial derives a private integer sub-seed from
(master seed, cell index, trial index), so results are bit-reproducible and
independent of worker count and scheduling. Per-trial failures are recorded
as flagged rows and never abort the sweep.

Science columns are deterministic given (config, seed); wall-clock timing
columns are not, so the zero_timings switch exists to blank them when
byte-identical output matters (tests, golden files).
"""

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .cpqr import blockwise_cpqr
from .eigensolver import SolverConfig, top_eigenpairs
from .errors import ParseError, SynclusterError, ValidationError
from .metrics import alpha_for_eta, beta_for_eta, eta, exact_recovery, snr_ratio, sync_error
from .model import ModelParams, RandomSource, generate_instance
from .recovery import assign_and_extract, refine_clusters, refine_transforms

MODES = ("grid", "eta-sweep", "runtime", "snr", "noise-grid")
REFINE_CHOICES = ("none", "clusters", "transforms", "both")

CSV_COLUMNS = (
    "mode", "n", "K", "d", "alpha", "beta", "p", "q", "sigma", "eta",
    "trial", "subseed", "exact", "sync_error_log", "snr_min",
    "t_eigen_ms", "t_cpqr_ms", "t_recover_ms", "t_refine_ms", "flags",
)
CSV_SCHEMA_VERSION = 1

BENCH_COLUMNS = ("n", "phase", "ms")
_BENCH_REPS = 5

# Default within/cross density multiplier for the runtime bench protocol,
# p = q = BENCH_DENSITY * log(n) / n.
BENCH_DENSITY = 10.0

FLAG_NO_CONVERGENCE = "NoConvergence"
FLAG_DEGENERATE_GAP = "DegenerateGap"
FLAG_RANK_DEFICIENT = "RankDeficient"


@dataclass
class SweepSpec:
    """Resolved description of one experiment run.

    alpha and beta are value tuples (grid axes or the fixed axis of an
    eta sweep); p and q are absolute probabilities for the snr mode.
    """

    mode: str
    n: int = None
    K: int = 2
    d: int = 2
    sizes: tuple = None
    alpha: tuple = ()
    beta: tuple = ()
    p: float = None
    q: float = None
    eta_values: tuple = ()
    fixed_axis: str = "beta"
    n_values: tuple = ()
    d_values: tuple = ()
    sigma: float = 0.0
    sigma_values: tuple = ()
    trials: int = 20
    refine: str = "none"
    fraction: float = 0.10
    seed: int = 0
    workers: int = 1
    solver_tolerance: float = 1e-8
    solver_max_iterations: int = 5000
    zero_timings: bool = False

    def validate(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {'/'.join(MODES)}")
        if self.refine not in REFINE_CHOICES:
            raise ValidationError(f"refine must be one of {'/'.join(REFINE_CHOICES)}")
        if self.trials < 1:
            raise ValidationError("trials must be at least 1")
        if self.workers < 1:
            raise ValidationError("workers must be at least 1")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValidationError("fraction must lie in [0, 1]")
        if self.sigma < 0:
            raise ValidationError("sigma must be non-negative")
        if self.mode == "runtime":
            if not self.n_values:
                raise ValidationError("runtime mode needs n_list")
            if any(n < 2 for n in self.n_values):
                raise ValidationError("n_list entries must be at least 2")
        elif self.mode == "snr":
            if not self.d_values:
                raise ValidationError("snr mode needs d_list")
            if self.n is None:
                raise ValidationError("snr mode needs n")
        else:
            if self.n is None:
                raise ValidationError(f"{self.mode} mode needs n")
        if self.n is not None and self.n < 2:
            raise ValidationError("n must be at least 2")
        if self.K < 1:
            raise ValidationError("K must be at least 1")
        if self.d < 1:
            raise ValidationError("d must be at least 1")
        # Cell resolution re-checks derived probabilities; calling it here
        # surfaces range errors at validation time.
        if self.mode not in ("runtime",):
            resolve_cells(self)


def _derived_prob(coef, n, what):
    value = coef * math.log(n) / n
    if not 0.0 <= value <= 1.0:
        raise ValidationError(
            f"{what}={coef:g} gives a probability {value:.6f} outside [0, 1] at n={n}"
        )
    return value


def _cell(spec, *, n=None, d=None, alpha=None, beta=None, p=None, q=None, sigma=None):
    n = spec.n if n is None else n
    d = spec.d if d is None else d
    sigma = spec.sigma if sigma is None else sigma
    if p is None:
        p = _derived_prob(alpha, n, "alpha")
    if q is None:
        q = _derived_prob(beta, n, "beta")
    try:
        cell_eta = eta(n, p, q, d)
    except Exception:
        cell_eta = float("inf")
    return {
        "mode": spec.mode, "n": n, "K": spec.K, "d": d,
        "alpha": alpha, "beta": beta, "p": p, "q": q,
        "sigma": sigma, "eta": cell_eta,
    }


def resolve_cells(spec):
    """Expand a SweepSpec into its ordered list of parameter cells."""
    cells = []
    if spec.mode == "grid":
        if not spec.alpha or not spec.beta:
            raise ValidationError("grid mode needs alpha and beta")
        for a in spec.alpha:
            for b in spec.beta:
                cells.append(_cell(spec, alpha=a, beta=b))
    elif spec.mode == "noise-grid":
        if not spec.alpha or not spec.beta:
            raise ValidationError("noise-grid mode needs alpha and beta")
        sigmas = spec.sigma_values if spec.sigma_values else (spec.sigma,)
        for a in spec.alpha:
            for b in spec.beta:
                for s in sigmas:
                    if s < 0:
                        raise ValidationError("sigma_list entries must be non-negative")
                    cells.append(_cell(spec, alpha=a, beta=b, sigma=s))
    elif spec.mode == "eta-sweep":
        if not spec.eta_values:
            raise ValidationError("eta-sweep mode needs eta")
        if spec.fixed_axis not in ("alpha", "beta"):
            raise ValidationError("fixed_axis must be alpha or beta")
        if spec.fixed_axis == "alpha":
            if len(spec.alpha) != 1:
                raise ValidationError("eta-sweep with fixed_axis=alpha needs exactly one alpha")
            a = spec.alpha[0]
            for target in spec.eta_values:
                b = beta_for_eta(target, a, spec.n, spec.d)
                cells.append(_cell(spec, alpha=a, beta=b))
        else:
            if len(spec.beta) != 1:
                raise ValidationError("eta-sweep with fixed_axis=beta needs exactly one beta")
            b = spec.beta[0]
            for target in spec.eta_values:
                a = alpha_for_eta(target, b, spec.n, spec.d)
                cells.append(_cell(spec, alpha=a, beta=b))
    elif spec.mode == "snr":
        p = 0.5 if spec.p is None else spec.p
        q = 0.5 if spec.q is None else spec.q
        for prob, name in ((p, "p"), (q, "q")):
            if not 0.0 <= prob <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")
        for d in spec.d_values:
            if d < 1:
                raise ValidationError("d_list entries must be at least 1")
            cells.append(_cell(spec, d=d, p=p, q=q))
    elif spec.mode == "runtime":
        raise ValidationError("runtime mode runs through run_runtime_bench")
    else:
        raise ValidationError(f"mode must be one of {'/'.join(MODES)}")
    return cells


def run_pipeline(a, big_k, d, cfg, refine="none", fraction=0.10):
    """Eigensolve, factor, assign, optionally refine; time each phase.

    Returns:
        (factors, result, timings, flags): timings is a dict of phase
        milliseconds; flags lists degeneracies observed.
    """
    flags = []
    t0 = time.perf_counter()
    basis = top_eigenpairs(a, big_k * d, cfg)
    t_eigen = (time.perf_counter() - t0) * 1e3
    if basis.degenerate_gap:
        flags.append(FLAG_DEGENERATE_GAP)

    t0 = time.perf_counter()
    factors = blockwise_cpqr(basis.vectors.T, d)
    t_cpqr = (time.perf_counter() - t0) * 1e3
    if factors.rank_deficient:
        flags.append(FLAG_RANK_DEFICIENT)

    t0 = time.perf_counter()
    result = assign_and_extract(factors, big_k, d)
    t_recover = (time.perf_counter() - t0) * 1e3

    t_refine = 0.0
    if refine in ("clusters", "both"):
        t0 = time.perf_counter()
        result = refine_clusters(factors, result, fraction)
        t_refine += (time.perf_counter() - t0) * 1e3
    if refine in ("transforms", "both"):
        t0 = time.perf_counter()
        result = refine_transforms(a, result, cfg)
        t_refine += (time.perf_counter() - t0) * 1e3

    flags.extend(f for f in result.flags if f not in flags)
    timings = {
        "t_eigen_ms": t_eigen,
        "t_cpqr_ms": t_cpqr,
        "t_recover_ms": t_recover,
        "t_refine_ms": t_refine,
    }
    return factors, result, timings, flags


def _generate_instance(cell, sizes, subseed):
    params = ModelParams(
        n=cell["n"], K=cell["K"], d=cell["d"], p=cell["p"], q=cell["q"],
        sizes=sizes, sigma=cell["sigma"], seed=subseed,
    )
    return generate_instance(params)


def _run_trial(task):
    """One (cell, trial): generate, run, evaluate. Returns a value dict."""
    cell, trial, subseed, spec = task
    values = dict(cell)
    values.update(trial=trial, subseed=subseed, exact=None, sync_error_log=None,
                  snr_min=None, t_eigen_ms=0.0, t_cpqr_ms=0.0, t_recover_ms=0.0,
                  t_refine_ms=0.0, flags=[])
    gt, a = _generate_instance(cell, spec.sizes, subseed)
    cfg = SolverConfig(
        tolerance=spec.solver_tolerance,
        max_iterations=spec.solver_max_iterations,
        seed=subseed,
    )
    # A library failure in solving or scoring becomes a row flagged with the
    # error's name (NoConvergenceError -> NoConvergence), never an abort;
    # generation stays outside so a bad config still fails fast.
    try:
        factors, result, timings, flags = run_pipeline(
            a, cell["K"], cell["d"], cfg, spec.refine, spec.fraction
        )
        exact = int(exact_recovery(result.labels, gt.labels, cell["K"]))
        error_log = sync_error(result.transforms, gt)
        snr_min = snr_ratio(factors, gt.labels, cell["d"]) if cell["K"] == 2 else None
    except SynclusterError as exc:
        values["exact"] = 0
        values["flags"] = [type(exc).__name__.removesuffix("Error")]
        return values
    values.update(timings, flags=flags, exact=exact, sync_error_log=error_log, snr_min=snr_min)
    return values


def _fmt(value, timing=False):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.3f}" if timing else repr(value)
    return str(value)


def _value_row(values, zero_timings):
    row = []
    for col in CSV_COLUMNS:
        if col == "flags":
            row.append(";".join(values["flags"]))
        elif col.startswith("t_") and zero_timings:
            row.append("0.000")
        elif col.startswith("t_"):
            row.append(_fmt(values[col], timing=True))
        else:
            row.append(_fmt(values[col]))
    return row


def _mean(values):
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _summary_values(cell, trials):
    out = dict(cell)
    out.update(
        trial="mean", subseed=None,
        exact=_mean([v["exact"] for v in trials]),
        sync_error_log=_mean([v["sync_error_log"] for v in trials]),
        snr_min=_mean([v["snr_min"] for v in trials]),
        t_eigen_ms=_mean([v["t_eigen_ms"] for v in trials]) or 0.0,
        t_cpqr_ms=_mean([v["t_cpqr_ms"] for v in trials]) or 0.0,
        t_recover_ms=_mean([v["t_recover_ms"] for v in trials]) or 0.0,
        t_refine_ms=_mean([v["t_refine_ms"] for v in trials]) or 0.0,
        flags=[],
    )
    return out


def run_sweep(spec, out_path=None):
    """Run every (cell, trial) of the spec; optionally write CSV + manifest.

    Returns:
        (trial_values, summary_values): lists of per-row value dicts, in
        (cell, trial) order and cell order respectively.
    """
    spec.validate()
    cells = resolve_cells(spec)
    master = RandomSource(spec.seed)
    tasks = [
        (cell, t, master.subseed(ci, t), spec)
        for ci, cell in enumerate(cells)
        for t in range(spec.trials)
    ]
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            results = list(pool.map(_run_trial, tasks, chunksize=1))
    else:
        results = [_run_trial(t) for t in tasks]

    summaries = [
        _summary_values(cell, results[ci * spec.trials : (ci + 1) * spec.trials])
        for ci, cell in enumerate(cells)
    ]
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for values in results:
                writer.writerow(_value_row(values, spec.zero_timings))
            for values in summaries:
                writer.writerow(_value_row(values, spec.zero_timings))
        _write_manifest(f"{out_path}.manifest.json", spec, extra={"cells": len(cells)})
    return results, summaries


def _write_manifest(path, spec, extra=None):
    manifest = {
        "package_version": __version__,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "csv_columns": list(CSV_COLUMNS),
        "spec": asdict(spec),
        "timing": "monotonic clock, per-phase wall time; bench rows are the "
                  f"median of {_BENCH_REPS} repetitions after one discarded warm-up",
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "log_convention": "natural log; exact matches floored at -746",
    }
    if extra:
        manifest.update(extra)
    with open(path, "w") as fh:
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

    Per n: one discarded warm-up, then _BENCH_REPS repetitions of the full
    pipeline on freshly generated instances; per-phase medians are
    reported. Slopes are fitted for the pipeline excluding the eigensolve
    and for the total.

    Returns:
        (rows, slopes): rows are (n, phase, ms) tuples; slopes maps
        "excl_eigen" and "total" to fitted exponents.
    """
    spec.validate()
    if spec.mode != "runtime":
        raise ValidationError("run_runtime_bench needs mode=runtime")
    density = spec.alpha[0] if spec.alpha else BENCH_DENSITY
    master = RandomSource(spec.seed)
    rows = []
    per_phase = {"eigen": [], "cpqr": [], "recover": [], "refine": [], "excl_eigen": [], "total": []}
    for ni, n in enumerate(spec.n_values):
        cell = _cell(spec, n=n, alpha=density, beta=density)
        samples = {k: [] for k in per_phase}
        for rep in range(_BENCH_REPS + 1):
            subseed = master.subseed(ni, rep)
            gt, a = _generate_instance(cell, spec.sizes, subseed)
            cfg = SolverConfig(
                tolerance=spec.solver_tolerance,
                max_iterations=spec.solver_max_iterations,
                seed=subseed,
            )
            _, _, timings, _ = run_pipeline(
                a, spec.K, spec.d, cfg, spec.refine, spec.fraction
            )
            if rep == 0:
                continue
            samples["eigen"].append(timings["t_eigen_ms"])
            samples["cpqr"].append(timings["t_cpqr_ms"])
            samples["recover"].append(timings["t_recover_ms"])
            samples["refine"].append(timings["t_refine_ms"])
            samples["excl_eigen"].append(
                timings["t_cpqr_ms"] + timings["t_recover_ms"] + timings["t_refine_ms"]
            )
            samples["total"].append(sum(timings.values()))
        for phase, vals in samples.items():
            med = float(np.median(vals))
            per_phase[phase].append(med)
            rows.append((n, phase, med))
    slopes = {
        "excl_eigen": fit_loglog_slope(spec.n_values, per_phase["excl_eigen"]),
        "total": fit_loglog_slope(spec.n_values, per_phase["total"]),
    }
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(BENCH_COLUMNS)
            for n, phase, ms in rows:
                writer.writerow([n, phase, f"{ms:.3f}"])
        _write_manifest(f"{out_path}.manifest.json", spec, extra={"slopes": slopes})
    return rows, slopes


def quadratic_control_slope(n_values, seed=0):
    """Slope of a deliberately quadratic all-pairs kernel, same fitter.

    Calibrates the log-log fit: the kernel computes all pairwise squared
    distances of n planar points, which is Theta(n^2) work, so the fitted
    slope should come out near 2.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    medians = []
    for n in n_values:
        x = rng.standard_normal((int(n), 2))
        samples = []
        for rep in range(_BENCH_REPS + 1):
            t0 = time.perf_counter()
            diff = x[:, None, :] - x[None, :, :]
            (diff * diff).sum()
            elapsed = (time.perf_counter() - t0) * 1e3
            if rep:
                samples.append(elapsed)
        medians.append(float(np.median(samples)))
    return fit_loglog_slope(n_values, medians)


# Configuration files: flat key=value lines, # comments, no sections.
_LIST_INT = "list_int"
_LIST_FLOAT = "list_float"
_RANGE = "range"

_SWEEP_KEYS = {
    "mode": str,
    "n": int,
    "K": int,
    "d": int,
    "sizes": _LIST_INT,
    "alpha": _RANGE,
    "beta": _RANGE,
    "p": float,
    "q": float,
    "eta": _LIST_FLOAT,
    "fixed_axis": str,
    "n_list": _LIST_INT,
    "d_list": _LIST_INT,
    "sigma": float,
    "sigma_list": _LIST_FLOAT,
    "trials": int,
    "refine": str,
    "fraction": float,
    "seed": int,
    "workers": int,
    "solver_tolerance": float,
    "solver_max_iterations": int,
    "zero_timings": int,
}

_MODEL_KEYS = {
    "n": int, "K": int, "d": int, "sizes": _LIST_INT,
    "p": float, "q": float, "sigma": float, "seed": int,
}

_KEY_TO_FIELD = {"eta": "eta_values", "n_list": "n_values", "d_list": "d_values",
                 "sigma_list": "sigma_values"}


def _parse_value(key, kind, raw, where):
    try:
        if kind is str:
            return raw
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == _LIST_INT:
            return tuple(int(part) for part in raw.split(","))
        if kind == _LIST_FLOAT:
            return tuple(float(part) for part in raw.split(","))
        if kind == _RANGE:
            # Either a lo:hi:steps inclusive range or a comma list/scalar.
            if ":" in raw:
                fields = raw.split(":")
                if len(fields) != 3:
                    raise ValueError("ranges are lo:hi:steps")
                lo, hi, steps = float(fields[0]), float(fields[1]), int(fields[2])
                if steps < 1:
                    raise ValueError("steps must be at least 1")
                return tuple(float(v) for v in np.linspace(lo, hi, steps))
            return tuple(float(part) for part in raw.split(","))
    except ValueError as exc:
        raise ParseError(f"{where}: invalid value for '{key}': {exc}") from None
    raise ParseError(f"{where}: unhandled kind for '{key}'")


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
            entries[key] = _parse_value(key, keys[key], raw, f"{path}:{lineno}")
    return entries


def load_config(path, overrides=None):
    """Parse a sweep configuration file into a validated SweepSpec.

    Args:
        path: flat key=value file; '#' starts a comment.
        overrides: {field: value} applied after the file (CLI flags win).

    Returns:
        SweepSpec.

    Raises:
        ParseError: unreadable syntax, unknown or duplicate keys (with the
            line number).
        ValidationError: parsed values violate an invariant (the message
            names it).
        OSError: the file cannot be read.
    """
    entries = _parse_flat_file(path, _SWEEP_KEYS)
    if "mode" not in entries:
        raise ValidationError(f"{path}: missing required key 'mode'")
    kwargs = {}
    for key, value in entries.items():
        if key == "zero_timings":
            value = bool(value)
        kwargs[_KEY_TO_FIELD.get(key, key)] = value
    spec = SweepSpec(**kwargs)
    if overrides:
        for name, value in overrides.items():
            if value is not None:
                setattr(spec, name, value)
    spec.validate()
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
