"""Seeded outputs: every bundled sweep study reproduces its golden CSV, and
the benchmark's two cells reproduce their pinned instances and results.

scripts/write_golden.py wrote tests/golden/<study>.csv, one trial per cell
with zero_timings, under the BLAS thread variables (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS, MKL_NUM_THREADS) unset; the script prints the values it
runs under. The integer and text columns must match exactly; the
float columns to a relative tolerance of 1e-6 (absolute 1e-9 near zero),
since other BLAS builds and CPUs differ in the last bits. A change meant to
move seeded outputs reruns that script (or retakes the pinned values below)
and says so in CHANGES.md.
"""

import csv
import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from syncluster import ModelParams, SolverConfig, exact_recovery, generate_instance, sync_error
from syncluster.harness import CSV_COLUMNS, run_pipeline

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("write_golden", ROOT / "scripts" / "write_golden.py")
write_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write_golden)

EXACT_COLUMNS = ("mode", "n", "K", "d", "trial", "subseed", "exact", "flags")
FLOAT_COLUMNS = tuple(col for col in CSV_COLUMNS if col not in EXACT_COLUMNS)
REL_TOL, ABS_TOL = 1e-6, 1e-9


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_every_golden_file_has_a_study():
    found = {path.stem for path in write_golden.GOLDEN_DIR.glob("*.csv")}
    assert found == set(write_golden.STUDIES)


@pytest.mark.parametrize("study", write_golden.STUDIES)
def test_study_reproduces_its_golden_csv(tmp_path, study):
    out = tmp_path / f"{study}.csv"
    write_golden.write_study(study, out)
    golden, got = _rows(write_golden.GOLDEN_DIR / f"{study}.csv"), _rows(out)
    assert len(got) == len(golden)
    for line, (want, have) in enumerate(zip(golden, got), start=2):
        assert list(have) == list(CSV_COLUMNS)
        for col in EXACT_COLUMNS:
            assert have[col] == want[col], (study, line, col)
        for col in FLOAT_COLUMNS:
            if want[col] == "" or have[col] == "":
                assert have[col] == want[col], (study, line, col)
            else:
                assert math.isclose(float(have[col]), float(want[col]),
                                    rel_tol=REL_TOL, abs_tol=ABS_TOL), (study, line, col)


# The cells of the benchmark's sparse-large and noisy-dense workloads, as
# perfbench/workloads.py defines them, run the way a benchmark trial runs
# them: SolverConfig(seed) and refine_clusters' fraction 0.10.
_SPARSE_N = 6400
_SPARSE_P = 10.0 * math.log(_SPARSE_N) / _SPARSE_N
BENCHMARK_CELLS = {
    "sparse-large": (dict(n=_SPARSE_N, K=2, d=2, p=_SPARSE_P, q=_SPARSE_P), "both"),
    "noisy-dense": (dict(n=500, K=3, d=8, p=0.5, q=0.1, sigma=0.3), "clusters"),
}

# (workload, seed): pair count, SHA-256 of the pairs, sum of |blocks|, sum of
# |true transforms| and, for noisy-dense, sync_error_log. Plain sums cancel
# and every orthogonal block has the same Frobenius norm, so the block sums
# are of absolute values.
PINNED = {
    ("sparse-large", 1): (
        280392, "5a503273d071ce9ea5c7e93ba62668c1dc557dc4e73f9cad5335750578b83186",
        714123.1978926992, 16306.746440325669, None,
    ),
    ("sparse-large", 2): (
        281901, "f29ed5736f29a7212c40a6ed92af986badd558717363ce15e22ef8973c68bf34",
        717766.3219342564, 16268.947454370038, None,
    ),
    ("noisy-dense", 1): (
        124750, "1d6af42e9558176ed16e9d901a247b6c72edcd1de018c3399e382ac28df7160f",
        2159648.015570718, 9304.61558120829, -2.0019814226393278,
    ),
    ("noisy-dense", 2): (
        124750, "1d6af42e9558176ed16e9d901a247b6c72edcd1de018c3399e382ac28df7160f",
        2158858.1929391054, 9286.53575623221, -1.9451792360800082,
    ),
}

# Noiseless refine=both recovers transforms only to the solver tolerance,
# whose last digits follow the BLAS build, so sparse-large is held to the
# benchmark's ceiling rather than to a pinned value.
SYNC_LOG_CEILING = math.log(1e-6)


@pytest.mark.parametrize(("workload", "seed"), sorted(PINNED))
def test_benchmark_cell_reproduces_its_pinned_outputs(workload, seed):
    cell, refine = BENCHMARK_CELLS[workload]
    pair_count, pairs_sha256, block_abs_sum, truth_abs_sum, error_log = PINNED[workload, seed]
    gt, a = generate_instance(ModelParams(seed=seed, **cell))
    assert a.pair_count == pair_count
    assert hashlib.sha256(a.pairs.tobytes()).hexdigest() == pairs_sha256
    assert math.isclose(float(np.abs(a.data).sum()), block_abs_sum, rel_tol=1e-12)
    assert math.isclose(float(np.abs(gt.transforms).sum()), truth_abs_sum, rel_tol=1e-12)

    _, result, _, flags = run_pipeline(a, cell["K"], cell["d"], SolverConfig(seed=seed), refine, 0.10)
    assert flags == []
    assert exact_recovery(result.labels, gt.labels, cell["K"])
    if error_log is None:
        assert sync_error(result.transforms, gt) <= SYNC_LOG_CEILING
    else:
        assert math.isclose(sync_error(result.transforms, gt), error_log, rel_tol=REL_TOL)


@pytest.mark.parametrize("seed", [1, 2])
def test_sparse_large_cell_is_exact_without_the_re_vote(seed):
    # refine=transforms runs the global solve only to 1e-2 and has no
    # refine_clusters re-vote, so the loose basis's labels are the output:
    # where the loose solve would cost a label, it shows here first.
    cell, _ = BENCHMARK_CELLS["sparse-large"]
    gt, a = generate_instance(ModelParams(seed=seed, **cell))
    _, result, _, flags = run_pipeline(a, cell["K"], cell["d"], SolverConfig(seed=seed), "transforms")
    assert flags == []
    assert exact_recovery(result.labels, gt.labels, cell["K"])
    assert sync_error(result.transforms, gt) <= SYNC_LOG_CEILING
