"""Seeded outputs: every bundled sweep study reproduces its golden CSV.

scripts/write_golden.py wrote tests/golden/<study>.csv, one trial per cell
with zero_timings. The integer and text columns must match exactly; the
float columns to a relative tolerance of 1e-6 (absolute 1e-9 near zero),
since other BLAS builds and CPUs differ in the last bits. A change meant to
move seeded outputs reruns that script and says so in CHANGES.md.
"""

import csv
import importlib.util
import math
from pathlib import Path

import pytest

from syncluster.harness import CSV_COLUMNS

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
