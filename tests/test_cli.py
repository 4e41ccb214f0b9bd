"""End-to-end CLI behavior through main(argv): exit codes, files, output."""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from syncluster import harness
from syncluster.cli import main
from syncluster.errors import NoConvergenceError
from syncluster.harness import CSV_COLUMNS
from syncluster.model import load_labeling


@pytest.fixture
def sweep_conf(tmp_path):
    path = tmp_path / "sweep.conf"
    path.write_text(
        "mode = grid\nn = 32\nK = 2\nd = 1\nalpha = 8\nbeta = 0.5\n"
        "trials = 2\nseed = 3\nzero_timings = 1\n"
    )
    return path


@pytest.fixture
def model_conf(tmp_path):
    path = tmp_path / "model.conf"
    path.write_text("n = 24\nK = 2\nd = 2\np = 1.0\nq = 0.0\nseed = 5\n")
    return path


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert "syncluster" in capsys.readouterr().out
    assert main(["--help"]) == 0
    assert main(["sweep", "--help"]) == 0


def test_usage_problems_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["sweep"]) == 1  # --config and --out are required
    assert main(["sweep", "--config", "x", "--out", "y", "--trials", "soon"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_runs_config_and_writes_csv(sweep_conf, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["sweep", "--config", str(sweep_conf), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "success=" in captured
    assert f"wrote={out}" in captured
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + 2 + 1  # header, two trials, one mean


def test_sweep_flag_overrides_trials(sweep_conf, tmp_path):
    out = tmp_path / "run.csv"
    assert main(["sweep", "--config", str(sweep_conf), "--out", str(out), "--trials", "4"]) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 4 + 1


def test_sweep_expands_its_spec_once(sweep_conf, tmp_path, monkeypatch):
    calls = []
    resolve = harness.resolve_cells

    def counting_resolve(spec):
        calls.append(spec.mode)
        return resolve(spec)

    monkeypatch.setattr(harness, "resolve_cells", counting_resolve)
    assert main(["sweep", "--config", str(sweep_conf), "--out", str(tmp_path / "run.csv")]) == 0
    assert calls == ["grid"]


def test_sweep_missing_config_exits_two(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "nope.conf"), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_bad_config_exits_one(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("mode = grid\nn = 32\nbogus = 1\n")
    assert main(["sweep", "--config", str(conf), "--out", str(tmp_path / "o.csv")]) == 1
    assert "bad.conf:3" in capsys.readouterr().err


def test_sweep_invalid_values_exit_one(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("mode = grid\nn = 32\nK = 2\nd = 1\nalpha = 99\nbeta = 0.5\n")
    assert main(["sweep", "--config", str(conf), "--out", str(tmp_path / "o.csv")]) == 1
    assert "outside" in capsys.readouterr().err


def test_generate_then_solve_round_trip(model_conf, tmp_path, capsys):
    matrix = tmp_path / "instance.bin"
    assert main(["generate", "--config", str(model_conf), "--out", str(matrix)]) == 0
    captured = capsys.readouterr().out
    assert "n=24 K=2 d=2" in captured
    assert f"wrote={matrix}" in captured
    truth = tmp_path / "instance.bin.truth"
    assert truth.exists()

    est_out = tmp_path / "estimate.bin"
    code = main(["solve", str(matrix), "--truth", str(truth), "--out", str(est_out)])
    assert code == 0
    lines = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line
    )
    assert lines["exact"] == "1"
    assert float(lines["sync_error_log"]) < -10
    assert "snr_min" in lines
    assert lines["cluster_sizes"] in ("12;12",)

    labels, transforms, big_k = load_labeling(est_out)
    assert big_k == 2
    assert labels.shape == (24,)
    assert transforms.shape == (24, 2, 2)
    assert sorted(np.bincount(labels)[1:]) == [12, 12]


def test_solve_without_truth_still_reports_shape(model_conf, tmp_path, capsys):
    matrix = tmp_path / "instance.bin"
    main(["generate", "--config", str(model_conf), "--out", str(matrix)])
    capsys.readouterr()
    assert main(["solve", str(matrix)]) == 0
    out = capsys.readouterr().out
    assert "n=24 K=2 d=2" in out
    assert "exact=" not in out


def test_solve_negative_seed_exits_one(model_conf, tmp_path, capsys):
    matrix = tmp_path / "instance.bin"
    main(["generate", "--config", str(model_conf), "--out", str(matrix)])
    capsys.readouterr()
    assert main(["solve", str(matrix), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be non-negative" in err


def test_generate_rejects_non_finite_sigma(tmp_path, capsys):
    conf = tmp_path / "noisy.conf"
    conf.write_text("n = 24\nK = 2\nd = 2\np = 1.0\nq = 0.0\nsigma = nan\n")
    out = tmp_path / "instance.bin"
    assert main(["generate", "--config", str(conf), "--out", str(out)]) == 1
    assert "sigma must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


def _stalled(a, k, cfg=None):
    raise NoConvergenceError("no convergence after 1 iterations")


def test_solve_no_convergence_exits_one(model_conf, tmp_path, capsys, monkeypatch):
    matrix = tmp_path / "instance.bin"
    main(["generate", "--config", str(model_conf), "--out", str(matrix)])
    capsys.readouterr()
    monkeypatch.setattr(harness, "top_eigenpairs", _stalled)
    assert main(["solve", str(matrix)]) == 1
    assert capsys.readouterr().err == "error: no convergence after 1 iterations\n"


def test_solve_missing_file_exits_two(tmp_path):
    assert main(["solve", str(tmp_path / "ghost.bin")]) == 2


def test_solve_corrupt_file_exits_one(tmp_path, capsys):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"this is not a container at all")
    assert main(["solve", str(junk)]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_non_finite_block_exits_one(nan_block_container, capsys):
    assert main(["solve", str(nan_block_container)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "NaN or Inf" in err
    assert "Traceback" not in err


def test_generate_rejects_incomplete_model(tmp_path, capsys):
    conf = tmp_path / "model.conf"
    conf.write_text("n = 24\nK = 2\nd = 2\np = 1.0\n")
    assert main(["generate", "--config", str(conf), "--out", str(tmp_path / "x.bin")]) == 1
    assert "missing required key 'q'" in capsys.readouterr().err


def test_sweep_runs_snr_config(tmp_path, capsys):
    conf = tmp_path / "snr.conf"
    conf.write_text("mode = snr\nn = 32\nK = 2\nd = 1,2\np = 0.6\nq = 0.6\ntrials = 1\nzero_timings = 1\n")
    out = tmp_path / "snr.csv"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
    assert "snr_min=" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["mode"], row["d"]) for row in rows] == [("snr", "1"), ("snr", "2")] * 2


def test_sweep_routes_runtime_configs_to_bench(tmp_path, capsys):
    conf = tmp_path / "bench.conf"
    conf.write_text("mode = runtime\nK = 2\nd = 1\nn = 48,96\nalpha = 10\nbeta = 10\nseed = 2\n")
    out = tmp_path / "bench.csv"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "slope_excl_eigen=" in captured
    assert "slope_total=" in captured
    with open(out, newline="") as fh:
        assert next(csv.reader(fh)) == list(harness.BENCH_COLUMNS)


def test_bench_subcommand_with_config(tmp_path, capsys):
    # The runtime bench runs from its config through sweep and times every
    # size the config lists.
    conf = tmp_path / "bench.conf"
    conf.write_text("mode = runtime\nK = 2\nd = 1\nn = 48,96\nalpha = 10\nbeta = 10\nseed = 2\n")
    out = tmp_path / "bench.csv"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "slope_excl_eigen=" in captured
    assert "slope_total=" in captured
    with open(out, newline="") as fh:
        assert {row["n"] for row in csv.DictReader(fh)} == {"48", "96"}


def test_bench_failed_trial_exits_one(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "bench.conf"
    conf.write_text("mode = runtime\nK = 2\nd = 1\nn = 48,96\nalpha = 10\nbeta = 10\n")
    monkeypatch.setattr(harness, "top_eigenpairs", _stalled)
    assert main(["sweep", "--config", str(conf), "--out", str(tmp_path / "bench.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: runtime bench trial 0 at n=48 failed: NoConvergence\n"
    )


@pytest.mark.parametrize("command", ["bench", "snr"])
def test_bench_and_snr_subcommands_are_gone(tmp_path, capsys, command):
    # Every study, the runtime bench and the snr study included, runs
    # through sweep with its config.
    out = tmp_path / "o.csv"
    assert main([command, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "invalid choice" in err and command in err
    assert not out.exists()


def test_help_lists_exactly_three_commands(capsys):
    assert main(["--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # Subcommands are the lines indented past the two-space option column.
    assert [line.split()[0] for line in lines if line.startswith("    ")] == ["sweep", "generate", "solve"]


def _science_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: v for k, v in row.items() if not k.startswith("t_")} for row in rows]


def _study_runner():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_all_studies.py"
    spec = importlib.util.spec_from_file_location("run_all_studies", path)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def test_study_runner_matches_a_direct_sweep(tmp_path, capsys):
    runner = _study_runner()
    out_dir = tmp_path / "results"
    assert runner.main(["--only", "eta_threshold", "--trials", "1", "--out-dir", str(out_dir)]) == 0
    assert "study=eta_threshold" in capsys.readouterr().out
    written = out_dir / "eta_threshold.csv"
    assert (out_dir / "eta_threshold.csv.manifest.json").exists()

    direct = tmp_path / "direct.csv"
    config = runner.CONFIG_DIR / "eta_threshold.conf"
    assert main(["sweep", "--config", str(config), "--trials", "1", "--out", str(direct)]) == 0
    rows = _science_rows(written)
    assert len(rows) == 10 + 10  # one trial and one mean row per eta target
    assert rows == _science_rows(direct)


def test_study_runner_records_the_bench_repetitions_that_ran(tmp_path):
    # The bench runs a fixed warm-up plus repetitions in one process, so
    # --trials and --workers do not apply; the manifest says what ran.
    out_dir = tmp_path / "results"
    argv = ["--only", "runtime_bench", "--trials", "1", "--workers", "3", "--out-dir", str(out_dir)]
    assert _study_runner().main(argv) == 0
    manifest = json.loads((out_dir / "runtime_bench.csv.manifest.json").read_text())
    assert manifest["spec"]["trials"] == harness._BENCH_REPS + 1
    assert manifest["spec"]["workers"] == 1
