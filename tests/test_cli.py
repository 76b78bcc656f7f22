import csv
import json
import math
import re
from pathlib import Path

import pytest

from fddlink.cli import main


def test_allocate_prints_json(capsys):
    assert main(["allocate", "--weights", "1,0.25,0.0625", "--budget", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bits"] == [3, 0, 0]
    assert payload["objective"] == pytest.approx(0.3628587964482163, abs=1e-12)


def test_allocate_bruteforce_agrees(capsys):
    main(["allocate", "--weights", "0.9,0.3", "--budget", "5", "--method", "bruteforce"])
    payload = json.loads(capsys.readouterr().out)
    assert sum(payload["bits"]) == 5


def test_sim_mse_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 8\nn_paths = 2\ntrials = 3\nb_tot_grid = 0,2\n")
    out = tmp_path / "out.csv"
    assert main(["sim", "mse", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2 * 3 * 2
    assert {r["experiment"] for r in rows} == {"mse"}


def test_sim_seed_override_changes_output(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 8\nn_paths = 2\ntrials = 3\nb_tot_grid = 2\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sim", "mse", "--config", str(cfg), "--out", str(out1), "--seed", "1"])
    main(["sim", "mse", "--config", str(cfg), "--out", str(out2), "--seed", "2"])
    assert out1.read_bytes() != out2.read_bytes()


def test_sim_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trials = banana\n")
    out = tmp_path / "out.csv"
    assert main(["sim", "mse", "--config", str(cfg), "--out", str(out)]) == 2
    assert "trials" in capsys.readouterr().err


def test_precode_writes_per_drop_records(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 8\nn_users = 2\nn_paths = 2\ntrials = 4\nb_tot = 4\n")
    out = tmp_path / "drops.csv"
    assert main(["precode", "--method", "gpip", "--config", str(cfg),
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4
    assert all(r["method"] == "gpip" for r in rows)
    assert all(math.isfinite(float(r["true_sum_se"])) for r in rows)
    assert all(int(r["iterations"]) >= 1 for r in rows)


def test_precode_zf_and_wmmse(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 8\nn_users = 2\nn_paths = 2\ntrials = 2\n")
    for method in ("zf", "wmmse"):
        out = tmp_path / f"{method}.csv"
        assert main(["precode", "--method", method, "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _relative_tolerance(row: list[str]) -> float | None:
    """Relative tolerance on a reference row's mean, or None where the bytes must match.

    `sim se` rows whose value depends on the CSI covariances C_k moved in the
    last digits when C_k became a low-rank factor, and again when the GPIP
    solver moved into the span of its factors: 1e-9.  WMMSE's true_sum_se
    rows moved by at most about 1e-14 when its updates moved onto the K x K
    Gram matrix: 1e-12.  ZF never reads C_k to choose its precoder, so its
    true_sum_se rows and every row of the other experiments must reproduce
    the reference bytes.
    """
    experiment, method, metric = row[0], row[6], row[7]
    if experiment != "se" or metric == "true_sum_se" and method.startswith("zf_"):
        return None
    return 1e-12 if metric == "true_sum_se" and method.startswith("wmmse_") else 1e-9


@pytest.mark.parametrize("workload,experiment", [
    ("se_desk", "se"), ("se_paper", "se"), ("csi_sweep", "delta"), ("dft_zf", "se")])
def test_sim_matches_reference_csv(tmp_path, workload, experiment):
    out = tmp_path / "out.csv"
    assert main(["sim", experiment, "--config", str(BENCH / "workloads" / f"{workload}.cfg"),
                 "--seed", "0", "--out", str(out)]) == 0
    got = out.read_text().splitlines()
    ref = (BENCH / "reference" / workload / "0.csv").read_text().splitlines()
    assert len(got) == len(ref) and got[0] == ref[0]
    for got_line, ref_line in zip(got[1:], ref[1:]):
        row, ref_row = got_line.split(","), ref_line.split(",")
        rel = _relative_tolerance(ref_row)
        if rel is None:
            assert got_line == ref_line
            continue
        # same key and trial count; the mean within rel and 4 std errors
        assert row[:8] + row[10:] == ref_row[:8] + ref_row[10:]
        shift = abs(float(row[8]) - float(ref_row[8]))
        assert shift <= rel * abs(float(ref_row[8])), ref_line
        assert shift <= 4 * float(ref_row[9]), ref_line


def test_zf_defined_when_dft_users_share_a_codeword(tmp_path):
    # small budgets give colliding codewords; seed 168 hits one at b_tot = 0
    cfg = tmp_path / "s.cfg"
    text = (BENCH / "workloads" / "dft_zf.cfg").read_text()
    cfg.write_text(re.sub(r"(?m)^b_tot_grid = .*$", "b_tot_grid = 0,3,6,9,12,15", text))
    out = tmp_path / "o.csv"
    assert main(["sim", "se", "--config", str(cfg), "--seed", "168", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 6 * 3 * 2
    assert all(math.isfinite(float(r["mean"])) for r in rows)


@pytest.mark.parametrize("precoder,reconstruction,se_method,b_tot", [
    ("gpip", "mmse", "gpip_robust", 9),
    ("gpip", "no_feedback", "gpip_nofeedback", 9),
    ("gpip", "dft", "gpip_dft", 9),
    ("zf", "mmse", "zf_mmse", 9),
    ("zf", "no_feedback", "zf_nofeedback", 9),
    ("zf", "dft", "zf_dft", 9),
    ("wmmse", "mmse", "wmmse_perfect", 9),
    ("wmmse", "no_feedback", "wmmse_perfect", 9),
    ("wmmse", "dft", "wmmse_perfect", 9),
    ("zf", "mmse", "zf_mmse", 0),
])
def test_precode_row_is_the_sim_se_point(tmp_path, precoder, reconstruction, se_method,
                                         b_tot):
    scenario = "n_antennas = 16\nn_users = 3\nn_paths = 3\ntrials = 1\naoa_sigma = 0.02\n"
    pre_cfg, se_cfg = tmp_path / "pre.cfg", tmp_path / "se.cfg"
    pre_cfg.write_text(scenario + f"b_tot = {b_tot}\nreconstruction = {reconstruction}\n")
    se_cfg.write_text(scenario + f"b_tot_grid = {b_tot}\nse_methods = {se_method}\n")
    drops, se = tmp_path / "drops.csv", tmp_path / "se.csv"
    assert main(["precode", "--method", precoder, "--config", str(pre_cfg),
                 "--out", str(drops)]) == 0
    assert main(["sim", "se", "--config", str(se_cfg), "--out", str(se)]) == 0
    (row,) = csv.DictReader(drops.open())
    means = {r["metric"]: r["mean"] for r in csv.DictReader(se.open())}
    assert row["true_sum_se"] == means["true_sum_se"]
    assert row["se_lower_bound"] == means["se_lower_bound"]


def test_failed_drop_names_seed_trial_point_and_method(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 2\nn_users = 3\nn_paths = 2\ntrials = 3\n"
                   "b_tot_grid = 0\nse_methods = zf_mmse\n")
    assert main(["sim", "se", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "zero-forcing needs K <= N" in err
    assert re.search(r"\(seed 1234, trial \d+, n_antennas 2, n_paths 2, power_dbm 43\.0, "
                     r"b_tot 0, method zf_mmse\)", err)
