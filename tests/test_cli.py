import csv
import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddlink.cli import _load_scenario, build_parser, main
from fddlink.config import SE_METHODS


def read_rows(path) -> list[dict]:
    """The rows of a CSV file, read with the file closed afterwards."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# the exact stdout of `fddlink allocate` on five instances under both
# methods; on 1,1/2 greedy breaks the tie to the lowest path index and the
# exhaustive search to the last composition
ALLOCATE_PINS = [
    ("1,0.25,0.0625", 3, "greedy",
     '{"weights": [1.0, 0.25, 0.0625], "budget": 3, "method": "greedy"'
     ', "bits": [3, 0, 0], "objective": 0.3628587964482163}'),
    ("1,1", 2, "greedy",
     '{"weights": [1.0, 1.0], "budget": 2, "method": "greedy"'
     ', "bits": [2, 0], "objective": 1.1894305308612978}'),
    ("0.5,0.25", 0, "greedy",
     '{"weights": [0.5, 0.25], "budget": 0, "method": "greedy"'
     ', "bits": [0, 0], "objective": 0.75}'),
    ("0.7", 9, "greedy",
     '{"weights": [0.7], "budget": 9, "method": "greedy"'
     ', "bits": [9], "objective": 8.784851582066544e-06}'),
    ("1,0.3,0.02", 12, "greedy",
     '{"weights": [1.0, 0.3, 0.02], "budget": 12, "method": "greedy"'
     ', "bits": [5, 5, 2], "objective": 0.007959837358776884}'),
    ("1,0.25,0.0625", 3, "bruteforce",
     '{"weights": [1.0, 0.25, 0.0625], "budget": 3, "method": "bruteforce"'
     ', "bits": [3, 0, 0], "objective": 0.3628587964482163}'),
    ("1,1", 2, "bruteforce",
     '{"weights": [1.0, 1.0], "budget": 2, "method": "bruteforce"'
     ', "bits": [0, 2], "objective": 1.1894305308612978}'),
    ("0.5,0.25", 0, "bruteforce",
     '{"weights": [0.5, 0.25], "budget": 0, "method": "bruteforce"'
     ', "bits": [0, 0], "objective": 0.75}'),
    ("0.7", 9, "bruteforce",
     '{"weights": [0.7], "budget": 9, "method": "bruteforce"'
     ', "bits": [9], "objective": 8.784851582066544e-06}'),
    ("1,0.3,0.02", 12, "bruteforce",
     '{"weights": [1.0, 0.3, 0.02], "budget": 12, "method": "bruteforce"'
     ', "bits": [5, 5, 2], "objective": 0.007959837358776884}'),
]


@pytest.mark.parametrize("weights, budget, method, line", ALLOCATE_PINS)
def test_allocate_stdout_is_pinned(capsys, weights, budget, method, line):
    assert main(["allocate", "--weights", weights, "--budget", str(budget),
                 "--method", method]) == 0
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("method", ["greedy", "bruteforce"])
@pytest.mark.parametrize("weights, budget, field", [
    (",", "2", "weight"),
    ("1,-0.5", "2", "weights"),
    ("1,nan", "2", "weights"),
    ("1,0.5", "-1", "budget"),
    ("1,0.5", "200", "budget 200"),
])
def test_allocate_rejects_bad_input(capsys, method, weights, budget, field):
    assert main(["allocate", "--weights", weights, "--budget", budget, "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


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
    rows = read_rows(out)
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


@pytest.mark.parametrize("line", ["noise_dbm = 4000", "power_dbm_grid = 43, 4000",
                                  "pl_ref_gain_db = 4000"])
def test_sim_rejects_db_values_that_overflow(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n_antennas = 8\nn_users = 2\ntrials = 1\n{line}\n")
    out = tmp_path / "out.csv"
    assert main(["sim", "se", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{line.split(' = ')[0]}': ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_precode_writes_per_drop_records(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 8\nn_users = 2\nn_paths = 2\ntrials = 4\n"
                   "b_tot_grid = 4\nse_methods = gpip_robust\n")
    out = tmp_path / "drops.csv"
    assert main(["precode", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert list(rows[0]) == ["drop", "n_antennas", "n_paths", "power_dbm", "b_tot", "method",
                             "true_sum_se", "se_lower_bound", "iterations"]
    assert [r["drop"] for r in rows] == ["0", "1", "2", "3"]
    assert all(r["method"] == "gpip_robust" and r["b_tot"] == "4" for r in rows)
    assert all(math.isfinite(float(r["true_sum_se"])) for r in rows)
    assert all(int(r["iterations"]) >= 1 for r in rows)


def test_precode_zf_and_wmmse(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 8\nn_users = 2\nn_paths = 2\ntrials = 2\n"
                   "b_tot_grid = 0, 15\nse_methods = zf_mmse, wmmse_perfect\n")
    out = tmp_path / "drops.csv"
    assert main(["precode", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out)
    # drop-major, then the sweep axes in se_samples order
    assert [(r["drop"], r["b_tot"], r["method"]) for r in rows] == [
        (d, b, m) for d in "01" for b in ("0", "15") for m in ("zf_mmse", "wmmse_perfect")]
    assert all(r["iterations"] == "0" for r in rows)


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


@pytest.mark.parametrize("workload,experiment,seeds", [
    # seed 0 only for the se_* workloads: plain GPIP's true_sum_se rows
    # amplify rounding, and the code that wrote the references has since
    # moved them by 6.9e-7 to 3.8e-6 relative at se_desk seeds 4, 7, 12 and
    # 14 and by 7.9e-8 at se_paper seed 13, past the 1e-9 tolerance
    pytest.param("se_desk", "se", (0,), id="se_desk-se"),
    pytest.param("se_paper", "se", (0,), id="se_paper-se"),
    # every reference seed: a csi_sweep or dft_zf campaign takes a fraction of a second
    pytest.param("csi_sweep", "delta", range(16), id="csi_sweep-delta"),
    pytest.param("dft_zf", "se", range(16), id="dft_zf-se")])
def test_sim_matches_reference_csv(tmp_path, workload, experiment, seeds):
    for seed in seeds:
        _check_reference_seed(tmp_path, workload, experiment, seed)


def _check_reference_seed(tmp_path, workload, experiment, seed):
    out = tmp_path / f"{seed}.csv"
    assert main(["sim", experiment, "--config", str(BENCH / "workloads" / f"{workload}.cfg"),
                 "--seed", str(seed), "--out", str(out)]) == 0
    got = out.read_text().splitlines()
    ref = (BENCH / "reference" / workload / f"{seed}.csv").read_text().splitlines()
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


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("experiment,workers", [("se", 1), ("se", 3), ("mse", 1)],
                         ids=["se-w1", "se-w3", "mse-w1"])
def test_all_methods_config_matches_golden_csv(tmp_path, experiment, workers):
    # all eight SE methods over two array sizes, two path counts, two powers
    # and four budgets, with estimation noise: every CSI source and precoder
    out = tmp_path / "out.csv"
    assert main(["sim", experiment, "--config", str(DATA / "all_methods.cfg"),
                 "--workers", str(workers), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"all_methods_{experiment}.csv").read_bytes()


def test_zf_defined_when_dft_users_share_a_codeword(tmp_path):
    # small budgets give colliding codewords; seed 168 hits one at b_tot = 0
    cfg = tmp_path / "s.cfg"
    text = (BENCH / "workloads" / "dft_zf.cfg").read_text()
    cfg.write_text(re.sub(r"(?m)^b_tot_grid = .*$", "b_tot_grid = 0,3,6,9,12,15", text))
    out = tmp_path / "o.csv"
    assert main(["sim", "se", "--config", str(cfg), "--seed", "168", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 6 * 3 * 2
    assert all(math.isfinite(float(r["mean"])) for r in rows)


@pytest.mark.parametrize("precoder,reconstruction,se_method,b_tot", [
    (None, "mmse", "gpip_robust", 9),  # no se_methods line: the default sweep
    ("gpip", "mmse", "gpip_robust", 9),
    ("gpip", "no_feedback", "gpip_nofeedback", 9),
    ("gpip", "dft", "gpip_dft", 9),
    ("zf", "mmse", "zf_mmse", 9),
    ("zf", "no_feedback", "zf_nofeedback", 9),
    ("zf", "dft", "zf_dft", 9),
    ("wmmse", "mmse", "wmmse_perfect", 9),  # WMMSE reads the true channel whatever
    ("wmmse", "no_feedback", "wmmse_perfect", 9),  # the feedback mode
    ("wmmse", "dft", "wmmse_perfect", 9),
    ("zf", "mmse", "zf_mmse", 0),
])
def test_precode_row_is_the_sim_se_point(tmp_path, precoder, reconstruction, se_method,
                                         b_tot):
    source, method_precoder, _ = SE_METHODS[se_method]
    assert method_precoder == (precoder or "gpip")
    assert source == ("perfect" if precoder == "wmmse" else reconstruction)
    methods = "" if precoder is None else f"se_methods = {se_method}\n"
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 16\nn_users = 3\nn_paths = 3\ntrials = 1\naoa_sigma = 0.02\n"
                   f"b_tot_grid = {b_tot}\n{methods}")
    drops, se = tmp_path / "drops.csv", tmp_path / "se.csv"
    assert main(["precode", "--config", str(cfg), "--out", str(drops)]) == 0
    assert main(["sim", "se", "--config", str(cfg), "--out", str(se)]) == 0
    (row,) = [r for r in read_rows(drops) if r["method"] == se_method]
    means = {r["metric"]: r["mean"] for r in read_rows(se)
             if r["method"] == se_method}
    assert row["true_sum_se"] == means["true_sum_se"]
    assert row["se_lower_bound"] == means["se_lower_bound"]


def test_precode_rows_are_the_sim_se_sweep(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 16\nn_users = 3\nn_paths = 3\ntrials = 1\n"
                   "aoa_sigma = 0.02\npower_dbm_grid = 30, 43\nb_tot_grid = 0, 9\n"
                   f"se_methods = {', '.join(SE_METHODS)}\n")
    drops, se = tmp_path / "drops.csv", tmp_path / "se.csv"
    assert main(["precode", "--config", str(cfg), "--out", str(drops)]) == 0
    assert main(["sim", "se", "--config", str(cfg), "--out", str(se)]) == 0
    key = ("n_antennas", "n_paths", "power_dbm", "b_tot", "method")
    means = {(*(r[k] for k in key), r["metric"]): r["mean"] for r in read_rows(se)}
    rows = read_rows(drops)
    assert len(rows) == 2 * 2 * len(SE_METHODS) and len(means) == 2 * len(rows)
    for row in rows:
        for metric in ("true_sum_se", "se_lower_bound"):
            assert row[metric] == means[(*(row[k] for k in key), metric)], row


@pytest.mark.parametrize("command", [["sim", "se"], ["precode"]], ids=["sim-se", "precode"])
def test_failed_drop_names_seed_trial_point_and_method(tmp_path, capsys, command):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 2\nn_users = 3\nn_paths = 2\ntrials = 3\n"
                   "b_tot_grid = 0\nse_methods = zf_mmse\n")
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "zero-forcing needs K <= N" in err
    assert re.search(r"\(seed 1234, trial \d+, n_antennas 2, n_paths 2, power_dbm 43\.0, "
                     r"b_tot 0, method zf_mmse\)", err)


def test_sim_se_objective_beyond_the_float_range(tmp_path):
    # 64 users at 60 dBm: the lower bound is about 1200 bits/s/Hz, so the
    # solver's objective, the product of the users' ratios, is about 2**1200
    # and only its log is a float
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 256\nn_users = 64\npower_dbm_grid = 60\nb_tot_grid = 21\n"
                   "se_methods = gpip_plain\ngpip_max_iter = 3\ntrials = 1\n")
    out = tmp_path / "o.csv"
    assert main(["sim", "se", "--config", str(cfg), "--out", str(out)]) == 0
    means = {r["metric"]: float(r["mean"]) for r in read_rows(out)}
    assert means["se_lower_bound"] * math.log(2) > math.log(sys.float_info.max)
    assert math.isfinite(means["true_sum_se"])


def test_saturated_wmmse_receiver_names_the_user(tmp_path, capsys):
    # at -3200 dBm noise a user of 3 on 2 antennas hears its own stream alone
    # at rounding: its MMSE is zero and its WMMSE weight undefined
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_antennas = 2\nn_users = 3\nnoise_dbm = -3200\ntrials = 6\nseed = 5\n"
                   "b_tot_grid = 0\nse_methods = wmmse_perfect\n")
    assert main(["sim", "se", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Warning" not in err
    assert re.match(r"error: user \d's MMSE receiver saturated .*\(seed 5, trial 0, "
                    r"n_antennas 2, n_paths 3, power_dbm 43\.0, b_tot 0, method wmmse_perfect\)$",
                    err)


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from([["sim", "se"], ["sim", "mse"], ["sim", "delta"], ["precode"]]),
       paper_scale=st.booleans(), seed=st.none() | st.integers(0, 2**32),
       workers=st.none() | st.integers(1, 8))
def test_config_file_or_none_give_one_scenario(tmp_path_factory, command, paper_scale, seed,
                                               workers):
    # every subset of the overrides that the command takes resolves to the
    # same config without --config as with an empty scenario file
    args = [*command, "--out", "o.csv"]
    if seed is not None:
        args += ["--seed", str(seed)]
    if command[0] == "sim":
        args += ["--paper-scale"] * paper_scale
        args += [] if workers is None else ["--workers", str(workers)]
    empty = tmp_path_factory.getbasetemp() / "empty.cfg"
    empty.write_text("")
    parser = build_parser()
    cfg = _load_scenario(parser.parse_args(args))
    assert cfg == _load_scenario(parser.parse_args([*args, "--config", str(empty)]))
    if "--paper-scale" in args:
        assert (cfg.n_antennas, cfg.n_users, cfg.n_grid) == (256, 16, (256,))
