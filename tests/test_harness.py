import numpy as np
import pytest

from fddlink import feedback, reconstruction
from fddlink.config import ScenarioConfig
from fddlink.harness import (
    derive_trial_seed,
    emit_csv,
    run_delta_experiment,
    run_experiment,
    run_mse_experiment,
    run_se_experiment,
)


def small_cfg(**kw):
    base = dict(n_antennas=8, n_users=2, n_paths=2, trials=6, seed=321,
                b_tot_grid=(0, 4), decay_ratio=0.4)
    base.update(kw)
    return ScenarioConfig(**base)


class TestSeeding:
    def test_trial_seeds_are_stable(self):
        a = np.random.default_rng(derive_trial_seed(7, 3)).integers(0, 2**32, 4)
        b = np.random.default_rng(derive_trial_seed(7, 3)).integers(0, 2**32, 4)
        np.testing.assert_array_equal(a, b)

    def test_trials_get_distinct_streams(self):
        a = np.random.default_rng(derive_trial_seed(7, 0)).integers(0, 2**32, 4)
        b = np.random.default_rng(derive_trial_seed(7, 1)).integers(0, 2**32, 4)
        assert not np.array_equal(a, b)


class TestMseExperiment:
    def test_zero_budget_strategies_coincide(self):
        records = run_mse_experiment(small_cfg())
        at_zero = {(r.method, r.metric): r.mean for r in records if r.b_tot == 0}
        for metric in ("mse_closed_form", "mse_monte_carlo"):
            assert at_zero[("greedy", metric)] == at_zero[("uniform", metric)]
            assert at_zero[("greedy", metric)] == at_zero[("none", metric)]

    def test_greedy_dominates_uniform_closed_form(self):
        records = run_mse_experiment(small_cfg(b_tot_grid=(2, 4, 8)))
        by = {(r.b_tot, r.method): r.mean for r in records if r.metric == "mse_closed_form"}
        for b in (2, 4, 8):
            assert by[(b, "greedy")] <= by[(b, "uniform")] + 1e-15

    def test_monte_carlo_tracks_closed_form(self):
        records = run_mse_experiment(small_cfg(trials=400, b_tot_grid=(3,)))
        rec = {r.metric: r for r in records if r.method == "greedy"}
        cf, mc = rec["mse_closed_form"], rec["mse_monte_carlo"]
        assert mc.mean == pytest.approx(cf.mean, abs=4 * (mc.std_err + cf.std_err))

    def test_stderr_definition(self):
        records = run_mse_experiment(small_cfg(trials=1))
        assert all(r.std_err == 0.0 for r in records)

    def test_mean_and_stderr_reproducible_from_trial_seeds(self):
        # independent recomputation of the no-feedback closed-form column
        # using the documented per-trial seed derivation
        from fddlink.channel import draw_user_paths

        cfg = small_cfg(trials=9, b_tot_grid=(5,))
        records = run_mse_experiment(cfg)
        rec = next(r for r in records
                   if r.method == "none" and r.metric == "mse_closed_form")
        vals = []
        for t in range(cfg.trials):
            rng = np.random.default_rng(derive_trial_seed(cfg.seed, t))
            ps = draw_user_paths(cfg, rng)
            vals.append(cfg.n_antennas * float(np.sum(ps.betas**2)))
        vals = np.asarray(vals)
        assert rec.mean == pytest.approx(vals.mean(), rel=1e-12)
        assert rec.std_err == pytest.approx(
            vals.std(ddof=1) / np.sqrt(len(vals)), rel=1e-12)


class TestDeltaExperiment:
    def test_single_path_is_null(self):
        records = run_delta_experiment(small_cfg(n_paths=1, l_grid=(1,), n_antennas=16))
        assert all(abs(r.mean) < 1e-3 for r in records)

    def test_emits_both_columns_per_coordinate(self):
        cfg = small_cfg(l_grid=(1, 2), b_tot_grid=(3, 6))
        records = run_delta_experiment(cfg)
        keys = {(r.n_paths, r.b_tot, r.metric) for r in records}
        assert len(keys) == 2 * 2 * 2

    def test_error_shrinks_with_budget(self):
        cfg = small_cfg(n_antennas=64, n_paths=2, trials=40, b_tot_grid=(2, 12))
        records = run_delta_experiment(cfg)
        emp = {r.b_tot: (r.mean, r.std_err) for r in records if r.metric == "delta_norm_emp"}
        assert emp[12][0] <= emp[2][0] + 2 * (emp[12][1] + emp[2][1])


class TestSeExperiment:
    def test_methods_and_metrics_emitted(self):
        cfg = small_cfg(n_antennas=8, n_users=2, trials=3, b_tot_grid=(4,),
                        se_methods=("gpip_robust", "zf_mmse", "wmmse_perfect"))
        records = run_se_experiment(cfg)
        methods = {r.method for r in records}
        metrics = {r.metric for r in records}
        assert methods == {"gpip_robust", "zf_mmse", "wmmse_perfect"}
        assert metrics == {"true_sum_se", "se_lower_bound"}

    def test_wmmse_tops_zf_and_budget_helps(self):
        cfg = small_cfg(n_antennas=16, n_users=3, n_paths=2, trials=12,
                        b_tot_grid=(0, 12),
                        se_methods=("gpip_robust", "zf_mmse", "wmmse_perfect"))
        records = run_se_experiment(cfg)
        mean = {(r.method, r.b_tot): r.mean for r in records if r.metric == "true_sum_se"}
        err = {(r.method, r.b_tot): r.std_err for r in records if r.metric == "true_sum_se"}
        for b in (0, 12):
            assert mean[("wmmse_perfect", b)] >= mean[("zf_mmse", b)] - 1e-9
        gain = mean[("gpip_robust", 12)] - mean[("gpip_robust", 0)]
        spread = err[("gpip_robust", 12)] + err[("gpip_robust", 0)]
        assert gain > -2 * spread

    def test_dft_methods_run(self):
        cfg = small_cfg(n_antennas=8, n_users=2, trials=2, b_tot_grid=(6,),
                        se_methods=("zf_dft", "gpip_dft"))
        records = run_se_experiment(cfg)
        assert all(np.isfinite(r.mean) for r in records)

    def test_per_budget_csi_built_once_per_budget(self, monkeypatch):
        # CSI does not depend on the transmit power: one build per
        # (trial, user, budget), shared by every power of the grid
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(reconstruction, "reconstruct_mmse")
        counted(feedback, "dft_codebook_feedback")
        cfg = small_cfg(trials=2, b_tot_grid=(9, 12), power_dbm_grid=(30.0, 37.0, 43.0),
                        se_methods=("zf_mmse", "zf_dft"))
        run_se_experiment(cfg)
        per_budget = cfg.trials * cfg.n_users * len(cfg.b_tot_grid)
        assert calls == {"reconstruct_mmse": per_budget, "dft_codebook_feedback": per_budget}

    def test_estimation_noise_path(self):
        cfg = small_cfg(trials=2, aoa_sigma=0.05, gain_rel_sigma=0.1,
                        se_methods=("gpip_robust",))
        records = run_se_experiment(cfg)
        assert all(np.isfinite(r.mean) for r in records)


class TestDeterminismAndCsv:
    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = small_cfg(trials=8)
        one = tmp_path / "w1.csv"
        four = tmp_path / "w4.csv"
        emit_csv(run_mse_experiment(cfg, workers=1), one)
        emit_csv(run_mse_experiment(cfg, workers=4), four)
        assert one.read_bytes() == four.read_bytes()

    def test_se_experiment_worker_independence(self, tmp_path):
        cfg = small_cfg(trials=4, b_tot_grid=(3,),
                        se_methods=("gpip_robust", "zf_nofeedback"))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_csv(run_se_experiment(cfg, workers=1), a)
        emit_csv(run_se_experiment(cfg, workers=3), b)
        assert a.read_bytes() == b.read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = small_cfg(trials=5)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_csv(run_delta_experiment(cfg), a)
        emit_csv(run_delta_experiment(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_layout(self, tmp_path):
        out = tmp_path / "records.csv"
        emit_csv(run_mse_experiment(small_cfg(trials=2, b_tot_grid=(1,))), out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("experiment,n_antennas,n_users,n_paths,b_tot,"
                            "power_dbm,method,metric,mean,std_err,trials")
        assert len(lines) == 1 + 3 * 2  # three strategies, two metrics

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("nope", small_cfg())
