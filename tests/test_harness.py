import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddlink import allocation, channel, feedback, harness, precoding, reconstruction
from fddlink.allocation import allocate_bits, eta
from fddlink.config import ALLOCATORS, SE_METHODS, ScenarioConfig
from fddlink.harness import (
    _build_csi,
    _estimates,
    derive_trial_seed,
    emit_csv,
    run_delta_experiment,
    run_experiment,
    run_mse_experiment,
    run_se_experiment,
    se_samples,
)
from oracles import dense_se_drop, draw_user_paths, draw_user_paths_by_calls


def small_cfg(**kw):
    base = dict(n_antennas=8, n_users=2, n_paths=2, trials=6, seed=321,
                b_tot_grid=(0, 4), decay_ratio=0.4)
    base.update(kw)
    return ScenarioConfig(**base)


def patch_constants(monkeypatch, kw: dict) -> dict:
    """Set the harness constants named by kw's upper-case keys; the rest of kw."""
    for name in [key for key in kw if key.isupper()]:
        monkeypatch.setattr(harness, name, kw[name])
    return {key: value for key, value in kw.items() if not key.isupper()}


def count_calls(monkeypatch, calls: dict, module, name):
    """Count the calls of module.name in calls[name]."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


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

    @pytest.mark.parametrize("block, expected", [(1, [1] * 7), (3, [3, 3, 1]),
                                                 (8, [7])])
    def test_blocks_match_the_per_trial_loop(self, monkeypatch, block, expected):
        # N=64, L=8 and 8 budgets: 25 KiB of pass arrays per trial, so
        # DELTA_BLOCK_BYTES of ``block`` trials' arrays gives blocks of
        # ``block`` trials, one CSI pass per block and allocator; the samples
        # equal one trial at a time through the public API, byte for byte,
        # with exact estimates and with estimates drawn from each trial's
        # stream after its paths
        base = small_cfg(n_antennas=64, n_paths=8, trials=7,
                         b_tot_grid=(0, 3, 6, 9, 12, 15, 18, 21))
        for cfg in (base, base.replace(aoa_sigma=0.01, gain_rel_sigma=0.05)):
            sizes, samples = [], []
            csi_pass, records = harness._csi_pass, harness._records
            monkeypatch.setattr(harness, "DELTA_BLOCK_BYTES", block * 16 * 64 * (2 * 8 + 8 + 1))

            def spy_pass(truth, *args):
                sizes.append(truth.thetas.shape[0])
                return csi_pass(truth, *args)

            def spy_records(experiment, cfg, got, *args, **kw):
                samples.append(got)
                return records(experiment, cfg, got, *args, **kw)

            monkeypatch.setattr(harness, "_csi_pass", spy_pass)
            monkeypatch.setattr(harness, "_records", spy_records)
            run_mse_experiment(cfg)
            monkeypatch.undo()
            assert sorted(sizes, reverse=True) == sorted(expected * len(ALLOCATORS),
                                                         reverse=True)
            assert samples[0].tobytes() == self.per_trial_samples(cfg).tobytes()

    @staticmethod
    def per_trial_samples(cfg):
        """`sim mse` samples of each trial alone: bits over the estimated
        powers, feedback of the true phases, the error against the true channel."""
        geom = cfg.geometry()
        want = np.empty((cfg.trials, len(cfg.b_tot_grid), len(ALLOCATORS), 2))
        for t in range(cfg.trials):
            rng = np.random.default_rng(derive_trial_seed(cfg.seed, t))
            ps = draw_user_paths(cfg, rng)
            est = ps
            if cfg.aoa_sigma or cfg.gain_rel_sigma:
                est = channel.perturb_estimates(ps, cfg.aoa_sigma, cfg.gain_rel_sigma, rng)
            h = channel.dl_channel(ps, geom)
            for si, strategy in enumerate(ALLOCATORS):
                bits = allocation.allocate_bits(strategy, est.betas**2, cfg.b_tot_grid)
                fp = feedback.make_feedback_plan(ps, bits, geom)
                want[t, :, si, 0] = allocation.theoretical_weighted_mse(est.betas, bits,
                                                                        cfg.n_antennas)
                for bi, factor in enumerate(reconstruction.reconstruct_mmse(est, fp, geom)):
                    want[t, bi, si, 1] = np.sum(np.abs(h - factor[:, 0]) ** 2)
        return want


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

    # N=64, L up to 8 and 8 budgets: 25 KiB of pass arrays per trial, blocks
    # of 20 trials; Gram-step arrays of 64 KiB per trial at L=2 and 160 KiB at
    # L=8, Gram chunks of 4 trials and of 1
    BLOCKS_OF_20 = dict(n_antennas=64, l_grid=(2, 8), trials=7,
                        b_tot_grid=(0, 3, 6, 9, 12, 15, 18, 21))
    TRIAL_BYTES = 16 * 64 * (2 * 8 + 8 + 1)

    @staticmethod
    def spy_blocks(monkeypatch):
        """Path sets per _delta_norms pass, in call order."""
        delta_norms = harness._delta_norms
        sizes = []

        def spy(ps, *args):
            sizes.append(ps.thetas.shape[0])
            return delta_norms(ps, *args)

        monkeypatch.setattr(harness, "_delta_norms", spy)
        return sizes

    @pytest.mark.parametrize("kw, workers, expected", [
        (BLOCKS_OF_20, 1, [7]),
        # DELTA_BLOCK_BYTES of 3, 2 and 1 trials' pass arrays, whatever the
        # worker count
        ({**BLOCKS_OF_20, "DELTA_BLOCK_BYTES": 3 * TRIAL_BYTES}, 3, [3, 3, 1]),
        ({**BLOCKS_OF_20, "DELTA_BLOCK_BYTES": 2 * TRIAL_BYTES}, 4, [2, 2, 2, 1]),
        ({**BLOCKS_OF_20, "DELTA_BLOCK_BYTES": TRIAL_BYTES}, 8, [1] * 7),
        # 3.5 KiB per trial (N=32, L=2, 2 budgets): one block
        (dict(n_antennas=32, trials=7, b_tot_grid=(3, 9)), 1, [7]),
        ({**BLOCKS_OF_20, "trials": 45}, 1, [20, 20, 5]),
    ])
    def test_block_layout(self, monkeypatch, kw, workers, expected):
        sizes = self.spy_blocks(monkeypatch)
        cfg = small_cfg(**patch_constants(monkeypatch, kw))
        run_delta_experiment(cfg.replace(workers=workers))
        assert sorted(sizes, reverse=True) == sorted(expected * len(cfg.l_grid), reverse=True)

    def test_one_steering_matrix_and_eta_per_pass(self, monkeypatch):
        # each (block, path count) pass computes the DL steering matrices and
        # eta once, for the channel, the estimate and both norms
        calls = {}
        count_calls(monkeypatch, calls, channel, "steering_matrix")
        count_calls(monkeypatch, calls, allocation, "eta")
        sizes = self.spy_blocks(monkeypatch)
        run_delta_experiment(small_cfg(**{**self.BLOCKS_OF_20, "trials": 45}))
        assert len(sizes) == 3 * 2
        assert calls == {"steering_matrix": len(sizes), "eta": len(sizes)}

    def test_gram_chunks_match_one_path_set_at_a_time(self, monkeypatch):
        # one block of 7 trials: at L=2 its Gram step runs on chunks of 4 and
        # 3 trials, at L=8 on chunks of 1; the samples equal each
        # trial's path sets drawn by five uniform calls and run alone through
        # the public API, byte for byte
        cfg = small_cfg(**self.BLOCKS_OF_20)
        geom = cfg.geometry()
        want = np.empty((cfg.trials, len(cfg.l_grid), len(cfg.b_tot_grid), 2))
        for t in range(cfg.trials):
            rng = np.random.default_rng(derive_trial_seed(cfg.seed, t))
            for li, L in enumerate(cfg.l_grid):
                ps = draw_user_paths_by_calls(cfg.replace(n_paths=L), rng)
                bits = allocate_bits(cfg.allocator, ps.betas**2, cfg.b_tot_grid)
                fp = feedback.make_feedback_plan(ps, bits, geom)
                a = channel.steering_matrix(ps.thetas, geom.lambda_dl, geom)
                hhat = reconstruction.reconstruct_mmse(ps, fp, geom)[..., 0]
                want[t, li, :, 0] = reconstruction.outer_error_norm(
                    channel.dl_channel(ps, geom), hhat, a, ps.betas, eta(bits))
                want[t, li, :, 1] = reconstruction.asymptotic_delta_norm(
                    ps.betas, eta(bits), fp.deltas)
        chunks, samples = [], []
        norm, records = reconstruction.outer_error_norm, harness._records

        def spy_norm(h, *args):
            chunks.append(len(h))
            return norm(h, *args)

        def spy_records(experiment, cfg, got, *args, **kw):
            samples.append(got)
            return records(experiment, cfg, got, *args, **kw)

        monkeypatch.setattr(reconstruction, "outer_error_norm", spy_norm)
        monkeypatch.setattr(harness, "_records", spy_records)
        run_delta_experiment(cfg)
        assert chunks == [4, 3] + [1] * 7
        assert samples[0].tobytes() == want.tobytes()


class TestBuildCsi:
    def test_stacks_are_the_users_factors(self):
        # each source's stack equals the per-user calls' output, byte for
        # byte, at each budget of the grid for MMSE and DFT
        cfg = small_cfg(n_antennas=16, n_users=3, n_paths=3, b_tot_grid=(0, 3, 9, 15),
                        aoa_sigma=0.01, gain_rel_sigma=0.05)
        geom = cfg.geometry()
        rng = np.random.default_rng(8)
        scene = channel.draw_scene(cfg, rng)
        ests = _estimates(cfg, scene, [rng])
        # the same scene user by user: the users' paths, then each one's estimates
        rng = np.random.default_rng(8)
        users = [draw_user_paths(cfg, rng) for _ in range(cfg.n_users)]
        user_ests = [channel.perturb_estimates(ps, cfg.aoa_sigma, cfg.gain_rel_sigma, rng)
                     for ps in users]
        for stack, sets in ((scene, users), (ests, user_ests)):
            for f in fields(channel.PathSet):
                want = np.stack([getattr(ps, f.name) for ps in sets])
                assert getattr(stack, f.name).tobytes() == want.tobytes()
        h_true = np.column_stack([channel.dl_channel(ps, geom) for ps in users])
        a_est = channel.steering_matrix(ests.thetas, geom.lambda_dl, geom)
        stacks = {source: _build_csi(source, cfg, scene, ests, a_est, h_true, geom)
                  for source in ("mmse", "dft", "no_feedback", "perfect")}
        budgets, n, k, paths = len(cfg.b_tot_grid), 16, 3, 3
        assert stacks["mmse"].shape == (budgets, n, k, paths + 1)
        assert stacks["dft"].shape == (budgets, n, k, 1)
        assert stacks["no_feedback"].shape == (n, k, paths + 1)
        assert stacks["perfect"].shape == (n, k, 1)
        # the estimates, which a method without the covariance sees as [..., :1]
        hhat = {"mmse": np.empty((budgets, n, k), dtype=complex),
                "no_feedback": np.empty((n, k), dtype=complex)}
        for u, (ps, est) in enumerate(zip(users, user_ests)):
            a = channel.steering_matrix(est.thetas, geom.lambda_dl, geom)
            nf = reconstruction.reconstruct_no_feedback(est, geom)
            assert stacks["no_feedback"][:, u].tobytes() == nf.tobytes()
            hhat["no_feedback"][:, u] = a @ est.betas
            assert stacks["perfect"][:, u, 0].tobytes() == h_true[:, u].tobytes()
            for bi, b in enumerate(cfg.b_tot_grid):
                bits = allocate_bits("greedy", est.betas**2, [b])[0]
                fp = feedback.make_feedback_plan(ps, bits, geom)
                mmse = reconstruction.reconstruct_mmse(est, fp, geom)
                assert stacks["mmse"][bi, :, u].tobytes() == mmse.tobytes()
                hhat["mmse"][bi, :, u] = a @ (eta(bits) * est.betas * np.exp(1j * fp.q_values))
                _, dft = feedback.dft_codebook_feedback(h_true[:, u], b, geom)
                assert stacks["dft"][bi, :, u, 0].tobytes() == dft.tobytes()
        for source, want in hhat.items():
            plain = stacks[source][..., :1]
            assert plain.shape == (*want.shape, 1)
            np.testing.assert_allclose(plain[..., 0], want, rtol=1e-12, atol=0)


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
        # CSI does not depend on the transmit power: DFT CSI is built once per
        # (trial, budget) for every user and MMSE CSI once per trial for every
        # user and the whole budget grid, each shared by every power of the grid
        calls = {}
        count_calls(monkeypatch, calls, harness, "_csi_pass")
        count_calls(monkeypatch, calls, feedback, "dft_codebook_feedback")
        cfg = small_cfg(trials=2, b_tot_grid=(9, 12), power_dbm_grid=(30.0, 37.0, 43.0),
                        se_methods=("zf_mmse", "zf_dft"))
        run_se_experiment(cfg)
        assert calls == {"_csi_pass": cfg.trials,
                         "dft_codebook_feedback": cfg.trials * len(cfg.b_tot_grid)}

    @pytest.mark.parametrize("aoa_sigma, per_scene", [(0.0, 1), (0.01, 2)])
    def test_one_steering_matrix_per_scene_and_angle_set(self, monkeypatch, aoa_sigma,
                                                         per_scene):
        # one DL steering matrix per (drop, L, N) serves the true channel and
        # the MMSE and no-feedback factors; estimated AoAs add their own
        calls = {}
        count_calls(monkeypatch, calls, channel, "steering_matrix")
        cfg = small_cfg(trials=3, l_grid=(2, 3), n_grid=(8, 16), aoa_sigma=aoa_sigma,
                        se_methods=("gpip_robust", "zf_nofeedback", "wmmse_perfect"))
        se_samples(cfg)
        assert calls == {"steering_matrix": per_scene * cfg.trials * 2 * 2}

    def test_batched_gpip_points_match_solves_of_each_point(self, monkeypatch):
        cfg = small_cfg(n_antennas=16, n_users=3, n_paths=2, trials=3, b_tot_grid=(0, 6, 12),
                        power_dbm_grid=(30.0, 43.0),
                        se_methods=("gpip_robust", "gpip_plain", "gpip_nofeedback", "gpip_dft"))
        solve_batch = precoding.gpip_solve_batch
        sizes = []

        def spy(problems, gcfg):
            sizes.append(len(problems))
            return solve_batch(problems, gcfg)

        monkeypatch.setattr(precoding, "gpip_solve_batch", spy)
        batched = se_samples(cfg)
        # 20 points per drop (no-feedback GPIP once per power, the rest per
        # budget too): one batch per block of ceil(32 / 20) = 2 drops
        assert sizes == [2 * 20, 20]
        monkeypatch.setattr(precoding, "gpip_solve_batch",
                            lambda problems, gcfg: [solve_batch([pp], gcfg)[0] for pp in problems])
        alone = se_samples(cfg)
        assert np.all(batched[..., 2] >= 1)
        np.testing.assert_array_equal(batched[..., 2], alone[..., 2])
        np.testing.assert_allclose(batched[..., :2], alone[..., :2], rtol=1e-12, atol=0)

    @staticmethod
    def spy_batches(monkeypatch):
        """Sizes of the gpip_solve_batch calls, in call order."""
        solve_batch = precoding.gpip_solve_batch
        sizes = []

        def spy(problems, gcfg):
            sizes.append(len(problems))
            return solve_batch(problems, gcfg)

        monkeypatch.setattr(precoding, "gpip_solve_batch", spy)
        return sizes

    # 4 scenes x 4 GPIP methods at one power and one budget: 16 points per drop
    SIXTEEN_POINTS = dict(n_users=2, trials=5, l_grid=(2, 3), n_grid=(8, 16), b_tot_grid=(6,),
                          power_dbm_grid=(43.0,),
                          se_methods=("gpip_robust", "gpip_plain", "gpip_nofeedback",
                                      "gpip_dft", "zf_mmse"))

    @pytest.mark.parametrize("drops", [1, 3, 5])
    def test_blocks_match_solves_of_each_point_exactly(self, monkeypatch, drops):
        # GPIP_BATCH of ``drops`` drops' points: blocks of 1 drop, of 3 and
        # then 2, and of all 5
        cfg = small_cfg(**self.SIXTEEN_POINTS)
        monkeypatch.setattr(harness, "GPIP_BATCH", 16 * drops)
        blocked = se_samples(cfg)
        solve_batch = precoding.gpip_solve_batch
        monkeypatch.setattr(precoding, "gpip_solve_batch",
                            lambda problems, gcfg: [solve_batch([pp], gcfg)[0] for pp in problems])
        alone = se_samples(cfg)
        np.testing.assert_array_equal(blocked, alone)

    @pytest.mark.parametrize("kw, workers, expected", [
        # 16 points per drop: blocks of 2 drops
        (SIXTEEN_POINTS, 1, [32, 32, 16]),
        # 2 points per drop: blocks of ceil(GPIP_BATCH / 2) drops, whatever
        # the worker count
        (dict(trials=5, se_methods=("gpip_robust", "gpip_plain")), 1, [10]),
        (dict(trials=5, se_methods=("gpip_robust", "gpip_plain"), GPIP_BATCH=6), 2, [6, 4]),
        (dict(trials=20, se_methods=("gpip_robust", "gpip_plain")), 1, [32, 8]),
        # 40 points per drop: one drop per block
        (dict(trials=3, n_grid=(8, 16), power_dbm_grid=(30.0, 43.0), b_tot_grid=(0, 3, 6, 9, 12),
              se_methods=("gpip_robust", "gpip_plain")), 1, [40, 40, 40]),
    ])
    def test_block_layout(self, monkeypatch, kw, workers, expected):
        sizes = self.spy_batches(monkeypatch)
        kw = patch_constants(monkeypatch, kw)
        se_samples(small_cfg(**{"b_tot_grid": (6,), **kw}).replace(workers=workers))
        assert sorted(sizes, reverse=True) == expected

    def test_no_gpip_method_queues_nothing(self, monkeypatch):
        sizes = self.spy_batches(monkeypatch)
        se_samples(small_cfg(trials=3, se_methods=("zf_mmse", "wmmse_perfect")))
        assert not any(sizes)

    @staticmethod
    def fail_on_call(monkeypatch, module, name, call, exc):
        """Make module.name raise exc on its call-th call (0-based)."""
        fn = getattr(module, name)
        calls = itertools.count()

        def wrapper(*args, **kwargs):
            if next(calls) == call:
                raise exc
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    @pytest.mark.parametrize("gpip_batch", [1, 2])
    @pytest.mark.parametrize("zf_trial, gpip_trial, failed", [
        # ZF fails in trial 0 after its GPIP point is queued: trial 1's GPIP
        # failure comes later
        (0, 1, r"zf broke \(seed 321, trial 0, .*method zf_mmse\)$"),
        # trial 0's GPIP point comes before trial 1's ZF point
        (1, 0, r"gpip broke \(seed 321, trial 0, .*method gpip_robust\)$"),
    ])
    def test_block_reports_lowest_failing_trial(self, monkeypatch, zf_trial, gpip_trial, failed,
                                                gpip_batch):
        # one GPIP and then one ZF point per drop; a GPIP_BATCH of 1 makes
        # each trial a block and one of 2 puts both in one block, and the
        # solver sets up its problems in trial order
        cfg = small_cfg(trials=2, b_tot_grid=(3,), se_methods=("gpip_robust", "zf_mmse"))
        monkeypatch.setattr(harness, "GPIP_BATCH", gpip_batch)
        self.fail_on_call(monkeypatch, precoding, "zf_precoder", zf_trial, ValueError("zf broke"))
        self.fail_on_call(monkeypatch, precoding, "_reduced_problem", gpip_trial,
                          precoding.GpipError("gpip broke"))
        sizes = self.spy_batches(monkeypatch)
        with pytest.raises((precoding.GpipError, ValueError), match=failed):
            se_samples(cfg)
        assert len(sizes) == 1

    def test_stacked_zf_and_scores_match_calls_of_each_point(self, monkeypatch):
        # zero budget (ZF on the no-feedback fallback columns), DFT budgets of
        # 1 and 2 bits (users sharing a codeword, so ZF takes the pseudo-inverse),
        # two powers and estimation noise: the drop's stacked calls give the
        # same bytes as one call per point
        cfg = small_cfg(n_users=3, trials=4, b_tot_grid=(0, 1, 2, 6), power_dbm_grid=(30.0, 43.0),
                        aoa_sigma=0.01, l_grid=(2, 3), n_grid=(8, 16),
                        se_methods=("zf_mmse", "zf_nofeedback", "zf_dft", "wmmse_perfect"))
        stacked = se_samples(cfg)
        self.call_each_point(monkeypatch, ("zf_precoder", "true_sum_se", "sum_se_lower_bound"))
        assert stacked.tobytes() == se_samples(cfg).tobytes()

    @staticmethod
    def call_each_point(monkeypatch, names):
        """Make each precoding.<name> of a stack of points call itself point by point."""
        originals = {name: getattr(precoding, name) for name in names}

        def per_point(name):
            def call(w, *args):
                pp = args[-1] if args else None
                if w.ndim == 2:  # WMMSE's zero-forcing start
                    return originals[name](w, *args)
                out = []
                for i in range(len(w)):
                    point = () if pp is None else (precoding.PrecodingProblem(
                        factors=pp.factors[i], sigma2=pp.sigma2, power=pp.power[i]),)
                    out.append(originals[name](w[i], *args[:-1], *point))
                return np.array(out)
            return call

        for name in originals:
            monkeypatch.setattr(precoding, name, per_point(name))

    def test_stacked_gpip_scores_match_calls_of_each_point(self, monkeypatch):
        # every GPIP method, two scenes per drop, two powers and estimation
        # noise: each scene's points of one factor shape (in the scene's basis
        # or not) are scored in one call, whose values are the bytes of one
        # call per point
        cfg = small_cfg(n_users=3, trials=3, b_tot_grid=(0, 3, 6), power_dbm_grid=(30.0, 43.0),
                        aoa_sigma=0.01, l_grid=(2, 3),
                        se_methods=("gpip_robust", "gpip_plain", "gpip_nofeedback", "gpip_dft"))
        calls = {}
        count_calls(monkeypatch, calls, precoding, "true_sum_se")
        stacked = se_samples(cfg)
        # per scene: one call for the projected and one for the N-dimensional points
        assert calls == {"true_sum_se": cfg.trials * 2 * 2}
        self.call_each_point(monkeypatch, ("true_sum_se", "sum_se_lower_bound"))
        assert stacked.tobytes() == se_samples(cfg).tobytes()

    def test_stacked_zf_failure_names_its_point_and_cuts_the_queue(self, monkeypatch):
        # per budget one GPIP and then one ZF point; the drop's ZF points are
        # one zf_precoder call, whose error names its second point (b_tot 3)
        cfg = small_cfg(trials=1, b_tot_grid=(0, 3, 6), se_methods=("gpip_robust", "zf_mmse"))
        stacks = []

        def fail(cols):
            stacks.append(cols.shape)
            raise precoding.ZfError("zf broke", point=1)

        monkeypatch.setattr(precoding, "zf_precoder", fail)
        with pytest.raises(precoding.ZfError,
                           match=r"^zf broke \(seed 321, trial 0, .*b_tot 3, method zf_mmse\)$"):
            se_samples(cfg)
        assert stacks == [(3, cfg.n_antennas, cfg.n_users)]

    def test_earlier_scoring_failure_beats_a_later_zf_failure(self, monkeypatch):
        # the WMMSE point comes first in evaluation order; its scoring fails,
        # and so does the stacked ZF call of the later no-feedback ZF point
        cfg = small_cfg(trials=1, se_methods=("wmmse_perfect", "zf_nofeedback"))
        zf = precoding.zf_precoder

        def fail_stacked(hhat):
            if hhat.ndim == 3:  # not WMMSE's zero-forcing start
                raise precoding.ZfError("zf broke", point=0)
            return zf(hhat)

        def fail_bound(w, pp):
            raise precoding.PointError("bound broke", point=0)

        monkeypatch.setattr(precoding, "zf_precoder", fail_stacked)
        monkeypatch.setattr(precoding, "sum_se_lower_bound", fail_bound)
        with pytest.raises(precoding.PointError,
                           match=r"^bound broke \(seed 321, trial 0, .*method wmmse_perfect\)$"):
            se_samples(cfg)

    @pytest.mark.parametrize("zf_fails, failed", [
        (True, r"zf broke \(.*method zf_nofeedback\)$"),
        (False, r"wmmse broke \(.*method wmmse_perfect\)$"),
    ])
    def test_collected_zf_point_fails_before_a_later_point(self, monkeypatch, zf_fails, failed):
        # the ZF point comes first in evaluation order but is precoded only once
        # the scene is through; a later point's failure must not hide its failure
        cfg = small_cfg(trials=1, se_methods=("zf_nofeedback", "wmmse_perfect"))
        if zf_fails:
            self.fail_on_call(monkeypatch, precoding, "zf_precoder", 0, ValueError("zf broke"))
        self.fail_on_call(monkeypatch, precoding, "wmmse_precoder", 0, ValueError("wmmse broke"))
        with pytest.raises(ValueError, match=failed):
            se_samples(cfg)

    def test_robust_problems_solved_at_rank_l(self, monkeypatch):
        # one drop of the se_desk scenario: each MMSE factor A [g | diag(sqrt(w))]
        # has L + 1 columns and rank L, and the solver keeps L of them
        cfg = ScenarioConfig(n_antennas=64, n_users=8, n_paths=3, power_dbm_grid=(43.0,),
                             b_tot_grid=(0, 3, 6, 9, 12, 15, 18, 21), trials=1,
                             se_methods=("gpip_robust",))
        reduce = precoding._reduced_problem
        widths = []

        def spy(pp):
            reduced = reduce(pp)
            widths.append((pp.factors.shape[2], reduced[0].shape[2]))
            return reduced

        monkeypatch.setattr(precoding, "_reduced_problem", spy)
        se_samples(cfg)
        assert widths == [(4, 3)] * 8

    @pytest.mark.parametrize("drops", [1, 2])
    @pytest.mark.parametrize("methods, failed", [
        # the first budget's GPIP point comes before that budget's ZF point
        (("gpip_robust", "zf_mmse"), r"b_tot 0, method gpip_robust"),
        # methods that ignore the budget come first
        (("gpip_robust", "zf_nofeedback"), r"b_tot 0, method zf_nofeedback"),
        (("zf_mmse", "gpip_nofeedback"), r"b_tot 0, method gpip_nofeedback"),
    ])
    def test_first_failure_in_evaluation_order_is_reported(self, monkeypatch, methods, failed,
                                                           drops):
        # ZF fails with more users than antennas; GPIP fails on a noise power
        # that is zero once divided by the transmit power.  A GPIP_BATCH of
        # one drop's or both drops' points: trial 0's failure either way
        cfg = small_cfg(n_antennas=2, n_users=3, trials=2, b_tot_grid=(0, 3),
                        noise_dbm=-3200.0, se_methods=methods)
        monkeypatch.setattr(harness, "GPIP_BATCH", drops * harness._gpip_points_per_drop(cfg))
        with pytest.raises((precoding.GpipError, ValueError),
                           match=rf"\(seed 321, trial 0, n_antennas 2, n_paths 2, "
                                 rf"power_dbm 43\.0, {failed}\)$"):
            se_samples(cfg)

    def test_failed_csi_build_names_the_first_point_that_needs_it(self, monkeypatch):
        # the no-feedback ZF points come first; the MMSE source is built, and
        # fails, at the first budget's robust GPIP point
        cfg = small_cfg(trials=1, b_tot_grid=(0, 3), se_methods=("zf_nofeedback", "gpip_robust"))
        self.fail_on_call(monkeypatch, harness, "_csi_pass", 0,
                          ValueError("mmse broke"))
        with pytest.raises(ValueError, match=r"^mmse broke \(seed 321, trial 0, .*"
                                             r"b_tot 0, method gpip_robust\)$"):
            se_samples(cfg)

    @pytest.mark.parametrize("methods, sources", [
        (("zf_mmse",), ["mmse", "no_feedback"]),
        (("wmmse_perfect",), ["perfect"]),
        (("gpip_dft", "zf_nofeedback"), ["no_feedback", "dft"]),
    ])
    def test_each_needed_csi_source_built_once_per_scene(self, monkeypatch, methods, sources):
        # in the order the scene's points first need them, and no other
        build, built = harness._build_csi, []

        def spy(source, *args):
            built.append(source)
            return build(source, *args)

        monkeypatch.setattr(harness, "_build_csi", spy)
        cfg = small_cfg(trials=2, l_grid=(2, 3), b_tot_grid=(0, 3), power_dbm_grid=(30.0, 43.0),
                        se_methods=methods)
        se_samples(cfg)
        assert built == sources * cfg.trials * len(cfg.l_grid)

    def test_estimation_noise_path(self):
        cfg = small_cfg(trials=2, aoa_sigma=0.05, gain_rel_sigma=0.1,
                        se_methods=("gpip_robust",))
        records = run_se_experiment(cfg)
        assert all(np.isfinite(r.mean) for r in records)


class TestSignalBasis:
    """Covariance-aware GPIP runs on coordinates in the scene's basis of the
    estimated steering vectors (harness._signal_basis)."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), k=st.integers(1, 4),
           paths=st.integers(1, 3), zero_estimates=st.booleans(), shared_angles=st.booleans(),
           aoa_error=st.booleans())
    def test_coordinates_solve_as_the_full_problem(self, seed, n, k, paths, zero_estimates,
                                                   shared_angles, aoa_error):
        # zero estimates are the MMSE factors at zero budget; two users at one
        # angle set make [A_1 ... A_K] rank-deficient (two paths each, so
        # their estimates still differ); K L >= N makes Q all of the space;
        # an AoA error puts the true channel outside the span
        k = min(k, n)
        paths = max(paths, 2) if shared_angles and k > 1 else paths
        rng = np.random.default_rng(seed)
        geom = ScenarioConfig(n_antennas=n).geometry()
        thetas = rng.uniform(-1.4, 1.4, (k, paths))
        if shared_angles and k > 1:
            thetas[1] = thetas[0]
        a_est = channel.steering_matrix(thetas, geom.lambda_dl, geom)
        gains = rng.normal(size=(k, paths)) + 1j * rng.normal(size=(k, paths))
        coeffs = np.zeros((k, paths, paths + 1), dtype=complex)
        coeffs[:, :, 0] = 0 if zero_estimates else gains
        coeffs[:, np.arange(paths), np.arange(1, paths + 1)] = rng.uniform(0.1, 1.0, (k, paths))
        factors = np.ascontiguousarray((a_est @ coeffs).transpose(1, 0, 2))  # N x K x (L+1)
        true_thetas = thetas + (rng.normal(0, 0.05, thetas.shape) if aoa_error else 0)
        h_true = np.einsum("knl,kl->nk", channel.steering_matrix(true_thetas, geom.lambda_dl,
                                                                 geom), gains)
        sigma2, power = rng.uniform(0.05, 1.0, k), float(rng.uniform(0.5, 20.0))
        full = precoding.PrecodingProblem(factors=factors, sigma2=sigma2, power=power)
        basis = harness._signal_basis(a_est)
        assert basis.shape == (n, min(n, k * paths))
        coords = precoding.PrecodingProblem(
            factors=(basis.conj().T @ factors.reshape(n, -1)).reshape(-1, k, paths + 1),
            sigma2=sigma2, power=power)
        cfg = precoding.GpipConfig(max_iter=30)
        want, got = precoding.gpip_solve(full, cfg), precoding.gpip_solve(coords, cfg)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        # rounding moves both values where the objective is nearly flat, as
        # with zero estimates and a shared angle set, in any basis: over 5000
        # drawn cases the coordinates moved the true SE, which is not the
        # solved objective, by at most 2.7e-9 relative and the bound by 1.7e-9
        # (a case stopped at max_iter while still climbing, with K L >= N: Q
        # is then a rotation), and a unitary rotation of one N-dimensional
        # problem moved its true SE by 1.1e-8
        assert precoding.sum_se_lower_bound(got.f, coords) == pytest.approx(
            precoding.sum_se_lower_bound(want.f, full), rel=1e-7)
        assert precoding.true_sum_se(basis @ got.f, h_true, coords) == pytest.approx(
            precoding.true_sum_se(want.f, h_true, full), rel=1e-7)

    @pytest.mark.parametrize("methods, per_scene", [
        (("gpip_plain", "gpip_dft", "zf_mmse", "zf_nofeedback", "wmmse_perfect"), 0),
        (("gpip_robust", "gpip_plain"), 1),
        (("zf_mmse", "gpip_nofeedback", "gpip_robust"), 1),
    ])
    def test_basis_built_only_for_covariance_aware_gpip(self, monkeypatch, methods, per_scene):
        calls = {}
        count_calls(monkeypatch, calls, harness, "_signal_basis")
        cfg = small_cfg(trials=3, l_grid=(2, 3), n_grid=(8, 16), b_tot_grid=(0, 6),
                        aoa_sigma=0.01, se_methods=methods)
        se_samples(cfg)
        assert calls.get("_signal_basis", 0) == per_scene * cfg.trials * 2 * 2

    def test_projected_problems_are_queued_in_coordinates(self, monkeypatch):
        # N = 16, K = 2, L = 3: robust and no-feedback factors are 6 x 2 x 4,
        # plain and DFT ones keep N = 16 rows
        sizes = []
        solve_batch = precoding.gpip_solve_batch

        def spy(problems, gcfg):
            sizes.extend(pp.factors.shape for pp in problems)
            return solve_batch(problems, gcfg)

        monkeypatch.setattr(precoding, "gpip_solve_batch", spy)
        se_samples(small_cfg(n_antennas=16, n_paths=3, trials=1, b_tot_grid=(6,),
                             se_methods=("gpip_nofeedback", "gpip_robust", "gpip_plain",
                                         "gpip_dft")))
        assert sizes == [(6, 2, 4), (6, 2, 4), (16, 2, 1), (16, 2, 1)]


class TestDenseReference:
    @pytest.mark.parametrize("aoa_sigma", [0.0, 0.01])
    def test_drop_matches_its_dense_recomputation(self, aoa_sigma):
        # one drop of every method at N=8, K=3, L=2 against oracles.dense_se_drop
        cfg = ScenarioConfig(n_antennas=8, n_users=3, n_paths=2, trials=1, b_tot_grid=(0, 3, 9),
                             aoa_sigma=aoa_sigma, se_methods=tuple(SE_METHODS))
        got = se_samples(cfg)[0, 0, 0, 0]
        dense = dense_se_drop(cfg, np.random.default_rng(derive_trial_seed(cfg.seed, 0)))
        for (bi, b), (mi, method) in itertools.product(enumerate(cfg.b_tot_grid),
                                                       enumerate(cfg.se_methods)):
            true_se, bound, iterations = got[bi, mi]
            dense_true, dense_bound = dense[(method, b)]
            if not method.startswith("gpip_"):
                assert true_se == pytest.approx(dense_true, rel=1e-10, abs=1e-12)
                assert bound == pytest.approx(dense_bound, rel=1e-10, abs=1e-12)
                continue
            # the dense maximum: no GPIP precoder scores above it
            assert bound <= dense_bound + 1e-9 * max(dense_bound, 1.0)
            # a converged point reaches it.  Left out: points capped at
            # gpip_max_iter (ROADMAP item 1), and gpip_dft at B=0, whose one
            # codeword carries every user's estimate and where GPIP stops at
            # its start about 90 % below the maximum
            if iterations < cfg.gpip_max_iter and (method, b) != ("gpip_dft", 0):
                assert bound == pytest.approx(dense_bound, rel=1e-6, abs=1e-9)


class TestWorkerModel:
    """Blocks are fixed by the workload; only `sim se` maps them over threads."""

    # per experiment: a config whose blocks a ceil(trials / workers) cap
    # would split, and the function whose first argument stacks one block
    LAYOUTS = {
        "mse": (dict(n_antennas=64, n_paths=8, trials=7, b_tot_grid=(0, 3, 6, 9, 12, 15, 18, 21)),
                harness, "_csi_pass"),
        "delta": (TestDeltaExperiment.BLOCKS_OF_20, harness, "_delta_norms"),
        "se": (dict(trials=5, b_tot_grid=(6,), se_methods=("gpip_robust", "gpip_plain")),
               precoding, "gpip_solve_batch"),
    }

    @pytest.mark.parametrize("experiment", ["mse", "delta", "se"])
    def test_block_layout_ignores_workers(self, monkeypatch, experiment):
        kw, module, name = self.LAYOUTS[experiment]
        fn, sizes = getattr(module, name), []

        def spy(stack, *args):
            sizes.append(len(getattr(stack, "thetas", stack)))
            return fn(stack, *args)

        monkeypatch.setattr(module, name, spy)
        layouts = []
        for workers in (1, 2, 5):
            run_experiment(experiment, small_cfg(**kw, workers=workers))
            layouts.append(sorted(sizes))
            sizes.clear()
        assert layouts[0] == layouts[1] == layouts[2]
        assert len(layouts[0]) == {"mse": 3, "delta": 2, "se": 1}[experiment]

    def test_only_se_maps_blocks_over_threads(self, monkeypatch):
        pools = []

        class SpyPool(harness.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", SpyPool)
        cfg = small_cfg(trials=8, workers=4, se_methods=("zf_mmse",))
        run_delta_experiment(cfg)
        run_mse_experiment(cfg)
        assert pools == []
        se_samples(cfg)
        assert pools == [4]


class TestDeterminismAndCsv:
    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = small_cfg(trials=8)
        one = tmp_path / "w1.csv"
        four = tmp_path / "w4.csv"
        emit_csv(run_mse_experiment(cfg.replace(workers=1)), one)
        emit_csv(run_mse_experiment(cfg.replace(workers=4)), four)
        assert one.read_bytes() == four.read_bytes()

    def test_se_experiment_worker_independence(self, tmp_path):
        cfg = small_cfg(trials=4, b_tot_grid=(3,),
                        se_methods=("gpip_robust", "zf_nofeedback"))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_csv(run_se_experiment(cfg.replace(workers=1)), a)
        emit_csv(run_se_experiment(cfg.replace(workers=3)), b)
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
