"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Monte Carlo criteria use frozen seeds; tolerances are stated inline
next to each assertion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from fddlink.allocation import (
    allocate_bits,
    allocate_bruteforce,
    eta,
    nmmse,
    theoretical_weighted_mse,
)
from fddlink.channel import (
    ArrayGeometry,
    PathSet,
    power_decay_profile,
    steering_matrix,
)
from fddlink.config import ScenarioConfig
from fddlink.feedback import make_feedback_plan, quantize_phases
from fddlink.harness import (
    emit_csv,
    run_delta_experiment,
    run_mse_experiment,
    run_se_experiment,
)
from fddlink.precoding import (
    GpipConfig,
    PrecodingProblem,
    gpip_solve,
    stationarity_residual,
    sum_se_lower_bound,
    zf_precoder,
)
from fddlink.reconstruction import (
    asymptotic_delta_norm,
    outer_error_norm,
    reconstruct_mmse,
)
from oracles import draw_user_paths, nmmse_pl, outer_product_error


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] {label}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[acceptance] {label}: PASS ({time.perf_counter() - start:.1f}s)")


def geom_n(n):
    return ArrayGeometry(num_antennas=n, spacing=0.015, lambda_ul=0.03, lambda_dl=0.025)


def test_c01_closed_form_kernel():
    with criterion("C1 closed-form kernel"):
        assert abs(eta(1) - 2 / math.pi) < 1e-12
        assert abs(eta(2) - (4 / math.pi) * math.sin(math.pi / 4)) < 1e-12
        assert abs(nmmse(0) - 1.0) < 1e-12
        assert abs(nmmse(1) - (1 - 4 / math.pi**2)) < 1e-12
        vals = eta(np.arange(17))
        assert np.all(np.diff(vals) > 0)
        assert eta(16) > 1 - 1e-8


def test_c02_piecewise_linear_shape():
    with criterion("C2 convex decreasing relaxation"):
        xs = np.arange(0.0, 16.0 + 1e-9, 0.25)
        vals = np.array([nmmse_pl(x) for x in xs])
        assert np.all(np.diff(vals) < 0)
        knots = nmmse(np.arange(18))
        second = knots[:-2] - 2 * knots[1:-1] + knots[2:]
        assert np.all(second >= -1e-12)


def test_c03_greedy_equals_bruteforce():
    with criterion("C3 allocator optimality oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            n_paths = int(rng.integers(1, 5))
            weights = tuple(10.0 ** rng.uniform(-1.5, 1.5, size=n_paths))
            budget = int(rng.integers(0, 13))
            greedy = allocate_bits("greedy", weights, [budget])[0]
            brute = allocate_bruteforce(weights, budget)
            w = np.asarray(weights)
            assert abs(w @ nmmse(greedy) - w @ nmmse(brute)) < 1e-12
            assert sum(greedy) == budget
        assert time.perf_counter() - start < 30.0


def test_c04_mse_formula_monte_carlo():
    with criterion("C4 closed-form MSE vs Monte Carlo"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        n = 16
        geom = geom_n(n)
        trials = 100_000
        for n_paths in (1, 2, 4):
            thetas = rng.uniform(-math.pi / 2, math.pi / 2, size=n_paths)
            betas = np.sqrt(power_decay_profile(n_paths, 0.6))
            a = steering_matrix(thetas, geom.lambda_dl, geom)
            for b in (1, 2, 3):
                bits = np.full(n_paths, b)
                angles = rng.uniform(0, 2 * math.pi, size=(trials, n_paths))
                q, _, _ = quantize_phases(angles, bits)
                g_true = betas * np.exp(1j * angles)
                g_hat = (eta(bits) * betas) * np.exp(1j * q)
                err = (g_true - g_hat) @ a.T
                empirical = float(np.mean(np.sum(np.abs(err) ** 2, axis=1)))
                expected = theoretical_weighted_mse(betas, bits, n)
                assert abs(empirical - expected) / expected < 0.01
        assert time.perf_counter() - start < 60.0


def test_c05_error_covariance_monte_carlo():
    with criterion("C5 error covariance vs Monte Carlo"):
        rng = np.random.default_rng(7)
        n = 16
        geom = geom_n(n)
        thetas = np.array([0.35, -0.6, 1.0])
        betas = np.array([1.0, 0.7, 0.25])
        bits = np.array([2, 1, 0])
        ps = PathSet(thetas=thetas, betas=betas, distances=np.full(3, 100.0),
                     phases_ul=np.zeros(3), phases_dl=np.full(3, 0.5))
        fp = make_feedback_plan(ps, bits, geom)
        # the covariance the precoder sees: Phi = E E^H from the factor [hhat | E]
        e = reconstruct_mmse(ps, fp, geom)[:, 1:]
        phi = e @ e.conj().T

        trace = float(np.trace(phi).real)
        expected_trace = theoretical_weighted_mse(betas, bits, n)
        assert abs(trace - expected_trace) <= 1e-12 * expected_trace

        trials = 100_000
        half = math.pi / 2.0**bits
        deltas = rng.uniform(-half, half, size=(trials, 3))
        coeff = (betas * np.exp(1j * fp.q_values)) * (np.exp(1j * deltas) - eta(bits))
        a = steering_matrix(thetas, geom.lambda_dl, geom)
        errors = coeff @ a.T
        empirical = errors.T @ errors.conj() / trials
        rel = np.linalg.norm(empirical - phi) / np.linalg.norm(phi)
        assert rel < 0.02


def test_c06_outer_product_unbiased():
    with criterion("C6 outer-product approximation unbiased"):
        rng = np.random.default_rng(31)
        n = 8
        geom = geom_n(n)
        thetas = np.array([0.3, -0.7, 1.1])
        betas = np.array([1.0, 0.6, 0.3])
        bits = np.array([2, 1, 1])
        a = steering_matrix(thetas, geom.lambda_dl, geom)
        phi = a @ np.diag(betas**2 * (1 - eta(bits) ** 2)) @ a.conj().T
        trials = 100_000
        chunk = 20_000
        total = np.zeros((n, n), dtype=complex)
        total_sq = np.zeros((n, n, 2))
        for _ in range(trials // chunk):
            angles = rng.uniform(0, 2 * math.pi, size=(chunk, 3))
            q, _, _ = quantize_phases(angles, bits)
            h = (betas * np.exp(1j * angles)) @ a.T
            hhat = ((eta(bits) * betas) * np.exp(1j * q)) @ a.T
            delta = (h[:, :, None] * h[:, None, :].conj()
                     - hhat[:, :, None] * hhat[:, None, :].conj()) - phi
            total += delta.sum(axis=0)
            total_sq[..., 0] += np.sum(delta.real**2, axis=0)
            total_sq[..., 1] += np.sum(delta.imag**2, axis=0)
        mean = total / trials
        var_re = total_sq[..., 0] / trials - mean.real**2
        var_im = total_sq[..., 1] / trials - mean.imag**2
        se_re = np.sqrt(var_re / trials)
        se_im = np.sqrt(var_im / trials)
        assert np.all(np.abs(mean.real) <= 3 * se_re + 1e-12)
        assert np.all(np.abs(mean.imag) <= 3 * se_im + 1e-12)


def test_c07_outer_error_large_array_limit():
    with criterion("C7 approximation-error limit"):
        # frozen configuration with a slowly resolving angle pair
        thetas = np.array([0.8577702638101663, -1.1193946192668855])
        deltas = np.array([0.9, -0.4])
        q = np.array([math.pi / 2, math.pi])
        bits = np.array([1, 1])
        limit = asymptotic_delta_norm([1.0, 1.0], eta(bits), deltas)
        gaps = []
        for n in (64, 256, 1024, 4096):
            geom = geom_n(n)
            a = steering_matrix(thetas, geom.lambda_dl, geom)
            h = a @ np.exp(1j * (q + deltas))
            hhat = a @ (eta(bits) * np.exp(1j * q))
            val = outer_error_norm(h, hhat, a, np.ones(2), eta(bits))
            if n == 1024:
                # dense and factored routes must agree where both are cheap
                factor = np.column_stack((hhat, a * np.sqrt(1.0 - eta(bits) ** 2)))
                _, dense_val = outer_product_error(h, factor)
                assert abs(dense_val - val) <= 1e-9 * max(val, 1.0)
            gaps.append(abs(val - limit))
        assert gaps[-1] / limit < 0.05
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


def _scene_problem(cfg, rng, b_tot, power_dbm=43.0):
    geom = cfg.geometry()
    recs = []
    for _ in range(cfg.n_users):
        ps = draw_user_paths(cfg, rng)
        bits = allocate_bits("greedy", ps.betas**2, [b_tot])[0]
        fp = make_feedback_plan(ps, bits, geom)
        recs.append(reconstruct_mmse(ps, fp, geom))
    return PrecodingProblem(
        factors=np.stack(recs, axis=1), power=10 ** ((power_dbm - 30) / 10),
        sigma2=np.full(cfg.n_users, cfg.noise_watts))


def test_c08_gpip_correctness():
    with criterion("C8 power-iteration precoder"):
        # closed-form single-user, single-path optimum
        geom = geom_n(16)
        ps = PathSet(thetas=[0.4], betas=[3e-7], distances=[140.0],
                     phases_ul=[0.2], phases_dl=[3.3])
        factor = reconstruct_mmse(ps, make_feedback_plan(ps, [2], geom), geom)
        pp1 = PrecodingProblem(factors=factor[:, None], power=20.0, sigma2=5e-15)
        res1 = gpip_solve(pp1)
        direction = steering_matrix(ps.thetas, geom.lambda_dl, geom)[:, 0] / 4.0
        assert abs(np.vdot(res1.f[:, 0], direction)) > 1 - 1e-6

        # converged stationarity at (N, K) = (16, 4); 20 dBm keeps the
        # iteration in its contracting regime (interference-limited powers
        # make it orbit a plateau instead of settling)
        cfg = ScenarioConfig(n_antennas=16, n_users=4, n_paths=3)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pp = _scene_problem(cfg, rng, b_tot=9, power_dbm=20.0)
            res = gpip_solve(pp, GpipConfig(epsilon=1e-10, max_iter=300))
            assert stationarity_residual(res.f, pp) < 1e-3
            init = zf_precoder(pp.hhat)
            assert res.log_gamma / math.log(2) >= (
                sum_se_lower_bound(init, pp) + math.log2(1 - 1e-12))

        # iteration budget at (N, K) = (64, 16) with the default tolerance
        cfg_big = ScenarioConfig(n_antennas=64, n_users=16, n_paths=3)
        iterations = []
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            pp = _scene_problem(cfg_big, rng, b_tot=30, power_dbm=20.0)
            res = gpip_solve(pp, GpipConfig())
            iterations.append(res.iterations)
            init = zf_precoder(pp.hhat)
            assert res.log_gamma / math.log(2) >= (
                sum_se_lower_bound(init, pp) + math.log2(1 - 1e-12))
        assert float(np.median(iterations)) <= 10.0


def test_c09_allocation_beats_uniform_in_simulation():
    with criterion("C9 greedy vs uniform campaign"):
        start = time.perf_counter()
        weights = power_decay_profile(3, 0.1)
        assert weights.max() / weights.min() >= 100.0 * (1 - 1e-12)  # two decades
        cfg = ScenarioConfig(n_antennas=64, n_paths=3, trials=200, seed=99,
                             decay_ratio=0.1, b_tot_grid=(0, 3, 6, 9, 12, 15, 18, 21))
        records = run_mse_experiment(cfg)
        mean = {(r.b_tot, r.method): r.mean for r in records
                if r.metric == "mse_closed_form"}
        for b_tot in (3, 6, 9, 12, 15, 18, 21):
            assert mean[(b_tot, "greedy")] <= mean[(b_tot, "uniform")] * (1 + 1e-12)
        improvement = 1.0 - mean[(3, "greedy")] / mean[(3, "uniform")]
        assert improvement > 0.05
        assert time.perf_counter() - start < 60.0


def test_c10_spectral_efficiency_trends():
    with criterion("C10 spectral-efficiency trend suite"):
        start = time.perf_counter()
        cfg = ScenarioConfig(n_antennas=64, n_users=8, n_paths=3, trials=200,
                             seed=2718, power_dbm_grid=(20.0,),
                             b_tot_grid=(0, 3, 6, 9, 12, 15, 18, 21))
        records = run_se_experiment(cfg)
        mean = {(r.method, r.b_tot): r.mean for r in records if r.metric == "true_sum_se"}
        err = {(r.method, r.b_tot): r.std_err for r in records if r.metric == "true_sum_se"}

        ordering = ("gpip_robust", "gpip_plain", "zf_mmse", "zf_nofeedback")
        for hi, lo in zip(ordering, ordering[1:]):
            slack = 2 * (err[(hi, 15)] + err[(lo, 15)])
            assert mean[(hi, 15)] >= mean[(lo, 15)] - slack, (hi, lo)

        grid = cfg.b_tot_grid
        for b_prev, b_next in zip(grid, grid[1:]):
            slack = 2 * (err[("gpip_robust", b_prev)] + err[("gpip_robust", b_next)])
            assert mean[("gpip_robust", b_next)] >= mean[("gpip_robust", b_prev)] - slack

        for b_tot in grid:
            assert mean[("wmmse_perfect", b_tot)] == mean[("wmmse_perfect", grid[0])]
        assert mean[("gpip_robust", 21)] >= 0.85 * mean[("wmmse_perfect", 21)]
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0


def test_c11_byte_identical_reruns(tmp_path):
    with criterion("C11 determinism across workers"):
        runs = {
            "mse": (run_mse_experiment,
                    ScenarioConfig(n_antennas=16, n_paths=3, trials=6, seed=5,
                                   b_tot_grid=(0, 6))),
            # estimate errors from each trial's own stream
            "mse_estimates": (run_mse_experiment,
                              ScenarioConfig(n_antennas=16, n_paths=3, trials=6, seed=5,
                                             b_tot_grid=(0, 6), aoa_sigma=0.01,
                                             gain_rel_sigma=0.05)),
            # blocks of 3 trials at one worker and at 3, of one at 8
            "delta": (run_delta_experiment,
                      ScenarioConfig(n_antennas=64, n_paths=2, l_grid=(2, 8), trials=7,
                                     seed=6, b_tot_grid=(0, 3, 6, 9, 12, 15, 18, 21))),
            "se": (run_se_experiment,
                   ScenarioConfig(n_antennas=16, n_users=3, n_paths=2, trials=4,
                                  seed=7, b_tot_grid=(6,),
                                  se_methods=("gpip_robust", "zf_mmse",
                                              "wmmse_perfect"))),
        }
        for name, (runner, cfg) in runs.items():
            paths = []
            # the last run has more workers than trials
            for label, workers in (("a", 1), ("b", 3), ("c", 1), ("d", 8)):
                out = tmp_path / f"{name}_{label}.csv"
                emit_csv(runner(cfg.replace(workers=workers)), out)
                paths.append(out.read_bytes())
            assert paths[0] == paths[1] == paths[2] == paths[3], name
