import math

import numpy as np
import pytest

from fddlink.channel import ArrayGeometry, PathSet
from fddlink.feedback import make_feedback_plan
from fddlink.precoding import (
    GpipConfig,
    GpipError,
    PrecoderStack,
    PrecodingProblem,
    _problem_ratios,
    gamma,
    gpip_solve,
    stationarity_residual,
    sum_se_lower_bound,
    true_sum_se,
    wmmse_precoder,
    zf_precoder,
)
from fddlink.reconstruction import reconstruct_mmse


def random_problem(rng, n=8, k=3, power=10.0, sigma2=0.5, with_cov=True, scale=1.0):
    hhat = scale * (rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
    if with_cov:
        phi = np.empty((k, n, n), dtype=complex)
        for i in range(k):
            w = scale * (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
            phi[i] = 0.1 * w @ w.conj().T
    else:
        phi = np.zeros((k, n, n), dtype=complex)
    return PrecodingProblem(hhat=hhat, phi=phi, sigma2=np.full(k, sigma2), power=power)


def random_stack(rng, n, k):
    return PrecoderStack(rng.normal(size=n * k) + 1j * rng.normal(size=n * k),
                         num_users=k).normalized()


class TestBuildAB:
    """User k's numerator f^H A_k f and denominator f^H B_k f of the SE ratio."""

    def test_single_user_denominator_is_noise_identity(self):
        rng = np.random.default_rng(0)
        pp = random_problem(rng, n=4, k=1, power=5.0, sigma2=2.0)
        for _ in range(3):
            f = PrecoderStack(rng.normal(size=4) + 1j * rng.normal(size=4), num_users=1)
            _, q_den = _problem_ratios(pp, f)
            norm2 = float(np.vdot(f.f, f.f).real)
            assert q_den[0] == pytest.approx((2.0 / 5.0) * norm2, rel=1e-12)

    def test_quadratic_gap_is_per_user_signal(self):
        rng = np.random.default_rng(1)
        pp = random_problem(rng, n=4, k=3)
        covs = pp.effective_covariances()
        f = random_stack(rng, 4, 3)
        q_num, q_den = _problem_ratios(pp, f)
        for k in range(3):
            gap = q_num[k] - q_den[k]
            fk = f.blocks[k]
            expected = float(np.real(fk.conj() @ covs[k] @ fk))
            assert gap == pytest.approx(expected, rel=1e-10)
            assert gap >= -1e-12

    def test_hand_evaluated_ratio_two_by_two(self):
        # Phi = 0, hhat_1 = e1, uniform stack: ratio = (1/2 + c) / (1/4 + c)
        hhat = np.zeros((2, 2), dtype=complex)
        hhat[0, 0] = 1.0
        hhat[1, 1] = 1.0
        pp = PrecodingProblem(hhat=hhat, phi=np.zeros((2, 2, 2)),
                              sigma2=np.array([1.0, 1.0]), power=10.0)
        f = PrecoderStack(np.full(4, 0.5, dtype=complex), num_users=2)
        q_num, q_den = _problem_ratios(pp, f)
        c = 0.1
        assert q_num[0] == pytest.approx(0.5 + c, abs=1e-14)
        assert q_den[0] == pytest.approx(0.25 + c, abs=1e-14)
        # user 2 mirrors user 1, so gamma is the square of that ratio
        assert gamma(f, pp) == pytest.approx(((0.5 + c) / (0.25 + c)) ** 2, rel=1e-14)


class TestObjective:
    def test_log2_gamma_equals_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pp = random_problem(rng, n=6, k=4)
            f = random_stack(rng, 6, 4)
            assert math.log2(gamma(f, pp)) == pytest.approx(
                sum_se_lower_bound(f, pp), abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        pp = random_problem(rng, n=5, k=2)
        f = random_stack(rng, 5, 2)
        scaled = PrecoderStack(3.7j * f.f, num_users=2)
        assert gamma(scaled, pp) == pytest.approx(gamma(f, pp), rel=1e-10)

    def test_single_user_closed_form(self):
        # ||hhat||^2 = 4, P/sigma2 = 1, f aligned at half amplitude: log2(5)
        hhat = np.array([2.0, 0.0, 0.0, 0.0], dtype=complex)[:, None]
        pp = PrecodingProblem(hhat=hhat, phi=np.zeros((1, 4, 4)),
                              sigma2=np.array([1.0]), power=1.0)
        f = PrecoderStack(hhat[:, 0] / 2, num_users=1)
        assert sum_se_lower_bound(f, pp) == pytest.approx(math.log2(5), abs=1e-12)

    def test_orthogonal_precoder_scores_zero(self):
        hhat = np.array([[1.0], [0.0]]).astype(complex)
        pp = PrecodingProblem(hhat=hhat, phi=np.zeros((1, 2, 2)),
                              sigma2=np.array([1.0]), power=1.0)
        f = PrecoderStack(np.array([0.0, 1.0], dtype=complex), num_users=1)
        assert sum_se_lower_bound(f, pp) == pytest.approx(0.0, abs=1e-14)

    def test_vanishes_with_huge_noise(self):
        rng = np.random.default_rng(5)
        f = random_stack(rng, 4, 2)
        lows = []
        for sigma2 in (1.0, 1e6, 1e12):
            pp = random_problem(np.random.default_rng(6), n=4, k=2, sigma2=sigma2)
            lows.append(sum_se_lower_bound(f, pp))
        assert lows[0] > lows[1] > lows[2]
        assert lows[-1] < 1e-9


class TestZeroForcing:
    def test_orthonormal_channels_give_matched_columns(self):
        hhat = np.eye(4, dtype=complex)[:, :2]
        pp = PrecodingProblem(hhat=hhat, phi=np.zeros((2, 4, 4)),
                              sigma2=np.array([1.0, 1.0]), power=1.0)
        f = zf_precoder(hhat, pp)
        for k in range(2):
            corr = abs(np.vdot(f.blocks[k], hhat[:, k])) / np.linalg.norm(f.blocks[k])
            assert corr == pytest.approx(1.0, abs=1e-12)

    def test_single_user_matched_filter(self):
        rng = np.random.default_rng(7)
        h = (rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1)))
        pp = PrecodingProblem(hhat=h, phi=np.zeros((1, 5, 5)),
                              sigma2=np.array([1.0]), power=1.0)
        f = zf_precoder(h, pp)
        corr = abs(np.vdot(f.f, h[:, 0])) / np.linalg.norm(h)
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_residual_interference_is_zero(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        pp = PrecodingProblem(hhat=h, phi=np.zeros((3, 6, 6)),
                              sigma2=np.ones(3), power=1.0)
        f = zf_precoder(h, pp)
        for i in range(3):
            for k in range(3):
                if i != k:
                    assert abs(np.vdot(h[:, i], f.blocks[k])) < 1e-12

    def test_equal_per_user_power_and_unit_norm(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        pp = PrecodingProblem(hhat=h, phi=np.zeros((3, 6, 6)),
                              sigma2=np.ones(3), power=1.0)
        f = zf_precoder(h, pp)
        assert np.linalg.norm(f.f) == pytest.approx(1.0, abs=1e-12)
        powers = np.linalg.norm(f.blocks, axis=1) ** 2
        np.testing.assert_allclose(powers, 1 / 3, atol=1e-12)

    def test_overloaded_system_rejected(self):
        h = np.ones((2, 3), dtype=complex)
        pp = PrecodingProblem(hhat=np.ones((3, 3), dtype=complex),
                              phi=np.zeros((3, 3, 3)), sigma2=np.ones(3), power=1.0)
        with pytest.raises(ValueError):
            zf_precoder(h, pp)


class TestGpip:
    def geom(self, n):
        return ArrayGeometry(num_antennas=n, spacing=0.015, lambda_ul=0.03, lambda_dl=0.025)

    def test_single_user_single_path_closed_form(self):
        # optimum is the principal eigenvector of the rank-one effective
        # covariance, i.e. the steering direction itself
        geom = self.geom(8)
        ps = PathSet(thetas=[0.4], betas=[2e-7], distances=[150.0],
                     phases_ul=[0.3], phases_dl=[4.0])
        rc = reconstruct_mmse(ps, make_feedback_plan(ps, [2], geom), geom)
        pp = PrecodingProblem.from_reconstructions([rc], power=20.0, sigma2=5e-15)
        res = gpip_solve(pp)
        a = np.exp(-1j * (2 * math.pi / geom.lambda_dl) * np.arange(8)
                   * geom.spacing * math.sin(0.4)) / math.sqrt(8)
        assert abs(np.vdot(res.f.f, a)) > 1 - 1e-6
        assert stationarity_residual(res.f, pp) < 1e-8

    def test_orthogonal_users_high_snr(self):
        hhat = np.eye(8, dtype=complex)[:, :2] * 3.0
        pp = PrecodingProblem(hhat=hhat, phi=np.zeros((2, 8, 8)),
                              sigma2=np.array([1e-6, 1e-6]), power=1.0)
        res = gpip_solve(pp)
        for k in range(2):
            blk = res.f.blocks[k]
            corr = abs(np.vdot(blk, hhat[:, k])) / (np.linalg.norm(blk) * 3.0)
            assert corr > 1 - 1e-6
        zf = zf_precoder(hhat, pp)
        assert gamma(res.f, pp) >= gamma(zf, pp) * (1 - 1e-12)

    def test_keep_best_never_loses_to_init(self):
        rng = np.random.default_rng(11)
        for scale in (1.0, 1e-7):
            for _ in range(10):
                pp = random_problem(rng, n=8, k=3, sigma2=0.3 * scale**2, scale=scale)
                init = zf_precoder(pp.hhat, pp)
                res = gpip_solve(pp, GpipConfig(max_iter=20))
                assert res.gamma >= gamma(init, pp) * (1 - 1e-12)
                assert len(res.gamma_history) == res.iterations + 1

    def test_converged_residual_small(self):
        rng = np.random.default_rng(12)
        pp = random_problem(rng, n=16, k=4)
        res = gpip_solve(pp, GpipConfig(epsilon=1e-10, max_iter=300))
        assert res.converged
        assert stationarity_residual(res.f, pp) < 1e-3

    def test_random_point_residual_is_large(self):
        rng = np.random.default_rng(13)
        pp = random_problem(rng, n=8, k=3)
        f = random_stack(rng, 8, 3)
        assert stationarity_residual(f, pp) > 1e-2

    def test_gamma_history_reported(self):
        rng = np.random.default_rng(14)
        pp = random_problem(rng, n=6, k=2)
        res = gpip_solve(pp)
        assert res.gamma_history[0] > 0
        assert max(res.gamma_history) == pytest.approx(res.gamma, rel=1e-12)

    def test_non_finite_input_raises(self):
        rng = np.random.default_rng(15)
        pp = random_problem(rng, n=4, k=2)
        bad = pp.hhat.copy()
        bad[0, 0] = np.nan
        bad_pp = PrecodingProblem(hhat=bad, phi=pp.phi, sigma2=pp.sigma2, power=pp.power)
        with pytest.raises(GpipError):
            gpip_solve(bad_pp)


class TestWmmse:
    def test_single_user_matched_filter_rate(self):
        rng = np.random.default_rng(16)
        h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        pp = PrecodingProblem(hhat=h, phi=np.zeros((1, 4, 4)),
                              sigma2=np.array([2.0]), power=5.0)
        f = wmmse_precoder(h, pp)
        expected = math.log2(1 + np.linalg.norm(h) ** 2 * 5.0 / 2.0)
        assert true_sum_se(f, h, pp) == pytest.approx(expected, rel=1e-9)

    def test_rate_non_decreasing_in_iterations(self):
        rng = np.random.default_rng(17)
        h = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        pp = PrecodingProblem(hhat=h, phi=np.zeros((3, 6, 6)),
                              sigma2=np.ones(3), power=10.0)
        rates = [true_sum_se(wmmse_precoder(h, pp, iters=i, tol=1e-15), h, pp)
                 for i in (1, 2, 4, 8, 16)]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_beats_zero_forcing_on_random_drops(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            h = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
            pp = PrecodingProblem(hhat=h, phi=np.zeros((2, 8, 8)),
                                  sigma2=np.ones(2), power=4.0)
            zf_rate = true_sum_se(zf_precoder(h, pp), h, pp)
            wm_rate = true_sum_se(wmmse_precoder(h, pp), h, pp)
            assert wm_rate >= zf_rate - 1e-9


class TestTrueSumSe:
    def test_matches_lower_bound_with_perfect_csi(self):
        rng = np.random.default_rng(19)
        h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        pp = PrecodingProblem(hhat=h, phi=np.zeros((1, 4, 4)),
                              sigma2=np.array([1.5]), power=2.0)
        f = PrecoderStack(h[:, 0] / np.linalg.norm(h), num_users=1)
        assert true_sum_se(f, h, pp) == pytest.approx(sum_se_lower_bound(f, pp), rel=1e-12)

    def test_zero_interference_sinr(self):
        rng = np.random.default_rng(20)
        h = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        pp = PrecodingProblem(hhat=h, phi=np.zeros((3, 6, 6)),
                              sigma2=np.full(3, 0.7), power=3.0)
        f = zf_precoder(h, pp)
        expected = sum(
            math.log2(1 + abs(np.vdot(h[:, k], f.blocks[k])) ** 2 * 3.0 / 0.7)
            for k in range(3))
        assert true_sum_se(f, h, pp) == pytest.approx(expected, rel=1e-10)


class TestStackAndConfig:
    def test_stack_round_trip(self):
        cols = np.arange(6, dtype=complex).reshape(3, 2)
        stack = PrecoderStack.from_columns(cols)
        np.testing.assert_array_equal(stack.blocks, cols.T)

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            PrecoderStack(np.zeros(4, dtype=complex), num_users=2).normalized()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GpipConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            GpipConfig(max_iter=0)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            PrecodingProblem(hhat=np.ones((2, 1), dtype=complex),
                             phi=np.zeros((1, 2, 2)), sigma2=np.array([-1.0]), power=1.0)
        with pytest.raises(ValueError):
            PrecodingProblem(hhat=np.ones((2, 1), dtype=complex),
                             phi=np.zeros((1, 3, 3)), sigma2=np.array([1.0]), power=1.0)
