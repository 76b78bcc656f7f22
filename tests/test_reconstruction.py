import math

import numpy as np
import pytest

from fddlink.allocation import eta, theoretical_weighted_mse
from fddlink.channel import (
    ArrayGeometry,
    PathSet,
    dl_channel,
    perturb_estimates,
    steering_matrix,
)
from fddlink.feedback import make_feedback_plan, quantize_phases
from fddlink.reconstruction import (
    ReconstructedChannel,
    asymptotic_delta_norm,
    error_covariance,
    outer_error_norm,
    outer_product_error,
    reconstruct_dft,
    reconstruct_mmse,
    reconstruct_no_feedback,
)

GEOM = ArrayGeometry(num_antennas=4, spacing=0.015, lambda_ul=0.03, lambda_dl=0.025)


def dense_phi(rc):
    """The N x N error covariance E E^H from the error columns of the factor."""
    e = rc.factor[:, 1:]
    return e @ e.conj().T


def geom_n(n):
    return ArrayGeometry(num_antennas=n, spacing=0.015, lambda_ul=0.03, lambda_dl=0.025)


def two_path_set(betas=(1.0, 1.0), thetas=(0.3, -0.7)):
    return PathSet(thetas=thetas, betas=betas, distances=(100.0, 130.0),
                   phases_ul=(0.4, 0.4), phases_dl=(1.1, 2.1))


def one_path(theta, beta, distance, phase_ul, phase_dl):
    return PathSet(thetas=[theta], betas=[beta], distances=[distance],
                   phases_ul=[phase_ul], phases_dl=[phase_dl])


class TestReconstructMmse:
    def test_many_bits_recover_truth(self):
        ps = one_path(0.5, 1.0, 120.0, 1.0, 2.0)
        fp = make_feedback_plan(ps, [30], GEOM)
        rc = reconstruct_mmse(ps, fp, GEOM)
        h = dl_channel(ps, GEOM)
        assert np.linalg.norm(h - rc.hhat) / np.linalg.norm(h) < 1e-6

    def test_zero_bits_collapse_to_prior_mean(self):
        ps = one_path(0.2, 1.5, 80.0, 0.0, 2.6)
        rc = reconstruct_mmse(ps, make_feedback_plan(ps, [0], GEOM), GEOM)
        assert np.linalg.norm(rc.hhat) == 0.0
        a = steering_matrix(ps.thetas, GEOM.lambda_dl, GEOM)[:, 0]
        np.testing.assert_allclose(dense_phi(rc), 1.5**2 * np.outer(a, a.conj()), atol=1e-12)
        assert np.trace(dense_phi(rc)).real == pytest.approx(4 * 1.5**2)

    def test_two_path_trace(self):
        ps = two_path_set()
        rc = reconstruct_mmse(ps, make_feedback_plan(ps, [1, 1], GEOM), GEOM)
        assert np.trace(dense_phi(rc)).real == pytest.approx(
            8 * (1 - 4 / math.pi**2), abs=1e-12)

    def test_trace_matches_closed_form_identity(self):
        ps = two_path_set(betas=(0.8, 0.1))
        bits = [2, 1]
        rc = reconstruct_mmse(ps, make_feedback_plan(ps, bits, GEOM), GEOM)
        expected = theoretical_weighted_mse(ps.betas, bits, GEOM.num_antennas)
        assert np.trace(dense_phi(rc)).real == pytest.approx(expected, rel=1e-13)

    def test_length_mismatch_rejected(self):
        ps = two_path_set()
        fp = make_feedback_plan(ps, [1, 1], GEOM)
        short = PathSet(thetas=ps.thetas[:1], betas=ps.betas[:1], distances=ps.distances[:1],
                        phases_ul=ps.phases_ul[:1], phases_dl=ps.phases_dl[:1])
        with pytest.raises(ValueError):
            reconstruct_mmse(short, fp, GEOM)

    def test_perturbed_parameters_variant(self):
        # feedback comes from the true phases, reconstruction from estimates
        ps = two_path_set()
        est = perturb_estimates(ps, 0.02, 0.05, np.random.default_rng(3))
        fp = make_feedback_plan(ps, [3, 2], GEOM)
        rc = reconstruct_mmse(est, fp, GEOM)
        a = steering_matrix(est.thetas, GEOM.lambda_dl, GEOM)
        expected = a @ (eta(np.array([3, 2])) * est.betas * np.exp(1j * fp.q_values))
        np.testing.assert_allclose(rc.hhat, expected, atol=1e-14)


class TestReconstructNoFeedback:
    def test_single_path(self):
        ps = one_path(0.2, 0.7, 90.0, 0.0, 2.6)
        rc = reconstruct_no_feedback(ps, GEOM)
        a = steering_matrix(ps.thetas, GEOM.lambda_dl, GEOM)[:, 0]
        np.testing.assert_allclose(rc.hhat, 0.7 * a, atol=1e-14)

    def test_ignores_dl_phase(self):
        h1 = reconstruct_no_feedback(one_path(0.2, 0.7, 90.0, 0.0, 2.6), GEOM).hhat
        h2 = reconstruct_no_feedback(one_path(0.2, 0.7, 90.0, 0.0, 0.4), GEOM).hhat
        assert np.linalg.norm(h1) == pytest.approx(np.linalg.norm(h2))

    def test_cov_modes(self):
        ps = two_path_set()
        full = reconstruct_no_feedback(ps, GEOM)
        np.testing.assert_allclose(dense_phi(full),
                                   error_covariance(ps, [0, 0], GEOM), atol=1e-12)


class TestErrorCovariance:
    def test_vanishes_with_many_bits(self):
        ps = two_path_set()
        phi = error_covariance(ps, [30, 30], GEOM)
        assert np.linalg.norm(phi) < 1e-10

    def test_single_path_rank_one(self):
        ps = one_path(0.3, 1.0, 100.0, 0.1, 0.2)
        phi = error_covariance(ps, [1], GEOM)
        assert np.linalg.matrix_rank(phi, tol=1e-10) == 1

    def test_hermitian_psd(self):
        ps = two_path_set(betas=(1.0, 0.4))
        phi = error_covariance(ps, [1, 2], GEOM)
        np.testing.assert_allclose(phi, phi.conj().T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(phi)) > -1e-12

    def test_monte_carlo_oracle(self):
        # empirical covariance of the realized error over fresh delta draws
        rng = np.random.default_rng(77)
        geom = geom_n(8)
        ps = two_path_set(betas=(1.0, 0.6))
        bits = np.array([1, 0])
        fp = make_feedback_plan(ps, bits, geom)
        trials = 30_000
        half = math.pi / 2.0**bits
        deltas = rng.uniform(-half, half, size=(trials, 2))
        etas = eta(bits)
        coeff = (ps.betas * np.exp(1j * fp.q_values))[None, :] * \
            (np.exp(1j * deltas) - etas[None, :])
        a = steering_matrix(ps.thetas, geom.lambda_dl, geom)
        errors = coeff @ a.T  # (trials, N)
        emp = errors.conj().T @ errors / trials
        phi = error_covariance(ps, bits, geom)
        rel = np.linalg.norm(emp - phi.conj()) / np.linalg.norm(phi)
        assert rel < 0.05


class TestOuterProductError:
    def test_single_path_error_is_identically_zero(self):
        # one path cancels exactly: h h^H - (hhat hhat^H + Phi) = 0 at any N,
        # so only floating-point residue remains
        for n in (64, 256, 1024):
            geom = geom_n(n)
            ps = one_path(0.4, 1.0, 110.0, 0.3, 2.2)
            rc = reconstruct_mmse(ps, make_feedback_plan(ps, [1], geom), geom)
            _, norm = outer_product_error(dl_channel(ps, geom), rc)
            assert norm < 1e-20

    def test_gram_norm_matches_dense(self):
        geom = geom_n(32)
        ps = two_path_set(betas=(1.0, 0.5))
        bits = [2, 1]
        rc = reconstruct_mmse(ps, make_feedback_plan(ps, bits, geom), geom)
        h = dl_channel(ps, geom)
        _, dense = outer_product_error(h, rc)
        fast = outer_error_norm(h, rc.hhat, ps, bits, geom)
        assert fast == pytest.approx(dense, rel=1e-10)

    def test_delta_is_hermitian(self):
        geom = geom_n(16)
        ps = two_path_set()
        rc = reconstruct_mmse(ps, make_feedback_plan(ps, [1, 1], geom), geom)
        delta, _ = outer_product_error(dl_channel(ps, geom), rc)
        np.testing.assert_allclose(delta, delta.conj().T, atol=1e-12)

    def test_mean_over_phases_is_unbiased(self):
        rng = np.random.default_rng(15)
        geom = geom_n(8)
        thetas = np.array([0.3, -0.7])
        betas = np.array([1.0, 0.6])
        bits = np.array([1, 1])
        trials = 20_000
        a = steering_matrix(thetas, geom.lambda_dl, geom)
        angles = rng.uniform(0, 2 * math.pi, size=(trials, 2))
        q, _, delta = quantize_phases(angles, bits)
        g_true = betas[None, :] * np.exp(1j * angles)
        g_hat = (eta(bits) * betas)[None, :] * np.exp(1j * q)
        h = g_true @ a.T
        hhat = g_hat @ a.T
        phi = a @ np.diag(betas**2 * (1 - eta(bits) ** 2)) @ a.conj().T
        accum = (h[:, :, None] * h[:, None, :].conj()
                 - hhat[:, :, None] * hhat[:, None, :].conj()).mean(axis=0) - phi
        spread = np.abs(h[:, :, None] * h[:, None, :].conj()).std(axis=0)
        stderr = spread / math.sqrt(trials) + 1e-12
        assert np.all(np.abs(accum) < 4 * stderr)


class TestAsymptoticDeltaNorm:
    def test_single_path_empty_sum(self):
        assert asymptotic_delta_norm([1.0], [3], [0.1]) == 0.0

    def test_perfect_feedback_cancels(self):
        assert asymptotic_delta_norm([1.0, 2.0], [40, 40], [0.0, 0.0]) == pytest.approx(
            0.0, abs=1e-10)

    def test_two_path_equal_delta_value(self):
        e1 = eta(1)
        expected = 2 * (1 - e1**2) ** 2
        assert asymptotic_delta_norm([1, 1], [1, 1], [0.0, 0.0]) == pytest.approx(
            expected, abs=1e-12)

    def test_finite_n_cross_check(self):
        # frozen deltas; the dense normalized norm approaches the closed form
        deltas = np.array([0.9, -0.4])
        qs = np.array([math.pi / 2, math.pi])
        bits = np.array([1, 1])
        thetas = np.array([0.3, -0.7])
        expected = asymptotic_delta_norm([1, 1], bits, deltas)
        geom = geom_n(2048)
        a = steering_matrix(thetas, geom.lambda_dl, geom)
        h = a @ np.exp(1j * (qs + deltas))
        hhat = a @ (eta(bits) * np.exp(1j * qs))
        ps = PathSet(thetas=thetas, betas=np.ones(2), distances=np.zeros(2),
                     phases_ul=np.zeros(2), phases_dl=np.zeros(2))
        val = outer_error_norm(h, hhat, ps, bits, geom)
        assert val == pytest.approx(expected, rel=0.01)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_delta_norm([1.0, 1.0], [1], [0.0, 0.0])


class TestDftReconstruction:
    def test_wraps_estimate_with_zero_cov(self):
        rc = reconstruct_dft(np.ones(4, dtype=complex), GEOM)
        assert rc.factor.shape == (4, 1)
        np.testing.assert_array_equal(rc.hhat, np.ones(4))
        assert np.all(dense_phi(rc) == 0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_dft(np.ones(3, dtype=complex), GEOM)


class TestReconstructedChannel:
    def test_malformed_factors_rejected(self):
        with pytest.raises(ValueError, match="N x R"):
            ReconstructedChannel(np.ones(4, dtype=complex))
        with pytest.raises(ValueError, match="R >= 1"):
            ReconstructedChannel(np.ones((4, 0), dtype=complex))
        with pytest.raises(ValueError, match="N x R"):
            ReconstructedChannel(np.ones((4, 1, 1)))
