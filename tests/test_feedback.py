import math

import numpy as np
import pytest
from scipy import stats

from fddlink.channel import ArrayGeometry, PathSet
from fddlink.feedback import (
    dft_codebook,
    dft_codebook_feedback,
    make_feedback_plan,
    quantize_phases,
)

TWO_PI = 2 * math.pi


class TestQuantizePhase:
    def test_five_eighths_pi_two_bits(self):
        q, index, delta = quantize_phases(5 * math.pi / 8, 2)
        assert q == pytest.approx(math.pi / 2)
        assert index == 1
        assert delta == pytest.approx(math.pi / 8)

    def test_wraparound_beats_linear_distance(self):
        q, index, delta = quantize_phases(15 * math.pi / 8, 2)
        assert q == 0.0
        assert index == 0
        assert delta == pytest.approx(-math.pi / 8)

    def test_codewords_are_fixed_points(self):
        for bits in (0, 1, 2, 4):
            c = TWO_PI * np.arange(2**bits) / 2**bits
            q, _, delta = quantize_phases(c, bits)
            np.testing.assert_allclose(q, c)
            assert np.all(np.abs(delta) < 1e-12)

    def test_idempotent(self):
        q, index, _ = quantize_phases(2.13, 3)
        again_q, again_index, _ = quantize_phases(q, 3)
        assert again_q == pytest.approx(q)
        assert again_index == index

    def test_delta_support(self):
        rng = np.random.default_rng(0)
        for bits in (0, 1, 3):
            angles = rng.uniform(-10, 10, size=200)
            _, _, delta = quantize_phases(angles, bits)
            assert np.all(np.abs(delta) <= math.pi / 2**bits + 1e-12)

    def test_zero_bits_delta_is_wrapped_angle(self):
        q, _, delta = quantize_phases(1.0, 0)
        assert q == 0.0 and delta == pytest.approx(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize_phases(math.inf, 2)
        with pytest.raises(ValueError):
            quantize_phases(1.0, -1)

    def test_vectorized_matches_scalar(self):
        # one call over an array agrees exactly with one call per angle,
        # and a per-angle bit array with a shared bit count
        rng = np.random.default_rng(7)
        angles = rng.uniform(-7, 7, size=64)
        q, idx, delta = quantize_phases(angles, 3)
        per_angle = quantize_phases(angles, np.full(64, 3))
        for got, want in zip(per_angle, (q, idx, delta)):
            np.testing.assert_array_equal(got, want)
        for i, a in enumerate(angles):
            qi, ii, di = quantize_phases(a, 3)
            assert (qi, ii, di) == (q[i], idx[i], delta[i])


class TestErrorStatistics:
    def test_delta_uniform_ks(self):
        rng = np.random.default_rng(123)
        bits = 3
        angles = rng.uniform(0, TWO_PI, size=100_000)
        _, _, delta = quantize_phases(angles, bits)
        half = math.pi / 2**bits
        stat = stats.kstest(delta, stats.uniform(loc=-half, scale=2 * half).cdf).statistic
        critical_1pct = 1.628 / math.sqrt(delta.size)
        assert stat < critical_1pct

    def test_mean_square_error_scales_as_four_to_minus_b(self):
        rng = np.random.default_rng(5)
        angles = rng.uniform(0, TWO_PI, size=200_000)
        ms = []
        for bits in (2, 3, 4):
            _, _, delta = quantize_phases(angles, bits)
            ms.append(np.mean(delta**2))
        assert ms[0] / ms[1] == pytest.approx(4.0, rel=0.05)
        assert ms[1] / ms[2] == pytest.approx(4.0, rel=0.05)


class TestFeedbackPlan:
    GEOM = ArrayGeometry(num_antennas=4, spacing=0.015, lambda_ul=0.03, lambda_dl=0.025)

    def test_plan_quantizes_dl_phases(self):
        ps = PathSet(thetas=[0.1, -0.4], betas=[1.0, 0.5], distances=[100.0, 130.0],
                     phases_ul=[0.3, 2.0], phases_dl=[1.2, 0.6])
        fp = make_feedback_plan(ps, [2, 0], self.GEOM)
        np.testing.assert_array_equal(fp.bits, [2, 0])
        angles = np.mod(-TWO_PI * ps.distances / self.GEOM.lambda_dl + ps.phases_dl, TWO_PI)
        for q, delta, angle, bits in zip(fp.q_values, fp.deltas, angles, fp.bits):
            ref_q, _, ref_delta = quantize_phases(angle, bits)
            assert q == pytest.approx(ref_q)
            assert delta == pytest.approx(ref_delta)

    def test_length_mismatch_rejected(self):
        ps = PathSet(thetas=[0.1], betas=[1.0], distances=[100.0],
                     phases_ul=[0.3], phases_dl=[1.2])
        with pytest.raises(ValueError):
            make_feedback_plan(ps, [1, 2], self.GEOM)


class TestDftCodebook:
    GEOM = ArrayGeometry(num_antennas=8, spacing=0.0125, lambda_ul=0.03, lambda_dl=0.025)

    def test_codeword_recovers_itself(self):
        cb = dft_codebook(8, 5)
        idx, hhat = dft_codebook_feedback(cb[:, 7], 5, self.GEOM)
        assert idx == 7
        # zero chordal distance: unit-norm input equals the reconstruction
        np.testing.assert_allclose(hhat, cb[:, 7], atol=1e-12)

    def test_grid_aligned_steering_vector_exact(self):
        # per-antenna increment 2*pi*m/M matches theta with sin = m*lam/(M*d)
        m, total_bits = 3, 5
        size = 2**total_bits
        theta = math.asin(m * self.GEOM.lambda_dl / (size * self.GEOM.spacing))
        n = np.arange(8)
        h = 2.7 * np.exp(-1j * TWO_PI / self.GEOM.lambda_dl
                         * n * self.GEOM.spacing * math.sin(theta))
        idx, hhat = dft_codebook_feedback(h, total_bits, self.GEOM)
        assert idx == m
        corr = abs(np.vdot(hhat, h)) / (np.linalg.norm(hhat) * np.linalg.norm(h))
        assert corr == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(hhat) == pytest.approx(np.linalg.norm(h))

    def test_refinement_correlation_approaches_one(self):
        n = np.arange(8)
        h = np.exp(-1j * TWO_PI / self.GEOM.lambda_dl
                   * n * self.GEOM.spacing * math.sin(0.33))
        corrs = []
        for total_bits in (3, 5, 7, 9, 11):
            _, hhat = dft_codebook_feedback(h, total_bits, self.GEOM)
            corrs.append(abs(np.vdot(hhat, h)) / (np.linalg.norm(hhat) * np.linalg.norm(h)))
        assert all(b >= a - 1e-12 for a, b in zip(corrs, corrs[1:]))
        assert corrs[-1] > 0.999

    def test_subsampled_codebook_when_bits_scarce(self):
        cb = dft_codebook(8, 2)
        assert cb.shape == (8, 4)
        full = dft_codebook(8, 3)
        np.testing.assert_allclose(cb, full[:, ::2], atol=1e-14)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            dft_codebook_feedback(np.array([]), 3, self.GEOM)
