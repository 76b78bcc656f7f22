import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fddlink.channel import ArrayGeometry, PathSet, dl_channel
from fddlink.feedback import (
    MAX_DFT_BITS,
    dft_codebook_feedback,
    make_feedback_plan,
    quantize_phases,
)
from oracles import dft_codebook

TWO_PI = 2 * math.pi


def brute_force_feedback(h: np.ndarray, total_bits: int,
                         num_antennas: int) -> tuple[int, np.ndarray]:
    """The codebook search as one matrix-vector product over every codeword."""
    cb = dft_codebook(num_antennas, total_bits)
    index = int(np.argmax(np.abs(cb.conj().T @ h)))
    return index, float(np.linalg.norm(h)) * cb[:, index]


def full_fft_feedback(h: np.ndarray, total_bits: int) -> tuple[int, np.ndarray]:
    """The oversampled search as one zero-padded FFT of 2**total_bits points."""
    size = 2**total_bits
    index = int(np.argmax(np.abs(np.fft.ifft(h, size))))
    codeword = np.exp(-1j * TWO_PI * np.arange(len(h)) * (index / size)) / math.sqrt(len(h))
    return index, float(np.linalg.norm(h)) * codeword


def rebuilt_channel(h: np.ndarray, index: int, total_bits: int) -> np.ndarray:
    """||h|| times the unit-norm codeword ``index``, ||h|| taken by np.linalg.norm."""
    size, n = 2**total_bits, len(h)
    freq = index / size if size >= n else index * n // size / n
    codeword = np.exp(-1j * TWO_PI * np.arange(n) * freq) / math.sqrt(n)
    return float(np.linalg.norm(h)) * codeword


def random_channel(rng, num_antennas: int, num_paths: int) -> np.ndarray:
    return dl_channel(PathSet(thetas=rng.uniform(-math.pi / 2, math.pi / 2, num_paths),
                              betas=rng.rayleigh(size=num_paths),
                              distances=rng.uniform(50.0, 500.0, num_paths),
                              phases_ul=rng.uniform(0.0, TWO_PI, num_paths),
                              phases_dl=rng.uniform(0.0, TWO_PI, num_paths)),
                      geometry(num_antennas))


def geometry(num_antennas: int) -> ArrayGeometry:
    return ArrayGeometry(num_antennas=num_antennas, spacing=0.0125,
                         lambda_ul=0.03, lambda_dl=0.025)


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
        # a stack of 4 path sets of 16 paths, each angle quantized at the 3
        # bit rows of its path set, as a feedback plan over a budget grid does
        bits = rng.integers(0, 9, size=(4, 3, 16))
        stacked = quantize_phases(angles.reshape(4, 1, 16), bits)
        for s, g in np.ndindex(4, 3):
            for got, want in zip(stacked, quantize_phases(angles.reshape(4, 16)[s], bits[s, g])):
                np.testing.assert_array_equal(got[s, g], want)


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
        # a stack of 2 path sets takes (2, L) or (2, budgets, L) bits
        stack = PathSet.stack([ps, ps])
        for bits in ([1], [[1]], [[[1]]], [[1], [2], [3]], [[[1]], [[2]], [[3]]]):
            with pytest.raises(ValueError, match="1 paths of shape"):
                make_feedback_plan(stack, bits, self.GEOM)
        assert make_feedback_plan(stack, [[[1], [2], [3]], [[4], [5], [6]]], self.GEOM).bits.shape \
            == (2, 3, 1)


class TestDftCodebook:
    GEOM = geometry(8)

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

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            dft_codebook_feedback(np.ones(7, dtype=complex), 3, self.GEOM)
        with pytest.raises(ValueError, match="shape"):
            dft_codebook_feedback(np.ones(9, dtype=complex), 3, self.GEOM)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            dft_codebook_feedback(np.ones((8, 1), dtype=complex), 3, self.GEOM)

    def test_non_finite_input_rejected(self):
        h = np.ones(8, dtype=complex)
        h[3] = complex(math.nan, 0.0)
        with pytest.raises(ValueError, match="finite"):
            dft_codebook_feedback(h, 3, self.GEOM)

    @settings(deadline=None, max_examples=200)
    @given(num_antennas=st.integers(1, 80), total_bits=st.integers(0, 13),
           num_paths=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force_search(self, num_antennas, total_bits, num_paths, seed):
        # 2**total_bits falls below, at and above N; both must agree bit for bit
        rng = np.random.default_rng(seed)
        geom = geometry(num_antennas)
        ps = PathSet(thetas=rng.uniform(-math.pi / 2, math.pi / 2, num_paths),
                     betas=rng.rayleigh(size=num_paths),
                     distances=rng.uniform(50.0, 500.0, num_paths),
                     phases_ul=rng.uniform(0.0, TWO_PI, num_paths),
                     phases_dl=rng.uniform(0.0, TWO_PI, num_paths))
        h = dl_channel(ps, geom)
        idx, hhat = dft_codebook_feedback(h, total_bits, geom)
        want_idx, want_hhat = brute_force_feedback(h, total_bits, num_antennas)
        assert idx == want_idx
        assert hhat.tobytes() == want_hhat.tobytes()

    @settings(deadline=None, max_examples=150)
    @given(data=st.data(), num_antennas=st.integers(1, 256), num_paths=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_refined_search_matches_full_fft(self, data, num_antennas, num_paths, seed):
        # grids finer than 64 N points are searched by branch and bound
        total_bits = data.draw(st.integers((64 * num_antennas).bit_length(), 18))
        h = random_channel(np.random.default_rng(seed), num_antennas, num_paths)
        idx, hhat = dft_codebook_feedback(h, total_bits, geometry(num_antennas))
        want_idx, want_hhat = full_fft_feedback(h, total_bits)
        assert idx == want_idx
        assert hhat.tobytes() == want_hhat.tobytes()

    @pytest.mark.parametrize("num_antennas, num_paths, seed",
                             [(2, 1, 0), (16, 3, 1), (64, 3, 2), (256, 8, 3), (256, 1, 4)])
    def test_paper_budget_matches_full_fft(self, num_antennas, num_paths, seed):
        h = random_channel(np.random.default_rng(seed), num_antennas, num_paths)
        idx, hhat = dft_codebook_feedback(h, 21, geometry(num_antennas))
        want_idx, want_hhat = full_fft_feedback(h, 21)
        assert idx == want_idx
        assert hhat.tobytes() == want_hhat.tobytes()

    def test_peak_between_coarse_points_found(self):
        # the coarse 1024-point grid ranks the peak at 100/1024 first, but the
        # slightly stronger one half a coarse step off the grid is the maximum
        n = np.arange(64)
        h = (np.exp(-2j * math.pi * n * 100 / 1024)
             + 1.001 * np.exp(-2j * math.pi * n * 612.5 / 1024))
        assert np.argmax(np.abs(np.fft.ifft(h, 1024))) == 100
        idx, _ = dft_codebook_feedback(h, 16, geometry(64))
        assert idx == full_fft_feedback(h, 16)[0] == 39201

    @pytest.mark.parametrize("total_bits", [5, 21])
    def test_zero_channel_takes_first_codeword(self, total_bits):
        idx, hhat = dft_codebook_feedback(np.zeros(8, dtype=complex), total_bits, self.GEOM)
        assert idx == 0
        assert not hhat.any()

    def test_exact_tie_goes_to_lowest_index(self):
        # with only even taps T(f + 1/2) = T(f), and both peaks are evaluated
        # with bitwise equal phases, so their values tie exactly
        h = random_channel(np.random.default_rng(11), 64, 2)
        h[1::2] = 0.0
        total_bits = 18
        idx, _ = dft_codebook_feedback(h, total_bits, geometry(64))
        want_idx, _ = full_fft_feedback(h, total_bits)
        assert idx == want_idx < 2 ** (total_bits - 1)

    def test_flat_channel_stays_small(self):
        # |T| = |1 + 1e-12 exp(i 2 pi f)| is flat to rounding near its peak at
        # f = 0, so far more cells tie than the search carries on
        h = np.zeros(256, dtype=complex)
        h[:2] = 1.0, 1e-12
        tracemalloc.start()
        try:
            idx, _ = dft_codebook_feedback(h, MAX_DFT_BITS, geometry(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert idx == 0
        assert peak < 8 * 2**20

    def test_budget_limit(self):
        geom = geometry(256)
        h = random_channel(np.random.default_rng(5), 256, 3)
        idx, _ = dft_codebook_feedback(h, MAX_DFT_BITS, geom)
        coarse_idx, _ = dft_codebook_feedback(h, 21, geom)
        # the best of 2**32 codewords lies within one 2**-21 step of the best of 2**21
        assert abs(idx / 2**MAX_DFT_BITS - coarse_idx / 2**21) <= 2.0**-21
        with pytest.raises(ValueError, match="total_bits"):
            dft_codebook_feedback(h, MAX_DFT_BITS + 1, geom)

    def test_paper_scale_memory(self):
        # a full FFT of 2**21 points alone would take 32 MiB at N = 256, B = 21
        geom = geometry(256)
        h = dl_channel(PathSet(thetas=[0.2, -0.7], betas=[1.0, 0.4],
                               distances=[120.0, 180.0], phases_ul=[0.0, 1.0],
                               phases_dl=[0.5, 2.5]), geom)
        tracemalloc.start()
        try:
            idx, hhat = dft_codebook_feedback(h, 21, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 <= idx < 2**21 and hhat.shape == (256,)
        assert peak < 8 * 2**20


class TestStackedDftSearch:
    """A stack of channels is searched in one call, each row bit-equal to its own call."""

    @staticmethod
    def flat_row(num_antennas: int) -> np.ndarray:
        # test_flat_channel_stays_small's channel: its search cuts to _MAX_CELLS
        h = np.zeros(num_antennas, dtype=complex)
        h[:2] = 1.0, 1e-12
        return h

    @settings(deadline=None, max_examples=150)
    @given(data=st.data(), branch=st.integers(0, 2), num_antennas=st.integers(2, 128),
           num_random=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_single_calls(self, data, branch, num_antennas, num_random, seed):
        # budgets from each branch: below N (subsampled DFT), up to 64 N (one
        # FFT) and beyond (branch and bound), up to MAX_DFT_BITS
        edges = (0, (num_antennas - 1).bit_length(), (64 * num_antennas).bit_length(),
                 MAX_DFT_BITS + 1)
        total_bits = data.draw(st.integers(edges[branch], edges[branch + 1] - 1))
        rng = np.random.default_rng(seed)
        rows = [random_channel(rng, num_antennas, int(rng.integers(1, 6)))
                for _ in range(num_random)]
        single = np.zeros(num_antennas, dtype=complex)
        single[rng.integers(num_antennas)] = 0.3 - 1.2j
        # the special rows between random ones: the flat row's cut to _MAX_CELLS
        # must not change its neighbours
        for special in (np.zeros(num_antennas, dtype=complex), single,
                        self.flat_row(num_antennas)):
            rows.insert(int(rng.integers(len(rows) + 1)), special)
        stack = np.array(rows)
        geom = geometry(num_antennas)
        idx, hhat = dft_codebook_feedback(stack, total_bits, geom)
        assert idx.shape == (len(rows),) and hhat.shape == stack.shape
        for r, h in enumerate(rows):
            want_idx, want_hhat = dft_codebook_feedback(h, total_bits, geom)
            assert idx[r] == want_idx
            assert hhat[r].tobytes() == want_hhat.tobytes()
            # the norm as np.linalg.norm takes it for one vector, not by an axis sum
            if h.any():
                assert hhat[r].tobytes() == rebuilt_channel(h, int(idx[r]), total_bits).tobytes()
        # leading axes: a (2, rows / 2) stack gives the same rows
        if len(rows) % 2 == 0:
            idx2, hhat2 = dft_codebook_feedback(stack.reshape(2, -1, num_antennas), total_bits,
                                                geom)
            assert idx2.tobytes() == idx.reshape(2, -1).tobytes()
            assert hhat2.tobytes() == hhat.reshape(2, -1, num_antennas).tobytes()

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    @pytest.mark.parametrize("total_bits", [20, MAX_DFT_BITS])
    def test_flat_row_cut_leaves_its_neighbours(self, scale, total_bits):
        # the flat row keeps _MAX_CELLS cells at every level; its neighbours'
        # cells, with smaller or larger bounds, are not cut with them
        rng = np.random.default_rng(21)
        geom = geometry(64)
        rows = [scale * random_channel(rng, 64, 3) for _ in range(4)]
        rows.insert(2, self.flat_row(64))
        idx, hhat = dft_codebook_feedback(np.array(rows), total_bits, geom)
        for r, h in enumerate(rows):
            want_idx, want_hhat = dft_codebook_feedback(h, total_bits, geom)
            assert idx[r] == want_idx
            assert hhat[r].tobytes() == want_hhat.tobytes()

    def test_single_vector_gives_an_integer_index(self):
        h = random_channel(np.random.default_rng(3), 16, 2)
        for total_bits in (2, 8, 20):
            idx, hhat = dft_codebook_feedback(h, total_bits, geometry(16))
            assert np.ndim(idx) == 0 and isinstance(int(idx), int) and hhat.shape == (16,)

    def test_empty_stack(self):
        for total_bits in (2, 8, 20):
            idx, hhat = dft_codebook_feedback(np.zeros((0, 16), dtype=complex), total_bits,
                                              geometry(16))
            assert idx.shape == (0,) and hhat.shape == (0, 16)

    def test_paper_scale_stack_memory(self):
        # 16 users at N = 256, B = 21: the rows' coarse grids are searched a few at
        # a time, so the stack needs no more memory than one row did
        rng = np.random.default_rng(12)
        stack = np.array([random_channel(rng, 256, 3) for _ in range(16)])
        tracemalloc.start()
        try:
            idx, hhat = dft_codebook_feedback(stack, 21, geometry(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert idx.shape == (16,) and hhat.shape == (16, 256)
        assert peak < 8 * 2**20
