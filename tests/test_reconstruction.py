import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddlink.allocation import (
    MAX_BITS,
    AllocationProblem,
    allocate_bits,
    allocate_greedy,
    allocate_uniform,
    eta,
    theoretical_weighted_mse,
)
from fddlink.channel import (
    ArrayGeometry,
    PathSet,
    dl_channel,
    perturb_estimates,
    steering_matrix,
)
from fddlink.feedback import make_feedback_plan, quantize_phases
from fddlink.reconstruction import (
    asymptotic_delta_norm,
    outer_error_norm,
    reconstruct_mmse,
    reconstruct_no_feedback,
)
from oracles import error_covariance, outer_product_error

GEOM = ArrayGeometry(num_antennas=4, spacing=0.015, lambda_ul=0.03, lambda_dl=0.025)


def asymptotic_delta_norm_by_pairs(betas, bits, deltas) -> float:
    """Oracle: the closed form as a scalar double loop over ordered path pairs.

    Squares are float64 scalar powers and the sum runs left to right from
    0.0, l before l'.
    """
    betas = np.asarray(betas, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    etas = eta(np.asarray(bits))
    total = 0.0
    L = betas.shape[0]
    for i in range(L):
        for j in range(L):
            if i == j:
                continue
            ee = etas[i] * etas[j]
            bb2 = (betas[i] * betas[j]) ** 2
            total += bb2 * (1.0 + ee**2 - 2.0 * abs(ee) * np.cos(deltas[i] - deltas[j]))
    return float(total)


def same_bits(got, want) -> bool:
    """Float64 values equal bit for bit (signed zeros told apart)."""
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def assert_same(got, want):
    """Arrays equal in shape, dtype and every bit."""
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# weights with exact ties, zeros and subnormal products
WEIGHTS = st.lists(st.sampled_from([0.0, 1e-300, 0.25, 0.5, 1.0, 4.0]) | st.floats(0.0, 10.0),
                   min_size=1, max_size=8)


def budget_grid(data, n_paths):
    """An unsorted budget grid holding 0, n_paths * MAX_BITS and up to six more budgets."""
    extra = data.draw(st.lists(st.integers(0, n_paths * MAX_BITS), max_size=6))
    return tuple(data.draw(st.permutations([0, n_paths * MAX_BITS, *extra])))


def dense_phi(factor):
    """The N x N error covariance E E^H from the error columns of the factor [hhat | E]."""
    e = factor[:, 1:]
    return e @ e.conj().T


def mmse_phi(ps, bits, geom):
    """Phi of the MMSE reconstruction of ``ps`` at ``bits``."""
    return dense_phi(reconstruct_mmse(ps, make_feedback_plan(ps, bits, geom), geom))


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
        assert np.linalg.norm(h - rc[:, 0]) / np.linalg.norm(h) < 1e-6

    def test_zero_bits_collapse_to_prior_mean(self):
        ps = one_path(0.2, 1.5, 80.0, 0.0, 2.6)
        rc = reconstruct_mmse(ps, make_feedback_plan(ps, [0], GEOM), GEOM)
        assert np.linalg.norm(rc[:, 0]) == 0.0
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
        np.testing.assert_allclose(rc[:, 0], expected, atol=1e-14)


class TestReconstructNoFeedback:
    def test_single_path(self):
        ps = one_path(0.2, 0.7, 90.0, 0.0, 2.6)
        rc = reconstruct_no_feedback(ps, GEOM)
        a = steering_matrix(ps.thetas, GEOM.lambda_dl, GEOM)[:, 0]
        np.testing.assert_allclose(rc[:, 0], 0.7 * a, atol=1e-14)

    def test_ignores_dl_phase(self):
        h1 = reconstruct_no_feedback(one_path(0.2, 0.7, 90.0, 0.0, 2.6), GEOM)[:, 0]
        h2 = reconstruct_no_feedback(one_path(0.2, 0.7, 90.0, 0.0, 0.4), GEOM)[:, 0]
        assert np.linalg.norm(h1) == pytest.approx(np.linalg.norm(h2))

    def test_cov_modes(self):
        ps = two_path_set()
        full = reconstruct_no_feedback(ps, GEOM)
        np.testing.assert_allclose(dense_phi(full),
                                   error_covariance(ps, [0, 0], GEOM), atol=1e-12)


class TestErrorCovariance:
    """Phi = E E^H from the error columns of reconstruct_mmse's factor."""

    def test_matches_the_explicit_covariance(self):
        # A diag(beta**2 (1 - eta**2)) A^H, built as the N x N product
        for n, bits in ((4, [0, 0]), (4, [1, 2]), (8, [3, 0]), (16, [2, 5])):
            ps = two_path_set(betas=(1.0, 0.4))
            geom = geom_n(n)
            np.testing.assert_allclose(mmse_phi(ps, bits, geom),
                                       error_covariance(ps, bits, geom), rtol=0, atol=1e-14)

    def test_vanishes_with_many_bits(self):
        ps = two_path_set()
        phi = mmse_phi(ps, [30, 30], GEOM)
        assert np.linalg.norm(phi) < 1e-10

    def test_single_path_rank_one(self):
        ps = one_path(0.3, 1.0, 100.0, 0.1, 0.2)
        phi = mmse_phi(ps, [1], GEOM)
        assert np.linalg.matrix_rank(phi, tol=1e-10) == 1

    def test_hermitian_psd(self):
        ps = two_path_set(betas=(1.0, 0.4))
        phi = mmse_phi(ps, [1, 2], GEOM)
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
        phi = dense_phi(reconstruct_mmse(ps, fp, geom))
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
        a = steering_matrix(ps.thetas, geom.lambda_dl, geom)
        fast = outer_error_norm(h, rc[:, 0], a, ps.betas, eta(np.array(bits)))
        assert fast == pytest.approx(dense, rel=1e-10)

    def test_gram_norm_rejects_bits_of_other_length(self):
        geom = geom_n(8)
        ps = PathSet(thetas=(0.3, -0.7, 0.1), betas=(1.0, 0.5, 0.2), distances=(1.0, 2.0, 3.0),
                     phases_ul=(0.0, 0.0, 0.0), phases_dl=(0.1, 0.2, 0.3))
        h = dl_channel(ps, geom)
        a = steering_matrix(ps.thetas, geom.lambda_dl, geom)
        for bits in ([2], [1, 1, 1, 1], [[2, 2]]):
            with pytest.raises(ValueError, match="3 paths"):
                outer_error_norm(h, h, a, ps.betas, eta(np.array(bits)))
        with pytest.raises(ValueError, match="8 antennas"):
            outer_error_norm(h[:4], h, a, ps.betas, eta(np.array([1, 1, 1])))

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
        assert asymptotic_delta_norm([1.0], eta([3]), [0.1]) == 0.0

    def test_perfect_feedback_cancels(self):
        assert asymptotic_delta_norm([1.0, 2.0], eta([40, 40]), [0.0, 0.0]) == pytest.approx(
            0.0, abs=1e-10)

    def test_two_path_equal_delta_value(self):
        e1 = eta(1)
        expected = 2 * (1 - e1**2) ** 2
        assert asymptotic_delta_norm([1, 1], eta([1, 1]), [0.0, 0.0]) == pytest.approx(
            expected, abs=1e-12)

    def test_finite_n_cross_check(self):
        # frozen deltas; the dense normalized norm approaches the closed form
        deltas = np.array([0.9, -0.4])
        qs = np.array([math.pi / 2, math.pi])
        bits = np.array([1, 1])
        thetas = np.array([0.3, -0.7])
        expected = asymptotic_delta_norm([1, 1], eta(bits), deltas)
        geom = geom_n(2048)
        a = steering_matrix(thetas, geom.lambda_dl, geom)
        h = a @ np.exp(1j * (qs + deltas))
        hhat = a @ (eta(bits) * np.exp(1j * qs))
        val = outer_error_norm(h, hhat, a, np.ones(2), eta(bits))
        assert val == pytest.approx(expected, rel=0.01)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_delta_norm([1.0, 1.0], eta([1]), [0.0, 0.0])
        with pytest.raises(ValueError):
            asymptotic_delta_norm([1.0, 1.0], eta([[1, 1], [2, 2]]), [0.0, 0.0])
        with pytest.raises(ValueError):
            asymptotic_delta_norm([1.0], eta([1, 1]), [0.0, 0.0])

    BETA = st.sampled_from([0.0, 1e-5, 1.0]) | st.floats(0.0, 1e-3)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), betas=st.lists(BETA, min_size=1, max_size=8))
    def test_grid_matches_pair_loop_bitwise(self, data, betas):
        # a stack of path sets, the drawn one first, each with a grid of rows
        L = len(betas)
        sets = [betas, *data.draw(st.lists(st.lists(self.BETA, min_size=L, max_size=L),
                                           max_size=2))]
        rows = data.draw(st.integers(1, 5))

        def grids(values):
            return st.lists(st.lists(st.lists(values, min_size=L, max_size=L),
                                     min_size=rows, max_size=rows),
                            min_size=len(sets), max_size=len(sets))

        bits = np.array(data.draw(grids(st.integers(0, MAX_BITS))))
        deltas = np.array(data.draw(grids(st.floats(-math.pi, math.pi))))
        got = asymptotic_delta_norm(np.array(sets)[:, None, :], eta(bits), deltas)
        assert got.shape == (len(sets), rows)
        for s, set_betas in enumerate(sets):
            np.testing.assert_array_equal(
                asymptotic_delta_norm(set_betas, eta(bits[s]), deltas[s]), got[s])
            for g in range(rows):
                want = asymptotic_delta_norm_by_pairs(set_betas, bits[s, g], deltas[s, g])
                assert same_bits(got[s, g], want)
                assert same_bits(asymptotic_delta_norm(set_betas, eta(bits[s, g]), deltas[s, g]),
                                 want)

    def test_squares_round_as_scalar_powers(self):
        # the csi_sweep workload at seed 202, trial 18, L = 3, budgets 0 and 9:
        # the square of beta_0 beta_1 by x*x differs from the scalar power in
        # the last bit, which changes the last digit of both values
        betas = [1.1167124529750857e-05, 9.343086705370677e-06, 7.8169871708256e-06]
        bits = [[0, 0, 0], [3, 3, 3]]
        deltas = [[-0.06788972010152605, 0.5263325700671402, 2.9105685824766567],
                  [-0.06788972010152605, -0.2590655933303081, -0.2310240711131364]]
        bb = np.float64(betas[0]) * np.float64(betas[1])
        assert bb * bb != bb**2
        want = [asymptotic_delta_norm_by_pairs(betas, b, d) for b, d in zip(bits, deltas)]
        assert want == [4.7680147172019235e-20, 1.266538894672497e-21]
        assert same_bits(asymptotic_delta_norm(betas, eta(np.array(bits)), deltas), want)
        # a stack of two-path sets with amplitudes (v, 1) and eta = 0 gives
        # twice the square of v, for many v whose x*x and pow differ
        v = np.random.default_rng(5).uniform(0.0, 1.0, 100_000)
        assert np.count_nonzero(v * v != [math.pow(x, 2.0) for x in v]) > 10
        betas = np.column_stack((v, np.ones_like(v)))
        got = asymptotic_delta_norm(betas, np.zeros_like(betas), np.zeros_like(betas))
        assert same_bits(got, [2.0 * math.pow(x, 2.0) for x in v])


class TestBudgetGrid:
    """One build over a stack of path sets and a budget grid equals the builds
    of each path set at each budget, byte for byte."""

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), weights=WEIGHTS, seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([1, 8, 64]))
    def test_rows_equal_single_budget_builds(self, data, weights, seed, n):
        # three mixed path sets: the drawn weights, random ones and the drawn
        # ones permuted
        L = len(weights)
        rng = np.random.default_rng(seed)
        sets = [PathSet(thetas=rng.uniform(-math.pi / 2, math.pi / 2, L),
                        betas=np.sqrt(w), distances=rng.uniform(50.0, 300.0, L),
                        phases_ul=rng.uniform(0, 2 * math.pi, L),
                        phases_dl=rng.uniform(0, 2 * math.pi, L))
                for w in (weights, rng.uniform(0.0, 4.0, L), rng.permutation(weights))]
        stack = PathSet.stack(sets)
        geom = geom_n(n)
        h = dl_channel(stack, geom)
        a = steering_matrix(stack.thetas, geom.lambda_dl, geom)
        grid = budget_grid(data, L)
        for strategy, allocate in (("greedy", allocate_greedy), ("uniform", allocate_uniform),
                                   ("none", None)):
            bits = allocate_bits(strategy, stack.betas**2, grid)
            fp = make_feedback_plan(stack, bits, geom)
            rcs = reconstruct_mmse(stack, fp, geom)
            etas = eta(bits)
            betas = stack.betas[:, None]
            emp = outer_error_norm(h[:, None], rcs[..., 0], a[:, None], betas, etas)
            asym = asymptotic_delta_norm(betas, etas, fp.deltas)
            assert rcs.shape == (3, len(grid), n, L + 1)
            assert emp.shape == asym.shape == (3, len(grid))
            for s, ps in enumerate(sets):
                assert_same(h[s], dl_channel(ps, geom))
                assert_same(a[s], steering_matrix(ps.thetas, geom.lambda_dl, geom))
                assert_same(bits[s], allocate_bits(strategy, ps.betas**2, grid))
                if allocate is not None:
                    problem = AllocationProblem(tuple(ps.betas**2), grid)
                    np.testing.assert_array_equal(bits[s], allocate(problem).bits)
                plan = make_feedback_plan(ps, bits[s], geom)
                for field in ("bits", "q_values", "deltas"):
                    assert_same(getattr(fp, field)[s], getattr(plan, field))
                assert_same(rcs[s], reconstruct_mmse(ps, plan, geom))
                for g, row in enumerate(bits[s]):
                    one = make_feedback_plan(ps, row, geom)
                    for field in ("bits", "q_values", "deltas"):
                        assert_same(getattr(fp, field)[s, g], getattr(one, field))
                    rc = reconstruct_mmse(ps, one, geom)
                    assert_same(rcs[s, g], rc)
                    assert same_bits(emp[s, g],
                                     outer_error_norm(h[s], rc[:, 0], a[s], ps.betas, eta(row)))
                    assert same_bits(asym[s, g],
                                     asymptotic_delta_norm(ps.betas, eta(row), one.deltas))
