import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fddlink import precoding
from fddlink.channel import ArrayGeometry, PathSet
from fddlink.feedback import make_feedback_plan
from fddlink.precoding import (
    GpipConfig,
    GpipError,
    PrecodingProblem,
    ZfError,
    _denominator_solve,
    _projections,
    _ratios,
    gpip_solve,
    gpip_solve_batch,
    stationarity_residual,
    sum_se_lower_bound,
    true_sum_se,
    wmmse_precoder,
    zf_precoder,
)
from fddlink.reconstruction import reconstruct_mmse
from oracles import dense_wmmse_precoder


def cnormal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def make_problem(hhat, sigma2, power, error_dirs=None, error_weights=None):
    """PrecodingProblem from estimates (N x K) and, optionally, error directions
    (K x N x L) with weights (K x L): user k's factor is
    [hhat_k | error_dirs[k] * sqrt(error_weights[k])], and hhat_k alone without."""
    factors = np.asarray(hhat, dtype=complex)[:, :, None]
    if error_dirs is not None:
        scaled = np.asarray(error_dirs) * np.sqrt(error_weights)[:, None, :]
        factors = np.concatenate((factors, scaled.transpose(1, 0, 2)), axis=2)
    return PrecodingProblem(factors=factors, sigma2=sigma2, power=power)


def random_problem(rng, n=8, k=3, power=10.0, sigma2=0.5, with_cov=True, scale=1.0):
    hhat = scale * cnormal(rng, (n, k))
    if not with_cov:
        return make_problem(hhat=hhat, sigma2=np.full(k, sigma2), power=power)
    # Phi_k = 0.1 * W_k W_k^H with W_k of rank two
    dirs = np.stack([scale * cnormal(rng, (n, 2)) for _ in range(k)])
    return make_problem(hhat=hhat, sigma2=np.full(k, sigma2), power=power,
                        error_dirs=dirs, error_weights=np.full((k, 2), 0.1))


def random_precoder(rng, n, k):
    """Unit-norm N x K precoder, drawn user by user."""
    w = cnormal(rng, (k, n)).T
    return w / np.linalg.norm(w)


def problem_ratios(pp, w):
    """Per-user numerator and denominator quadratic forms at the N x K precoder w."""
    noise = pp.noise_over_power * float(np.vdot(w, w).real)
    return _ratios(_projections(pp.factors, w), noise)


# ---------------------------------------------------------------------------
# Dense oracle: every effective covariance as an N x N matrix, and the solver
# as it was written before the factored form (K dense N x N solves per step).


def dense_covs(pp):
    """K x N x N stack V_k V_k^H = hhat_k hhat_k^H + Phi_k of the users' factors."""
    v = pp.factors.transpose(1, 0, 2)
    return v @ v.conj().transpose(0, 2, 1)


def _cross_quadratic(covs, w):
    """Q[k, j] = f_j^H (hhat_k hhat_k^H + Phi_k) f_j, real by Hermitian symmetry."""
    inner = covs @ w
    return np.einsum("aj,kaj->kj", w.conj(), inner).real


def dense_ratios(covs, w, noise):
    q = _cross_quadratic(covs, w)
    q_num = q.sum(axis=1) + noise
    return q_num, q_num - np.diag(q)


def dense_lower_bound(w, pp):
    noise = pp.noise_over_power * float(np.vdot(w, w).real)
    q_num, q_den = dense_ratios(dense_covs(pp), w, noise)
    return float(np.sum(np.log2(q_num) - np.log2(q_den)))


def dense_scaled_problem(pp):
    covs = dense_covs(pp)
    scale = max(float(np.max(np.trace(covs, axis1=1, axis2=2).real)) / pp.num_antennas,
                float(np.max(pp.noise_over_power)))
    return covs / scale, pp.noise_over_power / scale


def dense_denominator_solve(covs, wb, c, rhs):
    """x_j = (c I + sum_{k != j} wb_k C_k)^{-1} rhs_j by K dense N x N solves."""
    agg = np.tensordot(wb, covs, axes=1) + c * np.eye(covs.shape[1])
    m = agg[None, :, :] - wb[:, None, None] * covs
    return np.linalg.solve(m, rhs.T[:, :, None])[:, :, 0].T


def one_denominator_solve(vf, wb, c, rhs):
    """_denominator_solve on one problem: a batch of one, its Gram matrix padded."""
    kr = vf.shape[1]
    pr = (1 << (wb.size - 1).bit_length()) * kr // wb.size
    gram = np.zeros((1, pr, pr), dtype=complex)
    gram[0, :kr, :kr] = vf.conj().T @ vf
    return _denominator_solve(vf.conj()[None], gram, wb[None], np.array([c]), rhs[None])[0]


def dense_default_init(pp, covs):
    n, k = pp.num_antennas, pp.num_users
    cols = pp.hhat.copy()
    norms = np.linalg.norm(cols, axis=0)
    floor = 1e-12 * max(norms.max(), 1e-300)
    for j in np.nonzero(norms <= floor)[0]:
        if np.abs(covs[j]).max() > 0:
            cols[:, j] = np.linalg.eigh(covs[j])[1][:, -1]
        else:
            cols[:, j] = np.ones(n) / math.sqrt(n)
    w = cols @ np.linalg.pinv(cols.conj().T @ cols)
    col_norms = np.linalg.norm(w, axis=0)
    bad = col_norms <= 1e-12 * max(col_norms.max(), 1e-300)
    if np.any(bad):
        w[:, bad] = cols[:, bad]
        col_norms = np.linalg.norm(w, axis=0)
    return w / col_norms / math.sqrt(k)


def dense_gpip(pp, cfg):
    """(log gamma, iterations, converged) of the power iteration on dense covariances."""
    covs, noise = dense_scaled_problem(pp)
    n = pp.num_antennas
    w = dense_default_init(pp, covs)
    w = w / np.linalg.norm(w)

    def logs(w):
        q_num, q_den = dense_ratios(covs, w, noise)
        return np.log(q_num), np.log(q_den)

    la, lb = logs(w)
    lg = best_lg = float(la.sum() - lb.sum())
    for it in range(1, cfg.max_iter + 1):
        wa = np.exp(la.sum() - la - (la.sum() - la).max())
        wb = np.exp(lb.sum() - lb - (lb.sum() - lb).max())
        agg_num = np.tensordot(wa, covs, axes=1) + float(wa @ noise) * np.eye(n)
        cols = dense_denominator_solve(covs, wb, float(wb @ noise), agg_num @ w)
        w = cols / np.linalg.norm(cols)
        la, lb = logs(w)
        lg_new = float(la.sum() - lb.sum())
        best_lg = max(best_lg, lg_new)
        if abs(math.expm1(lg_new - lg)) < cfg.epsilon:
            return best_lg, it, True
        lg = lg_new
    return best_lg, cfg.max_iter, False


def dense_residual(w, pp):
    covs, noise = dense_scaled_problem(pp)
    w = w / np.linalg.norm(w)
    q_num, q_den = dense_ratios(covs, w, noise)
    la, lb = np.log(q_num), np.log(q_den)
    log_wa = la.sum() - la
    ref = log_wa.max()
    wa = np.exp(log_wa - ref)
    wgb = np.exp(float(la.sum() - lb.sum()) + lb.sum() - lb - ref)
    num_img = np.tensordot(wa, covs, axes=1) @ w + float(wa @ noise) * w
    den_img = np.tensordot(wgb, covs, axes=1) @ w + float(wgb @ noise) * w
    den_img -= wgb * np.einsum("kab,bk->ak", covs, w)
    return float(np.linalg.norm(num_img - den_img) / np.linalg.norm(num_img))


@st.composite
def small_problems(draw, n=None, k=None, n_dirs=None):
    """N <= 16, K <= 9, L <= 3 unless given, with some zero error weights and zero estimates."""
    n = draw(st.integers(1, 16)) if n is None else n
    k = draw(st.integers(1, min(n, 9))) if k is None else k
    n_dirs = draw(st.integers(0, 3)) if n_dirs is None else n_dirs
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hhat = cnormal(rng, (n, k))
    hhat[:, rng.random(k) < 0.2] = 0.0
    weights = rng.uniform(0.0, 1.0, (k, n_dirs)) * (rng.random((k, n_dirs)) < 0.7)
    return make_problem(hhat=hhat, sigma2=10.0 ** rng.uniform(-2, 1, k),
                        power=10.0 ** rng.uniform(-1, 1),
                        error_dirs=cnormal(rng, (k, n, n_dirs)), error_weights=weights)


@st.composite
def problem_batches(draw):
    """1-6 problems.  Most share the factor shape of one (N, K): with error
    columns, most of them stop at a small iteration cap, and without, they
    converge in a step or two; the rest have shapes of their own."""
    n = draw(st.integers(1, 16))
    k = draw(st.integers(1, min(n, 9)))
    n_dirs = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(("with_cov", "plain", "own")), min_size=1, max_size=6))
    return [draw(small_problems()) if kind == "own"
            else draw(small_problems(n, k, n_dirs if kind == "with_cov" else 0))
            for kind in kinds]


def staggered_batch():
    """Problems of one factor shape that leave a batch at different steps.

    With GpipConfig(max_iter=8) the first, with no estimates and no error
    columns (as at B = 0), stops at iteration 1; the others stop at 8 (the
    cap), 2 and 5.  So the batch is compacted three times while problems
    that came later in the input still run.
    """
    rng = np.random.default_rng(0)
    n, k = 4, 3
    return [make_problem(hhat=np.zeros((n, k)), sigma2=np.full(k, 0.1), power=1.0)] + [
        make_problem(hhat=cnormal(rng, (n, k)), sigma2=np.full(k, 0.5), power=10.0)
        for _ in range(3)]


@st.composite
def hard_denominator_inputs(draw):
    """Denominator systems on which a shared inverse with per-user downdates fails.

    K <= 9 covers K = 1 and user counts that are not powers of two; c reaches
    down to 1e-6; some draws give two users one estimate column, and many have
    K(L+1) > N, so the users' subspaces overlap.
    """
    n = draw(st.integers(1, 16))
    k = draw(st.integers(1, 9))
    n_dirs = draw(st.integers(0, 3))
    shared = draw(st.booleans())
    c = 10.0 ** draw(st.floats(-6.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hhat = cnormal(rng, (n, k))
    if shared and k > 1:
        a, b = rng.choice(k, 2, replace=False)
        hhat[:, a] = hhat[:, b]
    pp = make_problem(hhat=hhat, sigma2=1.0, power=1.0,
                      error_dirs=cnormal(rng, (k, n, n_dirs)),
                      error_weights=rng.uniform(0.0, 1.0, (k, n_dirs)))
    wb = rng.uniform(0.0, 1.0, k) * (rng.random(k) < 0.8)
    return pp, wb, c, cnormal(rng, (n, k))


@st.composite
def mmse_shaped_problems(draw):
    """Factors of the MMSE shape A_k [g_k | diag(sqrt(w_k))], A_k the N x L
    steering matrix: rank L in L + 1 columns.  Path angles may nearly
    coincide, some users have no estimate (g = 0, as at B = 0) and some
    paths a zero error weight."""
    n = draw(st.integers(1, 16))
    k = draw(st.integers(1, min(n, 6)))
    n_paths = draw(st.integers(1, 3))
    spread = draw(st.sampled_from((1e-9, 1e-6, 1e-3, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thetas = rng.uniform(-1.2, 1.2, (k, 1)) + spread * rng.uniform(-1.0, 1.0, (k, n_paths))
    a = np.exp(-1j * math.pi * np.arange(n)[:, None] * np.sin(thetas)[:, None, :])
    g = cnormal(rng, (k, n_paths)) * (rng.random((k, 1)) < 0.7)
    w = rng.uniform(0.0, 1.0, (k, n_paths)) * (rng.random((k, n_paths)) < 0.7)
    coeff = np.concatenate((g[:, :, None], np.sqrt(w)[:, :, None] * np.eye(n_paths)), axis=2)
    return PrecodingProblem(factors=(a @ coeff).transpose(1, 0, 2),
                            sigma2=10.0 ** rng.uniform(-2, 1, k),
                            power=10.0 ** rng.uniform(-1, 1))


class TestFactoredMatchesDense:
    """The factored algebra against the dense N x N oracle on small problems."""

    @settings(deadline=None, max_examples=100)
    @given(pp=small_problems(), seed=st.integers(0, 2**32 - 1))
    def test_quadratic_forms_and_lower_bound(self, pp, seed):
        w = random_precoder(np.random.default_rng(seed), pp.num_antennas, pp.num_users)
        q_num, q_den = problem_ratios(pp, w)
        d_num, d_den = dense_ratios(dense_covs(pp), w, pp.noise_over_power)
        np.testing.assert_allclose(q_num, d_num, rtol=1e-10)
        np.testing.assert_allclose(q_den, d_den, rtol=1e-10)
        assert sum_se_lower_bound(w, pp) == pytest.approx(
            dense_lower_bound(w, pp), rel=1e-10, abs=1e-10)

    @settings(deadline=None, max_examples=100)
    @given(pp=small_problems(), seed=st.integers(0, 2**32 - 1))
    def test_denominator_solve(self, pp, seed):
        rng = np.random.default_rng(seed)
        k = pp.num_users
        vf = pp.factors.reshape(pp.num_antennas, -1)
        wb = rng.uniform(0.0, 1.0, k) * (rng.random(k) < 0.8)
        c = float(rng.uniform(0.05, 1.0))
        rhs = cnormal(rng, (pp.num_antennas, k))
        got = one_denominator_solve(vf, wb, c, rhs)
        want = dense_denominator_solve(dense_covs(pp), wb, c, rhs)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    @settings(deadline=None, max_examples=200)
    @given(case=hard_denominator_inputs())
    def test_denominator_solve_hard_inputs(self, case):
        pp, wb, c, rhs = case
        vf = pp.factors.reshape(pp.num_antennas, -1)
        got = one_denominator_solve(vf, wb, c, rhs)
        want = dense_denominator_solve(dense_covs(pp), wb, c, rhs)
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-7 * np.abs(want).max())
        if pp.num_users == 1:
            np.testing.assert_allclose(got, rhs / c, rtol=1e-15)

    @settings(deadline=None, max_examples=150)
    @given(pp=st.one_of(small_problems(), mmse_shaped_problems()),
           seed=st.integers(0, 2**32 - 1))
    def test_stationarity_residual(self, pp, seed):
        # the residual runs in the basis of [V | w]; the MMSE-shaped factors
        # have rank L in L + 1 columns, some zero estimates and near-equal angles
        w = random_precoder(np.random.default_rng(seed), pp.num_antennas, pp.num_users)
        assert stationarity_residual(w, pp) == pytest.approx(
            dense_residual(w, pp), rel=1e-8, abs=1e-10)

    @settings(deadline=None, max_examples=60)
    @given(pp=small_problems())
    def test_gpip_iterations_and_gamma(self, pp):
        cfg = GpipConfig(max_iter=30)
        res = gpip_solve(pp, cfg)
        d_log_gamma, d_iterations, d_converged = dense_gpip(pp, cfg)
        assert (res.iterations, res.converged) == (d_iterations, d_converged)
        assert res.log_gamma == pytest.approx(d_log_gamma, abs=1e-9)

    def test_paper_scale_memory(self):
        # one dense K x N x N covariance stack alone would take 16 MiB here
        rng = np.random.default_rng(3)
        n, k, n_paths = 256, 16, 3
        pp = make_problem(hhat=1e-6 * cnormal(rng, (n, k)), sigma2=np.full(k, 1e-13),
                          power=20.0, error_dirs=cnormal(rng, (k, n, n_paths)),
                          error_weights=rng.uniform(0.0, 1e-13, (k, n_paths)))
        tracemalloc.start()
        try:
            res = gpip_solve(pp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.iterations >= 1
        assert peak < 4 * 2**20


class TestRankReduction:
    """The solver runs on each problem's factors cut to their numerical rank."""

    @settings(deadline=None, max_examples=100)
    @given(pp=mmse_shaped_problems())
    def test_mmse_shaped_factors_match_the_dense_oracle(self, pp):
        cfg = GpipConfig(max_iter=30)
        res = gpip_solve(pp, cfg)
        d_log_gamma, d_iterations, d_converged = dense_gpip(pp, cfg)
        assert (res.iterations, res.converged) == (d_iterations, d_converged)
        assert res.log_gamma == pytest.approx(d_log_gamma, abs=1e-9)


class TestBatchedSolver:
    """gpip_solve_batch: problems of one factor shape run in lockstep."""

    @settings(deadline=None, max_examples=60)
    @given(problems=problem_batches())
    def test_each_problem_matches_the_dense_oracle(self, problems):
        cfg = GpipConfig(max_iter=8)
        results = gpip_solve_batch(problems, cfg)
        assert len(results) == len(problems)
        for pp, res in zip(problems, results):
            d_log_gamma, d_iterations, d_converged = dense_gpip(pp, cfg)
            assert (res.iterations, res.converged) == (d_iterations, d_converged)
            assert res.log_gamma == pytest.approx(d_log_gamma, abs=1e-9)
            # f is the precoder gamma was scored at, back in C^N
            assert sum_se_lower_bound(res.f, pp) == pytest.approx(
                res.log_gamma / math.log(2), rel=1e-9, abs=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(problems=problem_batches())
    @example(problems=staggered_batch())
    def test_each_result_is_bit_equal_to_a_solve_alone(self, problems):
        # not merely close: the harness solves the GPIP points of several
        # drops in one batch and relies on this to keep its output unchanged
        cfg = GpipConfig(max_iter=8)
        for pp, res in zip(problems, gpip_solve_batch(problems, cfg)):
            alone = gpip_solve(pp, cfg)
            np.testing.assert_array_equal(res.f, alone.f)
            assert res.log_gamma == alone.log_gamma
            assert (res.iterations, res.converged) == (alone.iterations, alone.converged)

    @staticmethod
    def zero_noise_problem(rng, zero_weight):
        # sigma2 / power underflows to 0, so the first step divides by a zero
        # noise term.  With a zero error weight for user 1 alone, user 0's
        # factor keeps rank 3, so user 1's rank-reduced factor keeps its
        # exactly zero third column: the capacitance matrix has a zero row
        # and its block solve fails
        weights = np.full((2, 2), 0.1)
        if zero_weight:
            weights[1, 1] = 0.0
        return make_problem(hhat=cnormal(rng, (6, 2)), sigma2=1e-300, power=1e300,
                            error_dirs=cnormal(rng, (2, 6, 2)), error_weights=weights)

    @pytest.mark.parametrize("zero_weight, reason", [
        (False, "non-finite or non-positive quadratic forms"),
        (True, "denominator block solve failed"),
    ])
    def test_failed_problem_is_named_and_nothing_returned(self, zero_weight, reason):
        rng = np.random.default_rng(21)
        good = [random_problem(rng, n=6, k=2) for _ in range(3)]
        # fails at set-up, so before any step, although it comes later in the input
        nan_hhat = random_problem(rng, n=6, k=2)
        nan_hhat.hhat[0, 0] = np.nan
        zero_noise = [self.zero_noise_problem(rng, zero_weight) for _ in range(2)]
        batch = [good[0], zero_noise[0], good[1], nan_hhat, good[2]]
        with pytest.raises(GpipError, match="^point 3: degenerate problem scale nan") as err:
            gpip_solve_batch(batch)
        assert err.value.point == 3
        del batch[3]
        with pytest.raises(GpipError, match=rf"^point 1: {reason}") as err:
            gpip_solve_batch(batch)
        assert err.value.point == 1
        assert err.value.reason.startswith(reason)
        # both fail at the first step: the lower position is named
        with pytest.raises(GpipError, match=rf"^point 2: {reason}"):
            gpip_solve_batch(good[:2] + zero_noise + good[2:])
        assert len(gpip_solve_batch(good)) == 3

    def test_block_solves_are_checked_before_the_forms(self):
        # both fail at the first step, the later one at its denominator solve
        rng = np.random.default_rng(21)
        batch = [self.zero_noise_problem(rng, False), random_problem(rng, n=6, k=2),
                 self.zero_noise_problem(rng, True)]
        with pytest.raises(GpipError, match="^point 2: denominator block solve failed"):
            gpip_solve_batch(batch)
        with pytest.raises(GpipError, match="^point 0: non-finite"):
            gpip_solve_batch(batch[:2])

    @pytest.mark.parametrize("zero_weight", [False, True])
    def test_batch_stops_at_first_failure(self, monkeypatch, zero_weight):
        # the good problems would take about a hundred steps to converge; the
        # zero-noise one fails at the first, and nothing steps after it
        rng = np.random.default_rng(21)
        batch = [random_problem(rng, n=6, k=2) for _ in range(3)]
        batch.insert(1, self.zero_noise_problem(rng, zero_weight))
        calls = []

        def spy(*args):
            calls.append(len(args[0]))
            return _denominator_solve(*args)

        monkeypatch.setattr(precoding, "_denominator_solve", spy)
        with pytest.raises(GpipError) as err:
            gpip_solve_batch(batch, GpipConfig(max_iter=200, epsilon=1e-15))
        assert err.value.point == 1
        # one batched call, then at most one call per problem to name the failure
        assert calls[0] == len(batch) and len(calls) <= 1 + len(batch)

    def test_each_result_owns_its_precoder(self):
        rng = np.random.default_rng(22)
        # three problems of one factor shape run in lockstep, one on its own
        problems = [random_problem(rng, n=6, k=2) for _ in range(3)]
        problems.append(random_problem(rng, n=5, k=3, with_cov=False))
        results = gpip_solve_batch(problems, GpipConfig(max_iter=5))
        for pp, res in zip(problems, results):
            assert res.f.shape == (pp.num_antennas, pp.num_users)
            assert res.f.base is None  # not a view into the batch's arrays
        for a, b in itertools.combinations(results, 2):
            assert not np.shares_memory(a.f, b.f)


class TestFactorSpan:
    """The solver runs in an orthonormal basis of [V | W0]; results do not depend on it."""

    @staticmethod
    def moved(pp, factors, transform):
        n, k, r = factors.shape
        return PrecodingProblem(factors=transform(factors.reshape(n, -1)).reshape(-1, k, r),
                                sigma2=pp.sigma2, power=pp.power)

    @settings(deadline=None, max_examples=60)
    @given(pp=small_problems(), seed=st.integers(0, 2**32 - 1), extra=st.integers(1, 4))
    def test_rotation_and_embedding_invariance(self, pp, seed, extra):
        rng = np.random.default_rng(seed)
        n, k = pp.num_antennas, pp.num_users
        # a user whose factor is all zero starts from the all-ones direction,
        # which neither a rotation nor an embedding carries along
        factors = pp.factors.copy()
        zero = ~np.any(factors != 0, axis=(0, 2))
        factors[:, zero, 0] = cnormal(rng, (n, int(zero.sum())))
        unitary = np.linalg.qr(cnormal(rng, (n, n)))[0]
        cfg = GpipConfig(max_iter=30)
        base_pp = self.moved(pp, factors, lambda a: a)
        base = gpip_solve(base_pp, cfg)
        base_residual = stationarity_residual(base.f, base_pp)
        for transform in (lambda a: unitary @ a,
                          lambda a: np.vstack((a, np.zeros((extra, a.shape[1]))))):
            moved = self.moved(pp, factors, transform)
            res = gpip_solve(moved, cfg)
            assert (res.iterations, res.converged) == (base.iterations, base.converged)
            assert res.log_gamma == pytest.approx(base.log_gamma, abs=1e-9)
            assert stationarity_residual(res.f, moved) == pytest.approx(base_residual, abs=1e-8)

    def test_basis_is_all_of_the_space(self):
        # N = 4 < K(L + 1) + K = 12
        rng = np.random.default_rng(27)
        cfg = GpipConfig(max_iter=30)
        for _ in range(5):
            pp = random_problem(rng, n=4, k=3)
            res = gpip_solve(pp, cfg)
            d_log_gamma, d_iterations, d_converged = dense_gpip(pp, cfg)
            assert (res.iterations, res.converged) == (d_iterations, d_converged)
            assert res.log_gamma == pytest.approx(d_log_gamma, abs=1e-9)
            assert res.f.shape == (4, 3)

    def test_plain_gpip_without_estimates_keeps_its_start(self):
        # hhat = 0 (plain GPIP at B = 0): the objective is constant, so the
        # result is the start, every column 1 / sqrt(N K); the start is not
        # in the span of the (zero) factors
        n, k = 12, 3
        pp = make_problem(hhat=np.zeros((n, k)), sigma2=np.full(k, 0.1), power=1.0)
        res = gpip_solve(pp)
        assert (res.iterations, res.converged) == (1, True)
        np.testing.assert_allclose(res.f, np.full((n, k), 1 / math.sqrt(n * k)), rtol=1e-12)


class TestBuildAB:
    """User k's numerator f^H A_k f and denominator f^H B_k f of the SE ratio."""

    def test_single_user_denominator_is_noise_identity(self):
        rng = np.random.default_rng(0)
        pp = random_problem(rng, n=4, k=1, power=5.0, sigma2=2.0)
        for _ in range(3):
            w = (rng.normal(size=4) + 1j * rng.normal(size=4))[:, None]
            _, q_den = problem_ratios(pp, w)
            norm2 = float(np.vdot(w, w).real)
            assert q_den[0] == pytest.approx((2.0 / 5.0) * norm2, rel=1e-12)

    def test_quadratic_gap_is_per_user_signal(self):
        rng = np.random.default_rng(1)
        pp = random_problem(rng, n=4, k=3)
        covs = dense_covs(pp)
        w = random_precoder(rng, 4, 3)
        q_num, q_den = problem_ratios(pp, w)
        for k in range(3):
            gap = q_num[k] - q_den[k]
            fk = w[:, k]
            expected = float(np.real(fk.conj() @ covs[k] @ fk))
            assert gap == pytest.approx(expected, rel=1e-10)
            assert gap >= -1e-12

    def test_hand_evaluated_ratio_two_by_two(self):
        # Phi = 0, hhat_1 = e1, uniform precoder: ratio = (1/2 + c) / (1/4 + c)
        hhat = np.zeros((2, 2), dtype=complex)
        hhat[0, 0] = 1.0
        hhat[1, 1] = 1.0
        pp = make_problem(hhat=hhat, sigma2=np.array([1.0, 1.0]), power=10.0)
        w = np.full((2, 2), 0.5, dtype=complex)
        q_num, q_den = problem_ratios(pp, w)
        c = 0.1
        assert q_num[0] == pytest.approx(0.5 + c, abs=1e-14)
        assert q_den[0] == pytest.approx(0.25 + c, abs=1e-14)
        # user 2 mirrors user 1, so the bound is twice log2 of that ratio
        assert sum_se_lower_bound(w, pp) == pytest.approx(
            2 * math.log2((0.5 + c) / (0.25 + c)), rel=1e-14)


class TestObjective:
    def test_log2_gamma_equals_lower_bound(self):
        # the solver's gamma is the product of the ratios at its precoder
        rng = np.random.default_rng(3)
        for max_iter in range(1, 11):
            pp = random_problem(rng, n=6, k=4)
            res = gpip_solve(pp, GpipConfig(max_iter=max_iter))
            assert res.log_gamma / math.log(2) == pytest.approx(
                sum_se_lower_bound(res.f, pp), abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        pp = random_problem(rng, n=5, k=2)
        w = random_precoder(rng, 5, 2)
        assert sum_se_lower_bound(3.7j * w, pp) == pytest.approx(
            sum_se_lower_bound(w, pp), rel=1e-10)

    def test_single_user_closed_form(self):
        # ||hhat||^2 = 4, P/sigma2 = 1, f aligned at half amplitude: log2(5)
        hhat = np.array([2.0, 0.0, 0.0, 0.0], dtype=complex)[:, None]
        pp = make_problem(hhat=hhat, sigma2=np.array([1.0]), power=1.0)
        assert sum_se_lower_bound(hhat / 2, pp) == pytest.approx(math.log2(5), abs=1e-12)

    def test_orthogonal_precoder_scores_zero(self):
        hhat = np.array([[1.0], [0.0]]).astype(complex)
        pp = make_problem(hhat=hhat, sigma2=np.array([1.0]), power=1.0)
        w = np.array([[0.0], [1.0]], dtype=complex)
        assert sum_se_lower_bound(w, pp) == pytest.approx(0.0, abs=1e-14)

    def test_vanishes_with_huge_noise(self):
        rng = np.random.default_rng(5)
        w = random_precoder(rng, 4, 2)
        lows = []
        for sigma2 in (1.0, 1e6, 1e12):
            pp = random_problem(np.random.default_rng(6), n=4, k=2, sigma2=sigma2)
            lows.append(sum_se_lower_bound(w, pp))
        assert lows[0] > lows[1] > lows[2]
        assert lows[-1] < 1e-9


class TestZeroForcing:
    def test_orthonormal_channels_give_matched_columns(self):
        hhat = np.eye(4, dtype=complex)[:, :2]
        w = zf_precoder(hhat)
        for k in range(2):
            corr = abs(np.vdot(w[:, k], hhat[:, k])) / np.linalg.norm(w[:, k])
            assert corr == pytest.approx(1.0, abs=1e-12)

    def test_single_user_matched_filter(self):
        rng = np.random.default_rng(7)
        h = (rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1)))
        w = zf_precoder(h)
        corr = abs(np.vdot(w[:, 0], h[:, 0])) / np.linalg.norm(h)
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_residual_interference_is_zero(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        w = zf_precoder(h)
        for i in range(3):
            for k in range(3):
                if i != k:
                    assert abs(np.vdot(h[:, i], w[:, k])) < 1e-12

    def test_equal_per_user_power_and_unit_norm(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        w = zf_precoder(h)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        powers = np.linalg.norm(w, axis=0) ** 2
        np.testing.assert_allclose(powers, 1 / 3, atol=1e-12)

    def test_rank_deficient_gram_uses_pseudo_inverse(self):
        # users 0 and 1 share one direction, as with a common DFT codeword;
        # the factor 2 makes the Gram matrix exactly singular, so inversion fails
        rng = np.random.default_rng(10)
        a = cnormal(rng, 6)
        h = np.column_stack([a, 2.0 * a, cnormal(rng, 6)])
        w = zf_precoder(h)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(np.linalg.norm(w, axis=0) ** 2, 1 / 3, atol=1e-12)
        # the minimum-norm solution of h^H W = I, one column per user
        mn = np.linalg.pinv(h.conj().T)
        np.testing.assert_allclose(w, mn / np.linalg.norm(mn, axis=0) / math.sqrt(3),
                                   atol=1e-10)

    def test_zero_column_rejected(self):
        h = np.eye(4, dtype=complex)[:, :2]
        h[:, 1] = 0.0
        with pytest.raises(ValueError, match="zero column"):
            zf_precoder(h)

    def test_overloaded_system_rejected(self):
        h = np.ones((2, 3), dtype=complex)
        with pytest.raises(ValueError):
            zf_precoder(h)


class TestStackedZfAndScores:
    """A stack of points (..., N, K) precodes and scores each point bit for bit as alone."""

    @staticmethod
    def points(rng, count=6, n=8, k=3):
        h = cnormal(rng, (count, n, k))
        # point 2: users 0 and 1 share one direction, as with a common DFT
        # codeword, so its Gram matrix is exactly singular and takes the
        # pseudo-inverse; every other point inverts its own
        h[2, :, 1] = 2.0 * h[2, :, 0]
        return h

    def test_stack_matches_each_point(self):
        h = self.points(np.random.default_rng(31))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(h[2].conj().T @ h[2])
        w = zf_precoder(h)
        assert w.shape == h.shape
        for hi, wi in zip(h, w):
            assert wi.tobytes() == zf_precoder(hi).tobytes()
        # any leading axes
        assert zf_precoder(h.reshape(2, 3, 8, 3)).tobytes() == w.tobytes()

    def test_regular_stack_matches_each_point(self):
        h = cnormal(np.random.default_rng(32), (5, 16, 4))
        w = zf_precoder(h)
        for hi, wi in zip(h, w):
            assert wi.tobytes() == zf_precoder(hi).tobytes()

    def test_zero_column_names_its_point(self):
        h = self.points(np.random.default_rng(33))
        h[4, :, 2] = 0.0
        h[5, :, 0] = 0.0
        with pytest.raises(ZfError, match=r"^point 4: channel matrix has a zero column") as info:
            zf_precoder(h)
        assert info.value.point == 4
        assert info.value.reason == "channel matrix has a zero column; ZF undefined"
        with pytest.raises(ZfError, match="^channel matrix has a zero column") as info:
            zf_precoder(h[4])
        assert info.value.point is None

    def test_scores_match_each_point(self):
        rng = np.random.default_rng(34)
        h_true, hhat = cnormal(rng, (8, 3)), cnormal(rng, (5, 8, 3))
        w = zf_precoder(hhat)
        powers = np.array([1.0, 10.0, 10.0, 200.0, 3.5])
        sigma2 = np.array([0.5, 0.7, 1.1])
        stack = PrecodingProblem(factors=hhat[..., None], sigma2=sigma2, power=powers)
        rates, bounds = true_sum_se(w, h_true, stack), sum_se_lower_bound(w, stack)
        assert rates.shape == bounds.shape == (5,)
        for i in range(5):
            pp = make_problem(hhat=hhat[i], sigma2=sigma2, power=powers[i])
            assert rates[i].tobytes() == true_sum_se(w[i], h_true, pp).tobytes()
            assert bounds[i].tobytes() == sum_se_lower_bound(w[i], pp).tobytes()

    def test_undefined_sinr_names_its_point_and_user(self):
        # orthogonal users meet no interference.  At points 2 and 4 user 1's
        # noise term is zero, after underflow for the true SE and at rounding
        # in the bound's interference-plus-noise form 1/3 + 1e-20 - 1/3
        h = np.broadcast_to(np.eye(3, dtype=complex), (5, 3, 3))
        w = h / math.sqrt(3)
        for score, sigma2, power in [
                (lambda w, pp: true_sum_se(w, np.eye(3), pp), 1e-30, [1, 1, 1e300, 1, 1e300]),
                (sum_se_lower_bound, 1e-20, [1e-30, 1e-30, 1, 1e-30, 1])]:
            sigma2, power = np.array([1.0, sigma2, 1.0]), np.array(power, dtype=float)
            with pytest.raises(ValueError, match=r"^point 2: user 1's SINR is undefined") as info:
                score(w, PrecodingProblem(factors=h[..., None], sigma2=sigma2, power=power))
            assert info.value.point == 2
            # without points 2 and 4 every score is finite
            keep = [0, 1, 3]
            assert np.all(np.isfinite(score(w[keep], PrecodingProblem(
                factors=h[keep][..., None], sigma2=sigma2, power=power[keep]))))

    def test_stacked_problem_validation(self):
        factors = np.ones((4, 2, 3, 1), dtype=complex)
        with pytest.raises(ValueError, match="powers of shape"):
            PrecodingProblem(factors=factors, sigma2=np.ones(3), power=np.ones(3))
        with pytest.raises(ValueError, match="finite"):
            PrecodingProblem(factors=factors, sigma2=np.ones(3), power=np.array([1, 2, np.inf, 4]))
        stack = PrecodingProblem(factors=factors, sigma2=np.ones(3), power=np.arange(1.0, 5.0))
        assert stack.noise_over_power.shape == (4, 3)
        # the solvers take one problem
        with pytest.raises(ValueError, match="one problem"):
            gpip_solve(stack)
        with pytest.raises(ValueError, match="one problem"):
            wmmse_precoder(np.ones((2, 3), dtype=complex), stack)


class TestGpip:
    def geom(self, n):
        return ArrayGeometry(num_antennas=n, spacing=0.015, lambda_ul=0.03, lambda_dl=0.025)

    def test_single_user_single_path_closed_form(self):
        # optimum is the principal eigenvector of the rank-one effective
        # covariance, i.e. the steering direction itself
        geom = self.geom(8)
        ps = PathSet(thetas=[0.4], betas=[2e-7], distances=[150.0],
                     phases_ul=[0.3], phases_dl=[4.0])
        factor = reconstruct_mmse(ps, make_feedback_plan(ps, [2], geom), geom)
        pp = PrecodingProblem(factors=factor[:, None], power=20.0, sigma2=5e-15)
        res = gpip_solve(pp)
        a = np.exp(-1j * (2 * math.pi / geom.lambda_dl) * np.arange(8)
                   * geom.spacing * math.sin(0.4)) / math.sqrt(8)
        assert abs(np.vdot(res.f[:, 0], a)) > 1 - 1e-6
        assert stationarity_residual(res.f, pp) < 1e-8

    def test_orthogonal_users_high_snr(self):
        hhat = np.eye(8, dtype=complex)[:, :2] * 3.0
        pp = make_problem(hhat=hhat, sigma2=np.array([1e-6, 1e-6]), power=1.0)
        res = gpip_solve(pp)
        for k in range(2):
            col = res.f[:, k]
            corr = abs(np.vdot(col, hhat[:, k])) / (np.linalg.norm(col) * 3.0)
            assert corr > 1 - 1e-6
        zf = zf_precoder(hhat)
        assert sum_se_lower_bound(res.f, pp) >= (
            sum_se_lower_bound(zf, pp) + math.log2(1 - 1e-12))

    def test_keep_best_never_loses_to_init(self):
        rng = np.random.default_rng(11)
        for scale in (1.0, 1e-7):
            for _ in range(10):
                pp = random_problem(rng, n=8, k=3, sigma2=0.3 * scale**2, scale=scale)
                init = zf_precoder(pp.hhat)
                res = gpip_solve(pp, GpipConfig(max_iter=20))
                assert res.log_gamma / math.log(2) >= (
                    sum_se_lower_bound(init, pp) + math.log2(1 - 1e-12))
                assert 1 <= res.iterations <= 20

    def test_converged_residual_small(self):
        rng = np.random.default_rng(12)
        pp = random_problem(rng, n=16, k=4)
        res = gpip_solve(pp, GpipConfig(epsilon=1e-10, max_iter=300))
        assert res.converged
        assert stationarity_residual(res.f, pp) < 1e-3

    def test_random_point_residual_is_large(self):
        rng = np.random.default_rng(13)
        pp = random_problem(rng, n=8, k=3)
        w = random_precoder(rng, 8, 3)
        assert stationarity_residual(w, pp) > 1e-2

    def test_gamma_and_iterations_reported(self):
        rng = np.random.default_rng(14)
        pp = random_problem(rng, n=6, k=2)
        res = gpip_solve(pp)
        # gamma is the objective at the returned (best) precoder; every
        # ratio is at least 1
        assert math.isfinite(res.log_gamma) and res.log_gamma >= 0
        assert res.log_gamma / math.log(2) == pytest.approx(
            sum_se_lower_bound(res.f, pp), rel=1e-12)
        assert 1 <= res.iterations <= GpipConfig().max_iter
        one_step = gpip_solve(pp, GpipConfig(max_iter=1))
        assert one_step.iterations == 1
        assert res.log_gamma >= one_step.log_gamma + math.log1p(-1e-12)

    def test_non_finite_input_raises(self):
        rng = np.random.default_rng(15)
        pp = random_problem(rng, n=4, k=2)
        bad = pp.factors.copy()
        bad[0, 0, 0] = np.nan
        bad_pp = PrecodingProblem(factors=bad, sigma2=pp.sigma2, power=pp.power)
        with pytest.raises(GpipError):
            gpip_solve(bad_pp)


class TestWmmse:
    def test_single_user_matched_filter_rate(self):
        rng = np.random.default_rng(16)
        h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        pp = make_problem(hhat=h, sigma2=np.array([2.0]), power=5.0)
        f = wmmse_precoder(h, pp)
        expected = math.log2(1 + np.linalg.norm(h) ** 2 * 5.0 / 2.0)
        assert true_sum_se(f, h, pp) == pytest.approx(expected, rel=1e-9)

    def test_rate_non_decreasing_in_iterations(self):
        rng = np.random.default_rng(17)
        h = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        pp = make_problem(hhat=h, sigma2=np.ones(3), power=10.0)
        rates = [true_sum_se(wmmse_precoder(h, pp, iters=i, tol=1e-15), h, pp)
                 for i in (1, 2, 4, 8, 16)]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_beats_zero_forcing_on_random_drops(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            h = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
            pp = make_problem(hhat=h, sigma2=np.ones(2), power=4.0)
            zf_rate = true_sum_se(zf_precoder(h), h, pp)
            wm_rate = true_sum_se(wmmse_precoder(h, pp), h, pp)
            assert wm_rate >= zf_rate - 1e-9

    @pytest.mark.parametrize("n, k, shared", [
        (6, 1, False), (4, 4, False), (3, 5, False), (6, 3, True), (2, 4, True)])
    def test_matches_the_dense_oracle(self, n, k, shared):
        # K = 1, K = N, K > N (matched-filter start) and two identical users
        rng = np.random.default_rng(24)
        for _ in range(10):
            h = 1e-5 * cnormal(rng, (n, k))
            if shared:
                h[:, 1] = h[:, 0]
            pp = make_problem(hhat=h, sigma2=10.0 ** rng.uniform(-11, -9, k),
                              power=10.0 ** rng.uniform(-1, 1))
            assert true_sum_se(wmmse_precoder(h, pp), h, pp) == pytest.approx(
                true_sum_se(dense_wmmse_precoder(h, pp), h, pp), rel=1e-12)

    def test_zero_user_channel_rejected(self):
        h = cnormal(np.random.default_rng(25), (6, 3))
        h[:, 1] = 0.0
        pp = make_problem(hhat=h, sigma2=np.ones(3), power=1.0)
        with pytest.raises(ValueError, match="column 1 is all zero"):
            wmmse_precoder(h, pp)

    def test_saturated_receiver_rejected(self):
        # orthogonal users and ZF: no interference, and user 1's noise is
        # below the rounding of its signal, so its MMSE is exactly zero
        h = np.eye(4, 2, dtype=complex)
        pp = make_problem(hhat=h, sigma2=np.array([1.0, 1e-300]), power=1.0)
        with pytest.raises(ValueError, match="user 1's MMSE receiver saturated"):
            wmmse_precoder(h, pp)

    def test_large_array_memory(self):
        # one N x N complex matrix alone would take 64 MiB here
        rng = np.random.default_rng(26)
        n, k = 2048, 4
        h = cnormal(rng, (n, k))
        pp = make_problem(hhat=h, sigma2=np.full(k, 10.0), power=1.0)
        tracemalloc.start()
        try:
            w = wmmse_precoder(h, pp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.shape == (n, k)
        assert peak < 2**20


class TestTrueSumSe:
    def test_matches_lower_bound_with_perfect_csi(self):
        rng = np.random.default_rng(19)
        h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        pp = make_problem(hhat=h, sigma2=np.array([1.5]), power=2.0)
        w = h / np.linalg.norm(h)
        assert true_sum_se(w, h, pp) == pytest.approx(sum_se_lower_bound(w, pp), rel=1e-12)

    def test_zero_interference_sinr(self):
        rng = np.random.default_rng(20)
        h = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        pp = make_problem(hhat=h, sigma2=np.full(3, 0.7), power=3.0)
        w = zf_precoder(h)
        expected = sum(
            math.log2(1 + abs(np.vdot(h[:, k], w[:, k])) ** 2 * 3.0 / 0.7)
            for k in range(3))
        assert true_sum_se(w, h, pp) == pytest.approx(expected, rel=1e-10)


class TestStackAndConfig:
    def test_normalize_zero_rejected(self):
        pp = random_problem(np.random.default_rng(23), n=2, k=2)
        with pytest.raises(ValueError, match="all-zero precoder"):
            stationarity_residual(np.zeros((2, 2), dtype=complex), pp)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GpipConfig(epsilon=0.0)
        with pytest.raises(ValueError, match="finite"):
            GpipConfig(epsilon=math.inf)
        with pytest.raises(ValueError):
            GpipConfig(max_iter=0)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", True])
    def test_non_integer_max_iter_rejected(self, max_iter):
        with pytest.raises(ValueError, match="integer"):
            GpipConfig(max_iter=max_iter)
        assert GpipConfig(max_iter=np.int64(3)).max_iter == 3

    @pytest.mark.parametrize("sigma2, power", [(np.nan, 1.0), (np.inf, 1.0),
                                               (1.0, np.inf), (1.0, np.nan)])
    def test_non_finite_noise_or_power_rejected(self, sigma2, power):
        with pytest.raises(ValueError, match="finite"):
            make_problem(hhat=np.ones((2, 2), dtype=complex),
                         sigma2=np.array([1.0, sigma2]), power=power)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            make_problem(hhat=np.ones((2, 1), dtype=complex),
                         sigma2=np.array([-1.0]), power=1.0)
        with pytest.raises(ValueError):
            make_problem(hhat=np.ones((2, 1), dtype=complex),
                         sigma2=np.array([1.0, 1.0]), power=1.0)
        with pytest.raises(ValueError, match="N x K x R"):
            PrecodingProblem(factors=np.ones((2, 1)), sigma2=np.array([1.0]), power=1.0)
        with pytest.raises(ValueError, match="R >= 1"):
            PrecodingProblem(factors=np.ones((2, 1, 0)), sigma2=np.array([1.0]), power=1.0)
