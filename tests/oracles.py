"""Oracles that the tests check the package against.

The package works on reconstruction factors and on the NMMSE curve at
integer bits.  These are the textbook forms it never builds: the
piecewise-linear relaxation, the weighted NMMSE objective, the dense
N x N error covariance and outer-product error, and one user's path draw
as five scalar-valued uniform calls, and one user's draw from one row of
uniforms, which draw_scene stacks for its users.  The DFT codebook as a
matrix, WMMSE on dense N x N matrices, and one whole `sim se` drop
recomputed user by user on dense covariances (dense_se_drop), with each
GPIP point's objective maximised by L-BFGS, check the assembled pipeline.
"""

import math

import numpy as np
from scipy.optimize import minimize

from fddlink.allocation import MAX_BITS, allocate_bits, eta, nmmse
from fddlink.channel import (
    TWO_PI,
    PathSet,
    dl_channel,
    paths_from_uniforms,
    perturb_estimates,
    power_decay_profile,
    steering_matrix,
    uniforms_per_user,
)
from fddlink.config import SE_METHODS
from fddlink.feedback import make_feedback_plan
from fddlink.precoding import PrecodingProblem, zf_precoder


def nmmse_pl(x):
    """Piecewise-linear interpolant of nmmse between adjacent integers."""
    x = float(x)
    if not np.isfinite(x) or x < 0:
        raise ValueError(f"x must be a nonnegative real, got {x}")
    if x > MAX_BITS:
        raise ValueError(f"x must not exceed {MAX_BITS}")
    lo = math.floor(x)
    frac = x - lo
    if frac == 0.0:
        return nmmse(lo)
    return (1.0 - frac) * nmmse(lo) + frac * nmmse(lo + 1)


def weighted_nmmse(weights, bits) -> float:
    """Objective sum_l weights[l] * nmmse(bits[l])."""
    w = np.asarray(weights, dtype=float)
    return float(w @ nmmse(np.asarray(bits, dtype=np.int64)))


def error_covariance(ps, bits, geom) -> np.ndarray:
    """The N x N error covariance A diag(beta**2 * (1 - eta(B)**2)) A^H."""
    a = steering_matrix(ps.thetas, geom.lambda_dl, geom)
    return a @ np.diag(ps.betas**2 * (1.0 - eta(np.asarray(bits)) ** 2)) @ a.conj().T


def outer_product_error(h_true, factor) -> tuple[np.ndarray, float]:
    """Error matrix Delta = h h^H - F F^H and ||Delta||_F^2 / N^2 for the N x R factor F."""
    h = np.asarray(h_true)
    delta = np.outer(h, h.conj()) - factor @ factor.conj().T
    return delta, float(np.sum(np.abs(delta) ** 2)) / h.shape[0] ** 2


def draw_user_paths(cfg, rng) -> PathSet:
    """Draw one user's cfg.n_paths paths from one row of rng's uniforms
    (paths_from_uniforms)."""
    return paths_from_uniforms(rng.random(uniforms_per_user(cfg.n_paths)), cfg)


def draw_user_paths_by_calls(cfg, rng) -> PathSet:
    """One user's cfg.n_paths paths, one Generator.uniform call per quantity.

    The distance uniform comes first, then L uniforms each for the AoAs, the
    excess distances, the UL and the DL phases; the path loss is a Python
    float power.
    """
    L = cfg.n_paths
    r_user = cfg.isd / 2.0 * math.sqrt(rng.uniform())
    r_user = max(r_user, cfg.pl_ref_distance)
    pl = cfg.pl_ref_gain * (r_user / cfg.pl_ref_distance) ** (-cfg.pl_exponent)
    betas = np.sqrt(pl * power_decay_profile(L, cfg.decay_ratio))
    thetas = rng.uniform(-math.pi / 2, math.pi / 2, size=L)
    dists = r_user + rng.uniform(0.0, cfg.excess_range, size=L)
    phis_ul = rng.uniform(0.0, TWO_PI, size=L)
    phis_dl = rng.uniform(0.0, TWO_PI, size=L)
    return PathSet(thetas=thetas, betas=betas, distances=dists,
                   phases_ul=phis_ul, phases_dl=phis_dl)


def dft_codebook(num_antennas: int, total_bits: int) -> np.ndarray:
    """N x 2**total_bits matrix of unit-norm DFT-style codewords (brute-force oracle).

    With 2**total_bits >= N the grid is the oversampled DFT (oversampling
    factor 2**total_bits / N); otherwise the N-point DFT columns are
    uniformly subsampled.
    """
    size = 2**total_bits
    n = np.arange(num_antennas)[:, None]
    if size >= num_antennas:
        freqs = np.arange(size) / size
    else:
        freqs = np.floor(np.arange(size) * num_antennas / size) / num_antennas
    return np.exp(-1j * TWO_PI * n * freqs[None, :]) / math.sqrt(num_antennas)


def dense_wmmse_precoder(h, pp, iters=100, tol=1e-4):
    """WMMSE on dense matrices: one N x N eigh of lam = H D H^H per iteration."""
    n, k = h.shape
    scale = float(np.max(np.linalg.norm(h, axis=0)))
    hs = h / scale
    sigma2 = pp.sigma2 / scale**2
    p = pp.power
    try:
        w = zf_precoder(hs) * math.sqrt(p)
    except ValueError:
        w = hs / np.linalg.norm(hs, axis=0) * math.sqrt(p / k)

    def sum_rate(wmat):
        cross = np.abs(hs.conj().T @ wmat) ** 2
        sig = np.diag(cross)
        return float(np.sum(np.log2(1.0 + sig / (cross.sum(axis=1) - sig + sigma2))))

    rate = sum_rate(w)
    best_rate, best_w = rate, w
    for _ in range(iters):
        c = hs.conj().T @ w
        totals = np.sum(np.abs(c) ** 2, axis=1) + sigma2
        u = np.diag(c) / totals
        v = 1.0 / (1.0 - np.abs(np.diag(c)) ** 2 / totals)
        eigval, eigvec = np.linalg.eigh((hs * (v * np.abs(u) ** 2)) @ hs.conj().T)
        eigval = np.maximum(eigval, 0.0)
        g = eigvec.conj().T @ hs
        coeff = v * u
        weight = np.abs(coeff) ** 2

        def total_power(mu):
            return float(weight @ (np.abs(g.T) ** 2 @ (1.0 / (eigval + mu) ** 2)))

        hi = max(float(np.sqrt(weight @ np.sum(np.abs(g) ** 2, axis=0) / p)), 1e-12)
        lo = 0.0
        while total_power(hi) > p:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if total_power(mid) > p:
                lo = mid
            else:
                hi = mid
        w = eigvec @ ((g * coeff) / (eigval[:, None] + hi))
        new_rate = sum_rate(w)
        if new_rate > best_rate:
            best_rate, best_w = new_rate, w
        if new_rate - rate <= tol * max(abs(rate), 1e-12):
            break
        rate = new_rate
    return best_w / np.linalg.norm(best_w)


def dense_scores(w, h_true, covs, noise_over_power) -> tuple[float, float]:
    """(true sum SE, sum SE lower bound) of the N x K precoder w, user by user.

    User k's rate on its true channel h_true[:, k] counts the other users'
    streams and the noise as interference; its bound's ratio is
    (sum_j f_j^H C_k f_j + noise) / (sum_{j != k} f_j^H C_k f_j + noise) on
    its N x N covariance covs[k], with noise sigma2 / P * ||W||_F^2.
    """
    k = w.shape[1]
    noise = noise_over_power * np.sum(np.abs(w) ** 2)
    true, bound = 0.0, 0.0
    for u in range(k):
        cross = [abs(np.vdot(h_true[:, u], w[:, j])) ** 2 for j in range(k)]
        true += math.log2(1.0 + cross[u] / (sum(cross) - cross[u] + noise))
        forms = [np.vdot(w[:, j], covs[u] @ w[:, j]).real for j in range(k)]
        others = sum(forms) - forms[u] + noise
        bound += math.log2((others + forms[u]) / others)
    return true, bound


def dense_bound_maximum(covs, noise_over_power, starts) -> np.ndarray:
    """The N x K precoder of largest sum SE lower bound found by L-BFGS from
    each start, on the covariances scaled to unit largest trace / N (the
    bound does not change under one common scale of covariances and noise)."""
    c = np.stack(covs)
    n, k = starts[0].shape
    scale = max(np.trace(ck).real for ck in covs) / n or noise_over_power
    c, noise = c / scale, noise_over_power / scale

    def negative(x):
        w = (x[:n * k] + 1j * x[n * k:]).reshape(n, k)
        cw = c @ w  # cw[u, :, j] = C_u f_j
        forms = np.einsum("nj,unj->uj", w.conj(), cw).real
        total = forms.sum(axis=1) + noise * np.sum(np.abs(w) ** 2)
        den = total - np.diagonal(forms)
        # gradient in conj(f_j): sum_u (C_u + noise) f_j (1/total_u - 1/den_u) + C_j f_j / den_j
        d = 1.0 / total - 1.0 / den
        g = np.einsum("unj,u->nj", cw, d) + noise * np.sum(d) * w + np.einsum("jnj->nj", cw) / den
        value = np.sum(np.log(total) - np.log(den)) / math.log(2)
        return -value, -2.0 / math.log(2) * np.concatenate([g.real.ravel(), g.imag.ravel()])

    best = None
    for start in starts:
        start = start / np.linalg.norm(start)
        res = minimize(negative, np.concatenate([start.real.ravel(), start.imag.ravel()]),
                       jac=True, method="L-BFGS-B",
                       options=dict(maxiter=5000, ftol=1e-15, gtol=1e-12))
        if best is None or res.fun < best.fun:
            best = res
    return (best.x[:n * k] + 1j * best.x[n * k:]).reshape(n, k)


def dense_zf(hhat) -> np.ndarray:
    """Zero-forcing directions pinv(H)^H with unit-norm columns, each at power 1/K."""
    w = np.linalg.pinv(hhat).conj().T
    return w / np.linalg.norm(w, axis=0) / math.sqrt(w.shape[1])


def dense_se_drop(cfg, rng, starts: int = 6) -> dict:
    """One `sim se` drop at cfg.n_antennas, cfg.n_paths and the first power,
    recomputed user by user on dense N x N covariances.

    Draws the users' paths with scalar uniform calls, then their estimates.
    Each user's budget b gives bits over the estimated powers, feedback of
    the true DL phases, hhat = A_est (eta * beta_est * e^(jq)) and
    Phi = error_covariance; no feedback gives hhat = A_est beta_est and the
    whole path powers as Phi; the DFT estimate is ||h|| times the best
    codeword of the brute-force codebook.  ZF is pinv(H)^H on the estimates,
    a user without any feedback taking its no-feedback estimate, and WMMSE
    runs on the true channel (dense_wmmse_precoder); both are scored on the
    estimates' rank-one covariances.  A GPIP point's bound is maximised over
    precoders from ZF, matched-filter and random starts
    (dense_bound_maximum).  Returns {(method, b_tot): (true SE, bound)} for
    every method and budget of the config.
    """
    geom, k, paths = cfg.geometry(), cfg.n_users, cfg.n_paths
    noise = cfg.noise_watts / cfg.power_watts(cfg.power_dbm_grid[0])
    users = [draw_user_paths_by_calls(cfg, rng) for _ in range(k)]
    ests = users
    if cfg.aoa_sigma or cfg.gain_rel_sigma:
        ests = [perturb_estimates(ps, cfg.aoa_sigma, cfg.gain_rel_sigma, rng) for ps in users]
    h = np.column_stack([dl_channel(ps, geom) for ps in users])
    a = [steering_matrix(est.thetas, geom.lambda_dl, geom) for est in ests]

    def outer(v):
        return np.outer(v, v.conj())

    # per source: the N x K estimates and, with error models, the covariances
    nofb = np.column_stack([a_u @ est.betas for a_u, est in zip(a, ests)])
    sources = {"perfect": (h, None),
               "no_feedback": (nofb, [outer(nofb[:, u]) + error_covariance(est, np.zeros(paths), geom)
                                      for u, est in enumerate(ests)])}
    by_budget = {}
    for b in cfg.b_tot_grid:
        hhat, covs = np.empty((geom.num_antennas, k), dtype=complex), []
        for u, (ps, est) in enumerate(zip(users, ests)):
            bits = allocate_bits(cfg.allocator, est.betas**2, [b])[0]
            q = make_feedback_plan(ps, bits, geom).q_values
            hhat[:, u] = a[u] @ (eta(bits) * est.betas * np.exp(1j * q))
            covs.append(outer(hhat[:, u]) + error_covariance(est, bits, geom))
        codebook = dft_codebook(geom.num_antennas, b)
        best = np.argmax(np.abs(codebook.conj().T @ h), axis=0)
        by_budget[b] = {**sources, "mmse": (hhat, covs),
                        "dft": (codebook[:, best] * np.linalg.norm(h, axis=0), None)}

    pp = PrecodingProblem(factors=h[:, :, None], sigma2=np.full(k, cfg.noise_watts),
                          power=cfg.power_watts(cfg.power_dbm_grid[0]))
    draws = np.random.default_rng(0)
    out = {}
    for b, csi in by_budget.items():
        for method in cfg.se_methods:
            source, precoder, use_cov = SE_METHODS[method]
            if source in sources and b != cfg.b_tot_grid[0]:  # the budget does not enter
                out[(method, b)] = out[(method, cfg.b_tot_grid[0])]
                continue
            hhat, covs = csi[source]
            plain = [outer(hhat[:, u]) for u in range(k)]
            if precoder == "zf":
                norms = np.linalg.norm(hhat, axis=0)
                cols = np.where(norms <= 1e-12 * max(norms.max(), 1e-300), nofb, hhat)
                w = dense_zf(cols)
            elif precoder == "wmmse":
                w = dense_wmmse_precoder(h, pp)
            else:
                covs = covs if use_cov and covs is not None else plain
                eig = np.column_stack([np.linalg.eigh(cu)[1][:, -1] for cu in covs])
                tries = [dense_zf(eig), eig] + [
                    draws.normal(size=eig.shape) + 1j * draws.normal(size=eig.shape)
                    for _ in range(starts - 2)]
                w = dense_bound_maximum(covs, noise, tries)
                plain = covs
            out[(method, b)] = dense_scores(w, h, plain, noise)
    return out
