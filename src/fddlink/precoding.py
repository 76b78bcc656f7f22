"""Multi-user downlink precoding on reconstructed CSI.

The sum-spectral-efficiency lower bound is a product of Rayleigh-quotient
ratios of block-diagonal matrices built from hhat*hhat^H + Phi per user.
Its stationary points solve a generalized eigenvalue condition, which the
power-iteration solver chases; zero-forcing and WMMSE serve as baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reconstruction import ReconstructedChannel


class GpipError(RuntimeError):
    """Raised when the power-iteration solver cannot proceed."""


@dataclass(frozen=True)
class PrecodingProblem:
    """Per-user channel estimates, error covariances, noise, and a power budget.

    hhat has one column per user (N x K); phi stacks the K covariance
    matrices; sigma2 holds per-user noise powers in watts.
    """

    hhat: np.ndarray
    phi: np.ndarray
    sigma2: np.ndarray
    power: float

    def __post_init__(self):
        hhat = np.asarray(self.hhat, dtype=complex)
        n, k = hhat.shape
        phi = np.asarray(self.phi, dtype=complex)
        sigma2 = np.atleast_1d(np.asarray(self.sigma2, dtype=float))
        if sigma2.shape == (1,):
            sigma2 = np.full(k, sigma2[0])
        if phi.shape != (k, n, n):
            raise ValueError(f"phi must have shape ({k}, {n}, {n}), got {phi.shape}")
        if sigma2.shape != (k,):
            raise ValueError(f"sigma2 must have {k} entries")
        if np.any(sigma2 <= 0):
            raise ValueError("noise powers must be positive")
        if not self.power > 0:
            raise ValueError(f"transmit power must be positive, got {self.power}")
        object.__setattr__(self, "hhat", hhat)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def num_antennas(self) -> int:
        return self.hhat.shape[0]

    @property
    def num_users(self) -> int:
        return self.hhat.shape[1]

    @property
    def noise_over_power(self) -> np.ndarray:
        return self.sigma2 / self.power

    def effective_covariances(self) -> np.ndarray:
        """K x N x N stack of hhat_k hhat_k^H + Phi_k (C-contiguous)."""
        cols = np.ascontiguousarray(self.hhat.T)  # (K, N)
        out = cols[:, :, None] * cols.conj()[:, None, :]
        out += self.phi
        return np.ascontiguousarray(out)

    @classmethod
    def from_reconstructions(cls, recs: list[ReconstructedChannel], power: float,
                             sigma2, use_cov: bool = True) -> "PrecodingProblem":
        hhat = np.column_stack([rc.hhat for rc in recs])
        n = hhat.shape[0]
        if use_cov:
            phi = np.stack([rc.error_cov for rc in recs])
        else:
            phi = np.zeros((len(recs), n, n), dtype=complex)
        return cls(hhat=hhat, phi=phi, sigma2=sigma2, power=power)


@dataclass(frozen=True)
class PrecoderStack:
    """Concatenated per-user precoders [f_1; ...; f_K] of length N*K."""

    f: np.ndarray
    num_users: int

    def __post_init__(self):
        f = np.asarray(self.f, dtype=complex).ravel()
        if f.size % self.num_users != 0:
            raise ValueError("stack length must be divisible by the user count")
        object.__setattr__(self, "f", f)

    @classmethod
    def from_columns(cls, columns: np.ndarray) -> "PrecoderStack":
        cols = np.asarray(columns, dtype=complex)
        return cls(f=cols.T.reshape(-1), num_users=cols.shape[1])

    @property
    def blocks(self) -> np.ndarray:
        """K x N view, one row per user."""
        return self.f.reshape(self.num_users, -1)

    def normalized(self) -> "PrecoderStack":
        norm = np.linalg.norm(self.f)
        if norm == 0:
            raise ValueError("cannot normalize a zero precoder stack")
        return PrecoderStack(f=self.f / norm, num_users=self.num_users)


@dataclass(frozen=True)
class GpipConfig:
    """Stopping rule for the power-iteration solver."""

    epsilon: float = 1e-4
    max_iter: int = 50

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class GpipResult:
    """Solver output: the precoder stack plus convergence diagnostics."""

    f: PrecoderStack
    gamma: float
    gamma_history: tuple[float, ...]
    iterations: int
    converged: bool


def _cross_quadratic(covs: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Q[k, j] = f_j^H (hhat_k hhat_k^H + Phi_k) f_j, real by Hermitian symmetry."""
    cols = blocks.T  # (N, K_users)
    inner = covs @ cols  # batched: (K, N, K_users)
    return np.einsum("aj,kaj->kj", cols.conj(), inner).real


def _ratios(covs: np.ndarray, blocks: np.ndarray, noise) -> tuple[np.ndarray, np.ndarray]:
    """Per-user numerator and denominator quadratic forms of the SE ratios.

    ``noise`` is the per-user noise term already scaled by ||f||^2.
    """
    q = _cross_quadratic(covs, blocks)
    q_num = q.sum(axis=1) + noise
    q_den = q_num - np.diag(q)
    return q_num, q_den


def _problem_ratios(pp: PrecodingProblem, stack: PrecoderStack):
    noise = pp.noise_over_power * float(np.vdot(stack.f, stack.f).real)
    return _ratios(pp.effective_covariances(), stack.blocks, noise)


def gamma(stack: PrecoderStack, pp: PrecodingProblem) -> float:
    """Product of per-user ratios; log2 of it is the SE lower bound."""
    q_num, q_den = _problem_ratios(pp, stack)
    return float(np.exp(np.sum(np.log(q_num) - np.log(q_den))))


def sum_se_lower_bound(stack: PrecoderStack, pp: PrecodingProblem) -> float:
    """Achievable-rate lower bound in bits/s/Hz given the reconstructed CSI.

    Noise enters as sigma2/P scaled by ||f||^2, so the value depends only on
    the stack's direction and matches the unit-norm convention exactly.
    """
    q_num, q_den = _problem_ratios(pp, stack)
    return float(np.sum(np.log2(q_num) - np.log2(q_den)))


def _scaled_problem(pp: PrecodingProblem):
    """Common positive rescaling of all covariances and noise terms.

    The objective, iterates, and stationarity residual are invariant under
    one shared scale; this keeps products of quadratic forms inside float64
    range for channels with realistic (tiny) path gains.
    """
    covs = pp.effective_covariances()
    n = pp.num_antennas
    scale = max(
        float(np.max(np.trace(covs, axis1=1, axis2=2).real)) / n,
        float(np.max(pp.noise_over_power)),
    )
    if not np.isfinite(scale) or scale <= 0:
        raise GpipError(f"degenerate problem scale {scale}")
    return covs / scale, pp.noise_over_power / scale


def _default_init(pp: PrecodingProblem, covs: np.ndarray) -> PrecoderStack:
    """Zero-forcing start; degenerate columns fall back to dominant directions."""
    n, k = pp.num_antennas, pp.num_users
    cols = pp.hhat.copy()
    norms = np.linalg.norm(cols, axis=0)
    floor = 1e-12 * max(norms.max(), 1e-300)
    for j in np.nonzero(norms <= floor)[0]:
        if np.abs(covs[j]).max() > 0:
            w, v = np.linalg.eigh(covs[j])
            cols[:, j] = v[:, -1]
        else:
            cols[:, j] = np.ones(n) / math.sqrt(n)
    gram = cols.conj().T @ cols
    try:
        w = cols @ np.linalg.pinv(gram)
    except np.linalg.LinAlgError:
        w = cols
    col_norms = np.linalg.norm(w, axis=0)
    bad = col_norms <= 1e-12 * max(col_norms.max(), 1e-300)
    if np.any(bad):
        w[:, bad] = cols[:, bad]
        col_norms = np.linalg.norm(w, axis=0)
    w = w / col_norms / math.sqrt(k)
    return PrecoderStack.from_columns(w)


def gpip_solve(pp: PrecodingProblem, cfg: GpipConfig | None = None,
               f0: PrecoderStack | None = None) -> GpipResult:
    """Generalized power iteration for the product-of-ratios objective.

    Each iteration solves K independent N x N Hermitian positive-definite
    systems (the aggregate matrices are block-diagonal with a rank-limited
    per-block correction) and renormalizes.  Stops once the relative
    improvement of the objective falls below cfg.epsilon.  The iterate with
    the largest objective seen, including the start, is returned, so the
    result never falls below the initial point.
    """
    cfg = cfg or GpipConfig()
    covs, noise = _scaled_problem(pp)
    n, k = pp.num_antennas, pp.num_users
    stack = (f0 or _default_init(pp, covs)).normalized()

    def ratio_logs(s: PrecoderStack) -> tuple[np.ndarray, np.ndarray]:
        q_num, q_den = _ratios(covs, s.blocks, noise)  # ||f|| = 1 throughout
        if np.any(q_den <= 0) or np.any(~np.isfinite(q_num)):
            raise GpipError("non-finite or non-positive quadratic forms")
        return np.log(q_num), np.log(q_den)

    la, lb = ratio_logs(stack)
    lg = float(la.sum() - lb.sum())
    if not np.isfinite(lg):
        raise GpipError("objective is non-finite at the initial point")
    history = [math.exp(lg)]
    best_lg, best_stack = lg, stack
    iterations = 0
    converged = False
    eye = np.eye(n)

    covs_flat = covs.reshape(k, -1)
    for _ in range(cfg.max_iter):
        iterations += 1
        wa = np.exp(la.sum() - la - (la.sum() - la).max())
        wb = np.exp(lb.sum() - lb - (lb.sum() - lb).max())
        agg_num = (wa @ covs_flat).reshape(n, n) + float(wa @ noise) * eye
        agg_den = (wb @ covs_flat).reshape(n, n) + float(wb @ noise) * eye

        rhs = (agg_num @ stack.blocks.T).T  # per-user A-side images
        # per-user denominator blocks, Hermitian positive definite by
        # construction; solved in one batched LAPACK call
        m = agg_den[None, :, :] - wb[:, None, None] * covs
        try:
            new_blocks = np.linalg.solve(m, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            conds = [float(np.linalg.cond(m[j])) for j in range(k)]
            raise GpipError(
                "denominator block solve failed "
                f"(worst condition estimate {max(conds):.3e})"
            ) from exc
        stack = PrecoderStack(new_blocks.reshape(-1), k).normalized()

        la, lb = ratio_logs(stack)
        lg_new = float(la.sum() - lb.sum())
        if not np.isfinite(lg_new):
            raise GpipError("objective became non-finite during iteration")
        history.append(math.exp(lg_new))
        if lg_new > best_lg:
            best_lg, best_stack = lg_new, stack
        if abs(math.expm1(lg_new - lg)) < cfg.epsilon:
            converged = True
            break
        lg = lg_new

    return GpipResult(f=best_stack, gamma=math.exp(best_lg),
                      gamma_history=tuple(history),
                      iterations=iterations, converged=converged)


def stationarity_residual(stack: PrecoderStack, pp: PrecodingProblem) -> float:
    """Relative residual of the generalized eigenvalue condition at ``stack``.

    Zero (numerically) exactly when the stack satisfies
    aggregate_num(f) f = gamma(f) * aggregate_den(f) f.
    """
    covs, noise = _scaled_problem(pp)
    n, k = pp.num_antennas, pp.num_users
    stack = stack.normalized()
    blocks = stack.blocks
    q_num, q_den = _ratios(covs, blocks, noise)
    la, lb = np.log(q_num), np.log(q_den)
    log_g = float(la.sum() - lb.sum())
    # One shared normalizer keeps the identity A f = gamma B f intact.
    log_wa = la.sum() - la
    log_wb = lb.sum() - lb
    ref = log_wa.max()
    wa = np.exp(log_wa - ref)
    wgb = np.exp(log_g + log_wb - ref)  # gamma folded into the B-side weights
    num_img = (np.tensordot(wa, covs, axes=1) @ blocks.T).T + float(wa @ noise) * blocks
    den_base = np.tensordot(wgb, covs, axes=1)
    den_img = (den_base @ blocks.T).T + float(wgb @ noise) * blocks
    den_img -= (wgb[:, None] * np.einsum("kab,kb->ka", covs, blocks))
    resid = np.linalg.norm(num_img - den_img)
    return float(resid / np.linalg.norm(num_img))


def zf_precoder(hhat: np.ndarray, pp: PrecodingProblem) -> PrecoderStack:
    """Zero-forcing stack: pseudo-inverse directions at equal per-user power."""
    h = np.asarray(hhat, dtype=complex)
    n, k = h.shape
    if k > n:
        raise ValueError(f"zero-forcing needs K <= N, got K={k}, N={n}")
    gram = h.conj().T @ h
    try:
        w = h @ np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise ValueError("channel matrix is rank deficient; ZF undefined") from exc
    norms = np.linalg.norm(w, axis=0)
    if np.any(norms == 0) or not np.all(np.isfinite(norms)):
        raise ValueError("channel matrix is rank deficient; ZF undefined")
    return PrecoderStack.from_columns(w / norms / math.sqrt(k))


def true_sum_se(stack: PrecoderStack, h_true: np.ndarray, pp: PrecodingProblem) -> float:
    """Sum rate in bits/s/Hz when the true channels meet the given precoders."""
    h = np.asarray(h_true, dtype=complex)
    cross = np.abs(h.conj().T @ stack.blocks.T) ** 2  # [k, i] = |h_k^H f_i|^2
    sig = np.diag(cross)
    interference = cross.sum(axis=1) - sig
    noise = pp.noise_over_power * float(np.vdot(stack.f, stack.f).real)
    return float(np.sum(np.log2(1.0 + sig / (interference + noise))))


def wmmse_precoder(h_true: np.ndarray, pp: PrecodingProblem, iters: int = 100,
                   tol: float = 1e-4) -> PrecoderStack:
    """Alternating MMSE-receiver / weight / transmitter updates on true CSI.

    Runs under the sum power constraint until the relative sum-rate
    improvement drops below ``tol``.  Initialized from zero-forcing when it
    exists so every iteration, and hence the output, dominates plain ZF.
    """
    h = np.asarray(h_true, dtype=complex)
    n, k = h.shape
    scale = float(np.max(np.linalg.norm(h, axis=0)))
    if scale <= 0:
        raise ValueError("all-zero channel matrix")
    hs = h / scale
    sigma2 = pp.sigma2 / scale**2
    p = pp.power

    try:
        w = zf_precoder(hs, pp).blocks.T * math.sqrt(p)
    except ValueError:
        cols = hs / np.linalg.norm(hs, axis=0)
        w = cols * math.sqrt(p / k)

    def sum_rate(wmat):
        cross = np.abs(hs.conj().T @ wmat) ** 2
        sig = np.diag(cross)
        other = cross.sum(axis=1) - sig
        return float(np.sum(np.log2(1.0 + sig / (other + sigma2))))

    rate = sum_rate(w)
    best_rate, best_w = rate, w
    for _ in range(iters):
        c = hs.conj().T @ w  # [k, i] = h_k^H w_i
        totals = np.sum(np.abs(c) ** 2, axis=1) + sigma2
        u = np.diag(c) / totals
        mmse = 1.0 - np.abs(np.diag(c)) ** 2 / totals
        v = 1.0 / mmse

        lam = (hs * (v * np.abs(u) ** 2)) @ hs.conj().T
        eigval, eigvec = np.linalg.eigh(lam)
        eigval = np.maximum(eigval, 0.0)
        g = eigvec.conj().T @ hs  # channels in the eigenbasis
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

    return PrecoderStack.from_columns(best_w).normalized()
