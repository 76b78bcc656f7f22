"""Multi-user downlink precoding on reconstructed CSI.

A precoder is an N x K complex array whose column k is user k's beamformer.
Its total power, and the norm that normalizes it, are summed user by user
(column 0 first), so values do not depend on the array's memory layout.
A problem holds each user's reconstruction factor V_k = [hhat_k | E_k]
(N x R, R = L + 1 for the MMSE estimate, 1 without an error model), so the
effective covariance C_k = hhat_k hhat_k^H + Phi_k = V_k V_k^H is never
formed as an N x N matrix.  The sum-spectral-efficiency lower bound is a
product of Rayleigh-quotient ratios of block-diagonal matrices built from
these covariances.  Its stationary points solve a generalized eigenvalue
condition, which the power-iteration solver chases with Woodbury-form
solves: the K leave-one-user-out capacitance systems are principal
submatrices of one Hermitian positive-definite matrix and are solved
together by recursive block elimination (Schur complements over halves of
the users), on coordinates in an orthonormal basis of the span of the
factors and the start, so N enters a solve only at one QR and at the
returned precoder.  gpip_solve_batch runs many problems of one factor shape
in lockstep, one batched call per step for all of them; gpip_solve is a
batch of one.  Zero-forcing and WMMSE serve as baselines; WMMSE iterates on
the K x K Gram matrix of the channels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .reconstruction import ReconstructedChannel


class GpipError(RuntimeError):
    """Raised when the power-iteration solver cannot proceed.

    ``reason`` says what went wrong; ``problem`` is the input index of the
    failed problem of a batch, which the message then names.
    """

    def __init__(self, reason: str, problem: int | None = None):
        super().__init__(reason if problem is None else f"problem {problem}: {reason}")
        self.reason = reason
        self.problem = problem


@dataclass(frozen=True)
class PrecodingProblem:
    """Per-user covariance factors, noise, and a power budget.

    factors is N x K x R: factors[:, k] is user k's reconstruction factor,
    column 0 its estimate hhat_k and the rest E_k with Phi_k = E_k E_k^H, so
    C_k = factors[:, k] @ factors[:, k]^H.  Zero columns pad users with
    fewer.  sigma2 holds per-user noise powers in watts.
    """

    factors: np.ndarray
    sigma2: np.ndarray
    power: float

    def __post_init__(self):
        factors = np.ascontiguousarray(self.factors, dtype=complex)
        if factors.ndim != 3 or factors.shape[2] < 1:
            raise ValueError(f"factors must be N x K x R with R >= 1, got shape {factors.shape}")
        k = factors.shape[1]
        sigma2 = np.atleast_1d(np.asarray(self.sigma2, dtype=float))
        if sigma2.shape == (1,):
            sigma2 = np.full(k, sigma2[0])
        if sigma2.shape != (k,):
            raise ValueError(f"sigma2 must have {k} entries")
        if not np.all((sigma2 > 0) & np.isfinite(sigma2)):
            raise ValueError("noise powers must be positive and finite")
        if not (self.power > 0 and math.isfinite(self.power)):
            raise ValueError(f"transmit power must be positive and finite, got {self.power}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def hhat(self) -> np.ndarray:
        """N x K estimates, column 0 of each user's factor."""
        return self.factors[:, :, 0]

    @property
    def num_antennas(self) -> int:
        return self.factors.shape[0]

    @property
    def num_users(self) -> int:
        return self.factors.shape[1]

    @property
    def noise_over_power(self) -> np.ndarray:
        return self.sigma2 / self.power

    @classmethod
    def from_reconstructions(cls, recs: list[ReconstructedChannel], power: float,
                             sigma2, use_cov: bool = True) -> "PrecodingProblem":
        """Stack per-user reconstruction factors; ``use_cov=False`` keeps only hhat.

        Users with fewer columns than others are padded with zero columns.
        """
        width = max(rc.factor.shape[1] for rc in recs) if use_cov else 1
        factors = np.zeros((recs[0].factor.shape[0], len(recs), width), dtype=complex)
        for k, rc in enumerate(recs):
            cols = rc.factor[:, :width]
            factors[:, k, :cols.shape[1]] = cols
        return cls(factors=factors, sigma2=sigma2, power=power)


@dataclass(frozen=True)
class GpipConfig:
    """Stopping rule for the power-iteration solver."""

    epsilon: float = 1e-4
    max_iter: int = 50

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class GpipResult:
    """Solver output: the N x K unit-norm precoder plus convergence diagnostics.

    ``f`` owns its memory; ``gamma`` is the objective (product of the users'
    ratios) at ``f``.
    """

    f: np.ndarray
    gamma: float
    iterations: int
    converged: bool


def _ratios(p: np.ndarray, noise) -> tuple[np.ndarray, np.ndarray]:
    """Per-user numerator and denominator quadratic forms of the SE ratios.

    ``p`` is the (K*R) x K matrix V^H F of projections (see _projections),
    so f_j^H C_k f_j is the sum of |p|^2 over user k's R rows in column j.
    ``noise`` is the per-user noise term already scaled by ||f||^2.
    """
    k = p.shape[-1]
    # q[..., k, j] = f_j^H C_k f_j
    q = (p.real**2 + p.imag**2).reshape(*p.shape[:-2], k, -1, k).sum(axis=-2)
    q_num = q.sum(axis=-1) + noise
    q_den = q_num - np.diagonal(q, axis1=-2, axis2=-1)
    return q_num, q_den


def _projections(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(K*R) x K matrix V^H W of the flattened factors against the precoder columns."""
    n, k, r = v.shape
    return v.reshape(n, k * r).conj().T @ w


def _power(w: np.ndarray) -> float:
    """||W||_F^2, summed user by user."""
    u = w.T.ravel()  # one copy; np.vdot(w.T, w.T) would make two
    return float(np.vdot(u, u).real)


def _normalized(w: np.ndarray) -> np.ndarray:
    """W / ||W||_F, the norm summed user by user."""
    norm = np.linalg.norm(w.T.ravel())
    if norm == 0:
        raise ValueError("cannot normalize an all-zero precoder")
    return w / norm


def sum_se_lower_bound(w: np.ndarray, pp: PrecodingProblem) -> float:
    """Achievable-rate lower bound in bits/s/Hz of the N x K precoder ``w``
    given the reconstructed CSI: log2 of the product of the users' ratios.

    Noise enters as sigma2/P scaled by ||W||_F^2, so the value depends only
    on the precoder's direction and matches the unit-norm convention exactly.
    """
    q_num, q_den = _ratios(_projections(pp.factors, w), pp.noise_over_power * _power(w))
    return float(np.sum(np.log2(q_num) - np.log2(q_den)))


def _scaled_problem(pp: PrecodingProblem):
    """Factors and noise terms under one common positive rescaling.

    The objective, iterates, and stationarity residual are invariant under
    one shared scale of all covariances and noise terms; this keeps products
    of quadratic forms inside float64 range for channels with realistic
    (tiny) path gains.  The scale is the larger of max_k trace(C_k) / N,
    with trace(C_k) = ||V[:, k]||_F^2, and the largest noise term.
    """
    v = pp.factors
    traces = np.sum(v.real**2 + v.imag**2, axis=(0, 2))
    scale = max(float(np.max(traces)) / pp.num_antennas,
                float(np.max(pp.noise_over_power)))
    if not np.isfinite(scale) or scale <= 0:
        raise GpipError(f"degenerate problem scale {scale}")
    return v / math.sqrt(scale), pp.noise_over_power / scale


def _default_init(pp: PrecodingProblem, v: np.ndarray) -> np.ndarray:
    """Zero-forcing start; degenerate columns fall back to dominant directions."""
    n, k = pp.num_antennas, pp.num_users
    cols = pp.hhat.copy()
    norms = np.linalg.norm(cols, axis=0)
    floor = 1e-12 * max(norms.max(), 1e-300)
    for j in np.nonzero(norms <= floor)[0]:
        vj = v[:, j]
        if np.abs(vj).max() > 0:
            # dominant eigenvector of V_j V_j^H, from the R x R Gram matrix
            _, q = np.linalg.eigh(vj.conj().T @ vj)
            top = vj @ q[:, -1]
            cols[:, j] = top / np.linalg.norm(top)
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
    return w / col_norms / math.sqrt(k)


def _leave_one_block_out(gram: np.ndarray, s: np.ndarray, d: np.ndarray, y: np.ndarray,
                         r: int) -> np.ndarray:
    """Matrices Z whose column j solves t z = y[:, j] with block j removed.

    For each of the S problems on the leading axis, t = diag(d) + D G D with
    D = diag(s) is PR x PR Hermitian positive definite with P = 2^d >= 2
    blocks of R rows and columns, and y is PR x P; column j of the problem's
    Z is zero on block j.  The P systems are principal submatrices of t, so
    they share one recursive halving: each half of a group of users
    eliminates the other half once (X = T_oo^{-1} [T_oa, y_o]) and recurses
    on its own Schur complement [T_aa, y_a] - T_ao X; back-substitution then
    gives the other half's entries.  Schur complements of an HPD matrix are
    HPD, so this is plain block elimination with no downdate.  The top level
    holds one group per problem, and each level of the tree is one batched
    solve over all its groups.
    """

    def quadrants(tt, yy, groups, rows):
        # Each group's [T | y] split into quadrants, row half i and column
        # (user) half j at index 2i + j: groups x 4 x rows x (rows + rows/r).
        # Indexed by the own half a, the strided views [:, ::-3] give T_oo
        # (quadrants 3, 0), [:, 2:0:-1] give [T_oa | y_o] (2, 1), [:, 1:3]
        # give T_ao (1, 2) and [:, ::3] give [T_aa | y_a] (0, 3).
        out = np.empty((groups, 2, 2, rows, rows + rows // r), dtype=complex)
        out[..., :rows] = tt.reshape(groups, 2, rows, 2, rows).transpose(0, 1, 3, 2, 4)
        out[..., rows:] = yy.reshape(groups, 2, rows, 2, rows // r).transpose(0, 1, 3, 2, 4)
        return out.reshape(groups, 4, rows, -1)

    def place(own, other):
        # Per group and own half a, the solutions on the own and on the other
        # half of the rows -> each group's solution matrix in natural order.
        groups, _, rows, cols = own.shape
        z = np.empty((groups, 2, rows, 2, cols), dtype=complex)
        z[:, 0, :, 0], z[:, 1, :, 1] = own[:, 0], own[:, 1]
        z[:, 1, :, 0], z[:, 0, :, 1] = other[:, 0], other[:, 1]
        return z.reshape(groups, 2 * rows, 2 * cols)

    def first_level():
        # t is built contiguous: ufuncs on strided quadrant views would run
        # through iteration buffers larger than t
        t = gram * s[:, :, None]
        t *= s[:, None, :]
        t.reshape(len(t), -1)[:, ::t.shape[1] + 1] += d  # the diagonal
        return quadrants(t, y, len(t), t.shape[1] // 2)

    q = first_level()
    levels = []
    while q.shape[2] > r:  # groups of more than two blocks
        hr = q.shape[2]
        x = np.linalg.solve(q[:, ::-3, :, :hr], q[:, 2:0:-1])
        levels.append(x)
        # [T_aa - T_ao X_T | y_a - T_ao X_y]; half a of group g becomes
        # group 2g + a of the next level
        schur = q[:, 1:3, :, :hr] @ x
        np.subtract(q[:, ::3], schur, out=schur)
        del q  # each level is freed before the next one is built
        q = quadrants(schur[..., :hr], schur[..., hr:], 2 * schur.shape[0], hr // 2)
        del schur
    # groups of two blocks: each user's answer is one solve against the other block
    z_other = np.linalg.solve(q[:, ::-3, :, :r], q[:, 2:0:-1, :, r:])
    z = place(np.zeros_like(z_other), z_other)
    for x in reversed(levels):
        hr = x.shape[2]
        z_own = z.reshape(x.shape[0], 2, hr, -1)
        z = place(z_own, x[..., hr:] - x[..., :hr] @ z_own)
    return z


def _factor_product(vc: np.ndarray, y: np.ndarray) -> np.ndarray:
    """V @ y from the stored conj(V): conj(conj(V) @ conj(y)), the same bits as V @ y."""
    out = vc @ y.conj()
    return np.conjugate(out, out=out)


def _denominator_solve(vc: np.ndarray, gram: np.ndarray, wb: np.ndarray, c: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Columns x_j = (c I + sum_{k != j} wb_k C_k)^{-1} rhs_j for every user j.

    Every argument stacks S problems on its leading axis.  Per problem, V is
    the factor stack (user k's R columns side by side) as d x KR coordinates
    in an orthonormal basis, given as vc = conj(V), with rhs in that basis;
    gram is V^H V padded with zeros to PR x PR, where P is K rounded up to a
    power of two.  With S = diag(sqrt(wb)) repeated over each user's R
    columns and the KR x KR matrix M = c I + S G S, the Woodbury identity gives

        x_j = (rhs_j - V S z_j) / c,

    where z_j solves M z = S V^H rhs_j with user j's block of M removed and
    is zero on that block.  Each of those K systems is a principal submatrix
    of the one Hermitian positive-definite M, and _leave_one_block_out solves
    them all by recursive block elimination: about (KR)^3 flops and
    O(log K) batched solves per call, instead of K factorizations per
    problem.  M is padded to PR with decoupled identity blocks and zero
    right-hand sides.  Raises LinAlgError when any problem's block solve
    fails.
    """
    count, pr = gram.shape[:2]
    k = wb.shape[1]
    if k == 1:  # no other user: the denominator matrix is c I
        return rhs / c[:, None, None]
    r = vc.shape[2] // k
    kr = k * r
    s = np.zeros((count, pr), dtype=complex)  # complex, so no operand is cast
    s[:, :kr] = np.sqrt(np.repeat(wb, r, axis=1))
    d = np.ones((count, pr))
    d[:, :kr] = c[:, None]
    y = np.zeros((count, pr, pr // r), dtype=complex)
    y[:, :kr, :k] = s[:, :kr, None] * (vc.transpose(0, 2, 1) @ rhs)
    z = _leave_one_block_out(gram, s, d, y, r)[:, :kr, :k]
    x = _factor_product(vc, s[:, :kr, None] * z)
    np.subtract(rhs, x, out=x)
    x /= c[:, None, None]
    return x


def _log_weights(logs: np.ndarray) -> np.ndarray:
    """Per-user weights exp(sum_{k != j} logs_k), scaled so each problem's largest is 1."""
    rest = logs.sum(axis=1, keepdims=True) - logs
    return np.exp(rest - rest.max(axis=1, keepdims=True))


def _power_iteration(problems: list, members: list, cfg: GpipConfig,
                     results: list, errors: dict) -> None:
    """Solve problems[i] for every i in ``members``, which share one factor shape, in lockstep.

    Each problem's result goes to results[i]; a problem that fails is taken
    out with its message in errors[i] while the others go on.  The stacked
    arrays are compacted only on iterations where some problem left.
    """
    first = problems[members[0]]
    n, k, r = first.factors.shape
    index = np.array(members)
    pr = (1 << (k - 1).bit_length()) * r
    d = min(n, k * r + k)
    basis = np.empty((len(members), n, d), dtype=complex)  # orthonormal Q per problem
    vc = np.empty((len(members), d, k * r), dtype=complex)  # conj(Q^H V), d x KR per problem
    gram = np.zeros((len(members), pr, pr), dtype=complex)  # V^H V, padded (_denominator_solve)
    noise = np.empty((len(members), k))
    cols = np.empty((len(members), d, k), dtype=complex)  # Q^H F of the unit-norm iterate F
    live = np.ones(len(members), dtype=bool)

    def drop(mask, reason):
        mask = mask & live
        if mask.any():
            for pos in np.flatnonzero(mask):
                errors[int(index[pos])] = reason
            live[mask] = False

    def load(pos, pp):
        # every iterate lies in the span of V and the start W0: [V | W0] = Q R
        v, noise[pos] = _scaled_problem(pp)
        w0 = _normalized(_default_init(pp, v))
        basis[pos], coords = np.linalg.qr(np.concatenate((v.reshape(n, k * r), w0), axis=1))
        np.conjugate(coords[:, :k * r], out=vc[pos])
        gram[pos, :k * r, :k * r] = vc[pos].T @ coords[:, :k * r]
        cols[pos] = coords[:, k * r:]

    for pos, i in enumerate(members):
        try:
            load(pos, problems[i])
        except GpipError as exc:
            drop(np.arange(live.size) == pos, str(exc))

    def objective():
        # logs of each problem's ratios at the iterate and its log objective;
        # q_den <= q_num, so the latter is finite exactly when every q_num is
        # finite and every q_den positive
        q_num, q_den = _ratios(p, noise)  # ||f|| = 1 throughout
        la, lb = np.log(q_num), np.log(q_den)
        lg = la.sum(axis=1) - lb.sum(axis=1)
        drop(~np.isfinite(lg), "non-finite or non-positive quadratic forms")
        return la, lb, lg

    def finish(mask, iterations, converged):
        mask &= live
        if mask.any():
            for pos in np.flatnonzero(mask):
                results[index[pos]] = GpipResult(
                    f=basis[pos] @ best_cols[pos], gamma=math.exp(best_lg[pos]),
                    iterations=iterations, converged=converged)
            live[mask] = False

    p = vc.transpose(0, 2, 1) @ cols
    la, lb, lg = objective()
    best_lg, best_cols = lg.copy(), cols.copy()

    for iterations in range(1, cfg.max_iter + 1):
        if not live.all():
            basis = basis[live]  # the largest array: alone, so its old copy overlaps no other
            index, noise, vc, gram, cols, best_cols, p, la, lb, lg, best_lg = (
                a[live] for a in (index, noise, vc, gram, cols, best_cols, p, la, lb, lg, best_lg))
            live = live[live]
            if not live.size:
                return
        wa, wb = _log_weights(la), _log_weights(lb)
        # A-side images sum_k wa_k C_k f_j + (wa . noise) f_j, one column per
        # user, formed in the iterate's buffer: the iterate is not read again
        rhs = cols
        rhs *= np.sum(wa * noise, axis=1)[:, None, None]
        rhs += _factor_product(vc, np.repeat(wa, r, axis=1)[:, :, None] * p)
        del p  # recomputed after the step
        c = np.sum(wb * noise, axis=1)
        try:
            cols = _denominator_solve(vc, gram, wb, c, rhs)
        except np.linalg.LinAlgError:
            # find the failed problems one at a time; the others keep their step
            cols = np.full_like(rhs, np.nan)
            for pos in range(live.size):
                one = slice(pos, pos + 1)
                try:
                    cols[one] = _denominator_solve(vc[one], gram[one], wb[one], c[one], rhs[one])
                except np.linalg.LinAlgError:
                    s = np.sqrt(np.repeat(wb[pos], r))
                    m = s[:, None] * gram[pos, :k * r, :k * r] * s + c[pos] * np.eye(k * r)
                    drop(np.arange(live.size) == pos, "denominator block solve failed "
                         f"(condition estimate {float(np.linalg.cond(m)):.3e})")
        flat = cols.reshape(live.size, -1).view(float)
        cols /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None, None]

        p = vc.transpose(0, 2, 1) @ cols
        la, lb, lg_new = objective()
        improved = lg_new > best_lg
        best_lg = np.where(improved, lg_new, best_lg)
        np.copyto(best_cols, cols, where=improved[:, None, None])
        finish(np.abs(np.expm1(lg_new - lg)) < cfg.epsilon, iterations, True)
        lg = lg_new
    finish(live, cfg.max_iter, False)


def gpip_solve_batch(problems: list[PrecodingProblem],
                     cfg: GpipConfig | None = None) -> list[GpipResult]:
    """Generalized power iteration for many product-of-ratios problems at once.

    Each iteration maps user j's block through the inverse of its
    denominator matrix c I + sum_{k != j} w_k C_k, in Woodbury form over the
    rank-R factors, and renormalizes; all K users share one recursive block
    elimination of a KR x KR matrix per iteration (see _denominator_solve),
    and the Gram matrix of the factors is built once per solve.  A problem
    stops once the relative improvement of its objective falls below
    cfg.epsilon, and its iterate with the largest objective seen, including
    the zero-forcing start, is returned, so the result never falls below the
    initial point.

    Problems with one factor shape (N, K, R) run in lockstep: every step is a
    handful of batched calls over all of them, whose per-call cost on small
    matrices would otherwise repeat for each problem.  A problem leaves the
    batch when it stops or fails, and the others go on unchanged, so each
    result is the one a solve of that problem alone gives.  Results come
    back in input order.  If any problem failed, the GpipError of the first
    failed one in input order is raised once all have run; its ``problem``
    is that index.
    """
    cfg = cfg or GpipConfig()
    results: list = [None] * len(problems)
    errors: dict[int, str] = {}
    groups: dict[tuple, list] = {}
    for i, pp in enumerate(problems):
        groups.setdefault(pp.factors.shape, []).append(i)
    # a problem whose values leave the finite range is dropped with a GpipError
    with np.errstate(all="ignore"):
        for members in groups.values():
            _power_iteration(problems, members, cfg, results, errors)
    if errors:
        first = min(errors)
        raise GpipError(errors[first], problem=first)
    return results


def gpip_solve(pp: PrecodingProblem, cfg: GpipConfig | None = None) -> GpipResult:
    """Generalized power iteration for one problem: a batch of one (gpip_solve_batch)."""
    return gpip_solve_batch([pp], cfg)[0]


def stationarity_residual(w: np.ndarray, pp: PrecodingProblem) -> float:
    """Relative residual of the generalized eigenvalue condition at the N x K precoder ``w``.

    Zero (numerically) exactly when w satisfies
    aggregate_num(w) w = gamma(w) * aggregate_den(w) w.  Raises ValueError
    for an all-zero precoder.
    """
    v, noise = _scaled_problem(pp)
    n, k, r = v.shape
    cols = _normalized(w)
    p = _projections(v, cols)
    q_num, q_den = _ratios(p, noise)
    la, lb = np.log(q_num), np.log(q_den)
    log_g = float(la.sum() - lb.sum())
    # One shared normalizer keeps the identity A f = gamma B f intact.
    log_wa = la.sum() - la
    log_wb = lb.sum() - lb
    ref = log_wa.max()
    wa = np.exp(log_wa - ref)
    wgb = np.exp(log_g + log_wb - ref)  # gamma folded into the B-side weights
    vf = v.reshape(n, k * r)
    num_img = vf @ (np.repeat(wa, r)[:, None] * p) + float(wa @ noise) * cols
    own_dropped = np.repeat(wgb[:, None] * (1.0 - np.eye(k)), r, axis=0)
    den_img = vf @ (own_dropped * p) + float(wgb @ noise) * cols
    resid = np.linalg.norm(num_img - den_img)
    return float(resid / np.linalg.norm(num_img))


def zf_precoder(hhat: np.ndarray) -> np.ndarray:
    """Zero-forcing precoder: pseudo-inverse directions at equal per-user power.

    When the Gram matrix cannot be inverted, as when users share one DFT
    codeword, the Moore-Penrose pseudo-inverse gives the minimum-norm
    least-squares directions instead.  Only an all-zero channel column
    leaves ZF undefined.  Returns the unit-norm N x K precoder.
    """
    h = np.asarray(hhat, dtype=complex)
    n, k = h.shape
    if k > n:
        raise ValueError(f"zero-forcing needs K <= N, got K={k}, N={n}")
    gram = h.conj().T @ h

    def usable(w):
        norms = np.linalg.norm(w, axis=0)
        return np.all(norms > 0) and np.all(np.isfinite(norms))

    try:
        w = h @ np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        w = None
    if w is None or not usable(w):
        w = h @ np.linalg.pinv(gram)
        if not usable(w):
            raise ValueError("channel matrix has a zero column; ZF undefined")
    return w / np.linalg.norm(w, axis=0) / math.sqrt(k)


def true_sum_se(w: np.ndarray, h_true: np.ndarray, pp: PrecodingProblem) -> float:
    """Sum rate in bits/s/Hz when the true channels meet the N x K precoder ``w``."""
    h = np.asarray(h_true, dtype=complex)
    cross = np.abs(h.conj().T @ w) ** 2  # [k, i] = |h_k^H f_i|^2
    sig = np.diag(cross)
    interference = cross.sum(axis=1) - sig
    noise = pp.noise_over_power * _power(w)
    return float(np.sum(np.log2(1.0 + sig / (interference + noise))))


def wmmse_precoder(h_true: np.ndarray, pp: PrecodingProblem, iters: int = 100,
                   tol: float = 1e-4) -> np.ndarray:
    """Alternating MMSE-receiver / weight / transmitter updates on true CSI.

    Runs under the sum power constraint until the relative sum-rate
    improvement drops below ``tol``.  Initialized from zero-forcing when
    K <= N, so every iteration, and hence the output, dominates plain ZF,
    and from matched filtering otherwise.  Later iterates are W = H B, B
    K x K: the nonzero eigenpairs (Lambda, H D^(1/2) Q Lambda^(-1/2)) of
    H D H^H, D = diag(v |u|^2), come from those of D^(1/2) H^H H D^(1/2).
    Raises ValueError for an all-zero user channel.  Returns the unit-norm
    N x K precoder.
    """
    h = np.asarray(h_true, dtype=complex)
    n, k = h.shape
    norms = np.linalg.norm(h, axis=0)
    if np.any(norms == 0):
        raise ValueError(f"channel column {np.argmax(norms == 0)} is all zero; WMMSE undefined")
    scale = float(np.max(norms))
    hs = h / scale
    sigma2 = pp.sigma2 / scale**2
    p = pp.power
    gram = hs.conj().T @ hs
    if k <= n:
        w = zf_precoder(hs) * math.sqrt(p)
    else:  # matched filtering
        w = hs / np.linalg.norm(hs, axis=0) * math.sqrt(p / k)

    def sum_rate(c):  # c[k, i] = h_k^H w_i
        cross = np.abs(c) ** 2
        sig = np.diag(cross)
        return float(np.sum(np.log2(1.0 + sig / (cross.sum(axis=1) - sig + sigma2))))

    c = hs.conj().T @ w
    rate = sum_rate(c)
    best_rate, best_b = rate, None  # None: the start w, exactly as scored
    for _ in range(iters):
        totals = np.sum(np.abs(c) ** 2, axis=1) + sigma2
        u = np.diag(c) / totals
        v = 1.0 / (1.0 - np.abs(np.diag(c)) ** 2 / totals)  # inverse MMSE

        sd = np.sqrt(v * np.abs(u) ** 2)
        eigval, q = np.linalg.eigh(sd[:, None] * gram * sd)
        # eigenpairs below rounding carry no power
        keep = eigval > k * np.finfo(float).eps * max(eigval[-1], 0.0)
        eigval, q = eigval[keep], q[:, keep] / np.sqrt(eigval[keep])
        g = (q.conj().T * sd) @ gram  # channels in the eigenbasis of H D H^H
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
        b = sd[:, None] * q @ ((g * coeff) / (eigval[:, None] + hi))
        c = gram @ b
        new_rate = sum_rate(c)
        if new_rate > best_rate:
            best_rate, best_b = new_rate, b
        if new_rate - rate <= tol * max(abs(rate), 1e-12):
            break
        rate = new_rate

    return _normalized(w if best_b is None else hs @ best_b)
