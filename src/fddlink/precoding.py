"""Multi-user downlink precoding on reconstructed CSI.

A precoder is an N x K complex array whose column k is user k's beamformer.
Its total power, and the norm that normalizes it, are summed user by user
(column 0 first), so values do not depend on the array's memory layout.
A problem holds the users' reconstruction factors V_k = [hhat_k | E_k] as
one N x K x R array (R = L + 1 for the MMSE and no-feedback estimates, 1
without an error model), so the effective covariance
C_k = hhat_k hhat_k^H + Phi_k = V_k V_k^H is never formed as an N x N
matrix.  The sum-spectral-efficiency lower bound is a product of
Rayleigh-quotient ratios of block-diagonal matrices built from these
covariances.  Its stationary points solve a generalized eigenvalue
condition, which the power-iteration solver (GPIP) chases.  The solver first
cuts each problem's factors to their numerical rank r by one thin SVD per
user (the MMSE and no-feedback factors A [g | diag(sqrt(w))], A the N x L
steering matrix, have rank L, not L + 1) and takes one QR of [V | W0], W0
the start, so N enters a solve only at the SVD, that QR and the returned
precoder.  The SE sweep hands it MMSE and no-feedback factors as KL x K x R
coordinates in a basis of the estimated steering vectors
(harness._signal_basis).  The GPI map's pieces (_gpi_setup, _gpi_logs,
_gpi_weights) serve the solver and stationarity_residual alike.  A step's K
leave-one-user-out capacitance systems are principal submatrices of one
Kr x Kr Hermitian positive-definite matrix, solved together by recursive
block elimination.
One lockstep loop runs all problems of one reduced shape, one batched call
per step; gpip_solve_batch groups problems by shape, and gpip_solve is a
batch of one.  Zero-forcing and WMMSE serve as baselines; WMMSE iterates on
the K x K Gram matrix of the channels.  Zero-forcing and the two SE scores
also take stacks of points (..., N, K), each point's result bit-equal to its
own call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class PointError(ValueError):
    """Raised when a result is undefined for some point of a stack.

    ``reason`` says why; ``point`` is the index, in C order over the leading
    axes of a stack, of the first point it is undefined for, which the
    message then names, and None when the whole input is at fault.
    """

    def __init__(self, reason: str, point: int | None = None):
        super().__init__(reason if point is None else f"point {point}: {reason}")
        self.reason = reason
        self.point = point


class ZfError(PointError):
    """Raised when zero-forcing is undefined."""


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
    C_k = factors[:, k] @ factors[:, k]^H.  sigma2 holds per-user noise
    powers in watts.  A stack of problems (..., N, K, R) that share sigma2,
    with one power or one per problem (...), serves the SE scores
    (true_sum_se, sum_se_lower_bound); the solvers take one problem.
    """

    factors: np.ndarray
    sigma2: np.ndarray
    power: float

    def __post_init__(self):
        factors = np.ascontiguousarray(self.factors, dtype=complex)
        if factors.ndim < 3 or factors.shape[-1] < 1:
            raise ValueError("factors must be N x K x R, or a stack of them, with R >= 1, "
                             f"got shape {factors.shape}")
        k = factors.shape[-2]
        sigma2 = np.atleast_1d(np.asarray(self.sigma2, dtype=float))
        if sigma2.shape == (1,):
            sigma2 = np.full(k, sigma2[0])
        if sigma2.shape != (k,):
            raise ValueError(f"sigma2 must have {k} entries")
        if not np.all((sigma2 > 0) & np.isfinite(sigma2)):
            raise ValueError("noise powers must be positive and finite")
        power = np.asarray(self.power, dtype=float)
        if power.shape not in ((), factors.shape[:-3]):
            raise ValueError(f"got powers of shape {power.shape} for problems of shape "
                             f"{factors.shape[:-3]}")
        if not np.all((power > 0) & np.isfinite(power)):
            raise ValueError(f"transmit power must be positive and finite, got {self.power}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "sigma2", sigma2)
        if power.ndim:
            object.__setattr__(self, "power", power)

    @property
    def hhat(self) -> np.ndarray:
        """N x K estimates (..., N, K for a stack), column 0 of each user's factor."""
        return self.factors[..., 0]

    @property
    def num_antennas(self) -> int:
        return self.factors.shape[-3]

    @property
    def num_users(self) -> int:
        return self.factors.shape[-2]

    @property
    def noise_over_power(self) -> np.ndarray:
        """sigma2 / power, (..., K) for a stack with one power per problem."""
        power = self.power
        return self.sigma2 / (power[..., None] if isinstance(power, np.ndarray) else power)


def _one_problem(pp: PrecodingProblem) -> None:
    """Reject a stack of problems, which only the SE scores take."""
    if pp.factors.ndim != 3:
        raise ValueError(f"expected one problem, got a stack of shape {pp.factors.shape}")


@dataclass(frozen=True)
class GpipConfig:
    """Stopping rule for the power-iteration solver."""

    epsilon: float = 1e-4
    max_iter: int = 50

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class GpipResult:
    """Solver output: the N x K unit-norm precoder plus convergence diagnostics.

    ``f`` owns its memory; ``log_gamma`` is the natural log of the objective
    (product of the users' ratios) at ``f``, which itself can exceed the
    float range at high SNR with many users.
    """

    f: np.ndarray
    log_gamma: float
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
    """(K*R) x K matrix V^H W of the flattened factors against the precoder
    columns, for each problem of a stack (..., N, K, R) and (..., N, K)."""
    *lead, n, k, r = v.shape
    return v.reshape(*lead, n, k * r).conj().swapaxes(-1, -2) @ w


def _power(w: np.ndarray) -> np.ndarray:
    """||W||_F^2 of each precoder of a stack (..., N, K), summed user by user,
    as a (..., 1) array."""
    u = w.swapaxes(-1, -2).reshape(*w.shape[:-2], 1, -1)
    return np.vecdot(u, u).real  # the BLAS call of np.vdot(u, u) for each precoder


def _normalized(w: np.ndarray) -> np.ndarray:
    """W / ||W||_F, the norm summed user by user."""
    norm = np.linalg.norm(w.T.ravel())
    if norm == 0:
        raise ValueError("cannot normalize an all-zero precoder")
    return w / norm


def sum_se_lower_bound(w: np.ndarray, pp: PrecodingProblem) -> float | np.ndarray:
    """Achievable-rate lower bound in bits/s/Hz of the N x K precoder ``w``
    given the reconstructed CSI: log2 of the product of the users' ratios.

    Noise enters as sigma2/P scaled by ||W||_F^2, so the value depends only
    on the precoder's direction and matches the unit-norm convention exactly.
    A stack of precoders (..., N, K) and of problems gives one bound per
    point (...), each bit-equal to the point's own call.  A user's SINR
    that is undefined at rounding raises PointError (_require_sinr).
    """
    with np.errstate(all="ignore"):  # _require_sinr names a zero or overflowing form
        q_num, q_den = _ratios(_projections(pp.factors, w), pp.noise_over_power * _power(w))
    _require_sinr(q_den, q_num)
    return np.sum(np.log2(q_num) - np.log2(q_den), axis=-1)


def _require_sinr(den: np.ndarray, finite: np.ndarray) -> None:
    """Raise PointError unless each user's interference-plus-noise form
    ``den`` (..., K) is positive and finite at rounding and ``finite`` is
    finite: the error names the first such point and, in it, the first user.
    """
    bad = ~((den > 0) & np.isfinite(den) & np.isfinite(finite))
    if bad.any():
        *point, user = np.argwhere(bad)[0]
        raise PointError(f"user {user}'s SINR is undefined at rounding (interference plus "
                         "noise is zero or a quadratic form is not finite); SE undefined",
                         point=int(np.ravel_multi_index(point, bad.shape[:-1])) if point else None)


def _scaled_problem(pp: PrecodingProblem):
    """Factors and noise terms under one common positive rescaling.

    The objective, iterates, and stationarity residual are invariant under
    one shared scale of all covariances and noise terms; this keeps products
    of quadratic forms inside float64 range for channels with realistic
    (tiny) path gains.  The scale is the larger of max_k trace(C_k) / N,
    with trace(C_k) = ||V[:, k]||_F^2, and the largest noise term.
    """
    _one_problem(pp)
    v = pp.factors
    traces = np.sum(v.real**2 + v.imag**2, axis=(0, 2))
    scale = max(float(np.max(traces)) / pp.num_antennas,
                float(np.max(pp.noise_over_power)))
    if not np.isfinite(scale) or scale <= 0:
        raise GpipError(f"degenerate problem scale {scale}")
    return v / math.sqrt(scale), pp.noise_over_power / scale


def _default_init(pp: PrecodingProblem, lead: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Zero-forcing start; degenerate columns fall back to dominant directions.

    lead[j] is the leading left singular vector of user j's factor, the
    dominant eigenvector of C_j, and top[j] its singular value; a user with
    an all-zero factor falls back to the all-ones direction.
    """
    n, k = pp.num_antennas, pp.num_users
    cols = pp.hhat.copy()
    norms = np.linalg.norm(cols, axis=0)
    floor = 1e-12 * max(norms.max(), 1e-300)
    for j in np.nonzero(norms <= floor)[0]:
        cols[:, j] = lead[j] if top[j] > 0 else np.ones(n) / math.sqrt(n)
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


def _reduced_problem(pp: PrecodingProblem):
    """Scaled factors cut to their numerical rank, the noise terms and the start.

    The thin SVD V_k = U_k diag(s_k) W_k^H of each user's scaled factor gives
    C_k = V'_k V'_k^H with V'_k = U_k diag(s_k).  Every user keeps the
    leading r columns of V'_k, where r is the largest count over the users
    of singular values above R eps s_max (at least 1); the columns past a
    user's own rank are zero up to rounding.  The MMSE and no-feedback
    factors A [g | diag(sqrt(w))] have rank L, so their r is L, not R = L + 1.
    The SVD, unlike an eigendecomposition of V_k^H V_k, does not square the
    factor's condition number.  Returns the N x K x r factors, the noise
    terms and the unit-norm start W0 (_default_init), which the leading left
    singular vectors serve.
    """
    v, noise = _scaled_problem(pp)
    u, s, _ = np.linalg.svd(v.transpose(1, 0, 2), full_matrices=False)
    tol = v.shape[2] * np.finfo(float).eps * s[:, :1]
    r = max(int(np.sum(s > tol, axis=1).max()), 1)
    reduced = (u[:, :, :r] * s[:, None, :r]).transpose(1, 0, 2)
    return reduced, noise, _normalized(_default_init(pp, u[:, :, 0], s[:, 0]))


def _leave_one_block_out(gram: np.ndarray, s: np.ndarray, d: np.ndarray, y: np.ndarray,
                         r: int) -> np.ndarray:
    """Matrices Z whose column j solves t z = y[:, j] with block j removed.

    For each of the S problems on the leading axis, t = diag(d) + D G D with
    D = diag(s) is Pr x Pr Hermitian positive definite with P = 2^d >= 2
    blocks of r rows and columns, and y is Pr x P; column j of the problem's
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
    the reduced factor stack (user k's r columns side by side, r = L for the
    MMSE and no-feedback factors; see _reduced_problem) as d x Kr
    coordinates in an orthonormal basis, given as vc = conj(V), with rhs in
    that basis; gram is V^H V padded with zeros to Pr x Pr, where P is K
    rounded up to a power of two.  With S = diag(sqrt(wb)) repeated over
    each user's r columns and the Kr x Kr capacitance matrix
    M = c I + S G S (KL x KL, not K(L+1) x K(L+1), for those factors), the
    Woodbury identity gives

        x_j = (rhs_j - V S z_j) / c,

    where z_j solves M z = S V^H rhs_j with user j's block of M removed and
    is zero on that block.  Each of those K systems is a principal submatrix
    of the one Hermitian positive-definite M, and _leave_one_block_out solves
    them all by recursive block elimination: about (Kr)^3 flops and
    O(log K) batched solves per call, instead of K factorizations per
    problem.  M is padded to Pr with decoupled identity blocks and zero
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
    rest = logs.sum(axis=-1, keepdims=True) - logs
    return np.exp(rest - rest.max(axis=-1, keepdims=True))


def _gpi_setup(v: np.ndarray, w: np.ndarray):
    """One problem's GPI coordinates: [V | W] = Q R for its N x K x r factors
    V and the N x K precoder W.

    GPI iterates stay in the span of V and the start, so the map runs in the
    N x d basis Q, d = min(N, Kr + K).  Returns Q and, in it, conj(V)
    (d x Kr), the Gram matrix V^H V and W (d x K).
    """
    n, k, r = v.shape
    basis, coords = np.linalg.qr(np.concatenate((v.reshape(n, k * r), w), axis=1))
    vc = np.conjugate(coords[:, :k * r])
    return basis, vc, vc.T @ coords[:, :k * r], coords[:, k * r:]


def _gpi_logs(vc: np.ndarray, noise: np.ndarray, cols: np.ndarray):
    """Projections p = V^H F, each user's log ratios la (numerator) and lb
    (denominator) and the log objective at the unit-norm iterate F, for one
    problem or a stack in _gpi_setup's coordinates.  As q_den <= q_num, the
    objective is finite exactly when every q_num is finite and q_den positive.
    """
    p = vc.swapaxes(-1, -2) @ cols
    q_num, q_den = _ratios(p, noise)  # ||f|| = 1
    la, lb = np.log(q_num), np.log(q_den)
    return p, la, lb, la.sum(axis=-1) - lb.sum(axis=-1)


def _gpi_weights(vc: np.ndarray, noise: np.ndarray, cols: np.ndarray, p: np.ndarray,
                 la: np.ndarray, lb: np.ndarray):
    """wb = _log_weights(lb) and, with wa = _log_weights(la), the A-side images
    sum_k wa_k C_k f_j + (wa . noise) f_j, formed in the buffer of ``cols``."""
    wa, wb = _log_weights(la), _log_weights(lb)
    r = vc.shape[-1] // wa.shape[-1]
    cols *= np.sum(wa * noise, axis=-1)[..., None, None]
    cols += _factor_product(vc, np.repeat(wa, r, axis=-1)[..., None] * p)
    return wb, cols


def _compact(arrays: dict, keep: np.ndarray) -> None:
    """Keep the rows ``keep`` of each array, one at a time: old copies do not pile up."""
    for name in arrays:
        arrays[name] = arrays[name][keep]


def _power_iteration(reduced: list, members: list, cfg: GpipConfig,
                     results: list, errors: dict) -> None:
    """Solve problem members[pos], reduced[pos] its _reduced_problem, for every
    input position pos in lockstep; all share one reduced factor shape.

    The running problems' arrays sit in ``live``, one row each, compacted on
    iterations where some problem left.  A problem leaves with its result in
    results[i], or its message in errors[i]; the bases are read only then.
    """
    n, k, r = reduced[0][0].shape
    pr = (1 << (k - 1).bit_length()) * r  # _denominator_solve pads the Gram matrix to pr
    size, d = len(reduced), min(n, k * r + k)
    bases = np.empty((size, n, d), dtype=complex)
    live = {"pos": np.arange(size), "noise": np.array([x[1] for x in reduced]),
            "vc": np.empty((size, d, k * r), dtype=complex),
            "gram": np.zeros((size, pr, pr), dtype=complex),
            "cols": np.empty((size, d, k), dtype=complex)}
    for pos, (v, _, w0) in enumerate(reduced):
        bases[pos], live["vc"][pos], live["gram"][pos, :k * r, :k * r], live["cols"][pos] = (
            _gpi_setup(v, w0))
    running = np.ones(len(reduced), dtype=bool)

    def leave(mask, error=None, stop=None):
        # running problems in mask leave with the message ``error``, or with
        # their best iterate and stop = (iterations, converged)
        mask &= running
        if not mask.any():
            return
        for row in np.flatnonzero(mask):
            pos = live["pos"][row]
            if error is None:
                results[members[pos]] = GpipResult(
                    bases[pos] @ live["best_cols"][row], float(live["best_lg"][row]), *stop)
            else:
                errors[members[pos]] = error
        running[mask] = False

    live["p"], live["la"], live["lb"], live["lg"] = _gpi_logs(
        live["vc"], live["noise"], live["cols"])
    live["best_lg"], live["best_cols"] = live["lg"], live["cols"].copy()
    leave(~np.isfinite(live["lg"]), "non-finite or non-positive quadratic forms")

    for iterations in range(1, cfg.max_iter + 1):
        if not running.all():
            _compact(live, running)
            running = running[running]
            if not running.size:
                return
        wb, rhs = _gpi_weights(live["vc"], live["noise"], live.pop("cols"), live.pop("p"),
                               live["la"], live["lb"])
        c = np.sum(wb * live["noise"], axis=1)
        try:
            cols = _denominator_solve(live["vc"], live["gram"], wb, c, rhs)
        except np.linalg.LinAlgError:
            # find the failed problems one at a time; the others keep their step
            cols = np.full_like(rhs, np.nan)
            for row in range(running.size):
                one = slice(row, row + 1)
                try:
                    cols[one] = _denominator_solve(live["vc"][one], live["gram"][one], wb[one],
                                                   c[one], rhs[one])
                except np.linalg.LinAlgError:
                    s = np.sqrt(np.repeat(wb[row], r))
                    m = s[:, None] * live["gram"][row, :k * r, :k * r] * s + c[row] * np.eye(k * r)
                    leave(np.arange(running.size) == row, "denominator block solve failed "
                          f"(condition estimate {float(np.linalg.cond(m)):.3e})")
        flat = cols.reshape(running.size, -1).view(float)
        cols /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None, None]
        live["cols"] = cols

        live["p"], live["la"], live["lb"], lg = _gpi_logs(live["vc"], live["noise"], cols)
        leave(~np.isfinite(lg), "non-finite or non-positive quadratic forms")
        improved = lg > live["best_lg"]
        live["best_lg"] = np.where(improved, lg, live["best_lg"])
        np.copyto(live["best_cols"], cols, where=improved[:, None, None])
        leave(np.abs(np.expm1(lg - live["lg"])) < cfg.epsilon, stop=(iterations, True))
        live["lg"] = lg
    leave(running, stop=(cfg.max_iter, False))


def gpip_solve_batch(problems: list[PrecodingProblem],
                     cfg: GpipConfig | None = None) -> list[GpipResult]:
    """Generalized power iteration for many product-of-ratios problems at once.

    Each problem's factors are first cut to their numerical rank r
    (_reduced_problem).  Each iteration is the GPI map: the weights and
    A-side images (_gpi_weights), then user j's block through the inverse of
    its denominator matrix c I + sum_{k != j} w_k C_k, in Woodbury form over
    the rank-r factors with one recursive block elimination of a Kr x Kr
    matrix for all K users (_denominator_solve), then renormalization and the
    logs (_gpi_logs).  A problem stops once the relative improvement of its
    objective falls below cfg.epsilon, and its iterate with the largest
    objective seen, including the zero-forcing start, is returned, so the
    result never falls below the initial point.

    Problems with one reduced shape (N, K, r) run in one lockstep loop
    (_power_iteration): every step is a handful of batched calls over all of
    them, whose per-call cost on small matrices would otherwise repeat for
    each problem.  A problem leaves the batch when it stops or fails, and the
    others go on unchanged, so each result is the one a solve of that problem
    alone gives: bit-equal for a fixed BLAS thread count, whatever else the
    batch holds.  Results come
    back in input order.  If any problem failed, the GpipError of the first
    failed one in input order is raised once all have run; its ``problem``
    is that index.
    """
    cfg = cfg or GpipConfig()
    results: list = [None] * len(problems)
    errors: dict[int, str] = {}
    reduced: dict[int, tuple] = {}
    groups: dict[tuple, list] = {}
    # a problem whose values leave the finite range is dropped with a GpipError
    with np.errstate(all="ignore"):
        for i, pp in enumerate(problems):
            try:
                reduced[i] = _reduced_problem(pp)
            except GpipError as exc:
                errors[i] = str(exc)
            else:
                groups.setdefault(reduced[i][0].shape, []).append(i)
        for members in groups.values():
            _power_iteration([reduced.pop(i) for i in members], members, cfg, results, errors)
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
    aggregate_num(w) w = gamma(w) * aggregate_den(w) w.  The GPI map's pieces
    give the A side in the basis of [V | w]; only the B-side image is added
    here.  Raises ValueError for an all-zero precoder.
    """
    v, noise = _scaled_problem(pp)
    n, k, r = v.shape
    _, vc, _, cols = _gpi_setup(v, _normalized(w))
    p, la, lb, _ = _gpi_logs(vc, noise, cols)
    wb, num_img = _gpi_weights(vc, noise, cols.copy(), p, la, lb)
    others = np.repeat(wb[:, None] * (1.0 - np.eye(k)), r, axis=0)
    den_img = _factor_product(vc, others * p) + float(wb @ noise) * cols
    # gamma on the A side's scale: _log_weights scales wa and wb each by its
    # largest weight, and gamma max(wb) / max(wa) = exp(min la - min lb)
    den_img *= math.exp(la.min() - lb.min())
    return float(np.linalg.norm(num_img - den_img) / np.linalg.norm(num_img))


def zf_precoder(hhat: np.ndarray) -> np.ndarray:
    """Zero-forcing precoder: pseudo-inverse directions at equal per-user power.

    When the Gram matrix cannot be inverted, as when users share one DFT
    codeword, the Moore-Penrose pseudo-inverse gives the minimum-norm
    least-squares directions instead.  Only an all-zero channel column
    leaves ZF undefined (ZfError).  Returns the unit-norm N x K precoder.

    A stack of channels (..., N, K) gives a stack of precoders, each
    bit-equal to the point's own call: the Gram matrices are inverted in one
    batched call, and a point whose inverse fails or is unusable falls back
    to its own pseudo-inverse.  The ZfError of a zero column names the first
    such point.
    """
    h = np.asarray(hhat, dtype=complex)
    n, k = h.shape[-2:]
    if k > n:
        raise ZfError(f"zero-forcing needs K <= N, got K={k}, N={n}")
    points = h.reshape(-1, n, k)
    gram = points.conj().swapaxes(-1, -2) @ points

    def unusable(norms):
        return ~np.all((norms > 0) & np.isfinite(norms), axis=-1)

    try:
        w = points @ np.linalg.inv(gram)
    except np.linalg.LinAlgError:  # some Gram matrix is singular: invert point by point
        w = np.full_like(points, np.nan)
        for i, g in enumerate(gram):
            try:
                w[i] = points[i] @ np.linalg.inv(g)
            except np.linalg.LinAlgError:
                pass
    norms = np.linalg.norm(w, axis=-2)  # of each point's columns
    for i in np.flatnonzero(unusable(norms)):
        w[i] = points[i] @ np.linalg.pinv(gram[i])
        norms[i] = np.linalg.norm(w[i], axis=0)
    bad = np.flatnonzero(unusable(norms))
    if bad.size:
        raise ZfError("channel matrix has a zero column; ZF undefined",
                      point=int(bad[0]) if h.ndim > 2 else None)
    w /= norms[:, None, :]
    w /= math.sqrt(k)
    return w.reshape(h.shape)


def true_sum_se(w: np.ndarray, h_true: np.ndarray, pp: PrecodingProblem) -> float | np.ndarray:
    """Sum rate in bits/s/Hz when the true channels meet the N x K precoder ``w``.

    A stack of precoders (..., N, K) and of problems gives one rate per point
    (...), each bit-equal to the point's own call; ``h_true`` broadcasts.  A
    user's SINR that is undefined at rounding raises PointError (_require_sinr).
    """
    h = np.asarray(h_true, dtype=complex)
    with np.errstate(all="ignore"):  # _require_sinr names a zero or overflowing form
        cross = np.abs(h.conj().swapaxes(-1, -2) @ w) ** 2  # [..., k, i] = |h_k^H f_i|^2
        sig = np.diagonal(cross, axis1=-2, axis2=-1)
        den = cross.sum(axis=-1) - sig + pp.noise_over_power * _power(w)
        sinr = sig / den
    _require_sinr(den, sinr)
    return np.sum(np.log2(1.0 + sinr), axis=-1)


def wmmse_precoder(h_true: np.ndarray, pp: PrecodingProblem, iters: int = 100,
                   tol: float = 1e-4) -> np.ndarray:
    """Alternating MMSE-receiver / weight / transmitter updates on true CSI.

    Runs under the sum power constraint until the relative sum-rate
    improvement drops below ``tol``.  Initialized from zero-forcing when
    K <= N, so every iteration, and hence the output, dominates plain ZF,
    and from matched filtering otherwise.  Later iterates are W = H B, B
    K x K: the nonzero eigenpairs (Lambda, H D^(1/2) Q Lambda^(-1/2)) of
    H D H^H, D = diag(v |u|^2), come from those of D^(1/2) H^H H D^(1/2).
    Raises ValueError for an all-zero user channel or a user whose MMSE
    receiver saturates (its MMSE is not positive at rounding, so its weight
    1/MMSE is undefined).  Returns the unit-norm N x K precoder.
    """
    _one_problem(pp)
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

    def receivers(c):  # MMSE receivers u and inverse MMSEs v
        totals = np.sum(np.abs(c) ** 2, axis=1) + sigma2
        with np.errstate(divide="ignore", invalid="ignore"):
            mmse = 1.0 - np.abs(np.diag(c)) ** 2 / totals
        if not np.all(mmse > 0):
            raise ValueError(f"user {np.argmin(mmse > 0)}'s MMSE receiver saturated (interference "
                             "plus noise is zero at rounding); WMMSE undefined")
        return np.diag(c) / totals, 1.0 / mmse

    c = hs.conj().T @ w
    u, v = receivers(c)
    rate = sum_rate(c)
    best_rate, best_b = rate, None  # None: the start w, exactly as scored
    for _ in range(iters):
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
        u, v = receivers(c)
        new_rate = sum_rate(c)
        if new_rate > best_rate:
            best_rate, best_b = new_rate, b
        if new_rate - rate <= tol * max(abs(rate), 1e-12):
            break
        rate = new_rate

    return _normalized(w if best_b is None else hs @ best_b)
