"""DL channel reconstruction from geometry plus quantized phase feedback.

The Bayesian estimate scales each path by eta(B) and uses the fed-back
phase; its conditional error covariance is a weighted sum of steering-vector
outer products, Phi = A diag(beta**2 * (1 - eta**2)) A^H.  A reconstruction
is a plain complex array, the N x (L+1) factor F = [hhat | E] with
E = A diag(sqrt(beta**2 * (1 - eta**2))): column 0 is the estimate, and
Phi = E E^H, so F F^H = hhat hhat^H + Phi; no N x N matrix is formed.
Diagnostics quantify how well F F^H stands in for the true channel outer
product.

Everything here takes a stack of path sets (..., L) and a feedback plan
for a budget grid in one pass: the steering matrices A and eta are computed
once per pass, the factors are (..., budgets, N, L+1), and the diagnostics
take the A and eta that the pass already holds.  Each stacked path set and
budget is computed as it would be alone, with the same BLAS calls.
"""

from __future__ import annotations

import numpy as np

from . import allocation, channel
from .channel import ArrayGeometry, PathSet
from .feedback import FeedbackPlan, budget_axis


def reconstruct_mmse(ps: PathSet, fp: FeedbackPlan, geom: ArrayGeometry) -> np.ndarray:
    """MSE-optimal estimate sum_l eta(B_l) * beta_l * exp(j q_l) * a(theta_l).

    ``ps`` may hold true or estimated parameters; the covariance is built
    from the same parameters.  Zero-bit paths contribute nothing to the
    estimate (eta(0) = 0) and fully to the covariance.  Returns the
    N x (L+1) factor [hhat | E], or for a budget grid's plan the
    (budgets, N, L+1) stack of them; a stack of path sets (..., L) adds its
    leading axes in front.
    """
    a = channel.steering_matrix(ps.thetas, geom.lambda_dl, geom)
    betas = ps.betas
    if budget_axis(ps, fp.bits):
        a, betas = a[..., None, :, :], betas[..., None, :]
    etas = allocation.eta(fp.bits)
    return mmse_factor(a, mmse_estimate(a, betas, etas, fp.q_values), betas, etas)


def mmse_estimate(a: np.ndarray, betas, etas, q_values) -> np.ndarray:
    """The MMSE estimate hhat (column 0 of reconstruct_mmse's factor) from the
    steering matrices ``a`` (..., N, L) and per-path arrays (..., L) that
    broadcast against them."""
    return channel.superpose(a, etas * betas * np.exp(1j * q_values))


def mmse_factor(a: np.ndarray, hhat: np.ndarray, betas, etas) -> np.ndarray:
    """[hhat | a diag(sqrt(beta**2 * (1 - eta**2)))], broadcasting the leading
    axes: reconstruct_mmse's factor, given mmse_estimate's hhat."""
    factor = np.empty((*hhat.shape, a.shape[-1] + 1), dtype=complex)
    factor[..., 0] = hhat
    np.multiply(a, np.sqrt(_error_weights(betas, etas))[..., None, :], out=factor[..., 1:])
    return factor


def reconstruct_no_feedback(ps: PathSet, geom: ArrayGeometry,
                            a: np.ndarray | None = None) -> np.ndarray:
    """Unit-phase estimate sum_l beta_l * a(theta_l) built from UL-side data only.

    No phase is known: the factor [hhat | E] is mmse_factor's at eta = 0, so
    E carries each path's whole power.  N x (L+1), or (..., N, L+1) for a
    stack of path sets; ``a`` is ps.thetas' DL steering matrix, if held.
    """
    if a is None:
        a = channel.steering_matrix(ps.thetas, geom.lambda_dl, geom)
    return mmse_factor(a, channel.superpose(a, ps.betas.astype(complex)), ps.betas, 0.0)


def _error_weights(betas: np.ndarray, etas: np.ndarray) -> np.ndarray:
    return betas**2 * (1.0 - etas**2)


def outer_error_norm(h_true: np.ndarray, hhat: np.ndarray, a: np.ndarray,
                     betas, etas) -> float | np.ndarray:
    """||Delta||_F^2 / N^2 without materializing any N x N matrix.

    Delta is a short sum of rank-one terms, U diag(s) U^H with
    U = [h, hhat, a_1..a_L] and s = [1, -1, -beta_l**2 (1 - eta_l**2)], so
    the squared norm reduces exactly to a Gram-matrix trace.  ``a`` is the
    steering matrix (N, L) of the paths, ``betas`` and ``etas`` hold one
    entry per path.  Leading axes broadcast: a budget grid's rows of
    ``hhat`` (budgets, N) and ``etas`` (budgets, L) give one norm per
    budget, and stacked path sets one per path set.
    """
    betas, etas = np.asarray(betas, dtype=float), np.asarray(etas, dtype=float)
    n, paths = a.shape[-2:]
    if (betas.shape[-1:] != (paths,) or etas.shape[-1:] != (paths,)
            or h_true.shape[-1:] != (n,) or hhat.shape[-1:] != (n,)):
        raise ValueError(f"got path arrays of shapes {betas.shape}, {etas.shape} and channels "
                         f"of shapes {h_true.shape}, {hhat.shape} for {paths} paths and "
                         f"{n} antennas")
    coeff = _error_weights(betas, etas)
    lead = np.broadcast_shapes(h_true.shape[:-1], hhat.shape[:-1], a.shape[:-2], coeff.shape[:-1])
    u = np.empty((*lead, n, paths + 2), dtype=complex)
    u[..., 0] = h_true
    u[..., 1] = hhat
    u[..., 2:] = a
    s = np.empty((*lead, paths + 2))
    s[..., 0], s[..., 1] = 1.0, -1.0
    np.negative(coeff, out=s[..., 2:])
    # a stack of Gram matrices, each the same BLAS call as for one budget
    gram = u.conj().swapaxes(-1, -2) @ u
    sg = s[..., :, None] * gram
    trace = np.trace(sg @ sg, axis1=-2, axis2=-1).real
    # the trace is a squared norm; cancellation can leave a tiny negative
    norms = np.where(trace < 0.0, 0.0, trace) / n**2
    return norms if norms.ndim else float(norms)


def _square(x: np.ndarray) -> np.ndarray:
    """x**2 element by element through libm pow.

    A float64 scalar's ``x**2`` calls pow, but an array's is x*x, and the
    two differ in the last bit for about 1 in 1200 values; the large-array
    limit squares as the scalar does.  np.float_power calls libm pow per
    element, where np.power squares by x*x or, on AVX-512, by its own pow.
    """
    return np.float_power(x, 2.0)


def asymptotic_delta_norm(betas, etas, deltas) -> float | np.ndarray:
    """Large-array limit of ||Delta||_F^2 / N^2 conditioned on the phase errors.

    Equals the squared Frobenius norm of the path-domain residual matrix,
    whose only nonzero entries are the cross-path terms
    beta_l beta_l' * (exp(j(delta_l - delta_l')) - eta_l eta_l'), i.e.

        sum over ordered pairs l != l' of
        (beta_l beta_l')**2 * (1 + (eta_l eta_l')**2
                               - 2 |eta_l eta_l'| cos(delta_l - delta_l')),

    equivalently twice that expression per unordered pair, with eta_l the
    compensation factor eta(B_l) of path l's bits.  Perfect feedback
    (eta = 1, delta = 0) cancels every pair exactly.  ``etas`` and ``deltas``
    hold one entry per path, or one row per budget of a grid, which gives
    one value per budget; leading axes of ``betas`` broadcast against them,
    so stacked path sets give one value per path set and budget.  The
    ordered pairs are summed left to right, l before l', from 0.0.
    """
    betas = np.asarray(betas, dtype=float)
    etas = np.asarray(etas, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if not (betas.ndim >= 1 and etas.ndim >= 1 and deltas.shape == etas.shape
            and betas.shape[-1] == etas.shape[-1]
            and np.broadcast_shapes(betas.shape, etas.shape) == etas.shape):
        raise ValueError("betas, etas, and deltas must have matching lengths")
    left, right = np.nonzero(~np.eye(betas.shape[-1], dtype=bool))
    ee = etas[..., left] * etas[..., right]
    terms = _square(betas[..., left] * betas[..., right]) * (
        1.0 + _square(ee) - 2.0 * np.abs(ee) * np.cos(deltas[..., left] - deltas[..., right]))
    # np.cumsum adds in order, where np.sum would add pairwise
    start = np.zeros((*terms.shape[:-1], 1))
    total = np.cumsum(np.concatenate((start, terms), axis=-1), axis=-1)[..., -1]
    return total if total.ndim else float(total)
