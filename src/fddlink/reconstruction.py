"""DL channel reconstruction from geometry plus quantized phase feedback.

The Bayesian estimate scales each path by eta(B) and uses the fed-back
phase; its conditional error covariance is a weighted sum of steering-vector
outer products, Phi = A diag(beta**2 * (1 - eta**2)) A^H.  A reconstruction
is a plain complex array, the N x (L+1) factor F = [hhat | E] with
E = A diag(sqrt(beta**2 * (1 - eta**2))): column 0 is the estimate, and
Phi = E E^H, so F F^H = hhat hhat^H + Phi; no N x N matrix is formed.
Diagnostics quantify how well F F^H stands in for the true channel outer
product.

A feedback plan for a budget grid reconstructs every budget at once: the
steering matrix and eta are computed once per path set for all budgets, the
factors take a leading budget axis, and so do the diagnostics.
"""

from __future__ import annotations

import math

import numpy as np

from .allocation import eta
from .channel import ArrayGeometry, PathSet, steering_matrix
from .feedback import FeedbackPlan


def reconstruct_mmse(ps: PathSet, fp: FeedbackPlan, geom: ArrayGeometry) -> np.ndarray:
    """MSE-optimal estimate sum_l eta(B_l) * beta_l * exp(j q_l) * a(theta_l).

    ``ps`` may hold true or estimated parameters; the covariance is built
    from the same parameters.  Zero-bit paths contribute nothing to the
    estimate (eta(0) = 0) and fully to the covariance.  Returns the
    N x (L+1) factor [hhat | E], or for a budget grid's plan the
    (budgets, N, L+1) stack of them.
    """
    if len(fp) != len(ps):
        raise ValueError(f"feedback plan has {len(fp)} entries for {len(ps)} paths")
    a = steering_matrix(ps.thetas, geom.lambda_dl, geom)
    etas = eta(fp.bits)
    gains = etas * ps.betas * np.exp(1j * fp.q_values)
    factor = np.empty((*gains.shape[:-1], geom.num_antennas, len(ps) + 1), dtype=complex)
    # a stack of matrix-vector products, each the same BLAS call as a @ gains[g]
    factor[..., 0] = (a @ gains[..., None])[..., 0]
    np.multiply(a, np.sqrt(_error_weights(ps.betas, etas))[..., None, :], out=factor[..., 1:])
    return factor


def reconstruct_no_feedback(ps: PathSet, geom: ArrayGeometry) -> np.ndarray:
    """Unit-phase estimate sum_l beta_l * a(theta_l) built from UL-side data only.

    No phase information exists, so the covariance carries each path's whole
    power (the zero-bit limit).  Returns the N x (L+1) factor [hhat | E].
    """
    a = steering_matrix(ps.thetas, geom.lambda_dl, geom)
    weights = _error_weights(ps.betas, np.zeros(len(ps)))
    return np.column_stack((a @ ps.betas.astype(complex), a * np.sqrt(weights)))


def _error_weights(betas: np.ndarray, etas: np.ndarray) -> np.ndarray:
    return betas**2 * (1.0 - etas**2)


def outer_error_norm(h_true: np.ndarray, hhat: np.ndarray,
                     ps: PathSet, bits, geom: ArrayGeometry) -> float | np.ndarray:
    """||Delta||_F^2 / N^2 without materializing any N x N matrix.

    Delta is a short sum of rank-one terms, U diag(s) U^H with
    U = [h, hhat, a_1..a_L], so the squared norm reduces exactly to a
    Gram-matrix trace.
    ``bits`` holds one count per path, or one row per budget of a grid with
    the matching rows of ``hhat`` (shape (budgets, N)); a grid gives one
    norm per budget.
    """
    bits = np.asarray(bits)
    if bits.ndim not in (1, 2) or bits.shape[-1] != len(ps):
        raise ValueError(f"got bit counts of shape {bits.shape} for {len(ps)} paths")
    coeff = _error_weights(ps.betas, eta(bits))
    lead, n = coeff.shape[:-1], h_true.shape[0]
    u = np.empty((*lead, n, len(ps) + 2), dtype=complex)
    u[..., 0] = h_true
    u[..., 1] = hhat
    u[..., 2:] = steering_matrix(ps.thetas, geom.lambda_dl, geom)
    s = np.empty((*lead, len(ps) + 2))
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
    limit squares as the scalar does.
    """
    return np.array([math.pow(v, 2.0) for v in x.ravel().tolist()]).reshape(x.shape)


def asymptotic_delta_norm(betas, bits, deltas) -> float | np.ndarray:
    """Large-array limit of ||Delta||_F^2 / N^2 conditioned on the phase errors.

    Equals the squared Frobenius norm of the path-domain residual matrix,
    whose only nonzero entries are the cross-path terms
    beta_l beta_l' * (exp(j(delta_l - delta_l')) - eta_l eta_l'), i.e.

        sum over ordered pairs l != l' of
        (beta_l beta_l')**2 * (1 + (eta_l eta_l')**2
                               - 2 |eta_l eta_l'| cos(delta_l - delta_l')),

    equivalently twice that expression per unordered pair.  Perfect feedback
    (eta = 1, delta = 0) cancels every pair exactly.  ``bits`` and ``deltas``
    hold one entry per path, or one row per budget of a grid, which gives
    one value per budget.  The ordered pairs are summed left to right, l
    before l', from 0.0.
    """
    betas = np.asarray(betas, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    etas = eta(np.asarray(bits))
    if not (betas.ndim == 1 and deltas.shape == etas.shape
            and etas.ndim in (1, 2) and etas.shape[-1] == betas.shape[0]):
        raise ValueError("betas, bits, and deltas must have matching lengths")
    left, right = np.nonzero(~np.eye(betas.shape[0], dtype=bool))
    ee = etas[..., left] * etas[..., right]
    terms = _square(betas[left] * betas[right]) * (
        1.0 + _square(ee) - 2.0 * np.abs(ee) * np.cos(deltas[..., left] - deltas[..., right]))
    # np.cumsum adds in order, where np.sum would add pairwise
    start = np.zeros((*terms.shape[:-1], 1))
    total = np.cumsum(np.concatenate((start, terms), axis=-1), axis=-1)[..., -1]
    return total if total.ndim else float(total)
