"""DL channel reconstruction from geometry plus quantized phase feedback.

The Bayesian estimate scales each path by eta(B) and uses the fed-back
phase; its conditional error covariance is a weighted sum of steering-vector
outer products.  Diagnostics quantify how well hhat*hhat^H + Phi stands in
for the true channel outer product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import eta
from .channel import ArrayGeometry, PathSet, steering_matrix
from .feedback import FeedbackPlan


@dataclass(frozen=True)
class ReconstructedChannel:
    """Channel estimate, its error covariance, and the mode that produced it."""

    hhat: np.ndarray
    error_cov: np.ndarray
    mode: str


def reconstruct_mmse(ps: PathSet, fp: FeedbackPlan, geom: ArrayGeometry) -> ReconstructedChannel:
    """MSE-optimal estimate sum_l eta(B_l) * beta_l * exp(j q_l) * a(theta_l).

    ``ps`` may hold true or estimated parameters; the covariance is built
    from the same parameters.  Zero-bit paths contribute nothing to the
    estimate (eta(0) = 0) and fully to the covariance.
    """
    if len(fp) != len(ps):
        raise ValueError(f"feedback plan has {len(fp)} entries for {len(ps)} paths")
    a = steering_matrix(ps.thetas, geom.lambda_dl, geom)
    etas = eta(fp.bits)
    gains = etas * ps.betas * np.exp(1j * fp.q_values)
    hhat = a @ gains
    phi = _covariance_from_factors(a, ps.betas, etas)
    return ReconstructedChannel(hhat=hhat, error_cov=phi, mode="mmse")


def reconstruct_no_feedback(ps: PathSet, geom: ArrayGeometry) -> ReconstructedChannel:
    """Unit-phase estimate sum_l beta_l * a(theta_l) built from UL-side data only.

    No phase information exists, so the covariance carries each path's whole
    power (the zero-bit limit).
    """
    a = steering_matrix(ps.thetas, geom.lambda_dl, geom)
    hhat = a @ ps.betas.astype(complex)
    phi = _covariance_from_factors(a, ps.betas, np.zeros(len(ps)))
    return ReconstructedChannel(hhat=hhat, error_cov=phi, mode="no_feedback_unit_phase")


def reconstruct_dft(hhat: np.ndarray, geom: ArrayGeometry) -> ReconstructedChannel:
    """Wrap a DFT-codebook estimate; no covariance model exists for it."""
    n = geom.num_antennas
    return ReconstructedChannel(hhat=np.asarray(hhat),
                                error_cov=np.zeros((n, n), dtype=complex),
                                mode="dft_baseline")


def _covariance_from_factors(a: np.ndarray, betas: np.ndarray, etas: np.ndarray) -> np.ndarray:
    coeff = betas**2 * (1.0 - etas**2)
    return (a * coeff) @ a.conj().T


def error_covariance(ps: PathSet, bits, geom: ArrayGeometry) -> np.ndarray:
    """Covariance sum_l beta_l**2 * (1 - eta(B_l)**2) * a_l a_l^H of the error."""
    bits = np.asarray(bits)
    if bits.shape[0] != len(ps):
        raise ValueError(f"got {bits.shape[0]} bit counts for {len(ps)} paths")
    a = steering_matrix(ps.thetas, geom.lambda_dl, geom)
    return _covariance_from_factors(a, ps.betas, eta(bits))


def outer_product_error(h_true: np.ndarray, rc: ReconstructedChannel) -> tuple[np.ndarray, float]:
    """Error matrix Delta = h h^H - (hhat hhat^H + Phi) and ||Delta||_F^2 / N^2."""
    h = np.asarray(h_true)
    n = h.shape[0]
    delta = np.outer(h, h.conj())
    delta -= np.outer(rc.hhat, rc.hhat.conj())
    delta -= rc.error_cov
    norm = float(np.sum(np.abs(delta) ** 2)) / n**2
    return delta, norm


def outer_error_norm(h_true: np.ndarray, hhat: np.ndarray,
                     ps: PathSet, bits, geom: ArrayGeometry) -> float:
    """||Delta||_F^2 / N^2 without materializing any N x N matrix.

    Delta is a short sum of rank-one terms, U diag(s) U^H with
    U = [h, hhat, a_1..a_L], so the squared norm reduces to a Gram-matrix
    trace.  Exact; intended for large N where the dense route is wasteful.
    """
    a = steering_matrix(ps.thetas, geom.lambda_dl, geom)
    coeff = ps.betas**2 * (1.0 - eta(np.asarray(bits)) ** 2)
    u = np.column_stack([h_true, hhat, a])
    s = np.concatenate(([1.0, -1.0], -coeff))
    gram = u.conj().T @ u
    sg = s[:, None] * gram
    n = h_true.shape[0]
    # the trace is a squared norm; cancellation can leave a tiny negative
    return max(float(np.real(np.trace(sg @ sg))), 0.0) / n**2


def asymptotic_delta_norm(betas, bits, deltas) -> float:
    """Large-array limit of ||Delta||_F^2 / N^2 conditioned on the phase errors.

    Equals the squared Frobenius norm of the path-domain residual matrix,
    whose only nonzero entries are the cross-path terms
    beta_l beta_l' * (exp(j(delta_l - delta_l')) - eta_l eta_l'), i.e.

        sum over ordered pairs l != l' of
        (beta_l beta_l')**2 * (1 + (eta_l eta_l')**2
                               - 2 |eta_l eta_l'| cos(delta_l - delta_l')),

    equivalently twice that expression per unordered pair.  Perfect feedback
    (eta = 1, delta = 0) cancels every pair exactly.
    """
    betas = np.asarray(betas, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    etas = eta(np.asarray(bits))
    if not (betas.shape == deltas.shape == etas.shape):
        raise ValueError("betas, bits, and deltas must have matching lengths")
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

