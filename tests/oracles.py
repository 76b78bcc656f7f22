"""Oracles that the tests check the package against.

The package works on reconstruction factors and on the NMMSE curve at
integer bits.  These are the textbook forms it never builds: the
piecewise-linear relaxation, the weighted NMMSE objective, and the dense
N x N error covariance and outer-product error.
"""

import math

import numpy as np

from fddlink.allocation import MAX_BITS, eta, nmmse
from fddlink.channel import steering_matrix


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
