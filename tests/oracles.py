"""Oracles that the tests check the package against.

The package works on reconstruction factors and on the NMMSE curve at
integer bits.  These are the textbook forms it never builds: the
piecewise-linear relaxation, the weighted NMMSE objective, the dense
N x N error covariance and outer-product error, and one user's path draw
as five scalar-valued uniform calls, and one user's draw from one row of
uniforms, which draw_scene stacks for its users.
"""

import math

import numpy as np

from fddlink.allocation import MAX_BITS, eta, nmmse
from fddlink.channel import (
    TWO_PI,
    PathSet,
    paths_from_uniforms,
    power_decay_profile,
    steering_matrix,
    uniforms_per_user,
)


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
