"""Geometric multipath channel model for a ULA base station.

Narrowband uplink/downlink channels are synthesized as weighted sums of
steering vectors.  Angles, path amplitudes, traversed distances, and the
number of paths are shared between the two bands; only the wavelength and
the per-path reflection phases differ, so the bands are not reciprocal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array plus the UL/DL carrier wavelengths (meters)."""

    num_antennas: int
    spacing: float
    lambda_ul: float
    lambda_dl: float

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError(f"num_antennas must be >= 1, got {self.num_antennas}")
        for name in ("spacing", "lambda_ul", "lambda_dl"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v}")


@dataclass(frozen=True, eq=False)
class PathSet:
    """One user's paths as per-path arrays; the path index is meaningful.

    thetas (AoAs) lie in [-pi/2, pi/2], betas (amplitudes) are nonnegative
    and the reflection phases lie in [0, 2*pi).  The amplitudes and geometry
    are band-invariant, the reflection phases are not.  Each field is stored
    as a read-only float64 copy.
    """

    thetas: np.ndarray
    betas: np.ndarray
    distances: np.ndarray
    phases_ul: np.ndarray
    phases_dl: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            values = np.array(getattr(self, f.name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, f.name, values)
        shapes = {getattr(self, f.name).shape for f in fields(self)}
        if len(shapes) != 1 or self.thetas.ndim != 1:
            raise ValueError(f"path arrays must be 1-D of one length, got shapes {shapes}")
        if len(self.thetas) < 1:
            raise ValueError("a PathSet needs at least one path")
        if np.any(self.betas < 0):
            raise ValueError(f"path amplitudes must be nonnegative, got {self.betas}")
        if not np.all((self.thetas >= -math.pi / 2) & (self.thetas <= math.pi / 2)):
            raise ValueError(f"thetas out of [-pi/2, pi/2]: {self.thetas}")

    def __len__(self):
        return len(self.thetas)


def steering_matrix(thetas, wavelength: float, geom: ArrayGeometry) -> np.ndarray:
    """N x L matrix whose columns are steering vectors at the given angles."""
    thetas = np.asarray(thetas, dtype=float)
    n = np.arange(geom.num_antennas)[:, None]
    return np.exp(-1j * (TWO_PI / wavelength) * n * geom.spacing * np.sin(thetas)[None, :])


def dl_path_gains(ps: PathSet, geom: ArrayGeometry) -> np.ndarray:
    """Complex DL gain per path: beta * exp(j*(-2*pi*r/lambda_dl + phi_dl))."""
    return ps.betas * np.exp(1j * (-TWO_PI * ps.distances / geom.lambda_dl + ps.phases_dl))


def ul_path_gains(ps: PathSet, geom: ArrayGeometry) -> np.ndarray:
    """Complex UL gain per path: beta * exp(j*(-2*pi*r/lambda_ul + phi_ul))."""
    return ps.betas * np.exp(1j * (-TWO_PI * ps.distances / geom.lambda_ul + ps.phases_ul))


def dl_channel(ps: PathSet, geom: ArrayGeometry) -> np.ndarray:
    """Narrowband DL channel: sum of steering vectors weighted by DL gains."""
    a = steering_matrix(ps.thetas, geom.lambda_dl, geom)
    return a @ dl_path_gains(ps, geom)


def ul_channel(ps: PathSet, geom: ArrayGeometry) -> np.ndarray:
    """Narrowband UL channel: sum of steering vectors weighted by UL gains."""
    a = steering_matrix(ps.thetas, geom.lambda_ul, geom)
    return a @ ul_path_gains(ps, geom)


def dl_phases(ps: PathSet, geom: ArrayGeometry) -> np.ndarray:
    """Phase of each DL path gain, reduced to [0, 2*pi)."""
    return np.mod(-TWO_PI * ps.distances / geom.lambda_dl + ps.phases_dl, TWO_PI)


def path_loss(distance: float, cfg) -> float:
    """Log-distance path loss as a linear power gain.

    PL(d) = cfg.pl_ref_gain * (d / cfg.pl_ref_distance)^(-cfg.pl_exponent),
    with the reference gain in linear scale.
    """
    if not np.isfinite(distance) or distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    return cfg.pl_ref_gain * (distance / cfg.pl_ref_distance) ** (-cfg.pl_exponent)


def power_decay_profile(num_paths: int, decay_ratio: float) -> np.ndarray:
    """Per-path power weights w_l proportional to decay_ratio**l, summing to 1."""
    if not 0 < decay_ratio <= 1:
        raise ValueError(f"decay_ratio must be in (0, 1], got {decay_ratio}")
    w = decay_ratio ** np.arange(num_paths, dtype=float)
    return w / w.sum()


def draw_user_paths(cfg, rng: np.random.Generator) -> PathSet:
    """Draw one user's multipath geometry.

    The user lands uniformly in a disc of radius ISD/2 around the BS.  AoAs
    are i.i.d. uniform on [-pi/2, pi/2], reflection phases i.i.d. uniform on
    [0, 2*pi) and independent across bands.  Per-path power follows the
    geometric decay profile applied to the user-level path loss, and each
    path adds a uniform excess distance affecting only its phase.
    """
    L = cfg.n_paths
    radius = cfg.isd / 2.0
    r_user = radius * math.sqrt(rng.uniform())
    r_user = max(r_user, cfg.pl_ref_distance)  # keep the path-loss model in range
    pl = path_loss(r_user, cfg)
    weights = power_decay_profile(L, cfg.decay_ratio)
    betas = np.sqrt(pl * weights)
    thetas = rng.uniform(-math.pi / 2, math.pi / 2, size=L)
    dists = r_user + rng.uniform(0.0, cfg.excess_range, size=L)
    phis_ul = rng.uniform(0.0, TWO_PI, size=L)
    phis_dl = rng.uniform(0.0, TWO_PI, size=L)
    return PathSet(thetas=thetas, betas=betas, distances=dists,
                   phases_ul=phis_ul, phases_dl=phis_dl)


def draw_scene(cfg, rng: np.random.Generator) -> list[PathSet]:
    """Draw independent multipath geometry for each of cfg.n_users users."""
    return [draw_user_paths(cfg, rng) for _ in range(cfg.n_users)]


def perturb_estimates(ps: PathSet, aoa_sigma: float, gain_rel_sigma: float,
                      rng: np.random.Generator) -> PathSet:
    """Emulate imperfect AoA/amplitude estimation on a path set.

    AoAs get additive Gaussian error of std ``aoa_sigma`` (rad) clamped to
    [-pi/2, pi/2]; amplitudes get relative Gaussian error of std
    ``gain_rel_sigma`` clamped at zero.  Distances and phases are left
    untouched (the estimator never observes them directly).
    """
    if aoa_sigma < 0 or gain_rel_sigma < 0:
        raise ValueError("noise sigmas must be nonnegative")
    # path by path, the AoA error is drawn before the gain error
    sigmas = [s for s in (aoa_sigma, gain_rel_sigma) if s > 0]
    errors = rng.normal(0.0, sigmas, size=(len(ps), len(sigmas)))
    thetas, betas = ps.thetas, ps.betas
    if aoa_sigma > 0:
        thetas = np.clip(thetas + errors[:, 0], -math.pi / 2, math.pi / 2)
    if gain_rel_sigma > 0:
        betas = betas * (1.0 + errors[:, -1])
        betas = np.where(betas < 0.0, 0.0, betas)  # max(beta, 0.0), signed zeros kept
    return replace(ps, thetas=thetas, betas=betas)
