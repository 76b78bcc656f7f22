"""Geometric multipath channel model for a ULA base station.

Narrowband uplink/downlink channels are synthesized as weighted sums of
steering vectors.  Angles, path amplitudes, traversed distances, and the
number of paths are shared between the two bands; only the wavelength and
the per-path reflection phases differ, so the bands are not reciprocal.

A PathSet may stack many path sets of one path count: its per-path arrays
are (..., L), and the steering matrices, DL phases, gains and channels of
a stack carry the same leading axes.  Each stacked path set is computed
exactly as it would be alone, one matrix-vector product per channel.  A
stack is drawn in one step from rows of standard uniforms, one row of 4L+1
per user (paths_from_uniforms): a scene's users from one generator call, or
one row from each trial's own generator.
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
    as a read-only float64 copy.  The fields share one shape (..., L): any
    leading axes stack path sets of L paths each (see ``stack``).
    """

    thetas: np.ndarray
    betas: np.ndarray
    distances: np.ndarray
    phases_ul: np.ndarray
    phases_dl: np.ndarray

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        for name in names:
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        shapes = {getattr(self, name).shape for name in names}
        if len(shapes) != 1 or self.thetas.ndim < 1:
            raise ValueError(f"path arrays must share one shape (..., L), got shapes {shapes}")
        if self.thetas.shape[-1] < 1:
            raise ValueError("a PathSet needs at least one path")
        if (self.betas < 0).any():
            raise ValueError(f"path amplitudes must be nonnegative, got {self.betas}")
        if not ((self.thetas >= -math.pi / 2) & (self.thetas <= math.pi / 2)).all():
            raise ValueError(f"thetas out of [-pi/2, pi/2]: {self.thetas}")

    def __len__(self):
        """The number of paths of each path set, L."""
        return self.thetas.shape[-1]

    @classmethod
    def stack(cls, path_sets) -> PathSet:
        """One PathSet whose new leading axis runs over ``path_sets``."""
        return cls(*(np.array([getattr(ps, f.name) for ps in path_sets]) for f in fields(cls)))


def steering_matrix(thetas, wavelength: float, geom: ArrayGeometry) -> np.ndarray:
    """N x L matrix whose columns are steering vectors at the given angles.

    Angles of shape (..., L) give the (..., N, L) stack of such matrices.
    """
    thetas = np.asarray(thetas, dtype=float)
    n = np.arange(geom.num_antennas)[:, None]
    return np.exp(-1j * (TWO_PI / wavelength) * n * geom.spacing * np.sin(thetas)[..., None, :])


def superpose(a: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """The columns of ``a`` weighted by ``gains`` and summed: a @ gains.

    ``a`` is (..., N, L) and ``gains`` (..., L), and their leading axes
    broadcast.  Each stacked product is the BLAS matrix-vector call that a
    single N x L matrix and L-vector make.
    """
    return (a @ gains[..., None])[..., 0]


def dl_path_gains(ps: PathSet, geom: ArrayGeometry) -> np.ndarray:
    """Complex DL gain per path: beta * exp(j*(-2*pi*r/lambda_dl + phi_dl))."""
    return ps.betas * np.exp(1j * (-TWO_PI * ps.distances / geom.lambda_dl + ps.phases_dl))


def ul_path_gains(ps: PathSet, geom: ArrayGeometry) -> np.ndarray:
    """Complex UL gain per path: beta * exp(j*(-2*pi*r/lambda_ul + phi_ul))."""
    return ps.betas * np.exp(1j * (-TWO_PI * ps.distances / geom.lambda_ul + ps.phases_ul))


def dl_channel(ps: PathSet, geom: ArrayGeometry) -> np.ndarray:
    """Narrowband DL channel: sum of steering vectors weighted by DL gains.

    A stack of path sets gives one channel per path set, (..., N).
    """
    return superpose(steering_matrix(ps.thetas, geom.lambda_dl, geom), dl_path_gains(ps, geom))


def ul_channel(ps: PathSet, geom: ArrayGeometry) -> np.ndarray:
    """Narrowband UL channel: sum of steering vectors weighted by UL gains."""
    return superpose(steering_matrix(ps.thetas, geom.lambda_ul, geom), ul_path_gains(ps, geom))


def dl_phases(ps: PathSet, geom: ArrayGeometry) -> np.ndarray:
    """Phase of each DL path gain, reduced to [0, 2*pi)."""
    return np.mod(-TWO_PI * ps.distances / geom.lambda_dl + ps.phases_dl, TWO_PI)


def path_loss(distance, cfg):
    """Log-distance path loss as a linear power gain.

    PL(d) = cfg.pl_ref_gain * (d / cfg.pl_ref_distance)^(-cfg.pl_exponent),
    with the reference gain in linear scale, element by element for an
    array of distances.  The power is libm pow's, as for a Python float.
    """
    distance = np.asarray(distance, dtype=float)
    if not ((distance > 0) & (distance < np.inf)).all():
        raise ValueError(f"distance must be positive, got {distance}")
    return cfg.pl_ref_gain * np.float_power(distance / cfg.pl_ref_distance, -cfg.pl_exponent)


def power_decay_profile(num_paths: int, decay_ratio: float) -> np.ndarray:
    """Per-path power weights w_l proportional to decay_ratio**l, summing to 1."""
    if not 0 < decay_ratio <= 1:
        raise ValueError(f"decay_ratio must be in (0, 1], got {decay_ratio}")
    w = decay_ratio ** np.arange(num_paths, dtype=float)
    return w / w.sum()


def uniforms_per_user(num_paths: int) -> int:
    """Standard uniforms that one user's draw of L paths takes: 4L + 1."""
    return 4 * num_paths + 1


def _uniform(low: float, high: float, u: np.ndarray) -> np.ndarray:
    """Uniforms on [low, high) from standard ones, as Generator.uniform maps them."""
    return low + (high - low) * u


def paths_from_uniforms(u, cfg) -> PathSet:
    """Users' multipath geometry from standard uniforms, one user per row.

    ``u`` is (..., 4L+1), and the path sets are (..., L).  A row holds the
    user's distance uniform, then L uniforms each for the AoAs, the excess
    distances, the UL and the DL reflection phases.  The user lands uniformly
    in a disc of radius ISD/2 around the BS.  AoAs are uniform on
    [-pi/2, pi/2], reflection phases uniform on [0, 2*pi) and independent
    across bands.  Per-path power follows the geometric decay profile applied
    to the user-level path loss, and each path adds a uniform excess distance
    affecting only its phase.  cfg.n_paths is not read: L comes from ``u``.
    """
    u = np.asarray(u, dtype=float)
    L, rest = divmod(u.shape[-1] - 1, 4) if u.ndim else (0, 0)
    if L < 1 or rest:
        raise ValueError(f"need rows of 4L+1 uniforms for L >= 1 paths, got shape {u.shape}")
    radius = cfg.isd / 2.0
    # keep the path-loss model in range
    r_user = np.maximum(radius * np.sqrt(u[..., 0]), cfg.pl_ref_distance)
    weights = power_decay_profile(L, cfg.decay_ratio)
    betas = np.sqrt(path_loss(r_user, cfg)[..., None] * weights)
    thetas, excess, phis_ul, phis_dl = (u[..., 1 + i * L:1 + (i + 1) * L] for i in range(4))
    return PathSet(thetas=_uniform(-math.pi / 2, math.pi / 2, thetas),
                   betas=betas,
                   distances=r_user[..., None] + _uniform(0.0, cfg.excess_range, excess),
                   phases_ul=_uniform(0.0, TWO_PI, phis_ul),
                   phases_dl=_uniform(0.0, TWO_PI, phis_dl))


def draw_scene(cfg, rng: np.random.Generator) -> PathSet:
    """Draw independent multipath geometry for each of cfg.n_users users, one
    PathSet stacking them (K, L), from one (K, 4L+1) array of rng's uniforms:
    user by user, each user's paths from one row (paths_from_uniforms)."""
    return paths_from_uniforms(rng.random((cfg.n_users, uniforms_per_user(cfg.n_paths))), cfg)


def perturb_estimates(ps: PathSet, aoa_sigma: float, gain_rel_sigma: float,
                      rng: np.random.Generator) -> PathSet:
    """Emulate imperfect AoA/amplitude estimation on a path set.

    AoAs get additive Gaussian error of std ``aoa_sigma`` (rad) clamped to
    [-pi/2, pi/2]; amplitudes get relative Gaussian error of std
    ``gain_rel_sigma`` clamped at zero.  Distances and phases are left
    untouched (the estimator never observes them directly).  A stack of
    path sets draws its errors path set by path set, as one call per path
    set in stack order would.
    """
    if aoa_sigma < 0 or gain_rel_sigma < 0:
        raise ValueError("noise sigmas must be nonnegative")
    # path by path, the AoA error is drawn before the gain error
    sigmas = [s for s in (aoa_sigma, gain_rel_sigma) if s > 0]
    errors = rng.normal(0.0, sigmas, size=(*ps.thetas.shape, len(sigmas)))
    thetas, betas = ps.thetas, ps.betas
    if aoa_sigma > 0:
        thetas = np.clip(thetas + errors[..., 0], -math.pi / 2, math.pi / 2)
    if gain_rel_sigma > 0:
        betas = betas * (1.0 + errors[..., -1])
        betas = np.where(betas < 0.0, 0.0, betas)  # max(beta, 0.0), signed zeros kept
    return replace(ps, thetas=thetas, betas=betas)
