"""Per-path phase quantization and the DFT-codebook feedback baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import _as_bits_array
from .channel import TWO_PI, ArrayGeometry, PathSet, dl_phases


def wrap_angle(x):
    """Wrap angle(s) to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + math.pi, TWO_PI) - math.pi


@dataclass(frozen=True)
class PhaseCodebook:
    """Uniform phase codebook {2*pi*j / 2**bits : j = 0..2**bits - 1}."""

    bits: int

    def __post_init__(self):
        _as_bits_array(self.bits)

    @property
    def codewords(self) -> np.ndarray:
        size = 1 << self.bits
        return TWO_PI * np.arange(size) / size


@dataclass(frozen=True, eq=False)
class FeedbackPlan:
    """Per-path bit counts together with the quantized DL phases and their errors."""

    bits: np.ndarray
    q_values: np.ndarray
    deltas: np.ndarray

    def __len__(self):
        return len(self.bits)


def quantize_phases(angles, bits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize angles to the nearest codeword in circular distance.

    Returns (q, index, delta) arrays; ``bits`` broadcasts against
    ``angles``.  The error delta = wrap(angle - q) always lands in
    [-pi/2**bits, pi/2**bits].  With bits = 0 the codebook is the single
    word {0} and delta is simply the wrapped angle.
    """
    angles = np.asarray(angles, dtype=float)
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    size = np.power(2.0, _as_bits_array(bits))
    step = TWO_PI / size
    reduced = np.mod(angles, TWO_PI)
    index = np.mod(np.round(reduced / step), size).astype(np.int64)
    q = index * step
    delta = wrap_angle(reduced - q)
    return q, index, delta


def feedback_error_bound(bits: int) -> float:
    """Half-width pi/2**bits of the quantization-error support."""
    return math.pi / (1 << int(_as_bits_array(bits)))


def make_feedback_plan(ps: PathSet, bits, geom: ArrayGeometry) -> FeedbackPlan:
    """Quantize each true DL path phase of ``ps`` with the given bit counts."""
    if np.shape(bits) != (len(ps),):
        raise ValueError(f"got {np.size(bits)} bit counts for {len(ps)} paths")
    q, _, deltas = quantize_phases(dl_phases(ps, geom), bits)  # validates bits
    return FeedbackPlan(bits=np.asarray(bits, dtype=np.int64), q_values=q, deltas=deltas)


def dft_codebook(num_antennas: int, total_bits: int) -> np.ndarray:
    """N x 2**total_bits matrix of unit-norm DFT-style codewords.

    With 2**total_bits >= N the grid is the oversampled DFT (oversampling
    factor 2**total_bits / N); otherwise the N-point DFT columns are
    uniformly subsampled.
    """
    if num_antennas < 1:
        raise ValueError("num_antennas must be >= 1")
    size = 1 << int(_as_bits_array(total_bits))
    n = np.arange(num_antennas)[:, None]
    if size >= num_antennas:
        freqs = np.arange(size) / size
    else:
        freqs = np.floor(np.arange(size) * num_antennas / size) / num_antennas
    return np.exp(-1j * TWO_PI * n * freqs[None, :]) / math.sqrt(num_antennas)


def dft_codebook_feedback(h: np.ndarray, total_bits: int,
                          geom: ArrayGeometry) -> tuple[int, np.ndarray]:
    """Pick the codeword best aligned with ``h`` and rebuild the channel from it.

    Returns (index, hhat) where hhat = ||h|| * c for the unit-norm codeword c
    maximizing |c^H h|; the channel norm is assumed perfectly known so that
    only the direction loss of the codebook is measured.
    """
    h = np.asarray(h)
    if h.size == 0:
        raise ValueError("empty channel vector")
    cb = dft_codebook(geom.num_antennas, total_bits)
    index = int(np.argmax(np.abs(cb.conj().T @ h)))
    return index, float(np.linalg.norm(h)) * cb[:, index]
