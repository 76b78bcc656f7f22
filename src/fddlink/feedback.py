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


def make_feedback_plan(ps: PathSet, bits, geom: ArrayGeometry) -> FeedbackPlan:
    """Quantize each true DL path phase of ``ps`` with the given bit counts."""
    if np.shape(bits) != (len(ps),):
        raise ValueError(f"got {np.size(bits)} bit counts for {len(ps)} paths")
    q, _, deltas = quantize_phases(dl_phases(ps, geom), bits)  # validates bits
    return FeedbackPlan(bits=np.asarray(bits, dtype=np.int64), q_values=q, deltas=deltas)


def dft_codebook_feedback(h: np.ndarray, total_bits: int,
                          geom: ArrayGeometry) -> tuple[int, np.ndarray]:
    """Pick the codeword best aligned with ``h`` and rebuild the channel from it.

    The codebook holds 2**total_bits unit-norm DFT-style codewords
    c_j = exp(-i 2 pi n f_j) / sqrt(N).  With 2**total_bits >= N the grid
    is the oversampled DFT, f_j = j / 2**total_bits; otherwise the N-point
    DFT columns are uniformly subsampled, f_j = floor(j N / 2**total_bits) / N.
    Since |c_j^H h| is proportional to |ifft(h)| at that frequency, one FFT
    searches the whole codebook without building it.

    Returns (index, hhat) where hhat = ||h|| * c for the unit-norm codeword c
    maximizing |c^H h|; the channel norm is assumed perfectly known so that
    only the direction loss of the codebook is measured.
    """
    n_ant = geom.num_antennas
    h = np.asarray(h)
    if h.shape != (n_ant,):
        raise ValueError(f"channel vector must have shape ({n_ant},), got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel vector must be finite")
    size = 1 << int(_as_bits_array(total_bits))
    if size >= n_ant:
        index = int(np.argmax(np.abs(np.fft.ifft(h, size))))
        freq = index / size
    else:
        bins = np.arange(size) * n_ant // size
        index = int(np.argmax(np.abs(np.fft.ifft(h)[bins])))
        freq = bins[index] / n_ant
    codeword = np.exp(-1j * TWO_PI * np.arange(n_ant) * freq) / math.sqrt(n_ant)
    return index, float(np.linalg.norm(h)) * codeword
