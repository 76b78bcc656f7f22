"""Per-path phase quantization and the DFT-codebook feedback baseline.

A feedback plan quantizes one path set's DL phases at one bit allocation or
at every row of a budget grid's allocations at once, and a stack of path
sets with one bit array (and grid) per path set in the same quantizer call.
"""

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
    """Per-path bit counts together with the quantized DL phases and their errors.

    The arrays share one shape whose last axis runs over the paths; a plan
    for a budget grid has one row per budget, (..., budgets, L) for a stack
    of path sets (..., L).
    """

    bits: np.ndarray
    q_values: np.ndarray
    deltas: np.ndarray

    def __len__(self):
        """The number of paths."""
        return self.bits.shape[-1]


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


def budget_axis(ps: PathSet, bits) -> bool:
    """Whether per-path ``bits`` for ``ps`` have a budget axis.

    For path sets of shape (..., L) the bits are (..., L), one count per
    path, or (..., budgets, L), one row per budget of a grid; any other
    shape raises ValueError.
    """
    shape, got = ps.thetas.shape, np.shape(bits)
    if got == shape:
        return False
    if len(got) == len(shape) + 1 and got[:-2] == shape[:-1] and got[-1] == shape[-1]:
        return True
    raise ValueError(f"got bit counts of shape {got} for {shape[-1]} paths of shape {shape}")


def make_feedback_plan(ps: PathSet, bits, geom: ArrayGeometry) -> FeedbackPlan:
    """Quantize each true DL path phase of ``ps`` with the given bit counts.

    ``bits`` holds one count per path, or one row of them per budget of a
    grid (see budget_axis); one quantizer call serves every row of every
    stacked path set.
    """
    phases = dl_phases(ps, geom)
    if budget_axis(ps, bits):
        phases = phases[..., None, :]
    q, _, deltas = quantize_phases(phases, bits)  # validates bits
    return FeedbackPlan(bits=np.asarray(bits, dtype=np.int64), q_values=q, deltas=deltas)


# From about 32 bits on, neighbouring codewords near the peak differ by less
# than the rounding error of |T| (for N <= 64), so more bits pick by rounding
# rather than by the channel.
MAX_DFT_BITS = 32
# A grid of up to _FULL_FFT_PER_ANTENNA * N points is searched by one FFT;
# a finer one starts from a coarse FFT of _COARSE_PER_ANTENNA * N points
# (rounded up to a power of two) and refines by a factor _SPLIT per level,
# carrying at most _MAX_CELLS cells (random multipath channels keep at most
# 6 per level up to 21 bits).
_FULL_FFT_PER_ANTENNA = 64
_COARSE_PER_ANTENNA = 16
_SPLIT = 16
_MAX_CELLS = 64


def dft_codebook_feedback(h: np.ndarray, total_bits: int,
                          geom: ArrayGeometry) -> tuple[int, np.ndarray]:
    """Pick the codeword best aligned with ``h`` and rebuild the channel from it.

    The codebook holds 2**total_bits unit-norm DFT-style codewords
    c_j = exp(-i 2 pi n f_j) / sqrt(N).  With 2**total_bits >= N the grid
    is the oversampled DFT, f_j = j / 2**total_bits; otherwise the N-point
    DFT columns are uniformly subsampled, f_j = floor(j N / 2**total_bits) / N.
    Since |c_j^H h| is proportional to |T(f_j)| with
    T(f) = sum_n h_n exp(i 2 pi n f), the search never builds the codebook:
    up to 64 N grid points take one FFT, and finer grids take the exact
    branch-and-bound search of ``_oversampled_argmax``, whose cost barely
    grows with total_bits.  Ties go to the lowest index.  total_bits above
    MAX_DFT_BITS raises ValueError.

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
    bits = int(_as_bits_array(total_bits))
    if bits > MAX_DFT_BITS:
        raise ValueError(f"total_bits must not exceed {MAX_DFT_BITS}, got {bits}")
    size = 1 << bits
    if size >= n_ant:
        index = _oversampled_argmax(h, size)
        freq = index / size
    else:
        bins = np.arange(size) * n_ant // size
        index = int(np.argmax(np.abs(np.fft.ifft(h)[bins])))
        freq = bins[index] / n_ant
    codeword = np.exp(-1j * TWO_PI * np.arange(n_ant) * freq) / math.sqrt(n_ant)
    return index, float(np.linalg.norm(h)) * codeword


def _oversampled_argmax(h: np.ndarray, size: int) -> int:
    """Lowest j maximizing |T(j / size)|, T(f) = sum_n h_n exp(i 2 pi n f).

    Finer grids than 64 N points are searched by branch and bound.  For any
    centre m, S(f) = exp(-i 2 pi m f) T(f) has |S| = |T|, and a cell of
    half-width d around a grid point c holds no value of |T| above
        max(|S(c) + d S'(c)|, |S(c) - d S'(c)|) + d**2 / 2 * sum_n (2 pi (n - m))**2 |h_n|,
    the first-order Taylor polynomial (convex in the offset, so largest at
    an end) plus a bound on the remainder.  Taking m as the |h|-weighted
    mean of n makes that sum smallest.  A coarse FFT of h and of
    i 2 pi (n - m) h bounds every coarse cell; each cell whose bound reaches
    the best value found is split into _SPLIT + 1 points (both ends
    included, so the children cover it) evaluated by one matrix product,
    until the cells are single grid points.  The pruning keeps a margin of
    twice the rounding error of a length-N sum, so near-ties are settled by
    the values, not by the bound.  Only a channel whose |T| is flat to
    within that margin over many grid points (say one dominant entry plus
    entries 1e-9 its size) leaves more than _MAX_CELLS cells alive; the
    _MAX_CELLS with the largest bounds go on, so the index returned is then
    one of those near-ties, not necessarily the lowest.
    """
    n_ant = len(h)
    if size <= _FULL_FFT_PER_ANTENNA * n_ant:
        return int(np.argmax(np.abs(np.fft.ifft(h, size))))
    if np.count_nonzero(h) <= 1:
        return 0  # |T| is constant
    coarse = 1 << (_COARSE_PER_ANTENNA * n_ant - 1).bit_length()
    weight = np.abs(h)
    l1 = weight.sum()
    n = np.arange(n_ant)
    centred = TWO_PI * (n - n @ weight / l1)
    curvature = 0.5 * (centred * centred) @ weight
    slack = 2 * (n_ant + 4) * math.ulp(1.0) * l1
    rows = np.array([h, 1j * centred * h])  # their transforms are S and S' up to a phase
    value, slope = np.fft.ifft(rows, coarse, norm="forward")
    mag = np.abs(value)
    step = size // coarse
    index = np.arange(coarse) * step
    while step > 1:
        half = step / (2 * size)
        slope *= half
        bound = np.maximum(np.abs(value + slope), np.abs(value - slope))
        alive = np.flatnonzero(bound >= mag.max() - curvature * half * half - slack)
        if len(alive) > _MAX_CELLS:
            alive = np.sort(alive[np.argsort(-bound[alive], kind="stable")[:_MAX_CELLS]])
        parents = index[alive]
        split = min(_SPLIT, step)
        step //= split
        offsets = np.arange(-(split // 2), split // 2 + 1) * step
        shifted = rows[:, None, :] * _cis(np.outer(parents, n), size)
        value, slope = (shifted @ _cis(np.outer(n, offsets), size)).reshape(2, -1)
        index, first = np.unique((parents[:, None] + offsets) % size, return_index=True)
        value, slope = value[first], slope[first]
        mag = np.abs(value)
    return int(index[np.argmax(mag)])


def _cis(turns: np.ndarray, size: int) -> np.ndarray:
    """exp(i 2 pi turns / size), with the integer turns reduced modulo size first."""
    return np.exp(1j * (TWO_PI / size) * (turns % size))
