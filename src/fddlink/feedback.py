"""Per-path phase quantization and the DFT-codebook feedback baseline.

A feedback plan quantizes one path set's DL phases at one bit allocation or
at every row of a budget grid's allocations at once, and a stack of path
sets with one bit array (and grid) per path set in the same quantizer call.
The DFT-codebook search takes a stack of channel vectors, such as a scene's
K users, and searches every row in one call: one FFT per pass of rows, or
one branch and bound run in lockstep over them, each row's result bit-equal
to its search alone.
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
# carrying at most _MAX_CELLS cells per channel (random multipath channels
# keep at most 6 per level up to 21 bits).
_FULL_FFT_PER_ANTENNA = 64
_COARSE_PER_ANTENNA = 16
_SPLIT = 16
_MAX_CELLS = 64
# Rows per FFT pass: a pass's spectra (one FFT of the grid per row, or the two
# coarse FFTs of the branch and bound) fit _SEARCH_BYTES.  The search of a drop
# at N=64, K=8, B=9,12,15 (N=256, K=16, B=0,3,...,21) on one BLAS thread of a
# 2-vCPU Xeon VM took 1.71 ms (17.3 ms) with one call per channel, 0.93 ms
# (10.5 ms) at 128 KiB and 0.87 ms (10.1 ms) at 256 KiB; from 128 to 256 KiB
# the peak traced memory of a call at N=64 rose from 295 to 549 KiB, and
# `dft_zf` campaigns gained no measurable speed but a higher peak RSS.
_SEARCH_BYTES = 128 * 1024


def dft_codebook_feedback(h: np.ndarray, total_bits: int,
                          geom: ArrayGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Pick the codeword best aligned with each channel and rebuild it from that codeword.

    ``h`` holds one channel vector (N,) or a stack of them (..., N), and every
    row is searched in the same call.  The codebook holds 2**total_bits
    unit-norm DFT-style codewords c_j = exp(-i 2 pi n f_j) / sqrt(N).  With
    2**total_bits >= N the grid is the oversampled DFT, f_j = j / 2**total_bits;
    otherwise the N-point DFT columns are uniformly subsampled,
    f_j = floor(j N / 2**total_bits) / N.  Since |c_j^H h| is proportional to
    |T(f_j)| with T(f) = sum_n h_n exp(i 2 pi n f), the search never builds
    the codebook: up to 64 N grid points take one FFT of every row, and
    finer grids take the exact branch-and-bound search of _refined_argmax,
    run in lockstep over the rows, whose cost barely grows with total_bits.
    Ties go to the lowest index.  total_bits above MAX_DFT_BITS raises
    ValueError.

    Returns (index, hhat): index (...) and hhat (..., N) with hhat = ||h|| * c
    for the unit-norm codeword c maximizing |c^H h|, an integer and one
    vector for a single channel.  The channel norm is assumed perfectly
    known so that only the direction loss of the codebook is measured.  Each
    row's index and hhat are bit-equal to a call with that row alone.
    """
    n_ant = geom.num_antennas
    h = np.asarray(h)
    if h.ndim == 0 or h.shape[-1] != n_ant:
        raise ValueError(f"channel vectors must have shape (..., {n_ant}), got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel vectors must be finite")
    bits = int(_as_bits_array(total_bits))
    if bits > MAX_DFT_BITS:
        raise ValueError(f"total_bits must not exceed {MAX_DFT_BITS}, got {bits}")
    lead = h.shape[:-1]
    h = h.reshape(-1, n_ant)
    size = 1 << bits
    if size >= n_ant:
        index = _oversampled_argmax(h, size)
        freq = index / size
    else:
        bins = np.arange(size) * n_ant // size
        index = np.argmax(np.abs(np.fft.ifft(h, axis=-1)[:, bins]), axis=-1)
        freq = bins[index] / n_ant
    codeword = np.exp(-1j * TWO_PI * np.arange(n_ant) * freq[:, None]) / math.sqrt(n_ant)
    # ||h|| of each row as np.linalg.norm takes it for one vector: dot
    # products of the real and imaginary parts, not an axis reduction
    re, im = h.real[:, None, :], h.imag[:, None, :]
    norm = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0]
    return index.reshape(lead)[()], (norm * codeword).reshape(*lead, n_ant)


def _oversampled_argmax(h: np.ndarray, size: int) -> np.ndarray:
    """Lowest j maximizing |T(j / size)| for each row of the (rows, N) channels
    h, T(f) = sum_n h_n exp(i 2 pi n f).

    Up to 64 N grid points take one FFT per row, on passes of rows whose
    spectra fit _SEARCH_BYTES; finer grids take the branch and bound of
    _refined_argmax.
    """
    rows, n_ant = h.shape
    if size > _FULL_FFT_PER_ANTENNA * n_ant:
        return _refined_argmax(h, size)
    step = max(1, _SEARCH_BYTES // (16 * size))
    # at least one pass, so that an empty stack gives an empty index
    return np.concatenate([np.argmax(np.abs(np.fft.ifft(h[lo:lo + step], size, axis=-1)), axis=-1)
                           for lo in range(0, max(rows, 1), step)])


def _refined_argmax(h: np.ndarray, size: int) -> np.ndarray:
    """_oversampled_argmax by branch and bound.

    For any centre m, S(f) = exp(-i 2 pi m f) T(f) has |S| = |T|, and a cell
    of half-width d around a grid point c holds no value of |T| above
        max(|S(c) + d S'(c)|, |S(c) - d S'(c)|) + d**2 / 2 * sum_n (2 pi (n - m))**2 |h_n|,
    the first-order Taylor polynomial (convex in the offset, so largest at
    an end) plus a bound on the remainder.  Taking m as the |h|-weighted
    mean of n makes that sum smallest.  A coarse FFT of h and of
    i 2 pi (n - m) h, of _COARSE_PER_ANTENNA * N points rounded up to a power
    of two, bounds every coarse cell; each cell whose bound reaches the best
    value found in its row (_live_cells) is split into _SPLIT + 1 points
    (both ends included, so the children cover it) evaluated by one matrix
    product, until the cells are single grid points.  The pruning keeps a
    margin of twice the rounding error of a length-N sum, so near-ties are
    settled by the values, not by the bound.  Only a channel whose |T| is
    flat to within that margin over many grid points (say one dominant entry
    plus entries 1e-9 its size) leaves more than _MAX_CELLS cells alive; the
    _MAX_CELLS with the largest bounds go on, so the index returned is then
    one of those near-ties, not necessarily the lowest.

    The coarse grid, the search's one large array, takes the rows in passes
    (_SEARCH_BYTES); the cells left are refined for all rows in lockstep,
    sorted by (row, index).  A row's children are the one matrix product
    that the row searched alone makes, so its index is bit-equal to that
    search's.
    """
    rows, n_ant = h.shape
    best = np.zeros(rows, dtype=np.int64)  # |T| is constant with at most one nonzero entry
    search = np.flatnonzero(np.count_nonzero(h, axis=-1) > 1)
    if not search.size:
        return best
    h = h[search]
    coarse = 1 << (_COARSE_PER_ANTENNA * n_ant - 1).bit_length()
    weight = np.abs(h)
    l1 = weight.sum(axis=-1)
    n = np.arange(n_ant)
    # each row's dot products are the BLAS calls that one vector's n @ weight makes
    centred = TWO_PI * (n - (n.astype(float) @ weight[:, :, None]) / l1[:, None])
    curvature = ((0.5 * (centred * centred))[:, None, :] @ weight[:, :, None])[:, 0, 0]
    slack = 2 * (n_ant + 4) * math.ulp(1.0) * l1
    taps = np.stack((h, 1j * centred * h))  # their transforms are S and S' up to a phase
    step = size // coarse
    per_pass = max(1, _SEARCH_BYTES // (32 * coarse))
    row, parents = [], []
    for lo in range(0, len(h), per_pass):
        part = slice(lo, lo + per_pass)
        value, slope = np.fft.ifft(taps[:, part], coarse, norm="forward").reshape(2, -1)
        counts = np.full(len(value) // coarse, coarse)
        alive, cell_row = _live_cells(value, slope, np.abs(value), counts, step / (2 * size),
                                      curvature[part], slack[part])
        row.append(lo + cell_row)
        parents.append(alive % coarse * step)
    row, parents = np.concatenate(row), np.concatenate(parents)
    while True:
        split = min(_SPLIT, step)
        step //= split
        offsets = np.arange(-(split // 2), split // 2 + 1) * step
        shifted = taps[:, row]
        shifted *= _cis(np.outer(parents, n), size)
        grid = _cis(np.outer(n, offsets), size)
        children = np.empty((2, len(row), len(offsets)), dtype=complex)
        counts = np.bincount(row, minlength=len(h))
        starts = np.cumsum(counts) - counts
        for count in np.flatnonzero(np.bincount(counts)):
            # the rows with this many cells, each one matrix product as a row alone makes
            cells = (starts[counts == count][:, None] + np.arange(count)).ravel()
            children[:, cells] = (shifted[:, cells].reshape(2, -1, count, n_ant) @ grid
                                  ).reshape(2, len(cells), -1)
        keys, first = np.unique(row[:, None] * size + (parents[:, None] + offsets) % size,
                                return_index=True)
        row, index = np.divmod(keys, size)
        value, slope = children.reshape(2, -1)[:, first]
        mag = np.abs(value)
        counts = np.bincount(row, minlength=len(h))
        if step == 1:
            break
        alive, row = _live_cells(value, slope, mag, counts, step / (2 * size),
                                 curvature, slack)
        parents = index[alive]
    starts = np.cumsum(counts) - counts
    top = np.flatnonzero(mag == np.repeat(np.maximum.reduceat(mag, starts), counts))
    _, first = np.unique(np.searchsorted(starts, top, side="right"), return_index=True)
    best[search] = index[top[first]]
    return best


def _live_cells(value, slope, mag, counts, half, curvature, slack):
    """Positions and rows of the cells whose bound reaches their row's best value.

    The cells, counts[r] of row r in row order, have values S, slopes S' and
    mag = |S| at their centres and half-width ``half``.  A row keeps at most
    _MAX_CELLS cells, the largest bounds, ties to the lower index.  Scales
    ``slope`` in place and overwrites ``mag``.
    """
    slope *= half
    starts = np.cumsum(counts) - counts
    floor = np.maximum.reduceat(mag, starts) - curvature * half * half - slack
    # max(|value + slope|, |value - slope|), in the buffers of mag and value + slope
    ends = value + slope
    bound = np.abs(ends, out=mag)
    np.maximum(bound, np.abs(np.subtract(value, slope, out=ends)), out=bound)
    del ends
    alive = np.flatnonzero(bound >= np.repeat(floor, counts))
    row = np.searchsorted(starts, alive, side="right") - 1
    counts = np.bincount(row, minlength=len(counts))
    if counts.max() > _MAX_CELLS:
        order = np.lexsort((-bound[alive], row))
        rank = np.arange(len(alive)) - np.repeat(np.cumsum(counts) - counts, counts)
        keep = np.sort(order[rank < _MAX_CELLS])
        alive, row = alive[keep], row[keep]
    return alive, row


def _cis(turns: np.ndarray, size: int) -> np.ndarray:
    """exp(i 2 pi turns / size), with the integer turns reduced modulo size first."""
    return np.exp(1j * (TWO_PI / size) * (turns % size))
