"""Feedback-bit allocation across channel paths.

The per-path reconstruction quality is governed by the compensation factor
eta(B) = (2**B / pi) * sin(pi / 2**B) and the normalized MSE
nmmse(B) = 1 - eta(B)**2.  Granting bits one at a time to the path with the
largest weighted marginal NMMSE decrease is optimal for the piecewise-linear
relaxation, which agrees with nmmse at every integer.

An allocation is its int64 bits array.  allocate_bits is the one checked
allocator, for a stack of path sets over a budget grid in one pass, and
allocate_bruteforce the exhaustive single-budget oracle for its greedy bits.
"""

from __future__ import annotations

import math

import numpy as np

MAX_BITS = 62  # 2**B stays exactly representable in float64


def _as_bits_array(bits) -> np.ndarray:
    arr = np.asarray(bits)
    if arr.dtype.kind == "f":
        if not np.all(arr == np.floor(arr)):
            raise ValueError("bit counts must be integers")
        arr = arr.astype(np.int64)
    elif arr.dtype.kind not in "iu":
        raise ValueError(f"bit counts must be integers, got dtype {arr.dtype}")
    if ((arr < 0) | (arr > MAX_BITS)).any():
        raise ValueError(f"bit counts must lie in [0, {MAX_BITS}]")
    return arr.astype(np.int64)


def eta(bits):
    """Phase-error compensation factor (2**B / pi) * sin(pi / 2**B).

    Vanishes at B = 0 (sin(pi) = 0) and increases toward 1.  Accepts scalars
    or arrays of nonnegative integers.
    """
    b = _as_bits_array(bits)
    p = np.exp2(b.astype(float))
    with np.errstate(all="ignore"):
        val = np.where(b == 0, 0.0, p / math.pi * np.sin(math.pi / p))
    return val if np.ndim(bits) else float(val)


def nmmse(bits):
    """Normalized per-path MMSE 1 - eta(B)**2, in [0, 1]."""
    e = eta(bits)
    return 1.0 - e * e


def marginal_gain_table(max_bits: int) -> np.ndarray:
    """Marginal NMMSE decrease nmmse(B) - nmmse(B+1) for B = 0..max_bits-1.

    The first two gains are both exactly 4/pi**2; the table pins that
    equality bitwise so that argmax tie-breaking sees a true tie.
    """
    if max_bits < 1:
        return np.zeros(0)
    vals = nmmse(np.arange(max_bits + 1))
    gains = vals[:-1] - vals[1:]
    gains[0] = 4.0 / math.pi**2
    if max_bits >= 2:
        gains[1] = gains[0]
    return gains


# the marginal gains of every bit a path can hold, which each greedy table weights
_GAINS = marginal_gain_table(MAX_BITS)
_GAINS.flags.writeable = False


def _checked(weights, budgets) -> tuple[np.ndarray, np.ndarray]:
    """The weights (..., L) as floats and the budget grid (B,) as int64, once
    both pass allocate_bits's input checks."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim == 0 or weights.shape[-1] == 0:
        raise ValueError("need at least one weight")
    if not ((weights >= 0) & (weights < np.inf)).all():
        raise ValueError("weights must be finite and nonnegative")
    grid = np.asarray(budgets, dtype=float)
    if grid.ndim != 1 or not grid.size or not ((grid >= 0) & (grid == np.floor(grid))).all():
        raise ValueError(f"budgets must be a non-empty list of nonnegative integers, "
                         f"got {budgets}")
    top = grid.max()
    if top > weights.shape[-1] * MAX_BITS:
        raise ValueError(f"budget {top:g} exceeds {MAX_BITS} bits on every path")
    return weights, grid.astype(np.int64)


def allocate_bits(strategy: str, weights, budgets) -> np.ndarray:
    """Bits per path at each budget of a grid, as an int64 array.

    ``weights`` (..., L) are finite and nonnegative, any leading axes
    stacking path sets, and ``budgets`` (B,) nonnegative integers in any
    order, none above MAX_BITS on every path; the bits are (..., B, L), each
    stacked path set's as it would get them alone.  ``strategy`` is
    "greedy", "uniform" (an even split of each budget, any remainder to the
    leading paths) or "none" (no bits).

    Greedy starts from all-zero bits, and each round grants one bit to the
    path with the largest weighted marginal decrease; ties go to the lowest
    path index (numpy argmax convention).  Each path's marginal gains never
    increase, so the rounds take the largest entries of the path-major
    table weights[l] * gains[b], and a stable sort of it reproduces the
    tie-breaks.  A grant at bit b has b grants of its own path ranked ahead
    of it, so the first B grants never reach past bit B - 1: the bits are
    nested in the budget, and one sort of the table over all MAX_BITS bits
    serves every budget of the grid.
    """
    weights, budgets = _checked(weights, budgets)
    lead, L = weights.shape[:-1], weights.shape[-1]
    if strategy == "greedy":
        top = int(budgets.max())
        table = (weights[..., None] * _GAINS).reshape(*lead, L * MAX_BITS)
        taken = np.argsort(-table, axis=-1, kind="stable")[..., :top] // MAX_BITS
        # granted[..., n, l]: bits of path l after the first n grants
        granted = np.zeros((*lead, top + 1, L), dtype=np.int64)
        np.cumsum(taken[..., None] == np.arange(L), axis=-2, out=granted[..., 1:, :])
        return granted[..., budgets, :]
    if strategy == "uniform":
        base, extra = np.divmod(budgets, L)
        rows = base[:, None] + (np.arange(L) < extra[:, None])
        return np.broadcast_to(rows, (*lead, *rows.shape)).copy()
    if strategy == "none":
        return np.zeros((*lead, len(budgets), L), dtype=np.int64)
    raise ValueError(f"unknown allocator {strategy!r}")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def allocate_bruteforce(weights, budget: int) -> np.ndarray:
    """Bits per path minimizing weights @ nmmse(bits) over every composition
    of one budget, as an int64 array (L,); the first minimizer in
    enumeration order wins a tie.

    Serves as the optimality oracle for the greedy allocator at one budget;
    takes the input allocate_bits takes, and is guarded so enumeration stays
    below 10**7 candidates.
    """
    if np.ndim(budget) or np.ndim(weights) != 1:
        raise ValueError("the exhaustive oracle takes one path set and a single budget")
    w, (budget,) = _checked(weights, [budget])
    budget, L = int(budget), len(w)
    count = math.comb(budget + L - 1, L - 1)
    if count > 10**7:
        raise ValueError(f"enumeration of {count} compositions exceeds the 1e7 guard")
    comps = np.fromiter(
        (b for comp in _compositions(budget, L) for b in comp),
        dtype=np.int64, count=count * L,
    ).reshape(count, L)
    objectives = nmmse(np.arange(budget + 1))[comps] @ w
    return comps[int(np.argmin(objectives))]


def theoretical_weighted_mse(betas, bits, num_antennas: int) -> float | np.ndarray:
    """Closed-form reconstruction MSE sum_l N * beta_l**2 * nmmse(B_l).

    ``bits`` holds one count per path, or one row per budget of a grid,
    which gives one value per budget.  Leading axes of ``betas`` (..., L)
    stack path sets, whose bits are then (..., L) or (..., budgets, L).
    """
    betas = np.asarray(betas, dtype=float)
    b = _as_bits_array(bits)
    grid = b.ndim == betas.ndim + 1
    if not (betas.ndim >= 1 and (grid or b.ndim == betas.ndim)
            and b.shape[:betas.ndim - 1] == betas.shape[:-1] and b.shape[-1:] == betas.shape[-1:]):
        raise ValueError("betas and bits must have matching lengths")
    weights = (betas**2)[..., None, :] if grid else betas**2
    mse = num_antennas * np.vecdot(weights, nmmse(b))
    return mse if mse.ndim else float(mse)
