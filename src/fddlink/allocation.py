"""Feedback-bit allocation across channel paths.

The per-path reconstruction quality is governed by the compensation factor
eta(B) = (2**B / pi) * sin(pi / 2**B) and the normalized MSE
nmmse(B) = 1 - eta(B)**2.  Granting bits one at a time to the path with the
largest weighted marginal NMMSE decrease is optimal for the piecewise-linear
relaxation, which agrees with nmmse at every integer.

An allocation problem takes one budget or a tuple of budgets (a budget
grid).  Greedy bits are nested in the budget: the bits at budget b are the
first b grants of one ranking of the marginal gains, so the allocators
serve a whole grid from one pass and a single budget is its one-row case.
allocate_bits is that pass as an array: it takes the weights of a stack of
path sets and returns their bits over the grid, without the validated
problem and per-budget objective that an Allocation carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class AllocationProblem:
    """Path weights (squared amplitudes) and a total bit budget.

    ``budget`` is one total or a tuple of totals, a budget grid in any order.
    """

    weights: tuple[float, ...]
    budget: int | tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) < 1:
            raise ValueError("need at least one weight")
        if any(not np.isfinite(w) or w < 0 for w in self.weights):
            raise ValueError("weights must be finite and nonnegative")
        grid = np.ndim(self.budget) == 1
        budgets = tuple(self.budget) if grid else (self.budget,)
        if not budgets or any(b < 0 or int(b) != b for b in budgets):
            raise ValueError(f"budget must be a nonnegative integer or a non-empty "
                             f"tuple of them, got {self.budget}")
        budgets = tuple(int(b) for b in budgets)
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "budget", budgets if grid else budgets[0])

    @property
    def budgets(self) -> np.ndarray:
        """The budgets as a 1-D array, one entry for a single budget."""
        return np.array(self.budget, dtype=np.int64, ndmin=1)


@dataclass(frozen=True)
class Allocation:
    """Bit counts per path and the weighted NMMSE they achieve.

    For a budget grid, ``bits`` holds one tuple and ``objective`` one value
    per budget, in the grid's order.
    """

    bits: tuple[int, ...] | tuple[tuple[int, ...], ...]
    objective: float | tuple[float, ...]


def _allocation(p: AllocationProblem, bits: np.ndarray) -> Allocation:
    """The Allocation of ``bits``, one row per budget of ``p``; a single budget
    gives its row alone."""
    w = np.asarray(p.weights, dtype=float)
    # row by row: one dot product per budget, as for a single budget
    objective = tuple(float(w @ row) for row in nmmse(bits))
    rows = tuple(map(tuple, bits.tolist()))
    if isinstance(p.budget, tuple):
        return Allocation(bits=rows, objective=objective)
    return Allocation(bits=rows[0], objective=objective[0])


def allocate_bits(strategy: str, weights, budgets) -> np.ndarray:
    """Bits per path at each budget of a grid, as an int64 array.

    ``weights`` are the per-path weights (..., L), any leading axes stacking
    path sets, and ``budgets`` the grid (B,), so the bits are (..., B, L).
    ``strategy`` is "greedy" (see allocate_greedy), "uniform" (see
    allocate_uniform) or "none" (no bits at any budget).  Each stacked path
    set gets the bits it would get alone.
    """
    weights = np.asarray(weights, dtype=float)
    budgets = np.asarray(budgets, dtype=np.int64)
    lead, L = weights.shape[:-1], weights.shape[-1]
    if strategy == "greedy":
        top = int(budgets.max())
        if top > L * MAX_BITS:
            raise ValueError(f"budget {top} exceeds {MAX_BITS} bits on every path")
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


def allocate_greedy(p: AllocationProblem) -> Allocation:
    """Incremental marginal-analysis allocator.

    Starting from all-zero bits, each round grants one bit to the path with
    the largest weighted marginal decrease; ties go to the lowest path index
    (numpy argmax convention).  Each path's marginal gains never increase,
    so the rounds take the ``budget`` largest entries of the path-major table
    weights[l] * gains[b], and a stable sort of it reproduces the tie-breaks.
    A grant at bit b has b grants of its own path ranked ahead of it, so the
    first B grants never reach past bit B - 1: one sort of the table over all
    MAX_BITS bits serves every budget of a grid.
    """
    return _allocation(p, allocate_bits("greedy", p.weights, p.budgets))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def allocate_bruteforce(p: AllocationProblem) -> Allocation:
    """Exhaustive minimizer over all compositions of the budget.

    Serves as the optimality oracle for the greedy allocator at one budget;
    guarded so enumeration stays below 10**7 candidates.
    """
    if isinstance(p.budget, tuple):
        raise ValueError("the exhaustive oracle takes a single budget")
    L = len(p.weights)
    count = math.comb(p.budget + L - 1, L - 1)
    if count > 10**7:
        raise ValueError(f"enumeration of {count} compositions exceeds the 1e7 guard")
    comps = np.fromiter(
        (b for comp in _compositions(p.budget, L) for b in comp),
        dtype=np.int64, count=count * L,
    ).reshape(count, L)
    table = nmmse(np.arange(p.budget + 1))
    w = np.asarray(p.weights, dtype=float)
    objectives = table[comps] @ w
    best = int(np.argmin(objectives))
    return _allocation(p, comps[best:best + 1])


def allocate_uniform(p: AllocationProblem) -> Allocation:
    """Even split of each budget; any remainder goes to the leading paths."""
    return _allocation(p, allocate_bits("uniform", p.weights, p.budgets))


def theoretical_weighted_mse(betas, bits, num_antennas: int) -> float | np.ndarray:
    """Closed-form reconstruction MSE sum_l N * beta_l**2 * nmmse(B_l).

    ``bits`` holds one count per path, or one row per budget of a grid,
    which gives one value per budget.
    """
    betas = np.asarray(betas, dtype=float)
    b = _as_bits_array(bits)
    if b.ndim not in (1, 2) or b.shape[-1:] != betas.shape:
        raise ValueError("betas and bits must have matching lengths")
    weights = betas**2
    # row by row: one dot product per budget, as for a single budget
    mse = np.array([num_antennas * (weights @ row) for row in np.atleast_2d(nmmse(b))])
    return mse if b.ndim == 2 else float(mse[0])
