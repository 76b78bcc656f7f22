import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fddlink.allocation import (
    MAX_BITS,
    AllocationProblem,
    allocate_bits,
    allocate_bruteforce,
    allocate_greedy,
    allocate_uniform,
    eta,
    marginal_gain_table,
    nmmse,
    theoretical_weighted_mse,
)
from oracles import nmmse_pl, weighted_nmmse


def eta_by_quadrature(bits: int) -> float:
    """Independent oracle: average phasor of a uniform error on +-pi/2**bits."""
    half = math.pi / 2**bits
    real, _ = integrate.quad(lambda d: math.cos(d) / (2 * half), -half, half)
    imag, _ = integrate.quad(lambda d: math.sin(d) / (2 * half), -half, half)
    assert abs(imag) < 1e-14
    return real


def greedy_by_rounds(p: AllocationProblem) -> tuple[int, ...]:
    """Reference allocator: one bit per round to the best open path, lowest index on ties."""
    w = np.asarray(p.weights, dtype=float)
    bits = np.zeros(len(w), dtype=np.int64)
    if p.budget > 0:
        cap = min(p.budget, MAX_BITS)
        gains = marginal_gain_table(cap)
        for _ in range(p.budget):
            candidate = np.full(len(w), -1.0)
            open_paths = bits < cap
            candidate[open_paths] = w[open_paths] * gains[bits[open_paths]]
            step = int(np.argmax(candidate))
            if candidate[step] < 0.0:
                raise ValueError(f"budget {p.budget} exceeds {MAX_BITS} bits on every path")
            bits[step] += 1
    return tuple(int(b) for b in bits)


class TestEta:
    def test_known_values(self):
        assert eta(0) == 0.0
        assert eta(1) == pytest.approx(2 / math.pi, abs=1e-15)
        assert eta(2) == pytest.approx((4 / math.pi) * math.sin(math.pi / 4), abs=1e-15)

    def test_matches_quadrature_oracle(self):
        for bits in range(0, 9):
            assert eta(bits) == pytest.approx(eta_by_quadrature(bits), abs=1e-12)

    def test_strictly_increasing_to_one(self):
        vals = eta(np.arange(17))
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] > 1 - 1e-8

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            eta(-1)
        with pytest.raises(ValueError):
            eta(63)
        with pytest.raises(ValueError):
            eta(1.5)


class TestNmmse:
    def test_known_values(self):
        assert nmmse(0) == 1.0
        assert nmmse(1) == pytest.approx(1 - 4 / math.pi**2, abs=1e-15)
        assert nmmse(3) == pytest.approx(0.05035879644821628, abs=1e-12)

    def test_piecewise_linear_at_knots(self):
        for x in (0, 1, 2, 7):
            assert nmmse_pl(float(x)) == nmmse(x)

    def test_midpoint(self):
        assert nmmse_pl(0.5) == pytest.approx((nmmse(0) + nmmse(1)) / 2, abs=1e-15)

    def test_interior_point(self):
        assert nmmse_pl(1.25) == pytest.approx(0.75 * nmmse(1) + 0.25 * nmmse(2), abs=1e-15)

    def test_strictly_decreasing_quarter_grid(self):
        xs = np.arange(0, 16.01, 0.25)
        vals = [nmmse_pl(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_weak_convexity_at_integers(self):
        vals = nmmse(np.arange(18))
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.all(second >= -1e-12)

    def test_first_two_marginals_tie_exactly(self):
        gains = marginal_gain_table(3)
        assert gains[0] == gains[1] == 4 / math.pi**2


class TestGreedy:
    def test_dominant_path_takes_all(self):
        alloc = allocate_greedy(AllocationProblem(weights=(1, 0.25, 0.0625), budget=3))
        assert alloc.bits == (3, 0, 0)
        assert alloc.objective == pytest.approx(
            nmmse(3) + 0.25 + 0.0625, abs=1e-12)

    def test_equal_weights_lowest_index_tie_break(self):
        alloc = allocate_greedy(AllocationProblem(weights=(1.0, 1.0), budget=2))
        assert alloc.bits == (2, 0)
        other = weighted_nmmse((1.0, 1.0), (1, 1))
        assert alloc.objective == pytest.approx(other, abs=1e-12)

    def test_zero_budget(self):
        alloc = allocate_greedy(AllocationProblem(weights=(0.5, 0.25), budget=0))
        assert alloc.bits == (0, 0)
        assert alloc.objective == pytest.approx(0.75)

    def test_budget_monotone_and_incremental(self):
        weights = (1.0, 0.3, 0.02)
        prev_bits, prev_obj = (0, 0, 0), weighted_nmmse(weights, (0, 0, 0))
        for budget in range(1, 13):
            alloc = allocate_greedy(AllocationProblem(weights=weights, budget=budget))
            assert alloc.objective <= prev_obj + 1e-15
            diff = np.array(alloc.bits) - np.array(prev_bits)
            assert diff.sum() == 1 and np.all(diff >= 0)
            prev_bits, prev_obj = alloc.bits, alloc.objective

    def test_heavier_paths_get_no_fewer_bits(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            L = rng.integers(2, 5)
            weights = tuple(sorted(10.0 ** rng.uniform(-2, 1, size=L), reverse=True))
            budget = int(rng.integers(0, 13))
            alloc = allocate_greedy(AllocationProblem(weights=weights, budget=budget))
            for i in range(L - 1):
                assert alloc.bits[i] >= alloc.bits[i + 1]


    @settings(deadline=None, max_examples=300)
    @given(weights=st.lists(st.sampled_from([0.0, 1e-320, 1e-300, 0.25, 0.5, 1.0, 4.0])
                            | st.floats(0.0, 10.0), min_size=1, max_size=8),
           budget=st.integers(0, 130))
    def test_matches_round_by_round_reference(self, weights, budget):
        # sampled weights force exact ties, zero and subnormal products
        p = AllocationProblem(weights=tuple(weights), budget=budget)
        try:
            want = greedy_by_rounds(p)
        except ValueError:
            with pytest.raises(ValueError, match="exceeds"):
                allocate_greedy(p)
            return
        alloc = allocate_greedy(p)
        assert alloc.bits == want
        assert alloc.objective == weighted_nmmse(weights, want)

    def test_budget_beyond_every_path_rejected(self):
        for budget in (2 * MAX_BITS + 1, (3, 2 * MAX_BITS + 1, 0)):
            p = AllocationProblem(weights=(1.0, 0.5), budget=budget)
            with pytest.raises(ValueError, match=f"budget {2 * MAX_BITS + 1} exceeds"):
                allocate_greedy(p)
        full = allocate_greedy(AllocationProblem(weights=(1.0, 0.5), budget=2 * MAX_BITS))
        assert full.bits == (MAX_BITS, MAX_BITS)


class TestBudgetGrid:
    WEIGHT = st.sampled_from([0.0, 1e-320, 1e-300, 0.25, 0.5, 1.0, 4.0]) | st.floats(0.0, 10.0)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), weights=st.lists(WEIGHT, min_size=1, max_size=8))
    def test_rows_match_single_budget_calls(self, data, weights):
        # an unsorted grid holding 0 and the largest placeable budget, and a
        # stack of mixed path sets: the drawn weights, reversed, and fresh ones
        L = len(weights)
        extra = data.draw(st.lists(st.integers(0, L * MAX_BITS), max_size=6))
        grid = tuple(data.draw(st.permutations([0, L * MAX_BITS, *extra])))
        stack = np.array([weights, weights[::-1],
                          data.draw(st.lists(self.WEIGHT, min_size=L, max_size=L))])
        for strategy in ("greedy", "uniform", "none"):
            bits = allocate_bits(strategy, stack, grid)
            assert bits.shape == (3, len(grid), L) and bits.dtype == np.int64
            for weights_s, bits_s in zip(stack, bits):
                np.testing.assert_array_equal(bits_s, allocate_bits(strategy, weights_s, grid))
        np.testing.assert_array_equal(allocate_bits("none", weights, grid), 0)
        for allocate, strategy in ((allocate_greedy, "greedy"), (allocate_uniform, "uniform")):
            rows = allocate(AllocationProblem(weights=tuple(weights), budget=grid))
            np.testing.assert_array_equal(rows.bits, allocate_bits(strategy, stack, grid)[0])
            assert len(rows.bits) == len(rows.objective) == len(grid)
            for budget, bits, objective in zip(grid, rows.bits, rows.objective):
                one = allocate(AllocationProblem(weights=tuple(weights), budget=budget))
                assert bits == one.bits
                assert np.float64(objective).tobytes() == np.float64(one.objective).tobytes()
            # the closed-form MSE of the grid, one row per budget, against the
            # single-budget formula N * (beta**2 @ nmmse(bits))
            betas = np.sqrt(weights)
            mse = theoretical_weighted_mse(betas, rows.bits, 16)
            assert mse.shape == (len(grid),)
            for bits, value in zip(rows.bits, mse):
                want = float(16 * (betas**2 @ nmmse(np.array(bits))))
                assert np.float64(value).tobytes() == np.float64(want).tobytes()

    def test_grid_shapes_and_validation(self):
        p = AllocationProblem(weights=(1.0, 0.25), budget=[3, 0])
        assert p.budget == (3, 0)
        assert allocate_greedy(p).bits == ((3, 0), (0, 0))
        assert allocate_uniform(p).bits == ((2, 1), (0, 0))
        for bad in ((), (1, -1), (1, 2.5)):
            with pytest.raises(ValueError, match="budget"):
                AllocationProblem(weights=(1.0,), budget=bad)
        with pytest.raises(ValueError, match="single budget"):
            allocate_bruteforce(p)
        with pytest.raises(ValueError, match="unknown allocator"):
            allocate_bits("optimal", p.weights, p.budgets)
        for bad in ([[1, 2, 3]], [[[1, 2]]]):
            with pytest.raises(ValueError, match="matching lengths"):
                theoretical_weighted_mse([1.0, 0.5], bad, 8)


class TestBruteforce:
    def test_matches_greedy_on_reference_instance(self):
        p = AllocationProblem(weights=(1, 0.25, 0.0625), budget=3)
        assert allocate_bruteforce(p).objective == pytest.approx(
            allocate_greedy(p).objective, abs=1e-15)

    def test_single_path_gets_whole_budget(self):
        alloc = allocate_bruteforce(AllocationProblem(weights=(0.7,), budget=9))
        assert alloc.bits == (9,)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            allocate_bruteforce(AllocationProblem(weights=(1.0,) * 12, budget=40))

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            L = int(rng.integers(1, 5))
            weights = tuple(10.0 ** rng.uniform(-1.5, 1.5, size=L))
            budget = int(rng.integers(0, 13))
            p = AllocationProblem(weights=weights, budget=budget)
            g, b = allocate_greedy(p), allocate_bruteforce(p)
            assert g.objective == pytest.approx(b.objective, abs=1e-12)


class TestUniform:
    def test_even_split(self):
        assert allocate_uniform(AllocationProblem(weights=(1, 1, 1), budget=6)).bits == (2, 2, 2)

    def test_remainder_to_leading_paths(self):
        assert allocate_uniform(AllocationProblem(weights=(1, 1, 1), budget=7)).bits == (3, 2, 2)


class TestTheoreticalMse:
    def test_single_path(self):
        assert theoretical_weighted_mse([1.0], [1], 4) == pytest.approx(
            4 * (1 - 4 / math.pi**2), abs=1e-12)

    def test_large_bits_vanish(self):
        assert theoretical_weighted_mse([1.0, 2.0], [40, 40], 16) < 1e-12

    def test_zero_bits_full_power(self):
        assert theoretical_weighted_mse([1.0, 1.0], [0, 0], 8) == pytest.approx(16.0)

    def test_componentwise_monotone_in_bits(self):
        betas = [1.0, 0.5]
        base = theoretical_weighted_mse(betas, [2, 2], 8)
        assert theoretical_weighted_mse(betas, [3, 2], 8) <= base
        assert theoretical_weighted_mse(betas, [2, 3], 8) <= base
