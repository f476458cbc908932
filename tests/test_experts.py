import math
from fractions import Fraction as F
from itertools import product

import pytest
from conftest import reference_f_inverse

from littlestone import experts
from littlestone.experts import (
    binomial_estimate_check,
    binomial_sum,
    capacity_D,
    d_star,
    entropy,
    f_inverse,
    f_of,
    harmonic_number,
    mstar2_closed_form,
    sphere_packing_bound,
    up_min_over_grid,
    vovk_up,
)


class TestBinomialSum:
    def test_partial_sum(self):
        assert binomial_sum(5, 2) == 16

    @pytest.mark.parametrize("d", [0, 1, 5, 12])
    def test_full_sum_is_power_of_two(self, d):
        assert binomial_sum(d, d) == 2**d

    def test_values_in_two_expert_formula(self):
        assert binomial_sum(4, 2) == 11
        assert math.comb(4, 2) == 6

    def test_k_exceeding_d_saturates(self):
        assert binomial_sum(3, 9) == 8


class TestCapacityD:
    @pytest.mark.parametrize("k", range(0, 20))
    def test_single_expert(self, k):
        assert capacity_D(1, k) == k

    @pytest.mark.parametrize("k", range(0, 21))
    def test_two_experts(self, k):
        assert capacity_D(2, k) == 2 * k + 1

    def test_small_realizable_cases(self):
        assert capacity_D(4, 0) == 2
        assert capacity_D(3, 0) == 1

    def test_defining_inequality_tight(self):
        for n in (2, 3, 5, 64, 1000):
            for k in (0, 1, 3, 10):
                d = capacity_D(n, k)
                assert 2**d <= n * binomial_sum(d, k)
                assert 2 ** (d + 1) > n * binomial_sum(d + 1, k)

    def test_lower_bound_for_two_or_more(self):
        for n in (2, 7, 1000):
            for k in range(10):
                assert capacity_D(n, k) >= 2 * k + 1


class TestMStar2:
    def test_first_values(self):
        assert mstar2_closed_form(0) == F(1, 2)
        assert mstar2_closed_form(1) == F(7, 4)
        assert mstar2_closed_form(2) == F(47, 16)

    def test_error_term_ratio_bracket(self):
        # (M*(2,k) - (2k+1)/2) / sqrt(k) stays within a bracket computed
        # from the closed form at build time; comparisons squared to stay
        # exact.  The lower end is strictly positive.
        lo_sq = F(1, 16)  # attained at k = 1
        hi_sq = F(25502, 100000)  # just above the k = 64 ratio 0.2550127...
        assert lo_sq > 0
        ratios = []
        for k in range(1, 65):
            err = mstar2_closed_form(k) - F(2 * k + 1, 2)
            assert err > 0
            ratios.append(err * err / k)
        assert min(ratios) == lo_sq
        assert all(lo_sq <= r <= hi_sq for r in ratios)


class TestSpherePacking:
    def test_single_expert_saturation(self):
        for t in (0, 1, 5):
            assert sphere_packing_bound(1, t, t) == 1

    def test_arithmetic(self):
        assert sphere_packing_bound(2, 3, 1) == 1

    def test_clamped_presentation(self):
        assert sphere_packing_bound(4, 2, 2, clamp=True) == 1
        assert sphere_packing_bound(4, 2, 2) == 4

    def test_bound_dominates_exhaustive_fraction(self):
        # Two fixed advice columns over 6 rounds; count label sequences some
        # expert matches up to one error.
        col1 = (0, 0, 0, 0, 0, 0)
        col2 = (1, 1, 1, 1, 1, 1)
        realizable = 0
        for labels in product((0, 1), repeat=6):
            d1 = sum(a != y for a, y in zip(col1, labels))
            d2 = sum(a != y for a, y in zip(col2, labels))
            if min(d1, d2) <= 1:
                realizable += 1
        assert F(realizable, 2**6) <= sphere_packing_bound(2, 6, 1)


class TestEntropyFamily:
    def test_entropy_at_half(self):
        assert entropy(0.5).value == 1

    def test_entropy_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            assert entropy(p).value == pytest.approx(entropy(1 - p).value)

    def test_f_vanishes_at_half(self):
        assert f_of(0.5).value == 0

    def test_f_inverse_limit_documented(self):
        # f -> 0 only in the p = 1/2 limit, so c = 0 is rejected while tiny
        # positive c lands next to 1/2.
        with pytest.raises(ValueError):
            f_inverse(0)
        assert f_inverse(1e-6).value == pytest.approx(0.5, abs=1e-2)

    def test_f_inverse_equals_200_bisection_steps(self, monkeypatch):
        # Every log2(n)/k that d_star asks for at n <= 64, k <= 12, and
        # extremes on both sides, some of which do not converge.
        grid = {math.log2(n) / k for n in range(2, 65) for k in range(1, 13)}
        extremes = {1e-12, 1e-6, 1e-3, 1e3, 1e6, 1e15, 1e16, 5e16, 1e300}

        def outcome(inverse, c):
            try:
                return inverse(c)
            except ArithmeticError as e:
                return str(e)

        for c in sorted(grid | extremes):
            assert outcome(f_inverse, c) == outcome(reference_f_inverse, c), c
        # The bisection stops once the bracket is two adjacent floats.
        calls = []
        monkeypatch.setattr(experts, "f_of", lambda p: calls.append(p) or f_of(p))
        for c in grid:
            calls.clear()
            f_inverse(c)
            assert len(calls) <= 64, (c, len(calls))

    def test_f_inverse_residual(self):
        for c in (0.25, 1.0, 2.0, 10.0):
            got = f_inverse(c)
            assert got.method == "root-find"
            assert abs(f_of(got.value).value - c) <= 1e-10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            entropy(0.0)
        with pytest.raises(ValueError):
            f_of(0.7)


class TestDStar:
    def test_two_experts_one_mistake(self):
        got = d_star(2, 1)
        assert got.value == pytest.approx(4.4, abs=0.01)
        assert got.residual <= 1e-8

    def test_dominates_capacity_on_grid(self):
        for n in (2, 4, 16):
            for k in range(1, 9):
                assert d_star(n, k).value >= capacity_D(n, k)

    def test_many_experts_few_mistakes_tracks_capacity(self):
        # In the few-mistakes regime d_star hugs the exact capacity (within
        # 10% at a million-expert scale) and its ratio to log2(n) shrinks
        # toward 1 as n grows, though that limit is approached only
        # logarithmically slowly.
        n = 2**20
        assert d_star(n, 1).value / capacity_D(n, 1) == pytest.approx(1, abs=0.1)
        ratios = [d_star(2**b, 1).value / b for b in (10, 20, 40, 80)]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < 1.2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            d_star(1, 3)
        with pytest.raises(ValueError):
            d_star(4, 0)


class TestVovkUp:
    def test_point_value(self):
        assert vovk_up(2, 0, 0.5).value == pytest.approx(1 / math.log2(4 / 3))

    def test_dominates_capacity(self):
        for n in (2, 4):
            for k in range(5):
                for j in range(1, 20):
                    assert vovk_up(n, k, j / 20).value >= capacity_D(n, k) - 1e-9

    def test_grid_minimum_approaches_d_star(self):
        assert abs(up_min_over_grid(2, 1, 2000) - d_star(2, 1).value) <= 1e-3

    def test_beta_range_enforced(self):
        for beta in (0, 1, -0.5, 2):
            with pytest.raises(ValueError):
                vovk_up(2, 1, beta)


class TestBinomialEstimates:
    def test_reference_point(self):
        assert binomial_estimate_check(20, 5, F(1, 5))

    def test_degenerate_k_equals_d(self):
        for eps in (F(1, 10), F(1, 2), F(2, 1)):
            assert binomial_estimate_check(6, 6, eps)

    def test_grid(self):
        eps_grid = [F(1, 20), F(3, 20), F(1, 4), F(1, 3)]
        for d in range(10, 41, 3):
            for k in range(1, d // 2 + 1, 2):
                for eps in eps_grid:
                    assert binomial_estimate_check(d, k, eps)

    def test_float_eps_reads_as_decimal(self):
        assert binomial_estimate_check(20, 5, 0.05) == binomial_estimate_check(
            20, 5, F(1, 20)
        )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            binomial_estimate_check(5, 0, F(1, 10))
        with pytest.raises(ValueError):
            binomial_estimate_check(5, 6, F(1, 10))
        with pytest.raises(ValueError):
            binomial_estimate_check(5, 2, 0)


def test_harmonic_numbers():
    assert harmonic_number(1) == 1
    assert harmonic_number(4) == F(25, 12)
    with pytest.raises(ValueError):
        harmonic_number(0)


def test_report_second_order_gap_across_grid(capsys):
    # The optimal randomized loss sits at D/2 plus a square-root-order term
    # whose universal constant is unknown; report the measured normalized
    # gap on a small grid rather than asserting one.
    from littlestone.classes import expert_class
    from littlestone.dimension import Solver

    solver = Solver()
    gaps = {}
    for n in (2, 3, 4):
        for k in range(0, 3):
            rl = solver.randomized_littlestone(expert_class(n, k))
            d = capacity_D(n, k)
            gaps[(n, k)] = float(rl - F(d, 2)) / math.sqrt(d)
    lo, hi = min(gaps.values()), max(gaps.values())
    print(f"measured (RL_k - D/2)/sqrt(D) over the grid: [{lo:.4f}, {hi:.4f}]")
    assert all(-1 <= g <= 1 for g in gaps.values())
