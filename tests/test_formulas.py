import random
from fractions import Fraction
from math import ceil, comb

import pytest

from bootperc.constructions import simplex_region
from bootperc.errors import PreconditionError, ResourceLimitError
from bootperc.formulas import (
    min_seed_hamming_bounds,
    min_seed_hamming_dim2,
    min_seed_line_complete,
    weak_saturation_hamming,
)
from reference_simplex import count_weighted_simplex, weighted_simplex_bounds


class TestClosedForms:
    def test_hamming_dim2(self):
        assert min_seed_hamming_dim2(6, 5) == 9
        assert min_seed_hamming_dim2(2, 5) == 4  # degree < r, nothing spreads
        assert min_seed_hamming_dim2(9, 0) == 0

    def test_weak_saturation(self):
        assert weak_saturation_hamming(4, 2, 2) == 4
        assert weak_saturation_hamming(5, 4, 3) == 35
        assert weak_saturation_hamming(9, 1, 1) == 1

    def test_weak_saturation_rejects_unproven_range(self):
        with pytest.raises(PreconditionError):
            weak_saturation_hamming(4, 4, 2)

    def test_line_complete(self):
        assert min_seed_line_complete(4, 2) == 2
        assert min_seed_line_complete(3, 4) == 3  # C(3,2), too sparse to percolate
        assert min_seed_line_complete(9, 0) == 0
        assert min_seed_line_complete(4, 1) == 1

    @pytest.mark.parametrize("bad", [2.5, "2", None], ids=["float", "str", "None"])
    @pytest.mark.parametrize(
        "formula,args",
        [
            (min_seed_hamming_dim2, (4, 2)),
            (min_seed_line_complete, (9, 2)),
            (weak_saturation_hamming, (4, 2, 2)),
            (min_seed_hamming_bounds, (4, 2, 2)),
        ],
        ids=["dim2", "line", "wsat", "bounds"],
    )
    def test_refuses_a_size_or_threshold_that_is_not_an_int(self, formula, args, bad):
        # a float r used to give the float 3.0 (dim2) or 2.0 (line), not an error
        for i in range(len(args)):
            with pytest.raises(PreconditionError, match=r"^\w+( r)? must be an int, not "):
                formula(*args[:i], bad, *args[i + 1 :])

    def test_threshold_past_float_precision(self):
        # ceil(r/2) = 2^59 + 5, which float division rounds to 2^59
        r = 2**60 + 9
        assert min_seed_hamming_dim2(2**59 + 1, r) == (2**59 + 1) ** 2
        assert min_seed_line_complete(2**59 + 2, r) == comb(2**59 + 2, 2)


class TestHammingBounds:
    def test_frozen_example(self):
        lower, upper = min_seed_hamming_bounds(11, 10, 3)
        assert lower == Fraction(715, 10)
        assert upper == Fraction(3247, 12)

    def test_dim2_specialization(self):
        for r in range(1, 9):
            lower, upper = min_seed_hamming_bounds(r + 1, r, 2)
            assert lower == Fraction(comb(r + 2, 3), r)
            assert upper == Fraction((r + 3) ** 2, 4)

    def test_exact_value_sits_inside(self):
        for r in range(1, 11):
            n = r + 1
            lower, upper = min_seed_hamming_bounds(n, r, 2)
            exact = min_seed_hamming_dim2(n, r)
            assert lower <= exact <= upper

    def test_rejects_unproven_range(self):
        with pytest.raises(PreconditionError):
            min_seed_hamming_bounds(3, 3, 2)
        with pytest.raises(PreconditionError):
            min_seed_hamming_bounds(5, 2, 1)


class TestIdentities:
    def test_layer_sum_telescopes(self):
        # sum_{t=0}^{r-1} C(d-1+r-t, d) = C(d+r, d+1)
        for d in range(1, 7):
            for r in range(1, 13):
                total = sum(comb(d - 1 + r - t, d) for t in range(r))
                assert total == comb(d + r, d + 1)

    def test_edge_vertex_coupling(self):
        # the minimum edge seed never beats r times the minimum vertex seed
        for r in range(1, 13):
            for n in (r + 1, r + 2, r + 5):
                assert weak_saturation_hamming(n, r, 2) <= r * min_seed_hamming_dim2(n, r)


class TestWeightedSimplexCount:
    def test_frozen_examples(self):
        assert count_weighted_simplex((1, 1, 1), 2) == 10
        assert count_weighted_simplex((1,), 0) == 1
        assert count_weighted_simplex((2, 3), 6) == 7

    def test_negative_budget(self):
        assert count_weighted_simplex((1, 2), -1) == 0

    def test_fractional_weights(self):
        # x/2 <= 3/2 has solutions x = 0..3
        assert count_weighted_simplex((Fraction(1, 2),), Fraction(3, 2)) == 4

    def test_matches_simplex_region_size(self):
        for d in (1, 2, 3, 4):
            for r in range(1, 8):
                s = ceil(r / 2)
                expected = count_weighted_simplex((1,) * d, s - 1)
                if d >= 2:
                    assert len(simplex_region(r + 1, r, d)) == expected

    def test_rejects_bad_weights(self):
        with pytest.raises(PreconditionError):
            count_weighted_simplex((1, 0), 3)
        with pytest.raises(PreconditionError):
            count_weighted_simplex((), 3)

    def test_count_guard(self):
        with pytest.raises(ResourceLimitError):
            count_weighted_simplex((1, 1, 1), 100, max_count=1000)


class TestWeightedSimplexBounds:
    def test_sandwich_random(self):
        rng = random.Random(414)
        for _ in range(60):
            k = rng.randint(1, 4)
            weights = [Fraction(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(k)]
            b = Fraction(rng.randint(1, 12))
            if b < min(weights):
                b = min(weights)
            lower, upper = weighted_simplex_bounds(weights, b)
            n = count_weighted_simplex(weights, b)
            assert lower <= n <= upper

    def test_requires_budget_at_least_min_weight(self):
        with pytest.raises(PreconditionError):
            weighted_simplex_bounds((2, 3), 1)
