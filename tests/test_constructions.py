import re
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import ceil, comb

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_star
from bootperc import constructions, formulas
from bootperc.constructions import (
    _binomial_exceeds,
    _check_corner_args,
    carved_corner_set,
    carved_region,
    line_seed,
    simplex_corner_set,
    simplex_region,
    star_seed_hamming,
    vertex_seed_dim2,
)
from bootperc.engine import percolate
from bootperc.errors import PreconditionError, ResourceLimitError
from bootperc.formulas import min_seed_line_complete
from bootperc.graphs import make_hamming
from bootperc.hamming import HammingSpace


def decode_all(n, d, indices):
    sp = HammingSpace(n, d)
    return {sp.decode(i) for i in indices}


def corner_masks(d):
    """All t in {0,1}^d with t_1 = t_2: the corners a region is reflected to."""
    return [t for t in product((0, 1), repeat=d) if t[0] == t[1]]


def reflect(point, mask, n):
    """x_i -> n-1-x_i where mask_i = 1."""
    return tuple(n - 1 - x if t else x for x, t in zip(point, mask))


def reference_corners(region, n, d):
    """Each point of the region, reflected to every corner and encoded."""
    sp, masks = HammingSpace(n, d), corner_masks(d)
    return {p: {sp.encode(reflect(p, t, n)) for t in masks} for p in region}


class TestVertexSeedDim2:
    def test_smallest_case(self):
        assert decode_all(3, 2, vertex_seed_dim2(3, 2)) == {(0, 2), (2, 0)}

    def test_zero_threshold_is_empty(self):
        assert vertex_seed_dim2(5, 0) == frozenset()

    def test_figure_case_size(self):
        assert len(vertex_seed_dim2(6, 5)) == 9

    @pytest.mark.parametrize("r", range(0, 11))
    def test_size_formula(self, r):
        for n in range(ceil(r / 2) + 1, r + 5):
            assert len(vertex_seed_dim2(n, r)) == (r + 1) ** 2 // 4

    def test_rejects_small_alphabet(self):
        with pytest.raises(PreconditionError):
            vertex_seed_dim2(2, 5)

    def test_percolates_sample(self):
        g = make_hamming(HammingSpace(4, 2))
        tr = percolate(g, 3, "vertex", vertex_seed_dim2(4, 3))
        assert len(tr.final) == 16

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_full_scan(self, n):
        space = HammingSpace(n, 2)
        for r in range(2 * n):
            hi, lo = -(-r // 2), r // 2
            if n <= hi:
                with pytest.raises(PreconditionError):
                    vertex_seed_dim2(n, r)
                continue
            scan = {
                space.encode((x, y))
                for x in range(n)
                for y in range(n)
                if x + (n - 1 - y) < hi or (n - 1 - x) + y < lo
            }
            assert vertex_seed_dim2(n, r) == scan


class TestRegions:
    def test_simplex_freeze(self):
        assert simplex_region(5, 4, 3) == frozenset(
            {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
        )

    def test_simplex_size_is_stars_and_bars(self):
        for d in (2, 3, 4):
            for r in range(1, 7):
                n = r + 1
                s = ceil(r / 2)
                assert len(simplex_region(n, r, d)) == comb(s - 1 + d, d)

    def test_cut_is_empty_in_dim2(self):
        for r in range(1, 8):
            assert simplex_region(r + 1, r, 2) == carved_region(r + 1, r, 2)

    def test_carved_freeze(self):
        # the cut removes exactly the origin: 0 < 1/2 holds, but for
        # (0,0,1) the comparison is 1/2 < 1/2, which fails
        assert simplex_region(5, 4, 3) - carved_region(5, 4, 3) == frozenset({(0, 0, 0)})
        assert carved_region(5, 4, 3) == frozenset(
            {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        )

    def test_exact_boundary_dim4(self):
        # d=4, r=6: delta=2/3, bound=4/3; (0,0,2,0) gives exactly 4/3
        # and must stay out of the cut
        carved = carved_region(7, 6, 4)
        assert (0, 0, 2, 0) in carved
        assert (0, 0, 1, 0) not in carved  # 2/3 < 4/3: in the cut
        assert (0, 0, 1, 0) in simplex_region(7, 6, 4)

    def test_integer_cut_equals_the_rational_cut(self):
        for d in range(2, 9):
            delta = Fraction(d - 2, d - 1)
            for r in range(0, 13):
                bound = delta * (ceil(r / 2) - 1)
                in_cut = constructions._in_cut(r, d)
                for p in constructions._simplex_points(r + 1, r, d):
                    rational = p[0] + p[1] + delta * sum(p[2:]) < bound
                    assert in_cut(p) == rational, (r, d, p)

    def test_carved_inside_simplex(self):
        for d in (2, 3, 4):
            for r in range(1, 6):
                assert carved_region(r + 1, r, d) <= simplex_region(r + 1, r, d)

    def test_carved_is_simplex_minus_cut(self):
        # the cut in rationals: x_1 + x_2 + delta*(x_3+...+x_d) < delta*(ceil(r/2)-1)
        for d in range(2, 7):
            delta = Fraction(d - 2, d - 1)
            for r in range(0, 11):
                bound = delta * (ceil(r / 2) - 1)
                for n in (r + 1, r + 3):
                    simplex = simplex_region(n, r, d)
                    cut = {p for p in simplex if p[0] + p[1] + delta * sum(p[2:]) < bound}
                    assert carved_region(n, r, d) == simplex - cut, (n, r, d)

    def test_carved_enumerates_the_simplex_once(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(constructions, name)

            def call(*args):
                calls.append(name)
                return real(*args)

            return call

        for name in ("_check_corner_args", "_simplex_points"):
            monkeypatch.setattr(constructions, name, counted(name))
        region = carved_region(9, 8, 5)
        assert calls == ["_check_corner_args", "_simplex_points"]
        # the benchmark's verify seed: 2^4 corners of the 35 carved points
        assert (len(region), len(carved_corner_set(9, 8, 5))) == (35, 560)

    def test_rejects_bad_args(self):
        with pytest.raises(PreconditionError):
            simplex_region(4, 4, 3)
        with pytest.raises(PreconditionError):
            simplex_region(5, 4, 1)


class TestCornerSets:
    def test_simplex_corner_freeze(self):
        assert decode_all(3, 2, simplex_corner_set(3, 2, 2)) == {(0, 0), (2, 2)}

    def test_carved_corner_size(self):
        assert len(carved_corner_set(5, 4, 3)) == 12

    def test_carved_subset_of_simplex(self):
        for d in (2, 3):
            for r in range(1, 6):
                for n in (r + 1, r + 2):
                    assert carved_corner_set(n, r, d) <= simplex_corner_set(n, r, d)

    def test_dim2_sets_coincide(self):
        for r in range(1, 7):
            assert carved_corner_set(r + 1, r, 2) == simplex_corner_set(r + 1, r, 2)

    def test_percolation_sample(self):
        g = make_hamming(HammingSpace(5, 3))
        tr = percolate(g, 4, "vertex", carved_corner_set(5, 4, 3))
        assert len(tr.final) == 125

    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("r", (1, 2, 3, 4))
    def test_both_sets_percolate_with_slack_alphabet(self, d, r):
        # the guarantee holds for every n >= r+1, not just the tight one
        for n in (r + 1, r + 3):
            g = make_hamming(HammingSpace(n, d))
            final_a = percolate(g, r, "vertex", simplex_corner_set(n, r, d)).final
            final_c = percolate(g, r, "vertex", carved_corner_set(n, r, d)).final
            assert len(final_a) == g.vertex_count
            assert len(final_c) == g.vertex_count

    def test_stalled_closure_is_reflection_invariant(self):
        # the seed is a union over every corner mask, so the closure is
        # preserved by each reflection even when it stalls early
        n, d = 5, 3
        sp = HammingSpace(n, d)
        g = make_hamming(sp)
        seed = carved_corner_set(n, 4, d)
        final = percolate(g, 6, "vertex", seed).final
        assert len(final) < g.vertex_count
        for mask in corner_masks(d):
            assert {sp.encode(reflect(sp.decode(i), mask, n)) for i in final} == final

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_reflect_and_encode(self, d):
        # the corner guard admits every case: at most 2^7 * C(12, 8) = 63360 points
        for r in range(10):
            for n in (r + 1, r + 2, r + 4):
                # the carved region is part of the simplex: reflect the simplex once
                corners = reference_corners(simplex_region(n, r, d), n, d)
                want = set().union(*corners.values())
                assert simplex_corner_set(n, r, d) == want, (n, r, d)
                want = set().union(*map(corners.get, carved_region(n, r, d)))
                assert carved_corner_set(n, r, d) == want, (n, r, d)

    def test_twelve_dimensional_carved_size(self):
        assert len(carved_corner_set(6, 5, 12)) == 159744


class TestCornerGuard:
    """Corner constructions count their points before enumerating any."""

    @pytest.mark.parametrize(
        "build", [simplex_region, carved_region, simplex_corner_set, carved_corner_set]
    )
    @pytest.mark.parametrize("n,r,d", [(2, 1, 2000), (2, 1, 40), (1, 0, 2000), (2, 1, 10**9)])
    def test_refused_before_enumerating(self, build, n, r, d):
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(ResourceLimitError, match="corner masks"):
                build(n, r, d)
            assert time.perf_counter() - started < 1.0
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()

    def test_refuses_many_region_points(self):
        # 2 * C(1202, 2) = 1443602 points are refused; 2 * C(1002, 2) = 1003002 pass
        with pytest.raises(ResourceLimitError, match="region points"):
            simplex_corner_set(2402, 2401, 2)
        _check_corner_args(2002, 2001, 2)

    def test_preconditions_come_first(self):
        with pytest.raises(PreconditionError):
            simplex_corner_set(2, 2, 2000)

    def test_counts_the_points_it_admits(self):
        # the simplex region's points, each reflected to the 2^(d-1) corners
        for d in (2, 3, 5):
            for r in range(1, 9):
                points = 2 ** (d - 1) * len(simplex_region(r + 1, r, d))
                assert _check_corner_args(r + 1, r, d) == points

    def test_admits_every_table_row_up_to_r30_at_d6(self):
        # r = 29 and 30 count 2^5 * C(20, 6) = 1240320 points, under the cap
        for r in range(1, 31):
            _check_corner_args(r + 1, r, 6)
        with pytest.raises(ResourceLimitError):
            _check_corner_args(32, 31, 6)  # 2^5 * C(21, 6) = 1736448 points


class TestStarSeeds:
    # on K_n = K_n^1 the star seed is the complete-graph seed
    def test_complete_freeze(self):
        assert star_seed_hamming(4, 2, 1) == frozenset({(0, 1), (0, 2), (1, 2)})
        assert star_seed_hamming(5, 1, 1) == frozenset({(0, 1)})
        assert len(star_seed_hamming(5, 4, 1)) == 10

    def test_complete_rejects(self):
        with pytest.raises(PreconditionError):
            star_seed_hamming(4, 4, 1)

    def test_hamming_freeze(self):
        assert star_seed_hamming(4, 2, 2) == frozenset(
            {(0, 4), (0, 8), (4, 8), (1, 5)}
        )

    def test_dim1_is_complete_seed(self):
        # every edge inside {0..r}: C(r+1, 2) edges
        for n in range(1, 12):
            for r in range(n):
                want = {(i, j) for j in range(r + 1) for i in range(j)}
                assert star_seed_hamming(n, r, 1) == want, (n, r)

    def test_dim1_builds_only_its_own_edges(self):
        # C(201, 2) edges, not the C(202, 3) of the seeds for every threshold below
        tracemalloc.start()
        try:
            seed = star_seed_hamming(201, 200, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seed == {(i, j) for j in range(201) for i in range(j)}
        assert peak < 400 * len(seed)

    @pytest.mark.parametrize(
        "build,size",
        [
            # each just past the cap, so a seed built before the check stays small
            (lambda: star_seed_hamming(74, 73, 3), "C(76,4)"),  # 1282975 edges
            (lambda: star_seed_hamming(1582, 1581, 1), "C(1582,2)"),  # 1250571 edges
            (lambda: line_seed(3200, 3161), "1250571"),
        ],
        ids=["star", "star-d1", "line"],
    )
    def test_edges_are_counted_before_building(self, build, size):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=rf"{re.escape(size)} edges \(cap 1250000"):
            build()
        assert time.perf_counter() - started < 0.5

    def test_binomial_bound(self):
        for m in range(30):
            for k in range(-1, 32):
                exact = comb(m, k) if k >= 0 else 0
                for cap in (0, 1, 7, 1000):
                    assert _binomial_exceeds(m, k, cap) == (exact > cap), (m, k, cap)
        # C(2*10^5, 10^5+1) has 60k digits; its partial products pass the cap in 21 steps
        started = time.perf_counter()
        assert _binomial_exceeds(2 * 10**5, 10**5 + 1, 1_250_000)
        assert time.perf_counter() - started < 0.1

    def test_empty_seed_of_any_dimension(self):
        # r = 0 builds no lower dimension, however many there are
        started = time.perf_counter()
        assert star_seed_hamming(1, 0, 10**7) == frozenset()
        assert time.perf_counter() - started < 0.5

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 2))
    @example(1, 0, 0)  # r = 0, d = 1, n = r + 1
    @example(1, 4, 0)
    @example(5, 0, 1)
    def test_matches_the_lifted_reference(self, d, r, spare):
        n = r + 1 + spare  # n = r + 1 is the smallest n the seed admits
        assert star_seed_hamming(n, r, d) == reference_star.star_seed_hamming(n, r, d)

    def test_layer_decomposition(self):
        # layer t along the last coordinate carries the seed for threshold r-t
        n, r, d = 5, 3, 3
        seed = star_seed_hamming(n, r, d)
        for t in range(r):
            layer = {
                (u // n, v // n)
                for u, v in seed
                if u % n == t and v % n == t
            }
            assert layer == set(star_seed_hamming(n, r - t, d - 1))
        assert all(u % n == v % n and u % n < r for u, v in seed)

    @pytest.mark.parametrize("d", (1, 2, 3))
    @pytest.mark.parametrize("r", (1, 2, 3, 4, 5))
    def test_size_formula(self, d, r):
        for n in (r + 1, r + 2):
            assert len(star_seed_hamming(n, r, d)) == comb(d + r, d + 1)


class TestLineSeed:
    def test_freezes(self):
        assert line_seed(4, 2) == frozenset({(0, 3), (2, 3)})
        assert line_seed(5, 3) == frozenset({(0, 3), (0, 4), (1, 4)})
        assert line_seed(6, 0) == frozenset()

    @pytest.mark.parametrize("r", range(0, 11))
    def test_size_formula(self, r):
        lo = ceil(r / 2) + 2
        for n in range(lo, lo + 5):
            assert len(line_seed(n, r)) == (r + 2) ** 2 // 8

    def test_every_admitted_instance(self):
        # n >= ceil(r/2)+2, that is r <= 2(n-2): simple edges, the closed-form size
        for n in range(2, 41):
            for r in range(2 * (n - 2) + 1):
                seed = line_seed(n, r)
                assert all(0 <= u < v < n for u, v in seed), (n, r)
                assert len({frozenset(e) for e in seed}) == len(seed), (n, r)
                assert len(seed) == min_seed_line_complete(n, r), (n, r)

    def test_size_is_checked_against_the_closed_form(self, monkeypatch):
        monkeypatch.setattr(formulas, "min_seed_line_complete", lambda n, r: (r + 2) ** 2 // 8 + 1)
        with pytest.raises(AssertionError, match="disagrees with its closed form"):
            line_seed(9, 6)

    def test_rejects_small_alphabet(self):
        with pytest.raises(PreconditionError):
            line_seed(4, 6)
