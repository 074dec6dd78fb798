import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from bootperc.errors import PreconditionError, ResourceLimitError
from bootperc.graphs import cartesian_product, make_complete
from bootperc.linalg import mat_rank
from bootperc.polymethod import (
    EdgeColoring,
    complete_graph_witnesses,
    first_primes,
    is_proper_coloring,
    lift_coloring,
    poly_degree,
    poly_eval,
    primes_above,
    product_coloring,
    product_coloring_on,
    recognized_space_dim,
    recognized_space_dim_hamming,
    recognized_space_report,
    witness_value_matrix,
)


class TestPrimes:
    def test_first_primes(self):
        assert first_primes(6) == [2, 3, 5, 7, 11, 13]

    def test_primes_above(self):
        assert primes_above(5, 2) == [7, 11]
        assert primes_above(7, 3) == [11, 13, 17]


class TestProductColoring:
    def test_frozen_triangle(self):
        c = product_coloring(3)
        assert c.colors == {(0, 1): 6, (0, 2): 10, (1, 2): 15}
        assert c.generators == (2, 3, 5)

    def test_single_edge(self):
        c = product_coloring(2)
        assert c.colors == {(0, 1): 6}

    def test_all_products_distinct(self):
        c = product_coloring(6)
        assert len(set(c.colors.values())) == 15

    def test_properness_checker_catches_clash(self):
        g = make_complete(3)
        bad = EdgeColoring({(0, 1): 4, (0, 2): 4, (1, 2): 9})
        assert not is_proper_coloring(g, bad)
        assert is_proper_coloring(g, product_coloring(3))

    def test_rejects_repeated_generators(self):
        with pytest.raises(PreconditionError):
            product_coloring_on(make_complete(3), [2, 2, 5])
        with pytest.raises(PreconditionError):
            product_coloring_on(make_complete(3), [0, 1, 2])


class TestLiftColoring:
    def test_fresh_primes(self):
        k3 = make_complete(3)
        lifted = lift_coloring(k3, product_coloring(3), 2)
        assert lifted.generators == (7, 11)
        # fiber edges over base vertex i connect (i,0)-(i,1), i.e. 2i and 2i+1
        assert lifted.colors[(0, 1)] == 77
        assert 77 not in {6, 10, 15}
        # copy edges keep their base color: base edge (0,1) in fiber 0 is (0,2)
        assert lifted.colors[(0, 2)] == 6

    def test_lift_over_k1_keeps_colors(self):
        k4 = make_complete(4)
        base = product_coloring(4)
        lifted = lift_coloring(k4, base, 1)
        assert lifted.colors == base.colors

    def test_iterated_lift_stays_proper(self):
        g = make_complete(3)
        coloring = product_coloring(3)
        coloring = lift_coloring(g, coloring, 3)
        g = cartesian_product(g, make_complete(3))
        assert is_proper_coloring(g, coloring)
        # exhaustive: incident edges really get distinct colors
        for v in range(g.vertex_count):
            row = g.targets[g.offsets[v] : g.offsets[v + 1]]
            seen = [coloring.colors[tuple(sorted((v, w)))] for w in row]
            assert len(seen) == len(set(seen))

    def test_rejects_improper_input(self):
        g = make_complete(3)
        with pytest.raises(PreconditionError):
            lift_coloring(g, EdgeColoring({(0, 1): 4, (0, 2): 4, (1, 2): 9}), 2)


class TestRecognizedSpaceDim:
    def test_constants_force_dimension_one(self):
        for n in range(2, 6):
            assert recognized_space_dim(make_complete(n), product_coloring(n), 1) == 1

    def test_frozen_squeeze_values(self):
        assert recognized_space_dim(make_complete(4), product_coloring(4), 3) == 6
        assert recognized_space_dim(make_complete(3), product_coloring(3), 2) == 3

    def test_zero_threshold_space_is_trivial(self):
        assert recognized_space_dim(make_complete(4), product_coloring(4), 0) == 0

    def test_report_shape(self):
        report = recognized_space_report(make_complete(4), product_coloring(4), 3)
        assert report.dim == 6
        assert report.constraint_rows == 6
        assert report.constraint_cols == 12
        assert report.kernel_dim >= report.dim

    def test_cost_guard_is_edges_times_columns_squared(self):
        g, c = make_complete(4), product_coloring(4)
        assert recognized_space_report(g, c, 3, cost_cap=6 * 12**2).dim == 6
        with pytest.raises(ResourceLimitError):
            recognized_space_report(g, c, 3, cost_cap=6 * 12**2 - 1)

    def test_rejects_improper_coloring(self):
        bad = EdgeColoring({(0, 1): 4, (0, 2): 4, (1, 2): 9})
        with pytest.raises(PreconditionError):
            recognized_space_dim(make_complete(3), bad, 2)

    def test_nonprime_generators_reach_the_same_dimension(self):
        # any distinct nonzero generators support the full witness family
        c = product_coloring_on(make_complete(4), [1, 2, 3, 4])
        assert recognized_space_dim(make_complete(4), c, 3) == 6


class TestLiftInequality:
    @pytest.mark.parametrize("base_n", (3, 4))
    @pytest.mark.parametrize("m", (2, 3))
    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_lifted_dimension_dominates_layer_sum(self, base_n, m, r):
        g = make_complete(base_n)
        c = product_coloring(base_n)
        lifted = lift_coloring(g, c, m)
        product = cartesian_product(g, make_complete(m))
        layer_sum = sum(recognized_space_dim(g, c, r - t) for t in range(m))
        assert recognized_space_dim(product, lifted, r) >= layer_sum


class TestHammingDimension:
    def test_frozen_values(self):
        assert recognized_space_dim_hamming(3, 1, 2) == 1
        assert recognized_space_dim_hamming(4, 2, 2) == 4
        assert recognized_space_dim_hamming(4, 3, 1) == 6

    def test_matches_binomial(self):
        for n, r, d in [(3, 2, 2), (4, 1, 2), (3, 1, 3)]:
            assert recognized_space_dim_hamming(n, r, d) == comb(d + r, d + 1)

    @pytest.mark.parametrize("n,r", [(4, 3), (5, 3)])
    def test_three_dimensional_rows_within_ten_seconds(self, n, r):
        started = time.perf_counter()
        assert recognized_space_dim_hamming(n, r, 3) == comb(3 + r, 3 + 1)
        assert time.perf_counter() - started < 10.0

    def test_variable_cap(self):
        with pytest.raises(ResourceLimitError):
            recognized_space_dim_hamming(4, 2, 2, cost_cap=10)

    def test_rejects_unproven_range(self):
        with pytest.raises(PreconditionError):
            recognized_space_dim_hamming(3, 3, 2)


class TestWitnesses:
    def test_count_and_edges(self):
        ws = complete_graph_witnesses(4, 2)
        assert [w.edge for w in ws] == [(0, 1), (0, 2), (1, 2)]

    def test_degree_bound(self):
        for n, r in [(4, 2), (5, 3), (5, 4)]:
            for w in complete_graph_witnesses(n, r):
                assert all(poly_degree(p) <= r - 1 for p in w.polynomials)

    def test_recognition_on_every_edge(self):
        n, r = 5, 3
        gammas = first_primes(n)
        for w in complete_graph_witnesses(n, r):
            for i, j in combinations(range(n), 2):
                color = gammas[i] * gammas[j]
                left = poly_eval(w.polynomials[i], color)
                right = poly_eval(w.polynomials[j], color)
                assert left == right == w.values[(i, j)]

    def test_vanishing_pattern(self):
        n, r = 5, 3
        for w in complete_graph_witnesses(n, r):
            for i, j in combinations(range(r + 1), 2):
                expected = Fraction(1) if (i, j) == w.edge else Fraction(0)
                assert w.values[(i, j)] == expected

    @pytest.mark.parametrize("n,r", [(4, 2), (5, 3), (5, 4)])
    def test_linear_independence(self, n, r):
        ws = complete_graph_witnesses(n, r)
        matrix = witness_value_matrix(ws, make_complete(n))
        assert mat_rank(matrix) == comb(r + 1, 2)

    @pytest.mark.parametrize("n,r", [(4, 2), (5, 3), (5, 4)])
    def test_witnesses_live_inside_the_recognized_space(self, n, r):
        # test_recognition_on_every_edge shows each witness is recognized;
        # spanning as many dimensions as the space has, they span it.
        g = make_complete(n)
        rank = mat_rank(witness_value_matrix(complete_graph_witnesses(n, r), g))
        assert rank == recognized_space_dim(g, product_coloring(n), r) == comb(r + 1, 2)

    def test_rejects_unproven_range(self):
        with pytest.raises(PreconditionError):
            complete_graph_witnesses(3, 3)
