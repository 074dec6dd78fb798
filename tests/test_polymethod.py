import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from bootperc import polymethod
from bootperc.errors import PreconditionError, ResourceLimitError
from bootperc.graphs import make_complete, make_hamming
from bootperc.hamming import HammingSpace
from bootperc.linalg import mat_rank
from bootperc.polymethod import (
    _hamming_coloring,
    first_primes,
    is_proper_coloring,
    product_coloring_on,
    recognized_space_dim_hamming,
    recognized_space_report,
)
from conftest import integer_rows
from reference_lift import (
    cartesian_product,
    iterated_lift,
    lift_coloring,
    primes_above,
    product_coloring,
    recognized_space_dim,
)
from reference_witnesses import complete_graph_witnesses, evaluate, witness_value_matrix


class TestPrimes:
    def test_first_primes(self):
        assert first_primes(6) == [2, 3, 5, 7, 11, 13]

    def test_primes_above(self):
        assert primes_above(5, 2) == [7, 11]
        assert primes_above(7, 3) == [11, 13, 17]


class TestProductColoring:
    def test_frozen_triangle(self):
        c = product_coloring(3)
        assert c == [6, 10, 15]  # edges (0,1), (0,2), (1,2): 2*3, 2*5, 3*5

    def test_single_edge(self):
        c = product_coloring(2)
        assert c == [6]

    def test_all_products_distinct(self):
        c = product_coloring(6)
        assert len(set(c)) == 15

    def test_properness_checker_catches_clash(self):
        g = make_complete(3)
        assert not is_proper_coloring(g, [4, 4, 9])  # (0,1) and (0,2) clash
        assert is_proper_coloring(g, product_coloring(3))

    def test_rejects_repeated_generators(self):
        with pytest.raises(PreconditionError):
            product_coloring_on(make_complete(3), [2, 2, 5])
        with pytest.raises(PreconditionError):
            product_coloring_on(make_complete(3), [0, 1, 2])

    @pytest.mark.parametrize("bad", [0.5, "a", None, [1]], ids=["float", "str", "None", "list"])
    def test_refuses_generators_that_are_not_rational(self, bad):
        # a float generator used to give float colors: [1.0, 1.5, 6] from [0.5, 2, 3]
        with pytest.raises(PreconditionError, match="^generator .* is not an int or a Fraction$"):
            product_coloring_on(make_complete(3), [bad, 2, 3])
        half = product_coloring_on(make_complete(3), [Fraction(1, 2), 2, 3])
        assert half == [1, Fraction(3, 2), 6]

    @pytest.mark.parametrize("bad", [1.5, "a", None, [1]], ids=["float", "str", "None", "list"])
    def test_properness_checker_refuses_colors_that_are_not_rational(self, bad):
        # a list color used to raise TypeError (unhashable) from the distinctness test
        for colors in ([bad, 2, 3], [bad, bad, bad], [bad]):
            with pytest.raises(PreconditionError, match="^color .* is not an int or a Fraction$"):
                is_proper_coloring(make_complete(3), colors)


class TestLiftColoring:
    def test_fresh_primes(self):
        k3 = make_complete(3)
        lifted = lift_coloring(k3, product_coloring(3), 2)
        # fiber edges over base vertex i connect (i,0)-(i,1), i.e. 2i and 2i+1;
        # they get 7*11 from the two primes above the base's largest, 5
        g = cartesian_product(k3, make_complete(2))
        assert [lifted[g.edge_id(2 * i, 2 * i + 1)] for i in range(3)] == [77] * 3
        assert 77 not in {6, 10, 15}
        # copy edges keep their base color: base edge (0,1) in fiber 0 is (0,2)
        assert lifted[g.edge_id(0, 2)] == 6

    def test_lift_over_k1_keeps_colors(self):
        k4 = make_complete(4)
        base = product_coloring(4)
        lifted = lift_coloring(k4, base, 1)
        assert lifted == base

    def test_iterated_lift_stays_proper(self):
        g = make_complete(3)
        coloring = product_coloring(3)
        coloring = lift_coloring(g, coloring, 3)
        g = cartesian_product(g, make_complete(3))
        assert is_proper_coloring(g, coloring)
        # exhaustive: incident edges really get distinct colors
        for v in range(g.vertex_count):
            row = g.targets[g.offsets[v] : g.offsets[v + 1]]
            seen = [coloring[g.edge_id(v, w)] for w in row]
            assert len(seen) == len(set(seen))

    def test_rejects_improper_input(self):
        g = make_complete(3)
        with pytest.raises(PreconditionError):
            lift_coloring(g, [4, 4, 9], 2)


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
        # a clash, a color list one short and one long: one color per edge id
        for bad in ([4, 4, 9], [6, 10], [6, 10, 15, 21]):
            with pytest.raises(PreconditionError, match="^coloring is not proper$"):
                recognized_space_report(make_complete(3), bad, 2)

    @pytest.mark.parametrize("bad", [1.5, "a", None, [1]], ids=["float", "str", "None", "list"])
    def test_refuses_colors_that_are_not_rational(self, bad):
        # refused before the properness check, which a list color would crash
        for colors in ([bad, 1, 2, 3, 4, 5], [bad, bad, 2, 3, 4, 5]):
            with pytest.raises(PreconditionError, match="is not an int or a Fraction$"):
                recognized_space_report(make_complete(4), colors, 3)
        assert recognized_space_report(make_complete(4), [bad] * 6, 0) == (0, 0, 0, 0)

    @pytest.mark.parametrize("bad", [1.5, "2", None], ids=["float", "str", "None"])
    def test_refuses_a_threshold_that_is_not_an_int(self, bad):
        g = make_complete(4)
        with pytest.raises(PreconditionError, match="^threshold r must be an int, not "):
            recognized_space_report(g, product_coloring(4), bad)
        with pytest.raises(PreconditionError, match="^threshold r must be an int, not "):
            recognized_space_dim_hamming(3, bad, 2)
        # an int r <= 0 is still the zero space
        assert recognized_space_report(g, product_coloring(4), -2) == (0, 0, 0, 0)

    def test_zero_color(self):
        # a proper coloring may use 0, whose rows have zero entries for x^1 .. x^(r-1)
        assert recognized_space_report(make_complete(4), list(range(6)), 3) == (6, 6, 12, 6)
        assert recognized_space_report(make_complete(4), list(range(6)), 1) == (1, 6, 4, 1)
        assert recognized_space_report(make_complete(5), list(range(10)), 4) == (10, 10, 20, 10)

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


class TestHammingColoring:
    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(2, 7) for d in range(1, 5) if n**d <= 1500], ids=str
    )
    def test_matches_the_iterated_lift(self, n, d):
        g, lifted = iterated_lift(n, d)  # colors in g.edge_list() order
        space = HammingSpace(n, d)
        assert g == make_hamming(space)
        assert _hamming_coloring(g, space) == lifted
        if d == 1:
            assert lifted == product_coloring_on(make_complete(n))


class TestHammingDimension:
    def test_frozen_values(self):
        assert recognized_space_dim_hamming(3, 1, 2) == 1
        assert recognized_space_dim_hamming(4, 2, 2) == 4
        assert recognized_space_dim_hamming(4, 3, 1) == 6
        assert recognized_space_dim_hamming(5, 4, 2) == 20

    def test_matches_binomial(self):
        for n, r, d in [(3, 2, 2), (4, 1, 2), (3, 1, 3)]:
            assert recognized_space_dim_hamming(n, r, d) == comb(d + r, d + 1)

    @pytest.mark.parametrize("n,r", [(4, 3), (5, 3)])
    def test_three_dimensional_rows_within_ten_seconds(self, n, r):
        started = time.perf_counter()
        assert recognized_space_dim_hamming(n, r, 3) == comb(3 + r, 3 + 1)
        assert time.perf_counter() - started < 10.0

    def test_variable_cap(self, monkeypatch):
        monkeypatch.setattr(polymethod, "make_hamming", None)  # refused before any graph
        with pytest.raises(ResourceLimitError):
            recognized_space_dim_hamming(4, 2, 2, cost_cap=10)
        with pytest.raises(ResourceLimitError):
            recognized_space_dim_hamming(3, 2, 10**9)  # n^d past the cap is not formed

    @pytest.mark.parametrize(
        "r,d", [(r, d) for r, top in ((2, 8), (3, 8), (4, 7)) for d in range(r, top + 1)]
    )
    def test_hypercube_fit(self, r, d):
        """On Q_d = K_2^d, below the n >= r+1 range of C(d+r, d+1),
        dim = sum over i < r of (r-i)*C(d,i).

        A fit to these 17 measured rows, not a proof.  Q_8 at r = 4 is
        past the default cost cap.
        """
        assert recognized_space_dim_hamming(2, r, d) == sum(
            (r - i) * comb(d, i) for i in range(r)
        )

    @pytest.mark.parametrize(
        "n,r,d,minimum",
        [
            (3, 3, 2, 4),
            (3, 4, 2, 6),
            (4, 4, 2, 6),
            (4, 5, 2, 9),
            (3, 3, 3, 6),
            (3, 4, 3, 9),
            # hypercubes, where the lifted bound meets the minimum
            (2, 2, 3, 3),
            (2, 3, 4, 6),
        ],
    )
    def test_lift_against_the_oracle(self, n, r, d, minimum):
        # minimum: m(K_n^d, r) found by the oracle (min_percolating), pinned;
        # for n <= r the lifted bound ceil(dim/r) holds but may fall short of it
        bound = -(-recognized_space_dim_hamming(n, r, d) // r)
        assert bound <= minimum
        if n == 2:
            assert bound == minimum


class TestWitnesses:
    def test_count_and_edges(self):
        ws = complete_graph_witnesses(4, 2)
        assert [w.edge for w in ws] == [(0, 1), (0, 2), (1, 2)]

    def test_degree_bound(self):
        for n, r in [(4, 2), (5, 3), (5, 4)]:
            for w in complete_graph_witnesses(n, r):
                assert all(len(roots) <= r - 1 for _, roots in w.polynomials)

    def test_recognition_on_every_edge(self):
        n, r = 5, 3
        gammas = first_primes(n)
        for w in complete_graph_witnesses(n, r):
            for i, j in combinations(range(n), 2):
                color = gammas[i] * gammas[j]
                left = evaluate(w.polynomials[i], color)
                right = evaluate(w.polynomials[j], color)
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
        assert mat_rank(integer_rows(matrix)) == comb(r + 1, 2)

    @pytest.mark.parametrize("n,r", [(4, 2), (5, 3), (5, 4)])
    def test_witnesses_live_inside_the_recognized_space(self, n, r):
        # test_recognition_on_every_edge shows each witness is recognized;
        # spanning as many dimensions as the space has, they span it.
        g = make_complete(n)
        rank = mat_rank(integer_rows(witness_value_matrix(complete_graph_witnesses(n, r), g)))
        assert rank == recognized_space_dim(g, product_coloring(n), r) == comb(r + 1, 2)

    def test_rejects_unproven_range(self):
        with pytest.raises(PreconditionError):
            complete_graph_witnesses(3, 3)
