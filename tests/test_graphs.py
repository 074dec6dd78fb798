import random
import time
import tracemalloc

import pytest

from bootperc.errors import FormatError, PreconditionError, ResourceLimitError
from bootperc.graphs import (
    DEFAULT_SLOT_CAP,
    Graph,
    HammingSpace,
    cartesian_product,
    graph_from_text,
    graph_to_text,
    make_complete,
    make_hamming,
    make_line_graph,
)

from conftest import random_graph


class TestGraphBasics:
    def test_from_edges_normalizes_and_dedups(self):
        g = Graph.from_edges(3, [(1, 0), (0, 1), (2, 1)])
        assert g.edge_list() == [(0, 1), (1, 2)]
        assert (list(g.offsets), list(g.targets)) == ([0, 1, 3, 4], [1, 0, 2, 1])

    def test_rejects_self_loop(self):
        with pytest.raises(PreconditionError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            Graph.from_edges(2, [(0, 2)])

    def test_handshake(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng)
            assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count


class TestComplete:
    def test_single_vertex(self):
        g = make_complete(1)
        assert (g.vertex_count, g.edge_count) == (1, 0)

    def test_k4(self):
        g = make_complete(4)
        assert g.edge_count == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_k3_edge_set(self):
        assert make_complete(3).edge_list() == [(0, 1), (0, 2), (1, 2)]

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError):
            make_complete(0)


class TestCartesianProduct:
    def test_k2_square_is_four_cycle(self):
        g = cartesian_product(make_complete(2), make_complete(2))
        assert g.vertex_count == 4
        assert g.edge_list() == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_k3_square_counts(self):
        # |E| = |V(g)||E(h)| + |V(h)||E(g)| = 3*3 + 3*3 = 18
        g = cartesian_product(make_complete(3), make_complete(3))
        assert (g.vertex_count, g.edge_count) == (9, 18)
        assert all(g.degree(v) == 4 for v in range(9))

    def test_identity_factor(self):
        base = Graph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        g = cartesian_product(base, make_complete(1))
        assert g == base

    def test_edge_count_formula_random(self):
        rng = random.Random(5)
        for _ in range(10):
            a, b = random_graph(rng, 5), random_graph(rng, 5)
            g = cartesian_product(a, b)
            assert g.edge_count == a.vertex_count * b.edge_count + b.vertex_count * a.edge_count

    def test_rejects_empty_factor(self):
        with pytest.raises(PreconditionError):
            cartesian_product(Graph.from_edges(0, []), make_complete(2))


class TestHammingSpace:
    def test_decode_is_row_major(self):
        sp = HammingSpace(3, 2)
        assert sp.decode(5) == (1, 2)
        assert sp.encode((2, 1)) == 7

    @pytest.mark.parametrize("n,d", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 3)])
    def test_roundtrip(self, n, d):
        sp = HammingSpace(n, d)
        for i in range(sp.size):
            assert sp.encode(sp.decode(i)) == i

    def test_rejects_bad_params(self):
        with pytest.raises(PreconditionError):
            HammingSpace(0, 2)
        with pytest.raises(PreconditionError):
            HammingSpace(2, 0)

    def test_adjacent_iff_one_coordinate_differs(self):
        sp = HammingSpace(3, 2)
        g = make_hamming(sp)
        for i in range(sp.size):
            for j in range(i + 1, sp.size):
                differ = sum(a != b for a, b in zip(sp.decode(i), sp.decode(j)))
                assert g.has_edge(i, j) == (differ == 1)


class TestHammingGraph:
    def test_cube(self):
        g = make_hamming(HammingSpace(2, 3))
        assert (g.vertex_count, g.edge_count) == (8, 12)

    def test_dim1_is_complete(self):
        assert make_hamming(HammingSpace(6, 1)) == make_complete(6)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("d", range(1, 4))
    def test_matches_iterated_product(self, n, d):
        g = make_hamming(HammingSpace(n, d))
        h = make_complete(n)
        for _ in range(d - 1):
            h = cartesian_product(h, make_complete(n))
        assert g == h
        assert all(g.degree(v) == d * (n - 1) for v in range(g.vertex_count))

    def test_vertex_cap(self):
        with pytest.raises(ResourceLimitError):
            make_hamming(HammingSpace(10, 8), slot_cap=10**6)


class TestLineGraph:
    def test_triangle_is_self_line_graph(self):
        lg = make_line_graph(make_complete(3))
        assert lg == make_complete(3)

    def test_k4(self):
        g = make_complete(4)
        lg = make_line_graph(g)
        assert (lg.vertex_count, lg.edge_count) == (6, 12)
        assert all(lg.degree(v) == 4 for v in range(6))
        i = g.edge_id(2, 0)
        assert (g.tails[i], g.heads[i]) == (0, 2)

    def test_single_edge(self):
        lg = make_line_graph(Graph.from_edges(2, [(0, 1)]))
        assert (lg.vertex_count, lg.edge_count) == (1, 0)

    def test_regular_degree_sweep(self):
        for n in range(3, 7):
            lg = make_line_graph(make_complete(n))
            assert all(lg.degree(v) == 2 * n - 4 for v in range(lg.vertex_count))

    def test_adjacency_matches_shared_endpoints(self):
        rng = random.Random(23)
        for _ in range(15):
            g = random_graph(rng, 7)
            lg = make_line_graph(g)
            for i in range(lg.vertex_count):
                for j in range(i + 1, lg.vertex_count):
                    shared = {g.tails[i], g.heads[i]} & {g.tails[j], g.heads[j]}
                    assert lg.has_edge(i, j) == (len(shared) == 1)


class TestTextFormat:
    def test_write_is_sorted_and_stable(self):
        g = Graph.from_edges(4, [(3, 2), (0, 3), (0, 1)])
        assert graph_to_text(g) == "p 4 3\ne 0 1\ne 0 3\ne 2 3\n"

    def test_roundtrip(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng)
            assert graph_from_text(graph_to_text(g)) == g

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "e 0 1\n",
            "p 2\n",
            "p 2 1\ne 0 1\ne 0 1 2\n",
            "p 2 2\ne 0 1\n",
            "p 2 1\nq 0 1\n",
            "p 2 1\ne 0 2\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            graph_from_text(text)


def rejected_cheaply(build):
    """Run a build that the slot guard must refuse; return (seconds, peak bytes allocated)."""
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(ResourceLimitError):
            build()
        return time.perf_counter() - started, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSlotGuard:
    def test_header_is_checked_before_anything_is_built(self):
        seconds, peak = rejected_cheaply(lambda: graph_from_text("p 1000000000 0\n"))
        assert seconds < 1.0
        assert peak < 100_000

    def test_hamming_10_7_is_rejected_on_its_edges(self):
        # 10^7 vertices pass a vertex cap, but 3.15e8 edges would not fit
        seconds, peak = rejected_cheaply(lambda: make_hamming(HammingSpace(10, 7)))
        assert seconds < 1.0
        assert peak < 100_000

    def test_huge_dimension_never_computes_n_to_the_d(self):
        seconds, _ = rejected_cheaply(lambda: make_hamming(HammingSpace(2, 10**9)))
        assert seconds < 1.0
        assert make_hamming(HammingSpace(1, 10**9)).vertex_count == 1

    def test_every_builder_is_guarded(self):
        with pytest.raises(ResourceLimitError):
            make_complete(5000)  # 5000 + 2*12497500 slots
        big = make_hamming(HammingSpace(50, 2))  # 2500 + 2*122500 slots
        with pytest.raises(ResourceLimitError):
            cartesian_product(big, big)
        with pytest.raises(ResourceLimitError):
            make_line_graph(make_complete(1000))  # 499500 vertices, ~5e8 edges
        with pytest.raises(ResourceLimitError):
            Graph.from_edges(DEFAULT_SLOT_CAP + 1, [])

    def test_cap_leaves_the_largest_benchmarked_graph(self):
        n, d = 12, 5  # 248832 vertices, 6842880 edges
        assert n**d + n**d * d * (n - 1) <= DEFAULT_SLOT_CAP

    def test_negative_header_is_a_format_error(self):
        with pytest.raises(FormatError, match="line 1"):
            graph_from_text("p -3 0\n")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,line",
        [("p 2 1\ne 0 x\n", 2), ("p two 1\n", 1), ("# c\np 2 1\ne 0.5 1\n", 3)],
    )
    def test_non_integer_token_names_its_line(self, text, line):
        with pytest.raises(FormatError, match=f"line {line}:"):
            graph_from_text(text)
