import concurrent.futures
import os
import time
from itertools import combinations
from math import ceil

import pytest

from bootperc.constructions import carved_corner_set
from bootperc.engine import is_percolating_edges_star, is_percolating_vertices
from bootperc.errors import ResourceLimitError
from bootperc.formulas import (
    min_seed_hamming_bounds,
    min_seed_line_complete,
    weak_saturation_hamming,
)
from bootperc.graphs import HammingSpace, make_complete, make_hamming, make_line_graph
from bootperc.oracle import (
    min_percolating_edges_line,
    min_percolating_edges_star,
    min_percolating_vertices,
)

from conftest import RecordingExecutor


class TestVertexSearch:
    def test_complete_graph(self):
        assert min_percolating_vertices(make_complete(4), 3).minimum == 3

    def test_zero_threshold(self):
        result = min_percolating_vertices(make_complete(5), 0)
        assert result.minimum == 0
        assert result.witness == ()

    def test_hamming_dim2(self):
        g = make_hamming(HammingSpace(3, 2))
        result = min_percolating_vertices(g, 2)
        assert result.minimum == 2
        # lexicographically first witness: indices 0 and 4, i.e. (0,0),(1,1)
        assert result.witness == (0, 4)
        assert is_percolating_vertices(g, 2, result.witness)

    def test_hamming_dim2_high_threshold(self):
        # K_3^2 at r=4: every degree equals the threshold, minimum is 6
        g = make_hamming(HammingSpace(3, 2))
        result = min_percolating_vertices(g, 4)
        assert result.minimum == (4 + 1) ** 2 // 4
        assert is_percolating_vertices(g, 4, result.witness)

    def test_witness_is_minimal(self):
        g = make_hamming(HammingSpace(3, 2))
        result = min_percolating_vertices(g, 2)
        for single in range(g.vertex_count):
            assert not is_percolating_vertices(g, 2, [single])

    def test_mandatory_vertices_forced(self):
        # a path endpoint has degree 1 < 2 and can never activate
        from bootperc.graphs import Graph

        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        result = min_percolating_vertices(g, 2)
        assert {0, 3} <= set(result.witness)

    def test_vertex_cap_guard(self):
        with pytest.raises(ResourceLimitError):
            min_percolating_vertices(make_complete(6), 2, max_vertices=5)

    def test_hamming_dim3_threshold_2(self):
        # 27 vertices: above the default cap, so the cap is raised explicitly
        g = make_hamming(HammingSpace(3, 3))
        result = min_percolating_vertices(g, 2, max_vertices=27)
        assert (result.minimum, result.witness, result.engine_calls) == (3, (0, 1, 12), 390)
        lower, _ = min_seed_hamming_bounds(3, 2, 3)
        assert ceil(lower) == 3 <= result.minimum <= len(carved_corner_set(3, 2, 3)) == 4

    def test_hamming_dim3_threshold_3(self):
        g = make_hamming(HammingSpace(3, 3))
        started = time.perf_counter()
        result = min_percolating_vertices(g, 3, max_vertices=27)
        assert time.perf_counter() - started < 5.0
        assert (result.minimum, result.witness, result.engine_calls) == (
            6,
            (0, 1, 2, 12, 16, 22),
            103195,
        )
        assert is_percolating_vertices(g, 3, result.witness)

    def test_hamming_dim3_needs_the_cap_raised(self):
        with pytest.raises(ResourceLimitError):
            min_percolating_vertices(make_hamming(HammingSpace(3, 3)), 2)

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            min_percolating_vertices(make_hamming(HammingSpace(4, 2)), 3, max_engine_calls=100)


class TestStarSearch:
    def test_k4_threshold_2(self):
        result = min_percolating_edges_star(make_complete(4), 2)
        assert result.minimum == 3
        assert result.witness == ((0, 1), (0, 2), (1, 2))
        assert is_percolating_edges_star(make_complete(4), 2, result.witness)

    def test_k4_threshold_2_no_smaller_seed(self):
        k4 = make_complete(4)
        for pair in combinations(k4.edge_list(), 2):
            assert not is_percolating_edges_star(k4, 2, pair)

    def test_k3_threshold_2_needs_all_edges(self):
        assert min_percolating_edges_star(make_complete(3), 2).minimum == 3

    def test_k4_threshold_3_needs_all_edges(self):
        assert min_percolating_edges_star(make_complete(4), 3).minimum == 6

    def test_threshold_one(self):
        for n in (3, 4, 5):
            assert min_percolating_edges_star(make_complete(n), 1).minimum == 1

    def test_edge_cap_guard(self):
        with pytest.raises(ResourceLimitError):
            min_percolating_edges_star(make_complete(7), 2)


class TestLineSearch:
    def test_k4_values(self):
        assert min_percolating_edges_line(make_complete(4), 1).minimum == 1
        result = min_percolating_edges_line(make_complete(4), 2)
        assert result.minimum == 2
        assert result.witness == ((0, 1), (0, 2))

    def test_k3_high_threshold_needs_all(self):
        assert min_percolating_edges_line(make_complete(3), 4).minimum == 3

    @pytest.mark.parametrize("n,r", [(4, 1), (4, 2), (4, 3), (5, 2)])
    def test_agrees_with_vertex_search_on_line_graph(self, n, r):
        g = make_complete(n)
        lg = make_line_graph(g)
        direct = min_percolating_edges_line(g, r).minimum
        via_line_graph = min_percolating_vertices(lg, r).minimum
        assert direct == via_line_graph


class TestK7:
    # 21 edges: above the default edge cap, so the cap is raised explicitly

    @pytest.mark.parametrize("r", [2, 3])
    def test_star_minimum_is_the_weak_saturation_number(self, r):
        result = min_percolating_edges_star(make_complete(7), r, max_edges=21)
        assert result.minimum == weak_saturation_hamming(7, r, 1)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_line_minimum_is_the_closed_form(self, r):
        result = min_percolating_edges_line(make_complete(7), r, max_edges=21)
        assert result.minimum == min_seed_line_complete(7, r)


class TestParallelSearch:
    def test_jobs_do_not_change_the_answer(self):
        g = make_hamming(HammingSpace(3, 2))
        seq = min_percolating_vertices(g, 2, jobs=1)
        par = min_percolating_vertices(g, 2, jobs=2)
        assert (seq.minimum, seq.witness) == (par.minimum, par.witness)

    def test_jobs_star(self):
        seq = min_percolating_edges_star(make_complete(4), 2, jobs=1)
        par = min_percolating_edges_star(make_complete(4), 2, jobs=2)
        assert (seq.minimum, seq.witness) == (par.minimum, par.witness)

    def test_one_capped_pool_per_search(self, monkeypatch):
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        result = min_percolating_vertices(make_hamming(HammingSpace(5, 2)), 4, jobs=100_000)
        assert (result.minimum, result.witness, result.engine_calls) == (
            6,
            (0, 1, 5, 7, 11, 18),
            85359,
        )
        # several levels ran in parallel, all on the one pool
        assert len(RecordingExecutor.tasks) > 1
        assert RecordingExecutor.created == [
            min(os.cpu_count() or 1, RecordingExecutor.tasks[0])
        ]

    def test_no_pool_without_a_parallel_level(self, monkeypatch):
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        assert min_percolating_vertices(make_complete(5), 0, jobs=4).witness == ()
        assert min_percolating_vertices(make_complete(5), 4, jobs=1).minimum == 4
        assert RecordingExecutor.created == []
