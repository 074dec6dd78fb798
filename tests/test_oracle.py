import concurrent.futures
import multiprocessing
import os
import random
import time
from collections import Counter
from itertools import combinations
from math import ceil, comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bootperc import oracle
from bootperc.constructions import carved_corner_set
from bootperc.engine import is_percolating
from bootperc.errors import PreconditionError, ResourceLimitError
from bootperc.formulas import (
    min_seed_hamming_bounds,
    min_seed_line_complete,
    weak_saturation_hamming,
)
from bootperc.graphs import make_complete, make_hamming, make_line_graph
from bootperc.hamming import HammingSpace
from bootperc.oracle import DEFAULT_EDGE_CAP, min_percolating
from bootperc.polymethod import product_coloring_on, recognized_space_report

from conftest import RecordingExecutor, random_graph

class TestVertexSearch:
    def test_complete_graph(self):
        assert min_percolating(make_complete(4), 3, "vertex").minimum == 3

    def test_zero_threshold(self):
        result = min_percolating(make_complete(5), 0, "vertex")
        assert result.minimum == 0
        assert result.witness == ()

    def test_hamming_dim2(self):
        g = make_hamming(HammingSpace(3, 2))
        result = min_percolating(g, 2, "vertex")
        assert result.minimum == 2
        # lexicographically first witness: indices 0 and 4, i.e. (0,0),(1,1)
        assert result.witness == (0, 4)
        assert is_percolating(g, 2, "vertex", result.witness)

    def test_hamming_dim2_high_threshold(self):
        # K_3^2 at r=4: every degree equals the threshold, minimum is 6
        g = make_hamming(HammingSpace(3, 2))
        result = min_percolating(g, 4, "vertex")
        assert result.minimum == (4 + 1) ** 2 // 4
        assert is_percolating(g, 4, "vertex", result.witness)

    def test_witness_is_minimal(self):
        g = make_hamming(HammingSpace(3, 2))
        result = min_percolating(g, 2, "vertex")
        for single in range(g.vertex_count):
            assert not is_percolating(g, 2, "vertex", [single])

    def test_mandatory_vertices_forced(self):
        # a path endpoint has degree 1 < 2 and can never activate
        from bootperc.graphs import Graph

        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        result = min_percolating(g, 2, "vertex")
        assert {0, 3} <= set(result.witness)

    def test_vertex_cap_guard(self):
        with pytest.raises(ResourceLimitError):
            min_percolating(make_complete(6), 2, "vertex", cap=5)

    def test_hamming_dim3_threshold_2(self):
        # 27 vertices: above the default cap, so the cap is raised explicitly
        g = make_hamming(HammingSpace(3, 3))
        result = min_percolating(g, 2, "vertex", cap=27)
        assert (result.minimum, result.witness, result.engine_calls) == (3, (0, 1, 12), 390)
        lower, _ = min_seed_hamming_bounds(3, 2, 3)
        assert ceil(lower) == 3 <= result.minimum <= len(carved_corner_set(3, 2, 3)) == 4

    def test_hamming_dim3_threshold_3(self):
        g = make_hamming(HammingSpace(3, 3))
        started = time.perf_counter()
        result = min_percolating(g, 3, "vertex", cap=27)
        assert time.perf_counter() - started < 5.0
        assert (result.minimum, result.witness, result.engine_calls) == (
            6,
            (0, 1, 2, 12, 16, 22),
            103195,
        )
        assert is_percolating(g, 3, "vertex", result.witness)

    def test_hamming_dim3_needs_the_cap_raised(self):
        with pytest.raises(ResourceLimitError):
            min_percolating(make_hamming(HammingSpace(3, 3)), 2, "vertex")

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            min_percolating(make_hamming(HammingSpace(4, 2)), 3, "vertex", max_engine_calls=100)

    @pytest.mark.parametrize("bound", ["cap", "max_engine_calls"])
    def test_negative_bounds_are_refused(self, bound):
        with pytest.raises(PreconditionError, match=f"^{bound} must be at least 0$"):
            min_percolating(make_complete(4), 2, "vertex", **{bound: -1})
        # 0 is a real bound, which this search exceeds
        with pytest.raises(ResourceLimitError):
            min_percolating(make_complete(4), 2, "vertex", **{bound: 0})

    def test_complete_graphs_match_the_closed_form(self):
        # m(K_n, r) = min(n, r)
        for n in range(1, 9):
            for r in range(n + 2):
                assert min_percolating(make_complete(n), r, "vertex").minimum == min(n, r), (n, r)


class TestHammingDim3:
    # pinned from the oracle before subtrees were decided lane by lane;
    # both searches cross from the walk into lane-sliced subtrees
    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize(
        "r,expected",
        [
            (3, (6, (0, 1, 2, 12, 16, 22), 103195)),
            (4, (9, (0, 1, 3, 5, 9, 13, 17, 20, 24), 3679974)),
        ],
        ids=["r3", "r4"],
    )
    def test_pinned(self, monkeypatch, r, expected, jobs):
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        g = make_hamming(HammingSpace(3, 3))
        result = min_percolating(g, r, "vertex", cap=27, jobs=jobs)
        assert tuple(result) == expected
        assert bool(RecordingExecutor.tasks) == (jobs > 1)

    @pytest.mark.parametrize("n,r", [(3, 1), (3, 2), (4, 1), (4, 2)])
    def test_exact_value_inside_the_sandwich(self, n, r):
        result = min_percolating(make_hamming(HammingSpace(n, 3)), r, "vertex", cap=n**3)
        lower, _ = min_seed_hamming_bounds(n, r, 3)
        assert ceil(lower) <= result.minimum <= len(carved_corner_set(n, r, 3))


class TestLanes:
    # with 20 lanes the kept T(M, t) has M < n for the middle t of every n >= 7
    @pytest.mark.parametrize("lanes", [20, oracle._LANES])
    def test_tables_list_the_subsets_in_lexicographic_order(self, monkeypatch, lanes):
        monkeypatch.setattr(oracle, "_LANES", lanes)
        for n in range(11):
            tables = []  # one search's tables: every T(m, t) is cut from T(M, t)
            for m in range(n + 1):
                for t in range(m + 1):
                    subsets = list(combinations(range(m), t))
                    if len(subsets) > lanes:
                        continue
                    table = oracle._lanes(tables, n, m, t)
                    assert len(table) == m
                    for c, subset in enumerate(subsets):
                        assert tuple(y for y in range(m) if table[y] >> c & 1) == subset
                    assert all(x >> len(subsets) == 0 for x in table)


class TestStarSearch:
    def test_k4_threshold_2(self):
        result = min_percolating(make_complete(4), 2, "star")
        assert result.minimum == 3
        assert result.witness == ((0, 1), (0, 2), (1, 2))
        assert is_percolating(make_complete(4), 2, "star", result.witness)

    def test_k4_threshold_2_no_smaller_seed(self):
        k4 = make_complete(4)
        for pair in combinations(k4.edge_list(), 2):
            assert not is_percolating(k4, 2, "star", pair)

    def test_k3_threshold_2_needs_all_edges(self):
        assert min_percolating(make_complete(3), 2, "star").minimum == 3

    def test_k4_threshold_3_needs_all_edges(self):
        assert min_percolating(make_complete(4), 3, "star").minimum == 6

    def test_threshold_one(self):
        for n in (3, 4, 5):
            assert min_percolating(make_complete(n), 1, "star").minimum == 1

    def test_edge_cap_guard(self):
        with pytest.raises(ResourceLimitError):
            min_percolating(make_complete(7), 2, "star")


class TestLineSearch:
    def test_k4_values(self):
        assert min_percolating(make_complete(4), 1, "line").minimum == 1
        result = min_percolating(make_complete(4), 2, "line")
        assert result.minimum == 2
        assert result.witness == ((0, 1), (0, 2))

    def test_k3_high_threshold_needs_all(self):
        assert min_percolating(make_complete(3), 4, "line").minimum == 3

    @pytest.mark.parametrize("n,r", [(4, 1), (4, 2), (4, 3), (5, 2)])
    def test_agrees_with_vertex_search_on_line_graph(self, n, r):
        g = make_complete(n)
        lg = make_line_graph(g)
        direct = min_percolating(g, r, "line").minimum
        via_line_graph = min_percolating(lg, r, "vertex").minimum
        assert direct == via_line_graph


class TestK7:
    # 21 edges: above the default edge cap, so the cap is raised explicitly

    @pytest.mark.parametrize("r", [2, 3])
    def test_star_minimum_is_the_weak_saturation_number(self, r):
        result = min_percolating(make_complete(7), r, "star", cap=21)
        assert result.minimum == weak_saturation_hamming(7, r, 1)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_line_minimum_is_the_closed_form(self, r):
        result = min_percolating(make_complete(7), r, "line", cap=21)
        assert result.minimum == min_seed_line_complete(7, r)


class TestPolynomialLowerBound:
    """The oracle's minima against the recognized-space dimension.

    A percolating star seed has at least dim(G) edges.  A percolating
    vertex seed A gives a percolating star seed of at most r|A| edges (r
    edges at each seed vertex, or all of them if it has fewer), so the
    vertex minimum is at least ceil(dim(G)/r); the line process is the
    vertex process on L(G), so the line minimum is at least
    ceil(dim(L(G))/r).  Prime product colorings throughout.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 4))
    def test_minima_are_at_least_the_dimension_bounds(self, seed, r):
        g = random_graph(random.Random(seed))
        assume(g.edge_count <= DEFAULT_EDGE_CAP)
        line = make_line_graph(g)
        dim = recognized_space_report(g, product_coloring_on(g), r).dim
        line_dim = recognized_space_report(line, product_coloring_on(line), r).dim
        assert min_percolating(g, r, "star").minimum >= dim
        assert min_percolating(g, r, "vertex").minimum >= ceil(dim / r)
        assert min_percolating(g, r, "line").minimum >= ceil(line_dim / r)


class TestParallelSearch:
    def test_jobs_do_not_change_the_answer(self):
        g = make_hamming(HammingSpace(3, 2))
        seq = min_percolating(g, 2, "vertex", jobs=1)
        par = min_percolating(g, 2, "vertex", jobs=2)
        assert (seq.minimum, seq.witness) == (par.minimum, par.witness)

    def test_jobs_star(self):
        seq = min_percolating(make_complete(4), 2, "star", jobs=1)
        par = min_percolating(make_complete(4), 2, "star", jobs=2)
        assert (seq.minimum, seq.witness) == (par.minimum, par.witness)

    def test_one_capped_pool_per_search(self, monkeypatch):
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(oracle, "_POOL_FROM", 0)  # every level goes to the pool
        result = min_percolating(make_hamming(HammingSpace(5, 2)), 4, "vertex", jobs=100_000)
        assert (result.minimum, result.witness, result.engine_calls) == (
            6,
            (0, 1, 5, 7, 11, 18),
            72621,
        )
        # several leaves ran in parallel, all on the one pool, no wider
        # than the machine or the jobs asked for
        assert len(RecordingExecutor.tasks) > 1
        assert RecordingExecutor.created == [min(100_000, os.cpu_count() or 1)]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["line", "star", "vertex"]), st.integers(0, 4))
    def test_results_do_not_depend_on_jobs(self, seed, process, r):
        g = random_graph(random.Random(seed))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
            patch.setattr(oracle, "_POOL_FROM", 0)  # these graphs have no level past the gate
            outcomes = []
            for jobs in (1, 3):
                try:
                    outcomes.append(min_percolating(g, r, process, jobs=jobs))
                except ResourceLimitError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("window", [2, oracle._WINDOW])
    @pytest.mark.parametrize(
        "n,d,r,expected",
        [
            (3, 3, 3, (6, (0, 1, 2, 12, 16, 22), 103195)),
            (5, 2, 4, (6, (0, 1, 5, 7, 11, 18), 72621)),
        ],
        ids=["H33-r3", "H52-r4"],
    )
    def test_the_pool_decides_the_same_leaves(self, monkeypatch, n, d, r, expected, window):
        # the leaves of the walk at jobs=1, by seed size, and at most a
        # window more at the witness's size, read past the witness; both
        # witness levels hold more than 1 + 2 leaves
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(oracle, "_WINDOW", window)
        monkeypatch.setattr(oracle, "_POOL_FROM", 0)
        leaf = oracle._leaf
        sizes: list[int] = []

        def counted(rules, bits, state, i, need, prefix):
            sizes.append(len(prefix) + need)
            return leaf(rules, bits, state, i, need, prefix)

        monkeypatch.setattr(oracle, "_leaf", counted)
        g = make_hamming(HammingSpace(n, d))
        leaves = []
        for jobs in (1, 3):
            sizes.clear()
            assert tuple(min_percolating(g, r, "vertex", n**d, jobs=jobs)) == expected
            leaves.append(Counter(sizes))
        minimum = expected[0]
        assert {k: v for k, v in leaves[1].items() if k != minimum} == {
            k: v for k, v in leaves[0].items() if k != minimum
        }
        assert leaves[0][minimum] <= leaves[1][minimum] <= leaves[0][minimum] + window

    def test_a_real_pool_leaves_no_process_behind(self, monkeypatch):
        monkeypatch.setattr(oracle, "_POOL_FROM", 0)
        g = make_hamming(HammingSpace(5, 2))
        result = min_percolating(g, 4, "vertex", jobs=2)
        assert tuple(result) == (6, (0, 1, 5, 7, 11, 18), 72621)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the workers see the patched leaf only when forked",
    )
    def test_a_worker_error_propagates(self, monkeypatch):
        def broken(*args):
            raise ArithmeticError("leaf failed")

        monkeypatch.setattr(oracle, "_leaf", broken)
        monkeypatch.setattr(oracle, "_POOL_FROM", 0)
        with pytest.raises(ArithmeticError, match="leaf failed"):
            min_percolating(make_hamming(HammingSpace(5, 2)), 4, "vertex", jobs=2)
        assert multiprocessing.active_children() == []

    def test_no_pool_without_a_parallel_level(self, monkeypatch):
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        assert min_percolating(make_complete(5), 0, "vertex", jobs=4).witness == ()
        assert min_percolating(make_complete(5), 4, "vertex", jobs=1).minimum == 4
        assert RecordingExecutor.created == []

    def test_no_pool_below_the_gate(self, monkeypatch):
        # C(25, 6) = 177,100 candidates at the witness level, under 8 full leaves
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        result = min_percolating(make_hamming(HammingSpace(5, 2)), 4, "vertex", jobs=2)
        assert tuple(result) == (6, (0, 1, 5, 7, 11, 18), 72621)
        assert RecordingExecutor.created == []

    def test_the_pool_starts_at_the_first_level_past_the_gate(self, monkeypatch):
        # levels 4, 5 and 6 of the 25 free vertices hold C(25, 4) = 12,650,
        # 53,130 and 177,100 candidates: with the gate at level 4's count,
        # levels 5 and 6 run in the pool and the levels before them inline
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(oracle, "_POOL_FROM", comb(25, 4))
        leaf = oracle._leaf
        inline: set[int] = set()
        pooled: set[int] = set()

        def counted(rules, bits, state, i, need, prefix):
            inline.add(len(prefix) + need)
            return leaf(rules, bits, state, i, need, prefix)

        def counted_served(state, i, need, prefix):
            pooled.add(len(prefix) + need)
            return leaf(*oracle._served, state, i, need, prefix)

        monkeypatch.setattr(oracle, "_leaf", counted)
        monkeypatch.setattr(oracle, "_served_leaf", counted_served)
        result = min_percolating(make_hamming(HammingSpace(5, 2)), 4, "vertex", jobs=2)
        assert tuple(result) == (6, (0, 1, 5, 7, 11, 18), 72621)
        assert RecordingExecutor.created == [min(2, os.cpu_count() or 1)]
        assert (inline, pooled) == ({1, 2, 3, 4}, {5, 6})
