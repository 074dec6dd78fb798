"""The bitmask oracle against the enumerate-and-call-the-engine reference.

Both must return the same (minimum, witness, engine_calls): the witness
is the lexicographically least one, and engine_calls counts candidates
decided in lexicographic order, so pruning may not change either.
"""

import concurrent.futures
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_oracle as ref
from bootperc import oracle
from bootperc.engine import is_percolating, percolate
from bootperc.errors import ResourceLimitError
from bootperc.graphs import Graph, make_complete, make_hamming, make_line_graph
from bootperc.hamming import HammingSpace

from conftest import RecordingExecutor, random_graph

# the reference search of each process
REFERENCE = {
    "vertex": ref.min_percolating_vertices,
    "star": ref.min_percolating_edges_star,
    "line": ref.min_percolating_edges_line,
}


def _outcome(search, *args, **kwargs):
    try:
        result = search(*args, **kwargs)
    except ResourceLimitError:
        return "ResourceLimitError"
    return result.minimum, result.witness, result.engine_calls


def _random_cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        # at most 15 edges keeps every reference search under 2^15 candidates
        g = random_graph(rng, max_vertices=rng.choice((6, 8)))
        for process in REFERENCE:
            if process == "vertex" or g.edge_count <= 15:
                for r in range(5):
                    yield g, process, r


@pytest.mark.parametrize("seed", range(8))
def test_random_graphs_match_reference(seed):
    for g, process, r in _random_cases(seed, 20):
        new = _outcome(oracle.min_percolating, g, r, process)
        assert new == _outcome(REFERENCE[process], g, r), (g, process, r)


def test_random_graphs_match_reference_in_parallel():
    # engine_calls does not depend on jobs, so the reference runs sequentially
    for g, process, r in _random_cases(100, 3):
        new = _outcome(oracle.min_percolating, g, r, process, jobs=2)
        assert new == _outcome(REFERENCE[process], g, r), (g, process, r)


@pytest.mark.parametrize("lanes", [1, 6, 40])
def test_any_lane_budget_matches_reference(monkeypatch, lanes):
    # smaller lane-sliced subtrees leave more of each level to the walk above them
    monkeypatch.setattr(oracle, "_LANES", lanes)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    cases = [(make_hamming(HammingSpace(4, 2)), "vertex", 3), *_random_cases(200 + lanes, 6)]
    for g, process, r in cases:
        expected = _outcome(REFERENCE[process], g, r)
        for jobs in (1, 3):
            new = _outcome(oracle.min_percolating, g, r, process, jobs=jobs)
            assert new == expected, (g, process, r, jobs)


@pytest.mark.parametrize(
    "g,process,r",
    [
        (make_hamming(HammingSpace(3, 2)), "vertex", 3),
        (make_hamming(HammingSpace(4, 2)), "vertex", 3),
        (make_complete(5), "star", 3),
        (make_complete(5), "line", 3),
        (make_line_graph(make_complete(5)), "vertex", 4),
    ],
)
@pytest.mark.parametrize("jobs", [1, 2])
def test_families_match_reference(g, process, r, jobs):
    new = _outcome(oracle.min_percolating, g, r, process, jobs=jobs)
    assert new == _outcome(REFERENCE[process], g, r)


@pytest.mark.parametrize("budget", [1, 10, 100, 137, 1000])
def test_budget_refusals_match_reference(budget):
    g = make_hamming(HammingSpace(4, 2))
    new = _outcome(oracle.min_percolating, g, 3, "vertex", max_engine_calls=budget)
    assert new == _outcome(ref.min_percolating_vertices, g, 3, max_engine_calls=budget)


@st.composite
def _graph_seed(draw):
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    g = Graph.from_edges(n, edges)
    process = draw(st.sampled_from(["line", "star", "vertex"]))
    size = g.vertex_count if process == "vertex" else g.edge_count
    seed = draw(st.sets(st.integers(0, size - 1), max_size=size)) if size else set()
    return g, process, draw(st.integers(0, 5)), seed


@settings(max_examples=300, deadline=None)
@given(_graph_seed())
def test_closure_is_the_engines_final_set(case):
    g, process, r, seed = case
    rules = oracle._rules(g, r, process)
    mask = oracle._mask(seed)
    closed = oracle._close(rules, mask, mask)
    if process != "vertex":
        seed = [(g.tails[e], g.heads[e]) for e in seed]  # the oracle's edge ids as pairs
    final = percolate(g, r, process, seed).final
    if process != "vertex":
        final = {g.edge_id(u, v) for u, v in final}
    assert closed == oracle._mask(final)
    assert (closed == rules[2]) == is_percolating(g, r, process, seed)


def _engine_final(g, r, process, ids) -> int:
    """The mask of the engine's final set from the element ids ``ids``."""
    seed = [(g.tails[e], g.heads[e]) for e in ids] if process != "vertex" else ids
    final = percolate(g, r, process, seed).final
    if process != "vertex":
        final = {g.edge_id(u, v) for u, v in final}
    return oracle._mask(final)


@settings(max_examples=300, deadline=None)
@given(_graph_seed(), st.data())
def test_closure_grows_a_closed_set(case, data):
    # the walk's and the bound's call: a closed set plus elements, only those fresh
    g, process, r, seed = case
    rules = oracle._rules(g, r, process)
    b = oracle._mask(seed) | data.draw(st.integers(0, rules[2]))
    ids = [x for x in range(rules[2].bit_length()) if b >> x & 1]
    final = _engine_final(g, r, process, ids)
    for j in range(len(ids) + 1):
        a = oracle._mask(ids[:j])
        closed = oracle._close(rules, a, a)
        assert oracle._close(rules, closed | b, b & ~closed) == final, j


@settings(max_examples=300, deadline=None)
@given(_graph_seed())
def test_forced_elements_are_those_no_closure_adds(case):
    g, process, r, _ = case
    rules = oracle._rules(g, r, process)
    forced = oracle._forced(rules)
    size = rules[2].bit_length()
    for x in range(size):
        others = [y for y in range(size) if y != x]
        assert (forced >> x & 1) == (not _engine_final(g, r, process, others) >> x & 1), x
