"""The shared CSR kernel against the reference engines, round for round."""

import random

import pytest

import reference_engines as ref
from bootperc.engine import (
    is_percolating_edges_line,
    is_percolating_edges_star,
    is_percolating_vertices,
    percolate_edges_linegraph,
    percolate_edges_star,
    percolate_vertices,
)
from bootperc.graphs import HammingSpace, make_complete, make_hamming, make_line_graph

from conftest import random_edge_seed, random_graph, random_vertex_seed

# (engine, reference engine, percolation test, seed kind)
PROCESSES = [
    (percolate_vertices, ref.percolate_vertices, is_percolating_vertices, "vertex"),
    (percolate_edges_star, ref.percolate_edges_star, is_percolating_edges_star, "edge"),
    (percolate_edges_linegraph, ref.percolate_edges_linegraph, is_percolating_edges_line, "edge"),
]


def assert_matches(g, r, seed, engine, reference, decide, kind):
    got, want = engine(g, r, seed), reference(g, r, seed)
    assert got.seed == want.seed
    assert got.rounds == want.rounds
    assert got.final == want.final
    size = g.vertex_count if kind == "vertex" else g.edge_count
    assert decide(g, r, seed) == (len(want.final) == size)


def random_seed(rng, g, kind, density):
    if kind == "vertex":
        return frozenset(v for v in range(g.vertex_count) if rng.random() < density)
    return frozenset(e for e in g.edge_list() if rng.random() < density)


class TestRandomGraphs:
    def test_match_reference_for_r_up_to_4(self):
        rng = random.Random(2024)
        for _ in range(150):
            g = random_graph(rng, 9, edge_prob=0.5)
            for r in range(5):
                vseed, eseed = random_vertex_seed(rng, g), random_edge_seed(rng, g)
                for engine, reference, decide, kind in PROCESSES:
                    seed = vseed if kind == "vertex" else eseed
                    assert_matches(g, r, seed, engine, reference, decide, kind)

    def test_edge_ids_and_reversed_pairs_name_the_same_seed(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_graph(rng, 8)
            seed = random_edge_seed(rng, g)
            ids = [g.edge_list().index(e) for e in seed]
            reversed_pairs = [(v, u) for u, v in seed]
            r = rng.randint(0, 4)
            for engine, reference, _, kind in PROCESSES[1:]:
                want = reference(g, r, seed)
                assert engine(g, r, ids) == want
                assert engine(g, r, reversed_pairs) == want


FIXED_GRAPHS = {
    "Hamming(3,3)": lambda: make_hamming(HammingSpace(3, 3)),
    "line graph of K6": lambda: make_line_graph(make_complete(6))[0],
}


@pytest.mark.parametrize("name", sorted(FIXED_GRAPHS))
def test_fixed_graphs_match_reference(name):
    g = FIXED_GRAPHS[name]()
    rng = random.Random(name)
    top = max(g.degree(v) for v in range(g.vertex_count))
    for r in range(top + 2):
        for density in (0.05, 0.15, 0.3, 0.5) * 3:
            for engine, reference, decide, kind in PROCESSES:
                seed = random_seed(rng, g, kind, density)
                assert_matches(g, r, seed, engine, reference, decide, kind)
