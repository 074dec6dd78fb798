"""The shared CSR kernel against the reference engines, round for round."""

import random

import pytest

import reference_engines as ref
from bootperc.engine import is_percolating, percolate
from bootperc.graphs import make_complete, make_hamming, make_line_graph
from bootperc.hamming import HammingSpace

from conftest import random_edge_seed, random_graph, random_vertex_seed

# (process, reference engine)
PROCESSES = [
    ("vertex", ref.percolate_vertices),
    ("star", ref.percolate_edges_star),
    ("line", ref.percolate_edges_linegraph),
]


def assert_matches(g, r, seed, process, reference):
    got, want = percolate(g, r, process, seed), reference(g, r, seed)
    assert got.seed == want.seed
    assert got.rounds == want.rounds
    assert got.final == want.final
    size = g.vertex_count if process == "vertex" else g.edge_count
    assert is_percolating(g, r, process, seed) == (len(want.final) == size)


def random_seed(rng, g, process, density):
    if process == "vertex":
        return frozenset(v for v in range(g.vertex_count) if rng.random() < density)
    return frozenset(e for e in g.edge_list() if rng.random() < density)


class TestRandomGraphs:
    def test_match_reference_for_r_up_to_4(self):
        rng = random.Random(2024)
        for _ in range(150):
            g = random_graph(rng, 9, edge_prob=0.5)
            for r in range(5):
                vseed, eseed = random_vertex_seed(rng, g), random_edge_seed(rng, g)
                for process, reference in PROCESSES:
                    seed = vseed if process == "vertex" else eseed
                    assert_matches(g, r, seed, process, reference)

    def test_reversed_pairs_name_the_same_seed(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_graph(rng, 8)
            seed = random_edge_seed(rng, g)
            reversed_pairs = [(v, u) for u, v in seed]
            r = rng.randint(0, 4)
            for process, reference in PROCESSES[1:]:
                assert percolate(g, r, process, reversed_pairs) == reference(g, r, seed)


FIXED_GRAPHS = {
    "Hamming(3,3)": lambda: make_hamming(HammingSpace(3, 3)),
    "line graph of K6": lambda: make_line_graph(make_complete(6)),
}


@pytest.mark.parametrize("name", sorted(FIXED_GRAPHS))
def test_fixed_graphs_match_reference(name):
    g = FIXED_GRAPHS[name]()
    rng = random.Random(name)
    top = max(g.degree(v) for v in range(g.vertex_count))
    for r in range(top + 2):
        for density in (0.05, 0.15, 0.3, 0.5) * 3:
            for process, reference in PROCESSES:
                seed = random_seed(rng, g, process, density)
                assert_matches(g, r, seed, process, reference)
