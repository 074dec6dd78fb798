import json
import random

import pytest

from bootperc.engine import (
    is_percolating_edges_line,
    is_percolating_edges_star,
    is_percolating_vertices,
    percolate_edges_linegraph,
    percolate_edges_star,
    percolate_vertices,
    seed_from_text,
    seed_to_text,
    trace_to_jsonable,
)
from bootperc.errors import FormatError, PreconditionError
from bootperc.graphs import Graph, HammingSpace, make_complete, make_hamming, make_line_graph

from conftest import random_edge_seed, random_graph, random_vertex_seed


def encode_points(n, d, points):
    sp = HammingSpace(n, d)
    return frozenset(sp.encode(p) for p in points)


class TestVertexProcess:
    def test_single_seed_spreads_at_threshold_one(self):
        tr = percolate_vertices(make_complete(3), 1, [0])
        assert tr.final == frozenset({0, 1, 2})
        assert tr.rounds == (frozenset({1, 2}),)

    def test_two_corner_seed_fills_the_grid(self):
        g = make_hamming(HammingSpace(3, 2))
        seed = encode_points(3, 2, [(0, 2), (2, 0)])
        tr = percolate_vertices(g, 2, seed)
        assert len(tr.final) == 9
        # synchronous rounds, computed by hand on the 3x3 grid
        assert tr.rounds == (
            encode_points(3, 2, [(0, 0), (2, 2)]),
            encode_points(3, 2, [(0, 1), (1, 0), (1, 2), (2, 1)]),
            encode_points(3, 2, [(1, 1)]),
        )

    def test_stall(self):
        tr = percolate_vertices(make_complete(4), 3, [0, 1])
        assert tr.final == frozenset({0, 1})
        assert tr.rounds == ()

    def test_zero_threshold_activates_everything_in_one_round(self):
        g = make_complete(5)
        tr = percolate_vertices(g, 0, [])
        assert tr.rounds == (frozenset(range(5)),)
        assert len(tr.final) == 5

    def test_seed_validation(self):
        with pytest.raises(PreconditionError):
            percolate_vertices(make_complete(3), 1, [3])
        with pytest.raises(PreconditionError):
            percolate_vertices(make_complete(3), -1, [0])


class TestIsPercolatingVertices:
    @pytest.mark.parametrize("n,r", [(3, 1), (4, 3), (4, 2), (3, 5), (5, 5)])
    def test_complete_graph_prefix_seed(self, n, r):
        # the first min(n, r) vertices always percolate the complete graph
        assert is_percolating_vertices(make_complete(n), r, range(min(n, r)))

    def test_undersized_seed_fails(self):
        assert not is_percolating_vertices(make_complete(4), 3, [0, 1])

    def test_empty_seed_percolates_at_zero(self):
        rng = random.Random(3)
        for _ in range(5):
            assert is_percolating_vertices(random_graph(rng), 0, [])


class TestStarProcess:
    def test_triangle_seed_fills_k4(self):
        k4 = make_complete(4)
        tr = percolate_edges_star(k4, 2, [(0, 1), (0, 2), (1, 2)])
        assert tr.final == frozenset(k4.edge_list())
        assert tr.rounds == (frozenset({(0, 3), (1, 3), (2, 3)}),)

    def test_path_seed_stalls_on_triangle(self):
        tr = percolate_edges_star(make_complete(3), 2, [(0, 1), (0, 2)])
        assert tr.final == frozenset({(0, 1), (0, 2)})

    def test_threshold_one_spreads_per_component(self):
        # two triangles plus an isolated vertex; one seed edge per triangle
        g = Graph.from_edges(
            7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        tr = percolate_edges_star(g, 1, [(0, 1), (3, 4)])
        assert tr.final == frozenset(g.edge_list())

    def test_seed_must_be_edges(self):
        with pytest.raises(PreconditionError):
            percolate_edges_star(make_complete(3), 1, [(0, 3)])

    def test_seed_edge_ids_must_exist(self):
        with pytest.raises(PreconditionError, match="edge id 3"):
            percolate_edges_star(make_complete(3), 1, [3])
        with pytest.raises(PreconditionError, match="edge id -1"):
            is_percolating_edges_line(make_complete(3), 1, [-1])


class TestLineProcess:
    def test_two_edge_seed_fills_k4(self):
        k4 = make_complete(4)
        tr = percolate_edges_linegraph(k4, 2, [(0, 3), (2, 3)])
        assert tr.final == frozenset(k4.edge_list())
        # hand closure: (0,2) and (1,3) first, then (0,1) and (1,2)
        assert tr.rounds == (
            frozenset({(0, 2), (1, 3)}),
            frozenset({(0, 1), (1, 2)}),
        )

    def test_huge_threshold_stalls(self):
        k4 = make_complete(4)
        seed = k4.edge_list()[:5]
        tr = percolate_edges_linegraph(k4, 9, seed)
        assert tr.final == frozenset(seed)

    def test_triangle_closures(self):
        k3 = make_complete(3)
        assert percolate_edges_linegraph(k3, 2, [(0, 1)]).final == frozenset({(0, 1)})
        tr = percolate_edges_linegraph(k3, 2, [(0, 1), (0, 2)])
        assert tr.rounds == (frozenset({(1, 2)}),)

    def test_splits_star_process(self):
        # endpoint counts 1+1 activate the line process but not the star process
        k3 = make_complete(3)
        seed = [(0, 1), (0, 2)]
        assert is_percolating_edges_line(k3, 2, seed)
        assert not is_percolating_edges_star(k3, 2, seed)


class TestTraceInvariants:
    def processes(self, g, rng):
        yield percolate_vertices, random_vertex_seed(rng, g), "vertex"
        yield percolate_edges_star, random_edge_seed(rng, g), "star"
        yield percolate_edges_linegraph, random_edge_seed(rng, g), "line"

    def test_rounds_partition_the_growth(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_graph(rng)
            r = rng.randint(0, 4)
            for run, seed, _ in self.processes(g, rng):
                tr = run(g, r, seed)
                seen = set(tr.seed)
                for rd in tr.rounds:
                    assert rd, "rounds must be nonempty"
                    assert not (rd & seen)
                    seen |= rd
                assert frozenset(seen) == tr.final

    def test_closure_idempotence(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng)
            r = rng.randint(0, 4)
            for run, seed, _ in self.processes(g, rng):
                tr = run(g, r, seed)
                again = run(g, r, tr.final)
                assert again.rounds == ()
                assert again.final == tr.final

    def test_monotone_in_seed(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_graph(rng)
            r = rng.randint(0, 4)
            small = random_vertex_seed(rng, g)
            extra = random_vertex_seed(rng, g)
            a = percolate_vertices(g, r, small).final
            b = percolate_vertices(g, r, small | extra).final
            assert a <= b
            es = random_edge_seed(rng, g)
            ee = random_edge_seed(rng, g)
            assert percolate_edges_star(g, r, es).final <= percolate_edges_star(g, r, es | ee).final
            assert (
                percolate_edges_linegraph(g, r, es).final
                <= percolate_edges_linegraph(g, r, es | ee).final
            )

    def test_monotone_in_threshold(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng)
            r = rng.randint(0, 4)
            vs = random_vertex_seed(rng, g)
            es = random_edge_seed(rng, g)
            assert percolate_vertices(g, r + 1, vs).final <= percolate_vertices(g, r, vs).final
            assert (
                percolate_edges_star(g, r + 1, es).final
                <= percolate_edges_star(g, r, es).final
            )
            assert (
                percolate_edges_linegraph(g, r + 1, es).final
                <= percolate_edges_linegraph(g, r, es).final
            )


def naive_rounds(g, r, seed, rule):
    """Reference closure: recompute the rule for every element each round."""
    active = set(seed)
    rounds = []
    while True:
        new = {x for x in rule.universe(g) if x not in active and rule.fires(g, r, active, x)}
        if not new:
            return tuple(rounds), frozenset(active)
        rounds.append(frozenset(new))
        active |= new


def _neighbors(g, v):
    return g.targets[g.offsets[v] : g.offsets[v + 1]]


class _VertexRule:
    @staticmethod
    def universe(g):
        return range(g.vertex_count)

    @staticmethod
    def fires(g, r, active, v):
        return sum(1 for w in _neighbors(g, v) if w in active) >= r


def _incident_active(g, active, x):
    from bootperc.graphs import normalize_edge

    return sum(1 for w in _neighbors(g, x) if normalize_edge(x, w) in active)


class _StarRule:
    @staticmethod
    def universe(g):
        return g.edge_list()

    @staticmethod
    def fires(g, r, active, e):
        u, v = e
        return _incident_active(g, active, u) >= r or _incident_active(g, active, v) >= r


class _LineRule:
    @staticmethod
    def universe(g):
        return g.edge_list()

    @staticmethod
    def fires(g, r, active, e):
        u, v = e
        return _incident_active(g, active, u) + _incident_active(g, active, v) >= r


class TestAgainstNaiveClosure:
    """The batched work-queue engines must equal the literal per-round rescan."""

    def test_all_processes_match(self):
        rng = random.Random(987)
        for _ in range(150):
            g = random_graph(rng, 9, edge_prob=0.5)
            r = rng.randint(0, 5)
            vseed = random_vertex_seed(rng, g)
            eseed = random_edge_seed(rng, g)
            tr = percolate_vertices(g, r, vseed)
            assert (tr.rounds, tr.final) == naive_rounds(g, r, vseed, _VertexRule)
            tr = percolate_edges_star(g, r, eseed)
            assert (tr.rounds, tr.final) == naive_rounds(g, r, eseed, _StarRule)
            tr = percolate_edges_linegraph(g, r, eseed)
            assert (tr.rounds, tr.final) == naive_rounds(g, r, eseed, _LineRule)


class TestLineGraphEquivalence:
    def test_matches_vertex_process_round_for_round(self):
        rng = random.Random(101)
        for _ in range(60):
            g = random_graph(rng, 8)
            r = rng.randint(0, 6)
            seed = random_edge_seed(rng, g)
            lg = make_line_graph(g)
            direct = percolate_edges_linegraph(g, r, seed)
            mapped = percolate_vertices(g=lg, r=r, seed=[g.edge_id(*e) for e in seed])
            assert len(direct.rounds) == len(mapped.rounds)
            for d_round, m_round in zip(direct.rounds, mapped.rounds):
                assert d_round == frozenset((g.tails[i], g.heads[i]) for i in m_round)
            assert direct.final == frozenset((g.tails[i], g.heads[i]) for i in mapped.final)


class TestSeedFiles:
    def test_roundtrip(self):
        text = seed_to_text(vertices=[4, 1], edges=[(3, 0), (1, 2)])
        assert text == "v 1\nv 4\ne 0 3\ne 1 2\n"
        vs, es = seed_from_text(text)
        assert vs == frozenset({1, 4})
        assert es == frozenset({(0, 3), (1, 2)})

    def test_rejects_garbage(self):
        with pytest.raises(FormatError):
            seed_from_text("w 1\n")
        with pytest.raises(FormatError):
            seed_from_text("v 1 2\n")

    def test_non_integer_token_names_its_line(self):
        with pytest.raises(FormatError, match="line 2:"):
            seed_from_text("v 1\nv zz\n")
        with pytest.raises(FormatError, match="line 1:"):
            seed_from_text("e 0 x\n")

    def test_trace_json_shape(self):
        k3 = make_complete(3)
        tr = percolate_edges_linegraph(k3, 2, [(0, 1), (0, 2)])
        payload = trace_to_jsonable(tr, percolated=True)
        assert json.loads(json.dumps(payload)) == {
            "seed": [[0, 1], [0, 2]],
            "rounds": [[[1, 2]]],
            "final": [[0, 1], [0, 2], [1, 2]],
            "percolated": True,
        }
