import json
import random

import pytest

from bootperc.constructions import (
    carved_corner_set,
    line_seed,
    simplex_corner_set,
    star_seed_hamming,
    vertex_seed_dim2,
)
from bootperc.engine import is_percolating, percolate, trace_to_jsonable
from bootperc.errors import FormatError, PreconditionError
from bootperc.graphs import (
    Graph,
    make_complete,
    make_hamming,
    make_line_graph,
    seed_from_text,
    seed_to_text,
)
from bootperc.hamming import HammingSpace
from bootperc.oracle import min_percolating
from bootperc.packed import is_percolating_hamming

from conftest import random_edge_seed, random_graph, random_vertex_seed


def encode_points(n, d, points):
    sp = HammingSpace(n, d)
    return frozenset(sp.encode(p) for p in points)


class TestVertexProcess:
    def test_single_seed_spreads_at_threshold_one(self):
        tr = percolate(make_complete(3), 1, "vertex", [0])
        assert tr.final == frozenset({0, 1, 2})
        assert tr.rounds == (frozenset({1, 2}),)

    def test_two_corner_seed_fills_the_grid(self):
        g = make_hamming(HammingSpace(3, 2))
        seed = encode_points(3, 2, [(0, 2), (2, 0)])
        tr = percolate(g, 2, "vertex", seed)
        assert len(tr.final) == 9
        # synchronous rounds, computed by hand on the 3x3 grid
        assert tr.rounds == (
            encode_points(3, 2, [(0, 0), (2, 2)]),
            encode_points(3, 2, [(0, 1), (1, 0), (1, 2), (2, 1)]),
            encode_points(3, 2, [(1, 1)]),
        )

    def test_stall(self):
        tr = percolate(make_complete(4), 3, "vertex", [0, 1])
        assert tr.final == frozenset({0, 1})
        assert tr.rounds == ()

    def test_zero_threshold_activates_everything_in_one_round(self):
        g = make_complete(5)
        tr = percolate(g, 0, "vertex", [])
        assert tr.rounds == (frozenset(range(5)),)
        assert len(tr.final) == 5

    def test_seed_validation(self):
        with pytest.raises(PreconditionError):
            percolate(make_complete(3), 1, "vertex", [3])
        with pytest.raises(PreconditionError):
            percolate(make_complete(3), -1, "vertex", [0])


class TestIsPercolatingVertices:
    @pytest.mark.parametrize("n,r", [(3, 1), (4, 3), (4, 2), (3, 5), (5, 5)])
    def test_complete_graph_prefix_seed(self, n, r):
        # the first min(n, r) vertices always percolate the complete graph
        assert is_percolating(make_complete(n), r, "vertex", range(min(n, r)))

    def test_undersized_seed_fails(self):
        assert not is_percolating(make_complete(4), 3, "vertex", [0, 1])

    def test_empty_seed_percolates_at_zero(self):
        rng = random.Random(3)
        for _ in range(5):
            assert is_percolating(random_graph(rng), 0, "vertex", [])


class TestStarProcess:
    def test_triangle_seed_fills_k4(self):
        k4 = make_complete(4)
        tr = percolate(k4, 2, "star", [(0, 1), (0, 2), (1, 2)])
        assert tr.final == frozenset(k4.edge_list())
        assert tr.rounds == (frozenset({(0, 3), (1, 3), (2, 3)}),)

    def test_path_seed_stalls_on_triangle(self):
        tr = percolate(make_complete(3), 2, "star", [(0, 1), (0, 2)])
        assert tr.final == frozenset({(0, 1), (0, 2)})

    def test_threshold_one_spreads_per_component(self):
        # two triangles plus an isolated vertex; one seed edge per triangle
        g = Graph.from_edges(
            7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        tr = percolate(g, 1, "star", [(0, 1), (3, 4)])
        assert tr.final == frozenset(g.edge_list())

    def test_seed_must_be_edges(self):
        with pytest.raises(PreconditionError):
            percolate(make_complete(3), 1, "star", [(0, 3)])


class TestLineProcess:
    def test_two_edge_seed_fills_k4(self):
        k4 = make_complete(4)
        tr = percolate(k4, 2, "line", [(0, 3), (2, 3)])
        assert tr.final == frozenset(k4.edge_list())
        # hand closure: (0,2) and (1,3) first, then (0,1) and (1,2)
        assert tr.rounds == (
            frozenset({(0, 2), (1, 3)}),
            frozenset({(0, 1), (1, 2)}),
        )

    def test_huge_threshold_stalls(self):
        k4 = make_complete(4)
        seed = k4.edge_list()[:5]
        tr = percolate(k4, 9, "line", seed)
        assert tr.final == frozenset(seed)

    def test_triangle_closures(self):
        k3 = make_complete(3)
        assert percolate(k3, 2, "line", [(0, 1)]).final == frozenset({(0, 1)})
        tr = percolate(k3, 2, "line", [(0, 1), (0, 2)])
        assert tr.rounds == (frozenset({(1, 2)}),)

    def test_splits_star_process(self):
        # endpoint counts 1+1 activate the line process but not the star process
        k3 = make_complete(3)
        seed = [(0, 1), (0, 2)]
        assert is_percolating(k3, 2, "line", seed)
        assert not is_percolating(k3, 2, "star", seed)


class TestMalformedEdgeSeeds:
    """Edge seeds are (u, v) pairs; any other seed element is a PreconditionError."""

    @pytest.mark.parametrize("entry", [percolate, is_percolating])
    @pytest.mark.parametrize("process", ["star", "line"])
    @pytest.mark.parametrize("element", [(0.0, 1), ("a", 1), (0, 1, 2), None])
    def test_is_a_precondition_error(self, entry, process, element):
        with pytest.raises(PreconditionError) as exc:
            entry(make_complete(4), 1, process, [(0, 1), element])
        assert str(exc.value) == f"seed edge {element!r} is not a pair of ints"

    @pytest.mark.parametrize("entry", [percolate, is_percolating, is_percolating_hamming])
    @pytest.mark.parametrize("process", ["star", "line"])
    def test_edge_ids_are_refused(self, entry, process):
        # 3 is an edge id of K_4; both kernels refuse it with the same error
        host = HammingSpace(4, 1) if entry is is_percolating_hamming else make_complete(4)
        with pytest.raises(PreconditionError) as exc:
            entry(host, 1, process, [(0, 1), 3])
        assert str(exc.value) == "seed edge 3 is not a pair of ints"


class TestUnknownProcess:
    # every entry point names the process; none falls through to another one
    @pytest.mark.parametrize(
        "entry",
        [
            lambda process: percolate(make_complete(4), 2, process, []),
            lambda process: is_percolating(make_complete(4), 2, process, []),
            lambda process: min_percolating(make_complete(4), 2, process),
            lambda process: is_percolating_hamming(HammingSpace(4, 1), 2, process, []),
        ],
        ids=["percolate", "is_percolating", "min_percolating", "is_percolating_hamming"],
    )
    def test_is_refused(self, entry):
        with pytest.raises(PreconditionError, match="unknown process 'bogus'"):
            entry("bogus")


THRESHOLD_CALLERS = {
    **{
        f"{entry.__name__}-{process}": (
            lambda r, entry=entry, process=process: entry(make_complete(4), r, process, [])
        )
        for entry in (percolate, is_percolating)
        for process in ("vertex", "star", "line")
    },
    **{
        f"is_percolating_hamming-{process}": (
            lambda r, process=process: is_percolating_hamming(HammingSpace(4, 1), r, process, [])
        )
        for process in ("vertex", "star", "line")
    },
    "min_percolating": lambda r: min_percolating(make_complete(4), r, "vertex"),
    "vertex_seed_dim2": lambda r: vertex_seed_dim2(5, r),
    "simplex_corner_set": lambda r: simplex_corner_set(5, r, 2),
    "carved_corner_set": lambda r: carved_corner_set(5, r, 2),
    "star_seed_hamming": lambda r: star_seed_hamming(5, r, 2),
    "line_seed": lambda r: line_seed(8, r),
}


class TestThresholdType:
    """Every entry point that takes a threshold refuses one that is not an int."""

    @pytest.mark.parametrize("caller", THRESHOLD_CALLERS.values(), ids=THRESHOLD_CALLERS.keys())
    @pytest.mark.parametrize("r", [1.5, "2", None], ids=["float", "str", "none"])
    def test_non_int_is_refused(self, caller, r):
        with pytest.raises(PreconditionError) as exc:
            caller(r)
        assert str(exc.value) == f"threshold r must be an int, not {r!r}"

    @pytest.mark.parametrize("caller", THRESHOLD_CALLERS.values(), ids=THRESHOLD_CALLERS.keys())
    def test_negative_keeps_its_message(self, caller):
        with pytest.raises(PreconditionError) as exc:
            caller(-1)
        assert str(exc.value) == "threshold r must be nonnegative"

    def test_bool_is_an_int(self):
        k4 = make_complete(4)
        assert percolate(k4, True, "vertex", [0]) == percolate(k4, 1, "vertex", [0])
        assert is_percolating_hamming(HammingSpace(4, 1), True, "star", [(0, 1)])
        assert line_seed(8, True) == line_seed(8, 1)


class TestTraceInvariants:
    def processes(self, g, rng):
        yield "vertex", random_vertex_seed(rng, g)
        yield "star", random_edge_seed(rng, g)
        yield "line", random_edge_seed(rng, g)

    def test_rounds_partition_the_growth(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_graph(rng)
            r = rng.randint(0, 4)
            for process, seed in self.processes(g, rng):
                tr = percolate(g, r, process, seed)
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
            for process, seed in self.processes(g, rng):
                tr = percolate(g, r, process, seed)
                again = percolate(g, r, process, tr.final)
                assert again.rounds == ()
                assert again.final == tr.final

    def test_monotone_in_seed(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_graph(rng)
            r = rng.randint(0, 4)
            small = random_vertex_seed(rng, g)
            extra = random_vertex_seed(rng, g)
            a = percolate(g, r, "vertex", small).final
            b = percolate(g, r, "vertex", small | extra).final
            assert a <= b
            es = random_edge_seed(rng, g)
            ee = random_edge_seed(rng, g)
            assert percolate(g, r, "star", es).final <= percolate(g, r, "star", es | ee).final
            assert (
                percolate(g, r, "line", es).final
                <= percolate(g, r, "line", es | ee).final
            )

    def test_monotone_in_threshold(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng)
            r = rng.randint(0, 4)
            vs = random_vertex_seed(rng, g)
            es = random_edge_seed(rng, g)
            assert percolate(g, r + 1, "vertex", vs).final <= percolate(g, r, "vertex", vs).final
            assert (
                percolate(g, r + 1, "star", es).final
                <= percolate(g, r, "star", es).final
            )
            assert (
                percolate(g, r + 1, "line", es).final
                <= percolate(g, r, "line", es).final
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
            tr = percolate(g, r, "vertex", vseed)
            assert (tr.rounds, tr.final) == naive_rounds(g, r, vseed, _VertexRule)
            tr = percolate(g, r, "star", eseed)
            assert (tr.rounds, tr.final) == naive_rounds(g, r, eseed, _StarRule)
            tr = percolate(g, r, "line", eseed)
            assert (tr.rounds, tr.final) == naive_rounds(g, r, eseed, _LineRule)


class TestLineGraphEquivalence:
    def test_matches_vertex_process_round_for_round(self):
        rng = random.Random(101)
        for _ in range(60):
            g = random_graph(rng, 8)
            r = rng.randint(0, 6)
            seed = random_edge_seed(rng, g)
            lg = make_line_graph(g)
            direct = percolate(g, r, "line", seed)
            mapped = percolate(g=lg, r=r, process="vertex", seed=[g.edge_id(*e) for e in seed])
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

    @pytest.mark.parametrize(
        "text", ["w x\n", "v zz 3\n", "e 0\n"], ids=["unknown-tag", "v-field-count", "e-field-count"]
    )
    def test_shape_is_checked_before_the_integers(self, text):
        with pytest.raises(FormatError) as exc:
            seed_from_text(text)
        assert str(exc.value) == "line 1: expected 'v <i>' or 'e <u> <v>'"

    def test_skips_blank_and_comment_lines(self):
        assert seed_from_text("# seed\n\n  v 3\n\te 2 1\n") == ({3}, {(1, 2)})

    def test_non_integer_token_names_its_line(self):
        with pytest.raises(FormatError, match="line 2:"):
            seed_from_text("v 1\nv zz\n")
        with pytest.raises(FormatError, match="line 1:"):
            seed_from_text("e 0 x\n")

    def test_trace_json_shape(self):
        k3 = make_complete(3)
        tr = percolate(k3, 2, "line", [(0, 1), (0, 2)])
        payload = trace_to_jsonable(tr, percolated=True)
        assert json.loads(json.dumps(payload)) == {
            "seed": [[0, 1], [0, 2]],
            "rounds": [[[1, 2]]],
            "final": [[0, 1], [0, 2], [1, 2]],
            "percolated": True,
        }
