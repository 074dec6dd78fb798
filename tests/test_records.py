"""The result records and the graph classes: equality, read-only fields and repr."""

import pytest

from bootperc.engine import ActivationTrace, percolate
from bootperc.errors import PreconditionError
from bootperc.graphs import Graph, make_complete, make_hamming
from bootperc.hamming import HammingSpace
from bootperc.oracle import SearchResult
from bootperc.polymethod import DimReport

# each record class with a builder of fresh instances and its fields in order
RECORDS = {
    "ActivationTrace": (
        lambda: ActivationTrace(frozenset({0}), (frozenset({1}),), frozenset({0, 1})),
        ("seed", "rounds", "final"),
    ),
    "SearchResult": (lambda: SearchResult(2, (0, 3), 17), ("minimum", "witness", "engine_calls")),
    "DimReport": (
        lambda: DimReport(6, 6, 12, 6),
        ("dim", "constraint_rows", "constraint_cols", "kernel_dim"),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestResultRecords:
    def test_equal_fields_compare_equal(self, name):
        build, _ = RECORDS[name]
        assert build() == build()

    def test_fields_are_read_only(self, name):
        build, fields = RECORDS[name]
        record = build()
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_repr_keeps_field_order(self, name):
        build, fields = RECORDS[name]
        record = build()
        shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
        assert repr(record) == f"{name}({shown})"


def test_activation_trace_round_count():
    trace = percolate(make_complete(4), 2, "vertex", [0, 1])
    assert (trace.round_count, len(trace.final)) == (1, 4)


class TestGraph:
    def test_equal_rows_compare_equal(self):
        assert make_complete(4) == Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u)])
        assert make_complete(4) != make_complete(5)
        assert make_complete(3) != Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_fields_are_read_only(self):
        g = make_complete(3)
        for field in ("vertex_count", "offsets", "targets"):
            with pytest.raises(AttributeError):
                setattr(g, field, None)
            with pytest.raises(AttributeError):
                delattr(g, field)

    def test_repr_shows_only_the_vertex_count(self):
        assert repr(make_hamming(HammingSpace(3, 2))) == "Graph(vertex_count=9)"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(make_complete(3))

    def test_cached_views(self):
        g = Graph.from_edges(4, [(2, 3), (0, 1), (1, 2)])
        assert g.edge_list() == [(0, 1), (1, 2), (2, 3)]
        assert list(g.slot_edges) == [0, 0, 1, 1, 2, 2]
        assert g.slot_edges is g.slot_edges
        assert g.edge_id(3, 2) == 2


class TestHammingSpace:
    def test_equal_fields_compare_equal_and_hash_equal(self):
        assert HammingSpace(3, 2) == HammingSpace(3, 2)
        assert HammingSpace(3, 2) != HammingSpace(2, 3)
        assert len({HammingSpace(3, 2), HammingSpace(3, 2), HammingSpace(2, 3)}) == 2

    def test_fields_are_read_only(self):
        space = HammingSpace(3, 2)
        for field in ("n", "d"):
            with pytest.raises(AttributeError):
                setattr(space, field, 4)
        assert (space.n, space.d, space.size) == (3, 2, 9)

    def test_repr(self):
        assert repr(HammingSpace(3, 2)) == "HammingSpace(n=3, d=2)"

    @pytest.mark.parametrize("n,d", [(0, 2), (2, 0)])
    def test_validates(self, n, d):
        with pytest.raises(PreconditionError):
            HammingSpace(n, d)
