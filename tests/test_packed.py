"""The packed closures on K_n^d against the CSR engine, round for round."""

import random
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from bootperc.constructions import carved_corner_set, line_seed, star_seed_hamming
from bootperc.engine import percolate
from bootperc.errors import PreconditionError, ResourceLimitError
from bootperc.graphs import make_hamming
from bootperc.hamming import HammingSpace
from bootperc.packed import (
    _Packed,
    _copies,
    _packed_closure,
    _seed_neighbours,
    check_packed,
    is_percolating_hamming,
)

# every (n, d) with n <= 8 and n^d <= 4096; n = 1 is one vertex whatever d is;
# K_130 has degree 129, so its count fields take two bytes
SPACES = [(1, 1), (1, 3)] + [
    (n, d) for n in range(2, 9) for d in range(1, 13) if n**d <= 4096
] + [(130, 1)]


@lru_cache(maxsize=None)
def graph(n, d):
    return make_hamming(HammingSpace(n, d))

def processes(d):
    return ("vertex", "star", "line") if d == 1 else ("vertex", "star")


def paper_seed(process, n, d):
    """The paper's seed built for threshold n-1, the largest its construction admits."""
    if process == "star":
        return star_seed_hamming(n, n - 1, d)
    if process == "line":
        return line_seed(n, n - 1) if n >= 3 else frozenset()
    if d == 1:
        return frozenset(range(n - 1))  # any n-1 vertices percolate K_n at n-1
    return carved_corner_set(n, n - 1, d)


def random_seed(rng, process, g, density):
    """A share ``density`` of the vertices or edges, drawn at random; pairs in either order."""
    if process == "vertex":
        return rng.sample(range(g.vertex_count), int(density * g.vertex_count))
    edges = rng.sample(g.edge_list(), int(density * g.edge_count))
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


def packed_rounds(n, d, r, process, seed):
    """The packed closure's distinct seed and its rounds, as sets.

    Vertex rounds hold the newly active vertices, star rounds the newly
    saturated vertices, line rounds the newly active edges.  An edge seed,
    which the closure keeps as neighbour lists, is checked to list each
    edge once at each end and given back as (u, v) pairs, u < v.
    """
    p, start, rounds = _packed_closure(HammingSpace(n, d), r, process, seed)
    if process != "vertex":
        listed = [(u, v) for u, vs in start.items() for v in vs]
        start = {(u, v) for u, v in listed if u < v}
        assert sorted(listed) == sorted(chain(start, ((v, u) for u, v in start)))
    if process == "line":
        def edges(new):
            return {(u, v) for u, fresh in new for v in range(u + 1, n) if fresh >> v & 1}

        return start, [edges(new) for new in rounds]
    return start, [set(p.ids(new)) for new in rounds]


def saturation_rounds(g, r, trace):
    """A star trace's rounds as the vertices whose edges each activates.

    Round i activates the inactive edges at the vertices that first carry
    r active edges after round i-1; the seed is round 0.  One more round
    of such vertices, with no inactive edge left, may follow the last.
    """
    if r == 0:
        return [set(range(g.vertex_count))]  # every vertex carries 0 active edges
    degree = [0] * g.vertex_count
    out = []
    for edges in (trace.seed, *trace.rounds):
        new = set()
        for x, k in Counter(chain.from_iterable(edges)).items():
            degree[x] += k
            if degree[x] - k < r <= degree[x]:
                new.add(x)
        out.append(new)
    while out and not out[-1]:
        out.pop()
    return out


def assert_same(n, d, r, process, seed):
    """The packed closure against the CSR engine's trace; returns the trace."""
    g = graph(n, d)
    want = percolate(g, r, process, seed)
    start, rounds = packed_rounds(n, d, r, process, seed)
    assert start == want.seed
    if process == "star":
        assert rounds == saturation_rounds(g, r, want)
    else:
        assert rounds == list(want.rounds)
    size = g.vertex_count if process == "vertex" else g.edge_count
    assert is_percolating_hamming(HammingSpace(n, d), r, process, seed) == (len(want.final) == size)
    return want


@pytest.mark.parametrize("n,d", SPACES, ids=[f"{n}^{d}" for n, d in SPACES])
def test_matches_the_csr_engine(n, d):
    # r = n-1 is the threshold the paper's seeds are built for: they
    # percolate at it, and without their last element most of them stall.
    # At r = 0 and r = 1 any nonempty seed floods the graph, so one seed,
    # the random one, stands for all three there; past 2000 vertices the
    # flood is only checked to percolate, as the smaller spaces already
    # compare its rounds.
    rng = random.Random(n * 100 + d)
    degree = d * (n - 1)
    g = graph(n, d)
    for process in processes(d):
        paper = sorted(paper_seed(process, n, d))
        seeds = [paper, paper[:-1], random_seed(rng, process, g, 1 / (degree + 2))]
        for r in sorted({0, 1, n - 1, degree, degree + 1}):
            if r > 1:
                for seed in seeds:
                    assert_same(n, d, r, process, seed)
            elif g.vertex_count <= 2000:
                assert_same(n, d, r, process, seeds[2])
            else:
                assert seeds[2]
                assert is_percolating_hamming(HammingSpace(n, d), r, process, seeds[2])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["vertex", "star", "line"]),
    st.floats(0, 0.4),
    st.integers(0, 12),
)
def test_any_seed_matches_the_csr_engine(n, d, key, process, density, r):
    if n**d > 1296:
        d = 2
    if process == "line":
        d = 1  # the line process runs on K_n only
    rng = random.Random(key)
    assert_same(n, d, r, process, random_seed(rng, process, graph(n, d), density))


def test_repunit_cut():
    # the stride-1 axis is multiplied while its repunit spans under 256 bits:
    # n <= 32 with one-byte fields, and never with two-byte ones past K_128
    for n in range(1, 41):
        assert bool(_Packed(HammingSpace(n, 1)).repunit) == (n <= 32)
    assert not _Packed(HammingSpace(130, 1)).repunit


@pytest.mark.parametrize("n,d,width", [(3, 2, 1), (5, 3, 1), (127, 1, 1), (130, 1, 2)])
def test_seed_degrees_are_the_tally_of_the_seed_ends(n, d, width):
    # the star bias writes each vertex's seed degree into its field: the same
    # int as the tally of every seed end; K_127 fills one-byte fields up to
    # its degree 126, and K_130's degree 129 takes two-byte fields
    space = HammingSpace(n, d)
    p = _Packed(space)
    assert p.width == width
    rng = random.Random(n + d)
    for density in (0, 0.05, 0.5, 1):
        others = _seed_neighbours(space, 1, random_seed(rng, "star", graph(n, d), density))
        degrees = p.fields((x, len(ys)) for x, ys in others.items())
        assert degrees == p.tally(chain.from_iterable(others.values()))


# both sides of the repunit cut, and n = 2, whose lines are single steps
CUT_SIDES = (2, 3, 9, 12, 16, 20, 31, 33, 40)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(CUT_SIDES),
    st.integers(1, 3),
    st.sampled_from(["vertex", "star"]),
    st.integers(0, 2**32 - 1),
    st.floats(0, 0.3),
    st.integers(0, 2**16),
)
@example(n=31, d=2, process="vertex", key=1, density=0.05, pick=0)  # r = 0
@example(n=33, d=1, process="star", key=2, density=0.2, pick=0)
@example(n=9, d=3, process="vertex", key=3, density=0.1, pick=26)  # r = degree + 2
@example(n=40, d=1, process="star", key=4, density=0.3, pick=41)
def test_rounds_on_both_sides_of_the_repunit_cut(n, d, process, key, density, pick):
    while n**d > 1200:
        d -= 1
    r = pick % (d * (n - 1) + 3)  # 0 up to two past the degree
    rng = random.Random(key)
    assert_same(n, d, r, process, random_seed(rng, process, graph(n, d), density))


@pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
def test_copies_is_the_sum_of_shifted_copies(up):
    # as in the kernel: byte fields of 0 or 1, shifted by whole fields, so
    # no sum of up to 40 copies carries out of a field
    rng = random.Random(7)
    for count in range(1, 41):
        x = int.from_bytes(bytes(rng.getrandbits(1) for _ in range(300)), "little")
        step = 8 * rng.randrange(1, 4)
        naive = sum(x << c * step if up else x >> c * step for c in range(count))
        assert _copies(x, step, count, up) == naive


def test_no_round_after_every_vertex_is_active(monkeypatch):
    # the seed's sums and each round's but the last, which leaves no vertex inactive
    calls = []
    line_sums = _Packed.line_sums
    monkeypatch.setattr(
        _Packed, "line_sums", lambda self, frontier: calls.append(1) or line_sums(self, frontier)
    )
    seed = carved_corner_set(6, 5, 3)
    p, start, rounds = _packed_closure(HammingSpace(6, 3), 5, "vertex", seed)
    rounds = list(rounds)
    assert len(start) + sum(new.bit_count() for new in rounds) == p.size
    assert len(rounds) > 1
    assert len(calls) == len(rounds)


@pytest.mark.parametrize("process", ["vertex", "star", "line"])
def test_threshold_past_every_field(process):
    # r far above the degree, and above what a one-byte field could hold
    g = graph(4, 1)
    seed = range(3) if process == "vertex" else g.edge_list()[:5]
    for r in (200, 10**9):
        assert assert_same(4, 1, r, process, seed).rounds == ()


@pytest.mark.parametrize("process", ["star", "line"])
def test_repeated_seed_edges_count_once(process):
    # one edge three times, in both orders, is one seed edge
    assert_same(5, 1, 2, process, [(0, 1), (1, 0), (0, 1), (2, 3)])


def test_star_correction_carries_across_bytes():
    # K_258 has degree 257, so a count field takes two bytes.  Every edge
    # at Y = 1..256 is in the seed, so Y saturates in round 1 and takes
    # back 256 seed edges from 0 and from 257 at once: more than one byte.
    n, ys = 258, range(1, 257)
    seed = [(u, v) for u in ys for v in range(u + 1, n)] + [(0, y) for y in ys]
    assert_same(n, 1, 257, "star", seed)
    assert packed_rounds(n, 1, 257, "star", seed)[1] == [set(ys)]


def test_star_seed_is_held_once():
    # the seed's edge tuples share each layer's vertex ids, and the closure
    # keeps one neighbour list per seed vertex besides its packed ints
    tracemalloc.start()
    try:
        seed = star_seed_hamming(20, 19, 3)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        assert is_percolating_hamming(HammingSpace(20, 3), 19, "star", seed)
        extra = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(seed) == 7315
    assert built < 180 * len(seed)
    assert extra < 110 * len(seed)


class TestSeedValidation:
    """The packed path refuses what the CSR path refuses, with the same message."""

    def messages(self, n, d, r, process, seed):
        with pytest.raises(PreconditionError) as packed:
            is_percolating_hamming(HammingSpace(n, d), r, process, seed)
        with pytest.raises(PreconditionError) as csr:
            percolate(graph(n, d), r, process, seed)
        return str(packed.value), str(csr.value)

    @pytest.mark.parametrize("vertex", [9, -1, 100])
    def test_vertex_out_of_range(self, vertex):
        got = self.messages(3, 2, 1, "vertex", [0, vertex])
        assert got == (f"seed vertex {vertex} not in graph",) * 2

    @pytest.mark.parametrize(
        "n,d,process,pair",
        [
            (3, 2, "star", (4, 4)),  # u = v
            (3, 2, "star", (0, 4)),  # (0, 0) and (1, 1) differ in both coordinates
            (3, 2, "star", (8, 0)),  # two coordinates, given in the other order
            (3, 2, "star", (0, 9)),  # out of range
            (5, 1, "line", (2, 2)),
            (5, 1, "line", (-1, 3)),
        ],
    )
    def test_pair_that_is_not_an_edge(self, n, d, process, pair):
        got = self.messages(n, d, 1, process, [(0, 1), pair])
        assert got == (f"seed edge {tuple(sorted(pair))} not in graph",) * 2

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 3), (3, 2), (4, 1), (3, 3)])
    def test_edge_test_is_is_edge(self, n, d):
        # the seed pass tests adjacency inline; it must agree with the graph's has_edge
        space = HammingSpace(n, d)
        g = make_hamming(space)
        for u in range(-1, space.size + 1):
            for v in range(-1, space.size + 1):
                if g.has_edge(u, v):
                    assert _seed_neighbours(space, 1, [(u, v)]) == {u: [v], v: [u]}
                else:
                    with pytest.raises(PreconditionError, match="not in graph"):
                        _seed_neighbours(space, 1, [(u, v)])

    @pytest.mark.parametrize("vertex", [0.0, "a", (0, 1)])
    def test_vertex_that_is_not_an_int(self, vertex):
        got = self.messages(3, 2, 1, "vertex", [1, vertex])
        assert got == (f"seed vertex {vertex!r} not in graph",) * 2

    def refused(self, process, element):
        with pytest.raises(PreconditionError, match="is not a pair of ints"):
            is_percolating_hamming(HammingSpace(5, 1), 1, process, [(0, 1), element])

    @pytest.mark.parametrize("process", ["star", "line"])
    def test_int_element(self, process):
        self.refused(process, 5)

    @pytest.mark.parametrize("process", ["star", "line"])
    def test_triple(self, process):
        self.refused(process, (0, 1, 2))

    @pytest.mark.parametrize("process", ["star", "line"])
    def test_pair_of_a_string_and_an_int(self, process):
        self.refused(process, ("a", 1))

    @pytest.mark.parametrize("process", ["star", "line"])
    def test_pair_with_a_float(self, process):
        self.refused(process, (0.0, 1))

    @pytest.mark.parametrize("process", ["vertex", "star", "line"])
    @pytest.mark.parametrize(
        "element",
        [9, -1, 1.0, (0.0, 1), ("a", 1), (0, 1, 2), None, (0, 4), (2, 2)],
        ids=["vertex-9", "vertex-minus-1", "float-vertex", "float-pair", "str-pair", "triple",
             "none", "non-adjacent-pair", "loop"],
    )
    def test_both_kernels_refuse_alike(self, process, element):
        # one set of checks serves both kernels: vertex and star on K_3^2, line on K_4;
        # (0, 4) joins (0, 0) and (1, 1) on K_3^2 and leaves K_4
        n, d = (4, 1) if process == "line" else (3, 2)
        packed, csr = self.messages(n, d, 1, process, [element])
        assert packed == csr

    @pytest.mark.parametrize("process", ["vertex", "star", "line"])
    def test_negative_threshold(self, process):
        got = self.messages(4, 1, -1, process, [])
        assert got == ("threshold r must be nonnegative",) * 2


class TestGuard:
    def test_one_vertex_whatever_the_dimension(self):
        space = HammingSpace(1, 10**6)
        check_packed(space, "vertex")
        assert packed_rounds(1, 10**6, 0, "vertex", []) == (set(), [{0}])
        assert is_percolating_hamming(space, 1, "star", [])

    @pytest.mark.parametrize("process", ["vertex", "star", "line"])
    def test_one_vertex_is_k1_to_the_guard(self, process):
        # n = 1 has one axis, as K_1, however large d is
        check_packed(HammingSpace(1, 10**9), process)

    def test_huge_dimension_is_refused_before_n_to_the_d(self):
        with pytest.raises(ResourceLimitError, match="more than 2147483648 bits: 2\\^100000"):
            check_packed(HammingSpace(2, 100_000), "star")

    def test_line_process_lives_on_the_complete_graph(self):
        with pytest.raises(PreconditionError, match="K_n"):
            check_packed(HammingSpace(4, 2), "line")
        with pytest.raises(PreconditionError, match="unknown process"):
            is_percolating_hamming(HammingSpace(4, 1), 1, "edge", [])
