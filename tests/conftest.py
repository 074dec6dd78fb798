"""Shared helpers for randomized property tests (all seeded, all tiny)."""

from __future__ import annotations

import random
from concurrent.futures import Future
from fractions import Fraction
from math import lcm

from bootperc.graphs import Graph


def random_graph(rng: random.Random, max_vertices: int = 8, edge_prob: float = 0.45) -> Graph:
    n = rng.randint(1, max_vertices)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    return Graph.from_edges(n, edges)


def random_vertex_seed(rng: random.Random, g: Graph) -> frozenset[int]:
    return frozenset(v for v in range(g.vertex_count) if rng.random() < 0.3)


def random_edge_seed(rng: random.Random, g: Graph) -> frozenset[tuple[int, int]]:
    return frozenset(e for e in g.edge_list() if rng.random() < 0.3)


def integer_rows(matrix):
    """Dense rational rows as the sparse integer rows ``mat_rank`` takes:
    each row scaled by the lcm of its denominators, its zeros dropped."""
    rows = []
    for row in matrix:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        rows.append({j: int(x * scale) for j, x in enumerate(row) if x})
    return rows


class RecordingExecutor:
    """Stand-in for ProcessPoolExecutor: records ``max_workers`` and the
    number of tasks of each ``map`` (one per ``submit``), and runs the
    initializer and the tasks in the calling process, so no test ever
    starts a large pool."""

    created: list[int] = []
    tasks: list[int] = []

    @classmethod
    def reset(cls) -> None:
        cls.created.clear()
        cls.tasks.clear()

    def __init__(self, max_workers: int, initializer=None, initargs=()) -> None:
        RecordingExecutor.created.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def map(self, fn, *iterables):
        results = list(map(fn, *iterables))
        RecordingExecutor.tasks.append(len(results))
        return iter(results)

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        RecordingExecutor.tasks.append(1)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
