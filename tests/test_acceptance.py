"""Acceptance suite.

One test per exit criterion.  Each test does its full sweep, prints a
single pass/fail line (visible with ``pytest -s``) including the wall
time, and asserts both the checked facts and the stated time budget.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import ceil, comb

from bootperc.constructions import (
    carved_corner_set,
    line_seed,
    simplex_corner_set,
    star_seed_hamming,
    vertex_seed_dim2,
)
from bootperc.engine import is_percolating, percolate
from bootperc.formulas import min_seed_hamming_bounds
from bootperc.graphs import (
    make_complete,
    make_hamming,
    make_line_graph,
)
from bootperc.hamming import HammingSpace
from bootperc.linalg import mat_rank
from bootperc.oracle import min_percolating
from bootperc.polymethod import first_primes

from conftest import integer_rows, random_edge_seed, random_graph, random_vertex_seed
from reference_lift import cartesian_product, lift_coloring, product_coloring, recognized_space_dim
from reference_simplex import count_weighted_simplex, weighted_simplex_bounds
from reference_witnesses import complete_graph_witnesses, evaluate, witness_value_matrix


def _report(num: int, label: str, ok: bool, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"criterion {num} [{label}]: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({label}) failed"
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


@lru_cache(maxsize=None)
def _dim2_oracle_minimum(n: int, r: int) -> int:
    g = make_hamming(HammingSpace(n, 2))
    return min_percolating(g, r, "vertex").minimum


DIM2_ORACLE_INSTANCES = ((2, 2), (3, 2), (3, 3), (4, 3))


def test_criterion_1_dim2_exactness():
    started = time.perf_counter()
    ok = True
    for r in range(0, 11):
        for n in range(ceil(r / 2) + 1, r + 5):
            seed = vertex_seed_dim2(n, r)
            ok = ok and len(seed) == (r + 1) ** 2 // 4
            g = make_hamming(HammingSpace(n, 2))
            ok = ok and is_percolating(g, r, "vertex", seed)
    _report(1, "dimension-2 exactness", ok, started, 1.0)


def test_criterion_2_dim2_oracle_equality():
    started = time.perf_counter()
    ok = True
    for n, r in DIM2_ORACLE_INSTANCES:
        ok = ok and _dim2_oracle_minimum(n, r) == (r + 1) ** 2 // 4
    _report(2, "dimension-2 oracle equality", ok, started, 60.0)


def test_criterion_3_weak_saturation_exactness():
    started = time.perf_counter()
    ok = True
    for d in (1, 2, 3):
        for r in (1, 2, 3, 4):
            for n in (r + 1, r + 2):
                seed = star_seed_hamming(n, r, d)
                ok = ok and len(seed) == comb(d + r, d + 1)
                g = make_hamming(HammingSpace(n, d))
                ok = ok and is_percolating(g, r, "star", seed)
    k4 = make_complete(4)
    ok = ok and min_percolating(k4, 2, "star").minimum == 3
    ok = ok and min_percolating(k4, 3, "star").minimum == 6
    _report(3, "weak saturation exactness", ok, started, 60.0)


def test_criterion_4_polynomial_squeeze():
    started = time.perf_counter()
    ok = True
    for n in range(2, 6):
        for r in range(1, n):
            dim = recognized_space_dim(make_complete(n), product_coloring(n), r)
            ok = ok and dim == comb(r + 1, 2)
    for n, r in ((4, 2), (5, 3), (5, 4)):
        witnesses = complete_graph_witnesses(n, r)
        gammas = first_primes(n)
        for w in witnesses:
            ok = ok and all(len(roots) <= r - 1 for _, roots in w.polynomials)
            for i, j in combinations(range(n), 2):
                color = gammas[i] * gammas[j]
                left = evaluate(w.polynomials[i], color)
                ok = ok and left == evaluate(w.polynomials[j], color) == w.values[(i, j)]
        matrix = witness_value_matrix(witnesses, make_complete(n))
        ok = ok and mat_rank(integer_rows(matrix)) == comb(r + 1, 2)
    _report(4, "polynomial-method squeeze", ok, started, 30.0)


def test_criterion_5_lift_inequality():
    started = time.perf_counter()
    ok = True
    for base_n in (3, 4):
        g = make_complete(base_n)
        coloring = product_coloring(base_n)
        for m in (2, 3):
            lifted = lift_coloring(g, coloring, m)
            product = cartesian_product(g, make_complete(m))
            for r in (1, 2, 3):
                layer_sum = sum(
                    recognized_space_dim(g, coloring, r - t) for t in range(m)
                )
                ok = ok and recognized_space_dim(product, lifted, r) >= layer_sum
    _report(5, "lift inequality", ok, started, 60.0)


def test_criterion_6_corner_constructions():
    started = time.perf_counter()
    ok = True
    for d in (2, 3):
        for r in range(1, 7):
            for n in (r + 1, r + 2):
                g = make_hamming(HammingSpace(n, d))
                simplex = simplex_corner_set(n, r, d)
                carved = carved_corner_set(n, r, d)
                ok = ok and carved <= simplex
                ok = ok and is_percolating(g, r, "vertex", simplex)
                ok = ok and is_percolating(g, r, "vertex", carved)
                _, upper = min_seed_hamming_bounds(n, r, d)
                ok = ok and Fraction(len(carved)) <= upper
    for n, r in DIM2_ORACLE_INSTANCES:
        lower = Fraction(comb(2 + r, 3), r)
        ok = ok and lower <= _dim2_oracle_minimum(n, r)
    _report(6, "corner constructions", ok, started, 120.0)


def test_criterion_7_line_graphs():
    started = time.perf_counter()
    ok = True
    for r in range(0, 11):
        lo = ceil(r / 2) + 2
        for n in range(lo, lo + 5):
            seed = line_seed(n, r)
            ok = ok and len(seed) == (r + 2) ** 2 // 8
            ok = ok and is_percolating(make_complete(n), r, "line", seed)
    for n, r, expected in ((4, 1, 1), (4, 2, 2), (5, 2, 2), (5, 3, 3)):
        ok = ok and min_percolating(make_complete(n), r, "line").minimum == expected
    rng = random.Random(1729)
    for _ in range(100):
        g = random_graph(rng, 8)
        r = rng.randint(0, 6)
        seed = random_edge_seed(rng, g)
        lg = make_line_graph(g)
        direct = percolate(g, r, "line", seed)
        mapped = percolate(lg, r, "vertex", [g.edge_id(*e) for e in seed])
        ok = ok and len(direct.rounds) == len(mapped.rounds)
        for d_round, m_round in zip(direct.rounds, mapped.rounds):
            ok = ok and d_round == frozenset((g.tails[i], g.heads[i]) for i in m_round)
    _report(7, "line graphs", ok, started, 120.0)


def test_criterion_8_property_suite():
    started = time.perf_counter()
    ok = True
    rng = random.Random(271828)
    processes = (
        ("vertex", random_vertex_seed),
        ("star", random_edge_seed),
        ("line", random_edge_seed),
    )
    for _ in range(30):
        g = random_graph(rng)
        r = rng.randint(0, 4)
        for process, make_seed in processes:
            seed = make_seed(rng, g)
            tr = percolate(g, r, process, seed)
            ok = ok and percolate(g, r, process, tr.final).rounds == ()  # closure idempotence
            bigger = seed | make_seed(rng, g)
            ok = ok and tr.final <= percolate(g, r, process, bigger).final  # seed monotonicity
            ok = ok and percolate(g, r + 1, process, seed).final <= tr.final  # r monotonicity
    for _ in range(200):
        k = rng.randint(1, 4)
        weights = [Fraction(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(k)]
        b = max(Fraction(rng.randint(1, 12)), min(weights))
        lower, upper = weighted_simplex_bounds(weights, b)
        count = count_weighted_simplex(weights, b)
        ok = ok and lower <= count <= upper
    for d in range(1, 7):
        for r in range(1, 13):
            total = sum(comb(d - 1 + r - t, d) for t in range(r))
            ok = ok and total == comb(d + r, d + 1)
    _report(8, "property suite", ok, started, 30.0)
