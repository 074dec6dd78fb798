"""The one-rank polymethod report against the old two-stage computation."""

from fractions import Fraction

import pytest

import reference_linalg as ref
from bootperc.graphs import make_complete, make_hamming
from bootperc.hamming import HammingSpace
from bootperc.linalg import mat_rank
from bootperc.polymethod import product_coloring_on, recognized_space_report
from conftest import integer_rows
from reference_lift import iterated_lift, product_coloring


def hamming(n, d):
    g = make_hamming(HammingSpace(n, d))
    return g, product_coloring_on(g)


def rational_k5():
    g = make_complete(5)
    gammas = [Fraction(1, 2), 3, Fraction(5, 7), 2, 11]
    return g, product_coloring_on(g, gammas)


CASES = (
    [(f"Kn:{n}", lambda n=n: (make_complete(n), product_coloring(n)), r)
     for n in range(2, 7) for r in range(n)]
    + [(f"Hamming:{n},{d}", lambda n=n, d=d: hamming(n, d), r)
       for n, d, rmax in ((3, 2, 4), (3, 3, 3), (4, 2, 4)) for r in range(1, rmax + 1)]
    + [(f"lifted:{n},{d}", lambda n=n, d=d: iterated_lift(n, d), r)
       for n, d in ((4, 2), (3, 3)) for r in (1, 2, 3)]
    + [("K5:1/2,3,5/7,2,11", rational_k5, r) for r in (1, 2, 3, 4)]
)


@pytest.mark.parametrize("build,r", [(b, r) for _, b, r in CASES],
                         ids=[f"{name}-r{r}" for name, _, r in CASES])
def test_report_matches_the_two_stage_reference(build, r):
    g, coloring = build()
    assert recognized_space_report(g, coloring, r) == ref.recognized_space_report(g, coloring, r)


def stacked_constraints_and_evaluations(g, coloring, r):
    """Dense [C;E]: rows P_u(c) - P_v(c), then rows P_u(c), one of each per edge."""
    ncols = g.vertex_count * r
    constraints, evaluations = [], []
    for (u, v), lam in zip(g.edge_list(), map(Fraction, coloring)):
        c_row, e_row = [Fraction(0)] * ncols, [Fraction(0)] * ncols
        for k in range(r):
            c_row[u * r + k] += lam**k
            c_row[v * r + k] -= lam**k
            e_row[u * r + k] += lam**k
        constraints.append(c_row)
        evaluations.append(e_row)
    return constraints + evaluations


@pytest.mark.parametrize("build,r", [(b, r) for _, b, r in CASES if r >= 1],
                         ids=[f"{name}-r{r}" for name, _, r in CASES if r >= 1])
def test_vandermonde_identity(build, r):
    g, coloring = build()
    degree_sum = sum(min(g.degree(v), r) for v in range(g.vertex_count))
    assert mat_rank(integer_rows(stacked_constraints_and_evaluations(g, coloring, r))) == degree_sum


def test_vandermonde_identity_against_the_fraction_rank():
    g, coloring = rational_k5()
    for r in (1, 2, 3, 5):
        degree_sum = sum(min(g.degree(v), r) for v in range(g.vertex_count))
        assert ref.mat_rank(stacked_constraints_and_evaluations(g, coloring, r)) == degree_sum
