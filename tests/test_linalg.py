import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_linalg as ref
from bootperc.linalg import mat_rank
from conftest import integer_rows


def random_matrix(rng, max_dim=6):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


class TestRank:
    def test_known_values(self):
        assert mat_rank(integer_rows([[1, 0], [0, 1]])) == 2
        assert mat_rank(integer_rows([[1, 2], [2, 4]])) == 1
        assert mat_rank(integer_rows([[0, 0], [0, 0]])) == 0
        assert mat_rank([]) == 0
        assert mat_rank(integer_rows([[1, 2, 3]])) == 1

    def test_exact_fractions(self):
        # rows are dependent only under exact arithmetic
        m = [
            [Fraction(1, 3), Fraction(1, 7)],
            [Fraction(2, 3), Fraction(2, 7)],
        ]
        assert mat_rank(integer_rows(m)) == 1

    def test_invariant_under_permutations(self):
        rng = random.Random(2024)
        for _ in range(100):
            m = random_matrix(rng)
            base = mat_rank(integer_rows(m))
            rows = m[:]
            rng.shuffle(rows)
            perm = list(range(len(m[0])))
            rng.shuffle(perm)
            shuffled = [[row[j] for j in perm] for row in rows]
            assert mat_rank(integer_rows(shuffled)) == base

    def test_transposition_invariance(self):
        rng = random.Random(99)
        for _ in range(30):
            m = random_matrix(rng)
            t = [list(col) for col in zip(*m)]
            assert mat_rank(integer_rows(m)) == mat_rank(integer_rows(t))

    def test_rows_are_left_unchanged(self):
        # zero entries included: the copy drops them, the caller's rows keep them
        rows = [{0: 2, 1: 0, 2: 4}, {0: 1, 2: 2}, {1: -3, 2: 0}, {}, {0: 0}]
        before = [dict(row) for row in rows]
        assert mat_rank(rows) == 2
        assert rows == before


entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def rational_matrices(draw):
    """Small rational matrices with zero rows and repeated (or scaled) rows mixed in."""
    cols = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    extras = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5), entries), max_size=3))
    for kind, index, factor in extras:
        if kind == 0:
            rows.append([Fraction(0)] * cols)
        elif kind == 1:
            rows.append(list(rows[index % len(rows)]))
        else:
            rows.append([factor * x for x in rows[index % len(rows)]])
    return draw(st.permutations(rows))


class TestRankAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_matches_fraction_rank(self, m):
        assert mat_rank(integer_rows(m)) == ref.mat_rank(m)

    def test_entries_beyond_machine_words(self):
        big = 2**200 + 1
        assert mat_rank(integer_rows([[big, big + 1], [big * 3, big * 3 + 3]])) == 1
        assert mat_rank(integer_rows([[big, big + 1], [big * 3, big * 3 + 2]])) == 2


# rref and nullspace survive only in the test-only reference, where the
# old two-stage dimension the polymethod is compared against uses them.
class TestRref:
    def test_pivot_columns(self):
        m = [[0, 1, 2], [0, 2, 4]]
        reduced, pivots = ref.rref(m)
        assert pivots == [1]
        assert reduced[0] == [Fraction(0), Fraction(1), Fraction(2)]

    def test_leading_ones(self):
        rng = random.Random(8)
        for _ in range(20):
            m = random_matrix(rng)
            reduced, pivots = ref.rref(m)
            for row_idx, pc in enumerate(pivots):
                assert reduced[row_idx][pc] == 1
                for other in range(len(m)):
                    if other != row_idx:
                        assert reduced[other][pc] == 0


class TestNullspace:
    def test_defining_property(self):
        rng = random.Random(55)
        for _ in range(40):
            m = random_matrix(rng)
            cols = len(m[0])
            basis = ref.nullspace(m, cols)
            assert len(basis) == cols - mat_rank(integer_rows(m))
            for vec in basis:
                for row in m:
                    assert sum(a * b for a, b in zip(row, vec)) == 0
            # basis vectors are independent
            assert mat_rank(integer_rows(basis)) == len(basis)

    def test_no_rows_gives_standard_basis(self):
        basis = ref.nullspace([], 3)
        assert basis == [
            [Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)],
        ]

    def test_rejects_ragged_input(self):
        with pytest.raises(ValueError):
            ref.nullspace([[1, 2]], 3)
