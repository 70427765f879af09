"""The dense eliminator's unique-solution reading, and the fraction-free
incremental eliminator against it."""

from math import gcd

from hypothesis import given, settings, strategies as st

from takiff import Q
from takiff.linalg import Echelon, rref, solve_unique


def rows_of(*rows):
    return [[Q(x) for x in row] for row in rows]


def test_solve_unique_returns_the_solution_of_a_determined_system():
    # x + 2y = 5, 3x - y = 1, and a redundant consistent third row
    rows = rows_of([1, 2, 5], [3, -1, 1], [4, 1, 6])
    assert solve_unique(rows, 2) == [Q(1), Q(2)]
    assert rows == rows_of([1, 2, 5], [3, -1, 1], [4, 1, 6])  # input untouched


def test_solve_unique_rejects_an_underdetermined_system():
    # x + y = 1 twice over: the y column takes no pivot
    assert solve_unique(rows_of([1, 1, 1], [2, 2, 2]), 2) is None
    assert solve_unique(rows_of([0, 1, 3]), 2) is None


def test_solve_unique_rejects_an_inconsistent_system():
    # x = 1 and x = 2: the augmented column takes a pivot
    assert solve_unique(rows_of([1, 1], [1, 2]), 1) is None
    assert solve_unique(rows_of([1, 0, 1], [0, 1, 1], [1, 1, 3]), 2) is None


KEYS = range(6)


def pivot_order(k):
    # a nontrivial ordering: pivots prefer odd labels, then larger ones
    return (k % 2 == 0, -k)


def rank(vectors):
    return len(rref([[Q(v.get(k, 0)) for k in KEYS] for v in vectors]))


def combine(pairs):
    """sum(c * vec) over (c, vec) pairs, as a dict without zeros."""
    out = {}
    for c, vec in pairs:
        for k, x in vec.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


sparse_vectors = st.dictionaries(
    st.sampled_from(KEYS),
    st.builds(Q, st.integers(-3, 3), st.sampled_from([1, 2, 3, 6])),
    max_size=4)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(sparse_vectors, max_size=8), sparse_vectors)
def test_echelon_is_fraction_free_and_exact(vectors, probe):
    span = Echelon(keyfn=pivot_order)
    seen = []
    for vec in vectors:
        before = rank(seen)
        seen.append(vec)
        ridx, combo, mult, content = span.insert(vec)
        # the span grows exactly when the rank does
        assert (ridx is None) == (rank(seen) == before)
        assert all(type(x) is int for x in (mult, content, *combo.values()))
        assert mult > 0
        stored = [] if ridx is None else [(content, span.rows[ridx])]
        assert combine([(mult, vec)]) == combine(
            stored + [(c, span.rows[i]) for i, c in combo.items()])
    assert len(span) == rank(vectors)
    for idx, row in enumerate(span.rows):
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1
        pivot = min(row, key=pivot_order)
        assert row[pivot] > 0 and span.pivot_of[pivot] == idx
    residual, combo = span.reduce(probe)
    assert combine([(1, probe)]) == combine(
        [(1, residual)] + [(c, span.rows[i]) for i, c in combo.items()])
    assert not set(residual) & set(span.pivot_of)
    assert (not residual) == (rank(vectors + [probe]) == len(span))
