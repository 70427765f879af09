"""The dense eliminator's unique-solution reading."""

from takiff import Q
from takiff.linalg import solve_unique


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
